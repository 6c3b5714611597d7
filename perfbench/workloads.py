"""The four benchmark workloads: inputs from a seed, operations, and checks.

A workload is built against a freshly imported topokit (``lib``).  Its
``setup`` generates the instances, writes them as JSON and draws any paths
from the seed; this is what ``setup_s`` times.  ``prepare_checks`` then
computes the expected answers with the independent oracles in ``checks``,
outside every timed region.  A pass is ``begin_pass`` followed by one
``run`` per item; ``check`` judges one output after the pass has ended.

Why each workload exists (see README.md for the layer-to-metric table):

* verify-surfaces: dense Smith normal form dominates ``topo verify``; its
  two posets are the only inputs that run the poset pipeline.
* verify-cross: many colour pairs, so link checks and pi1 rewriting
  dominate ``topo verify``.
* rewrite-paths: the O(F) facet scan of path rewriting, with no homology;
  the control for homology changes.
* cycle-classes: homology factored once and queried many times.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from pathlib import Path
from types import SimpleNamespace

import checks

MODULES = ("cli", "complex", "homology", "pi1", "poset", "shapes")


def load_library() -> SimpleNamespace:
    """Import topokit afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "topokit" or n.startswith("topokit.")]:
        del sys.modules[name]
    importlib.import_module("topokit")
    return SimpleNamespace(**{m: importlib.import_module(f"topokit.{m}") for m in MODULES})


@dataclass
class Item:
    """One operation's input, with the instance it runs against."""

    instance: str
    args: tuple
    expect: object = None


def relabel(data: dict, rng: random.Random) -> dict:
    """Rename vertex (or element) ids by a seeded permutation of themselves.

    Colours, ranks and labels move with their ids; facets are re-sorted.
    """
    if data["type"] == "complex":
        ids = sorted({v for facet in data["facets"] for v in facet})
    else:
        ids = sorted(e["id"] for e in data["elements"])
    image = ids[:]
    rng.shuffle(image)
    new = dict(zip(ids, image))
    out: dict = {"type": data["type"]}
    if data["type"] == "complex":
        out["facets"] = sorted(sorted(new[v] for v in facet) for facet in data["facets"])
    else:
        out["elements"] = sorted(({**e, "id": new[e["id"]]} for e in data["elements"]), key=lambda e: e["id"])
        out["covers"] = sorted([new[lo], new[hi]] for lo, hi in data["covers"])
    for key in ("coloring", "labels"):
        if key in data:
            out[key] = {str(new[int(v)]): x for v, x in data[key].items()}
    return out


def write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def adjacency(facets) -> dict[int, list[int]]:
    adj: dict[int, set[int]] = {}
    for facet in facets:
        for u, v in combinations(facet, 2):
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    return {v: sorted(ns) for v, ns in adj.items()}


def shortest_path(adj, start, goal) -> list[int]:
    parent = {start: None}
    queue = deque([start])
    while goal not in parent:
        u = queue.popleft()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    out = [goal]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out[::-1]


def random_loop(adj, rng, start, steps) -> list[tuple[int, int]]:
    """A random walk of ``steps`` edges from ``start``, closed by a shortest path home."""
    verts = [start]
    for _ in range(steps):
        verts.append(rng.choice(adj[verts[-1]]))
    verts += shortest_path(adj, verts[-1], start)[1:]
    return list(zip(verts, verts[1:]))


class Workload:
    name = ""

    def __init__(self, lib, tiny=False):
        self.lib = lib
        self.tiny = tiny
        self.items: list[Item] = []
        self.f_vectors: dict[str, list[int]] = {}

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        pass

    def begin_pass(self) -> None:
        pass

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> bool:
        raise NotImplementedError

    def normalise(self, item: Item, out):
        """The output with every field that may differ between runs removed."""
        return out


# -- verify ---------------------------------------------------------------------


@dataclass
class VerifyExpect:
    lower: int  # minimal number of generators of H1, known from topology
    known_h: tuple | None = None  # exact h-vector known from theory
    h: list = field(default_factory=list)  # from the independent f-vector
    pair_h2: dict = field(default_factory=dict)  # colour pair -> selected h2


class VerifyWorkload(Workload):
    """``topo verify`` on fresh loads of seeded relabellings of each instance."""

    def instances(self):
        """(label, build function, minimal generators of H1, known h-vector or None)."""
        raise NotImplementedError

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        self.data = {}
        self.items = []
        for label, build, lower, known_h in self.instances():
            data = relabel(build().to_json(), rng)
            path = write_json(workdir / f"{label}.json", data)
            self.data[label] = data
            self.items.append(Item(label, (path,), VerifyExpect(lower, known_h)))

    def prepare_checks(self):
        for item in self.items:
            data, exp = self.data[item.instance], item.expect
            if data["type"] == "complex":
                facets = data["facets"]
                coloring = {int(v): c for v, c in data["coloring"].items()}
                f = checks.complex_f_vector(facets)
                for pair in combinations(sorted(set(coloring.values())), 2):
                    exp.pair_h2[pair] = checks.complex_pair_h2(facets, coloring, pair)
            else:
                ranks = {e["id"]: e["rank"] for e in data["elements"]}
                coloring = {int(v): c for v, c in data["coloring"].items()}
                f = checks.poset_f_vector(ranks)
                for pair in combinations(sorted(set(coloring.values())), 2):
                    exp.pair_h2[pair] = checks.poset_pair_h2(ranks, data["covers"], coloring, pair)
            self.f_vectors[item.instance] = f
            exp.h = checks.h_from_f(f)

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(["verify", item.args[0]])
        return code, buf.getvalue()

    def normalise(self, item, out):
        code, text = out
        report = json.loads(text)
        report.pop("timing_seconds", None)
        return code, report

    def check(self, item, out):
        code, report = self.normalise(item, out)
        exp = item.expect
        if code != 0 or report["ok"] is not True:
            return False
        h = report["h_vector"]
        if h != exp.h or (exp.known_h is not None and h != list(exp.known_h)):
            return False
        d = report["d"]
        lower = report["min_generators_lower_bound"]
        upper = report["min_generators_upper_bound"]
        if d != len(h) - 1 or lower != exp.lower or not lower <= upper:
            return False
        if comb(d, 2) * lower > (h[2] if len(h) > 2 else 0):
            return False
        if not (report["checks"]["h_additivity_holds"] and report["checks"]["bound_holds"]):
            return False
        per = {tuple(sorted(e["colors"])): e for e in report["per_colors"]}
        if per.keys() != exp.pair_h2.keys():
            return False
        for pair, entry in per.items():
            if entry["h2_selected"] != exp.pair_h2[pair]:
                return False
            post = entry["post_tietze"]
            if post is not None and not 0 <= post <= entry["h2_selected"]:
                return False
        return True


class VerifySurfaces(VerifyWorkload):
    name = "verify-surfaces"

    def instances(self):
        sh, po = self.lib.shapes, self.lib.poset
        if self.tiny:
            return [
                ("sd-torus", sh.sd_torus, 2, None),
                ("sd-rp2", sh.sd_projective_plane, 1, None),
                ("octahedron-sum-3", lambda: sh.octahedron_sum(3), 0, (1, 9, 9, 1)),
                ("face-poset-octahedron", lambda: po.face_poset(sh.cross_polytope(3)), 0, (1, 3, 3, 1)),
                ("double-circle", sh.double_edge_circle, 1, None),
            ]
        # Operations of several seconds (sd2-rp2, face_poset(sd-rp2)) repeat too
        # few times in a run to give a steady figure on a shared host.
        return [
            ("sd-torus", sh.sd_torus, 2, None),
            ("sd-rp2", sh.sd_projective_plane, 1, None),
            # 2-spheres on n vertices: h = (1, n - 3, n - 3, 1)
            ("octahedron-sum-40", lambda: sh.octahedron_sum(40), 0, (1, 120, 120, 1)),
            ("face-poset-octahedron-sum-4", lambda: po.face_poset(sh.octahedron_sum(4)), 0, (1, 12, 12, 1)),
            ("double-circle", sh.double_edge_circle, 1, None),
        ]


class VerifyCross(VerifyWorkload):
    name = "verify-cross"

    def instances(self):
        sh = self.lib.shapes
        dims = (3, 4) if self.tiny else (5, 6, 7)
        # the boundary of the d-cross-polytope is a sphere with h_i = C(d, i)
        return [
            (f"cross-{d}", lambda d=d: sh.cross_polytope(d), 0, tuple(comb(d, i) for i in range(d + 1)))
            for d in dims
        ]


# -- path workloads -----------------------------------------------------------------


class PathWorkload(Workload):
    """Seeded closed edge paths on one complex, loaded once per set-up."""

    instance = ""

    def build(self):
        raise NotImplementedError

    def write_instance(self, workdir):
        self.data = self.build().to_json()
        self.path = write_json(workdir / f"{self.instance}.json", self.data)
        self.adj = adjacency(self.data["facets"])
        self.coloring = {int(v): c for v, c in self.data["coloring"].items()}


class RewritePaths(PathWorkload):
    """Rewrite random loops into a colour pair, round-robin over the pairs,
    and replay each certificate.

    sd2-torus rather than sd3-torus: each rewrite on sd3-torus scans 3024
    facets per call, and on a shared host its latency moved by up to 30%
    between runs.
    """

    name = "rewrite-paths"
    paths_per_pass = 200
    walk_steps = 24

    def build(self):
        sd = self.lib.shapes.sd_torus()
        return sd if self.tiny else sd.barycentric_subdivision()

    def setup(self, seed, workdir):
        self.instance = "sd-torus" if self.tiny else "sd2-torus"
        self.write_instance(workdir)
        self.complex = self.lib.cli.load_input(self.path)
        # fills the property cache that every rewrite consults
        self.complex.check_properties()
        rng = random.Random(seed)
        pairs = list(combinations(sorted(set(self.coloring.values())), 2))
        count = 12 if self.tiny else self.paths_per_pass
        self.items = []
        for i in range(count):
            pair = pairs[i % len(pairs)]
            starts = sorted(v for v, c in self.coloring.items() if c in pair)
            loop = random_loop(self.adj, rng, rng.choice(starts), self.walk_steps)
            self.items.append(Item(self.instance, (pair, loop)))

    def prepare_checks(self):
        self.faces = checks.all_faces(self.data["facets"])
        self.f_vectors[self.instance] = checks.complex_f_vector(self.data["facets"])

    def run(self, item):
        pair, loop = item.args
        pi1 = self.lib.pi1
        rewritten, certificate = pi1.rewrite_path_to_colors(self.complex, pair, loop)
        verified = pi1.verify_certificate(self.complex, loop, rewritten, certificate)
        return list(rewritten), certificate.moves, verified

    def check(self, item, out):
        pair, loop = item.args
        rewritten, moves, verified = out
        return (
            verified is True
            and checks.replay(self.faces, loop, moves) == rewritten
            and rewritten[0][0] == loop[0][0]
            and rewritten[-1][1] == loop[-1][1]
            and checks.path_vertices_ok(rewritten, self.coloring, pair)
        )


class CycleClasses(PathWorkload):
    """Per pass: load sd-rp2, factor it once, then answer many
    "do these two closed paths have the same homology class" queries.

    sd2-rp2 would be the larger instance, but its dense factors (a 540 x 540
    transform) make every query memory-bound; on a shared host its query
    latency moved by up to 40% between runs, while sd-rp2's stays put.
    """

    name = "cycle-classes"
    instance = "sd-rp2"
    pairs_per_pass = 100
    walk_steps = 20

    def build(self):
        return self.lib.shapes.sd_projective_plane()

    def setup(self, seed, workdir):
        self.write_instance(workdir)
        rng = random.Random(seed)
        verts = sorted(self.adj)
        self.items = []
        for _ in range(10 if self.tiny else self.pairs_per_pass):
            base = rng.choice(verts)
            first = random_loop(self.adj, rng, base, self.walk_steps)
            # the second path adds a random loop r once or twice; 2[r] = 0 in
            # H1(RP^2) = Z/2, so most pairs are equal and some are not
            other = rng.choice(verts)
            hop = shortest_path(self.adj, base, other)
            hop_edges = list(zip(hop, hop[1:]))
            extra = random_loop(self.adj, rng, other, self.walk_steps)
            times = 2 if rng.random() < 0.7 else 1
            back = [(v, u) for u, v in reversed(hop_edges)]
            second = first + hop_edges + extra * times + back
            self.items.append(Item(self.instance, (first, second)))

    def prepare_checks(self):
        mod2 = checks.Mod2Boundaries(self.data["facets"])
        self.f_vectors[self.instance] = checks.complex_f_vector(self.data["facets"])
        for item in self.items:
            # H1(RP^2; Z) = Z/2 maps isomorphically onto H1(RP^2; F2)
            item.expect = mod2.same_class(*item.args)

    def begin_pass(self):
        self.complex = self.lib.cli.load_input(self.path)
        self.lib.homology.chain_data(self.complex)

    def run(self, item):
        homology = self.lib.homology
        z1 = homology.edge_path_cycle_vector(self.complex, item.args[0])
        z2 = homology.edge_path_cycle_vector(self.complex, item.args[1])
        return homology.cycle_class_equal(self.complex, z1, z2)

    def check(self, item, out):
        return out is item.expect


WORKLOADS = {w.name: w for w in (VerifySurfaces, VerifyCross, RewritePaths, CycleClasses)}
