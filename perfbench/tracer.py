"""Call tracer that wraps topokit's public functions from outside the library.

The tracer replaces each traced function by a timing wrapper wherever the
function object is bound: in the module that defines it, in every topokit
module that imported it by name (``topokit.cli`` imports most of the
pipeline), and on the class for methods.  Calls made inside the library
therefore reach the wrappers in their real order, and the library's own
caches behave exactly as in an untraced run.  ``restore`` puts every
original back.

For each function ``<layer>.<name>`` it records ``calls``, ``s`` (inclusive
seconds), ``self_s`` (seconds minus the time of wrapped callees) and
``errors`` (calls that raised), plus a few exact work counts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter

# layer -> traced attributes; "Class.method" names a method of that module.
TARGETS = {
    "cli": ("load_input", "verification_report", "poset_h_additivity"),
    "complex": (
        "SimplicialComplex.check_properties",
        "SimplicialComplex.link",
        "SimplicialComplex.facets_containing",
        "SimplicialComplex.rank_select",
        "h_additivity_table",
    ),
    "homology": ("h1", "chain_data", "smith_normal_form", "cycle_class_equal"),
    "pi1": (
        "generator_bounds",
        "build_nested_tree",
        "full_presentation",
        "restrict_presentation",
        "rewrite_path_to_colors",
        "tietze_simplify",
        "verify_certificate",
        "poset_edge_path_group",
    ),
    "poset": (
        "SimplicialPoset.check_properties",
        "SimplicialPoset.order_complex",
        "SimplicialPoset.rank_select",
    ),
}

SPAN_FIELDS = ("calls", "s", "self_s", "errors")

COUNT_NAMES = (
    "homology.smith_normal_form.cells",
    "homology.smith_normal_form.max_side",
    "pi1.full_presentation.generators",
    "pi1.full_presentation.relators",
    "pi1.rewrite_path_to_colors.moves",
    "pi1.tietze_simplify.generators_out",
    "pi1.tietze_simplify.letters_out",
)


def span_names() -> list[str]:
    return [f"{layer}.{qual.split('.')[-1]}" for layer, quals in TARGETS.items() for qual in quals]


@dataclass
class Span:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


@dataclass
class InstanceRecord:
    """Work attributed to one input instance: layer self seconds and SNF shapes."""

    layer_self_s: dict = field(default_factory=lambda: {layer: 0.0 for layer in TARGETS})
    snf_shapes: list = field(default_factory=list)


class Tracer:
    """Collects spans and counts for the calls made while it is installed."""

    def __init__(self):
        self.spans = {name: Span() for name in span_names()}
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.instances: dict[str, InstanceRecord] = {}
        self.instance = ""
        # (instance, complex, colors, generator count) per restrict_presentation call
        self.restrictions: list[tuple] = []
        self._selections: set = set()
        self._rank_select_calls = 0
        self._open: list[float] = []  # wrapped-callee seconds of each open call
        self._patched: list[tuple] = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; the library must already be imported."""
        modules = [m for name, m in sys.modules.items() if name == "topokit" or name.startswith("topokit.")]
        try:
            for layer, quals in TARGETS.items():
                module = sys.modules[f"topokit.{layer}"]
                for qual in quals:
                    name = f"{layer}.{qual.split('.')[-1]}"
                    if "." in qual:
                        cls_name, attr = qual.split(".")
                        owner = getattr(module, cls_name)
                        original = owner.__dict__[attr]
                        self._patch(owner, attr, original, self._wrap(name, original))
                    else:
                        original = getattr(module, qual)
                        wrapper = self._wrap(name, original)
                        for mod in modules:
                            for attr, value in list(vars(mod).items()):
                                if value is original:
                                    self._patch(mod, attr, original, wrapper)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        span = self.spans[name]
        layer = name.split(".")[0]
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        stack = self._open

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                elapsed = perf_counter() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.s += elapsed
                span.self_s += own
                self._record().layer_self_s[layer] += own
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self) -> InstanceRecord:
        if self.instance not in self.instances:
            self.instances[self.instance] = InstanceRecord()
        return self.instances[self.instance]

    def _observe_homology_smith_normal_form(self, args, kwargs, result):
        matrix = args[0] if args else kwargs["a"]
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        self.counts["homology.smith_normal_form.cells"] += rows * cols
        side = max(rows, cols)
        if side > self.counts["homology.smith_normal_form.max_side"]:
            self.counts["homology.smith_normal_form.max_side"] = side
        self._record().snf_shapes.append([rows, cols])

    def _observe_pi1_full_presentation(self, args, kwargs, result):
        self.counts["pi1.full_presentation.generators"] += len(result.generators)
        self.counts["pi1.full_presentation.relators"] += len(result.relators)

    def _observe_pi1_restrict_presentation(self, args, kwargs, result):
        self.restrictions.append((self.instance, args[1], frozenset(args[2]), len(result.generators)))

    def _observe_pi1_rewrite_path_to_colors(self, args, kwargs, result):
        self.counts["pi1.rewrite_path_to_colors.moves"] += len(result[1].moves)

    def _observe_pi1_tietze_simplify(self, args, kwargs, result):
        self.counts["pi1.tietze_simplify.generators_out"] += len(result.generators)
        self.counts["pi1.tietze_simplify.letters_out"] += sum(len(r) for r in result.relators)

    def _observe_complex_rank_select(self, args, kwargs, result):
        self._rank_select_calls += 1
        colors = args[1] if len(args) > 1 else kwargs["colors"]
        self._selections.add((args[0], frozenset(colors)))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every span field and count by name, plus the rank-selection reuse ratio."""
        out = {}
        for name, span in self.spans.items():
            for fld in SPAN_FIELDS:
                out[f"{name}.{fld}"] = getattr(span, fld)
        out.update(self.counts)
        calls = self._rank_select_calls
        out["complex.rank_select.distinct_ratio"] = len(self._selections) / calls if calls else 0.0
        for layer in TARGETS:
            out[f"layer.{layer}.self_s"] = sum(
                rec.layer_self_s[layer] for rec in self.instances.values()
            )
        return out
