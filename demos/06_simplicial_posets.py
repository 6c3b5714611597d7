"""Simplicial posets: parallel faces, order complexes, and their loops.

A simplicial poset relaxes a complex by allowing several faces on the same
vertex set, as long as every lower interval stays Boolean.  The smallest
interesting example is a circle made of two parallel edges.  Its first
homology and edge-path group are read from the poset's own rank-2 and
rank-3 elements; its order complex, an honest 4-cycle, gives the same H1.
"""

from topokit import face_poset, h1, poset_edge_path_group, shapes
from topokit import SimplicialComplex

circle = shapes.double_edge_circle()
print(f"Double-edge circle: {circle}")
print(f"  elements: {[(x, circle.rank(x), (circle.labels or {}).get(x)) for x in circle.ids]}")
f, h = circle.f_vector(), circle.h_vector()
print(f"  f = {f}, h = {h}  (h2 = 1: one circle)")

oc = circle.order_complex()
print(f"\nIts order complex is a 4-cycle: f = {oc.f_vector()}, colors {oc.coloring}")
assert h1(circle) == h1(oc)
print(f"  H1 from the poset's own cells: {h1(circle)}, the same as the order complex's")

pres = poset_edge_path_group(circle)
print(f"\nEdge-path group: {pres}")
for i, g in enumerate(pres.generators):
    steps = " ".join(
        f"[{e.elem}:{e.init}->{e.term}]" for e in g.realization
    )
    print(f"  generator g{i+1} realized as the poset path {steps}")
print(f"  abelianized: {pres.abelianization()}  == H1 {h1(circle)}")

print("\nFace posets embed complexes into the poset world:")
octahedron_poset = face_poset(shapes.cross_polytope(3))
print(f"  octahedron face poset: {octahedron_poset}")
fo, ho = octahedron_poset.f_vector(), octahedron_poset.h_vector()
print(f"  f = {fo}, h = {ho}  (same numbers as the complex)")

print("\nAn invalid poset is refused when it is built, with the first violation:")
from topokit import SimplicialPoset, ValidationError

try:
    SimplicialPoset({0: 1, 1: 2}, [(0, 1)])
except ValidationError as broken:
    print(f"  {broken}")
