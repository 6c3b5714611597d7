"""Verify the h2 bound on fundamental-group generators across a corpus.

For a pure balanced complex with connected small-face links, the number of
generators the fundamental group needs, times the number of color pairs,
is at most h2.  The lower bound comes from homology, the upper bound from
the simplified two-color presentations, and both sandwich the truth.
"""

from math import comb

from topokit import face_poset, generator_bounds, h1, shapes
from topokit import poset_edge_path_group, tietze_simplify

corpus = {
    "octahedron": shapes.cross_polytope(3),
    "4-dim cross-polytope": shapes.cross_polytope(4),
    "6-cycle": shapes.cycle_complex(6),
    "subdivided torus": shapes.sd_torus(),
    "subdivided projective plane": shapes.sd_projective_plane(),
    "sum of 3 octahedra": shapes.octahedron_sum(3),
}

print(f"{'instance':>28}  {'d':>2} {'h2':>3}  {'lower':>5} {'upper':>5}  C(d,2)*lower <= h2")
for name, complex in corpus.items():
    d = complex.d
    h2 = complex.h_vector()[2]
    lower = h1(complex).min_generators
    upper = generator_bounds(complex)["best"]
    ok = comb(d, 2) * lower <= h2
    print(f"{name:>28}  {d:>2} {h2:>3}  {lower:>5} {upper:>5}  {comb(d,2)}*{lower} = {comb(d,2)*lower} <= {h2}: {ok}")

print()
print("The 6-cycle is the tight complex case (1*1 = 1 = h2); the double-edge")
print("circle is the tight poset case:")
circle = shapes.double_edge_circle()
h = circle.h_vector()
lower = h1(circle).min_generators
upper = len(tietze_simplify(poset_edge_path_group(circle)).generators)
print(f"  double-edge circle: h2 = {h[2]}, lower = {lower}, upper = {upper}")
print()
print("Face posets inherit the same h-vectors, so the poset bound holds there too:")
for name in ("octahedron", "subdivided torus"):
    poset = face_poset(corpus[name])
    h = poset.h_vector()
    lower = h1(corpus[name]).min_generators
    d = poset.d
    print(f"  face poset of {name}: C({d},2)*{lower} = {comb(d,2)*lower} <= h2 = {h[2]}")
