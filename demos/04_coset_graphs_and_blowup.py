"""Coset graphs with stabilizer witnesses, and rebuilding one by blow-up.

Working in the free abelian plane G = <x, y>, the cosets of L = <x> form a
line.  The graph on G/L with generating set {x, y} is computed as a radius-3
ball: x-edges are loops (x stabilizes every coset) and y-edges walk the line.
Every edge carries a stabilizer witness — an infinite-order element fixing
both endpoints — which is what makes the graph useful: it certifies that
edge stabilizers are infinite.

The same graph is then rebuilt in two stages through the intermediate
subgroup H = <x, y^2>: a complete 2-vertex graph on G/H, blown up by a ball
on H/L, stitched with connector edges whose crossing witnesses are verified
before any edge is drawn.  The blow-up infers its coset solvers and its
word-problem context from the plane's presentation.  The result is compared
edge-by-edge (with labels) against the directly built ball on the common
truncation.
"""

from chainlab.fixtures import (
    plane_connectors,
    plane_context,
    plane_inner_ball,
    plane_line_ball,
    plane_outer_graph,
    plane_presentation,
)
from chainlab.qnormal import (
    blow_up,
    build_coset_graph,
    compare_blowup_with_direct,
    connectedness_path,
    trim_cocompact,
)
from chainlab.words import format_word

names = ("x", "y")
ball = plane_line_ball()
ctx = plane_context()

print(f"ball on G/<x> with S = {{x, y}}, radius 3: {len(ball.vertices)} cosets")
print("vertices:", [format_word(v, names) or "e" for v in ball.vertices])
for label in ball.edge_orbits():
    edges = [(u, v) for u, v, m in ball.edges if m == label]
    kind = "loops" if all(u == v for u, v in edges) else "steps"
    print(f"orbit {label} ({format_word(ball.generating_set[label], names)}): "
          f"{len(edges)} edges, {kind}")
print("stabilizer witnesses verified:", all(ball.check_stabilizer_witnesses()),
      "(witness x fixes both endpoints of every edge, and has infinite order)")

for target in ((2, 2, 2), (1, 2)):
    path = connectedness_path(target, ball, ctx)
    route = " -> ".join(format_word(v, names) or "e" for v in path.vertices)
    print(f"\npath to the coset of {format_word(target, names)}: {route}")

blown = blow_up(plane_outer_graph(), plane_inner_ball(), plane_connectors(), [(1,)])
print(f"\nblow-up through H = <x, y^2>: {len(blown.vertices)} vertices "
      f"({len(blown.outer.vertices)} outer x {len(blown.inner.vertices)} inner), "
      f"{blown.dropped_edges} edge(s) left the truncation")

direct = build_coset_graph(plane_presentation(), [(1,)], [(1,), (2, 2), (2,)],
                           budget=3, radius=3)
comparison = compare_blowup_with_direct(blown, direct)
print(f"against the directly built ball: {comparison.common_vertices} common "
      f"cosets, labeled edge sets match: {comparison.matches}")

graph3 = build_coset_graph(plane_presentation(), [(1,)], [(1,), (2,), (1, 2)],
                           budget=40, radius=3)
trimmed, kept = trim_cocompact(graph3, [(1,), (2,)], ctx)
print(f"\ntrimming S = {{x, y, xy}} down to what connectivity needs: "
      f"kept orbits {kept} "
      f"({[format_word(graph3.generating_set[k], names) for k in kept]}), "
      f"dropped {[o for o in graph3.edge_orbits() if o not in kept]}")
