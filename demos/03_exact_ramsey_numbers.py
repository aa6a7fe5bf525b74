"""Exact desk-scale Ramsey quantities: R(G, H) by pruned colouring
enumeration, the two-edge-loose-path extremal function, and directed Ramsey
numbers of transitive tournaments."""

from hyperramsey.search import pattern_hypergraph
from hyperramsey.exact import (
    directed_ramsey_exact,
    gap_report,
    goodness_gap,
    ramsey_exact,
    tau_exact,
)

# Which small pairs attain the general lower bound?
for red, blue in [("path:3:2:4", "clique:3:4"),
                  ("path:3:1:5", "clique:3:4"),
                  ("path:3:1:5", "tth:2:2"),
                  ("edge:3", "tth:2:2")]:
    target = pattern_hypergraph(blue)
    result = ramsey_exact(red, target, n_cap=7)
    report = goodness_gap(red, target, result)
    print(f"R({red}, {blue}) = {result.value}  "
          f"[lower bound {report.burr}, verdict: {report.verdict}]")

# tau(k, alpha): the largest order carrying a k-graph with independence below
# alpha and no two-edge loose path.  Such a k-graph is the blue class of a
# colouring with no red K_alpha and no blue two-edge loose path, so tau is
# R(clique:k:alpha, path:k:1:2k-1) - 1, searched by the same colouring DFS.
print()
for k, alpha in [(2, 3), (2, 6), (3, 2), (3, 4)]:
    r = tau_exact(k, alpha)
    print(f"tau({k}, {alpha}) = {r.value}"
          + (f"  witness edges: {r.witness.edges}" if r.witness and r.witness.num_edges else ""))

# Directed Ramsey numbers by exhaustive tournament search, plus the
# consecutive-value inequality with its constructive witness.
print()
for chi in (2, 3, 4):
    r = directed_ramsey_exact(chi)
    print(f"R_vec({chi}) = {r.value}  (extremal witness on {r.witness.n} vertices)")
g = gap_report(directed_ramsey_exact(4), directed_ramsey_exact(3))
print(f"R_vec(4) = {g.value} >= R_vec(3) + 2 = {g.previous + 2}: {g.inequality_holds}; "
      f"augmented witness TT_4-free: {g.augmented_ttfree}")
