"""Clique chains: partition a colouring into monochromatic cliques, bridge
the red blocks with a path system, assemble closed chains, and read the
spanning monochromatic path or cycle off a chain's vertex order."""

from hyperramsey.core import RED, TwoColoring
from hyperramsey.chains import (
    assemble_chains,
    build_path_system,
    clique_partition,
    cut_open,
    double_tree_walk,
    validate_chain,
)
from hyperramsey.search import validate_mono_cycle, validate_mono_path

# A dense red colouring of 14 vertices.
col = TwoColoring.random(3, 14, 0.97, seed=11)

# Step 1: extract monochromatic cliques until the leftover carries neither.
partition = clique_partition(col, red_size=5, blue_size=5)
print("blocks:", partition.blocks)
print("leftover:", partition.leftover)

# Step 2: bridge the red blocks by pairs of disjoint short red paths.
blocks = partition.red_blocks()
system = build_path_system(col, blocks, ell=1, alpha=2)
print("\nforest edges:", system.forest_edges)
for key, (p1, p2) in system.paths.items():
    print(f"  bridge {key}: {p1} and {p2}")

# Step 3: the doubled-tree walk turns each forest component into a closed
# chain template.
print("\nwalk of the component tree:", double_tree_walk(system.forest_edges))

report = assemble_chains(col, blocks, system)
chain = report.chains[0]
print(f"\nassembled {chain.kind} chain on {chain.p} vertices, "
      f"{len(chain.intervals)} elements, leftover {len(report.leftover)}")
cert = validate_chain(chain, col)
print("valid:", cert.kind == "chain",
      "| flexible elements:", chain.flexible_elements(),
      "| spine vertices:", sorted(chain.spine_vertices()))

# Step 4: the vertex order of every valid chain is a spanning path or cycle.
checker = validate_mono_cycle if chain.kind == "closed" else validate_mono_path
print("\nspanning sequence:", list(chain.vertices))
print("all windows red:", checker(col, list(chain.vertices), chain.ell, RED))

# Closed chains open up by splitting a flexible element.
opened = cut_open(chain)
print("\nafter cutting open:", opened.p, "vertices;", opened.flags[-1])
print("spanning red loose path:", validate_mono_path(col, list(opened.vertices), 1, RED))

# A prefix of a chain whose order a loose path has ends before the wrap, so
# it is a red loose path too: what the engines return for a path target.
print("first 9 vertices a red loose path:", validate_mono_path(col, list(chain.vertices[:9]), 1, RED))
