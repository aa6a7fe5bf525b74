"""The witness engines: drive the whole pipeline on a colouring and come back
with a re-checkable red path, a blue target copy, or an honest stall report
saying which dichotomy failed."""

from hyperramsey.core import RED, BLUE, TwoColoring, transitive_tournament_hypergraph
from hyperramsey.constructions import loose_path_lb, tau_lower_construction
from hyperramsey.engines import (
    EngineParams,
    absorbing_block,
    loose_witness_engine,
    tight_witness_engine,
)
from hyperramsey.search import validate_embedding, validate_mono_path

target, _ = transitive_tournament_hypergraph(2, 2)

# Dense red: the loose engine grows a chain and extends it to the full order.
col = TwoColoring.random(3, 13, 0.95, seed=42)
rep = loose_witness_engine(col, target, EngineParams(n_target=13, block_size=5))
print("dense red, loose engine:", rep.outcome)
for line in rep.log:
    print("   ", line)
print("witness re-validates:", validate_mono_path(col, rep.certificate.witness, 1, RED))

# All blue: the clique partition hands over a blue block immediately.
blue = TwoColoring.all_blue(3, 10)
rep = loose_witness_engine(blue, target, EngineParams(n_target=9, block_size=5))
print("\nall blue, loose engine:", rep.outcome,
      "| embedding valid:", validate_embedding(blue, target, rep.certificate.witness, BLUE))

# The tight engine on a dense colouring.
rep = tight_witness_engine(col, 2, 2, EngineParams(n_target=10, block_size=6))
print("\ndense red, tight engine:", rep.outcome,
      "| valid:", validate_mono_path(col, rep.certificate.witness, 2, RED))

# On a verified-free lower-bound colouring the engines stall; they never
# fabricate a witness.
aux = tau_lower_construction(2, 3)
inst = loose_path_lb(3, 2, 11, 3, aux)
rep = loose_witness_engine(inst.coloring, inst.blue_target,
                           EngineParams(n_target=11, block_size=4))
print("\nfree instance, loose engine:", rep.outcome, "|", rep.stall["reason"])

# The absorbing block in isolation: interleave a red clique with leftover
# vertices along a dense pair pattern.
out = absorbing_block(col, list(range(6)), [10, 11, 12], d=1, eta=0.3)
print("\nabsorbing block:", out.path if out.success else out.diagnostic)
