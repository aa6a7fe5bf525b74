"""Property: `check_certificate` rejects a witness once any one of its edges
changes colour, for path, cycle and embedding witnesses on small colourings."""

from math import comb

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from hyperramsey.cli import check_certificate  # noqa: E402
from hyperramsey.core import BLUE, RED, TwoColoring, colex_rank  # noqa: E402
from hyperramsey.search import pattern_hypergraph, search_pattern  # noqa: E402

PATTERNS = ["path:3:1:5", "path:3:2:5", "cycle:3:1:6", "cycle:3:2:5", "clique:3:4", "tth:2:2"]


@st.composite
def colourings(draw):
    n = draw(st.sampled_from([6, 7]))
    return TwoColoring(3, n, draw(st.integers(0, (1 << comb(n, 3)) - 1)))


@settings(max_examples=60, deadline=None)
@given(col=colourings(), spec=st.sampled_from(PATTERNS), colour=st.sampled_from([RED, BLUE]))
def test_flipping_one_witness_edge_is_rejected(col, spec, colour):
    cert = search_pattern(col, spec, colour)
    assume(cert.found)
    assert check_certificate(cert, col) == (True, "revalidated")
    # the pattern's edges, read through the witness (vertex i of the pattern
    # is witness[i], for paths and cycles in sequence order)
    edges = {tuple(sorted(cert.witness[v] for v in e)) for e in pattern_hypergraph(spec).edges}
    for e in edges:
        flipped = TwoColoring(3, col.n, col.red_bits ^ (1 << colex_rank(e)))
        ok, _ = check_certificate(cert, flipped)
        assert not ok, (spec, colour, e)
