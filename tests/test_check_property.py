"""Properties of witness checks on small colourings: `check_certificate`
rejects a witness once any one of its edges changes colour, for path, cycle
and embedding witnesses, and the path and cycle validators, which check a
witness as an embedding of its pattern, agree with the window-by-window
reference checks in `oracles`."""

from math import comb

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from hyperramsey.cli import check_certificate  # noqa: E402
from hyperramsey.core import BLUE, RED, TwoColoring, colex_rank  # noqa: E402
from hyperramsey.search import (  # noqa: E402
    pattern_hypergraph,
    search_pattern,
    validate_mono_cycle,
    validate_mono_path,
)

from oracles import window_mono_cycle, window_mono_path  # noqa: E402

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


@st.composite
def sequences_over_colourings(draw):
    """A colouring of K_n^(k), k in 2..4, and a sequence of every length
    0..n+1: drawn vertex by vertex from -1..n+1 (repeats and vertices
    outside the host included) or a prefix of a permutation of the host."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 7))
    col = TwoColoring.random(k, n, draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])), seed=draw(st.integers(0, 99)))
    length = draw(st.integers(0, n + 1))
    loose = st.lists(st.integers(-1, n + 1), min_size=length, max_size=length)
    if length > n:
        return col, draw(loose)
    return col, draw(st.one_of(loose, st.permutations(range(n)).map(lambda p: p[:length])))


@settings(max_examples=400, deadline=None)
@given(case=sequences_over_colourings(), data=st.data(), colour=st.sampled_from([RED, BLUE]))
def test_validators_agree_with_window_checks(case, data, colour):
    col, seq = case
    ell = data.draw(st.integers(1, col.k - 1))
    assert validate_mono_path(col, seq, ell, colour) == window_mono_path(col, seq, ell, colour)
    assert validate_mono_cycle(col, seq, ell, colour) == window_mono_cycle(col, seq, ell, colour)
