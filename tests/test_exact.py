import hashlib
from itertools import combinations, permutations, product
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from hyperramsey.constructions import tau_lower_construction
from hyperramsey.core import (
    GuardExceeded,
    Hypergraph,
    Tournament,
    TwoColoring,
    burr_bound,
    colex_rank,
    colex_subsets,
    complete_hypergraph,
    ramsey_profile,
)
from hyperramsey.search import (
    find_transitive_subtournament,
    has_two_edge_loose_path,
    independence_number,
    pattern_hypergraph,
    verify_free,
)
from hyperramsey.exact import (
    _LexLeader,
    GoodnessReport,
    _completing_patterns,
    _copy_masks,
    _labelled_copies,
    _lex_leader,
    _lex_leader_cut,
    _ttfree_tournament_exists,
    directed_ramsey_exact,
    free_coloring_exists,
    gap_report,
    goodness_gap,
    ramsey_exact,
    tau_exact,
)

from oracles import all_red, free_colorings_bruteforce, naive_copy_masks, naive_free, naive_has_tt, naive_tau

# a 3-graph whose only automorphism is the identity, so each of its 6!
# relabellings is a distinct copy
ASYMMETRIC = Hypergraph(3, 6, ((0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 4, 5)))
# a 3-graph with a vertex in no edge: its copies are those of its two edges
# on four vertices, each listed once, and none fits on four vertices
ISOLATED = Hypergraph(3, 5, ((0, 1, 2), (1, 2, 3)))
# red patterns of at most five vertices, for pairs of at most about 10 bits
SMALL_SPECS = {2: ["edge:2", "path:2:1:3", "path:2:1:4", "clique:2:3", "cycle:2:1:4"],
               3: ["edge:3", "path:3:2:4", "path:3:1:5", "path:3:2:5", "clique:3:4", "tth:2:2"],
               4: ["edge:4", "path:4:3:5", "clique:4:5"]}


def dfs_key(bits: int, nbits: int) -> int:
    """A red bitmap read in the colouring DFS's order: rank 0 most
    significant, red above blue."""
    return int(format(bits, f"0{nbits}b")[::-1], 2)


def out_patterns(t: Tournament) -> tuple[int, ...]:
    """p_0, p_1, ... with bit u of p_v set iff the arc v -> u (u < v): the
    tournament DFS meets tournaments in increasing order of this tuple."""
    return tuple(sum(1 << u for u in range(v) if t.has_arc(v, u)) for v in range(t.n))


def test_asymmetric_target_has_trivial_automorphism_group():
    edges = set(ASYMMETRIC.edges)
    autos = [p for p in permutations(range(6))
             if {tuple(sorted(p[v] for v in e)) for e in edges} == edges]
    assert autos == [tuple(range(6))]


class TestFreeColoringSearch:
    @pytest.mark.parametrize("red,blue", [
        ("path:3:2:4", "clique:3:4"),
        ("path:3:1:5", "clique:3:4"),
        ("path:3:1:5", "tth:2:2"),
        ("edge:3", "edge:3"),
        ("path:3:2:4", "tth:2:2"),
        ("cycle:2:1:4", "clique:2:3"),
        ("cycle:2:1:4", "cycle:2:1:4"),
    ])
    def test_pruned_matches_bruteforce(self, red, blue):
        # the witness is the first free leaf the unbroken DFS would meet
        k = pattern_hypergraph(red).k
        for n in (3, 4, 5):
            brute = free_colorings_bruteforce(red, blue, n)
            exists, witness, _ = free_coloring_exists(red, blue, n)
            assert exists == bool(brute)
            if exists:
                assert witness.red_bits == max(brute, key=lambda bits: dfs_key(bits, comb(n, k)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_pairs_match_bruteforce(self, data):
        # a red spec or a random red hypergraph, and a random blue one,
        # edgeless ones included, on at most one vertex more than the host
        k = data.draw(st.sampled_from(sorted(SMALL_SPECS)), "k")
        n = data.draw(st.integers(k, 5), "n")

        def random_side(side: str) -> Hypergraph:
            v = data.draw(st.integers(1, n + 1), f"{side} order")
            edges = data.draw(st.lists(st.sampled_from(list(combinations(range(v), k)) or [()]), unique=True),
                              f"{side} edges")
            return Hypergraph(k, v, tuple(e for e in edges if e))

        red = random_side("red") if data.draw(st.booleans(), "random red") else \
            data.draw(st.sampled_from(SMALL_SPECS[k]), "red")
        blue = random_side("blue")
        brute = free_colorings_bruteforce(red, blue, n)
        exists, witness, _ = free_coloring_exists(red, blue, n)
        assert exists == bool(brute)
        if exists:
            assert witness.red_bits == max(brute, key=lambda bits: dfs_key(bits, comb(n, k)))

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 5), (3, 6), (4, 6)])
    def test_lex_leader_matches_full_comparison(self, k, n):
        # the predicates, run over the first m ranks of a colouring c, reject
        # iff for some i the scan of c against c.relabel(sigma_i) in DFS
        # order meets c < sigma_i(c) before a rank that the prefix leaves open
        lex = _LexLeader(k, n)
        nbits = comb(n, k)
        subsets = colex_subsets(k, n)
        swaps = []
        for i in range(n - 1):
            swap = list(range(n))
            swap[i], swap[i + 1] = i + 1, i
            swaps.append(swap)
        # source[i][x]: the rank whose colour sigma_i(c) gives rank x
        source = [[colex_rank(sorted(swap[v] for v in e)) for e in subsets] for swap in swaps]
        rng = Random(100 * k + n)
        verdicts = set()
        for _ in range(300):
            density = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
            c = TwoColoring(k, n, sum(1 << r for r in range(nbits) if rng.random() < density))
            m = rng.choice([nbits, rng.randrange(nbits + 1)])
            undecided = lex.start
            for r in range(m):
                red, blue = lex.split(undecided, r, c.red_bits & (1 << r) - 1)
                undecided = red if c.red_bits >> r & 1 else blue
                if undecided is None:
                    break
            less = False
            for swap, src in zip(swaps, source):
                image = c.relabel(swap).red_bits
                less_i = False
                for x in range(nbits):
                    if src[x] == x:
                        continue
                    if max(x, src[x]) >= m:
                        break
                    if c.red_bits >> x & 1 != image >> x & 1:
                        less_i = not c.red_bits >> x & 1
                        break
                if m == nbits:  # the scan is then the whole comparison
                    assert less_i == (dfs_key(c.red_bits, nbits) < dfs_key(image, nbits))
                less |= less_i
            assert (undecided is None) == less, (c.red_bits, m)
            verdicts.add(undecided is None)
        assert verdicts == {True, False}

    def test_witness_is_free_by_naive_check(self):
        red_h = pattern_hypergraph("path:3:1:5")
        blue_h = pattern_hypergraph("clique:3:4")
        exists, witness, _ = free_coloring_exists("path:3:1:5", "clique:3:4", 5)
        assert exists
        assert naive_free(witness, red_h, blue_h)

    @pytest.mark.parametrize("n", [6, 7])
    def test_witness_free_of_asymmetric_target(self, n):
        # a copy list that missed a relabelling would let a blue copy into the witness
        exists, witness, _ = free_coloring_exists("clique:3:4", ASYMMETRIC, n)
        assert exists
        assert naive_free(witness, complete_hypergraph(3, 4), ASYMMETRIC)

    @pytest.mark.parametrize("pattern,n", [
        ("path:3:2:5", 6),
        ("path:3:1:5", 6),
        ("path:2:1:4", 6),
        ("cycle:2:1:4", 6),
        ("clique:3:4", 6),
        ("tth:2:2", 6),
        # the hypergraph case keeps the positional id pattern6
        (ASYMMETRIC, 7),
        ("path:4:1:7", 7),
        ("path:4:2:6", 7),
        ("path:4:3:5", 7),
        (ISOLATED, 6),
        (ISOLATED, 4),
    ])
    def test_completes_matches_naive_copy_through_edge(self, pattern, n):
        # the copies that colouring rank r can complete, filed under r, are
        # the images under every injective map whose highest edge rank is r
        target = pattern if isinstance(pattern, Hypergraph) else pattern_hypergraph(pattern)
        buckets = _copy_masks(target, n)
        assert len(buckets) == comb(n, target.k)
        assert [sorted(bucket) for bucket in buckets] == naive_copy_masks(target, n)
        assert any(buckets) == (n >= target.n)

    # without the lex-leader predicates: 367/352, 56/53, 2015/1995, 438/425
    @pytest.mark.parametrize("red,blue,value,nodes,prunes", [
        ("clique:2:3", "clique:2:3", 6, 72, 57),
        ("path:3:2:4", "clique:3:4", 5, 21, 18),
        ("path:3:2:5", "clique:3:4", 7, 175, 155),
        ("path:4:2:6", "clique:4:5", 7, 106, 93),
    ])
    def test_dfs_counts_pinned(self, red, blue, value, nodes, prunes):
        # the DFS tree depends only on which branches the predicates and
        # the copy checks prune
        r = ramsey_exact(red, blue, 7)
        assert (r.value, r.stats["nodes"], r.stats["prunes"]) == (value, nodes, prunes)


class TestRamseyExact:
    def test_edge_edge(self):
        r = ramsey_exact("edge:3", "edge:3", 6)
        assert r.value == 3 and r.exact

    # expected values derived pair by pair: free colourings exist exactly up
    # to value-1 (checked against unpruned enumeration where C(n,3) <= 10)
    @pytest.mark.parametrize("red,blue,expected", [
        ("path:3:2:4", "clique:3:4", 5),
        ("path:3:1:5", "clique:3:4", 6),
        ("path:3:2:4", "tth:2:2", 4),
        ("path:3:1:5", "tth:2:2", 5),
        ("path:3:2:4", "edge:3", 4),
        ("path:3:1:5", "edge:3", 5),
        ("edge:3", "clique:3:4", 4),
        ("edge:3", "tth:2:2", 4),
    ])
    def test_desk_values(self, red, blue, expected):
        r = ramsey_exact(red, blue, 7)
        assert r.exact and r.value == expected

    def test_lower_witness_verifies_free(self):
        r = ramsey_exact("path:3:2:4", "clique:3:4", 7)
        cert = verify_free(r.lower_witness, "path:3:2:4", complete_hypergraph(3, 4))
        assert cert.kind == "free"
        assert r.lower_witness.n == r.value - 1

    @pytest.mark.parametrize("red,blue", [
        ("path:3:2:4", "clique:3:4"),
        ("path:3:1:5", "clique:3:4"),
        ("path:3:2:5", "clique:3:4"),
        ("path:3:2:4", "tth:2:2"),
        ("edge:3", "fano"),
        ("clique:2:3", "clique:2:3"),
        ("cycle:2:1:4", "cycle:2:1:4"),
        ("path:4:2:6", "clique:4:5"),
        ("path:3:2:4", "tth:1:3"),
        ("tth:1:4", "clique:3:4"),
        ("path:3:2:4", "clique:3:2"),
        ("clique:3:1", "clique:3:4"),
    ])
    def test_every_lower_witness_verifies_free(self, red, blue):
        r = ramsey_exact(red, blue, 7)
        assert r.exact and r.lower_witness.n == r.value - 1
        assert verify_free(r.lower_witness, red, blue).kind == "free"

    # recorded from the DFS without symmetry breaking: the pairs above, the
    # `exhaust` benchmark instances and the Fano pair; a search that prunes
    # more must still return these values and these witness bitmaps
    @pytest.mark.parametrize("red,blue,cap,value,exact,order,bits", [
        ("path:3:2:4", "clique:3:4", 7, 5, True, 4, 1),
        ("path:3:1:5", "clique:3:4", 7, 6, True, 5, 15),
        ("path:3:2:5", "clique:3:4", 7, 7, True, 6, 983055),
        ("path:3:2:4", "tth:2:2", 7, 4, True, 3, 1),
        ("edge:3", "fano", 7, 7, True, 6, 0),
        ("clique:2:3", "clique:2:3", 7, 6, True, 5, 787),
        ("cycle:2:1:4", "cycle:2:1:4", 7, 6, True, 5, 143),
        ("path:4:2:6", "clique:4:5", 7, 7, True, 6, 31),
        ("path:3:2:4", "tth:1:3", 7, 3, True, 2, 0),
        ("tth:1:4", "clique:3:4", 7, 4, True, 3, 1),
        ("path:3:2:4", "clique:3:2", 7, 2, True, 1, 0),
        ("clique:3:1", "clique:3:4", 7, 1, True, 0, 0),
        ("cycle:2:1:4", "clique:2:3", 7, 7, True, 6, 25103),
        ("cycle:2:1:4", "cycle:2:1:4", 6, 6, True, 5, 143),
        ("clique:2:3", "clique:2:3", 6, 6, True, 5, 787),
        ("path:3:2:4", "fano", 7, 7, True, 6, 278657),
    ])
    def test_outcomes_pinned(self, red, blue, cap, value, exact, order, bits):
        r = ramsey_exact(red, blue, cap)
        assert (r.value, r.exact, r.lower_witness.n, r.lower_witness.red_bits) == (value, exact, order, bits)

    @pytest.mark.parametrize("red,blue,cap,first", [
        ("path:3:2:5", "clique:3:4", 7, 3),
        ("cycle:2:1:4", "clique:2:3", 7, 2),
        ("path:4:2:6", "clique:4:5", 7, 4),
        ("path:3:1:5", "clique:3:4", 4, 3),  # capped: every searched order is free
        ("path:3:2:4", "tth:1:3", 7, 3),     # edgeless side: one order, no node
    ])
    def test_levels_sum_to_totals(self, red, blue, cap, first):
        r = ramsey_exact(red, blue, cap)
        levels = r.stats["levels"]
        last = r.value if r.exact else cap
        assert sorted(levels) == list(range(first, last + 1))
        for key in ("nodes", "prunes"):
            assert sum(level[key] for level in levels.values()) == r.stats[key]

    @pytest.mark.parametrize("red,blue,n", [
        ("path:3:2:4", "tth:1:3", 3),
        ("path:3:2:4", "tth:1:3", 5),
        ("tth:1:4", "clique:3:4", 4),
        ("clique:3:2", "clique:3:4", 3),
    ])
    def test_edgeless_side_forbids_every_colouring(self, red, blue, n):
        exists, witness, stats = free_coloring_exists(red, blue, n)
        assert (exists, witness, stats) == (False, None, {"nodes": 0, "prunes": 0})
        if comb(n, 3) <= 10:  # the brute force agrees where it is feasible
            assert free_colorings_bruteforce(red, blue, n) == []

    def test_edgeless_side_larger_than_the_host(self):
        # tth:1:4 has four vertices, so on three every colouring avoids it
        exists, _, _ = free_coloring_exists("tth:1:4", "clique:3:4", 3)
        assert exists

    def test_pattern_without_vertices_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            ramsey_exact("path:3:2:4", "clique:3:0", 7)

    def test_at_least_burr(self):
        for red, blue in [("path:3:2:4", "clique:3:4"), ("path:3:1:5", "clique:3:4"),
                          ("path:3:2:4", "tth:2:2"), ("path:3:1:5", "tth:2:2")]:
            target = pattern_hypergraph(blue)
            profile = ramsey_profile(target)
            bb = burr_bound(pattern_hypergraph(red).n, profile)
            r = ramsey_exact(red, target, 7)
            assert r.value >= bb.value

    def test_colour_swap_symmetry(self):
        # R computed red/blue equals R of the swapped pair computed blue/red:
        # both count the same free colourings up to inverting the bitmap
        for n in (3, 4):
            a = free_colorings_bruteforce("path:3:2:4", "edge:3", n)
            b = free_colorings_bruteforce("edge:3", "path:3:2:4", n)
            full = (1 << comb(n, 3)) - 1
            assert sorted(full ^ bits for bits in b) == sorted(a)

    # past the old 36-bit enumeration ceiling, which stopped k = 3 at n = 7:
    # a tight path that is not K_4^(3)-good (Burr bound 7) and one that is
    # Fano-good (Burr bound 9).  The lower witnesses re-validate through
    # verify_free; a second method for the refutations at n = 10 and n = 9
    # waits for the replayable propagation proofs of ROADMAP item 3, which
    # are not in the repo.
    @pytest.mark.parametrize("red,blue,cap,value,nodes,prunes,verdict", [
        ("path:3:2:6", "clique:3:4", 10, 10, 6811, 6709, "not-good"),
        ("path:3:2:5", "fano", 9, 9, 3551, 3512, "good"),
    ])
    def test_values_past_the_old_ceiling(self, red, blue, cap, value, nodes, prunes, verdict):
        r = ramsey_exact(red, blue, cap)
        assert (r.value, r.exact, r.lower_bound) == (value, True, value)
        assert (r.stats["nodes"], r.stats["prunes"]) == (nodes, prunes)
        assert r.lower_witness.n == value - 1
        cert = verify_free(r.lower_witness, red, blue)
        assert (cert.kind, cert.detail["exact"]) == ("free", True)
        assert goodness_gap(red, pattern_hypergraph(blue), r).verdict == verdict

    def test_spent_budget_gives_the_lower_bound(self, monkeypatch):
        # orders 3..8 take at most 57 nodes each and order 9 takes 909: a
        # budget of 500 stops the search at 9, which stays undecided
        monkeypatch.setattr("hyperramsey.search.DEFAULT_NODE_BUDGET", 500)
        r = ramsey_exact("path:3:2:6", "clique:3:4", 10)
        assert (r.value, r.exact, r.lower_bound, r.lower_witness.n) == (None, False, 9, 8)
        levels = r.stats["levels"]
        assert sorted(levels) == list(range(3, 10))
        assert levels[9] == {"nodes": 501, "prunes": 481}
        for key in ("nodes", "prunes"):
            assert sum(level[key] for level in levels.values()) == r.stats[key]
        assert verify_free(r.lower_witness, "path:3:2:6", "clique:3:4").kind == "free"
        with pytest.raises(GuardExceeded) as stop:
            free_coloring_exists("path:3:2:6", "clique:3:4", 9)
        assert stop.value.stats == levels[9]

    def test_cap_gives_lower_bound(self):
        r = ramsey_exact("path:3:1:5", "clique:3:4", 4)
        assert not r.exact and r.lower_bound == 5 and r.value is None

    def test_cap_below_the_first_order(self):
        # no order is searched: the bound is the one the empty colouring on
        # k-1 vertices proves, not n_cap + 1
        r = ramsey_exact("path:3:2:4", "clique:3:4", 1)
        assert (r.value, r.exact, r.lower_bound, r.lower_witness.n) == (None, False, 3, 2)

    def test_red_side_as_a_hypergraph(self):
        # a red hypergraph is searched, judged against Burr's bound and
        # re-checked as its pattern string is
        k4 = complete_hypergraph(3, 4)
        as_spec = ramsey_exact("clique:3:4", "clique:3:4", 7)
        as_hypergraph = ramsey_exact(k4, "clique:3:4", 7)
        assert as_hypergraph.value == as_spec.value
        assert (as_hypergraph.lower_witness, as_hypergraph.stats) == (as_spec.lower_witness, as_spec.stats)
        assert free_coloring_exists(k4, "clique:3:4", 5) == free_coloring_exists("clique:3:4", "clique:3:4", 5)
        assert goodness_gap(k4, k4, as_hypergraph) == goodness_gap("clique:3:4", k4, as_spec)
        for col in (as_spec.lower_witness, TwoColoring.all_blue(3, 5), all_red(3, 5)):
            got, want = verify_free(col, k4, "clique:3:4"), verify_free(col, "clique:3:4", "clique:3:4")
            assert (got.kind, got.witness, got.stats) == (want.kind, want.witness, want.stats)
            assert got.detail == {**want.detail, **({"red_pattern": "hypergraph"} if want.kind == "free" else {})}

    def test_a_climb_past_a_thousand_ranks_is_the_same_at_any_stack_depth(self):
        # order 20 has 1 140 ranks and order 21 has 1 330, past the default
        # recursion limit of 1 000 frames: the DFS walks them in one loop,
        # so the climb finishes wherever it is called from
        def deeper(depth: int):
            return deeper(depth - 1) if depth else ramsey_exact("edge:3", "clique:3:21", 21)

        r = ramsey_exact("edge:3", "clique:3:21", 21)
        assert (r.value, r.exact, r.lower_bound, r.lower_witness.n) == (21, True, 21, 20)
        assert verify_free(r.lower_witness, "edge:3", "clique:3:21").kind == "free"
        deep = deeper(300)
        assert (deep.value, deep.exact, deep.lower_witness, deep.stats) == \
            (r.value, r.exact, r.lower_witness, r.stats)

    @pytest.mark.parametrize("blue", ["clique:4:5", complete_hypergraph(2, 3)], ids=["spec", "hypergraph"])
    def test_blue_uniformity_mismatch(self, blue):
        with pytest.raises(ValueError, match="uniformity mismatch"):
            ramsey_exact("path:3:2:4", blue, 7)


def clear_shape_caches():
    for cached in (_labelled_copies, _copy_masks, _lex_leader, pattern_hypergraph):
        cached.cache_clear()


def pinned_searches() -> list[tuple]:
    """(red, blue, cap) of every case of the two pinned colouring-DFS tests,
    each once."""
    def cases(test) -> list[tuple]:
        (mark,) = test.pytestmark
        return mark.args[1]
    outcomes = [case[:3] for case in cases(TestRamseyExact.test_outcomes_pinned)]
    counts = [(red, blue, 7) for red, blue, *_ in cases(TestFreeColoringSearch.test_dfs_counts_pinned)]
    return list(dict.fromkeys(outcomes + counts))


class TestShapeCaches:
    """The copy lists and tables the colouring DFS builds from the shapes
    alone are built once per shape and shared by every order and call."""

    def test_one_copy_list_build_per_target_and_order(self):
        # five orders, two sides each: one copy list per (target, n), one
        # lex-leader table per (k, n), and the relabellings once per target,
        # asked only at orders the target fits in (5..7 and 4..7)
        clear_shape_caches()
        ramsey_exact("path:3:2:5", "clique:3:4", 7)
        assert _copy_masks.cache_info()[:2] == (0, 10)  # (hits, misses)
        assert _lex_leader.cache_info()[:2] == (0, 5)
        assert _labelled_copies.cache_info()[:2] == (5, 2)
        assert pattern_hypergraph.cache_info().misses == 2
        ramsey_exact("path:3:2:5", "clique:3:4", 7)
        assert _copy_masks.cache_info()[:2] == (10, 10)
        assert _lex_leader.cache_info()[:2] == (5, 5)

    def test_no_copy_list_below_the_targets_order(self):
        # the 12-vertex path fits in no order up to 7, so its 12! relabellings
        # are never listed; only the clique's are
        clear_shape_caches()
        r = ramsey_exact("path:3:2:12", "clique:3:4", 7)
        assert (r.value, r.lower_bound, r.stats["nodes"]) == (None, 8, 75)
        assert _labelled_copies.cache_info().misses == 1
        assert not any(_copy_masks(pattern_hypergraph("path:3:2:12"), 7))

    def test_too_many_relabellings_end_the_climb(self):
        # the 12-vertex path has 12!/2 copies on its own vertices: the
        # relabelling search gives up, so order 12 is not searched and the
        # climb ends as at a spent budget, one above the witness on 11
        clear_shape_caches()
        r = ramsey_exact("path:3:2:12", "clique:3:4", 12)
        assert (r.value, r.exact, r.lower_bound, r.lower_witness.n) == (None, False, 12, 11)
        assert r.stats["levels"][12] == {"nodes": 0, "prunes": 0}
        assert _labelled_copies(pattern_hypergraph("path:3:2:12")) is None
        with pytest.raises(GuardExceeded) as stop:
            free_coloring_exists("path:3:2:12", "clique:3:4", 12)
        assert stop.value.stats == {"nodes": 0, "prunes": 0}

    def test_a_symmetric_target_has_one_labelled_copy(self):
        # the relabelling search closes the edges under adjacent
        # transpositions, so K_12^(3) costs 11 images, not 12! relabellings
        assert _labelled_copies(pattern_hypergraph("clique:3:12")) == (12, (tuple(range(comb(12, 3))),))

    def test_a_list_past_the_bit_limit_ends_the_climb(self):
        # K_12^(4) sits on C(21, 12) = 293 930 12-sets of the 5 985-bit
        # colourings on 21 vertices, past 2^27 bits: tau(4, 12) stays at its
        # construction on 20 vertices
        r = tau_exact(4, 12)
        assert (r.value, r.exact, r.lower, r.upper) == (None, False, 20, 22)
        assert r.stats["levels"] == {21: {"nodes": 0, "prunes": 0}}
        assert r.witness == tau_lower_construction(4, 12)

    def test_the_bit_limit_is_inclusive(self, monkeypatch):
        # K_4^(3) on 6 vertices: C(6, 4) copies of 20 bits, 300 bits in all
        target = pattern_hypergraph("clique:3:4")
        for limit, listed in ((300, True), (299, False)):
            clear_shape_caches()
            monkeypatch.setattr("hyperramsey.exact._LIST_BITS", limit)
            assert (_copy_masks(target, 6) is not None) == listed
        clear_shape_caches()

    @pytest.mark.parametrize("red,blue,cap", pinned_searches())
    def test_cold_and_warm_runs_agree(self, red, blue, cap):
        def outcome(r):
            return r.value, r.exact, r.lower_witness.red_bits, r.stats

        clear_shape_caches()
        cold = outcome(ramsey_exact(red, blue, cap))
        assert outcome(ramsey_exact(red, blue, cap)) == cold

    def test_shared_tables_are_tuples(self):
        # a caller cannot append to what every later call reads
        target = pattern_hypergraph("clique:3:4")
        buckets = _copy_masks(target, 6)
        assert isinstance(buckets, tuple) and all(isinstance(b, tuple) for b in buckets)
        assert _copy_masks(target, 6) is buckets
        _, copies = _labelled_copies(target)
        assert isinstance(copies, tuple) and all(isinstance(c, tuple) for c in copies)
        lex = _lex_leader(3, 6)
        assert isinstance(lex.due, tuple) and all(isinstance(d, tuple) for d in lex.due)
        assert pattern_hypergraph("clique:3:4") is target

    def test_witnesses_are_fresh_objects(self):
        # `_least_order` tells a found witness from the one it started with
        # by identity, so no witness may be a shared object
        first, again = (ramsey_exact("path:3:2:4", "clique:3:4", 7) for _ in range(2))
        assert first.lower_witness == again.lower_witness
        assert first.lower_witness is not again.lower_witness
        first, again = (tau_exact(3, 4) for _ in range(2))
        assert first.witness == again.witness and first.witness is not again.witness


class TestTauExact:
    @pytest.mark.parametrize("alpha", range(2, 7))
    def test_k2_values(self, alpha):
        r = tau_exact(2, alpha)
        assert r.exact and r.value == 2 * alpha - 2

    def test_trivial_regime(self):
        r = tau_exact(3, 2)
        assert r.value == 1 and "trivial-regime" in r.flags

    def test_alpha_one(self):
        r = tau_exact(3, 1)
        assert r.value == 0 and "alpha-1-degenerate" in r.flags

    def test_tau_3_4(self):
        r = tau_exact(3, 4)
        assert r.exact and r.value == 5
        assert 5 <= r.value <= 6
        alpha, _ = independence_number(r.witness)
        assert alpha < 4
        assert not has_two_edge_loose_path(r.witness)[0]

    @pytest.mark.parametrize("k, alpha", [(2, a) for a in range(2, 7)] + [(3, a) for a in range(2, 6)]
                             + [(4, 4)])
    def test_matches_naive_tau(self, k, alpha):
        # (4, 5) is left out: the oracle takes minutes there
        assert tau_exact(k, alpha).value == naive_tau(k, alpha)

    @pytest.mark.parametrize("k, alpha", [(2, a) for a in range(1, 8)] + [(3, a) for a in range(1, 8)]
                             + [(4, a) for a in range(1, 6)])
    def test_witness_is_free(self, k, alpha):
        # the cases of test_tau_outcomes_pinned, checked by the searchers of
        # `search` rather than by a digest
        r = tau_exact(k, alpha)
        assert r.witness.n == r.value
        assert independence_number(r.witness)[0] < alpha
        assert not has_two_edge_loose_path(r.witness)[0]

    @pytest.mark.parametrize("k, alpha, orders", [(3, 4, [6]), (3, 6, [10]), (4, 5, [8])])
    def test_levels_sum_to_totals(self, k, alpha, orders):
        # the climb starts one above the construction and stops at the
        # first refuted order or at the ceiling 2 alpha - 2
        r = tau_exact(k, alpha)
        levels = r.stats["levels"]
        assert sorted(levels) == orders
        for key in ("nodes", "prunes"):
            assert sum(level[key] for level in levels.values()) == r.stats[key]

    def test_spent_budget_gives_the_construction(self, monkeypatch):
        # order 10 of tau(3, 6) takes 540 nodes: a budget of 10 stops it at
        # 11, and the bound is the construction's order, 9
        monkeypatch.setattr("hyperramsey.search.DEFAULT_NODE_BUDGET", 10)
        r = tau_exact(3, 6)
        assert (r.value, r.exact, r.lower, r.upper) == (None, False, 9, 10)
        assert r.witness == tau_lower_construction(3, 6)
        assert r.stats["levels"][10]["nodes"] == 11

    def test_cap_keeps_a_met_ceiling_exact(self):
        # the construction already reaches 2 alpha - 2 = 8, so no order is
        # searched and the cap changes nothing
        r = tau_exact(2, 5, n_cap=3)
        assert (r.value, r.exact, r.lower, r.upper) == (8, True, 8, 8)

    def test_tau_outcomes_pinned(self):
        # recorded when tau moved onto the colouring DFS
        digest = hashlib.sha256()
        for k, alphas in ((2, range(1, 8)), (3, range(1, 8)), (4, range(1, 6))):
            for alpha in alphas:
                r = tau_exact(k, alpha)
                digest.update(repr((r.value, r.lower, r.upper, r.exact, r.witness.edges, r.flags,
                                    r.stats)).encode() + b"\n")
        assert digest.hexdigest() == "6eda1b5a8c430d976d13f4dd797de3790ec7a89acb0a157acc8c3f110f91a6cb"

    def test_witness_in_construction_bracket(self):
        for k, alpha in [(2, 4), (3, 3), (3, 4)]:
            r = tau_exact(k, alpha)
            assert tau_lower_construction(k, alpha).n <= r.value <= 2 * alpha - 2


class TestDirectedRamsey:
    def test_r2(self):
        assert directed_ramsey_exact(2).value == 2

    def test_r3_with_cyclic_witness(self):
        r = directed_ramsey_exact(3)
        assert r.value == 4
        assert r.witness.n == 3
        assert not find_transitive_subtournament(r.witness, 3).found

    def test_r4_by_enumeration(self):
        r = directed_ramsey_exact(4)
        assert r.exact and r.value == 8
        assert r.witness.n == 7
        assert not find_transitive_subtournament(r.witness, 4).found

    def test_gap_chi3(self):
        g = gap_report(directed_ramsey_exact(3), directed_ramsey_exact(2))
        assert g.inequality_holds and g.value == 4 and g.previous == 2
        assert g.augmented_witness.n == 3
        assert g.augmented_ttfree
        # the construction applied to a single vertex is the cyclic triangle
        arcs = set(g.augmented_witness.arcs())
        assert len(arcs) == 3
        outdeg = [sum(1 for a in arcs if a[0] == v) for v in range(3)]
        assert sorted(outdeg) == [1, 1, 1]

    def test_gap_chi4(self):
        g = gap_report(directed_ramsey_exact(4), directed_ramsey_exact(3))
        assert g.inequality_holds and g.augmented_ttfree

    def test_labelled_count_consistency(self):
        # Burnside-style consistency of the searcher: the number of labelled
        # TT_3-free tournaments on 3 vertices is 2 (the two cyclic triangles),
        # and every other 3-tournament is transitive
        from math import comb as c
        free = 0
        for bits in range(1 << c(3, 2)):
            t = Tournament(3, bits)
            if not find_transitive_subtournament(t, 3).found:
                free += 1
        assert free == 2

    @staticmethod
    def assert_cut_matches_relabel(t: Tournament):
        # the predicate of each sigma_i = (i i+1), read at node i+1, against a
        # full comparison of t with t.relabel(sigma_i) in the walk's order
        p = out_patterns(t)
        for i in range(t.n - 1):
            cut = _lex_leader_cut(p[i], i + 1)
            assert cut >> (2 << i) == 0
            swap = list(range(t.n))
            swap[i], swap[i + 1] = i + 1, i
            assert (not cut >> p[i + 1] & 1) == (p < out_patterns(t.relabel(swap))), (t, i)

    @pytest.mark.parametrize("n", range(6))
    def test_lex_leader_cut_on_every_small_tournament(self, n):
        for bits in range(1 << comb(n, 2)):
            self.assert_cut_matches_relabel(Tournament(n, bits))

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_lex_leader_cut_on_random_tournaments(self, n):
        rng = Random(n)
        for _ in range(100):
            self.assert_cut_matches_relabel(Tournament.random(n, rng))

    @pytest.mark.parametrize("chi,order", [(3, 3), (4, 4), (4, 5), (4, 6)])
    def test_witness_is_the_least_free_tournament(self, chi, order):
        # every tournament in the walk's order, unpruned, up to the first
        # TT_chi-free one: the least
        for p in product(*(range(1 << v) for v in range(order))):
            least = Tournament.from_arcs(order, [(v, u) if p[v] >> u & 1 else (u, v)
                                                 for v in range(order) for u in range(v)])
            if not naive_has_tt(least, chi):
                break
        assert _ttfree_tournament_exists(chi, order)[0] == least

    @pytest.mark.parametrize("chi,cap,value,exact,bits,nodes,prunes", [
        (2, 9, 2, True, 0, 2, 2),
        (3, 9, 4, True, 5, 8, 13),
        (4, 9, 8, True, 1731447, 79, 2234),
        (5, 9, None, False, 63600195519, 40, 62),
    ])
    def test_dfs_counts_pinned(self, chi, cap, value, exact, bits, nodes, prunes):
        # recorded from the pattern-by-pattern search: a rejected pattern is a
        # prune only once the walk passes it, lex-leader cuts included
        r = directed_ramsey_exact(chi, cap)
        assert (r.value, r.exact, r.witness.bits) == (value, exact, bits)
        assert (r.stats["nodes"], r.stats["prunes"]) == (nodes, prunes)

    @pytest.mark.parametrize("cap,lower,bits", [
        (10, 11, 32567912691647),
        (11, 12, 33316983908726719),
        (12, 13, 68199800943788554175),
        (13, 14, 279278118100611561813951),
    ])
    def test_chi5_witnesses_pinned(self, cap, lower, bits):
        # recorded from the DFS without symmetry breaking
        r = directed_ramsey_exact(5, cap)
        assert (r.value, r.exact, r.lower_bound, r.witness.n, r.witness.bits) == (None, False, lower, cap, bits)

    def test_cap_below_the_first_order(self):
        # no order is searched: the bound is the one the transitive
        # tournament on chi-1 vertices proves, not n_cap + 1
        r = directed_ramsey_exact(5, 3)
        assert (r.value, r.exact, r.lower_bound, r.witness.n) == (None, False, 5, 4)

    def test_spent_budget_gives_the_lower_bound(self, monkeypatch):
        # orders 4..7 take at most 8 nodes each and order 8 takes 53: a
        # budget of 40 stops the search at 8, which stays undecided
        monkeypatch.setattr("hyperramsey.search.DEFAULT_NODE_BUDGET", 40)
        r = directed_ramsey_exact(4)
        assert (r.value, r.exact, r.lower_bound, r.witness.n) == (None, False, 8, 7)
        levels = r.stats["levels"]
        assert sorted(levels) == list(range(4, 9))
        assert levels[8] == {"nodes": 41, "prunes": 1663}
        for key in ("nodes", "prunes"):
            assert sum(level[key] for level in levels.values()) == r.stats[key]
        assert not find_transitive_subtournament(r.witness, 4).found

    def test_order_14_of_chi5_pinned(self, monkeypatch):
        # the order R_vec(5) = 14 (Reid & Parker 1970) would refute: its
        # first 2000 nodes, counted by the pattern-by-pattern walk
        monkeypatch.setattr("hyperramsey.search.DEFAULT_NODE_BUDGET", 2000)
        with pytest.raises(GuardExceeded) as stop:
            _ttfree_tournament_exists(5, 14)
        assert stop.value.stats == {"nodes": 2001, "prunes": 3026229}

    @pytest.mark.parametrize("chi,cap", [(2, 9), (3, 9), (4, 9), (5, 9)])
    def test_levels_sum_to_totals(self, chi, cap):
        r = directed_ramsey_exact(chi, cap)
        levels = r.stats["levels"]
        last = r.value if r.exact else cap
        assert sorted(levels) == list(range(chi, last + 1))
        for key in ("nodes", "prunes"):
            assert sum(level[key] for level in levels.values()) == r.stats[key]

    @staticmethod
    def assert_rule_matches_oracle(t: Tournament, chi: int):
        # every out-arc pattern of a new vertex t.n, against a naive search
        # for a TT_chi through it in the extended tournament; the set is
        # folded up from vertex 0, each step adding the chains through the
        # newest vertex, as the DFS folds it along a branch
        n = t.n
        masks = [sum(1 << u for u in range(n) if u != v and t.has_arc(v, u)) for v in range(n)]
        bad = 0
        for v in range(n + 1):
            bad = _completing_patterns(bad, masks, v, chi)
        assert bad >> (1 << n) == 0
        for pattern in range(1 << n):
            # bit colex_rank((u, n)) set = arc u -> n, i.e. bit u of pattern clear
            ext = Tournament(n + 1, t.bits | (~pattern & (1 << n) - 1) << comb(n, 2))
            assert bool(bad >> pattern & 1) == naive_has_tt(ext, chi, through=n), (t, pattern)

    @pytest.mark.parametrize("chi", [3, 4])
    @pytest.mark.parametrize("n", range(6))
    def test_rejection_rule_on_every_small_tournament(self, chi, n):
        for bits in range(1 << comb(n, 2)):
            self.assert_rule_matches_oracle(Tournament(n, bits), chi)

    @pytest.mark.parametrize("chi", [3, 4, 5])
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_rejection_rule_on_random_tournaments(self, chi, n):
        rng = Random(1000 * chi + n)
        for _ in range(3):
            self.assert_rule_matches_oracle(Tournament.random(n, rng), chi)


class TestGoodness:
    def test_good_pair(self):
        target = pattern_hypergraph("clique:3:4")
        r = ramsey_exact("path:3:2:4", target, 7)
        report = goodness_gap("path:3:2:4", target, r)
        assert report.verdict == "good" and report.gap == 0

    def test_not_good_pair(self):
        target = pattern_hypergraph("tth:2:2")
        r = ramsey_exact("edge:3", target, 7)
        report = goodness_gap("edge:3", target, r)
        assert report.verdict == "not-good"

    def test_undecided(self):
        target = pattern_hypergraph("clique:3:4")
        r = ramsey_exact("path:3:1:5", target, 4)
        report = goodness_gap("path:3:1:5", target, r)
        assert report.verdict == "undecided"


    def test_bound_outside_its_hypothesis(self):
        # Burr's bound needs a connected red pattern on at least sigma(H)
        # vertices: an edgeless one fails the first, a single edge (3 < 4
        # vertices) the second
        target = pattern_hypergraph("clique:3:4")
        r = ramsey_exact("tth:1:4", target, 6)
        assert goodness_gap("tth:1:4", target, r) == GoodnessReport(5, None, "n/a")
        target = Hypergraph(3, 4, ())  # chi 1, sigma 4
        r = ramsey_exact("edge:3", target, 6)
        assert r.value == 4
        assert goodness_gap("edge:3", target, r) == GoodnessReport(4, None, "n/a")


class TestNotGoodByConstruction:
    def test_tight_path_exceeds_the_general_bound(self):
        # the overlap >= 2 construction beats the general lower bound as soon
        # as floor(n/k) > sigma: free colouring on 12 vertices, bound 12
        from hyperramsey.constructions import ell_path_lb
        from hyperramsey.core import burr_bound, complete_hypergraph, ramsey_profile
        from hyperramsey.exact import RamseyResult

        target = complete_hypergraph(3, 4)
        inst = ell_path_lb(3, 2, 11, 2)
        cert = verify_free(inst.coloring, "path:3:2:11", target)
        assert cert.kind == "free"
        profile = ramsey_profile(target)
        bb = burr_bound(11, profile)
        assert inst.n == bb.value == 12  # so R >= 13 strictly beats the bound
        result = RamseyResult(None, inst.n + 1, False, inst.coloring, None)
        report = goodness_gap("path:3:2:11", target, result, profile)
        assert report.verdict == "not-good"
