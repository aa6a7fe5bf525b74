import json
from itertools import combinations
from math import comb
from random import Random

import pytest

from hyperramsey.core import (
    BLUE,
    BurrBound,
    GuardExceeded,
    Hypergraph,
    RED,
    RamseyProfile,
    Tournament,
    TwoColoring,
    burr_bound,
    colex_rank,
    colex_unrank,
    coloring_from_json,
    coloring_to_json,
    complete_hypergraph,
    ell_cycle,
    ell_path,
    fano,
    hypergraph_from_json,
    hypergraph_to_json,
    ramsey_profile,
    rank_image,
    single_edge,
    tournament_from_json,
    tournament_hypergraph,
    tournament_to_json,
    transitive_tournament_hypergraph,
)

from oracles import all_red, has_colour, naive_chromatic


def verify_profile(hg: Hypergraph, profile: RamseyProfile) -> bool:
    """Independent one-pass check of a profile's witness and class sizes."""
    witness = profile.witness
    if len(witness) != hg.n:
        return False
    used = sorted(set(witness))
    if used != list(range(profile.chi)):
        return False
    for e in hg.edges:
        if len({witness[v] for v in e}) == 1:
            return False
    sizes = [sum(1 for c in witness if c == i) for i in range(profile.chi)]
    return min(sizes) == profile.sigma


# lists that are not a permutation of 0..3, for every relabel on 4 vertices
NOT_PERMUTATIONS_OF_4 = pytest.mark.parametrize(
    "perm", [[0, 1, 2, 2], [0, 1, 2], [0, 1, 2, 3, 4], [1, 2, 3, 4], [-1, 0, 1, 2]],
    ids=["repeat", "short", "long", "shifted", "negative"])


class TestColex:
    def test_first_subset(self):
        assert colex_rank((0, 1, 2)) == 0

    def test_rank_123(self):
        # all 3-subsets of {0..3} in colex order put {1,2,3} last
        subs = sorted(combinations(range(4), 3), key=lambda s: s[::-1])
        assert subs.index((1, 2, 3)) == 3
        assert colex_rank((1, 2, 3)) == 3

    def test_round_trip_all_small(self):
        for n in range(2, 11):
            for k in range(2, min(n, 5) + 1):
                for r in range(comb(n, k)):
                    s = colex_unrank(r, k, n)
                    assert colex_rank(s) == r

    def test_round_trip_3_subsets_of_6(self):
        for s in combinations(range(6), 3):
            assert colex_unrank(colex_rank(s), 3, 6) == s

    def test_bijective_onto_range(self):
        ranks = {colex_rank(s) for s in combinations(range(7), 3)}
        assert ranks == set(range(comb(7, 3)))

    def test_malformed_subset(self):
        with pytest.raises(ValueError):
            colex_rank((2, 1, 3))
        with pytest.raises(ValueError):
            colex_unrank(comb(6, 3), 3, 6)


class TestHypergraph:
    def test_edge_validation(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 4, ((0, 1, 1),))
        with pytest.raises(ValueError):
            Hypergraph(3, 3, ((0, 1, 3),))
        with pytest.raises(ValueError):
            Hypergraph(3, 4, ((0, 1, 2), (2, 1, 0)))

    def test_edges_sorted_colex(self):
        hg = Hypergraph(3, 5, ((2, 3, 4), (0, 1, 2)))
        assert hg.edges == ((0, 1, 2), (2, 3, 4))

    @NOT_PERMUTATIONS_OF_4
    def test_relabel_needs_a_permutation(self, perm):
        hg = Hypergraph(2, 4, ((0, 2), (0, 3)))
        with pytest.raises(ValueError, match="not a permutation of 0..3"):
            hg.relabel(perm)


class TestPathsAndCycles:
    def test_tight_path_smallest(self):
        assert ell_path(3, 2, 4).edges == ((0, 1, 2), (1, 2, 3))

    def test_loose_path(self):
        assert ell_path(3, 1, 5).edges == ((0, 1, 2), (2, 3, 4))
        assert ell_path(3, 1, 9).edges == ((0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8))

    def test_single_edge_path(self):
        assert ell_path(4, 3, 4).edges == ((0, 1, 2, 3),)

    def test_path_edge_count_and_overlaps(self):
        for k, ell, n in [(3, 1, 9), (3, 2, 7), (4, 1, 10), (4, 3, 7), (5, 2, 11)]:
            p = ell_path(k, ell, n)
            assert p.num_edges == (n - ell) // (k - ell)
            for i in range(p.num_edges - 1):
                assert len(set(p.edges[i]) & set(p.edges[i + 1])) == ell
            if ell == 1:
                for i in range(p.num_edges):
                    for j in range(i + 2, p.num_edges):
                        assert not set(p.edges[i]) & set(p.edges[j])

    @pytest.mark.parametrize("k, ell, n", [(3, 1, 4), (3, 1, 6), (3, 1, 10), (3, 2, 4), (3, 2, 7),
                                           (4, 1, 6), (4, 1, 9), (4, 2, 8), (4, 3, 5), (5, 2, 6)])
    def test_cycle_edge_count_and_overlaps(self, k, ell, n):
        # edge i is the window of k cyclically consecutive vertices from
        # i*(k-ell); consecutive windows, the last and the first included,
        # share ell vertices, and the two edges of a two-edge cycle meet at
        # both junctions, so they share 2*ell
        c = ell_cycle(k, ell, n)
        q = n // (k - ell)
        windows = [frozenset((i * (k - ell) + j) % n for j in range(k)) for i in range(q)]
        assert c.num_edges == q and set(map(frozenset, c.edges)) == set(windows)
        for i in range(q):
            assert len(windows[i] & windows[(i + 1) % q]) == (2 * ell if q == 2 else ell)

    def test_path_divisibility_rejected(self):
        with pytest.raises(ValueError):
            ell_path(3, 1, 6)

    def test_two_edge_loose_cycle(self):
        assert ell_cycle(3, 1, 4).edges == ((0, 1, 2), (0, 2, 3))

    def test_tight_cycle_4(self):
        # expanding the cyclic window formula by hand
        assert ell_cycle(3, 2, 4).edges == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

    def test_degenerate_cycle_rejected(self):
        with pytest.raises(ValueError):
            ell_cycle(3, 1, 3)
        with pytest.raises(ValueError):
            ell_cycle(3, 2, 3)  # all windows coincide


class TestTournament:
    def test_every_pair_oriented(self):
        t = Tournament.transitive(4)
        for i, j in combinations(range(4), 2):
            assert t.has_arc(i, j) != t.has_arc(j, i)

    def test_from_arcs_round_trip(self):
        t = Tournament.cyclic_triangle()
        assert set(t.arcs()) == {(0, 1), (1, 2), (2, 0)}
        again = tournament_from_json(tournament_to_json(t))
        assert again == t

    def test_double_orientation_rejected(self):
        with pytest.raises(ValueError):
            Tournament.from_arcs(2, [(0, 1), (1, 0)])

    @pytest.mark.parametrize("u, v", [(5, 0), (0, 3), (-1, 2)])
    def test_arc_lookup_rejects_vertices_outside(self, u, v):
        with pytest.raises(ValueError):
            Tournament.transitive(3).has_arc(u, v)

    @pytest.mark.parametrize("arcs", [[(0, 1), (0, 2), (5, 0)], [(0, 1), (0, 2), (1, 1)]],
                             ids=["vertex-outside", "loop"])
    def test_from_arcs_rejects_a_pair_it_cannot_orient(self, arcs):
        # either arc would otherwise stand in for the unnamed pair (1, 2)
        with pytest.raises(ValueError):
            Tournament.from_arcs(3, arcs)

    @NOT_PERMUTATIONS_OF_4
    def test_relabel_needs_a_permutation(self, perm):
        with pytest.raises(ValueError, match="not a permutation of 0..3"):
            Tournament.transitive(4).relabel(perm)


class TestTournamentHypergraph:
    def test_single_arc(self):
        hg, classes = tournament_hypergraph(Tournament.transitive(2), 2)
        assert classes == ((0, 1), (2, 3))
        assert hg.edges == ((0, 1, 2), (0, 1, 3))

    def test_tt3_m2_edge_count(self):
        # pairs within each class x targets along each of the 3 arcs
        hg, _ = tournament_hypergraph(Tournament.transitive(3), 2)
        assert hg.num_edges == 3 * comb(2, 2) * 2

    def test_m1_is_edgeless(self):
        hg, _ = tournament_hypergraph(Tournament.cyclic_triangle(), 1)
        assert hg.num_edges == 0

    def test_transitive_built_once_per_shape(self):
        # the frozen hypergraph and its tuple classes are shared, not rebuilt
        got = transitive_tournament_hypergraph(3, 2)
        assert transitive_tournament_hypergraph(3, 2) is got
        assert got == tournament_hypergraph(Tournament.transitive(3), 2)


class TestFano:
    def test_pair_coverage(self):
        hg = fano()
        for pair in combinations(range(7), 2):
            count = sum(1 for e in hg.edges if set(pair) <= set(e))
            assert count == 1

    def test_degrees(self):
        assert fano().degrees() == [3] * 7

    def test_shape(self):
        hg = fano()
        assert hg.k == 3 and hg.n == 7 and hg.num_edges == 7


class TestColoring:
    def test_bitmap_length(self):
        col = all_red(3, 6)
        assert col.red_bits == (1 << comb(6, 3)) - 1
        with pytest.raises(ValueError):
            TwoColoring(3, 4, 1 << comb(4, 3))

    def test_colour_lookup(self):
        col = TwoColoring.from_red_edges(3, 5, [(0, 1, 4)])
        assert col.is_red((4, 0, 1))
        assert not col.is_red((0, 1, 2))
        assert col.red_bits.bit_count() == 1

    @pytest.mark.parametrize("edge", [(0, 0, 4), (0, 1, 5), (0, 1), (0, 1, 2, 3), (0, 0, 1, 2), (-1, 0, 1)])
    def test_colour_lookup_rejects_non_k_subsets(self, edge):
        col = all_red(3, 5)
        with pytest.raises(ValueError):
            col.is_red(edge)

    @pytest.mark.parametrize("edge", [(1, 2), (0, 1, 5), (0, 0, 4), (0, 1, 2, 3)])
    def test_from_red_edges_rejects_non_k_subsets(self, edge):
        # a 2-set's colex rank is that of a 3-set: (1, 2) would colour (0, 2, 3)
        with pytest.raises(ValueError):
            TwoColoring.from_red_edges(3, 5, [edge])

    def test_colour_class_bits(self):
        col = TwoColoring.from_red_edges(3, 5, [(0, 1, 4)])
        assert col.class_bits(RED) == col.red_bits
        assert col.class_bits(BLUE) == col.red_bits ^ ((1 << comb(5, 3)) - 1)
        assert col.edges_of(RED) == [(0, 1, 4)]
        assert has_colour(col, (0, 1, 2), BLUE) and not has_colour(col, (0, 1, 2), RED)

    @pytest.mark.parametrize("colour", ["Red", "RED", "Blue", "green", "", None])
    def test_unknown_colour_rejected(self, colour):
        # a misspelt colour used to read as blue
        col = all_red(3, 5)
        for lookup in (col.class_bits, col.edges_of, col.link):
            with pytest.raises(ValueError, match="colour must be"):
                lookup(colour)

    def test_colour_lookup_matches_colex_rank(self):
        col = TwoColoring.random(3, 9, 0.5, seed=4)
        for e in combinations(range(9), 3):
            assert col.is_red(e[::-1]) == bool(col.red_bits >> colex_rank(e) & 1)

    def test_json_round_trip(self):
        rng = Random(5)
        for n in (4, 6, 8):
            col = TwoColoring(3, n, rng.getrandbits(comb(n, 3)))
            again = coloring_from_json(json.loads(json.dumps(coloring_to_json(col))))
            assert again == col

    def test_json_fields(self):
        obj = coloring_to_json(TwoColoring.all_blue(3, 8))
        assert obj["encoding"] == "colex-v1"
        assert set(obj) == {"k", "n", "encoding", "red_bitmap"}

    def test_relabel_preserves_counts(self):
        col = TwoColoring.random(3, 6, 0.4, seed=9)
        perm = [3, 1, 5, 0, 4, 2]
        assert col.relabel(perm).red_bits.bit_count() == col.red_bits.bit_count()

    def test_relabel_moves_each_edge(self):
        col = TwoColoring.random(3, 6, 0.4, seed=9)
        perm = [3, 1, 5, 0, 4, 2]
        moved = {tuple(sorted(perm[v] for v in e)) for e in col.edges_of(RED)}
        assert set(col.relabel(perm).edges_of(RED)) == moved

    @NOT_PERMUTATIONS_OF_4
    def test_relabel_needs_a_permutation(self, perm):
        col = TwoColoring.from_red_edges(2, 4, [(0, 2), (0, 3)])
        with pytest.raises(ValueError, match="not a permutation of 0..3"):
            col.relabel(perm)

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (4, 7)])
    def test_rank_image_is_the_permuted_set(self, k, n):
        perm = list(range(n))
        Random(k * n).shuffle(perm)
        image = rank_image(k, n, perm)
        for r in range(comb(n, k)):
            assert colex_unrank(image[r], k, n) == tuple(sorted(perm[v] for v in colex_unrank(r, k, n)))

    def test_empty_host(self):
        col = TwoColoring(3, 2, 0)
        assert col.num_edges == 0
        assert coloring_from_json(coloring_to_json(col)) == col

    def test_hypergraph_json_round_trip(self):
        hg = fano()
        assert hypergraph_from_json(hypergraph_to_json(hg)) == hg


class TestProfile:
    def test_k4(self):
        # only a 2+2 split avoids a monochromatic triple
        prof = ramsey_profile(complete_hypergraph(3, 4))
        assert (prof.chi, prof.sigma) == (2, 2)
        assert verify_profile(complete_hypergraph(3, 4), prof)

    def test_fano(self):
        prof = ramsey_profile(fano())
        assert prof.chi == 3
        assert verify_profile(fano(), prof)

    def test_fano_sigma_against_naive(self):
        chi, sigma = naive_chromatic(fano())
        prof = ramsey_profile(fano())
        assert (prof.chi, prof.sigma) == (chi, sigma)

    def test_tth_23(self):
        hg, _ = tournament_hypergraph(Tournament.transitive(2), 3)
        prof = ramsey_profile(hg)
        assert prof.chi == 2
        assert verify_profile(hg, prof)

    @pytest.mark.parametrize("hg", [
        single_edge(3),
        complete_hypergraph(3, 5),
        ell_path(3, 1, 5),
        ell_cycle(3, 2, 4),
        tournament_hypergraph(Tournament.cyclic_triangle(), 2)[0],
    ])
    def test_matches_naive(self, hg):
        chi, sigma = naive_chromatic(hg)
        prof = ramsey_profile(hg)
        assert (prof.chi, prof.sigma) == (chi, sigma)
        assert verify_profile(hg, prof)

    def test_edgeless_flagged(self):
        prof = ramsey_profile(Hypergraph(3, 5, ()))
        assert prof.chi == 1 and prof.sigma == 5
        assert "edgeless-chi-1" in prof.flags

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            ramsey_profile(complete_hypergraph(3, 17))


class TestBurrBound:
    def test_direct_substitution(self):
        prof = RamseyProfile(2, 2, (0, 0, 1, 1))
        assert burr_bound(4, prof) == BurrBound(5, True)

    def test_chi_one_edge_case(self):
        prof = RamseyProfile(1, 3, (0, 0, 0))
        assert burr_bound(10, prof).value == 3

    def test_fano_value(self):
        prof = ramsey_profile(fano())
        assert burr_bound(7, prof).value == 2 * 6 + prof.sigma

    def test_hypothesis_flag(self):
        prof = RamseyProfile(2, 5, tuple([0] * 5 + [1] * 5))
        assert not burr_bound(3, prof).hypothesis_ok

    def test_monotone(self):
        values = []
        for v_g in range(2, 8):
            for chi in range(1, 4):
                for sigma in range(1, min(v_g, 4) + 1):
                    prof = RamseyProfile(chi, sigma, ())
                    values.append(((v_g, chi, sigma), burr_bound(v_g, prof).value))
        lookup = dict(values)
        for (v_g, chi, sigma), val in values:
            for dv, dc, ds in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                bigger = (v_g + dv, chi + dc, sigma + ds)
                if bigger in lookup:
                    assert lookup[bigger] >= val


class TestTournamentHypergraphChromatic:
    # chi(H(TT_chi, m)) = min(chi, m): with m <= c colours every class can be
    # rainbow-coloured (all within-class pairs bichromatic), while for
    # c < min(chi, m) some colour holds a pair in one class and reappears in
    # a class that arcs out of it
    @pytest.mark.parametrize("chi,m", [(2, 2), (2, 3), (2, 6), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
    def test_chromatic_number_law(self, chi, m):
        hg, _ = tournament_hypergraph(Tournament.transitive(chi), m)
        assert ramsey_profile(hg).chi == min(chi, m)

    def test_profile_guard(self, monkeypatch):
        hg, _ = tournament_hypergraph(Tournament.transitive(2), 3)
        monkeypatch.setattr("hyperramsey.core.PROFILE_GUARD", 4)
        with pytest.raises(GuardExceeded):
            ramsey_profile(hg)
        monkeypatch.undo()
        assert ramsey_profile(hg).chi == 2
