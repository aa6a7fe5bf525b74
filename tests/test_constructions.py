import hashlib
import json
from itertools import combinations, product
from math import comb

import pytest

from hyperramsey.core import (
    BLUE,
    Hypergraph,
    RED,
    Tournament,
    _proper_colourings,
    complete_hypergraph,
    ramsey_profile,
    tournament_hypergraph,
)
from hyperramsey.constructions import (
    burr_coloring,
    ell_path_lb,
    loose_cycle_lb,
    loose_path_lb,
    non_transitive_lb,
    split_target,
    tau_lower_construction,
    transitive_lb,
)
from hyperramsey.search import (
    find_mono_copy,
    has_two_edge_loose_path,
    independence_number,
    longest_mono_ell_path,
    verify_free,
)

from oracles import naive_find_copy


def assert_total_and_complementary(inst, red_rule):
    """Every k-set gets exactly the colour the written-out rule assigns."""
    col = inst.coloring
    for e in combinations(range(col.n), col.k):
        assert col.is_red(e) == red_rule(e), e


def qualifies_for_ell_path_lb(hg: Hypergraph, ell: int) -> bool:
    """Check the target-side hypothesis of the ell-path lower bound: every
    proper chi-colouring and every colour class i admit an edge meeting class i
    and every other class in at most ell-1 vertices."""
    profile = ramsey_profile(hg)
    chi = profile.chi
    for assignment in _proper_colourings(hg, chi):
        for i in range(chi):
            ok = False
            for e in hg.edges:
                cnt = [0] * chi
                for v in e:
                    cnt[assignment[v]] += 1
                if cnt[i] >= 1 and all(cnt[j] <= ell - 1 for j in range(chi) if j != i):
                    ok = True
                    break
            if not ok:
                return False
    return True


def block_of(partition):
    lookup = {}
    for i, b in enumerate(partition):
        for v in b:
            lookup[v] = i
    return lookup


class TestBurrColoring:
    def test_small_case_blocks_and_edges(self):
        inst = burr_coloring(3, 2, 2, 4)
        assert inst.n == 4
        assert [len(b) for b in inst.partition] == [3, 1]
        assert inst.coloring.edges_of(RED) == [(0, 1, 2)]

    def test_single_block_all_red(self):
        inst = burr_coloring(3, 1, 5, 6)
        assert inst.n == 4
        assert inst.coloring.red_bits.bit_count() == comb(4, 3)

    def test_verify_free(self):
        inst = burr_coloring(3, 2, 2, 4)
        cert = verify_free(inst.coloring, "path:3:2:4", complete_hypergraph(3, 4))
        assert cert.kind == "free"

    def test_formula(self):
        for chi in (1, 2, 3):
            for sigma in (1, 2, 3):
                for v_g in (sigma, sigma + 2):
                    inst = burr_coloring(3, chi, sigma, v_g)
                    assert inst.n == (v_g - 1) * (chi - 1) + sigma - 1

    def test_no_k_sets_flag(self):
        inst = burr_coloring(3, 1, 2, 5)
        assert inst.n == 1 and "no-k-sets" in inst.flags


class TestEllPathLb:
    def test_formula_small(self):
        assert ell_path_lb(3, 2, 5, 2).n == (1) * 4 + 5 // 3 - 1

    def test_rule_complementary(self):
        inst = ell_path_lb(3, 2, 8, 2)
        lookup = block_of(inst.partition)

        def rule(e):
            blocks = [lookup[v] for v in e]
            if len(set(blocks)) == 1:
                return True
            counts = [blocks.count(i) for i in range(len(inst.partition))]
            return counts[-1] >= 1 and all(c <= 1 for c in counts[:-1])

        assert_total_and_complementary(inst, rule)

    def test_longest_red_tight_path_below_8(self):
        inst = ell_path_lb(3, 2, 8, 2)
        vmax, _ = longest_mono_ell_path(inst.coloring, 2, RED)
        assert vmax < 8

    def test_k4_qualifies(self):
        assert qualifies_for_ell_path_lb(complete_hypergraph(3, 4), 2)

    def test_blue_free_of_k4(self):
        inst = ell_path_lb(3, 2, 8, 2)
        assert not find_mono_copy(inst.coloring, complete_hypergraph(3, 4), BLUE).found


class TestLoosePathLb:
    def make(self):
        aux = tau_lower_construction(2, 3)  # a perfect matching on 4 vertices
        return loose_path_lb(3, 2, 11, 3, aux), aux

    def test_aux_accepted(self):
        inst, aux = self.make()
        assert not has_two_edge_loose_path(aux)[0]
        assert independence_number(aux)[0] < 3

    def test_formula(self):
        inst, _ = self.make()
        assert inst.n == 10 == (2 - 1) * (11 - 1) + 4 - 2 * (3 - 1)

    def test_blue_target_shape(self):
        inst, _ = self.make()
        assert inst.blue_target.n == 9
        # every edge of the target meets a class in exactly k-1 vertices
        assert inst.blue_target.num_edges > 0

    def test_blue_freeness(self):
        inst, _ = self.make()
        cert = find_mono_copy(inst.coloring, inst.blue_target, BLUE)
        assert not cert.found

    def test_uniformity_below_two_rejected(self):
        # checked before n is reduced modulo k - 1
        with pytest.raises(ValueError, match="need k >= 2"):
            loose_path_lb(1, 2, 4, 2, tau_lower_construction(2, 3))

    def test_rejects_bad_aux(self):
        bad = Hypergraph(2, 4, ((0, 1), (1, 2)))  # two edges sharing one vertex
        with pytest.raises(ValueError):
            loose_path_lb(3, 2, 11, 3, bad)
        sparse = Hypergraph(2, 4, ((0, 1),))  # independence 3 >= t
        with pytest.raises(ValueError):
            loose_path_lb(3, 2, 11, 3, sparse)


class TestLooseCycleLb:
    def test_pencil_unique_pair(self):
        inst = loose_cycle_lb(3, 2, 6, 2, "pencil", q=2)
        assert inst.n == 7
        # the unique pencil pair of the last block extends redly into block 1
        assert inst.coloring.is_red((0, 5, 6))
        assert not inst.coloring.is_red((0, 1, 5))

    def test_pencil_constraint(self):
        with pytest.raises(ValueError):
            loose_cycle_lb(3, 1, 6, 2, "pencil", q=2)

    def test_tau_variant_blocks(self):
        aux = tau_lower_construction(2, 3)
        inst = loose_cycle_lb(3, 2, 6, 3, "tau", aux=aux)
        assert [len(b) for b in inst.partition] == [5, 4]
        assert "tau-variant-reconstructed" in inst.flags

    @pytest.mark.parametrize("variant, extra", [("tau", {"aux": tau_lower_construction(2, 3)}),
                                                ("pencil", {"q": 2})])
    def test_empty_cycle_rejected(self, variant, extra):
        # n = 0 satisfies the congruence, but no loose cycle is empty
        with pytest.raises(ValueError):
            loose_cycle_lb(3, 2, 0, 3, variant, **extra)

    @pytest.mark.parametrize("variant, extra", [("tau", {"aux": tau_lower_construction(2, 3)}),
                                                ("pencil", {"q": 2})])
    def test_order_below_k_rejected(self, variant, extra):
        # n = 2 satisfies n = 0 (mod k-1), but no 3-uniform loose cycle has
        # two vertices: `core.ell_cycle` refuses the order
        with pytest.raises(ValueError, match="degenerate cycle"):
            loose_cycle_lb(3, 2, 2, 3, variant, **extra)

    def test_pencil_red_cycle_free(self):
        from hyperramsey.core import ell_cycle
        inst = loose_cycle_lb(3, 2, 6, 2, "pencil", q=2)
        assert not find_mono_copy(inst.coloring, ell_cycle(3, 1, 6), RED).found


class TestNonTransitiveLb:
    def test_single_block_all_red(self):
        inst = non_transitive_lb(2, 4)
        assert inst.n == 4
        assert inst.coloring.red_bits.bit_count() == comb(4, 3)

    def test_red_tight_path_bound(self):
        inst = non_transitive_lb(3, 6)
        vmax, _ = longest_mono_ell_path(inst.coloring, 2, RED)
        assert vmax <= 6 + 6 // 2 + 1

    def test_blue_side_vs_oracle(self):
        inst = non_transitive_lb(3, 4)
        target, _ = tournament_hypergraph(Tournament.cyclic_triangle(), 2)
        cert = find_mono_copy(inst.coloring, target, BLUE)
        naive = naive_find_copy(inst.coloring, target, BLUE)
        assert cert.found == (naive is not None)
        assert not cert.found  # the cyclic pattern cannot embed

    def test_rule_complementary(self):
        inst = non_transitive_lb(3, 4)
        lookup = block_of(inst.partition)

        def rule(e):
            blocks = sorted(lookup[v] for v in e)
            if blocks[0] == blocks[2]:
                return True
            if blocks[0] == blocks[1]:
                return blocks[0] <= blocks[2]
            if blocks[1] == blocks[2]:
                return blocks[1] <= blocks[0]
            return False

        assert_total_and_complementary(inst, rule)

    @pytest.mark.parametrize("m", range(2, 6))
    def test_is_the_transitive_blow_up(self, m):
        # blocks of t are those of transitive_lb at every n with
        # floor(2n/3) - 2 = t, the least such n being ceil(3(t+2)/2)
        for t in range(1, 8):
            n = -(-3 * (t + 2) // 2)
            assert (2 * n) // 3 - 2 == t
            ours, theirs = non_transitive_lb(m, t), transitive_lb(Tournament.transitive(m - 1), n)
            assert (ours.coloring, ours.partition) == (theirs.coloring, theirs.partition)


class TestTransitiveLb:
    def test_single_vertex(self):
        inst = transitive_lb(Tournament(1, 0), 9)
        assert inst.n == 4
        assert inst.coloring.red_bits.bit_count() == comb(4, 3)

    def test_c3_blocks(self):
        inst = transitive_lb(Tournament.cyclic_triangle(), 9)
        assert inst.n == 12 and inst.parameters["block_size"] == 4

    def test_red_tight_path_short(self):
        inst = transitive_lb(Tournament.cyclic_triangle(), 9)
        vmax, _ = longest_mono_ell_path(inst.coloring, 2, RED)
        assert vmax < 9

    def test_blue_tth2_exists(self):
        # a backward block pair supports the two-class pattern
        inst = transitive_lb(Tournament.cyclic_triangle(), 9)
        target, _ = tournament_hypergraph(Tournament.transitive(2), 2)
        assert find_mono_copy(inst.coloring, target, BLUE).found


class TestTauLowerConstruction:
    def test_3_4(self):
        hg = tau_lower_construction(3, 4)
        assert hg.n == 5 and hg.num_edges == comb(4, 3)
        assert independence_number(hg)[0] == 3
        assert not has_two_edge_loose_path(hg)[0]

    def test_2_3(self):
        hg = tau_lower_construction(2, 3)
        assert hg.n == 4 and hg.edges == ((0, 1), (2, 3))

    def test_trivial_regime(self):
        hg = tau_lower_construction(3, 2)
        assert hg.n == 1 and hg.num_edges == 0

    @pytest.mark.parametrize("k,alpha", [(2, 4), (3, 5), (3, 7), (4, 6)])
    def test_independence_exact(self, k, alpha):
        hg = tau_lower_construction(k, alpha)
        r = (alpha - 1) // (k - 1)
        s = (alpha - 1) - r * (k - 1)
        assert hg.n == alpha - 1 + (k - 1) * r
        got, _ = independence_number(hg)
        assert got == r * (k - 1) + s == alpha - 1
        assert not has_two_edge_loose_path(hg)[0]


class TestSplitTarget:
    def test_edge_shapes(self):
        hg = split_target(3, 2, 3, 4)
        blocks = [(0, 1, 2, 3, 4, 5), (6, 7, 8)]
        lookup = block_of(blocks)
        for e in hg.edges:
            counts = [sum(1 for v in e if lookup[v] == i) for i in range(2)]
            assert 2 in counts
        # triples inside one class are not edges
        assert (0, 1, 2) not in hg.edges


def _pinned_cases():
    for k, chi, sigma, extra in product((2, 3, 4), (0, 1, 2, 3), (1, 2, 3), (-1, 0, 1, 3)):
        yield burr_coloring, (k, chi, sigma, sigma + extra)
    for k, ell, n, chi in product((3, 4), (1, 2, 3), range(2, 12), (1, 2, 3)):
        yield ell_path_lb, (k, ell, n, chi)
    for k, chi, n, t in product((3, 4), (1, 2, 3), range(1, 12), (1, 2, 3, 4)):
        yield loose_path_lb, (k, chi, n, t, tau_lower_construction(k - 1, t))
        yield loose_cycle_lb, (k, chi, n, t, "tau", None, tau_lower_construction(k - 1, t))
    yield loose_path_lb, (3, 2, 11, 3, Hypergraph(2, 4, ((0, 1), (1, 2))))
    yield loose_path_lb, (4, 2, 13, 3, Hypergraph(2, 4, ((0, 1), (2, 3))))
    yield loose_cycle_lb, (3, 2, 6, 3, "tau")
    yield loose_cycle_lb, (3, 2, 6, 3, "other", 2)
    for k, chi, n, t, q in product((3, 4), (1, 2, 3), range(1, 8), (1, 3), (None, 1, 2, 3)):
        yield loose_cycle_lb, (k, chi, n, t, "pencil", q)
    for m, t in product(range(1, 5), range(0, 5)):
        yield non_transitive_lb, (m, t)
    tournaments = (Tournament(0, 0), Tournament(1, 0), Tournament.transitive(2),
                   Tournament.transitive(3), Tournament.cyclic_triangle())
    for tour, n in product(tournaments, range(3, 10)):
        yield transitive_lb, (tour, n)


def test_constructions_pinned():
    # colouring, manifest or error message of every construction over a
    # fixed grid, plus split_target and tau_lower_construction edges
    digest = hashlib.sha256()
    for fn, args in _pinned_cases():
        try:
            inst = fn(*args)
            line = (hex(inst.coloring.red_bits), json.dumps(inst.manifest(), sort_keys=True))
        except ValueError as exc:
            line = ("ValueError", str(exc))
        digest.update(repr((fn.__name__, line)).encode() + b"\n")
    for k, chi, t, tau in product((2, 3, 4), (2, 3), (1, 2, 3), (0, 1, 4)):
        digest.update(repr(split_target(k, chi, t, tau).edges).encode() + b"\n")
    for k, alpha in product((2, 3, 4, 5), range(1, 13)):
        digest.update(repr(tau_lower_construction(k, alpha)).encode() + b"\n")
    assert digest.hexdigest() == "f635bd0a27c796804bde2e2920f67fd09b27c0d11ce33bfd7e78be991bb3eda4"
