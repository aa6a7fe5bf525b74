import hashlib
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import hyperramsey.search
from hyperramsey.core import (
    BLUE,
    GuardExceeded,
    Hypergraph,
    RED,
    Tournament,
    TwoColoring,
    coloring_from_json,
    coloring_to_json,
    complete_hypergraph,
    ell_cycle,
    ell_path,
    fano,
    ramsey_profile,
    single_edge,
    tournament_hypergraph,
    transitive_tournament_hypergraph,
)
from hyperramsey.chains import CliqueChain, validate_chain
from hyperramsey.constructions import (
    burr_coloring,
    ell_path_lb,
    loose_cycle_lb,
    loose_path_lb,
    non_transitive_lb,
    tau_lower_construction,
)
from hyperramsey.engines import EngineParams, loose_witness_engine
from hyperramsey.exact import _ttfree_tournament_exists, free_coloring_exists
from hyperramsey.search import (
    Certificate,
    find_mono_clique,
    find_mono_copy,
    find_transitive_subtournament,
    has_two_edge_loose_path,
    independence_number,
    longest_mono_ell_path,
    parse_pattern,
    pattern_hypergraph,
    search_pattern,
    twin_classes,
    validate_embedding,
    validate_mono_path,
    verify_free,
)
from hyperramsey.table import RAMSEY_PAIRS

from oracles import (
    all_red,
    naive_find_clique,
    naive_find_copy,
    naive_independence,
    naive_link,
    naive_longest_mono_path,
    naive_path_witness,
    naive_twin_classes,
)


def validate_independent_set(hg: Hypergraph, vertices) -> bool:
    vs = set(vertices)
    if len(vs) != len(list(vertices)) or any(not 0 <= v < hg.n for v in vs):
        return False
    return all(not set(e) <= vs for e in hg.edges)


def validate_tt_embedding(t: Tournament, order) -> bool:
    order = list(order)
    if len(set(order)) != len(order) or any(not 0 <= v < t.n for v in order):
        return False
    return all(t.has_arc(order[i], order[j]) for i in range(len(order)) for j in range(i + 1, len(order)))


def seeded_coloring(k: int, n: int) -> TwoColoring:
    rng = Random(10 * k + n)
    return TwoColoring.random(k, n, rng.uniform(0.2, 0.8), seed=rng.getrandbits(32))


# seeded colourings for k = 3 and 4 up to 8 vertices, and two the table reads
PLAIN_DFS_CASES = {
    **{f"k{k}-n{n}": seeded_coloring(k, n) for k in (3, 4) for n in range(k + 1, 9)},
    "all_red(3,6)": all_red(3, 6),
    "ell_path_lb(3,2,8,2)": ell_path_lb(3, 2, 8, 2).coloring,
}


class TestLongestPath:
    def test_all_red_k5_tight(self):
        col = all_red(3, 5)
        vertices, cert = longest_mono_ell_path(col, 2, RED)
        assert vertices == 5
        assert validate_mono_path(col, cert.witness, 2, RED)

    def test_no_red_edge_convention(self):
        col = TwoColoring.all_blue(3, 5)
        vertices, cert = longest_mono_ell_path(col, 2, RED)
        # an absence has no witness, so `check` is never handed an empty path
        assert vertices == 2 and cert.witness is None and not cert.found

    def test_ell_path_lb_red_maximum(self):
        inst = ell_path_lb(3, 2, 8, 2)
        vertices, _ = longest_mono_ell_path(inst.coloring, 2, RED)
        assert vertices < 8

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_naive_enumerator(self, seed):
        rng = Random(seed)
        n = rng.randint(4, 8)
        col = TwoColoring.random(3, n, rng.random(), seed=1000 + seed)
        for ell in (1, 2):
            for colour in (RED, BLUE):
                got, cert = longest_mono_ell_path(col, ell, colour)
                assert got == naive_longest_mono_path(col, ell, colour)
                if cert.witness:
                    assert validate_mono_path(col, cert.witness, ell, colour)

    @pytest.mark.parametrize("col", PLAIN_DFS_CASES.values(), ids=PLAIN_DFS_CASES.keys())
    def test_witness_matches_plain_dfs(self, col):
        # the first longest path of an unmemoised DFS in the same extension
        # order: skipping visited states and the bound never move the witness
        for ell in range(1, col.k):
            for colour in (RED, BLUE):
                vertices, cert = longest_mono_ell_path(col, ell, colour)
                assert (vertices, cert.witness) == naive_path_witness(col, ell, colour)

    @pytest.mark.parametrize("seed", range(6))
    def test_relabelling_invariance(self, seed):
        rng = Random(100 + seed)
        n = 7
        col = TwoColoring.random(3, n, rng.random(), seed=seed)
        perm = list(range(n))
        rng.shuffle(perm)
        for ell in (1, 2):
            v1, _ = longest_mono_ell_path(col, ell, RED)
            v2, _ = longest_mono_ell_path(col.relabel(perm), ell, RED)
            assert v1 == v2

    def test_non_transitive_lb_pinned(self):
        # the table's tight-path row: bound, witness and search counts
        col = non_transitive_lb(3, 6).coloring
        vertices, cert = longest_mono_ell_path(col, 2, RED)
        assert vertices == 10
        assert cert.witness == [6, 0, 1, 7, 2, 3, 8, 4, 5, 9]
        assert cert.stats == {"nodes": 42, "prunes": 0}
        assert cert.detail["exact"] is True
        assert validate_mono_path(col, cert.witness, 2, RED)

    def test_loose_path_witness_order_pinned(self):
        # a loose-path edge brings two fresh vertices, so the order of
        # extensions (edge rank, interior, new boundary) decides the witness
        col = TwoColoring.random(3, 7, 0.6, seed=0)
        _, red = longest_mono_ell_path(col, 1, RED)
        _, blue = longest_mono_ell_path(col, 1, BLUE)
        assert (red.witness, red.stats) == ([2, 3, 0, 1, 4, 5, 6], {"nodes": 61, "prunes": 59})
        assert (blue.witness, blue.stats) == ([1, 2, 0, 5, 3, 4, 6], {"nodes": 62, "prunes": 59})

    def test_inexact_flag_beyond_guard(self, monkeypatch):
        # the search runs under the node budget, and a search that spends it
        # is flagged inexact
        monkeypatch.setattr("hyperramsey.search.DEFAULT_NODE_BUDGET", 50)
        col = TwoColoring.random(3, 9, 0.5, seed=0)
        _, cert = longest_mono_ell_path(col, 2, RED)
        assert cert.detail["exact"] is False and cert.stats["nodes"] == 51

    def test_budgeted_search_that_finishes_is_exact(self):
        # on 17 vertices the search ends in 12 nodes, well inside the
        # budget, so its answer is exact
        col = burr_coloring(3, 3, 2, 9).coloring
        vertices, cert = longest_mono_ell_path(col, 2, RED)
        assert (vertices, cert.stats["nodes"], cert.detail["exact"]) == (8, 12, True)
        # so the freeness certificate of the Burr colouring is exact too
        cert = verify_free(col, "path:3:2:9", "clique:3:6")
        assert (cert.kind, cert.detail["exact"]) == ("free", True)

    def test_search_outcomes_pinned(self, monkeypatch):
        # vertices, witness, counters and detail of seeded searches (k = 2, 3
        # and 4, every ell, both colours, n <= 9), of the lower-bound
        # colourings the table searches and of one run that finishes one node
        # inside a budget; any change to the order in which the DFS tries
        # extensions shows here
        def runs():
            for k in (2, 3, 4):
                for n in range(k, 10):
                    for tenths in range(1, 10):
                        col = TwoColoring.random(k, n, tenths / 10, seed=1000 * k + 10 * n + tenths)
                        yield from ((col, ell) for ell in range(1, k))
            for red, blue in RAMSEY_PAIRS:
                name, a = parse_pattern(red)
                if name == "path":
                    target = pattern_hypergraph(blue)
                    profile = ramsey_profile(target)
                    yield burr_coloring(target.k, profile.chi, profile.sigma, a["n"]).coloring, a["ell"]
            yield ell_path_lb(3, 2, 8, 2).coloring, 2
            yield non_transitive_lb(3, 6).coloring, 2
            yield loose_path_lb(3, 2, 11, 3, tau_lower_construction(2, 3)).coloring, 1

        digest = hashlib.sha256()
        for col, ell in runs():
            for colour in (RED, BLUE):
                vertices, cert = longest_mono_ell_path(col, ell, colour)
                digest.update(repr((vertices, cert.witness, cert.stats, cert.detail)).encode() + b"\n")
        col = TwoColoring.random(3, 9, 0.7, seed=15)
        vertices, cert = longest_mono_ell_path(col, 2, RED)
        assert (cert.stats["nodes"], cert.detail["exact"]) == (328, True)
        digest.update(repr((vertices, cert.witness, cert.stats, cert.detail)).encode())
        monkeypatch.setattr("hyperramsey.search.DEFAULT_NODE_BUDGET", 327)
        _, cut = longest_mono_ell_path(col, 2, RED)
        assert (cut.stats["nodes"], cut.detail["exact"]) == (328, False)
        assert digest.hexdigest() == "4766fcfb4dac2768eacf46c52b6d4a8aa373d5f5d7422ad15730b9b880a071a2"


class TestFindMonoCopy:
    def test_single_edge_found(self):
        col = TwoColoring.from_red_edges(3, 5, [(0, 1, 2)])
        cert = find_mono_copy(col, single_edge(3), BLUE)
        assert cert.found

    def test_fano_in_complete_blue(self):
        col = TwoColoring.all_blue(3, 7)
        cert = find_mono_copy(col, fano(), BLUE)
        assert cert.found
        assert validate_embedding(col, fano(), cert.witness, BLUE)

    def test_tth_in_non_transitive_blue(self):
        inst = non_transitive_lb(3, 4)
        target, _ = tournament_hypergraph(Tournament.transitive(2), 2)
        cert = find_mono_copy(inst.coloring, target, BLUE)
        naive = naive_find_copy(inst.coloring, target, BLUE)
        assert cert.found == (naive is not None)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive(self, seed):
        rng = Random(2000 + seed)
        n = rng.randint(5, 9)
        col = TwoColoring.random(3, n, rng.random(), seed=seed)
        targets = [single_edge(3), ell_path(3, 2, 4), ell_path(3, 1, 5),
                   complete_hypergraph(3, 4), ell_cycle(3, 1, 6)]
        for target in targets:
            if target.n > min(n, 6):
                continue
            for colour in (RED, BLUE):
                cert = find_mono_copy(col, target, colour)
                naive = naive_find_copy(col, target, colour)
                assert cert.found == (naive is not None)
                if cert.found:
                    assert validate_embedding(col, target, cert.witness, colour)

    def test_forbidden_vertices(self):
        col = TwoColoring.all_blue(3, 8)
        cert = find_mono_copy(col, complete_hypergraph(3, 4), BLUE,
                              forbidden=frozenset({0, 1, 2}))
        assert cert.found and not set(cert.witness) & {0, 1, 2}

    @pytest.mark.parametrize("forbidden", [frozenset({90, 91, 92, 93, 94}), frozenset({-1}), frozenset({3, 8})])
    def test_forbidden_outside_the_host_rejected(self, forbidden):
        # five far-off vertices once left 3 usable and read as an exact absence
        with pytest.raises(ValueError, match="forbidden vertices"):
            find_mono_copy(TwoColoring.all_blue(3, 8), complete_hypergraph(3, 4), BLUE, forbidden=forbidden)

    def test_copy_outcomes_pinned(self, monkeypatch):
        # witness, counters and detail of seeded searches (k = 2, 3 and 4,
        # n <= 9, both colours), of one run under a node budget, one with
        # forbidden vertices and the table's blue H(C3,3) search; any change
        # to the order in which the kernel tries host vertices, or to what it
        # counts, shows here
        specs = {2: ("edge:2", "path:2:1:4", "cycle:2:1:4", "clique:2:4"),
                 3: ("edge:3", "path:3:2:5", "path:3:1:5", "cycle:3:1:6", "clique:3:4", "fano", "tth:2:2"),
                 4: ("edge:4", "path:4:2:6", "path:4:3:5", "clique:4:5")}

        def runs():
            for k in (2, 3, 4):
                targets = [pattern_hypergraph(spec) for spec in specs[k]]
                for n in range(k, 10):
                    for tenths in (1, 3, 5, 7, 9):
                        col = TwoColoring.random(k, n, tenths / 10, seed=3000 * k + 10 * n + tenths)
                        yield from ((col, target, colour, {}) for target in targets for colour in (RED, BLUE))
            monkeypatch.setattr("hyperramsey.search.DEFAULT_NODE_BUDGET", 100)  # for this one search
            yield TwoColoring.random(3, 9, 0.3, seed=0), fano(), RED, {}
            monkeypatch.undo()
            yield TwoColoring.random(3, 8, 0.7, seed=8), complete_hypergraph(3, 4), RED, \
                {"forbidden": frozenset({0, 3})}
            cyclic, _ = tournament_hypergraph(Tournament.cyclic_triangle(), 3)
            yield non_transitive_lb(3, 6).coloring, cyclic, BLUE, {}

        digest = hashlib.sha256()
        for col, target, colour, options in runs():
            cert = find_mono_copy(col, target, colour, **options)
            digest.update(repr((cert.witness, cert.stats, cert.detail)).encode() + b"\n")
        assert cert.stats == {"nodes": 13, "prunes": 59} and not cert.found
        assert digest.hexdigest() == "449f862e734e43461c3d69e05e0f850050edd6ac8c413026b345d66ad9cf1eae"

    def test_clique_finder(self):
        col = all_red(3, 6)
        assert find_mono_clique(col, 4, RED) == (0, 1, 2, 3)
        assert find_mono_clique(col, 4, BLUE) is None
        assert find_mono_clique(col, 3, RED, pool=[2, 4, 5]) == (2, 4, 5)


# small patterns of each uniformity, for the copy searches on blow-ups
BLOW_UP_TARGETS = {2: ("edge:2", "path:2:1:4", "cycle:2:1:4", "clique:2:3"),
                   3: ("edge:3", "path:3:2:5", "path:3:1:5", "clique:3:4", "tth:2:2"),
                   4: ("edge:4", "path:4:2:6", "clique:4:5")}


def singleton_twins(monkeypatch):
    """Make every vertex its own twin class: the searches then treat every
    vertex as distinct."""
    monkeypatch.setattr(hyperramsey.search, "twin_classes", lambda col: [(v,) for v in range(col.n)])


class TestTwins:
    def test_non_transitive_classes_are_its_blocks(self):
        inst = non_transitive_lb(3, 6)
        assert twin_classes(inst.coloring) == [tuple(range(6)), tuple(range(6, 12))] == list(inst.partition)

    def test_a_random_colouring_has_singleton_classes(self):
        col = TwoColoring.random(3, 9, 0.5, seed=0)
        assert twin_classes(col) == naive_twin_classes(col) == [(v,) for v in range(9)]

    def test_searches_on_one_colouring_find_its_twins_once(self, monkeypatch):
        # the twin classes and degrees are kept on the colouring: a second
        # search reuses them, a target larger than the host builds none, and
        # the certificates are those a fresh colouring gives
        found = []
        find = hyperramsey.core._twin_classes
        monkeypatch.setattr(hyperramsey.core, "_twin_classes", lambda *args: found.append(args) or find(*args))
        cyclic, _ = tournament_hypergraph(Tournament.cyclic_triangle(), 3)
        searches = [(cyclic, BLUE), (pattern_hypergraph("clique:3:4"), RED), (pattern_hypergraph("tth:2:2"), BLUE)]
        col = non_transitive_lb(3, 6).coloring
        assert find_mono_copy(col, complete_hypergraph(3, 13), RED).detail["reason"] == "target larger than host"
        assert not found
        kept = [find_mono_copy(col, target, colour) for target, colour in searches]
        assert len(found) == 1
        assert kept == [find_mono_copy(non_transitive_lb(3, 6).coloring, target, colour)
                        for target, colour in searches]
        assert [cert.found for cert in kept] == [False, True, True]
        for colour in (RED, BLUE):
            degrees = [sum(v in e for e in col.edges_of(colour)) for v in range(col.n)]
            assert list(col.degrees(colour)) == degrees

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_blow_ups_match_the_oracles(self, data):
        # a blow-up of blocks: a k-set's colour depends only on how many of
        # its vertices lie in each block, so each block lies in one twin
        # class.  The blocks are spread over the vertices by a permutation.
        k = data.draw(st.integers(2, 4), "k")
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
            lambda sizes: k <= sum(sizes) <= 7), "block sizes")
        n = sum(sizes)
        owner = data.draw(st.permutations([b for b, size in enumerate(sizes) for _ in range(size)]), "owners")
        rule: dict[tuple[int, ...], bool] = {}
        red = []
        for e in combinations(range(n), k):
            counts = tuple(sum(1 for v in e if owner[v] == b) for b in range(len(sizes)))
            if counts not in rule:
                rule[counts] = data.draw(st.booleans(), f"red {counts}")
            if rule[counts]:
                red.append(e)
        col = TwoColoring.from_red_edges(k, n, red)
        classes = twin_classes(col)
        assert classes == naive_twin_classes(col)
        assert all(len({next(i for i, c in enumerate(classes) if v in c) for v in range(n) if owner[v] == b}) == 1
                   for b in range(len(sizes)))
        for colour in (RED, BLUE):
            for ell in range(1, k):
                vertices, cert = longest_mono_ell_path(col, ell, colour)
                assert (vertices, cert.witness) == naive_path_witness(col, ell, colour)
                assert cert.detail["exact"] is True
            forbidden = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=2), f"forbidden {colour}"))
            for spec in BLOW_UP_TARGETS[k]:
                target = pattern_hypergraph(spec)
                for avoid in (frozenset(), forbidden):
                    cert = find_mono_copy(col, target, colour, forbidden=avoid)
                    assert cert.found == (naive_find_copy(col, target, colour, avoid) is not None)
                    if cert.found:
                        assert validate_embedding(col, target, cert.witness, colour)
                        assert not set(cert.witness) & avoid

    def test_singleton_classes_give_back_the_old_counts(self, monkeypatch):
        # with every vertex its own class the searches take the counts they
        # took before twins, and find the same witnesses
        col = non_transitive_lb(3, 6).coloring
        cyclic, _ = tournament_hypergraph(Tournament.cyclic_triangle(), 3)
        path, copy = longest_mono_ell_path(col, 2, RED), find_mono_copy(col, cyclic, BLUE)
        singleton_twins(monkeypatch)
        old_path, old_copy = longest_mono_ell_path(col, 2, RED), find_mono_copy(col, cyclic, BLUE)
        assert old_path[1].stats == {"nodes": 30102, "prunes": 0}
        assert old_copy.stats == {"nodes": 19405, "prunes": 104280}
        assert (old_path[0], old_path[1].witness, old_path[1].detail) == (path[0], path[1].witness, path[1].detail)
        assert (old_copy.witness, old_copy.detail) == (copy.witness, copy.detail)
        assert (path[1].stats["nodes"], copy.stats["nodes"]) == (42, 13)

    @pytest.mark.parametrize("inst", [
        burr_coloring(3, 3, 2, 9), ell_path_lb(3, 2, 8, 2), non_transitive_lb(3, 5),
        loose_path_lb(3, 2, 11, 3, tau_lower_construction(2, 3)),
        loose_cycle_lb(3, 2, 6, 2, "pencil", q=2)], ids=["burr", "ell_path", "non_transitive", "loose_path",
                                                         "loose_cycle"])
    def test_lower_bound_colourings_keep_their_witnesses(self, inst, monkeypatch):
        # on the table's kind of colouring, twins change no vertex count,
        # witness or detail, and no count rises
        col = inst.coloring
        targets = [pattern_hypergraph(spec) for spec in ("path:3:2:5", "path:3:1:5", "clique:3:4", "tth:2:2")]
        targets.append(tournament_hypergraph(Tournament.cyclic_triangle(), 2)[0])

        def outcomes():
            for colour in (RED, BLUE):
                for ell in (1, 2):
                    vertices, cert = longest_mono_ell_path(col, ell, colour)
                    yield (vertices, cert.witness, cert.detail), cert.stats
                for target in targets:
                    cert = find_mono_copy(col, target, colour, forbidden=frozenset({0}))
                    yield (cert.witness, cert.detail), cert.stats

        new = list(outcomes())
        singleton_twins(monkeypatch)
        old = list(outcomes())
        assert [result for result, _ in new] == [result for result, _ in old]
        assert all(a[key] <= b[key] for (_, a), (_, b) in zip(new, old) for key in ("nodes", "prunes"))


class TestLinkIndex:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_naive_link(self, k):
        for n in range(k - 1, 9):
            for tenths in (0, 3, 6, 10):
                col = TwoColoring.random(k, n, tenths / 10, seed=100 * k + 10 * n + tenths)
                for colour in (RED, BLUE):
                    link = col.link(colour)
                    assert {face: link[face] for face in naive_link(col, colour)} == naive_link(col, colour), \
                        (n, tenths, colour)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_shuffled_reads_agree(self, k):
        # a face's mask does not depend on which faces were filled before it
        rng = Random(k)
        for n in (k + 1, 8):
            col = TwoColoring.random(k, n, 0.5, seed=k * n)
            for colour in (BLUE, RED):
                want = naive_link(col, colour)
                faces = list(want)
                rng.shuffle(faces)
                link = col.link(colour)
                assert [link[face] for face in faces] == [want[face] for face in faces], (n, colour)

    def test_filled_link_keeps_the_colouring_a_value(self):
        filled, fresh = (TwoColoring.random(3, 8, 0.4, seed=5) for _ in range(2))
        assert find_mono_clique(filled, 4, BLUE) == naive_find_clique(fresh, 4, BLUE)
        assert filled.link(RED) and filled.link(BLUE)
        assert filled == fresh and hash(filled) == hash(fresh)
        assert coloring_to_json(filled) == coloring_to_json(fresh)
        assert coloring_from_json(coloring_to_json(filled)) == fresh


class TestFindMonoClique:
    def test_lexicographically_first_not_colex_least(self):
        # (1, 2, 3) has colex rank 3 and (0, 1, 4) rank 4; the search returns
        # the lexicographically first one
        col = TwoColoring.from_red_edges(3, 5, [(0, 1, 4), (1, 2, 3)])
        assert find_mono_clique(col, 3, RED) == (0, 1, 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_oracle(self, seed):
        rng = Random(seed)
        for k, n in ((2, 10), (3, 9), (4, 8), (5, 8)):
            col = TwoColoring.random(k, n, rng.choice((0.15, 0.5, 0.85)), seed=rng.getrandbits(32))
            subset = rng.sample(range(n), n - 2)
            unsorted = list(range(n))
            rng.shuffle(unsorted)
            for colour in (RED, BLUE):
                for size in (k - 1, k, k + 1, k + 2):
                    for pool in (None, unsorted, [], subset):
                        assert find_mono_clique(col, size, colour, pool) == \
                            naive_find_clique(col, size, colour, pool), (k, n, colour, size, pool)

    @pytest.mark.parametrize("pool", [[0, 0, 1, 2], [0, 1, 6], [-1, 0, 1], [99, 100]])
    def test_pool_outside_the_host_rejected(self, pool):
        # checked before the shortcut for sizes below k, too
        for size in (2, 3):
            with pytest.raises(ValueError, match="distinct vertices"):
                find_mono_clique(all_red(3, 6), size, RED, pool)


class TestColourNames:
    @pytest.mark.parametrize("colour", ["Red", "RED", "green"])
    def test_unknown_colour_rejected(self, colour):
        # each search checks the colour once at entry, before any shortcut
        col = all_red(3, 5)
        searches = [
            lambda: longest_mono_ell_path(col, 2, colour),
            lambda: find_mono_clique(col, 4, colour),
            lambda: find_mono_clique(col, 2, colour),
            lambda: find_mono_copy(col, single_edge(3), colour),
            lambda: find_mono_copy(col, complete_hypergraph(3, 6), colour),
        ]
        for search in searches:
            with pytest.raises(ValueError, match="colour must be"):
                search()


class TestVerifyFree:
    def test_burr_instance_free(self):
        from hyperramsey.constructions import burr_coloring
        inst = burr_coloring(3, 2, 2, 4)
        cert = verify_free(inst.coloring, "path:3:2:4", complete_hypergraph(3, 4))
        assert cert.kind == "free"

    def test_all_red_not_free(self):
        # the certificate of the red copy, not a wrapper around it
        col = all_red(3, 5)
        cert = verify_free(col, "path:3:2:4", single_edge(3))
        assert cert.kind == "red_path" and validate_mono_path(col, cert.witness, 2, RED)

    def test_cut_path_states_no_count_of_the_longer_path(self):
        # the longest red path has 5 vertices and the witness is cut to the
        # pattern's 4; the detail names the shape, not the uncut path's size
        col = all_red(3, 5)
        cert = verify_free(col, "path:3:2:4", single_edge(3))
        assert (cert.kind, len(cert.witness)) == ("red_path", 4) and validate_mono_path(col, cert.witness, 2, RED)
        assert cert.detail == {"ell": 2, "k": 3, "exact": True}

    def test_all_blue_not_free(self):
        col = TwoColoring.all_blue(3, 5)
        cert = verify_free(col, "path:3:2:4", single_edge(3))
        assert cert.kind == "blue_embedding" and validate_embedding(col, single_edge(3), cert.witness, BLUE)

    def test_cycle_pattern(self):
        col = TwoColoring.all_blue(3, 6)
        cert = search_pattern(col, "cycle:3:1:6", BLUE)
        assert cert.found and cert.kind == "blue_cycle"

    @pytest.mark.parametrize("search", [lambda col, spec: search_pattern(col, spec, RED),
                                        lambda col, spec: verify_free(col, spec, single_edge(3))],
                             ids=["search_pattern", "verify_free"])
    def test_impossible_path_order_rejected(self, search):
        # no 3-uniform loose path has 6 vertices; a 7-vertex one must not stand in
        with pytest.raises(ValueError, match="no such path"):
            search(all_red(3, 7), "path:3:1:6")


class TestIndependence:
    def test_k4(self):
        assert independence_number(complete_hypergraph(3, 4))[0] == 2

    def test_tau_lower_construction(self):
        hg = tau_lower_construction(3, 4)
        alpha, cert = independence_number(hg)
        assert alpha == 3
        assert len(cert.witness) == 3

    def test_edgeless(self):
        assert independence_number(Hypergraph(3, 6, ()))[0] == 6

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive(self, seed):
        rng = Random(3000 + seed)
        n = rng.randint(4, 8)
        edges = [e for e in TwoColoring.random(3, n, 0.4, seed=seed).edges_of(RED)]
        hg = Hypergraph(3, n, tuple(edges))
        got, cert = independence_number(hg)
        assert got == naive_independence(hg)
        assert validate_independent_set(hg, cert.witness)

    def test_independence_outcomes_pinned(self):
        # alpha, witness and detail on seeded hypergraphs, recorded before the
        # search moved onto find_mono_clique; stats are left out on purpose
        digest = hashlib.sha256()
        for k in (2, 3, 4):
            for n in range(12):
                for tenths in range(1, 11):
                    col = TwoColoring.random(k, n, tenths / 10, seed=5000 * k + 10 * n + tenths)
                    alpha, cert = independence_number(Hypergraph(k, n, tuple(col.edges_of(RED))))
                    digest.update(repr((alpha, list(cert.witness), cert.detail)).encode() + b"\n")
        assert digest.hexdigest() == "a976e132891883674706f669884733d53e3b607ee5c5d0eaa20c73470c3e72c5"


class TestTwoEdgeLoosePath:
    def test_positive(self):
        found, wit = has_two_edge_loose_path(Hypergraph(3, 5, ((0, 1, 2), (2, 3, 4))))
        assert found and len(set(wit[0]) & set(wit[1])) == 1

    def test_clique_2k_minus_2(self):
        # any two triples of a 4-set share at least two vertices
        assert not has_two_edge_loose_path(complete_hypergraph(3, 4))[0]

    def test_disjoint_edges(self):
        assert not has_two_edge_loose_path(Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5))))[0]


class TestTransitiveSubtournament:
    def test_any_two_vertices(self):
        cert = find_transitive_subtournament(Tournament.cyclic_triangle(), 2)
        assert cert.found

    def test_cyclic_triangle_has_no_tt3(self):
        cert = find_transitive_subtournament(Tournament.cyclic_triangle(), 3)
        assert not cert.found

    def test_every_4_tournament_has_tt3(self):
        from math import comb
        for bits in range(1 << comb(4, 2)):
            t = Tournament(4, bits)
            cert = find_transitive_subtournament(t, 3)
            assert cert.found
            assert validate_tt_embedding(t, cert.witness)

    def test_tt_embedding_outside_the_tournament_is_invalid(self):
        t = Tournament.transitive(3)
        assert validate_tt_embedding(t, [0, 2])
        assert not validate_tt_embedding(t, [5, 0])
        assert not validate_tt_embedding(t, [0, -1])


def _engine_red(target_kind):
    # a loose path has an odd order and a loose cycle an even one
    tth22 = transitive_tournament_hypergraph(2, 2)[0]
    params = EngineParams(n_target=9 if target_kind == "path" else 10, block_size=6, target_kind=target_kind)
    return loose_witness_engine(all_red(3, 12), tth22, params).certificate


_LOOSE_CHAIN = CliqueChain("open", 3, 1, tuple(range(9)), ((0, 5), (4, 5)))
DETAIL_KEYS = {
    "longest-path": (lambda: longest_mono_ell_path(all_red(3, 5), 2, RED)[1], {"ell", "k", "exact"}),
    "pattern-path": (lambda: search_pattern(all_red(3, 5), "path:3:2:4", RED), {"ell", "k", "exact"}),
    "pattern-path-absent": (lambda: search_pattern(TwoColoring.all_blue(3, 5), "path:3:2:4", RED),
                            {"ell", "k", "exact"}),
    "pattern-cycle": (lambda: search_pattern(all_red(3, 6), "cycle:3:1:6", RED), {"ell", "k", "exact"}),
    "independence": (lambda: independence_number(complete_hypergraph(3, 5))[1], {"exact"}),
    "chain": (lambda: validate_chain(_LOOSE_CHAIN, all_red(3, 9)), {"problems"}),
    "chain-invalid": (lambda: validate_chain(_LOOSE_CHAIN, TwoColoring.all_blue(3, 9)), {"problems"}),
    "engine-red-path": (lambda: _engine_red("path"), {"ell", "k"}),
    "engine-red-cycle": (lambda: _engine_red("cycle"), {"ell", "k"}),
}


class TestCertificates:
    def test_round_trip(self):
        cert = Certificate("red_path", [0, 1, 2], {"nodes": 5}, {"ell": 1})
        again = Certificate.from_json(cert.to_json())
        assert again.kind == cert.kind and again.witness == cert.witness

    @pytest.mark.parametrize("produce, keys", DETAIL_KEYS.values(), ids=DETAIL_KEYS.keys())
    def test_detail_holds_no_copy_of_the_witness_or_kind(self, produce, keys):
        # each fact once: no count of the witness, no pattern string, no
        # target beside a cycle's own shape, no validity beside the kind
        assert set(produce().detail) == keys


class TestGuards:
    def test_independence_guard(self, monkeypatch):
        from hyperramsey.core import GuardExceeded
        hg = complete_hypergraph(3, 8)
        monkeypatch.setattr("hyperramsey.search.INDEPENDENCE_GUARD", 5)
        with pytest.raises(GuardExceeded):
            independence_number(hg)
        monkeypatch.undo()
        assert independence_number(hg)[0] == 2


@pytest.mark.parametrize("search,budget", [
    pytest.param(lambda: free_coloring_exists("path:3:2:6", "clique:3:4", 9), 500, id="free_coloring_exists"),
    pytest.param(lambda: _ttfree_tournament_exists(4, 8), 40, id="ttfree_tournament_exists"),
    pytest.param(lambda: longest_mono_ell_path(TwoColoring.random(3, 10, 0.5, seed=1), 2, RED)[1], 10,
                 id="longest_mono_ell_path"),
    pytest.param(lambda: find_mono_copy(TwoColoring.random(3, 10, 0.5, seed=1), complete_hypergraph(3, 6), RED), 10,
                 id="find_mono_copy"),
])
def test_every_budgeted_search_stops_at_budget_plus_one(monkeypatch, search, budget):
    # one stop rule: the exact DFSs raise on node budget + 1, and the
    # longest-path and copy searches stop there too and report it inexact
    monkeypatch.setattr("hyperramsey.search.DEFAULT_NODE_BUDGET", budget)
    try:
        cert = search()
    except GuardExceeded as stop:
        stats = stop.stats
    else:
        assert cert.detail["exact"] is False
        stats = cert.stats
    assert stats["nodes"] == budget + 1


class TestHigherUniformity:
    @pytest.mark.parametrize("seed", range(6))
    def test_k4_paths_match_naive(self, seed):
        rng = Random(600 + seed)
        n = rng.randint(5, 7)
        col = TwoColoring.random(4, n, rng.random(), seed=seed)
        for ell in (1, 2, 3):
            for colour in (RED, BLUE):
                got, cert = longest_mono_ell_path(col, ell, colour)
                assert got == naive_longest_mono_path(col, ell, colour)
                if cert.witness:
                    assert validate_mono_path(col, cert.witness, ell, colour)

    def test_k4_embedding(self):
        col = TwoColoring.all_blue(4, 7)
        cert = find_mono_copy(col, ell_path(4, 1, 7), BLUE)
        assert cert.found

    @pytest.mark.parametrize("seed", range(6))
    def test_embedding_relabelling_invariance(self, seed):
        rng = Random(700 + seed)
        n = 8
        col = TwoColoring.random(3, n, rng.random(), seed=seed)
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = col.relabel(perm)
        for pat in (ell_path(3, 1, 5), complete_hypergraph(3, 4)):
            a = find_mono_copy(col, pat, RED).found
            b = find_mono_copy(relabelled, pat, RED).found
            assert a == b
