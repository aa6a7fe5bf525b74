import hashlib
from random import Random

import pytest

from hyperramsey.core import (
    BLUE,
    RED,
    TwoColoring,
    colex_subsets,
    complete_hypergraph,
)
from hyperramsey.chains import (
    CLOSED,
    OPEN,
    CliqueChain,
    assemble_chains,
    build_path_system,
    chain_from_runs,
    clique_partition,
    cut_open,
    double_tree_walk,
    find_connector,
    replace_element,
    validate_chain,
)
from hyperramsey.search import (
    validate_mono_cycle,
    validate_mono_path,
)

from oracles import all_red, has_colour, naive_find_connector


def chain_from_sequence(kind: str, k: int, ell: int, seq: list[int]) -> CliqueChain:
    """The chain whose elements are exactly the edge windows of an ell-path or
    ell-cycle vertex sequence."""
    run = list(seq) + list(seq[:ell]) if kind == CLOSED else list(seq)
    return chain_from_runs(kind, k, ell, [(run, False)])


def random_valid_chain(rng: Random, k: int = 3) -> tuple[CliqueChain, TwoColoring]:
    """A structurally valid chain with random element sizes, hosted in a
    colouring that makes exactly the needed k-sets red."""
    ell = rng.choice([1, 2])
    kind = rng.choice([OPEN, CLOSED])
    d = rng.randint(2, 4) if kind == CLOSED else rng.randint(1, 4)
    lengths = []
    for _ in range(d):
        base = rng.randint(0, 2)
        lengths.append(k + base * (k - ell))
    if kind == OPEN:
        p = sum(lengths) - (d - 1) * ell
    else:
        p = sum(lengths) - d * ell
        # too-small cycles wrap onto themselves, and no interval may be
        # longer than the whole cycle
        while p <= k or max(lengths) > p:
            shortest = min(range(d), key=lambda i: lengths[i])
            lengths[shortest] += k - ell
            p = sum(lengths) - d * ell
    n = p + rng.randint(0, 3)
    vertices = list(range(n))
    rng.shuffle(vertices)
    vertices = vertices[:p]
    starts = [0]
    for length in lengths[:-1]:
        starts.append(starts[-1] + length - ell)
    chain = CliqueChain(kind, k, ell, tuple(vertices), tuple(zip(starts, lengths)))
    red = set()
    from itertools import combinations
    for j in range(d):
        for sub in combinations(sorted(chain.element_vertices(j)), k):
            red.add(sub)
    col = TwoColoring.from_red_edges(k, n, red)
    return chain, col


class TestValidateChain:
    def test_bare_path_is_valid_all_rigid(self):
        col = all_red(3, 8)
        chain = chain_from_sequence(OPEN, 3, 2, list(range(8)))
        cert = validate_chain(chain, col)
        assert cert.kind == "chain"
        assert chain.flexible_elements() == []

    def test_overlap_too_large_rejected(self):
        chain = CliqueChain(OPEN, 3, 1, tuple(range(8)), ((0, 5), (3, 5)))
        cert = validate_chain(chain)
        assert cert.kind == "chain_invalid"
        assert any("junction" in p for p in cert.detail["problems"])

    def test_flexible_threshold(self):
        # for ell=1, k=3 an element of size 5 exceeds max(k, 2*ell)
        col = all_red(3, 9)
        chain = CliqueChain(OPEN, 3, 1, tuple(range(9)), ((0, 5), (4, 5)))
        cert = validate_chain(chain, col)
        assert cert.kind == "chain"
        assert chain.flexible_elements() == [0, 1]
        assert chain.spine_vertices() == {4}

    def test_red_violation_reported(self):
        col = TwoColoring.all_blue(3, 5)
        chain = chain_from_sequence(OPEN, 3, 2, list(range(5)))
        cert = validate_chain(chain, col)
        assert cert.kind == "chain_invalid"

    def test_wrong_length_mod(self):
        chain = CliqueChain(OPEN, 3, 1, tuple(range(4)), ((0, 4),))
        cert = validate_chain(chain)
        assert cert.kind == "chain_invalid"


class TestSpanningPath:
    # the vertex order of a valid chain is its spanning path or cycle
    def test_single_clique_element(self):
        col = all_red(3, 9)
        chain = CliqueChain(OPEN, 3, 1, tuple(range(9)), ((0, 9),))
        assert validate_mono_path(col, list(chain.vertices), 1, RED)

    def test_two_elements(self):
        col = all_red(3, 9)
        chain = CliqueChain(OPEN, 3, 1, tuple(range(9)), ((0, 5), (4, 5)))
        assert validate_mono_path(col, list(chain.vertices), 1, RED)

    def test_closed_two_tight_elements(self):
        col = all_red(3, 4)
        chain = CliqueChain(CLOSED, 3, 2, (0, 1, 2, 3), ((0, 4), (2, 4)))
        assert validate_mono_cycle(col, list(chain.vertices), 2, RED)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_chains_span(self, seed):
        rng = Random(seed)
        chain, col = random_valid_chain(rng)
        cert = validate_chain(chain, col)
        assert cert.kind == "chain", cert.detail["problems"]
        validate = validate_mono_path if chain.kind == OPEN else validate_mono_cycle
        assert validate(col, list(chain.vertices), chain.ell, RED)
        # each prefix of an order an ell-path has (k, k + (k-ell), ...) ends
        # before a closed chain's wrap, so it is a red ell-path
        for n in range(chain.k, chain.p + 1, chain.k - chain.ell):
            assert validate_mono_path(col, list(chain.vertices[:n]), chain.ell, RED)


class TestCutOpen:
    def test_cut_preserves_validity(self):
        col = all_red(3, 20)
        chain = CliqueChain(CLOSED, 3, 1, tuple(range(20)),
                            ((0, 9), (8, 5), (12, 9)))
        cert = validate_chain(chain, col)
        assert cert.kind == "chain"
        opened = cut_open(chain)
        assert opened.kind == OPEN
        assert validate_chain(opened, col).kind == "chain"
        assert opened.p >= chain.p - 2 * 3

    def test_fallback_drops_smallest(self):
        # no element large enough to split: the smallest one is dropped
        col = all_red(3, 12)
        chain = CliqueChain(CLOSED, 3, 1, tuple(range(10)),
                            ((0, 3), (2, 3), (4, 3), (6, 5)))
        assert validate_chain(chain, col).kind == "chain"
        opened = cut_open(chain)
        assert opened.kind == OPEN
        assert validate_chain(opened, col).kind == "chain"
        assert opened.p < chain.p  # the dropped element's interior is lost


class TestChainFromRuns:
    def test_whole_and_windowed_runs(self):
        chain = chain_from_runs(OPEN, 3, 1, [([0, 1, 2, 3, 4], True), ([4, 5, 6, 7, 8], False)])
        assert chain.vertices == tuple(range(9))
        assert chain.intervals == ((0, 5), (4, 3), (6, 3))

    def test_closed_drops_the_wrap(self):
        chain = chain_from_runs(CLOSED, 3, 2, [([0, 1, 2, 3], True), ([2, 3, 0, 1], True)])
        assert chain.vertices == (0, 1, 2, 3)
        assert chain.intervals == ((0, 4), (2, 4))
        assert validate_chain(chain, all_red(3, 4)).kind == "chain"

    def test_rejects_broken_boundary(self):
        with pytest.raises(ValueError):
            chain_from_runs(OPEN, 3, 1, [([0, 1, 2], True), ([3, 4, 5], True)])

    def test_rejects_closed_without_wrap(self):
        with pytest.raises(ValueError):
            chain_from_runs(CLOSED, 3, 1, [([0, 1, 2], True), ([2, 3, 4], True)])

    def test_replace_element_reroots_a_closed_chain(self):
        chain = CliqueChain(CLOSED, 3, 1, tuple(range(10)), ((0, 3), (2, 5), (6, 5)))
        out = replace_element(chain, 1, [([2, 3, 6], True)], "test")
        # rooted at element 2, then element 0 (rigid, so windowed), then the run
        assert out.vertices == (6, 7, 8, 9, 0, 1, 2, 3)
        assert out.intervals == ((0, 5), (4, 3), (6, 3))
        assert out.flags == ("test",)


# chains assembled from seeded colourings (k = 3, red blocks from
# clique_partition(col, block, 6), path system with alpha = 2), and their
# cut_open results, as laid out before chain_from_runs existed
PINNED_LAYOUTS = [
    # ell = 1, cut_open has no splittable element and drops element 0
    ((13, 0.95, 6, 668083020), 1,
     ((0, 3, 1, 5, 7, 9, 10, 11, 4, 2), ((0, 3), (2, 3), (4, 5), (8, 3))),
     ((1, 5, 7, 9, 10, 11, 4, 2, 0), ((0, 3), (2, 5), (6, 3)), "cut-open:dropped-element=0")),
    # ell = 2, cut_open splits element 0
    ((13, 0.95, 6, 668083020), 2,
     ((1, 0, 5, 8, 2, 3, 7, 10, 11, 12, 4, 9),
      ((0, 6), (4, 3), (5, 3), (6, 6), (10, 3), (11, 3))),
     ((8, 2, 3, 7, 10, 11, 12, 4, 9, 1, 0, 5),
      ((0, 3), (1, 3), (2, 3), (3, 6), (7, 3), (8, 3), (9, 3)),
      "cut-open:element=0,discarded=0")),
    # ell = 1, cut_open splits element 2 and discards one vertex
    ((15, 0.95, 7, 3575666330), 1,
     ((0, 5, 7, 9, 1, 3, 6, 8, 10, 12, 13, 14, 4, 2), ((0, 5), (4, 3), (6, 7), (12, 3))),
     ((13, 14, 4, 2, 0, 5, 7, 9, 1, 3, 6, 8, 10), ((0, 3), (2, 3), (4, 5), (8, 3), (10, 3)),
      "cut-open:element=2,discarded=1")),
]


@pytest.mark.parametrize("instance, ell, closed, opened", PINNED_LAYOUTS)
def test_assembly_and_cut_open_layouts_pinned(instance, ell, closed, opened):
    n, density, block, seed = instance
    col = TwoColoring.random(3, n, density, seed=seed)
    blocks = clique_partition(col, block, 6).red_blocks()
    system = build_path_system(col, blocks, ell=ell, alpha=2)
    report = assemble_chains(col, blocks, system)
    assert [(c.kind, c.vertices, c.intervals) for c in report.chains] == [(CLOSED, *closed)]
    cut = cut_open(report.chains[0])
    assert (cut.kind, cut.vertices, cut.intervals, cut.flags) == (OPEN, *opened[:2], (opened[2],))
    assert validate_chain(cut, col).kind == "chain"


class TestCliquePartition:
    def test_all_red_k9(self):
        cp = clique_partition(all_red(3, 9), 3, 3)
        assert [c for c, _ in cp.blocks] == [RED, RED, RED]
        assert cp.leftover == ()

    def test_all_blue_k7(self):
        cp = clique_partition(TwoColoring.all_blue(3, 7), 4, 7)
        assert cp.blocks == [(BLUE, tuple(range(7)))]
        assert cp.leftover == ()

    @pytest.mark.parametrize("seed", range(25))
    def test_leftover_verifiably_clean(self, seed):
        rng = Random(seed)
        n = rng.randint(6, 10)
        col = TwoColoring.random(3, n, rng.random(), seed=900 + seed)
        cp = clique_partition(col, 4, 4)
        seen = set()
        for colour, block in cp.blocks:
            assert not set(block) & seen
            seen.update(block)
            target = complete_hypergraph(3, len(block))
            from hyperramsey.search import validate_embedding
            assert validate_embedding(col, target, list(block), colour)
        assert not set(cp.leftover) & seen
        # the leftover holds no monochromatic clique of either target size
        leftover = list(cp.leftover)
        if len(leftover) >= 4:
            sub_idx = {v: i for i, v in enumerate(leftover)}
            from itertools import combinations
            for colour in (RED, BLUE):
                for four in combinations(leftover, 4):
                    assert not all(has_colour(col, t, colour) for t in combinations(four, 3))


def _chain_layer_lines():
    """`clique_partition` on seeded k = 3 and k = 4 colourings, then
    `build_path_system(ell=1)` on the red blocks of seeded dense k = 3 ones."""
    rng = Random(2024)
    for k, sizes in ((3, range(8, 17)), (4, range(7, 12))):
        for _ in range(40):
            n = rng.choice(sizes)
            col = TwoColoring.random(k, n, rng.random(), seed=rng.getrandbits(32))
            red_size, blue_size = rng.randint(k, k + 2), rng.randint(k, k + 2)
            cp = clique_partition(col, red_size, blue_size)
            yield ("partition", k, n, cp.blocks, cp.leftover)
    for _ in range(60):
        n = rng.randint(12, 22)
        col = TwoColoring.random(3, n, rng.choice((0.55, 0.7, 0.85, 0.95)), seed=rng.getrandbits(32))
        size = rng.randint(4, 6)
        blocks = clique_partition(col, size, size).red_blocks()
        system = build_path_system(col, blocks, ell=1, alpha=2)
        yield ("paths", n, blocks, system.forest_edges, sorted(system.paths.items()), system.stalled)


def test_chain_layer_outputs_pinned():
    # partition blocks and leftover, and the ell = 1 path system's forest
    # edges, connector paths and stall flag; the crossing matching is taken
    # in colex order, so a change to that order shows up here too
    digest = hashlib.sha256()
    for line in _chain_layer_lines():
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == "3d8428be037429447b10bebee4ffeee1e49694875190158edfcee6eb90034e57"


def test_tight_path_system_pinned():
    # `build_path_system(ell=2)` on the red blocks of seeded dense k = 3
    # colourings, at the component counts the tight engine asks for and one
    # more: forest edges, connector paths, stall flag, stall blocks and
    # diagnostic; the connector search order shows up here
    rng = Random(2025)
    digest = hashlib.sha256()
    for _ in range(60):
        n = rng.randint(12, 22)
        col = TwoColoring.random(3, n, rng.choice((0.55, 0.7, 0.85, 0.95)), seed=rng.getrandbits(32))
        size = rng.randint(4, 6)
        blocks = clique_partition(col, size, size).red_blocks()
        system = build_path_system(col, blocks, ell=2, alpha=rng.randint(2, 4))
        line = (n, blocks, system.forest_edges, sorted(system.paths.items()), system.stalled,
                system.stall_blocks, system.diagnostic)
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == "b111545f1360058d7bf5823d7d13044fae5ff539328b101a981ab7b0436b2a43"


class TestDoubleTreeWalk:
    def test_path(self):
        assert double_tree_walk([(0, 1), (1, 2)]) == [0, 1, 2, 1, 0]

    def test_star(self):
        assert double_tree_walk([(0, 1), (0, 2), (0, 3)]) == [0, 1, 0, 2, 0, 3, 0]

    def test_not_a_tree(self):
        with pytest.raises(ValueError):
            double_tree_walk([(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError):
            double_tree_walk([(0, 1), (2, 3)])

    @pytest.mark.parametrize("seed", range(30))
    def test_random_trees(self, seed):
        rng = Random(seed)
        n = rng.randint(2, 12)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        walk = double_tree_walk(edges)
        assert walk[0] == walk[-1]
        steps = list(zip(walk, walk[1:]))
        from collections import Counter
        counts = Counter(tuple(sorted(s)) for s in steps)
        assert set(counts) == {tuple(sorted(e)) for e in edges}
        assert all(c == 2 for c in counts.values())
        assert set(walk) == set(range(n))


class TestPathSystem:
    def test_two_red_blocks_single_edge(self):
        col = all_red(3, 14)
        blocks = [tuple(range(7)), tuple(range(7, 14))]
        system = build_path_system(col, blocks, ell=1, alpha=2)
        assert not system.stalled
        assert system.forest_edges == [(0, 1)]
        p1, p2 = system.paths[(0, 1)]
        assert not set(p1) & set(p2)
        assert p1[0] in blocks[0] and p1[-1] in blocks[1]

    def test_stall_on_blue_crossing(self):
        red = [e for e in colex_subsets(3, 8) if e[-1] < 4 or e[0] >= 4]
        col = TwoColoring.from_red_edges(3, 8, red)
        system = build_path_system(col, [(0, 1, 2, 3), (4, 5, 6, 7)], ell=1, alpha=2)
        assert system.stalled
        assert system.stall_blocks == (0, 1)

    def test_tight_connectors(self):
        col = all_red(3, 12)
        blocks = [tuple(range(6)), tuple(range(6, 12))]
        system = build_path_system(col, blocks, ell=2, alpha=2)
        assert not system.stalled
        for p1, p2 in system.paths.values():
            for p in (p1, p2):
                assert len(p) == 4
                assert validate_mono_path(col, p, 2, RED)

    def test_usage_stays_bounded(self):
        col = all_red(3, 21)
        blocks = [tuple(range(7 * i, 7 * (i + 1))) for i in range(3)]
        system = build_path_system(col, blocks, ell=1, alpha=2)
        used = system.used_vertices()
        for b in blocks:
            assert sum(1 for v in b if v in used) <= 0.5 * len(b) + 4 * 3  # slack for augmentation


class TestFindConnector:
    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_naive_connector(self, k):
        rng = Random(k)
        for ell in range(1, k):
            for q in range(1, 4):
                for _ in range(20):
                    n = rng.randint(k + 1, 8)
                    col = TwoColoring.random(k, n, rng.choice([0.6, 0.9]), seed=rng.randrange(10 ** 6))
                    pool = set(rng.sample(range(n), rng.randint(k, n)))
                    side_a = rng.sample(range(n), rng.randint(ell, n))
                    side_b = rng.sample(range(n), rng.randint(ell, n))
                    args = (col, k, ell, q, side_a, side_b, pool)
                    assert find_connector(*args) == naive_find_connector(*args), (ell, q, n)

    def test_overlapping_ends_lie_in_both_sides(self):
        # a single tight edge: its middle vertex is among the first two and
        # the last two, so it must lie in both sides
        col = all_red(3, 5)
        assert find_connector(col, 3, 2, 1, [0, 1, 2], [2, 3, 4], set(range(5))) == (0, 2, 3)
        assert find_connector(col, 3, 2, 1, [0, 1], [2, 3], set(range(5))) is None

    @pytest.mark.parametrize("k, pool, message", [(4, set(range(6)), "uniformity mismatch"),
                                                  (3, {0, 1, 2, 3, 9}, "pool must hold vertices")])
    def test_bad_input_rejected(self, k, pool, message):
        with pytest.raises(ValueError, match=message):
            find_connector(all_red(3, 6), k, 1, 1, [0, 1], [2, 3], pool)


class TestAssembleChains:
    def test_single_block_trivial(self):
        col = all_red(3, 7)
        system = build_path_system(col, [tuple(range(7))], ell=1, alpha=2)
        report = assemble_chains(col, [tuple(range(7))], system)
        assert len(report.chains) == 1
        chain = report.chains[0]
        assert chain.kind == OPEN and any("trivial" in f for f in chain.flags)

    def test_two_blocks_closed_chain(self):
        col = all_red(3, 14)
        blocks = [tuple(range(7)), tuple(range(7, 14))]
        system = build_path_system(col, blocks, ell=1, alpha=2)
        report = assemble_chains(col, blocks, system)
        assert len(report.chains) == 1
        chain = report.chains[0]
        assert chain.kind == CLOSED
        assert chain.p >= 7 + 7 - 4
        cert = validate_chain(chain, col)
        assert cert.kind == "chain"
        assert validate_mono_cycle(col, list(chain.vertices), 1, RED)

    @pytest.mark.parametrize("seed", range(10))
    def test_dense_red_end_to_end(self, seed):
        col = TwoColoring.random(3, 14, 0.97, seed=seed)
        cp = clique_partition(col, 5, 5)
        blocks = cp.red_blocks()
        if len(blocks) < 2:
            pytest.skip("partition found fewer than two red blocks")
        system = build_path_system(col, blocks, ell=1, alpha=2)
        if system.stalled:
            pytest.skip("no connectors at this seed")
        report = assemble_chains(col, blocks, system)
        for chain in report.chains:
            cert = validate_chain(chain, col)
            assert cert.kind == "chain", cert.detail["problems"]
            validate = validate_mono_cycle if chain.kind == CLOSED else validate_mono_path
            assert validate(col, list(chain.vertices), 1, RED)
        assert len(report.chains) <= len(blocks)


class TestAssemblyDisjointness:
    @pytest.mark.parametrize("seed", range(6))
    def test_chains_are_vertex_disjoint(self, seed):
        col = TwoColoring.random(3, 18, 0.93, seed=40 + seed)
        cp = clique_partition(col, 6, 6)
        blocks = cp.red_blocks()
        if len(blocks) < 2:
            pytest.skip("not enough red blocks")
        system = build_path_system(col, blocks, ell=1, alpha=2)
        if system.stalled:
            pytest.skip("stalled")
        try:
            report = assemble_chains(col, blocks, system)
        except ValueError:
            pytest.skip("assembly infeasible at this scale")
        seen = set()
        for chain in report.chains:
            assert not set(chain.vertices) & seen
            seen.update(chain.vertices)
        assert len(report.chains) <= len(system.components())
