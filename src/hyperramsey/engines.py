"""Witness engines: grow a red path/cycle or extract a blue target.

Each engine drives the clique-partition / path-system / chain-assembly
pipeline and then extends its chains.  The loose engine has two extension
moves: a two-edge path of the auxiliary (k-1)-graph on the leftover, spliced
into a flexible element, and endpoint extension by one red edge.  The tight
engine absorbs leftover vertices through the absorbing-block / blue-density
dichotomy: an element blue-dense toward every class of a blue structure in
the leftover hands the target to one exhaustive `find_mono_copy` search.
Both engines open the same way (`_front_half`): an edgeless target, a blue
block that embeds the target, or no red block ends the run before the path
system is built.  The quantitative thresholds that make these moves always
succeed at asymptotic scale are fixed desk-scale constants here; the engines
are judged on soundness: every emitted witness re-validates, and a stall
report saying which dichotomy failed is a legitimate outcome at desk scale.

Reachable targets: the loose engine returns a red loose path on
1 + q(k-1) >= k vertices or a red loose cycle on q(k-1) > k vertices, or a
blue copy of any target hypergraph of its uniformity.  The tight engine
(3-uniform) returns a red tight path on at least 3 vertices or a tight cycle
on at least 4, or a blue transitive tournament hypergraph H(TT_chi, m).  Both
refuse any other order at entry with a ValueError: `core.ell_path` and
`core.ell_cycle` decide which orders a shape has.  Every blue certificate names its target,
so `hyperramsey check` can rebuild and re-validate it.

Every move that changes a chain (segment splice, endpoint extension,
shrinking, absorption) rebuilds it with `chains.replace_element` and
validates the result itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .core import (
    BLUE,
    Hypergraph,
    RED,
    Tournament,
    TwoColoring,
    hypergraph_to_json,
    ramsey_profile,
    transitive_tournament_hypergraph,
)
from .chains import (
    CLOSED,
    OPEN,
    CliqueChain,
    clique_partition,
    cut_open,
    build_path_system,
    find_connector,
    assemble_chains,
    replace_element,
    validate_chain,
)
from .exact import directed_ramsey_exact, tau_exact
from .search import (
    Certificate,
    embed,
    find_mono_copy,
    find_transitive_subtournament,
    has_two_edge_loose_path,
    path_plan,
    pattern_hypergraph,
    validate_embedding,
    validate_mono_cycle,
    validate_mono_path,
)


# ---------------------------------------------------------------------------
# small dichotomies and auxiliary searches


def independence_dichotomy(col: TwoColoring, blocks: list[tuple[int, ...]]):
    """Scan all crossing k-sets of the given disjoint blocks: return
    ("red", edge) for the first red crossing edge in lexicographic order
    (`combinations` of the sorted union), else ("blue", attestation) that
    every crossing k-set is blue."""
    union = sorted(v for b in blocks for v in b)
    block_of = {}
    for i, b in enumerate(blocks):
        for v in b:
            block_of[v] = i
    scanned = 0
    for e in combinations(union, col.k):
        if len({block_of[v] for v in e}) < 2:
            continue
        scanned += 1
        if col.is_red(e):
            return "red", e
    return "blue", Certificate(kind="blue_crossing_attestation", witness=None,
                               stats={"nodes": scanned},
                               detail={"blocks": [list(b) for b in blocks], "exact": True})


def monochromatic_biclique(rows: list[int], p: int, q: int, t: int):
    """Exact search for a monochromatic t-by-t biclique in a 2-coloured
    complete bipartite host given as per-left-vertex bitmasks over the right
    side (bit set = colour 1).

    Branches over left-side subsets, filtering by the running right-side
    intersection.  Returns (colour_bit, left_tuple, right_tuple) or None.
    """
    if t <= 0:
        return 1, (), ()
    full = (1 << q) - 1
    for colour_bit, masks in ((1, rows), (0, [full ^ r for r in rows])):
        chosen: list[int] = []

        def rec(start: int, inter: int):
            if len(chosen) == t:
                right = [i for i in range(q) if inter >> i & 1][:t]
                return tuple(chosen), tuple(right)
            if p - start < t - len(chosen):
                return None
            for i in range(start, p):
                nxt = inter & masks[i]
                if nxt.bit_count() < t:
                    continue
                chosen.append(i)
                got = rec(i + 1, nxt)
                if got is not None:
                    return got
                chosen.pop()
            return None

        got = rec(0, full)
        if got is not None:
            return colour_bit, got[0], got[1]
    return None


def red_pair_masks(col: TwoColoring, a: list[int], b: list[int]) -> dict[tuple[int, int], int]:
    """The pair-colour table of a 3-colouring: for each pair x < y of `a`, the
    mask of the positions in `b` of the z with {x, y, z} red, read from the
    pair's face of the red link index (`TwoColoring.link`).  A z inside the
    pair is not a triple and never sets a bit."""
    if col.k != 3:
        raise ValueError("the pair-colour table is 3-uniform")
    if any(not 0 <= v < col.n for v in (*a, *b)):
        raise ValueError(f"vertices must lie in 0..{col.n - 1}")
    link, table = col.link(RED), {}
    for x, y in combinations(sorted(a), 2):
        red = link[1 << x | 1 << y]
        table[x, y] = sum(1 << idx for idx, z in enumerate(b) if red >> z & 1)
    return table


@dataclass
class ButterflyOutcome:
    branch: str  # "red" | "blue" | "diagnostic"
    red_path: tuple[int, ...] | None = None
    blue_embedding: Certificate | None = None
    diagnostic: str | None = None


def butterfly_dichotomy(col: TwoColoring, w_subsets: list[tuple[int, ...]],
                        chi: int, m: int) -> ButterflyOutcome:
    """Either a red tight 2-path connecting two of the W-sets, or a blue copy
    of the transitive tournament hypergraph extracted through the auxiliary
    pair digraph, iterated bipartite Ramsey shrinking, and a transitive
    subtournament; when the W-sets are too small for the shrinking, or the
    auxiliary tournament for chi, the outcome is an explicit diagnostic.

    The W-sets must be disjoint.  Once no red connector joins W_i and W_j,
    every monochromatic pair block orients its pair.  A colour-1 block has
    every {a, b, w} blue (a in W_i; b, w in W_j), which is the arc j -> i.  In
    a colour-0 block each a, b has a red {a, b, w}; a red {x, a, b} with x, a
    in W_i and b in W_j would then make x, a, b, w a red tight 2-path from
    W_i to W_j, a connector, so every such triple is blue: the arc i -> j.
    Shrinking keeps both facts, so a pair without the arc i -> j has j -> i.
    """
    if col.k != 3:
        raise ValueError("butterfly dichotomy is 3-uniform")
    if sum(map(len, w_subsets)) != len(set().union(*w_subsets)):
        raise ValueError("the W-sets must be disjoint")
    big_r = len(w_subsets)
    # a connector read backwards joins the same pair the other way round, so
    # each unordered pair is searched once
    for i, j in combinations(range(big_r), 2):
        got = find_connector(col, 3, 2, 2, w_subsets[i], w_subsets[j],
                             set(w_subsets[i]) | set(w_subsets[j]))
        if got is not None:
            return ButterflyOutcome("red", red_path=got)

    # no red tight 2-path: for each cross pair at least one side is all blue;
    # row a of the pair digraph (W_i, W_j) marks the b in W_j with every
    # triple {a, b, w}, w in W_j, blue
    shrunk = [list(w) for w in w_subsets]
    for i, j in combinations(range(big_r), 2):
        wi, wj = shrunk[i], shrunk[j]
        red_from = dict.fromkeys(wj, 0)  # b -> W_i positions a with some {a, b, w} red
        for (b, w), mask in red_pair_masks(col, wj, wi).items():
            red_from[b] |= mask
            red_from[w] |= mask
        rows = [sum(1 << idx for idx, b in enumerate(wj) if not red_from[b] >> pos & 1)
                for pos in range(len(wi))]
        got = monochromatic_biclique(rows, len(wi), len(wj), m)
        if got is None:
            return ButterflyOutcome(
                "diagnostic",
                diagnostic=f"no monochromatic {m}x{m} pair block between W{i} and W{j}: scale too small",
            )
        _, left, right = got
        shrunk[i] = [wi[x] for x in left]
        shrunk[j] = [wj[x] for x in right]

    # orientation: arc (i, j) means every triple with two vertices in the
    # shrunk W_i and one in the shrunk W_j is blue
    arcs = [(i, j) if not any(red_pair_masks(col, shrunk[i], shrunk[j]).values()) else (j, i)
            for i, j in combinations(range(big_r), 2)]
    aux = Tournament.from_arcs(big_r, arcs)
    tt = find_transitive_subtournament(aux, chi)
    if not tt.found:
        return ButterflyOutcome(
            "diagnostic",
            diagnostic=f"auxiliary tournament on {big_r} blocks has no transitive {chi}-set",
        )
    target, _ = transitive_tournament_hypergraph(chi, m)
    mapping = []
    for cls in tt.witness:
        mapping.extend(shrunk[cls][:m])
    cert = Certificate(kind="blue_embedding", witness=mapping,
                       detail={"target": hypergraph_to_json(target), "exact": True})
    if not validate_embedding(col, target, mapping, BLUE):
        raise AssertionError("butterfly blue branch produced an invalid embedding")
    return ButterflyOutcome("blue", blue_embedding=cert)


# ---------------------------------------------------------------------------
# the absorbing block


def blue_density(col: TwoColoring, a: list[int], b: list[int]) -> float:
    """Exact blue density of the triples with two vertices in `a` and one in
    `b`, which must be disjoint from it (1.0 when there are none)."""
    if set(a) & set(b):
        raise ValueError("the two vertex sets must be disjoint")
    total = len(a) * (len(a) - 1) // 2 * len(b)
    red = sum(mask.bit_count() for mask in red_pair_masks(col, a, b).values())
    return (total - red) / total if total else 1.0


@dataclass
class AbsorbingOutcome:
    success: bool
    path: tuple[int, ...] | None = None
    diagnostic: str | None = None
    aux_edges: int = 0
    aux_threshold: int = 0
    chosen_b: tuple[int, ...] = ()


def erdos_gallai_path(adj: dict[int, set[int]], length: int) -> list[int] | None:
    """A simple path with `length` >= 1 edges in a graph given by symmetric
    adjacency sets, or None: the lexicographically first one, by one `embed`
    call that reads the adjacency masks as the graph's 2-uniform link
    index."""
    link = {1 << u: sum(1 << w for w in adj[u]) for u in adj}
    image = [-1] * (length + 1)
    if embed(path_plan(2, 1, length + 1), link, [sum(1 << v for v in adj)] * (length + 1),
             image, 0, 0, {"nodes": 0, "prunes": 0}):
        return image
    return None


def absorbing_block(col: TwoColoring, block_a: list[int], block_b: list[int],
                    d: int, eta: float) -> AbsorbingOutcome:
    """A red tight path a1 a2 b1 a3 a4 ... b_d a_{2d+1} a_{2d+2} interleaving
    2d+2 vertices of block_a with d vertices of block_b.

    Chooses the d-subset of block_b supported by the most red pairs of
    block_a, builds the auxiliary graph joining pairs red toward all chosen
    b's, and extracts a path of length 2d+1 (guaranteed whenever the auxiliary
    graph has more than d*|A| edges).
    """
    if set(block_a) & set(block_b):
        raise ValueError("blocks must be disjoint")
    dens = 1.0 - blue_density(col, block_a, block_b)
    if dens < eta:
        return AbsorbingOutcome(False, diagnostic=f"red density {dens:.3f} below eta={eta}")
    if len(block_b) < d:
        return AbsorbingOutcome(False, diagnostic="block B smaller than d")

    pair_masks = red_pair_masks(col, block_a, block_b)
    # the first d-subset of B's positions, as a mask, red toward the most pairs
    sm = max((sum(1 << idx for idx in subset) for subset in combinations(range(len(block_b)), d)),
             key=lambda sm: sum(1 for mask in pair_masks.values() if mask & sm == sm))
    chosen = tuple(bb for idx, bb in enumerate(block_b) if sm >> idx & 1)

    adj: dict[int, set[int]] = {v: set() for v in block_a}
    aux_edges = 0
    for (a1, a2), mask in pair_masks.items():
        if mask & sm == sm:
            adj[a1].add(a2)
            adj[a2].add(a1)
            aux_edges += 1
    threshold = d * len(block_a)
    path = erdos_gallai_path(adj, 2 * d + 1)
    if path is None:
        return AbsorbingOutcome(False, aux_edges=aux_edges, aux_threshold=threshold,
                                chosen_b=chosen,
                                diagnostic=f"auxiliary graph with {aux_edges} edges has no path of length {2 * d + 1}")
    tight: list[int] = []
    for i in range(0, 2 * d, 2):
        tight.extend((path[i], path[i + 1]))
        tight.append(chosen[i // 2])
    tight.extend((path[2 * d], path[2 * d + 1]))
    if not validate_mono_path(col, tight, 2, RED):
        raise AssertionError("absorbing block produced an invalid tight path")
    return AbsorbingOutcome(True, path=tuple(tight), aux_edges=aux_edges,
                            aux_threshold=threshold, chosen_b=chosen)


# ---------------------------------------------------------------------------
# engine plumbing


# The proofs' thresholds, fixed at desk scale.  The tight engine's density
# threshold gamma is (chi^2 m^3)^-1 in the proof, at most 1/32 for every target
# with edges; the proof samples classes of at least 1/gamma vertices, far more
# than desk-sized classes hold, so gamma is floored at GAMMA, and an element
# blue-dense toward every class gets an exhaustive search instead of a sample.
# An element lies inside one red block, and absorption needs its interior
# (all but two vertices at each end) to keep 2D+2 = 4 vertices: nothing is
# absorbed unless block_size is at least 8.
D = 1             # absorbing-block arity
Q = 4             # class size of the recursively found blue structure
GAMMA = 0.25      # density threshold
MAX_ROUNDS = 64   # extension rounds (loose) and absorption rounds (tight)


@dataclass
class EngineParams:
    n_target: int                 # red path/cycle order to reach
    block_size: int = 6           # red clique order extracted by the partition
    target_kind: str = "path"     # "path" | "cycle"


@dataclass
class EngineReport:
    outcome: str                  # "red_witness" | "blue_witness" | "stall"
    certificate: Certificate | None
    stall: dict | None
    log: list[str] = field(default_factory=list)


def _refuse_order(k: int, ell: int, shape: str, params: EngineParams) -> None:
    """ValueError, naming the shape, unless a k-uniform ell-path or ell-cycle
    (as `params.target_kind` says) has `params.n_target` vertices; the
    pattern's hypergraph decides, as it does for every witness check."""
    try:
        pattern_hypergraph(f"{params.target_kind}:{k}:{ell}:{params.n_target}")
    except ValueError as exc:
        raise ValueError(f"no {k}-uniform {shape} {params.target_kind} has "
                         f"{params.n_target} vertices: {exc}") from None


def _red_path_certificate(col: TwoColoring, seq: list[int], ell: int, params: EngineParams) -> Certificate:
    shape, validate = ("cycle", validate_mono_cycle) if params.target_kind == "cycle" \
        else ("path", validate_mono_path)
    if not validate(col, seq, ell, RED):
        raise AssertionError(f"engine produced an invalid red {shape}")
    return Certificate(kind=f"red_{shape}", witness=list(seq),
                       detail={"ell": ell, "k": col.k})


def _blue_certificate(col: TwoColoring, target: Hypergraph, mapping: list[int],
                      via: str) -> Certificate | None:
    """A blue embedding certificate naming its target as hypergraph JSON, or
    None when the mapping misses a blue edge."""
    if not validate_embedding(col, target, mapping, BLUE):
        return None
    return Certificate(kind="blue_embedding", witness=mapping,
                       detail={"via": via, "target": hypergraph_to_json(target), "exact": True})


def _front_half(col: TwoColoring, target: Hypergraph, params: EngineParams,
                log: list[str]) -> EngineReport | list[tuple[int, ...]]:
    """The opening both engines share: partition the host into red cliques
    of order block_size and blue cliques of order max(target order, k).
    Returns the run's report when the target is edgeless, a blue block
    embeds it (the first one does, if there is one), or no red block was
    found; otherwise the red blocks to connect."""
    if target.num_edges == 0:
        if target.n <= col.n:
            cert = _blue_certificate(col, target, list(range(target.n)), "edgeless target")
            return EngineReport("blue_witness", cert, None, ["target has no edges"])
        return EngineReport("stall", None, {"reason": "edgeless target larger than host"}, log)
    partition = clique_partition(col, params.block_size, max(target.n, col.k))
    red_blocks, blue_blocks = partition.red_blocks(), partition.blue_blocks()
    log.append(f"partition: {len(red_blocks)} red blocks, {len(blue_blocks)} blue blocks, "
               f"leftover {len(partition.leftover)}")
    if blue_blocks:
        cert = _blue_certificate(col, target, list(blue_blocks[0][: target.n]), "blue block")
        if cert is None:
            raise AssertionError("blue block does not embed the target")
        return EngineReport("blue_witness", cert, None, log)
    if not red_blocks:
        return EngineReport("stall", None,
                            {"reason": f"no red clique of order {params.block_size} found"}, log)
    return red_blocks


def _place_classes(col: TwoColoring, target: Hypergraph, profile, sets: list[list[int]],
                   via: str, leftover: list[int] | None = None) -> Certificate | None:
    """Embed the target blue class by class: the colour classes of the proper
    colouring `profile.witness` go, largest first, into the vertex sets,
    largest first.  With a leftover, the smallest class goes there first.
    None when a class does not fit or the mapping misses a blue edge."""
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(profile.witness):
        classes.setdefault(c, []).append(v)
    order = sorted(classes, key=lambda c: len(classes[c]), reverse=True)
    placement = []
    if leftover is not None:
        small = min(classes, key=lambda c: len(classes[c]))
        order.remove(small)
        placement.append((small, leftover))
    if len(order) > len(sets):
        return None
    placement += zip(order, sorted(sets, key=len, reverse=True))
    mapping = [-1] * target.n
    for c, hosts in placement:
        if len(classes[c]) > len(hosts):
            return None
        for v, hv in zip(classes[c], hosts):
            mapping[v] = hv
    return _blue_certificate(col, target, mapping, via)


# ---------------------------------------------------------------------------
# the loose-path/cycle engine


def _flexible_interior(chain: CliqueChain, j: int) -> list[int]:
    spine = chain.junction_positions()
    return [chain.vertices[i] for i in chain.element_positions(j) if i not in spine]


def _splice_segment_into_chain(col: TwoColoring, chain: CliqueChain, j: int,
                               segment: list[int]) -> CliqueChain | None:
    """Insert a red loose-path segment (both endpoints in flexible element j's
    interior, otherwise disjoint from the chain) into an open loose chain.

    Element j becomes a whole link run of fresh interior vertices into the
    segment, the segment split into its edges, and a whole residue run from
    the segment's end; None when the result is not valid."""
    k = chain.k
    if chain.ell != 1 or chain.kind != OPEN:
        raise ValueError("segment splice is for open loose chains")
    elem = chain.element_vertices(j)
    head = [] if j == 0 else elem[:1]
    tail = [] if j == len(chain.intervals) - 1 else elem[-1:]
    interior = elem[len(head): len(elem) - len(tail)]
    enter, leave = segment[0], segment[-1]
    if enter not in interior or leave not in interior:
        return None
    pool = [v for v in interior if v not in segment]
    need = k - 1 - len(head)
    rest = pool[need:]
    keep = len(rest) + len(tail)
    keep -= keep % (k - 1)  # the residue run has 1 + q(k-1) vertices, q >= 1
    if len(pool) < need or keep < k - 1:
        return None
    runs = [(head + pool[:need] + [enter], True), (list(segment), False),
            ([leave] + rest[: keep - len(tail)] + tail, True)]
    out = replace_element(chain, j, runs, f"segment-splice:element={j}")
    cert = validate_chain(out, col)
    if cert.kind != "chain":
        return None
    return out


def _prepend_edge_to_chain(col: TwoColoring, chain: CliqueChain, edge: tuple[int, ...],
                           at_start: bool) -> CliqueChain | None:
    """Extend an open loose chain by one red edge sharing exactly one vertex
    with the flexible end element; the end element is reordered so the shared
    vertex sits at its boundary, and the edge becomes a new end element.
    None when the result is not valid."""
    if chain.ell != 1 or chain.kind != OPEN:
        raise ValueError("edge extension is for open loose chains")
    j = 0 if at_start else len(chain.intervals) - 1
    elem = chain.element_vertices(j)
    inner_junction = elem[-1] if at_start else elem[0]
    outer = [v for v in elem if v != inner_junction]
    shared = [v for v in edge if v in outer]
    if len(shared) != 1:
        return None
    s = shared[0]
    rest = sorted(v for v in edge if v != s)
    reordered = [s] + [v for v in outer if v != s] + [inner_junction] if at_start \
        else [inner_junction] + [v for v in outer if v != s] + [s]
    runs = [(rest + [s], True), (reordered, True)] if at_start \
        else [(reordered, True), ([s] + rest, True)]
    out = replace_element(chain, j, runs, f"end-extension:{'start' if at_start else 'end'}")
    cert = validate_chain(out, col)
    if cert.kind != "chain":
        return None
    return out


def _extend_an_end(col: TwoColoring, chains: list[CliqueChain],
                   outside: list[int]) -> tuple[int, CliqueChain] | None:
    """The first open chain, with its extension, whose start or end element
    takes the first red edge with k-1 leftover vertices and one vertex of the
    element other than its inner junction."""
    k = col.k
    red = col.edges_of(RED)
    leftover = set(outside)
    for ci, chain in enumerate(chains):
        if chain.kind != OPEN:
            continue
        for at_start in (True, False):
            elem = chain.element_vertices(0 if at_start else len(chain.intervals) - 1)
            outer = set(elem) - {elem[-1] if at_start else elem[0]}
            edge = next((e for e in red if len(leftover.intersection(e)) == k - 1
                         and len(outer.intersection(e)) == 1), None)
            if edge is not None:
                new_chain = _prepend_edge_to_chain(col, chain, edge, at_start)
                if new_chain is not None and new_chain.p > chain.p:
                    return ci, new_chain
    return None


def _shrink_closed_chain(col: TwoColoring, chain: CliqueChain, target: int) -> CliqueChain | None:
    """Remove interior vertices of flexible elements, (k-ell) at a time, until
    the chain has exactly `target` vertices.  Each step re-roots the closed
    chain at the next element (see `replace_element`) and must validate."""
    k, ell = chain.k, chain.ell
    cur = chain
    while cur.p > target:
        flex = sorted(cur.flexible_elements(), key=lambda j: -cur.intervals[j][1])
        if not flex:
            return None
        j = flex[0]
        elem = cur.element_vertices(j)
        drop = elem[ell: ell + (k - ell)]  # interior vertices next to the head
        if len(elem) - (k - ell) < k:
            return None
        new_elem = [v for v in elem if v not in drop]
        cur = replace_element(cur, j, [(new_elem, len(new_elem) > max(k, 2 * ell))],
                              f"shrink:element={j}")
        cert = validate_chain(cur, col)
        if cert.kind != "chain":
            raise AssertionError(f"closed rebuild failed: {cert.detail['problems']}")
    return cur if cur.p == target else None


# ---------------------------------------------------------------------------
# red extraction helpers


def _extract_red_witness(col: TwoColoring, chains: list[CliqueChain],
                         params: EngineParams) -> Certificate | None:
    """The first n_target vertices of the first chain that has them: a
    closed chain shrunk to the target order for a cycle, any chain at least
    that long for a path.  The order is one the shape has (the engines
    refuse any other at entry), so the prefix of a chain's vertices is a red
    path: interval starts sit on the (k-ell) grid, and every window before
    the wrap lies in one element.  A closed chain's order, like the target's,
    is a multiple of k-ell, so the shrinking can reach it."""
    n_target = params.n_target
    for chain in chains:
        if params.target_kind == "cycle":
            if chain.kind != CLOSED or chain.p < n_target:
                continue
            chain = _shrink_closed_chain(col, chain, n_target)
            if chain is None:
                continue
        elif chain.p < n_target:
            continue
        return _red_path_certificate(col, list(chain.vertices[:n_target]), chain.ell, params)
    return None


def _flexible_pick(chain: CliqueChain) -> int | None:
    flex = chain.flexible_elements()
    if not flex:
        return None
    return max(flex, key=lambda j: chain.intervals[j][1])


# ---------------------------------------------------------------------------
# the loose engine


def loose_witness_engine(col: TwoColoring, target: Hypergraph, params: EngineParams) -> EngineReport:
    """Find a red loose path/cycle of the target order or a blue copy of the
    target, by clique partition, path system, chain assembly, and the two
    extension moves; stalls report which dichotomy failed.

    A target order no k-uniform loose path or cycle has, or a blue target of
    another uniformity, raises ValueError (see `_refuse_order`)."""
    k = col.k
    _refuse_order(k, 1, "loose", params)
    if target.k != k:
        raise ValueError(f"the blue target is {target.k}-uniform, the colouring {k}-uniform")
    log: list[str] = []
    red_blocks = _front_half(col, target, params, log)
    if isinstance(red_blocks, EngineReport):
        return red_blocks
    profile = ramsey_profile(target)
    system = build_path_system(col, red_blocks, ell=1, alpha=profile.chi)
    if system.stalled:
        used = system.used_vertices()
        w_sets = [[v for v in red_blocks[i] if v not in used] for i in system.stall_blocks]
        outcome, _ = independence_dichotomy(col, [tuple(w) for w in w_sets])
        if outcome == "blue":
            cert = _place_classes(col, target, profile, w_sets, "all-blue crossing")
            if cert is not None:
                log.append("path system stalled; crossing sets all blue")
                return EngineReport("blue_witness", cert, None, log)
            return EngineReport("stall", None,
                                {"reason": "all-blue crossing sets too small for the target",
                                 "w_sizes": [len(w) for w in w_sets]}, log)
        return EngineReport("stall", None,
                            {"reason": "stalled with red crossing edges but no mergeable matching",
                             "diagnostic": system.diagnostic}, log)
    try:
        report = assemble_chains(col, red_blocks, system)
    except ValueError as exc:
        return EngineReport("stall", None,
                            {"reason": f"chain assembly infeasible at this scale: {exc}"}, log)
    chains = list(report.chains)
    if params.target_kind == "path":
        # a path target is cut from a closed chain opened once and for all
        for ci, ch in enumerate(chains):
            if ch.kind == CLOSED:
                try:
                    chains[ci] = cut_open(ch)
                except ValueError:
                    pass
    log.append(f"assembled {len(chains)} chains, sizes {[c.p for c in chains]}, "
               f"leftover {len(report.leftover)}")

    for round_no in range(MAX_ROUNDS):
        got = _extract_red_witness(col, chains, params)
        if got is not None:
            log.append(f"red witness extracted in round {round_no}")
            return EngineReport("red_witness", got, None, log)
        in_chains = {v for c in chains for v in c.vertices}
        outside = [v for v in range(col.n) if v not in in_chains]

        # move 1: a two-edge path of the auxiliary (k-1)-graph on the leftover
        aux_pair = _aux_graph_pair(col, chains, outside)
        if aux_pair is not None:
            ci, j, segment = aux_pair
            new_chain = _splice_segment_into_chain(col, chains[ci], j, segment)
            if new_chain is not None and new_chain.p > chains[ci].p:
                log.append(f"round {round_no}: two-edge auxiliary path spliced into chain {ci}")
                chains[ci] = new_chain
                continue

        # move 2: endpoint extension by one red edge with k-1 leftover vertices
        extended = _extend_an_end(col, chains, outside)
        if extended is not None:
            ci, new_chain = extended
            chains[ci] = new_chain
            log.append(f"round {round_no}: endpoint extension on chain {ci}")
            continue

        # no move applies: try the blue split extraction before stalling
        w_flex = [sorted(_flexible_interior(c, j)) for c in chains
                  if (j := _flexible_pick(c)) is not None]
        cert = _place_classes(col, target, profile, w_flex,
                              "split over leftover and flexible interiors", leftover=outside)
        if cert is not None:
            log.append("blue witness via split classes over leftover and flexible interiors")
            return EngineReport("blue_witness", cert, None, log)
        return EngineReport("stall", None, {
            "reason": "no extension move applies",
            "round": round_no,
            "chain_sizes": [c.p for c in chains],
            "target_order": params.n_target,
            "deficits": [max(0, params.n_target - c.p) for c in chains],
            "budget_c": _loose_budget(k, profile.sigma),
            "sigma": profile.sigma,
            "leftover": len(outside),
        }, log)
    return EngineReport("stall", None, {"reason": "round limit reached",
                                        "chain_sizes": [c.p for c in chains]}, log)


def _loose_budget(k: int, sigma: int) -> int | None:
    """The additive budget max(tau(k-1, sigma) - 2k + 3, sigma) of the
    loose-path bound, reported in stall diagnostics.  None for k = 2:
    tau(1, sigma) is unbounded, as the n singletons of any n vertices leave
    no independent vertex and no two of them share exactly one vertex."""
    if k < 3:
        return None
    tau = tau_exact(k - 1, sigma).value
    return max(tau - 2 * k + 3, sigma)


def _aux_graph_pair(col: TwoColoring, chains: list[CliqueChain], outside: list[int]):
    """The leftover-side move: orient each (k-1)-subset of the leftover to an
    unused flexible partner vertex making a red edge; a two-edge loose path in
    that auxiliary graph yields a red segment landing inside one element.
    For k = 2 there is none: two distinct 1-sets never share one vertex."""
    k = col.k
    if k < 3:
        return None
    flex_of: dict[int, tuple[int, int]] = {}
    for ci, chain in enumerate(chains):
        if chain.kind != OPEN:
            continue
        j = _flexible_pick(chain)
        if j is None:
            continue
        for v in _flexible_interior(chain, j):
            flex_of[v] = (ci, j)
    if not flex_of or len(outside) < k - 1:
        return None
    rel: dict[tuple[int, ...], int] = {}  # auxiliary edge -> its partner
    for f in combinations(sorted(outside), k - 1):
        for w in sorted(flex_of):
            if w not in rel.values() and col.is_red(tuple(sorted(f + (w,)))):
                rel[f] = w
                break
    found, pair = has_two_edge_loose_path(Hypergraph(k - 1, col.n, tuple(rel)))
    if not found:
        return None
    f1, f2 = pair
    w1, w2 = rel[f1], rel[f2]
    if flex_of[w1] != flex_of[w2]:
        return None  # a cross-chain pair; merging chains is not implemented
    ci, j = flex_of[w1]
    shared = set(f1) & set(f2)
    sh = next(iter(shared))
    seg = [w1] + sorted(set(f1) - shared) + [sh] + sorted(set(f2) - shared) + [w2]
    return ci, j, seg


# ---------------------------------------------------------------------------
# the tight engine (3-uniform)


@lru_cache(maxsize=None)
def _directed_ramsey(chi: int) -> int:
    res = directed_ramsey_exact(chi)
    if not res.exact:
        raise ValueError(f"directed Ramsey number for chi={chi} not computable at desk scale")
    return res.value


def _find_blue_transitive_structure(col: TwoColoring, chi: int, q: int,
                                    pool: list[int]) -> list[list[int]] | None:
    """Classes of a blue transitive tournament hypergraph with chi >= 1
    classes of size q inside the pool (for chi = 1, the first q pool
    vertices: the target has no edge)."""
    target, _ = transitive_tournament_hypergraph(chi, q)
    cert = find_mono_copy(col, target, BLUE, forbidden=frozenset(range(col.n)).difference(pool))
    if not cert.found:
        return None
    return [[cert.witness[c * q + i] for i in range(q)] for c in range(chi)]


def tight_witness_engine(col: TwoColoring, chi: int, m: int, params: EngineParams) -> EngineReport:
    """Find a red tight path/cycle of the target order or a blue transitive
    tournament hypergraph with chi classes of size m (3-uniform).  A target
    order no tight path or cycle has raises ValueError (see `_refuse_order`)."""
    if col.k != 3:
        raise ValueError("tight engine is 3-uniform")
    _refuse_order(3, 2, "tight", params)
    log: list[str] = []
    target, _ = transitive_tournament_hypergraph(chi, m)
    red_blocks = _front_half(col, target, params, log)
    if isinstance(red_blocks, EngineReport):
        return red_blocks
    # H(TT_chi, m) has edges, so chi >= 2 and m >= 2 from here on
    system = build_path_system(col, red_blocks, ell=2, alpha=_directed_ramsey(chi))
    if system.stalled:
        used = system.used_vertices()
        w_sets = [tuple(v for v in red_blocks[i] if v not in used) for i in system.stall_blocks]
        outcome = butterfly_dichotomy(col, list(w_sets), chi, m)
        if outcome.branch == "blue":
            log.append("path system stalled; butterfly produced the blue structure")
            return EngineReport("blue_witness", outcome.blue_embedding, None, log)
        if outcome.branch == "red":
            return EngineReport("stall", None,
                                {"reason": "a red connector joins two stalled blocks, "
                                           "but no pair of them has two disjoint ones",
                                 "connector": outcome.red_path}, log)
        return EngineReport("stall", None, {"reason": outcome.diagnostic}, log)
    try:
        report = assemble_chains(col, red_blocks, system)
    except ValueError as exc:
        return EngineReport("stall", None,
                            {"reason": f"chain assembly infeasible at this scale: {exc}"}, log)
    chains = list(report.chains)
    chains.sort(key=lambda c: -c.p)
    log.append(f"assembled {len(chains)} chains, sizes {[c.p for c in chains]}")

    got = _extract_red_witness(col, chains, params)
    if got is not None:
        return EngineReport("red_witness", got, None, log)

    # absorption on the largest chain, one flexible element at a time
    if not chains:
        return EngineReport("stall", None, {"reason": "no chain to absorb into", "chain_sizes": []}, log)
    work = chains[0]
    for round_no in range(MAX_ROUNDS):
        if work.p >= params.n_target:
            break
        flex = sorted(work.flexible_elements(), key=lambda j: -work.intervals[j][1])
        for j in flex:
            elem = work.element_vertices(j)
            x_pair, y_pair = elem[:2], elem[-2:]
            interior = elem[2:-2]
            if len(interior) < 2:
                continue
            in_chain = set(work.vertices)
            path: list[int] = []
            absorbed_outside = 0
            while True:
                inside = [v for v in interior if v not in path]
                if work.p + absorbed_outside >= params.n_target or len(inside) < 2 * D + 2:
                    break
                pool = [v for v in range(col.n)
                        if v not in in_chain and v not in path]
                classes = _find_blue_transitive_structure(col, chi - 1, Q, pool)
                if classes is None:
                    log.append(f"element {j}: no blue structure with {chi - 1} classes of {Q} "
                               f"in the {len(pool)}-vertex leftover")
                    break
                # the first class the element is not blue-dense toward feeds the
                # absorbing block; with none, the target is searched on the
                # element's unused interior and the classes
                absorb_from = next((cls for cls in classes
                                    if blue_density(col, inside, cls) < 1 - GAMMA), None)
                if absorb_from is None:
                    copy = find_mono_copy(col, target, BLUE,
                                          forbidden=frozenset(range(col.n)).difference(inside, *classes))
                    if copy.found:
                        log.append(f"element {j}: blue witness on the interior and the dense classes")
                        return EngineReport("blue_witness", _blue_certificate(
                            col, target, copy.witness, "blue-dense classes"), None, log)
                    why = "no blue copy" if copy.detail["exact"] else "blue copy search cut short"
                    log.append(f"element {j}: {why} on the interior and the dense classes")
                    break
                out = absorbing_block(col, inside, absorb_from, D, GAMMA)
                if not out.success:
                    log.append(f"element {j}: absorbing block: {out.diagnostic}")
                    break
                path.extend(out.path)
                absorbed_outside += D
            if not path:
                continue
            # close the path with the unused interior and splice it back
            tail = [v for v in interior if v not in path]
            full = path + tail
            run = list(x_pair) + full + list(y_pair)
            new_work = replace_element(work, j, [(run, False)], f"absorb:element={j}")
            cert = validate_chain(new_work, col)
            if cert.kind != "chain":
                raise AssertionError(f"absorption rebuild failed: {cert.detail['problems']}")
            log.append(f"round {round_no}: absorbed {len(full) - len(interior)} vertices "
                       f"at element {j} (chain {work.p} -> {new_work.p})")
            work = new_work
            break
        else:
            break  # no flexible element absorbed anything
    chains[0] = work
    got = _extract_red_witness(col, chains, params)
    if got is not None:
        return EngineReport("red_witness", got, None, log)
    return EngineReport("stall", None, {
        "reason": "absorption exhausted below the target order",
        "chain_sizes": [c.p for c in chains],
        "target_order": params.n_target,
    }, log)
