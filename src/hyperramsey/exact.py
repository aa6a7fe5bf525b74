"""Exact desk-scale Ramsey quantities by exhaustive enumeration.

ramsey_exact decides, for increasing n, whether a free colouring of the
complete k-graph exists, by DFS over edge colours in colex-rank order.  The
DFS state is one int, bit r set when the edge of rank r is red.  A branch is
pruned the moment the edge just coloured completes a red copy of the
pattern or a blue copy of the target, so every leaf reached is a free
colouring.  Every copy of a pattern in K_n^(k) is listed once, as the mask
of its edges' colex ranks, and filed under its highest rank.  Colouring rank
r can complete only the copies filed under r, since all their other edges
are coloured already: a red copy closes when its mask lies in the red edges,
a blue one when it meets none of them.  Paths, cycles, cliques and every
other pattern go through these lists.  The lists are built once per
(pattern, n) from the pattern's distinct relabellings, which are found once
per pattern; the lex-leader tables once per (k, n); and every order and call
shares them.
Before the copy check, a branch must pass the lex-leader predicates of the
n-1 adjacent vertex transpositions (i i+1): the DFS keeps a colouring only
if it meets it no later than its image under each of them.  So it explores
far fewer relabelled copies of each branch, and still returns the witness it
would return without them (the proof is in `free_coloring_exists`).  An
edgeless side of order at most n lies in every colouring on n vertices, so
it leaves no free one.

tau(k, alpha) is a Ramsey number less one: a k-graph with independence
number below alpha and no two-edge loose path is the blue class of a
colouring with no red K_alpha^(k) and no blue loose path P of two edges, so
tau(k, alpha) = R(K_alpha^(k), P) - 1 and tau_exact asks the colouring DFS
for it, climbing from the order of `tau_lower_construction`.
directed_ramsey_exact grows labelled tournaments vertex by vertex.  At every
node the tournament on 0..v-1 is TT_chi-free, so the new vertex v completes a
TT_chi exactly when, for some transitive (chi-1)-set X, the vertices of X that
v points to form a suffix of X's source-to-sink order (the empty suffix and X
itself included).  A node rejects every completing one of v's 2^v out-arc
patterns in one bitset: its parent's completing set, which covers every X
that avoids v-1, with the arc to v-1 either way, and the patterns that the
orders through v-1 complete, the only ones it lists.  It also
rejects the patterns that fail the lex-leader predicate of the adjacent
transposition (v-1 v), which compares the tournament with its relabelling in
the walk's own order and needs only the patterns of v-1 and v: two intervals
of v's patterns.  Then it walks the rest in increasing order.  So the walk
skips most relabelled copies of each branch and still finds the tournament
it would find without the predicates (the proof is in
`_ttfree_tournament_exists`).  A rejected pattern counts as a prune when the
walk passes it, lazily, so the counts are those of a pattern-by-pattern
loop: a found tournament stops the count at the pattern it was found on.

ramsey_exact, tau_exact and directed_ramsey_exact climb the orders in
`_least_order`.  An order's DFS stops after `search.DEFAULT_NODE_BUDGET`
nodes, and the loop then ends as past n_cap: inexact, one above the largest
order with a witness.  So does an order of the colouring DFS whose copy
lists would pass `_LIST_BITS` bits, before its first node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

from .core import (
    BLUE,
    GuardExceeded,
    Hypergraph,
    RamseyProfile,
    Tournament,
    TwoColoring,
    burr_bound,
    colex_subsets,
    mask_ranks,
    ramsey_profile,
    rank_image,
)
from . import search
from .constructions import tau_lower_construction
from .search import as_hypergraph, find_transitive_subtournament

# ---------------------------------------------------------------------------
# copy lists and lex-leader predicates for the colouring DFS


# The most bits the copy list of one (target, n) may hold, comb(n, k) a mask:
# 16 MiB, and `_copy_masks` keeps the last 32 lists.  An order whose list
# would hold more is not searched: it ends the climb as a spent budget does.
_LIST_BITS = 1 << 27


@lru_cache(maxsize=128)
def _labelled_copies(target: Hypergraph) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """(w, copies): w counts the target's vertices that lie in an edge, and
    copies holds each distinct image of the target's edges under a
    relabelling of those w vertices onto 0..w-1, as the sorted colex ranks of
    its edges in K_w^(k).  Built once per target, by closing its edges under
    the adjacent transpositions (i i+1), which generate every relabelling,
    so a target with many automorphisms has few copies to find.  None once
    it has found more than `_LIST_BITS` // (comb(w, k) * (w - 1)) copies: it
    forms w - 1 images of each, so past that it would form more copies than
    a list on w vertices may hold."""
    k = target.k
    spanned = sorted({v for e in target.edges for v in e})
    w = len(spanned)
    position = {v: i for i, v in enumerate(spanned)}
    ranks = mask_ranks(k, w)
    first = tuple(sorted(ranks[sum(1 << position[v] for v in e)] for e in target.edges))
    swaps = [rank_image(k, w, [*range(i), i + 1, i, *range(i + 2, w)]) for i in range(w - 1)]
    most = _LIST_BITS // max(comb(w, k) * (w - 1), 1)
    copies = {first}
    found = [first]
    for copy in found:
        for swap in swaps:
            image = tuple(sorted([swap[r] for r in copy]))
            if image not in copies:
                copies.add(image)
                found.append(image)
        if len(found) > most:
            return None
    return w, tuple(sorted(copies))


@lru_cache(maxsize=32)
def _copy_masks(target: Hypergraph, n: int) -> tuple[tuple[int, ...], ...] | None:
    """Every copy of the target in K_n^(k), as the mask of its edges' colex
    ranks, bucketed by highest rank: entry r holds the copies whose last
    edge is rank r.  Built once per (target, n); None when the list would
    hold more than `_LIST_BITS` bits, or the target more copies than a list
    may hold.

    A copy is a labelled copy on 0..w-1 (`_labelled_copies`) placed on a
    w-subset S by the increasing map onto S.  That map keeps colex order, so
    S's k-sets are ranked once and the copy's highest rank is the image of
    its highest.  A vertex in no edge can go to any vertex left over, so
    each edge set is listed once; and below the target's order no copy
    fits, so none is listed there."""
    k = target.k
    nbits = comb(n, k)
    if target.n > n:
        return ((),) * nbits
    labelled = _labelled_copies(target)
    if labelled is None or comb(n, labelled[0]) * len(labelled[1]) * nbits > _LIST_BITS:
        return None
    w, copies = labelled
    buckets: list[list[int]] = [[] for _ in range(nbits)]
    ranks = mask_ranks(k, n)
    small = colex_subsets(k, w)
    for sub in combinations(range(n), w):
        image = [ranks[sum(1 << sub[i] for i in s)] for s in small]
        bit = [1 << x for x in image]
        for copy in copies:
            mask = 0
            for r in copy:
                mask |= bit[r]
            buckets[image[copy[-1]]].append(mask)
    return tuple(map(tuple, buckets))


class _LexLeader:
    """Lex-leader predicates for the adjacent vertex transpositions
    sigma_i = (i i+1) (Crawford, Ginsberg, Luks & Roy, KR 1996): a colouring
    c is kept only if c >= sigma_i(c) for every i, comparing colourings in
    the order the DFS meets them, rank 0 most significant and red above blue.

    sigma_i fixes every edge that holds both or neither of i and i+1, and
    pairs each edge p that holds i alone with q = sigma_i(p), which holds
    i+1 alone and has the larger rank.  Two such edges p < p' differ where
    their images do, so the pairs come in the same order by p as by q.  So
    c and sigma_i(c) first differ at the p of the first pair whose two edges
    differ in colour, and c < sigma_i(c) iff that p is blue and its q red.
    Pairs are settled in order as their q is coloured, so the first rank not
    yet known equal is the p of the first pair whose q is uncoloured, and a
    predicate's state is one bit: undecided, or decided once a pair with red
    p and blue q shows c > sigma_i(c).  Colouring q blue never cuts; red cuts
    when an undecided pair has p blue.
    """

    def __init__(self, k: int, n: int):
        # due[q]: (bit of sigma_i, p) for each sigma_i that pairs p with q
        due: list[list[tuple[int, int]]] = [[] for _ in range(comb(n, k))]
        for i in range(n - 1):
            swap = list(range(n))
            swap[i], swap[i + 1] = i + 1, i
            for p, q in enumerate(rank_image(k, n, swap)):
                if p < q:
                    due[q].append((1 << i, p))
        self.due = tuple(map(tuple, due))
        self.start = (1 << n - 1) - 1 if n else 0  # every sigma_i undecided

    def split(self, undecided: int, r: int, bits: int) -> tuple[int | None, int]:
        """The undecided predicates once rank r is coloured red and once it
        is coloured blue (bits: the red edges among ranks < r); None for red
        when some sigma_i(c) would exceed c."""
        red_p = blue_p = 0
        for bit, p in self.due[r]:
            if undecided & bit:
                if bits >> p & 1:
                    red_p |= bit
                else:
                    blue_p |= bit
        return (None if blue_p else undecided), undecided & ~red_p


# the predicates of the DFS on the complete k-graph on n vertices, once per (k, n)
_lex_leader = lru_cache(maxsize=128)(_LexLeader)


def _all_meet(masks: tuple[int, ...], other: int) -> bool:
    """True iff every mask has a bit in `other`, the other colour's edges."""
    for m in masks:
        if not m & other:
            return False
    return True


def free_coloring_exists(
    red_pattern: Hypergraph | str,
    blue_target: Hypergraph | str,
    n: int,
) -> tuple[bool, TwoColoring | None, dict]:
    """Decide whether a (red_pattern, blue_target)-free colouring of the
    complete k-graph on n vertices exists.

    Returns (exists, witness, stats).  The DFS colours ranks 0, 1, ... in
    turn, red first, so it meets leaves in decreasing order, rank 0 most
    significant and red above blue.  It is one loop over a trail, not a
    recursion: taking a red child pushes its rank, the red edges below it
    and its blue sibling's undecided predicates, and a closed branch pops
    the trail back to the nearest blue sibling not yet tried.  A branch is
    cut when the edge just coloured completes a red pattern or a blue
    target, or when the `_LexLeader` predicates find c < sigma_i(c) for an
    adjacent vertex transposition sigma_i; that test is cheaper, so it runs
    first, and each cut counts one prune.  Children are tested lazily, so
    the counts are those of a recursive walk.  The copies that rank r can
    complete are those `_copy_masks` files under r: colouring r red
    completes one iff some mask m of the pattern's has no bit outside the
    red edges, and blue iff some mask of the target's has no bit among them.

    The predicates change neither the answer nor the witness.  Without them
    the first free leaf is the greatest free colouring c*.  Each sigma_i(c*)
    is free too, since relabelling vertices maps copies to copies, so
    c* >= sigma_i(c*) for every i: c* and every prefix of it pass every
    predicate, and the DFS still reaches c* first.  So the search finds c*
    exactly when a free colouring exists, and a refutation stays sound.
    Past `search.DEFAULT_NODE_BUDGET` nodes it raises GuardExceeded(stats),
    the stats counting every node and prune so far, and before the first
    node when a copy list would pass `_LIST_BITS` bits.  Either side may be
    a hypergraph or a pattern string.
    """
    red, blue = as_hypergraph(red_pattern), as_hypergraph(blue_target)
    k = red.k
    nbits = comb(n, k)
    if blue.k != k:
        raise ValueError("uniformity mismatch")
    stats = {"nodes": 0, "prunes": 0}
    if any(not t.edges and t.n <= n for t in (red, blue)):
        return False, None, stats  # every colouring on n vertices holds the edgeless side

    red_copies, blue_copies = _copy_masks(red, n), _copy_masks(blue, n)
    if red_copies is None or blue_copies is None:
        raise GuardExceeded(f"the copy lists on {n} vertices would pass {_LIST_BITS} bits", stats)
    lex = _lex_leader(k, n)
    budget = search.DEFAULT_NODE_BUDGET
    # at node (r, bits, undecided), bits holds the red edges among ranks < r
    # and undecided the predicates that have not yet shown c > sigma_i(c)
    trail: list[tuple[int, int, int]] = []
    r, bits, undecided = 0, 0, lex.start
    nodes = prunes = 0
    try:
        while True:
            nodes += 1
            if nodes > budget:
                raise GuardExceeded(f"free-colouring search on {n} vertices passed {budget} nodes", stats)
            if r == nbits:
                return True, TwoColoring(k, n, bits), stats
            red_undecided, blue_undecided = lex.split(undecided, r, bits)
            red_bits = bits | 1 << r
            if red_undecided is not None and _all_meet(red_copies[r], ~red_bits):
                trail.append((r, bits, blue_undecided))
                r, bits = r + 1, red_bits
                continue
            prunes += 1
            # the blue child, else the blue sibling of the nearest red child taken
            while not _all_meet(blue_copies[r], bits):
                prunes += 1
                if not trail:
                    return False, None, stats
                r, bits, blue_undecided = trail.pop()
            r, undecided = r + 1, blue_undecided
    finally:
        stats["nodes"], stats["prunes"] = nodes, prunes


# ---------------------------------------------------------------------------
# R(G, H)


@dataclass
class RamseyResult:
    value: int | None            # exact value, or None when only bounded
    lower_bound: int
    exact: bool
    lower_witness: TwoColoring | None
    stats: dict = field(default_factory=dict)


def _least_order(first: int, n_cap: int, witness, witness_at) -> tuple:
    """(value, lower bound, exact, witness, stats) of the least order in
    first..n_cap at which `witness_at(n)` -> (witness or None, stats) finds
    no witness; `witness` is on first - 1 vertices.  A GuardExceeded (a
    spent node budget, or copy lists past `_LIST_BITS`) ends the loop as
    n_cap does, but with a bound at most n_cap, not n_cap + 1;
    stats["levels"] holds every order tried."""
    stats = {"nodes": 0, "prunes": 0, "levels": {}}
    for n in range(first, n_cap + 1):
        try:
            found, level = witness_at(n)
        except GuardExceeded as exc:  # budget spent: n stays undecided, the loop ends
            found, level = witness, exc.stats
        stats["nodes"] += level["nodes"]
        stats["prunes"] += level["prunes"]
        stats["levels"][n] = level
        if found is witness:
            break
        if found is None:
            return n, n, True, witness, stats
        witness = found
    return None, witness.n + 1, False, witness, stats


def ramsey_exact(
    red_pattern: Hypergraph | str,
    blue_target: Hypergraph | str,
    n_cap: int,
) -> RamseyResult:
    """Least n such that no free colouring of the complete k-graph exists,
    searched upward; past n_cap or a spent node budget, a lower-bound-only
    result, one above the order of its free witness.

    The search starts at n = k, or at the order of an edgeless side if that
    is smaller: every colouring on that many vertices contains it, and the
    empty colouring on one vertex fewer contains neither side."""
    red, blue = as_hypergraph(red_pattern), as_hypergraph(blue_target)
    if not (red.n and blue.n):
        raise ValueError("a pattern needs at least one vertex")
    k = red.k
    first = min([k] + [t.n for t in (red, blue) if not t.edges])
    return RamseyResult(*_least_order(first, n_cap, TwoColoring(k, first - 1, 0),
                                      lambda n: free_coloring_exists(red, blue, n)[1:]))


# ---------------------------------------------------------------------------
# tau(k, alpha)


@dataclass
class TauResult:
    k: int
    alpha: int
    value: int | None
    lower: int
    upper: int
    exact: bool
    witness: Hypergraph | None
    flags: tuple[str, ...] = ()
    stats: dict = field(default_factory=dict)


def tau_exact(k: int, alpha: int, n_cap: int | None = None) -> TauResult:
    """Largest n admitting a k-graph with independence < alpha and no two-edge
    loose path, searched upward from the construction to the proven ceiling
    2*alpha - 2 (alpha - 1 when alpha < k, where no k-set fits in alpha
    vertices), or n_cap if lower.

    Such a k-graph is the blue class of a colouring with no red K_alpha and
    no blue two-edge loose path, so tau(k, alpha) = R(K_alpha, P) - 1 and
    each order is one `free_coloring_exists` call under the node budget.
    The result is exact when an order is refuted or the bound meets the
    ceiling."""
    if k < 2 or alpha < 1:
        raise ValueError("need k >= 2, alpha >= 1")
    flags = ("alpha-1-degenerate",) if alpha == 1 else ("trivial-regime",) if alpha < k else ()
    upper = alpha - 1 if alpha < k else 2 * alpha - 2
    # the clique red and P blue: the other way round, order 8 of tau(4, 5)
    # takes 7 276 nodes, not 237
    clique, path = f"clique:{k}:{alpha}", f"path:{k}:1:{2 * k - 1}"

    def witness_at(n: int) -> tuple[Hypergraph | None, dict]:
        _, col, stats = free_coloring_exists(clique, path, n)
        return (None if col is None else Hypergraph(k, n, tuple(col.edges_of(BLUE)))), stats

    construction = tau_lower_construction(k, alpha)
    cap = upper if n_cap is None else min(upper, n_cap)
    _, bound, exact, witness, stats = _least_order(construction.n + 1, cap, construction, witness_at)
    lower = bound - 1
    exact = exact or lower == upper
    return TauResult(k, alpha, lower if exact else None, lower, upper, exact, witness, flags, stats)


# ---------------------------------------------------------------------------
# directed Ramsey numbers


@dataclass
class DirectedRamseyResult:
    chi: int
    value: int | None
    lower_bound: int
    exact: bool
    witness: Tournament | None   # a TT_chi-free tournament on lower_bound-1 vertices
    stats: dict = field(default_factory=dict)


@lru_cache(maxsize=64)
def _pattern_ones(v: int) -> tuple[int, ...]:
    """ones[u] for u < v: the out-arc patterns of a new vertex v with bit u
    set, as one int over its 2^v patterns, in blocks of 2^u clear, 2^u set.
    Built once per v."""
    full = (1 << (1 << v)) - 1
    return tuple(((1 << (1 << u)) - 1 << (1 << u)) * (full // ((1 << (2 << u)) - 1)) for u in range(v))


def _completing_patterns(parent: int, arcs_out: list[int], v: int, chi: int) -> int:
    """The out-arc patterns of a new vertex v that complete a TT_chi (chi >= 2)
    through v in the tournament on 0..v-1, given by its out-neighbour masks,
    as one int with bit p set for each such pattern p (bit u of p set = arc
    v -> u).  `parent` is the same set for v-1 in the tournament on
    0..v-2; at v = 0 no pattern completes one.

    A TT_chi through v is a transitive (chi-1)-set X with v inserted into X's
    source-to-sink order: v dominates the vertices after it and is dominated
    by those before.  So p completes one iff, for some X, the vertices of X
    that p points to form a suffix of that order, the empty suffix and X
    itself included.  The orders are chains in which each vertex dominates
    all later ones, found by intersecting out-neighbourhood masks.

    Whether p completes one through an X that avoids v-1 depends only on
    p's bits below v-1, and the patterns of v-1 that do so are `parent`: so
    those X give `parent` with bit v-1 of p clear and with it set.  Only the
    chains through v-1 are listed.  Until v-1 joins one, the chain's
    vertices are in-neighbours of v-1, so its candidates are v-1 and those.
    """
    if not v:
        return 0
    top = v - 1
    half = 1 << top
    ones = _pattern_ones(v)
    into = ~arcs_out[top] & half - 1 | half  # v-1 and its in-neighbours
    last = chi - 2
    full = (1 << (1 << v)) - 1
    bad = parent | parent << half
    # a partial chain is (common, depth, suffix, none, through): the vertices
    # all its depth vertices dominate, the patterns that point to a suffix of
    # it, those that point to none of it, and whether v-1 is in it.  A next
    # vertex x keeps a suffix if p points to x, and leaves one only if p
    # points to none of the chain, so suffix becomes
    # suffix & ones[x] | none & ~ones[x].  bad is a union, so the chains may
    # be taken in any order.
    stack = [((1 << v) - 1, 0, full, full, False)]
    while stack:
        common, depth, suffix, none, through = stack.pop()
        if depth == last:
            c = common if through else common & half
            while c:
                low = c & -c
                c ^= low
                on = ones[low.bit_length() - 1]
                bad |= suffix & on | none & ~on
            continue
        c = common if through else common & into
        while c:
            low = c & -c
            c ^= low
            x = low.bit_length() - 1
            after = common & arcs_out[x]
            if depth + after.bit_count() >= last:
                on = ones[x]
                stack.append((after, depth + 1, suffix & on | none & ~on, none & ~on, through or x == top))
    return bad


def _lex_leader_cut(prev: int, v: int) -> int:
    """The out-arc patterns p_v of vertex v >= 1 that the lex-leader
    predicate of sigma = (v-1 v) cuts, given p_{v-1}, as one int with bit p
    set for each.

    sigma fixes p_u for u < v-1, makes the low v-1 bits of p_v the new
    p_{v-1}, and makes p_{v-1} the low bits of the new p_v with bit v-1 (the
    arc between v-1 and v) flipped.  So T < sigma(T) iff the low bits b of p_v
    exceed p_{v-1}, or equal it with bit v-1 of p_v clear; T and sigma(T)
    never tie.  The cut patterns are b < p_{v-1} with bit v-1 clear and
    b <= p_{v-1} with it set: two intervals.
    """
    return (1 << prev) - 1 | ((2 << prev) - 1) << (1 << v - 1)


def _ttfree_tournament_exists(chi: int, order: int) -> tuple[Tournament | None, dict]:
    """DFS over labelled tournaments grown one vertex at a time, pruning as
    soon as a transitive chi-subtournament appears; returns (the tournament
    found or None, stats).

    The tournament on 0..v-1 is fixed at a node and TT_chi-free, so a TT_chi
    can appear only through v.  The node rejects every completing out-arc
    pattern of v in one bitset (`_completing_patterns`), grown from the one
    its parent found for v-1 by the chains through v-1, and walks the others
    in increasing order; a leaf computes none.  A rejected pattern counts as
    one prune when the walk passes it: the ones below a pattern are counted
    before recursing on it, and the rest when the node returns False, so a
    found tournament stops the count where a pattern-by-pattern loop would.

    So the walk meets tournaments in increasing order of their pattern
    sequences p_1, p_2, ..., each compared as an integer (bit u of p_v set =
    arc v -> u).  A node also rejects the patterns cut by the lex-leader
    predicate of the adjacent transposition sigma_{v-1} = (v-1 v)
    (`_lex_leader_cut`; Crawford, Ginsberg, Luks & Roy, KR 1996): a
    tournament T is kept only if T < sigma_i(T) for every i.  sigma_i leaves
    p_u unchanged for u < i and changes p_{i+1}, so the comparison is
    settled at node i+1 and needs only p_i and p_{i+1}.  These cuts count as
    prunes like the others.

    The predicates change neither the answer nor the tournament found.
    Without them the first TT_chi-free tournament met is the least one, T*.
    Each sigma_i(T*) is TT_chi-free too, since relabelling maps transitive
    subtournaments to transitive subtournaments, so T* < sigma_i(T*) for
    every i: T* and every prefix of it pass every predicate, and the DFS
    still reaches T* first.  A refutation stays sound, since the least
    member of every isomorphism class passes every predicate.  Past
    `search.DEFAULT_NODE_BUDGET` nodes it raises GuardExceeded(stats).
    """
    arcs_out = [0] * order
    stats = {"nodes": 0, "prunes": 0}
    budget = search.DEFAULT_NODE_BUDGET

    def rec(v: int, parent: int) -> bool:
        # parent: the patterns of v-1 that complete a TT_chi, before the cut
        stats["nodes"] += 1
        if stats["nodes"] > budget:
            raise GuardExceeded(f"TT_{chi}-free search on {order} vertices passed {budget} nodes", stats)
        if v == order:
            return True
        bad = completing = _completing_patterns(parent, arcs_out, v, chi)
        if v:
            bad |= _lex_leader_cut(arcs_out[v - 1], v)  # arcs_out[v-1] is p_{v-1} here
        rest = ((1 << (1 << v)) - 1) & ~bad
        counted = 0
        while rest:
            low = rest & -rest
            rest ^= low
            below = (bad & (low - 1)).bit_count()
            stats["prunes"] += below - counted
            counted = below
            pattern = low.bit_length() - 1
            # bit u of pattern set = arc v -> u
            arcs_out[v] = pattern
            for u in range(v):
                if not pattern >> u & 1:
                    arcs_out[u] |= 1 << v
            if rec(v + 1, completing):
                return True
            for u in range(v):
                arcs_out[u] &= ~(1 << v)
        stats["prunes"] += bad.bit_count() - counted
        arcs_out[v] = 0
        return False

    if rec(0, 0):
        arcs = [(u, v) for u in range(order) for v in range(order) if arcs_out[u] >> v & 1]
        return Tournament.from_arcs(order, arcs), stats
    return None, stats


def directed_ramsey_exact(chi: int, n_cap: int = 9) -> DirectedRamseyResult:
    """Least N such that every tournament on N vertices contains the
    transitive tournament on chi vertices; bounded as `ramsey_exact` is."""
    if chi < 1:
        raise ValueError("chi must be positive")
    if chi == 1:
        return DirectedRamseyResult(1, 1, 1, True, Tournament(0, 0), {"nodes": 0, "prunes": 0, "levels": {}})
    # any tournament on chi-1 vertices is TT_chi-free
    return DirectedRamseyResult(chi, *_least_order(chi, n_cap, Tournament.transitive(chi - 1),
                                                   lambda order: _ttfree_tournament_exists(chi, order)))


@dataclass
class GapCheckReport:
    value: int
    previous: int
    inequality_holds: bool
    augmented_witness: Tournament
    augmented_ttfree: bool


def gap_report(cur: DirectedRamseyResult, prev: DirectedRamseyResult) -> GapCheckReport:
    """Check R_vec(chi) >= R_vec(chi-1) + 2 on the two values, already
    computed, and re-validate the constructive witness: a TT_{chi-1}-free
    tournament extended by one dominating vertex, one dominated vertex, and
    the back arc between them."""
    if not (cur.exact and prev.exact):
        raise GuardExceeded("both directed Ramsey values must be exact")
    base = prev.witness  # TT_{chi-1}-free on prev.value - 1 vertices
    m = base.n
    arcs = list(base.arcs())
    v1, v2 = m, m + 1
    for u in range(m):
        arcs.append((v1, u))
        arcs.append((u, v2))
    arcs.append((v2, v1))
    augmented = Tournament.from_arcs(m + 2, arcs)
    cert = find_transitive_subtournament(augmented, cur.chi)
    return GapCheckReport(
        value=cur.value,
        previous=prev.value,
        inequality_holds=cur.value >= prev.value + 2,
        augmented_witness=augmented,
        augmented_ttfree=not cert.found,
    )


# ---------------------------------------------------------------------------
# goodness verdicts


@dataclass
class GoodnessReport:
    burr: int
    gap: int | None
    verdict: str  # good | not-good | undecided | n/a


def _connected(hg: Hypergraph) -> bool:
    """True iff hg has a vertex and its edges join every vertex to vertex 0."""
    reach, grown = 1, True
    while grown:
        grown = False
        for e in hg.edges:
            mask = sum(1 << v for v in e)
            if mask & reach and mask & ~reach:
                reach |= mask
                grown = True
    return reach == (1 << hg.n) - 1


def goodness_gap(red_pattern: Hypergraph | str, target: Hypergraph, result: RamseyResult,
                 profile: RamseyProfile | None = None) -> GoodnessReport:
    """The Burr bound of the red pattern and the verdict of `result` against
    it; the gap is None unless `result` is exact.  The bound holds only for
    a connected pattern on at least sigma(target) vertices; for any other
    the verdict is "n/a" and the gap None.  The pattern may be a hypergraph
    or a pattern string."""
    if profile is None:
        profile = ramsey_profile(target)
    red = as_hypergraph(red_pattern)
    bb = burr_bound(red.n, profile)
    if not (bb.hypothesis_ok and _connected(red)):
        return GoodnessReport(bb.value, None, "n/a")
    if result.exact:
        gap = result.value - bb.value
        verdict = "good" if gap == 0 else "not-good"
    else:
        gap = None
        verdict = "not-good" if result.lower_bound > bb.value else "undecided"
    return GoodnessReport(bb.value, gap, verdict)
