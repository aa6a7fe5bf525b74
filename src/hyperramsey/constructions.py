"""Generators for the explicit lower-bound colourings and extremal hypergraphs.

Each generator returns a LowerBoundInstance: the colouring itself, the block
partition it was built from, the parameter record, and descriptors of the red
pattern and blue target it is claimed to avoid.  Blocks always occupy
consecutive vertex ranges in index order so the bitmaps are reproducible.
Every colouring is one rule over one pass, `_block_counts`, which yields each
k-set in colex order with the number of its vertices in each block; red is
decided by those counts (and, for the connector and pencil rules, by which
vertices of the last block the k-set holds).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .core import (
    Hypergraph,
    Tournament,
    TwoColoring,
    colex_subsets,
    hypergraph_to_json,
)
from .search import has_two_edge_loose_path, independence_number, pattern_hypergraph


@dataclass(frozen=True)
class LowerBoundInstance:
    coloring: TwoColoring
    claimed_red_free: str
    claimed_blue_free: str
    partition: tuple[tuple[int, ...], ...]
    parameters: dict
    blue_target: Hypergraph | None = None
    flags: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.coloring.n

    def manifest(self) -> dict:
        out = {
            "n": self.n,
            "k": self.coloring.k,
            "partition": [list(b) for b in self.partition],
            "parameters": dict(self.parameters),
            "claimed_red_free": self.claimed_red_free,
            "claimed_blue_free": self.claimed_blue_free,
            "flags": list(self.flags),
        }
        if self.blue_target is not None:
            out["blue_target"] = hypergraph_to_json(self.blue_target)
        return out


def _blocks(sizes: list[int]) -> tuple[tuple[int, ...], ...]:
    if min(sizes, default=0) < 0:
        raise ValueError(f"block sizes {sizes} must be nonnegative")
    out = []
    start = 0
    for s in sizes:
        out.append(tuple(range(start, start + s)))
        start += s
    return tuple(out)


def _block_counts(k: int, blocks) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Every k-set of the blocks' vertices in colex order, with how many of
    its vertices lie in each block."""
    owner = [i for i, b in enumerate(blocks) for _ in b]
    for s in colex_subsets(k, len(owner)):
        counts = [0] * len(blocks)
        for v in s:
            counts[owner[v]] += 1
        yield s, counts


def _colouring(k: int, n: int, reds: Iterable[bool]) -> TwoColoring:
    """The colouring whose edge of colex rank r is red when the r-th of `reds` is."""
    bits = 0
    for r, red in enumerate(reds):
        if red:
            bits |= 1 << r
    return TwoColoring(k, n, bits)


# ---------------------------------------------------------------------------
# the general lower-bound colouring: red edges form chi cliques


def burr_coloring(k: int, chi: int, sigma: int, v_g: int) -> LowerBoundInstance:
    """chi-1 red cliques of order v_g-1 plus one of order sigma-1, rest blue,
    on (v_g-1)(chi-1)+sigma-1 vertices."""
    if chi < 1 or sigma < 1 or v_g < sigma:
        raise ValueError("need chi >= 1, sigma >= 1, v_g >= sigma")
    n = (v_g - 1) * (chi - 1) + sigma - 1
    blocks = _blocks([v_g - 1] * (chi - 1) + [sigma - 1])
    return LowerBoundInstance(
        coloring=_colouring(k, n, (max(c) == k for _, c in _block_counts(k, blocks))),
        claimed_red_free=f"any connected k-graph on {v_g} vertices",
        claimed_blue_free=f"any H with chi={chi}, sigma={sigma}",
        partition=blocks,
        parameters={"k": k, "chi": chi, "sigma": sigma, "v_g": v_g, "n": n},
        flags=("no-k-sets",) if n < k else (),
    )


# ---------------------------------------------------------------------------
# ell >= 2 paths against colour-concentrated targets


def ell_path_lb(k: int, ell: int, n: int, chi: int) -> LowerBoundInstance:
    """Red = within-block k-sets plus k-sets that meet the last (small) block
    and every other block in at most ell-1 vertices."""
    if ell < 2 or ell > k - 1:
        raise ValueError("this construction needs 2 <= ell <= k-1")
    if chi < 2:
        raise ValueError("need chi >= 2")
    red_free = f"path:{k}:{ell}:{n}"
    pattern_hypergraph(red_free)  # a ValueError for an order no such path has
    small = n // k - 1
    big_n = (chi - 1) * (n - 1) + small
    blocks = _blocks([n - 1] * (chi - 1) + [small])
    reds = (max(c) == k or (c[-1] >= 1 and max(c[:-1]) <= ell - 1)
            for _, c in _block_counts(k, blocks))
    return LowerBoundInstance(
        coloring=_colouring(k, big_n, reds),
        claimed_red_free=red_free,
        claimed_blue_free="any H whose proper colourings all have a colour-concentrated edge",
        partition=blocks,
        parameters={"k": k, "ell": ell, "n": n, "chi": chi, "N": big_n},
    )


# ---------------------------------------------------------------------------
# loose paths and cycles via two-edge-loose-path-free auxiliary graphs


def _check_aux_graph(aux: Hypergraph, k: int, t: int) -> None:
    if aux.k != k - 1:
        raise ValueError(f"auxiliary graph must be {k - 1}-uniform")
    has_p2, wit = has_two_edge_loose_path(aux)
    if has_p2:
        raise ValueError(f"auxiliary graph has a two-edge loose path: {wit}")
    alpha, _ = independence_number(aux)
    if alpha >= t:
        raise ValueError(f"auxiliary graph has independence number {alpha} >= {t}")


def _connector_colouring(k: int, t: int, aux: Hypergraph, sizes: list[int]) -> tuple[tuple, TwoColoring]:
    """Blocks of `sizes`, the last one carrying the auxiliary graph.  Red =
    k-sets inside one block other than the last, plus k-sets with one vertex
    in the second-last (connector) block whose other k-1 form an aux edge."""
    _check_aux_graph(aux, k, t)
    if min(sizes) < 0:
        raise ValueError("n too small for the connector block")
    blocks = _blocks(sizes)
    bridge, last = len(sizes) - 2, len(sizes) - 1
    aux_edges = {tuple(blocks[last][v] for v in e) for e in aux.edges}
    # the connector vertex precedes the last block, so s[1:] is the aux part
    reds = (max(c[:last]) == k or (c[bridge] == 1 and c[last] == k - 1 and s[1:] in aux_edges)
            for s, c in _block_counts(k, blocks))
    return blocks, _colouring(k, sum(sizes), reds)


def loose_path_lb(k: int, chi: int, n: int, t: int, aux: Hypergraph) -> LowerBoundInstance:
    """The connector colouring on chi-2 blocks of order n-1, a connector block
    of order n-2k+1 and the auxiliary graph."""
    if k < 2:
        raise ValueError("need k >= 2")
    if chi < 2:
        raise ValueError("need chi >= 2")
    red_free = f"path:{k}:1:{n}"
    pattern_hypergraph(red_free)  # a ValueError for an order no loose path has
    blocks, col = _connector_colouring(k, t, aux, [n - 1] * (chi - 2) + [n - 2 * k + 1, aux.n])
    return LowerBoundInstance(
        coloring=col,
        claimed_red_free=red_free,
        claimed_blue_free=f"split target, classes {(chi - 1)} x >(chi-1)(k-2)+{aux.n} and {t}",
        partition=blocks,
        parameters={"k": k, "chi": chi, "n": n, "t": t, "aux_n": aux.n, "N": col.n},
        blue_target=split_target(k, chi, t, aux.n),
    )


def split_target(k: int, chi: int, t: int, tau_value: int) -> Hypergraph:
    """The target hypergraph of the loose lower bounds: chi-1 classes of size
    (chi-1)(k-2)+tau_value+1, one class of size t, edges = all k-sets meeting
    some class in exactly k-1 vertices."""
    big = (chi - 1) * (k - 2) + tau_value + 1
    blocks = _blocks([big] * (chi - 1) + [t])
    edges = tuple(s for s, c in _block_counts(k, blocks) if k - 1 in c)
    return Hypergraph(k, big * (chi - 1) + t, edges)


def loose_cycle_lb(
    k: int,
    chi: int,
    n: int,
    t: int,
    variant: str,
    q: int | None = None,
    aux: Hypergraph | None = None,
) -> LowerBoundInstance:
    """Two loose-cycle lower-bound colourings.

    "tau" variant: the loose-path connector colouring on chi-1 blocks of
    order n-1 and the auxiliary graph (the connector is the last full-size
    block); flagged as reconstructed because the source describes it by
    reference.
    "pencil" variant: last block of size q; the i-th (k-1)-subset of the last
    block extends redly into block i only.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if chi < 2:
        raise ValueError("need chi >= 2")
    red_free = f"cycle:{k}:1:{n}"
    pattern_hypergraph(red_free)  # a ValueError for an order no loose cycle has
    if variant == "tau":
        if aux is None:
            raise ValueError("tau variant needs the auxiliary graph")
        blocks, col = _connector_colouring(k, t, aux, [n - 1] * (chi - 1) + [aux.n])
        return LowerBoundInstance(
            coloring=col,
            claimed_red_free=red_free,
            claimed_blue_free=f"split target, tau variant, t={t}",
            partition=blocks,
            parameters={"k": k, "chi": chi, "n": n, "t": t, "variant": variant, "N": col.n},
            blue_target=split_target(k, chi, t, aux.n),
            flags=("tau-variant-reconstructed",),
        )
    if variant == "pencil":
        if q is None:
            raise ValueError("pencil variant needs q")
        if chi <= comb(q, k - 1):
            raise ValueError(f"pencil variant needs chi > C({q},{k - 1}) = {comb(q, k - 1)}")
        big_n = (n - 1) * (chi - 1) + q
        blocks = _blocks([n - 1] * (chi - 1) + [q])
        last = chi - 1
        pencil = {p: i for i, p in enumerate(combinations(blocks[last], k - 1))}
        # with k-1 vertices in the last block, s[1:] is the pencil set and
        # the one other vertex's block is the first with count 1
        reds = (max(c[:last]) == k or (c[last] == k - 1 and pencil.get(s[1:]) == c.index(1))
                for s, c in _block_counts(k, blocks))
        return LowerBoundInstance(
            coloring=_colouring(k, big_n, reds),
            claimed_red_free=red_free,
            claimed_blue_free=f"split target, pencil variant, t={t}",
            partition=blocks,
            parameters={"k": k, "chi": chi, "n": n, "t": t, "q": q, "variant": variant, "N": big_n},
            # class sizes need max{tau(k-1,t), q}; the lower-construction size
            # is exact for k=3
            blue_target=split_target(k, chi, t, max(tau_lower_construction(k - 1, t).n, q)),
        )
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# tight paths against tournament hypergraphs (3-uniform)


def _tournament_blowup(t: Tournament, size: int) -> tuple[tuple, TwoColoring]:
    """One block of `size` per tournament vertex; red = within-block triples
    plus two-in-i one-in-j triples along arcs (i, j)."""
    blocks = _blocks([size] * t.n)
    arcs = set(t.arcs())
    reds = ((c.index(2), c.index(1)) in arcs if 2 in c else max(c) == 3
            for _, c in _block_counts(3, blocks))
    return blocks, _colouring(3, size * t.n, reds)


def non_transitive_lb(m: int, t: int) -> LowerBoundInstance:
    """The blow-up of the transitive tournament on m-1 vertices with blocks
    of size t: red = within-block triples and two-in-i one-in-j for i < j."""
    if m < 2 or t < 1:
        raise ValueError("need m >= 2, t >= 1")
    blocks, col = _tournament_blowup(Tournament.transitive(m - 1), t)
    return LowerBoundInstance(
        coloring=col,
        claimed_red_free=f"tight path on > t+floor(t/2)+1 = {t + t // 2 + 1} vertices",
        claimed_blue_free="any tournament hypergraph of a non-transitive tournament",
        partition=blocks,
        parameters={"m": m, "t": t, "N": col.n},
    )


def transitive_lb(t: Tournament, n: int) -> LowerBoundInstance:
    """The blow-up of t with blocks of size floor(2n/3)-2."""
    size = (2 * n) // 3 - 2
    if size < 1:
        raise ValueError("block size would be < 1")
    blocks, col = _tournament_blowup(t, size)
    return LowerBoundInstance(
        coloring=col,
        claimed_red_free=f"path:3:2:{n}",
        claimed_blue_free="tth:chi:m for chi with T TT_chi-free and m >= R_vec(chi)",
        partition=blocks,
        parameters={"n": n, "block_size": size, "tournament_n": t.n, "N": col.n},
    )


# ---------------------------------------------------------------------------
# extremal graphs for the no-two-edge-loose-path function


def tau_lower_construction(k: int, alpha: int) -> Hypergraph:
    """Disjoint complete k-graphs on 2k-2 vertices plus isolated vertices:
    independence alpha-1, no two-edge loose path.

    Below the nontrivial regime (alpha < k) returns alpha-1 isolated vertices.
    """
    if k < 2 or alpha < 1:
        raise ValueError("need k >= 2 and alpha >= 1")
    if alpha < k:
        return Hypergraph(k, alpha - 1, ())
    r = (alpha - 1) // (k - 1)
    s = (alpha - 1) - r * (k - 1)
    n = r * (2 * k - 2) + s
    edges = []
    for block in range(r):
        base = block * (2 * k - 2)
        for e in combinations(range(base, base + 2 * k - 2), k):
            edges.append(e)
    return Hypergraph(k, n, tuple(edges))
