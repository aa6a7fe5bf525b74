"""Data model for k-uniform hypergraphs, 2-colourings, tournaments and chromatic data.

Vertices are always the integers 0..n-1.  Edge colourings of the complete
k-graph are stored as a bitmap over all k-subsets of [n], indexed by
colexicographic rank, so that looking up or flipping the colour of one edge is
O(k) arithmetic and a whole colouring is a single Python int.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter
from random import Random
from typing import Iterable, Iterator, Sequence


class GuardExceeded(RuntimeError):
    """An exact search passed its size guard, or its node budget (raised on node budget + 1, with `stats`)."""

    def __init__(self, message: str, stats: dict | None = None):
        super().__init__(message)
        self.stats = stats


# ---------------------------------------------------------------------------
# colexicographic ranking of k-subsets


def colex_rank(subset: Sequence[int]) -> int:
    """Rank of a sorted tuple of distinct vertices in colexicographic order.

    rank({a1 < a2 < ... < ak}) = sum_i C(a_i, i); this is a bijection from
    k-subsets of the nonnegative integers onto 0, 1, 2, ...
    """
    rank = 0
    prev = -1
    for i, a in enumerate(subset, start=1):
        if a <= prev:
            raise ValueError(f"subset {tuple(subset)} is not sorted and distinct")
        prev = a
        rank += comb(a, i)
    return rank


def colex_unrank(rank: int, k: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`colex_rank` for k-subsets of [n]."""
    total = comb(n, k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for C({n},{k}) = {total}")
    out = []
    r = rank
    for i in range(k, 0, -1):
        a = i - 1
        while comb(a + 1, i) <= r:
            a += 1
        out.append(a)
        r -= comb(a, i)
    out.reverse()
    return tuple(out)


@lru_cache(maxsize=128)
def colex_subsets(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of [n] in colexicographic order."""
    return tuple(sorted(combinations(range(n), k), key=lambda s: s[::-1]))


@lru_cache(maxsize=128)
def mask_ranks(k: int, n: int) -> dict[int, int]:
    """Vertex mask (bit v set for vertex v) -> colex rank, for every k-subset of [n].

    The one index from edges to colour bits: colour lookup, relabelling and
    the searches all read it.
    """
    return {sum(1 << v for v in s): r for r, s in enumerate(colex_subsets(k, n))}


class _Lazy(dict):
    """A dict that fills in a missing key with `fill(key)` on first lookup."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


@lru_cache(maxsize=128)
def _face_gathers(k: int, n: int) -> dict[int, itemgetter]:
    """(k-1)-vertex mask f -> the getter of the ranks of f | x for x from n-1
    down to 0, the pad rank C(n, k) for an x in f.  Built face by face on
    first use and shared by every colouring of this shape."""
    ranks, pad = mask_ranks(k, n), comb(n, k)
    return _Lazy(lambda face: itemgetter(*[pad if face >> x & 1 else ranks[face | 1 << x]
                                           for x in reversed(range(n))]))


def _twin_classes(k: int, n: int, red_bits: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(the twin classes, the red degrees) of the colouring of the k-subsets
    of [n] whose red edges are the ranks set in red_bits; the classes are
    each sorted, in order of their least vertex.

    u and v are twins when swapping them maps the colouring to itself: for
    every (k-1)-set S avoiding both, S | {u} and S | {v} have the same
    colour.  Twins have the same red degree.  Being twins is an equivalence
    relation, since (u w) = (u v)(v w)(u v), so each vertex is compared with
    the first vertex of each class of its red degree only.  A vertex's red
    link, the (k-1)-sets S with S | {v} red, is a bitmask over their colex
    ranks, so a comparison is one XOR outside the sets that hold u or v, and
    its red degree is the link's bit count.
    """
    faces = mask_ranks(k - 1, n)
    link = [0] * n     # link[v]: bit rank(S) set when S | {v} is red
    holding = [0] * n  # holding[v]: bit rank(S) set when v is in S
    for r, face in enumerate(colex_subsets(k - 1, n)):
        for v in face:
            holding[v] |= 1 << r
    edges, red = colex_subsets(k, n), red_bits
    while red:
        low = red & -red
        red ^= low
        e = edges[low.bit_length() - 1]
        mask = 0
        for v in e:
            mask |= 1 << v
        for v in e:
            link[v] |= 1 << faces[mask ^ 1 << v]
    degrees = tuple(x.bit_count() for x in link)
    classes: list[list[int]] = []
    by_degree: dict[int, list[list[int]]] = {}
    for v in range(n):
        same_degree = by_degree.setdefault(degrees[v], [])
        for cls in same_degree:
            u = cls[0]
            if not (link[u] ^ link[v]) & ~(holding[u] | holding[v]):
                cls.append(v)
                break
        else:
            same_degree.append([v])
            classes.append(same_degree[-1])
    return tuple(map(tuple, classes)), degrees


def check_permutation(perm: Sequence[int], n: int) -> None:
    """ValueError unless perm is a permutation of 0..n-1: every relabelling
    checks its vertex map here."""
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{list(perm)!r} is not a permutation of 0..{n - 1}")


def rank_image(k: int, n: int, perm: Sequence[int]) -> list[int]:
    """The vertex permutation v -> perm[v] acting on colex ranks: entry r is
    the rank of the image of the k-subset of [n] with rank r.  ValueError
    unless perm is a permutation of 0..n-1."""
    check_permutation(perm, n)
    ranks = mask_ranks(k, n)
    moved = [1 << v for v in perm]
    image = []
    for s in colex_subsets(k, n):
        mask = 0
        for v in s:
            mask |= moved[v]
        image.append(ranks[mask])
    return image


# ---------------------------------------------------------------------------
# hypergraphs


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on vertices 0..n-1 with edges in colex order."""

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("uniformity k must be at least 2")
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = []
        for e in self.edges:
            t = tuple(sorted(e))
            if len(set(t)) != self.k:
                raise ValueError(f"edge {e} does not have {self.k} distinct vertices")
            if t[0] < 0 or t[-1] >= self.n:
                raise ValueError(f"edge {e} has a vertex outside 0..{self.n - 1}")
            canon.append(t)
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate edges")
        canon.sort(key=colex_rank)
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg

    def relabel(self, perm: Sequence[int]) -> "Hypergraph":
        """The hypergraph with an edge {perm[v] : v in e} for each edge e;
        ValueError unless perm is a permutation of 0..n-1."""
        check_permutation(perm, self.n)
        return Hypergraph(self.k, self.n, tuple(tuple(sorted(perm[v] for v in e)) for e in self.edges))


def complete_hypergraph(k: int, n: int) -> Hypergraph:
    return Hypergraph(k, n, tuple(combinations(range(n), k)))


def single_edge(k: int) -> Hypergraph:
    return Hypergraph(k, k, (tuple(range(k)),))


def ell_path(k: int, ell: int, n: int) -> Hypergraph:
    """The k-uniform path on n vertices whose consecutive edges overlap in ell vertices.

    Exists only for n >= k with n = ell (mod k-ell); edge i covers the window of
    k consecutive vertices starting at i*(k-ell).
    """
    if not 1 <= ell <= k - 1:
        raise ValueError(f"ell must satisfy 1 <= ell <= k-1, got ell={ell}, k={k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if (n - ell) % (k - ell) != 0:
        raise ValueError(
            f"no such path: n={n} must satisfy n = {ell} (mod {k - ell})"
        )
    q = (n - ell) // (k - ell)
    edges = [tuple(range(i * (k - ell), i * (k - ell) + k)) for i in range(q)]
    return Hypergraph(k, n, tuple(edges))


def ell_cycle(k: int, ell: int, n: int) -> Hypergraph:
    """The k-uniform cycle on n vertices with consecutive overlaps of ell vertices."""
    if not 1 <= ell <= k - 1:
        raise ValueError(f"ell must satisfy 1 <= ell <= k-1, got ell={ell}, k={k}")
    if n % (k - ell) != 0:
        raise ValueError(
            f"no such cycle: n={n} must satisfy n = 0 (mod {k - ell})"
        )
    if n < k:
        raise ValueError(f"degenerate cycle: wrap repeats a vertex (n={n} < k={k})")
    q = n // (k - ell)
    edges = []
    for i in range(q):
        e = tuple(sorted((i * (k - ell) + j) % n for j in range(k)))
        edges.append(e)
    if len(set(edges)) != q:
        raise ValueError(f"degenerate cycle: edges coincide at n={n}, k={k}, ell={ell}")
    return Hypergraph(k, n, tuple(edges))


def fano() -> Hypergraph:
    """The 7-point plane from the cyclic difference set {0,1,3} mod 7.

    The constructor checks that every pair of points lies in exactly one
    line, so any correct line set is interchangeable with this one.
    """
    lines = [tuple(sorted(((i + d) % 7 for d in (0, 1, 3)))) for i in range(7)]
    hg = Hypergraph(3, 7, tuple(lines))
    cover = {pair: 0 for pair in combinations(range(7), 2)}
    for e in hg.edges:
        for pair in combinations(e, 2):
            cover[pair] += 1
    if any(c != 1 for c in cover.values()):
        raise AssertionError("pair coverage violated")
    return hg


# ---------------------------------------------------------------------------
# tournaments


@dataclass(frozen=True)
class Tournament:
    """An orientation of the complete graph on 0..n-1.

    For each pair i < j, bit colex_rank((i, j)) of `bits` is 1 iff the arc is
    i -> j (and 0 iff it is j -> i).
    """

    n: int
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >= (1 << comb(self.n, 2)):
            raise ValueError("arc bitmap out of range")

    @staticmethod
    def _pair_rank(i: int, j: int) -> int:
        return i + comb(j, 2)

    def has_arc(self, u: int, v: int) -> bool:
        """True iff the arc u -> v is present."""
        if u == v:
            raise ValueError("no loops in a tournament")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"arc ({u}, {v}) has a vertex outside 0..{self.n - 1}")
        if u < v:
            return bool(self.bits >> self._pair_rank(u, v) & 1)
        return not self.bits >> self._pair_rank(v, u) & 1

    def arcs(self) -> Iterator[tuple[int, int]]:
        for i, j in combinations(range(self.n), 2):
            yield (i, j) if self.has_arc(i, j) else (j, i)

    def relabel(self, perm: Sequence[int]) -> "Tournament":
        """The tournament with an arc perm[u] -> perm[v] for each arc u -> v;
        ValueError unless perm is a permutation of 0..n-1."""
        check_permutation(perm, self.n)
        return Tournament.from_arcs(self.n, [(perm[u], perm[v]) for u, v in self.arcs()])

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Tournament":
        seen = {}
        bits = 0
        for u, v in arcs:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) is not a pair of distinct vertices of 0..{n - 1}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"pair {key} oriented twice")
            seen[key] = True
            if u < v:
                bits |= 1 << cls._pair_rank(u, v)
        if len(seen) != comb(n, 2):
            raise ValueError("not every pair is oriented")
        return cls(n, bits)

    @classmethod
    def transitive(cls, n: int) -> "Tournament":
        """The transitive tournament with arcs i -> j for all i < j."""
        return cls(n, (1 << comb(n, 2)) - 1 if n >= 2 else 0)

    @classmethod
    def cyclic_triangle(cls) -> "Tournament":
        return cls.from_arcs(3, [(0, 1), (1, 2), (2, 0)])

    @classmethod
    def random(cls, n: int, rng: Random) -> "Tournament":
        bits = rng.getrandbits(comb(n, 2)) if n >= 2 else 0
        return cls(n, bits)


# ---------------------------------------------------------------------------
# two-colourings of complete k-graphs


RED = "red"
BLUE = "blue"


def check_colour(colour: str) -> None:
    """ValueError unless colour is RED or BLUE: every colour-class lookup
    checks its colour here."""
    if colour != RED and colour != BLUE:
        raise ValueError(f"colour must be {RED!r} or {BLUE!r}, not {colour!r}")


@dataclass(frozen=True)
class TwoColoring:
    """A red/blue colouring of all k-subsets of [n]: bit r set = edge of rank r is red."""

    k: int
    n: int
    red_bits: int

    def __post_init__(self):
        if self.red_bits < 0 or self.red_bits >= (1 << self.num_edges):
            raise ValueError("red bitmap has bits outside 0..C(n,k)-1")

    @property
    def num_edges(self) -> int:
        return comb(self.n, self.k)

    @cached_property
    def _ranks(self) -> dict[int, int]:
        return mask_ranks(self.k, self.n)

    def rank(self, edge: Iterable[int]) -> int:
        """Colex rank of the edge; ValueError unless it is a k-subset of [n]."""
        mask = count = 0
        for v in edge:
            mask |= 1 << v
            count += 1
        r = self._ranks.get(mask)
        if r is None or count != self.k:
            raise ValueError(f"{edge!r} is not a {self.k}-subset of 0..{self.n - 1}")
        return r

    def is_red(self, edge: Iterable[int]) -> bool:
        return bool(self.red_bits >> self.rank(edge) & 1)

    @cached_property
    def _links(self) -> tuple[dict[int, int], dict[int, int]]:
        gathers, full = _face_gathers(self.k, self.n), (1 << self.n) - 1
        digits = format(self.red_bits, f"0{self.num_edges}b")[::-1] + "0"  # digit r: is rank r red; then the pad
        red = _Lazy(lambda face: int("".join(gathers[face](digits)), 2))
        return red, _Lazy(lambda face: full & ~face & ~red[face])

    def link(self, colour: str) -> dict[int, int]:
        """The link index of the colour class: each (k-1)-vertex mask f maps
        to the mask of the vertices x for which f | x has `colour`.  Filled in
        face by face on first lookup and kept on the colouring, so every
        search on it shares one index.  A red face is one C-level gather of
        the rank-indexed colour digits, read as a binary numeral; a blue
        face is the vertices outside f and the red face.  ValueError on any
        other colour."""
        check_colour(colour)
        return self._links[colour == BLUE]

    @cached_property
    def _twins(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
        classes, red = _twin_classes(self.k, self.n, self.red_bits)
        total = comb(self.n - 1, self.k - 1)
        return classes, red, tuple(total - d for d in red)

    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """The vertices grouped into twin classes (`_twin_classes`), each
        sorted, in order of their least vertex.  Found on first use and kept
        on the colouring with its degrees, so every search on it shares
        them."""
        return self._twins[0]

    def degrees(self, colour: str) -> tuple[int, ...]:
        """Each vertex's degree in the colour class, kept on the colouring
        with its twin classes; ValueError on any other colour."""
        check_colour(colour)
        return self._twins[1 if colour == RED else 2]

    def class_bits(self, colour: str) -> int:
        """The colour class as a bitmask over colex ranks: red is `red_bits`,
        blue its complement; ValueError on any other colour."""
        check_colour(colour)
        return self.red_bits if colour == RED else self.red_bits ^ ((1 << self.num_edges) - 1)

    def edges_of(self, colour: str) -> list[tuple[int, ...]]:
        cls = self.class_bits(colour)
        return [s for r, s in enumerate(colex_subsets(self.k, self.n)) if cls >> r & 1]

    def relabel(self, perm: Sequence[int]) -> "TwoColoring":
        """The colouring in which edge {perm[v] : v in e} has the colour of e;
        ValueError unless perm is a permutation of 0..n-1."""
        bits = 0
        for r, image in enumerate(rank_image(self.k, self.n, perm)):
            if self.red_bits >> r & 1:
                bits |= 1 << image
        return TwoColoring(self.k, self.n, bits)

    @classmethod
    def all_blue(cls, k: int, n: int) -> "TwoColoring":
        return cls(k, n, 0)

    @classmethod
    def from_red_edges(cls, k: int, n: int, red_edges: Iterable[Iterable[int]]) -> "TwoColoring":
        col = cls(k, n, 0)
        bits = 0
        for e in red_edges:
            bits |= 1 << col.rank(e)
        return cls(k, n, bits)

    @classmethod
    def random(cls, k: int, n: int, red_probability: float, seed: int = 0) -> "TwoColoring":
        rng = Random(seed)
        bits = 0
        for r in range(comb(n, k)):
            if rng.random() < red_probability:
                bits |= 1 << r
        return cls(k, n, bits)


# ---------------------------------------------------------------------------
# chi / sigma and the general Ramsey lower bound


@dataclass(frozen=True)
class RamseyProfile:
    """Exact chromatic number, minimum colour-class size, and a witness colouring."""

    chi: int
    sigma: int
    witness: tuple[int, ...]
    flags: tuple[str, ...] = ()


def _proper_colourings(hg: Hypergraph, colours: int) -> Iterator[tuple[int, ...]]:
    """All proper vertex colourings using colours 0..colours-1, up to colour
    relabelling (canonical first-use order), in lexicographic order."""
    n = hg.n
    edges_by_last = [[] for _ in range(n)]
    for e in hg.edges:
        edges_by_last[e[-1]].append(e)
    assignment = [0] * n

    def rec(v: int, used: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(assignment)
            return
        cap = min(used + 1, colours)
        for c in range(cap):
            assignment[v] = c
            ok = True
            for e in edges_by_last[v]:
                first = assignment[e[0]]
                if first == c and all(assignment[u] == c for u in e[1:-1]):
                    ok = False
                    break
            if ok:
                yield from rec(v + 1, max(used, c + 1))
        assignment[v] = 0

    yield from rec(0, 0)


PROFILE_GUARD = 16  # most vertices `ramsey_profile` searches


def ramsey_profile(hg: Hypergraph) -> RamseyProfile:
    """Exact chi and sigma of a hypergraph by exhaustive proper-colouring search.

    A colouring is proper when no edge is monochromatic; sigma is the smallest
    colour class over all proper colourings with exactly chi colours.  Past
    PROFILE_GUARD vertices it raises GuardExceeded.
    """
    if hg.n == 0:
        raise ValueError("empty hypergraph has no chromatic data")
    if hg.n > PROFILE_GUARD:
        raise GuardExceeded(f"{hg.n} vertices exceeds exact-search guard {PROFILE_GUARD}")
    chi = None
    for c in range(1, hg.n + 1):
        if next(_proper_colourings(hg, c), None) is not None:
            chi = c
            break
    if chi is None:  # colouring every vertex differently is always proper
        raise AssertionError(f"no proper colouring of {hg.n} vertices found")
    best_sigma = None
    best_witness = None
    for assignment in _proper_colourings(hg, chi):
        sizes = [0] * chi
        for c in assignment:
            sizes[c] += 1
        s = min(sizes)
        if best_sigma is None or s < best_sigma:
            best_sigma = s
            best_witness = assignment
    flags = ("edgeless-chi-1",) if chi == 1 else ()
    return RamseyProfile(chi, best_sigma, best_witness, flags)


@dataclass(frozen=True)
class BurrBound:
    """The general lower bound (v(G)-1)(chi-1)+sigma, with its hypothesis flag."""

    value: int
    hypothesis_ok: bool


def burr_bound(v_g: int, profile: RamseyProfile) -> BurrBound:
    """Lower bound for R(G, H) from chi(H) and sigma(H); needs v(G) >= sigma(H).

    When the hypothesis fails the value is still computed, with a warning flag.
    """
    value = (v_g - 1) * (profile.chi - 1) + profile.sigma
    return BurrBound(value, hypothesis_ok=v_g >= profile.sigma)


# ---------------------------------------------------------------------------
# tournament hypergraphs


def tournament_hypergraph(t: Tournament, m: int) -> tuple[Hypergraph, tuple[tuple[int, ...], ...]]:
    """The 3-graph whose edges are two vertices of class i plus one of class j per arc (i, j).

    Classes A_1..A_{v(T)} are the consecutive blocks of size m.  Returns the
    hypergraph together with its class partition.
    """
    if m < 1:
        raise ValueError("class size m must be at least 1")
    classes = tuple(tuple(range(i * m, (i + 1) * m)) for i in range(t.n))
    edges = []
    for i, j in t.arcs():
        for x, y in combinations(classes[i], 2):
            for z in classes[j]:
                edges.append(tuple(sorted((x, y, z))))
    return Hypergraph(3, t.n * m, tuple(edges)), classes


@lru_cache(maxsize=128)
def transitive_tournament_hypergraph(chi: int, m: int) -> tuple[Hypergraph, tuple[tuple[int, ...], ...]]:
    """H(TT_chi, m) with its classes, built once per (chi, m) and shared:
    both are frozen."""
    return tournament_hypergraph(Tournament.transitive(chi), m)


# ---------------------------------------------------------------------------
# JSON interchange (bit-exact formats shared by all modules and the CLI)


def hypergraph_to_json(hg: Hypergraph) -> dict:
    return {"k": hg.k, "n": hg.n, "edges": [list(e) for e in hg.edges]}


def is_int(value) -> bool:
    """True for an integer read from JSON; a JSON boolean is not one, though
    Python's bool is an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def hypergraph_from_json(obj: dict) -> Hypergraph:
    if not isinstance(obj, dict):
        raise ValueError("a hypergraph is a JSON object")
    k, n, edges = obj["k"], obj["n"], obj["edges"]
    if not (is_int(k) and is_int(n) and isinstance(edges, list)
            and all(isinstance(e, list) and all(is_int(v) for v in e) for e in edges)):
        raise ValueError("a hypergraph has integer k and n and edges that are lists of integers")
    return Hypergraph(k, n, tuple(tuple(e) for e in edges))


def coloring_to_json(col: TwoColoring) -> dict:
    nbytes = (col.num_edges + 7) // 8
    raw = col.red_bits.to_bytes(nbytes, "little")
    return {
        "k": col.k,
        "n": col.n,
        "encoding": "colex-v1",
        "red_bitmap": base64.b64encode(raw).decode("ascii"),
    }


def coloring_from_json(obj: dict) -> TwoColoring:
    if not isinstance(obj, dict):
        raise ValueError("a colouring is a JSON object")
    if obj.get("encoding") != "colex-v1":
        raise ValueError(f"unsupported colouring encoding {obj.get('encoding')!r}")
    k, n, bitmap = obj["k"], obj["n"], obj["red_bitmap"]
    if not (is_int(k) and is_int(n) and isinstance(bitmap, str)):
        raise ValueError("a colouring has integer k and n and a string red_bitmap")
    raw = base64.b64decode(bitmap)
    expected = (comb(n, k) + 7) // 8
    if len(raw) != expected:
        raise ValueError(f"bitmap length {len(raw)} != expected {expected} bytes")
    return TwoColoring(k, n, int.from_bytes(raw, "little"))


def tournament_to_json(t: Tournament) -> dict:
    return {"n": t.n, "arcs": [list(a) for a in t.arcs()]}


def tournament_from_json(obj: dict) -> Tournament:
    if not isinstance(obj, dict):
        raise ValueError("a tournament is a JSON object")
    n, arcs = obj["n"], obj["arcs"]
    if not (is_int(n) and isinstance(arcs, list)
            and all(isinstance(a, list) and len(a) == 2 and all(is_int(v) for v in a) for a in arcs)):
        raise ValueError("a tournament has integer n and arcs that are pairs of integers")
    return Tournament.from_arcs(n, [tuple(a) for a in arcs])
