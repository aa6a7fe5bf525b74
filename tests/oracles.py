"""Brute-force oracles, independent of the library's search paths.

Everything here enumerates naively: all injective vertex sequences, all
bitmaps, all subsets.  The point is that no pruning or data-structure trick is
shared with the code under test.
"""

from itertools import combinations, permutations
from math import comb

from hyperramsey.core import Hypergraph, Tournament, TwoColoring, colex_rank
from hyperramsey.search import pattern_hypergraph


def all_red(k: int, n: int) -> TwoColoring:
    """The colouring of K_n^(k) with every edge red."""
    return TwoColoring(k, n, (1 << comb(n, k)) - 1)


def has_colour(col: TwoColoring, edge, colour: str) -> bool:
    """Does the edge, a k-subset of the colouring's vertices in any order,
    have the colour?  ValueError on any other edge or colour."""
    return bool(col.class_bits(colour) >> col.rank(edge) & 1)


def naive_longest_mono_path(col: TwoColoring, ell: int, colour: str) -> int:
    """Max vertex count of a monochromatic ell-path by trying every injective
    vertex sequence of every admissible length."""
    k = col.k
    best_edges = 0
    q = 1
    while ell + q * (k - ell) <= col.n:
        length = ell + q * (k - ell)
        found = False
        for seq in permutations(range(col.n), length):
            ok = True
            for i in range(q):
                if not has_colour(col, seq[i * (k - ell): i * (k - ell) + k], colour):
                    ok = False
                    break
            if ok:
                found = True
                break
        if not found:
            break
        best_edges = q
        q += 1
    return ell + best_edges * (k - ell)


def naive_path_witness(col: TwoColoring, ell: int, colour: str) -> tuple[int, list[int]]:
    """(vertices, witness) of a longest monochromatic ell-path by a plain DFS
    over every path, with no memo and no bound.  Paths are grown in the
    documented order: roots are the class edges in colex order, each with
    every ordered ell-set of it as boundary and its other vertices sorted
    before it; a path ending in boundary B tries the class edges through B
    and otherwise unused, in colex order, and for each edge every split of
    its new vertices into sorted interior and ordered new boundary part, in
    order of (interior, new boundary).  The witness is the first path to
    reach each new maximum, None when no edge has the colour."""
    k, step = col.k, col.k - ell
    edges = sorted((e for e in combinations(range(col.n), k) if has_colour(col, e, colour)),
                   key=lambda e: e[::-1])  # colex: compare the largest vertices first
    through = {}  # boundary set -> the class edges holding it, in colex order
    for e in edges:
        for bnd in combinations(e, ell):
            through.setdefault(frozenset(bnd), []).append(e)
    best = [0, None]

    def grow(seq: list[int], edges_so_far: int) -> None:
        if edges_so_far > best[0]:
            best[:] = [edges_so_far, list(seq)]
        boundary = seq[len(seq) - ell:]
        for e in through.get(frozenset(boundary), ()):
            fresh = [v for v in e if v not in boundary]
            if any(v in seq for v in fresh):
                continue
            for interior, arr in sorted((tuple(v for v in fresh if v not in arr), arr)
                                        for arr in permutations(fresh, min(ell, step))):
                grow(seq + list(interior) + list(arr), edges_so_far + 1)

    for e in edges:
        for bnd in permutations(e, ell):
            grow(sorted(v for v in e if v not in bnd) + list(bnd), 1)
    return ell + best[0] * step, best[1]


def naive_find_copy(col: TwoColoring, target: Hypergraph, colour: str, forbidden=frozenset()):
    """First monochromatic copy of the target over all injective maps into
    the vertices outside `forbidden`."""
    for hosts in permutations([v for v in range(col.n) if v not in forbidden], target.n):
        if all(has_colour(col, [hosts[v] for v in e], colour) for e in target.edges):
            return hosts
    return None


def naive_twin_classes(col: TwoColoring) -> list[tuple[int, ...]]:
    """The vertices grouped by which ones the transposition of the two maps
    the colouring to itself, each group sorted, in order of least vertex."""
    classes: list[tuple[int, ...]] = []
    for v in range(col.n):
        for u in range(v):
            swap = list(range(col.n))
            swap[u], swap[v] = v, u
            if col.relabel(swap) == col:
                break
        else:
            classes.append(tuple(w for w in range(v, col.n) if w == v or col.relabel(
                [v if x == w else w if x == v else x for x in range(col.n)]) == col))
    return classes


def naive_copy_masks(target: Hypergraph, n: int) -> list[list[int]]:
    """Every copy of the target in K_n^(k) as the mask of its edges' colex
    ranks, found over all injective maps of its vertices into 0..n-1, each
    mask once, sorted and bucketed by its highest rank."""
    masks = {sum(1 << colex_rank(sorted(hosts[v] for v in e)) for e in target.edges)
             for hosts in permutations(range(n), target.n)}
    buckets = [[] for _ in range(comb(n, target.k))]
    for mask in sorted(masks):
        buckets[mask.bit_length() - 1].append(mask)
    return buckets


def naive_link(col: TwoColoring, colour: str) -> dict[int, int]:
    """The link index of one colour class, face by face: for every
    (k-1)-subset f of the vertices, as a mask, bit x is set iff x is not in
    f and f with x added has `colour`."""
    link = {}
    for face in combinations(range(col.n), col.k - 1):
        link[sum(1 << v for v in face)] = sum(
            1 << x for x in range(col.n) if x not in face and has_colour(col, face + (x,), colour))
    return link


def naive_find_clique(col: TwoColoring, size: int, colour: str, pool=None):
    """First `size`-set of the pool, in the lexicographic order of
    `combinations` over the sorted pool, whose k-subsets all have `colour`."""
    vertices = sorted(range(col.n) if pool is None else pool)
    for sub in combinations(vertices, size):
        if all(has_colour(col, e, colour) for e in combinations(sub, col.k)):
            return sub
    return None


def naive_find_connector(col: TwoColoring, k: int, ell: int, q: int, side_a, side_b, pool):
    """First sequence, among the `permutations` of the sorted pool, of a red
    k-uniform ell-path with q edges whose first ell vertices lie in side_a
    and last ell in side_b."""
    order = ell + q * (k - ell)
    for seq in permutations(sorted(pool), order):
        if all(v in side_a for v in seq[:ell]) and all(v in side_b for v in seq[order - ell:]) \
                and all(col.is_red(seq[i * (k - ell): i * (k - ell) + k]) for i in range(q)):
            return seq
    return None


def naive_graph_path(adj: dict, length: int):
    """First sequence, among the `permutations` of the sorted vertex set, of
    a simple path with `length` edges in the graph."""
    for seq in permutations(sorted(adj), length + 1):
        if all(seq[i + 1] in adj[seq[i]] for i in range(length)):
            return list(seq)
    return None


def naive_independence(hg: Hypergraph) -> int:
    for size in range(hg.n, -1, -1):
        for sub in combinations(range(hg.n), size):
            s = set(sub)
            if all(not set(e) <= s for e in hg.edges):
                return size
    return 0


def naive_tau(k: int, alpha: int) -> int:
    """tau(k, alpha): the largest n <= 2 alpha - 2 with an n-vertex k-graph of
    independence number below alpha in which no two edges share exactly one
    vertex.  Recurses over every such edge family, in lexicographic order,
    until one passes `naive_independence`."""
    best = 0
    for n in range(2 * alpha - 1):
        edges = list(combinations(range(n), k))

        def some_family(start: int, family: list) -> bool:
            if naive_independence(Hypergraph(k, n, tuple(family))) < alpha:
                return True
            return any(some_family(i + 1, family + [edges[i]]) for i in range(start, len(edges))
                       if all(len(set(edges[i]) & set(f)) != 1 for f in family))

        if some_family(0, []):
            best = n
    return best


def naive_chromatic(hg: Hypergraph) -> tuple[int, int]:
    """(chi, sigma) by trying every colour assignment."""
    for c in range(1, hg.n + 1):
        best_sigma = None
        for assignment in _assignments(hg.n, c):
            if len(set(assignment)) != c:
                continue
            if any(len({assignment[v] for v in e}) == 1 for e in hg.edges):
                continue
            sizes = [assignment.count(i) for i in range(c)]
            s = min(sizes)
            if best_sigma is None or s < best_sigma:
                best_sigma = s
        if best_sigma is not None:
            return c, best_sigma
    raise AssertionError("some colouring is always proper")


def _assignments(n: int, c: int):
    if n == 0:
        yield ()
        return
    for rest in _assignments(n - 1, c):
        for col in range(c):
            yield rest + (col,)


def naive_free(col: TwoColoring, red_target: Hypergraph, blue_target: Hypergraph) -> bool:
    return naive_find_copy(col, red_target, "red") is None and \
        naive_find_copy(col, blue_target, "blue") is None


def free_colorings_bruteforce(red_pattern: Hypergraph | str, blue_target: Hypergraph | str, n: int) -> list[int]:
    """Every red bitmap of K_n^(k) that `naive_free` accepts, by trying all
    2^C(n,k) of them; feasible for C(n,k) <= ~10 bits."""
    red, blue = (pattern_hypergraph(side) if isinstance(side, str) else side for side in (red_pattern, blue_target))
    return [bits for bits in range(1 << comb(n, red.k))
            if naive_free(TwoColoring(red.k, n, bits), red, blue)]


def naive_has_tt(t: Tournament, chi: int, through: int | None = None) -> bool:
    """Does the tournament contain a transitive chi-set, by trying every
    ordered chi-subset; with `through`, one that contains that vertex."""
    arcs = set(t.arcs())
    for seq in permutations(range(t.n), chi):
        if (through is None or through in seq) and \
                all(pair in arcs for pair in combinations(seq, 2)):
            return True
    return False


def path_edges(seq, k: int, ell: int) -> list[tuple[int, ...]]:
    """Edge windows of the vertex sequence read as a k-uniform ell-path: one
    every k-ell positions.  ValueError for a length no ell-path has."""
    n = len(seq)
    if n < k or (n - ell) % (k - ell) != 0:
        raise ValueError(f"sequence of length {n} is not an ell-path shape for k={k}, ell={ell}")
    q = (n - ell) // (k - ell)
    return [tuple(seq[i * (k - ell): i * (k - ell) + k]) for i in range(q)]


def cycle_edges(seq, k: int, ell: int) -> list[tuple[int, ...]]:
    """Edge windows of the vertex sequence read cyclically as a k-uniform
    ell-cycle.  ValueError for a length no ell-cycle has."""
    n = len(seq)
    if n < k or n % (k - ell) != 0:
        raise ValueError(f"sequence of length {n} is not an ell-cycle shape for k={k}, ell={ell}")
    q = n // (k - ell)
    return [tuple(seq[(i * (k - ell) + j) % n] for j in range(k)) for i in range(q)]


def window_mono_path(col: TwoColoring, seq, ell: int, colour: str) -> bool:
    """A path witness checked window by window: distinct host vertices, a
    length some ell-path has, every window of the colour."""
    seq = list(seq)
    if len(set(seq)) != len(seq) or any(not 0 <= v < col.n for v in seq):
        return False
    try:
        windows = path_edges(seq, col.k, ell)
    except ValueError:
        return False
    return all(has_colour(col, w, colour) for w in windows)


def window_mono_cycle(col: TwoColoring, seq, ell: int, colour: str) -> bool:
    """A cycle witness checked window by window, as `window_mono_path`, and
    with no two windows on the same vertex set."""
    seq = list(seq)
    if len(set(seq)) != len(seq) or any(not 0 <= v < col.n for v in seq):
        return False
    try:
        windows = cycle_edges(seq, col.k, ell)
    except ValueError:
        return False
    if len(set(tuple(sorted(w)) for w in windows)) != len(windows):
        return False
    return all(has_colour(col, w, colour) for w in windows)
