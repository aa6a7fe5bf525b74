"""Clique chains and the machinery that builds them.

A clique chain is an ordered vertex set covered by intervals, each inducing a
red clique, with consecutive intervals overlapping in exactly ell positions.
Because interval starts sit on the (k-ell)-grid, every window of k
consecutive vertices starting on the grid lies inside one interval.  So the
vertex order of a valid chain is a spanning ell-path (ell-cycle when the
chain is closed), and so is each prefix of it whose order an ell-path has:
its windows end before the wrap.

Intervals are stored as (start, length) pairs over the chain's index space;
for closed chains the index space is cyclic and intervals may wrap.
`chain_from_runs` is the one place that lays a chain out from vertex runs;
every chain built or rebuilt here or in the engines goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .core import BLUE, RED, TwoColoring, colex_subsets, mask_ranks
from .search import Certificate, embed, find_mono_clique, path_plan

OPEN = "open"
CLOSED = "closed"


@dataclass(frozen=True)
class CliqueChain:
    kind: str
    k: int
    ell: int
    vertices: tuple[int, ...]
    intervals: tuple[tuple[int, int], ...]  # (start, length)
    flags: tuple[str, ...] = ()

    @property
    def p(self) -> int:
        return len(self.vertices)

    def element_positions(self, j: int) -> list[int]:
        s, length = self.intervals[j]
        if self.kind == OPEN:
            return list(range(s, s + length))
        return [(s + i) % self.p for i in range(length)]

    def element_vertices(self, j: int) -> list[int]:
        return [self.vertices[i] for i in self.element_positions(j)]

    def is_flexible(self, j: int) -> bool:
        return self.intervals[j][1] > max(self.k, 2 * self.ell)

    def flexible_elements(self) -> list[int]:
        return [j for j in range(len(self.intervals)) if self.is_flexible(j)]

    def junction_positions(self) -> set[int]:
        """Positions shared by consecutive intervals (the spine positions)."""
        out: set[int] = set()
        d = len(self.intervals)
        juncs = range(1, d) if self.kind == OPEN else range(d)
        for j in juncs:
            s = self.intervals[j][0]
            for i in range(self.ell):
                out.add((s + i) % self.p if self.kind == CLOSED else s + i)
        return out

    def spine_vertices(self) -> set[int]:
        return {self.vertices[i] for i in self.junction_positions()}


Run = tuple[list[int], bool]  # (vertices, whole)


def chain_from_runs(kind: str, k: int, ell: int, runs: list[Run],
                    flags: tuple[str, ...] = ()) -> CliqueChain:
    """Lay out a chain from `(vertices, whole)` runs.

    Each run begins with the last ell vertices of the previous run.  A whole
    run becomes one element; any other run is split into its k-windows, one
    every k-ell positions.  A closed chain's last run ends with the first
    run's first ell vertices, which are not repeated in the vertex list.
    Raises ValueError when a run breaks the boundary or a closed chain does
    not wrap.
    """
    seq: list[int] = []
    intervals: list[tuple[int, int]] = []
    for verts, whole in runs:
        verts = list(verts)
        start = len(seq) - ell if seq else 0
        if seq and verts[:ell] != seq[start:]:
            raise ValueError("run does not begin with the previous run's last ell vertices")
        if whole:
            intervals.append((start, len(verts)))
        else:
            q = (len(verts) - ell) // (k - ell)
            intervals.extend((start + i * (k - ell), k) for i in range(q))
        seq.extend(verts[ell:] if seq else verts)
    if kind == CLOSED:
        if seq[len(seq) - ell:] != seq[:ell]:
            raise ValueError("closed chain's last run does not wrap into its first")
        del seq[len(seq) - ell:]
    return CliqueChain(kind, k, ell, tuple(seq), tuple(intervals), flags)


def replace_element(chain: CliqueChain, j: int, runs: list[Run], flag: str) -> CliqueChain:
    """`chain` with element j replaced by the given runs, flagged with `flag`.

    An open chain keeps its element order and its other elements whole.  A
    closed chain is re-rooted at element j+1 so the replacement sits at the
    wrap; there an element is kept whole only when flexible (a rigid element
    is split into its windows).  The result is not validated.
    """
    d = len(chain.intervals)
    if chain.kind == OPEN:
        kept = [(chain.element_vertices(jj), True) for jj in range(d)]
        out = kept[:j] + list(runs) + kept[j + 1:]
    else:
        order = [(j + step) % d for step in range(1, d)]
        out = [(chain.element_vertices(jj), chain.is_flexible(jj)) for jj in order] + list(runs)
    return chain_from_runs(chain.kind, chain.k, chain.ell, out, chain.flags + (flag,))


def validate_chain(chain: CliqueChain, coloring: TwoColoring | None = None) -> Certificate:
    """Check all chain invariants; redness of the elements is checked when a
    colouring is supplied.  Violations are reported per offending interval."""
    problems: list[str] = []
    k, ell, p = chain.k, chain.ell, chain.p
    d = len(chain.intervals)
    if chain.kind not in (OPEN, CLOSED):
        problems.append(f"unknown kind {chain.kind!r}")
    if len(set(chain.vertices)) != p:
        problems.append("vertex list has repeats")
    if coloring is not None and any(not 0 <= v < coloring.n for v in chain.vertices):
        problems.append("vertex outside the host")
    if d == 0:
        problems.append("no intervals")
    if chain.kind == CLOSED and d < 2:
        problems.append("closed chain needs at least two elements")
    if chain.kind == CLOSED and p <= k:
        problems.append("closed chain order must exceed k (wrap would repeat an edge)")
    for j, (s, length) in enumerate(chain.intervals):
        if length < k:
            problems.append(f"interval {j}: length {length} < k")
        if (length - ell) % (k - ell) != 0:
            problems.append(f"interval {j}: length {length} != ell (mod k-ell)")
        if length > p:
            problems.append(f"interval {j}: longer than the chain")
    if not problems:
        # consecutive overlaps of exactly ell, in order, covering everything;
        # a closed chain's last interval also overlaps the first in ell
        if chain.intervals[0][0] != 0:
            problems.append("interval 0 must start at position 0")
        for j in range(1, d):
            prev_s, prev_len = chain.intervals[j - 1]
            if chain.intervals[j][0] != prev_s + prev_len - ell:
                problems.append(f"interval {j}: junction overlap is not exactly ell")
        if not problems:
            last_s, last_len = chain.intervals[-1]
            if chain.kind == OPEN and last_s + last_len != p:
                problems.append("intervals do not cover the chain")
            if chain.kind == CLOSED and last_s + last_len - ell != p:
                problems.append("cyclic closure overlap is not exactly ell")
    red_failures = []
    if coloring is not None and not problems:
        for j in range(d):
            verts = chain.element_vertices(j)
            for sub in combinations(sorted(verts), k):
                if not coloring.is_red(sub):
                    red_failures.append((j, sub))
                    break
    if red_failures:
        problems.extend(f"interval {j}: k-set {sub} is not red" for j, sub in red_failures)
    kind = "chain" if not problems else "chain_invalid"
    return Certificate(kind=kind, witness={"vertices": list(chain.vertices),
                                           "intervals": [list(i) for i in chain.intervals],
                                           "kind": chain.kind, "k": k, "ell": ell},
                       detail={"problems": problems})


def cut_open(chain: CliqueChain) -> CliqueChain:
    """Open a closed chain by splitting one flexible element in two, discarding
    the few middle vertices needed to keep both parts = ell (mod k-ell).

    The split point is the median of the element's span; the choice is recorded
    in the result's flags.
    """
    if chain.kind == OPEN:
        return chain
    k, ell = chain.k, chain.ell
    d = len(chain.intervals)

    def others(j: int) -> list[Run]:
        """Elements j+1, ..., j-1 in cyclic order, each kept whole."""
        return [(chain.element_vertices((j + step) % d), True) for step in range(1, d)]

    candidates = sorted(range(d), key=lambda j: -chain.intervals[j][1])
    for j in candidates:
        length = chain.intervals[j][1]
        if length // 2 < k:
            continue
        # left part anchored at the element start, right part at its end; a
        # part is k plus a multiple of k - ell long, as k = ell (mod k - ell),
        # and the right part has at least length // 2 >= k vertices to use
        left = (length // 2 - k) // (k - ell) * (k - ell) + k
        right = (length - left - k) // (k - ell) * (k - ell) + k
        discard = length - left - right
        # the right part opens the chain and the left part ends it
        elem = chain.element_vertices(j)
        runs = [(elem[length - right:], True)] + others(j) + [(elem[:left], True)]
        out = chain_from_runs(OPEN, k, ell, runs,
                              flags=chain.flags + (f"cut-open:element={j},discarded={discard}",))
        cert = validate_chain(out)
        if cert.kind == "chain":
            return out
    # no element is splittable: drop the smallest element instead, keeping its
    # junction vertices inside the neighbouring elements
    if d >= 2:
        j = min(range(d), key=lambda jj: (chain.intervals[jj][1], jj))
        out = chain_from_runs(OPEN, k, ell, others(j),
                              flags=chain.flags + (f"cut-open:dropped-element={j}",))
        cert = validate_chain(out)
        if cert.kind == "chain":
            return out
    raise ValueError("no flexible element is large enough to cut open")


# ---------------------------------------------------------------------------
# monochromatic clique partition


@dataclass
class CliquePartition:
    blocks: list[tuple[str, tuple[int, ...]]]  # (colour, vertices)
    leftover: tuple[int, ...]

    def red_blocks(self) -> list[tuple[int, ...]]:
        return [b for c, b in self.blocks if c == RED]

    def blue_blocks(self) -> list[tuple[int, ...]]:
        return [b for c, b in self.blocks if c == BLUE]


def clique_partition(col: TwoColoring, red_size: int, blue_size: int) -> CliquePartition:
    """Greedy repeated extraction of red or blue cliques of the given orders.

    Every red clique is extracted before any blue one: a red search that fails
    on a pool fails on every subset of it, so none is repeated.  The leftover
    is directly verified to contain neither clique: each colour's loop only
    stops when its search comes back empty.
    """
    if red_size < col.k or blue_size < col.k:
        raise ValueError("clique orders must be at least k")
    remaining = list(range(col.n))
    blocks: list[tuple[str, tuple[int, ...]]] = []
    for colour, size in ((RED, red_size), (BLUE, blue_size)):
        while (clique := find_mono_clique(col, size, colour, pool=remaining)) is not None:
            blocks.append((colour, clique))
            remaining = [v for v in remaining if v not in clique]
    return CliquePartition(blocks, tuple(remaining))


# ---------------------------------------------------------------------------
# doubled-tree closed walks


def double_tree_walk(edges: list[tuple[int, int]]) -> list[int]:
    """Closed walk of a tree that visits every vertex and traverses every edge
    exactly twice (once per direction), via depth-first traversal from the
    least vertex.

    The walk is returned as a vertex list whose first and last entries agree;
    it is empty for no edges.
    """
    if not edges:
        return []
    vertices = sorted({v for e in edges for v in e})
    if len(edges) != len(vertices) - 1:
        raise ValueError("edge count does not match a tree")
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        if u == v:
            raise ValueError("loops are not tree edges")
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    start = vertices[0]
    walk = [start]
    seen = {start}

    def dfs(u: int):
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                walk.append(w)
                dfs(w)
                walk.append(u)

    dfs(start)
    if len(seen) != len(vertices):
        raise ValueError("input is not connected, hence not a tree")
    return walk


# ---------------------------------------------------------------------------
# path systems


@dataclass
class PathSystem:
    k: int
    ell: int
    t: int
    forest_edges: list[tuple[int, int]]
    paths: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]]
    stalled: bool = False
    diagnostic: str | None = None
    stall_blocks: tuple[int, ...] = ()

    def used_vertices(self) -> set[int]:
        out: set[int] = set()
        for pair in self.paths.values():
            for path in pair:
                out.update(path)
        return out

    def components(self) -> list[set[int]]:
        parent = list(range(self.t))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.forest_edges:
            parent[find(u)] = find(v)
        comps: dict[int, set[int]] = {}
        for v in range(self.t):
            comps.setdefault(find(v), set()).add(v)
        return sorted(comps.values(), key=min)


def q0(k: int, ell: int) -> int:
    """Minimum length of an ell-path on at least max(k, 2*ell) vertices."""
    return -(-ell // (k - ell))


def _path_order(k: int, ell: int, q: int) -> int:
    return q * (k - ell) + ell


def find_connector(col: TwoColoring, k: int, ell: int, q: int,
                   side_a: list[int], side_b: list[int], pool: set[int]) -> tuple[int, ...] | None:
    """First red ell-path of length q whose first ell vertices lie in side_a,
    last ell in side_b, all vertices drawn from the pool.

    One `embed` call on the sequential path plan: host vertices are tried in
    increasing order and each position checks the edge ending there, so the
    answer is the lexicographically first such vertex sequence.  The kernel
    reads the colouring's red link index (`TwoColoring.link`), filled in as
    its branches reach each face and shared with every other search on the
    colouring."""
    if k != col.k:
        raise ValueError("uniformity mismatch")
    order = _path_order(k, ell, q)
    pool_mask = sum(1 << v for v in pool)
    if pool_mask >> col.n:
        raise ValueError(f"pool must hold vertices of 0..{col.n - 1}")
    a_mask = b_mask = 0
    for v in side_a:
        a_mask |= 1 << v
    for v in side_b:
        b_mask |= 1 << v
    a_mask &= pool_mask
    b_mask &= pool_mask
    if a_mask.bit_count() < ell or b_mask.bit_count() < ell:
        return None
    # a position among both the first and the last ell (a path too short to
    # keep its ends apart) must lie in both sides
    allowed = [(a_mask if i < ell else pool_mask) & (b_mask if i >= order - ell else pool_mask)
               for i in range(order)]
    image = [-1] * order
    if embed(path_plan(k, ell, order), col.link(RED), allowed, image, 0, 0, {"nodes": 0, "prunes": 0}):
        return tuple(image)
    return None


def _find_short_connector(col: TwoColoring, ell: int, side_a: list[int], side_b: list[int],
                          pool: set[int]) -> tuple[int, ...] | None:
    """The first connector of the least length whose order is at most 2k."""
    k = col.k
    for q in range(1, (2 * k - ell) // (k - ell) + 1):
        if q == 1 and 2 * ell > k:
            continue  # the two ends of a single edge overlap, cannot join disjoint sets
        got = find_connector(col, k, ell, q, side_a, side_b, pool)
        if got is not None:
            return got
    return None


Join = tuple[int, int, tuple[int, ...], tuple[int, ...]]  # (i, j, path, path), i < j


def _connector_join(col: TwoColoring, avail: dict[int, list[int]]) -> list[Join]:
    """The ell = k-1 join step: disjoint connectors between the blocks'
    available vertices until two join one pair, whose forest edge it returns.
    A connector read backwards joins its pair the other way round, so each
    pair is searched once, lower block first."""
    k = col.k
    pool = {v for vs in avail.values() for v in vs}
    found: dict[tuple[int, int], tuple[int, ...]] = {}
    while True:
        for i, j in combinations(sorted(avail), 2):
            p = find_connector(col, k, k - 1, q0(k, k - 1), [v for v in avail[i] if v in pool],
                               [v for v in avail[j] if v in pool], pool)
            if p is not None:
                break
        else:
            return []
        if (i, j) in found:
            return [(i, j, found[(i, j)], p)]
        found[(i, j)] = p
        pool -= set(p)


def _matching_join(col: TwoColoring, avail: dict[int, list[int]]) -> list[Join]:
    """The ell = 1 join step: a greedy red crossing matching in colex order,
    grouped by block signature as it is found.  The first signature with two
    edges per consecutive pair of its blocks yields those pairs' forest edges,
    each edge read from its lower block to its higher one."""
    k = col.k
    block_of = {v: i for i, vs in avail.items() for v in vs}
    bits, taken = col.red_bits, ~sum(1 << v for v in block_of)  # taken: not free to match
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for (emask, r), e in zip(mask_ranks(k, col.n).items(), colex_subsets(k, col.n)):
        if emask & taken or not bits >> r & 1:
            continue
        sig = tuple(sorted(block_of[v] for v in e))
        if sig[0] != sig[-1]:
            groups.setdefault(sig, []).append(e)
            taken |= emask
    for sig, es in sorted(groups.items()):
        support = sorted(set(sig))
        if len(es) >= 2 * (len(support) - 1):
            joins = []
            for step, (a, b) in enumerate(zip(support, support[1:])):
                pair = []
                for e in es[2 * step: 2 * step + 2]:
                    first = min(v for v in e if block_of[v] == a)
                    last = min(v for v in e if block_of[v] == b)
                    pair.append((first, *sorted(set(e) - {first, last}), last))
                joins.append((a, b, *pair))
            return joins
    return []


def _augmenting_join(col: TwoColoring, blocks: list[tuple[int, ...]], system: PathSystem) -> Join | None:
    """The first block pair, across two components, with two disjoint short
    connectors through vertices the system does not use; None when no pair
    has them."""
    pool = set(range(col.n)) - system.used_vertices()
    for comp_a, comp_b in combinations(system.components(), 2):
        for i, j in product(sorted(comp_a), sorted(comp_b)):
            lo, hi = min(i, j), max(i, j)
            p1 = _find_short_connector(col, system.ell, list(blocks[lo]), list(blocks[hi]), pool)
            if p1 is None:
                continue
            p2 = _find_short_connector(col, system.ell, list(blocks[lo]), list(blocks[hi]),
                                       pool - set(p1))
            if p2 is not None:
                return lo, hi, p1, p2
    return None


def build_path_system(col: TwoColoring, blocks: list[tuple[int, ...]], ell: int,
                      alpha: int) -> PathSystem:
    """Iteratively connect red-clique blocks by pairs of short vertex-disjoint
    red ell-paths until fewer than alpha forest components remain, then add
    further forest edges while any two disjoint short connectors exist between
    distinct components.

    Each phase joins the components' least used blocks: by connectors for
    ell = k-1, by a crossing matching for ell = 1.  A stall (no join while
    >= alpha components remain) is returned as a first-class outcome; it
    indicates the blue side of the dichotomy.
    """
    k = col.k
    if ell not in (1, k - 1):
        raise ValueError("path systems are built for ell = 1 or ell = k-1 only")
    system = PathSystem(k, ell, len(blocks), [], {})
    if not blocks:
        return system

    def add_edges(joins: list[Join]):
        for i, j, p1, p2 in joins:
            system.forest_edges.append((i, j))
            system.paths[(i, j)] = (p1, p2)

    while len(comps := system.components()) >= alpha:
        u = system.used_vertices()
        reps = [min(comp, key=lambda i: (sum(1 for v in blocks[i] if v in u), i)) for comp in comps]
        avail = {i: [v for v in blocks[i] if v not in u] for i in reps}
        joins = _connector_join(col, avail) if ell == k - 1 else _matching_join(col, avail)
        if not joins:
            system.stalled = True
            system.diagnostic = (
                f"no connector among blocks {tuple(reps)} with >= {alpha} components left"
            )
            system.stall_blocks = tuple(reps)
            return system
        add_edges(joins)

    # augmentation: join components while two disjoint short connectors
    # exist; it ends only when no such pair joins two components, which is
    # exactly the guarantee the assembled chains rely on
    while (join := _augmenting_join(col, blocks, system)) is not None:
        add_edges([join])
    return system


# ---------------------------------------------------------------------------
# chain assembly


@dataclass
class AssemblyReport:
    chains: list[CliqueChain]
    leftover: tuple[int, ...]


def _reserve_junction_path(k: int, ell: int, tail: tuple[int, ...], head: tuple[int, ...],
                           block: tuple[int, ...], used: set[int]) -> tuple[int, ...]:
    """An in-block ell-path of length q0 starting with `tail` and ending with
    `head`; fresh interior vertices are the lowest-index unused block vertices.
    Inside a red clique block any such sequence is red."""
    need = _path_order(k, ell, q0(k, ell)) - 2 * ell
    fresh = [v for v in block if v not in used and v not in tail and v not in head]
    if len(fresh) < need:
        raise ValueError(f"block {block[:3]}... has no room for a junction path")
    return tuple(tail) + tuple(fresh[:need]) + tuple(head)


def assemble_chains(col: TwoColoring, blocks: list[tuple[int, ...]],
                    system: PathSystem) -> AssemblyReport:
    """Join each forest component's blocks into one closed clique chain.

    The doubled-tree walk of the component is the template: its steps are
    replaced by the system's connector paths, alternating with reserved
    in-block junction paths; one junction path per block is then inflated to a
    flexible element of maximal size with the right residue.  Components with
    a single block and no edges become flagged single-element open chains.
    The report's leftover is the block vertices no chain covers.
    """
    k, ell = system.k, system.ell
    if system.stalled:
        raise ValueError("cannot assemble a stalled path system")
    chains: list[CliqueChain] = []
    used_global: set[int] = set(system.used_vertices())

    for comp in system.components():
        comp_edges = [e for e in system.forest_edges if e[0] in comp]
        if not comp_edges:
            i = min(comp)
            block = [v for v in blocks[i] if v not in used_global]
            length = len(block)
            while length >= k and (length - ell) % (k - ell) != 0:
                length -= 1
            if length < k:
                continue
            verts = sorted(block)[:length]
            chains.append(chain_from_runs(OPEN, k, ell, [(verts, True)],
                                          flags=(f"trivial-single-block:{i}",)))
            used_global.update(verts)
            continue

        walk = double_tree_walk(comp_edges)
        steps = list(zip(walk, walk[1:]))  # b = 2 e(T) steps
        # hand each step one unused copy of its edge's two paths
        remaining: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for key, (p1, p2) in system.paths.items():
            if key in comp_edges:
                remaining[key] = [p1, p2]
        conns: list[tuple[int, ...]] = []
        for u, v in steps:
            key = (min(u, v), max(u, v))
            path = remaining[key].pop()
            if u != key[0]:
                path = tuple(reversed(path))
            conns.append(path)  # runs from V_u to V_v

        used = set(used_global)
        for p in conns:
            used.update(p)
        # reserve junction paths: junction j sits in block walk[j], between
        # conns[j-1] (arriving) and conns[j] (leaving)
        b = len(steps)
        junctions: list[tuple[int, ...]] = []
        for j in range(b):
            arriving = conns[(j - 1) % b]
            leaving = conns[j]
            tail = arriving[len(arriving) - ell:]
            head = leaving[:ell]
            jp = _reserve_junction_path(k, ell, tail, head, blocks[walk[j]], used)
            used.update(jp)
            junctions.append(jp)

        # inflate one junction per block to a flexible element
        inflate_at: dict[int, int] = {}
        for j in range(b):
            blk = walk[j]
            if blk not in inflate_at:
                inflate_at[blk] = j
        extras: dict[int, list[int]] = {}
        for blk, j in inflate_at.items():
            room = [v for v in blocks[blk] if v not in used]
            add = (len(room) // (k - ell)) * (k - ell)
            take = room[:add]
            extras[j] = take
            used.update(take)

        # the cyclic run list starts at the first junction path; the final
        # connector wraps into its first ell vertices
        inflated_js = set(inflate_at.values())

        def junction_element(j: int) -> list[int]:
            jp = junctions[j]
            if j in inflated_js and extras.get(j):
                middle = sorted(list(jp[ell: len(jp) - ell]) + extras[j])
                return list(jp[:ell]) + middle + list(jp[len(jp) - ell:])
            return list(jp)

        runs: list[Run] = []  # an inflated junction is one flexible element
        for j in range(b):
            runs.append((junction_element(j), j in inflated_js))
            runs.append((list(conns[j]), False))
        chain = chain_from_runs(CLOSED, k, ell, runs)
        cert = validate_chain(chain, col)
        if cert.kind != "chain":
            raise AssertionError(f"assembled chain failed validation: {cert.detail['problems']}")
        chains.append(chain)
        used_global.update(chain.vertices)

    all_block_vertices = {v for b in blocks for v in b}
    leftover = tuple(sorted(all_block_vertices - used_global))
    return AssemblyReport(chains, leftover)
