"""Exact monochromatic-substructure searchers with re-checkable certificates.

Every search either returns a witness (a path, an embedding, an independent
set, ...) that re-validates against the input in a single pass, or attests
absence after exhausting its search space.  Every budgeted search stops as
the DFSs in `exact` do, raising `GuardExceeded(message, stats)` on node
DEFAULT_NODE_BUDGET + 1: `find_mono_copy` and `longest_mono_ell_path`.
Each catches the stop at its entry and reports `exact: false` instead of
silently approximating.  `independence_number` (like `core.ramsey_profile`)
raises `GuardExceeded` past its guard.

The lower-bound colourings the searches certify are blow-ups of blocks, so
their vertices fall into twin classes (`twin_classes`): any permutation of a
class maps the colouring to itself.  `longest_mono_ell_path` visits one
state per orbit of those permutations, and `find_mono_copy` tries one
candidate per class at each step.  Neither changes a witness, a vertex count
or an exact flag; they only cut nodes, and on a colouring without twins
they search as if there were none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations

from .core import (
    BLUE,
    GuardExceeded,
    Hypergraph,
    RED,
    Tournament,
    TwoColoring,
    check_colour,
    colex_subsets,
    complete_hypergraph,
    ell_cycle,
    ell_path,
    fano,
    hypergraph_to_json,
    single_edge,
    transitive_tournament_hypergraph,
)

DEFAULT_NODE_BUDGET = 500_000  # nodes per search (per order in `exact`)
INDEPENDENCE_GUARD = 20        # most vertices `independence_number` searches


@dataclass
class Certificate:
    """A machine-checkable search outcome.

    Absence attestations have no witness.  A cycle's witness is its cyclic
    vertex sequence; an embedding's is a host-vertex list indexed by target
    vertex.  The detail keys of each kind state nothing the witness or the
    kind already states:
      red_path, blue_path, red_cycle, blue_cycle: ell, k, exact (an engine's
        witness: ell, k);
      red_embedding, blue_embedding: target (hypergraph JSON) when found, and
        exact; an engine's names its `via`; an absence that needs no search
        gives its `reason`, a cycle's too;
      free: red_pattern, blue_pattern, exact;
      independent_set, tt_embedding: exact;
      chain, chain_invalid: problems, empty for a chain;
      blue_crossing_attestation: blocks, exact.
    """

    kind: str
    witness: object = None
    stats: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.witness is not None

    def to_json(self) -> dict:
        return {"kind": self.kind, "witness": self.witness, "stats": self.stats, "detail": self.detail}

    @classmethod
    def from_json(cls, obj: dict) -> "Certificate":
        """Read a certificate back; a ValueError names what is malformed."""
        if not (isinstance(obj, dict) and isinstance(obj.get("kind"), str)
                and isinstance(obj.get("stats", {}), dict) and isinstance(obj.get("detail", {}), dict)):
            raise ValueError("a certificate is an object with a string kind and object stats and detail")
        return cls(obj["kind"], obj.get("witness"), dict(obj.get("stats", {})), dict(obj.get("detail", {})))


# ---------------------------------------------------------------------------
# witness validators (single linear pass; used by tests, engines and cmd_check)


def witness_fault(col: TwoColoring, target: Hypergraph | str, witness: list[int], colour: str) -> str | None:
    """Why `witness`, the host vertex of each target vertex, is no copy of
    `target` in `colour`, or None when it is one.  A path or cycle witness
    is its vertex sequence read against the pattern string of its order,
    whose hypergraph `core.ell_path` or `core.ell_cycle` builds: an order the
    shape cannot have is the fault they name."""
    if isinstance(target, str):
        try:
            target = pattern_hypergraph(target)
        except ValueError as exc:
            return str(exc)
    if len(witness) != target.n:
        return f"witness has {len(witness)} vertices, its target {target.n}"
    if len(set(witness)) != len(witness):
        return "witness repeats a vertex"
    if any(not 0 <= v < col.n for v in witness):
        return f"witness has a vertex outside 0..{col.n - 1}"
    cls = col.class_bits(colour)
    for e in target.edges:
        edge = [witness[v] for v in e]
        if not cls >> col.rank(edge) & 1:
            return f"edge {sorted(edge)} is not {colour}"
    return None


def validate_mono_path(col: TwoColoring, seq, ell: int, colour: str) -> bool:
    """True iff the sequence is a `colour` ell-path of the colouring."""
    seq = list(seq)
    return witness_fault(col, f"path:{col.k}:{ell}:{len(seq)}", seq, colour) is None


def validate_mono_cycle(col: TwoColoring, seq, ell: int, colour: str) -> bool:
    """True iff the sequence, in cyclic order, is a `colour` ell-cycle."""
    seq = list(seq)
    return witness_fault(col, f"cycle:{col.k}:{ell}:{len(seq)}", seq, colour) is None


def validate_embedding(col: TwoColoring, target: Hypergraph, mapping, colour: str) -> bool:
    """True iff `mapping` is injective and sends every target edge to `colour`."""
    return witness_fault(col, target, list(mapping), colour) is None


# ---------------------------------------------------------------------------
# twin vertices


def twin_classes(col: TwoColoring) -> list[tuple[int, ...]]:
    """The colouring's vertices grouped into twin classes, each sorted, in
    order of their least vertex: swapping two vertices of a class maps the
    colouring to itself (`TwoColoring.twin_classes`, found once per
    colouring).  Every permutation of a class fixes the colouring, so the
    searches below may try one vertex of a class for all of it (Freuder,
    "Eliminating interchangeable values in constraint satisfaction
    problems", AAAI 1991).
    """
    return list(col.twin_classes())


# ---------------------------------------------------------------------------
# longest monochromatic ell-path


def longest_mono_ell_path(col: TwoColoring, ell: int, colour: str) -> tuple[int, Certificate]:
    """Exact maximum vertex count of a monochromatic ell-path, with a witness.

    Returns (vertices, certificate); a path with q edges has ell + q*(k-ell)
    vertices, so the no-edge degenerate path counts ell vertices, and its
    certificate has witness None, as every other absence has.  DFS over
    (ordered boundary, used set) states with a remaining-vertices bound.
    Roots are the class edges in increasing rank.  It stops on node
    DEFAULT_NODE_BUDGET + 1, inexact.

    A node is one state up to twins, visited once (a dynamic programme over
    (end, vertex set) states, as in Held & Karp, "A dynamic programming
    approach to sequencing problems", 1962).  Two states are equal up to
    twins when their boundaries have the same twin class (`twin_classes`)
    at each position and their used sets the same number of vertices in
    each class.  A permutation within the classes then maps one state onto
    the other and fixes the colouring, so both have the same used count,
    hence the same number of edges, and the same longest extension.  The
    visited set holds each state as its key: the class mask of each
    boundary vertex, in order, and the mask that holds the least u vertices
    of each class of which the state uses u.  A child or root whose key was
    visited is skipped; the check is made in the parent, before the call.
    On a colouring without twins the key names the state itself.

    The witness is the first path in DFS preorder with the most edges, and
    skipping a state cannot change it.  A state uses more vertices than
    each of its ancestors, so the visited key a state meets is that of a
    subtree the search has finished.  That subtree held every path that
    could beat the best path of its time, up to the permutation, and the
    best path only grows, so the skipped state could add no new maximum.
    And no state on the way to the first longest path is skipped: the
    finished subtree would already have given a path as long, earlier in
    preorder.

    The class edges are read once, in increasing colex rank, into a link
    table: for each ell-subset B of an edge e, links[mask(B)] gets the entry
    (mask of e - B, the class masks of its vertices, the sorted (interior,
    new boundary part) pairs of e - B, each with its part's key).
    A node on boundary B walks links[mask(B)], skips the entries that meet
    the used set and tries each pair in order.  Two edges through B compare
    in colex order as their parts outside B do, so the node tries its
    extensions in order of (edge rank, interior vertices, new boundary): the
    witness, the visited states and the node and prune counts are those of a
    search that lists the unused vertices at every node and sorts what it
    finds.
    """
    k = col.k
    if not 1 <= ell <= k - 1:
        raise ValueError("ell out of range")
    cls = col.class_bits(colour)
    stats = {"nodes": 0, "prunes": 0}
    best = {"edges": 0, "seq": None}
    seen: set[tuple[tuple[int, ...], int]] = set()  # states visited, up to twins
    step = k - ell
    fresh_pick = min(ell, step)  # new boundary vertices taken from each edge
    class_mask = [0] * col.n  # the mask of each vertex's twin class
    for twins in twin_classes(col):
        mask = sum(1 << v for v in twins)
        for v in twins:
            class_mask[v] = mask

    edges = [e for r, e in enumerate(colex_subsets(k, col.n)) if cls >> r & 1]
    links: dict[int, list[tuple[int, tuple[int, ...], list]]] = {}
    entries: dict[tuple[int, ...], tuple[int, tuple[int, ...], list]] = {}  # one per e - B
    for e in edges:
        emask = sum(1 << v for v in e)
        for bnd in combinations(e, ell):
            fresh = tuple(v for v in e if v not in bnd)
            entry = entries.get(fresh)
            if entry is None:
                exts = sorted((tuple(v for v in fresh if v not in pick), arr, sum(1 << v for v in arr),
                               tuple(class_mask[v] for v in arr))
                              for pick in combinations(fresh, fresh_pick) for arr in permutations(pick))
                entry = entries[fresh] = (sum(1 << v for v in fresh), tuple(class_mask[v] for v in fresh), exts)
            links.setdefault(emask ^ entry[0], []).append(entry)

    def dfs(boundary: tuple[int, ...], bmask: int, used: int, state: tuple[tuple[int, ...], int],
            edges_so_far: int, seq: list[int]) -> None:
        stats["nodes"] += 1
        if stats["nodes"] > DEFAULT_NODE_BUDGET:
            raise GuardExceeded(f"ell-path search on {col.n} vertices passed {DEFAULT_NODE_BUDGET} nodes", stats)
        if edges_so_far > best["edges"]:
            best["edges"] = edges_so_far
            best["seq"] = list(seq)
        seen.add(state)
        avail = col.n - used.bit_count()
        if edges_so_far + avail // step <= best["edges"]:
            stats["prunes"] += 1
            return
        kept, kept_classes, keep_mask = boundary[step:], state[0][step:], bmask
        for v in boundary[:step]:
            keep_mask ^= 1 << v
        for fresh, fresh_classes, exts in links.get(bmask, ()):
            if fresh & used:  # the boundary itself is always used
                continue
            tally = state[1]
            for twins in fresh_classes:  # a new vertex counts as the least uncounted one of its class
                free = twins & ~tally
                tally |= free & -free
            for interior, arr, arr_mask, arr_classes in exts:
                next_state = (kept_classes + arr_classes, tally)
                if next_state in seen:
                    continue
                seq.extend(interior)
                seq.extend(arr)
                dfs(kept + arr, keep_mask | arr_mask, used | fresh, next_state, edges_so_far + 1, seq)
                del seq[len(seq) - step:]

    try:
        for e in edges:
            used = tally = 0
            for v in e:
                used |= 1 << v
                free = class_mask[v] & ~tally
                tally |= free & -free
            for bnd in permutations(e, ell):
                state = (tuple(class_mask[v] for v in bnd), tally)
                if state in seen:
                    continue
                interior = sorted(v for v in e if v not in bnd)
                dfs(bnd, sum(1 << v for v in bnd), used, state, 1, interior + list(bnd))
        exact = True
    except GuardExceeded:  # budget spent: the best path so far is only a lower bound
        exact = False

    vertices = ell + best["edges"] * step
    cert = Certificate(
        kind=f"{colour}_path",
        witness=best["seq"],
        stats=stats,
        detail={"ell": ell, "k": k, "exact": exact},
    )
    return vertices, cert


# ---------------------------------------------------------------------------
# monochromatic copies of an arbitrary hypergraph


def _pattern_order(target: Hypergraph, first: tuple[int, ...] = ()) -> list[int]:
    """The `first` vertices, then most-constrained-first: max edges into the
    already-ordered set."""
    deg = target.degrees()
    order = list(first)
    placed = set(first)
    while len(order) < target.n:
        def score(v):
            anchored = sum(1 for e in target.edges if v in e and sum(1 for u in e if u in placed) == target.k - 1)
            touching = sum(1 for e in target.edges if v in e and any(u in placed for u in e))
            return (anchored, touching, deg[v], -v)
        v = max((v for v in range(target.n) if v not in placed), key=score)
        order.append(v)
        placed.add(v)
    return order


class EmbeddingPlan:
    """The order in which `embed` places the vertices of one target, and for
    each step the target edges that step completes, each given by its
    vertices placed earlier.  Built once per target (and anchor)."""

    def __init__(self, target: Hypergraph, first: tuple[int, ...] = ()):
        self.order = _pattern_order(target, first)
        pos = {v: i for i, v in enumerate(self.order)}
        self.completed: list[list[tuple[int, ...]]] = [[] for _ in self.order]
        for e in target.edges:
            last = max(pos[v] for v in e)
            self.completed[last].append(tuple(v for v in e if pos[v] != last))


@lru_cache(maxsize=128)
def path_plan(k: int, ell: int, order: int) -> EmbeddingPlan:
    """The plan that places the vertices of the k-uniform ell-path on `order`
    vertices in sequence, so step i checks the edge (if any) ending at i.
    Shared by every caller that asks for the same shape."""
    return EmbeddingPlan(ell_path(k, ell, order), tuple(range(order)))


def embed(plan: EmbeddingPlan, link: dict[int, int], allowed: list[int], image: list[int], used: int,
          i: int, stats: dict, node_budget: int | None = None, twins: tuple[int, ...] = ()) -> bool:
    """Backtracking injective embedding into one colour class.

    The class is read through its link index `link` (see
    `TwoColoring.link`), a dict from each (k-1)-vertex mask to the mask of
    the vertices that make a class edge with it; one that fills in missing
    faces on lookup will do.  The first i vertices of plan.order are
    already placed in `image` (target vertex -> host vertex), covering the
    host vertices in mask `used`; step j may only use host vertices in
    allowed[j].
    A step's candidates are one mask: allowed[i], less `used`, intersected
    with the link of every target edge the step completes (Ullmann's
    bit-vector refinement).  They are tried in increasing order.  Counts one
    node per call and one prune per candidate that breaks a completed edge:
    the rejected ones below a candidate are counted before recursing on it,
    the rest when the step fails, so a found embedding stops the count where
    a candidate-by-candidate loop would.  Given a node_budget, it raises
    `GuardExceeded(message, stats)` on node node_budget + 1.

    `twins` holds masks of host vertices such that swapping two vertices of
    one mask fixes the colour class and every allowed mask, as
    `find_mono_copy` hands it the twin classes; chains and engines pass
    none.  A step then tries only the least candidate of each mask.  A
    higher candidate fails as the least one did: swapping the two fixes
    every placed vertex too, so it maps one subtree onto the other.  So the
    first embedding found is unchanged.  The skipped candidates break no
    edge and are not counted as prunes.
    """
    stats["nodes"] += 1
    if node_budget is not None and stats["nodes"] > node_budget:
        raise GuardExceeded(f"embedding search passed {node_budget} nodes", stats)
    if i == len(plan.order):
        return True
    cand = good = allowed[i] & ~used
    for others in plan.completed[i]:
        if not good:
            break
        base = 0
        for u in others:
            base |= 1 << image[u]
        good &= link[base]
    bad = cand ^ good
    for cls in twins:  # the least candidate of a twin class stands for all of them
        same = good & cls
        good ^= same & (same - 1)
    tv = plan.order[i]
    counted = 0
    while good:
        bit = good & -good
        good ^= bit
        if bad:
            below = (bad & (bit - 1)).bit_count()
            stats["prunes"] += below - counted
            counted = below
        image[tv] = bit.bit_length() - 1
        if embed(plan, link, allowed, image, used | bit, i + 1, stats, node_budget, twins):
            return True
    stats["prunes"] += bad.bit_count() - counted
    return False


def find_mono_copy(col: TwoColoring, target: Hypergraph, colour: str,
                   forbidden: frozenset = frozenset()) -> Certificate:
    """Backtracking injective embedding of `target` into the given colour.

    Returns a certificate whose witness is a host-vertex list indexed by
    target vertex, or an exhaustive absence attestation (witness None).
    Vertices in `forbidden`, which must lie in 0..n-1, are excluded from the
    image.  On node DEFAULT_NODE_BUDGET + 1 it stops with no witness, inexact.
    `embed` reads the colouring's link index (`TwoColoring.link`) and gets
    its twin classes less the forbidden vertices: twins have the same
    degree, so every allowed mask holds both or neither.  The index, the
    degrees and the twin classes are kept on the colouring, so the searches
    on one colouring build each once, and a target larger than the host
    builds none.
    """
    k = col.k
    if target.k != k:
        raise ValueError("uniformity mismatch")
    if any(not 0 <= v < col.n for v in forbidden):
        raise ValueError(f"forbidden vertices must lie in 0..{col.n - 1}")
    check_colour(colour)
    stats = {"nodes": 0, "prunes": 0}
    if target.n > col.n - len(forbidden):
        return Certificate(kind=f"{colour}_embedding", witness=None, stats=stats,
                           detail={"exact": True, "reason": "target larger than host"})

    plan = EmbeddingPlan(target)
    tdeg = target.degrees()
    host_deg = col.degrees(colour)
    # a host vertex can take a target vertex only if its degree is no smaller
    allowed = [sum(1 << hv for hv in range(col.n) if hv not in forbidden and host_deg[hv] >= tdeg[tv])
               for tv in plan.order]
    # the twin classes outside `forbidden` with more than one vertex
    twins = tuple(mask for mask in (sum(1 << v for v in cls if v not in forbidden) for cls in twin_classes(col))
                  if mask & (mask - 1))
    image = [-1] * target.n
    try:
        if embed(plan, col.link(colour), allowed, image, 0, 0, stats, DEFAULT_NODE_BUDGET, twins):
            return Certificate(kind=f"{colour}_embedding", witness=image, stats=stats,
                               detail={"exact": True, "target": hypergraph_to_json(target)})
    except GuardExceeded:  # budget spent: absence is not attested
        return Certificate(kind=f"{colour}_embedding", witness=None, stats=stats, detail={"exact": False})
    return Certificate(kind=f"{colour}_embedding", witness=None, stats=stats, detail={"exact": True})


def find_mono_clique(
    col: TwoColoring,
    size: int,
    colour: str,
    pool: list[int] | None = None,
) -> tuple[int, ...] | None:
    """Lexicographically first `size`-set of `pool` whose k-subsets are all `colour`.

    The colour class is read through the colouring's link index
    (`TwoColoring.link`), which every search on the colouring shares.  DFS
    over candidate masks (Carraghan & Pardalos, Oper. Res. Lett. 1990, on
    k-graphs): a node holds the pool vertices above its last chosen vertex
    that make a class edge with every (k-1)-subset of the chosen ones.
    Taking the lowest candidate v keeps the higher candidates in the link of
    f | v for every (k-2)-subset f of the chosen vertices, one AND each
    (Ullmann's bit-vector refinement, 1976); a node whose candidates are
    fewer than the vertices it still needs is cut.
    """
    k = col.k
    pool = sorted(range(col.n)) if pool is None else sorted(pool)
    if len(set(pool)) != len(pool) or (pool and not 0 <= pool[0] <= pool[-1] < col.n):
        raise ValueError(f"pool must hold distinct vertices of 0..{col.n - 1}")
    link = col.link(colour)
    if size < k:
        return tuple(pool[:size]) if len(pool) >= size else None
    chosen: list[int] = []  # vertex bits

    def rec(cand: int) -> tuple[int, ...] | None:
        need = size - len(chosen)
        if need == 1:
            chosen.append(cand & -cand)
            return tuple(b.bit_length() - 1 for b in chosen)
        faces = [sum(f) for f in combinations(chosen, k - 2)]
        while cand.bit_count() >= need:
            bit = cand & -cand
            cand ^= bit
            rest = cand
            for f in faces:
                rest &= link[f | bit]
                if rest.bit_count() < need - 1:
                    break
            if rest.bit_count() >= need - 1:
                chosen.append(bit)
                got = rec(rest)
                if got is not None:
                    return got
                chosen.pop()
        return None

    return rec(sum(1 << v for v in pool))


# ---------------------------------------------------------------------------
# freeness verification


def parse_pattern(spec: str) -> tuple[str, dict]:
    """Parse a pattern mini-language string.

    Supported: path:k:ell:n, cycle:k:ell:n, clique:k:n, edge:k, fano,
    tth:chi:m (the transitive tournament hypergraph).
    """
    parts = spec.split(":")
    name = parts[0]
    try:
        args = [int(p) for p in parts[1:]]
    except ValueError:
        raise ValueError(f"cannot parse pattern {spec!r}") from None
    if name == "path" and len(args) == 3:
        return "path", {"k": args[0], "ell": args[1], "n": args[2]}
    if name == "cycle" and len(args) == 3:
        return "cycle", {"k": args[0], "ell": args[1], "n": args[2]}
    if name == "clique" and len(args) == 2:
        return "clique", {"k": args[0], "n": args[1]}
    if name == "edge" and len(args) == 1:
        return "edge", {"k": args[0]}
    if name == "fano" and not args:
        return "fano", {}
    if name == "tth" and len(args) == 2:
        return "tth", {"chi": args[0], "m": args[1]}
    raise ValueError(f"cannot parse pattern {spec!r}")


@lru_cache(maxsize=128)
def pattern_hypergraph(spec: str) -> Hypergraph:
    """The hypergraph a pattern string names (see `parse_pattern`).  Built
    once per spec and shared by every caller: a Hypergraph is frozen."""
    name, a = parse_pattern(spec)
    if name == "path":
        return ell_path(a["k"], a["ell"], a["n"])
    if name == "cycle":
        return ell_cycle(a["k"], a["ell"], a["n"])
    if name == "clique":
        return complete_hypergraph(a["k"], a["n"])
    if name == "edge":
        return single_edge(a["k"])
    if name == "fano":
        return fano()
    if name == "tth":
        return transitive_tournament_hypergraph(a["chi"], a["m"])[0]
    raise AssertionError


def as_hypergraph(side: Hypergraph | str) -> Hypergraph:
    """One side of a Ramsey pair, given as a hypergraph or a pattern string."""
    return pattern_hypergraph(side) if isinstance(side, str) else side


def search_pattern(col: TwoColoring, spec: str, colour: str) -> Certificate:
    """Search one colour for the pattern; path patterns use the dedicated
    longest-path search, everything else the generic embedding search."""
    name, a = parse_pattern(spec)
    target = pattern_hypergraph(spec)  # a ValueError for an order the shape cannot have
    if name == "path":
        if a["k"] != col.k:
            raise ValueError("uniformity mismatch")
        vertices, cert = longest_mono_ell_path(col, a["ell"], colour)
        # a longer path contains the target as a prefix
        cert.witness = cert.witness[:target.n] if vertices >= target.n else None
    else:
        cert = find_mono_copy(col, target, colour)
    if name == "cycle":  # the witness lists the cycle's vertices in cyclic order
        cert.kind = f"{colour}_cycle"
        cert.detail.pop("target", None)
        cert.detail.update(ell=a["ell"], k=a["k"])
    return cert


def verify_free(col: TwoColoring, red_pattern: Hypergraph | str, blue_target: Hypergraph | str) -> Certificate:
    """Certify that a colouring has no red copy of the pattern and no blue copy
    of the target (kind "free"), or return the certificate of the first copy
    found (red first): a `red_path`, `blue_embedding`, ... as `search_pattern`
    gives it for a pattern string and `find_mono_copy` for a hypergraph,
    which the `free` detail names "hypergraph"."""
    sides = ((red_pattern, RED), (blue_target, BLUE))
    certs = []
    for side, colour in sides:
        cert = search_pattern(col, side, colour) if isinstance(side, str) else find_mono_copy(col, side, colour)
        if cert.found:
            return cert
        certs.append(cert)
    red_desc, blue_desc = (side if isinstance(side, str) else "hypergraph" for side, _ in sides)
    exact = all(cert.detail.get("exact", True) for cert in certs)
    stats = {key: sum(cert.stats.get(key, 0) for cert in certs) for key in ("nodes", "prunes")}
    return Certificate(kind="free", witness=None, stats=stats,
                       detail={"red_pattern": red_desc, "blue_pattern": blue_desc, "exact": exact})


# ---------------------------------------------------------------------------
# independence number


def independence_number(hg: Hypergraph) -> tuple[int, Certificate]:
    """Exact independence number, with the lexicographically first maximum
    independent set as witness.

    An independent set of hg is a blue clique of the colouring whose red
    class is hg's edges, so `find_mono_clique` is asked for a blue s-clique
    for s = 1, 2, ... until there is none; the last one found is the
    witness.  The certificate's stats count those searches.
    """
    if hg.n > INDEPENDENCE_GUARD:
        raise GuardExceeded(f"{hg.n} vertices exceeds independence guard {INDEPENDENCE_GUARD}")
    col = TwoColoring.from_red_edges(hg.k, hg.n, hg.edges)
    best: tuple[int, ...] = ()
    while (got := find_mono_clique(col, len(best) + 1, BLUE)) is not None:
        best = got
    cert = Certificate(kind="independent_set", witness=list(best), stats={"searches": len(best) + 1},
                       detail={"exact": True})
    return len(best), cert


# ---------------------------------------------------------------------------
# two-edge loose paths (pairwise scan)


def has_two_edge_loose_path(hg: Hypergraph) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """True iff two edges share exactly one vertex, with the witness pair."""
    edges = hg.edges
    for i in range(len(edges)):
        si = set(edges[i])
        for j in range(i + 1, len(edges)):
            if len(si.intersection(edges[j])) == 1:
                return True, (edges[i], edges[j])
    return False, None


# ---------------------------------------------------------------------------
# transitive subtournaments


def find_transitive_subtournament(t: Tournament, chi: int) -> Certificate:
    """Exact search for chi vertices orderable with all arcs forward."""
    stats = {"nodes": 0, "prunes": 0}
    if chi <= 0:
        return Certificate(kind="tt_embedding", witness=[], stats=stats, detail={"exact": True})

    out_mask = [0] * t.n
    for u, v in t.arcs():
        out_mask[u] |= 1 << v

    order: list[int] = []

    def rec(candidates: int) -> bool:
        stats["nodes"] += 1
        if len(order) == chi:
            return True
        if len(order) + candidates.bit_count() < chi:
            stats["prunes"] += 1
            return False
        c = candidates
        while c:
            low = c & -c
            v = low.bit_length() - 1
            c ^= low
            order.append(v)
            if rec(candidates & out_mask[v]):
                return True
            order.pop()
        return False

    all_mask = (1 << t.n) - 1
    if rec(all_mask):
        return Certificate(kind="tt_embedding", witness=list(order), stats=stats, detail={"exact": True})
    return Certificate(kind="tt_embedding", witness=None, stats=stats, detail={"exact": True})
