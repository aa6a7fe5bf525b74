"""The acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance here is exact; the randomised suites are
seed-fixed.
"""

import subprocess
import sys
from itertools import combinations
from random import Random


from hyperramsey.core import (
    BLUE,
    RED,
    Tournament,
    TwoColoring,
    burr_bound,
    complete_hypergraph,
    ramsey_profile,
    tournament_hypergraph,
    transitive_tournament_hypergraph,
)
from hyperramsey.constructions import (
    burr_coloring,
    ell_path_lb,
    loose_cycle_lb,
    loose_path_lb,
    non_transitive_lb,
    tau_lower_construction,
)
from hyperramsey.search import (
    find_mono_copy,
    find_transitive_subtournament,
    has_two_edge_loose_path,
    independence_number,
    longest_mono_ell_path,
    pattern_hypergraph,
    validate_embedding,
    validate_mono_cycle,
    validate_mono_path,
    verify_free,
)
from hyperramsey.exact import (
    directed_ramsey_exact,
    gap_report,
    ramsey_exact,
    tau_exact,
)
from hyperramsey.chains import (
    CLOSED,
    clique_partition,
    double_tree_walk,
    validate_chain,
)
from hyperramsey.engines import (
    EngineParams,
    absorbing_block,
    loose_witness_engine,
    tight_witness_engine,
)
from hyperramsey.cli import check_certificate
from hyperramsey.table import render_text, reproduction_table

from oracles import has_colour
from test_chains import random_valid_chain


def report(number: int, name: str, ok: bool):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


RAMSEY_SUITE = [
    ("path:3:2:4", "clique:3:4"),
    ("path:3:2:4", "tth:2:2"),
    ("path:3:2:4", "edge:3"),
    ("path:3:1:5", "clique:3:4"),
    ("path:3:1:5", "tth:2:2"),
    ("path:3:1:5", "edge:3"),
    ("edge:3", "clique:3:4"),
    ("edge:3", "tth:2:2"),
    ("edge:3", "edge:3"),
]


def test_criterion_1_general_lower_bound_consistency():
    """Every exactly-computed pair respects the general lower bound and its
    witness colouring verifies free."""
    ok = True
    for red, blue in RAMSEY_SUITE:
        target = pattern_hypergraph(blue)
        profile = ramsey_profile(target)
        v_g = pattern_hypergraph(red).n
        bb = burr_bound(v_g, profile)
        result = ramsey_exact(red, target, n_cap=7)
        if not result.exact or result.value < bb.value:
            ok = False
        lower = burr_coloring(3, profile.chi, profile.sigma, v_g)
        assert lower.n == bb.value - 1
        cert = verify_free(lower.coloring, red, target)
        if cert.kind != "free":
            ok = False
    report(1, "Eq-(1) consistency over the exact suite", ok)


def test_criterion_2_tau_table():
    ok = True
    for alpha in range(2, 7):
        r = tau_exact(2, alpha)
        ok &= r.exact and r.value == 2 * alpha - 2
    r = tau_exact(3, 2)
    ok &= r.value == 1
    r = tau_exact(3, 4)
    ok &= r.exact and 5 <= r.value <= 6
    # both defining properties, on the extremal witness and the construction
    for hg in (r.witness, tau_lower_construction(3, 4)):
        alpha_val, _ = independence_number(hg)
        ok &= alpha_val < 4
        ok &= not has_two_edge_loose_path(hg)[0]
    ok &= tau_lower_construction(3, 4).n == 5
    report(2, "tau table with verified witnesses", ok)


def test_criterion_3_directed_ramsey_values():
    ok = True
    r2 = directed_ramsey_exact(2)
    ok &= r2.exact and r2.value == 2
    r3 = directed_ramsey_exact(3)
    ok &= r3.exact and r3.value == 4
    ok &= r3.witness.n == 3
    ok &= not find_transitive_subtournament(r3.witness, 3).found
    # the unique TT3-free 3-tournament is the cyclic triangle
    outdeg = [sum(r3.witness.has_arc(v, u) for u in range(3) if u != v) for v in range(3)]
    ok &= sorted(outdeg) == [1, 1, 1]
    r4 = directed_ramsey_exact(4, n_cap=8)
    ok &= r4.exact and r4.value == 8
    ok &= not find_transitive_subtournament(r4.witness, 4).found
    for chi in (3, 4):
        g = gap_report(directed_ramsey_exact(chi), directed_ramsey_exact(chi - 1))
        ok &= g.inequality_holds and g.augmented_ttfree
    report(3, "directed Ramsey values and consecutive gaps", ok)


def test_criterion_4_lower_bound_freeness():
    ok = True
    # (a) the ell >= 2 path construction
    inst = ell_path_lb(3, 2, 8, 2)
    cert = verify_free(inst.coloring, "path:3:2:8", complete_hypergraph(3, 4))
    ok &= cert.kind == "free" and cert.detail.get("exact", False)

    # (b) the non-transitive tournament construction
    inst = non_transitive_lb(3, 6)
    vmax, path_cert = longest_mono_ell_path(inst.coloring, 2, RED)
    ok &= vmax <= 6 + 6 // 2 + 1 == 10 and path_cert.detail["exact"]
    target, _ = tournament_hypergraph(Tournament.cyclic_triangle(), 3)
    blue_cert = find_mono_copy(inst.coloring, target, BLUE)
    ok &= not blue_cert.found and blue_cert.detail["exact"]

    # (c) the loose-path construction over a matching auxiliary graph
    aux = tau_lower_construction(2, 3)
    inst = loose_path_lb(3, 2, 11, 3, aux)
    cert = verify_free(inst.coloring, "path:3:1:11", inst.blue_target)
    ok &= cert.kind == "free" and cert.detail.get("exact", False)

    # (d) the pencil variant of the loose-cycle construction
    inst = loose_cycle_lb(3, 2, 6, 2, "pencil", q=2)
    cert = verify_free(inst.coloring, "cycle:3:1:6", inst.blue_target)
    ok &= cert.kind == "free" and cert.detail.get("exact", False)
    report(4, "lower-bound colourings verify free at desk scale", ok)


def test_criterion_5_chain_machinery():
    ok = True
    rng = Random(20240)
    for _ in range(1000):
        chain, col = random_valid_chain(rng)
        cert = validate_chain(chain, col)
        ok &= cert.kind == "chain"
        # the vertex order of a valid chain is a red ell-path or ell-cycle;
        # how its edges overlap is `core.ell_path`'s and `ell_cycle`'s, and
        # test_core pins it
        validate = validate_mono_cycle if chain.kind == CLOSED else validate_mono_path
        ok &= validate(col, list(chain.vertices), chain.ell, RED)
        if not ok:
            break

    tree_rng = Random(20241)
    from collections import Counter
    for _ in range(1000):
        n = tree_rng.randint(2, 12)
        edges = [(tree_rng.randrange(v), v) for v in range(1, n)]
        walk = double_tree_walk(edges)
        ok &= walk[0] == walk[-1]
        counts = Counter(tuple(sorted(s)) for s in zip(walk, walk[1:]))
        ok &= set(counts) == {tuple(sorted(e)) for e in edges}
        ok &= all(c == 2 for c in counts.values())
        if not ok:
            break

    part_rng = Random(20242)
    for trial in range(200):
        n = part_rng.randint(6, 10)
        col = TwoColoring.random(3, n, part_rng.random(), seed=trial)
        cp = clique_partition(col, 4, 4)
        leftover = list(cp.leftover)
        for colour in (RED, BLUE):
            for four in combinations(leftover, 4):
                ok &= not all(has_colour(col, t, colour) for t in combinations(four, 3))
        if not ok:
            break
    report(5, "chain machinery properties (1000/1000/200 seeded runs)", ok)


def _revalidate(col, certificate) -> bool:
    valid, _ = check_certificate(certificate, col)
    return valid


def test_criterion_6_engine_soundness():
    ok = True
    densities = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95]
    target_h, _ = transitive_tournament_hypergraph(2, 2)
    invalid = 0
    runs = 0
    rng = Random(31337)
    for i in range(250):
        density = densities[i % len(densities)]
        n = rng.randint(8, 13)
        col = TwoColoring.random(3, n, density, seed=7000 + i)
        n_target = rng.choice([x for x in range(5, n + 1) if x % 2 == 1])
        rep = loose_witness_engine(col, target_h,
                                   EngineParams(n_target=n_target, block_size=rng.choice([4, 5, 6])))
        runs += 1
        if rep.outcome == "red_witness":
            if not (_revalidate(col, rep.certificate) and len(rep.certificate.witness) >= n_target):
                invalid += 1
        elif rep.outcome == "blue_witness":
            if not validate_embedding(col, target_h, rep.certificate.witness, BLUE):
                invalid += 1
    for i in range(250):
        density = densities[i % len(densities)]
        n = rng.randint(8, 13)
        col = TwoColoring.random(3, n, density, seed=8000 + i)
        chi = 2 if i % 2 == 0 else 3
        rep = tight_witness_engine(col, chi, 2,
                                   EngineParams(n_target=rng.randint(5, n),
                                                block_size=rng.choice([4, 5, 6])))
        runs += 1
        t_h, _ = transitive_tournament_hypergraph(chi, 2)
        if rep.outcome == "red_witness":
            if not _revalidate(col, rep.certificate):
                invalid += 1
        elif rep.outcome == "blue_witness":
            if not validate_embedding(col, t_h, rep.certificate.witness, BLUE):
                invalid += 1
    ok &= runs == 500 and invalid == 0

    # the verified-free instances: no engine may produce a forbidden witness
    aux = tau_lower_construction(2, 3)
    inst = loose_path_lb(3, 2, 11, 3, aux)
    rep = loose_witness_engine(inst.coloring, inst.blue_target,
                               EngineParams(n_target=11, block_size=4))
    ok &= rep.outcome == "stall"

    inst = loose_cycle_lb(3, 2, 6, 2, "pencil", q=2)
    rep = loose_witness_engine(inst.coloring, inst.blue_target,
                               EngineParams(n_target=6, block_size=4, target_kind="cycle"))
    ok &= rep.outcome == "stall"

    inst = non_transitive_lb(3, 6)
    rep = tight_witness_engine(inst.coloring, 3, 3, EngineParams(n_target=11, block_size=4))
    ok &= rep.outcome != "red_witness"

    inst = ell_path_lb(3, 2, 8, 2)
    rep = tight_witness_engine(inst.coloring, 2, 2, EngineParams(n_target=8, block_size=4))
    ok &= rep.outcome != "red_witness"
    if rep.outcome == "blue_witness":
        t_h, _ = transitive_tournament_hypergraph(2, 2)
        ok &= validate_embedding(inst.coloring, t_h, rep.certificate.witness, BLUE)
    report(6, "engine soundness over 500 seeded colourings and the free instances", ok)


def test_criterion_7_absorbing_block_guarantee():
    ok = True
    hit = 0
    rng = Random(424242)
    for trial in range(500):
        n_a = rng.randint(6, 14)
        n_b = rng.randint(1, 4)
        d = rng.randint(1, 2)
        density = rng.choice([0.5, 0.7, 0.9, 1.0])
        col = TwoColoring.random(3, n_a + n_b, density, seed=trial)
        out = absorbing_block(col, list(range(n_a)), list(range(n_a, n_a + n_b)), d, 0.05)
        if out.success:
            seq = out.path
            ok &= validate_mono_path(col, seq, 2, RED)
            ok &= len(seq) == 3 * d + 2
            # interleaving shape: two A's, one B, repeated, then two A's
            for pos, v in enumerate(seq):
                if (pos + 1) % 3 == 0:
                    ok &= v >= n_a
                else:
                    ok &= v < n_a
        if out.aux_edges > out.aux_threshold:
            hit += 1
            ok &= out.success  # the counting bound forces the path
        if not ok:
            break
    ok &= hit > 50  # the bound must actually be exercised
    report(7, f"absorbing block: bound held {hit} times, always with a valid path", ok)


def test_criterion_8_table_determinism():
    # a fresh process and this one render the table byte for byte alike
    proc = subprocess.run([sys.executable, "-m", "hyperramsey.cli", "table"], capture_output=True)
    assert proc.returncode == 0
    in_process = (render_text(reproduction_table()) + "\n").encode()
    ok = proc.stdout == in_process
    ok &= b"FAIL" not in proc.stdout
    report(8, "reproduction table byte-identical across runs", ok)
