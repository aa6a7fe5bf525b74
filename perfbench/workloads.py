"""The benchmark's four workloads: inputs built from the seed, one pass, checks.

A workload has a `setup(lib, seed, size, ctx)` that builds its inputs before
the first timed operation, and a `run_pass(inputs, lib, tracer)` that runs
every operation once and returns one `OpRecord` per operation.  Its
`nominal_pass_s` is the time of one full-size pass on the code the benchmark
was written against, with the machine in its slow state (NOTES.md); it fixes
how many passes a run makes and must not be retuned to a later commit's speed.  Only the
library call of an operation is timed; its correctness check runs after the
clock stops.  Every operation receives freshly constructed inputs (a new
`TwoColoring` object, a new CLI process), so nothing a future version caches
on an input object carries from one operation to the next.

Library functions are always looked up on their module at call time
(`lib.search.verify_free`, never a bound name), so the traced run can swap in
its wrappers.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from random import Random
from types import SimpleNamespace

LAYERS = ("core", "constructions", "search", "exact", "chains", "engines", "table", "cli")
CHILD_TIMEOUT_S = 170


@dataclass
class OpRecord:
    name: str
    seconds: float
    ok: bool
    detail: dict = field(default_factory=dict)


def load_library(src: Path) -> SimpleNamespace:
    """Import (or re-import from scratch) every layer of the package in `src`."""
    for name in [n for n in sys.modules if n == "hyperramsey" or n.startswith("hyperramsey.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {layer: importlib.import_module(f"hyperramsey.{layer}") for layer in LAYERS}
    pkg = Path(sys.modules["hyperramsey"].__file__).resolve()
    if src.resolve() not in pkg.parents:
        raise RuntimeError(f"hyperramsey was imported from {pkg}, not from {src}")
    return SimpleNamespace(**mods)


def _run_op(tracer, name: str, call, check, op_id: str | None = None) -> OpRecord:
    """Time `call()`, then judge its result with `check(result) -> (ok, detail)`
    while the tracer is paused.  Both run before this returns, so closures
    over a caller's loop variables are safe.  An exception from either is a
    failed operation, recorded rather than raised, so the run still reports."""
    paused = nullcontext()
    if tracer is not None:
        tracer.op = op_id or name
        paused = tracer.paused()
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:
        return OpRecord(name, time.perf_counter() - start, False, {"error": repr(exc)})
    secs = time.perf_counter() - start
    with paused:
        try:
            ok, detail = check(result)
        except Exception as exc:
            ok, detail = False, {"error": repr(exc)}
    return OpRecord(name, secs, ok, detail)


# ---------------------------------------------------------------------------
# table: the CLI end to end


class Table:
    """`python -m hyperramsey.cli table` in a child process, one run per
    operation, stdout compared byte for byte with the recorded digest.  The
    in-process form (used by traced runs, where a child cannot be traced)
    renders the table the way the CLI does; `reproduction_table` reaches the
    row builders through its module globals, so the tracer sees them."""

    name = "table"
    seeded = False
    nominal_pass_s = 2.4

    def setup(self, lib, seed, size, ctx):
        return SimpleNamespace(digest=ctx.data["table_sha256"], env=ctx.env,
                               in_process=ctx.in_process, root=ctx.root)

    def run_pass(self, inp, lib, tracer=None):
        def call():
            if inp.in_process:
                t = lib.table
                return 0, (t.render_text(t.reproduction_table()) + "\n").encode()
            proc = subprocess.run([sys.executable, "-m", "hyperramsey.cli", "table"], cwd=inp.root,
                                  env=inp.env, capture_output=True, timeout=CHILD_TIMEOUT_S, check=False)
            return proc.returncode, proc.stdout

        def check(result):
            rc, out = result
            digest = hashlib.sha256(out).hexdigest()
            return rc == 0 and digest == inp.digest, {"rc": rc, "sha256": digest}

        return [_run_op(tracer, "table", call, check)]


def cli_import_probe(root: Path, env: dict, reps: int) -> tuple[list[float], list[float]]:
    """Run `reps` children that only import hyperramsey.cli.  Returns the
    child wall times and the in-child time of the import statement."""
    code = ("import time; t = time.perf_counter(); import hyperramsey.cli; "
            "print(time.perf_counter() - t)")
    walls, imports = [], []
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        walls.append(time.perf_counter() - start)
        imports.append(float(proc.stdout.split()[-1]))
    return walls, imports


# ---------------------------------------------------------------------------
# exhaust: exact decisions that end in an exhausted colouring DFS


# (kind, arguments, expected value); the first ramsey entry is the k=3 path
# watcher, the cycle/clique entries drive the generic-copy watcher
EXHAUST = {
    "full": [
        ("ramsey", ("path:3:2:5", "clique:3:4", 7), 7),
        ("ramsey", ("cycle:2:1:4", "clique:2:3", 7), 7),   # R(C4, K3) = 7
        ("ramsey", ("cycle:2:1:4", "cycle:2:1:4", 6), 6),  # R(C4, C4) = 6
        ("dramsey", (4,), 8),                              # R_vec(4) = 8
        ("tau", (3, 4), 5),
    ],
    "smoke": [
        ("ramsey", ("path:3:2:4", "clique:3:4", 7), 5),
        ("ramsey", ("clique:2:3", "clique:2:3", 6), 6),    # R(K3, K3) = 6
        ("dramsey", (3,), 4),
        ("tau", (3, 4), 5),
    ],
}


def exhaust_label(kind: str, args: tuple) -> str:
    return f"{kind}({','.join(map(str, args))})"


class Exhaust:
    name = "exhaust"
    seeded = False
    nominal_pass_s = 2.2

    def setup(self, lib, seed, size, ctx):
        return [(exhaust_label(kind, args), kind, args, want) for kind, args, want in EXHAUST[size]]

    def run_pass(self, ladder, lib, tracer=None):
        records = []
        for label, kind, args, want in ladder:
            fn = {"ramsey": lib.exact.ramsey_exact, "dramsey": lib.exact.directed_ramsey_exact,
                  "tau": lib.exact.tau_exact}[kind]

            def check(res):
                ok = res.exact and res.value == want and _exhaust_witness_ok(lib, kind, args, res)
                return ok, {"value": res.value, "nodes": res.stats["nodes"], "prunes": res.stats["prunes"]}

            records.append(_run_op(tracer, label, lambda: fn(*args), check))
        return records


def _exhaust_witness_ok(lib, kind, args, res) -> bool:
    """Re-check the lower witness that makes the value exact from below."""
    w = res.lower_witness if kind == "ramsey" else res.witness
    if kind == "ramsey":
        cert = lib.search.verify_free(w, args[0], args[1])
        return w.n == res.value - 1 and cert.kind == "free" and cert.detail["exact"]
    if kind == "dramsey":
        return w.n == res.value - 1 and not lib.search.find_transitive_subtournament(w, args[0]).found
    alpha, _ = lib.search.independence_number(w)
    return w.n == res.value and alpha < args[1] and not lib.search.has_two_edge_loose_path(w)[0]


# ---------------------------------------------------------------------------
# certify: searches that prove absence on large lower-bound colourings


def certify_families(lib, size):
    """(label, instance, operations); an operation is (kind, arguments)."""
    c = lib.constructions
    triangle, _ = lib.core.tournament_hypergraph(lib.core.Tournament.cyclic_triangle(), 3)
    k4 = lib.core.complete_hypergraph(3, 4)
    if size == "smoke":
        return [
            ("ell_path_lb(3,2,8,2)", c.ell_path_lb(3, 2, 8, 2), [("free", ("path:3:2:8", k4))]),
            ("non_transitive_lb(3,4)", c.non_transitive_lb(3, 4),
             [("longest", (2, 7)), ("absent", (triangle,))]),
        ]
    loose = c.loose_path_lb(3, 2, 13, 3, c.tau_lower_construction(2, 3))
    cycle = c.loose_cycle_lb(3, 2, 8, 2, "pencil", q=2)
    return [
        ("ell_path_lb(3,2,12,2)", c.ell_path_lb(3, 2, 12, 2), [("free", ("path:3:2:12", k4))]),
        ("loose_path_lb(3,2,13,3)", loose, [("free", ("path:3:1:13", loose.blue_target))]),
        ("loose_cycle_lb(3,2,8,2,pencil,q=2)", cycle, [("free", ("cycle:3:1:8", cycle.blue_target))]),
        # longest red tight path t + t//2 + 1 = 11, and no blue H(C3, 3)
        ("non_transitive_lb(3,7)", c.non_transitive_lb(3, 7),
         [("longest", (2, 11)), ("absent", (triangle,))]),
    ]


class Certify:
    name = "certify"
    seeded = True
    nominal_pass_s = 9.0

    def setup(self, lib, seed, size, ctx):
        rng = Random(seed)
        ops = []
        for label, inst, family_ops in certify_families(lib, size):
            perm = list(range(inst.n))
            rng.shuffle(perm)
            col = inst.coloring.relabel(perm)
            for kind, args in family_ops:
                ops.append((f"{kind}:{label}", kind, col.k, col.n, col.red_bits, args))
        return ops

    def run_pass(self, ops, lib, tracer=None):
        records = []
        for label, kind, k, n, bits, args in ops:
            def call():
                col = lib.core.TwoColoring(k, n, bits)
                if kind == "free":
                    return col, lib.search.verify_free(col, *args)
                if kind == "longest":
                    return col, lib.search.longest_mono_ell_path(col, args[0], "red")
                return col, lib.search.find_mono_copy(col, args[0], "blue")

            records.append(_run_op(tracer, label, call,
                                   lambda res: (_certify_ok(lib, kind, args, *res), {})))
        return records


def _certify_ok(lib, kind, args, col, res) -> bool:
    if kind == "free":
        return res.kind == "free" and res.detail["exact"]
    if kind == "longest":
        vertices, cert = res
        return (vertices == args[1] and cert.detail["exact"]
                and lib.search.validate_mono_path(col, cert.witness, args[0], "red"))
    return not res.found and res.detail["exact"]


# ---------------------------------------------------------------------------
# engines: many small fresh colourings through the witness engines

DENSITIES = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95)
ENGINE_PAIRS = {"full": 500, "smoke": 5}


class Engines:
    """A closed loop with one client: each engine run starts when the previous
    one has returned.  One pair = one loose and one tight engine run, each on
    its own seeded random 3-colouring of K_n, n in [12, 22].

    The run parameters (n, red density, block size and, for the tight engine,
    chi) cycle through their full grid and the seed shuffles their order, so
    every seed runs the same mix of sizes; the seed draws the colourings and
    the target orders.  Drawing the parameters independently would let the
    slowest 1% of runs, and so p99, depend on the seed by about a third."""

    name = "engines"
    seeded = True
    nominal_pass_s = 3.9

    def setup(self, lib, seed, size, ctx):
        rng = Random(seed)
        pairs = ENGINE_PAIRS[size]
        # a fixed scramble of the grid, so a part cycle (and the smoke size)
        # still spreads over every parameter
        grid = list(product(range(12, 23), DENSITIES, (4, 5, 6)))
        Random(0).shuffle(grid)
        tight_grid = [g + (chi,) for g in grid for chi in (2, 3)]
        loose = (grid * (pairs // len(grid) + 1))[:pairs]
        tight = (tight_grid * (pairs // len(tight_grid) + 1))[:pairs]
        rng.shuffle(loose)
        rng.shuffle(tight)
        ops = []
        for (n, density, block_size), (n2, density2, block_size2, chi) in zip(loose, tight):
            col = lib.core.TwoColoring.random(3, n, density, seed=rng.getrandbits(32))
            ops.append(("loose", n, col.red_bits, rng.choice(range(5, n + 1, 2)), block_size, 2))
            col = lib.core.TwoColoring.random(3, n2, density2, seed=rng.getrandbits(32))
            ops.append(("tight", n2, col.red_bits, rng.randint(5, n2), block_size2, chi))
        return ops

    def run_pass(self, ops, lib, tracer=None):
        records = []
        eng, core = lib.engines, lib.core
        for i, (kind, n, bits, n_target, block_size, chi) in enumerate(ops):
            def call():
                col = core.TwoColoring(3, n, bits)
                params = eng.EngineParams(n_target=n_target, block_size=block_size)
                if kind == "loose":
                    target, _ = core.transitive_tournament_hypergraph(2, 2)
                    return col, eng.loose_witness_engine(col, target, params)
                return col, eng.tight_witness_engine(col, chi, 2, params)

            def check(res):
                col, rep = res
                ok = engine_witness_ok(lib, col, kind, chi, n_target, rep.outcome, rep.certificate)
                return ok, {"outcome": rep.outcome}

            records.append(_run_op(tracer, kind, call, check, op_id=f"{kind}#{i}"))
        return records


def engine_witness_ok(lib, col, kind, chi, n_target, outcome, cert) -> bool:
    """Re-validate an engine's witness against the colouring it ran on."""
    s = lib.search
    if outcome == "stall":
        return cert is None
    if outcome == "red_witness":
        ell = 1 if kind == "loose" else 2
        if cert.kind == "red_cycle":
            return s.validate_mono_cycle(col, cert.witness, ell, "red") and len(cert.witness) >= n_target
        return (cert.kind == "red_path" and len(cert.witness) >= n_target
                and s.validate_mono_path(col, cert.witness, ell, "red"))
    if outcome == "blue_witness":
        target, _ = lib.core.transitive_tournament_hypergraph(chi, 2)
        return s.validate_embedding(col, target, cert.witness, "blue")
    return False


WORKLOADS = {w.name: w for w in (Table(), Exhaust(), Certify(), Engines())}


def pinned_env(src: Path) -> dict:
    """The environment for the benchmark and its children: no size guards,
    a fixed hash seed, and the package under test first on the path."""
    env = {k: v for k, v in os.environ.items() if not (k.startswith("HYPERRAMSEY_") and k.endswith("_GUARD"))}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(src)
    return env
