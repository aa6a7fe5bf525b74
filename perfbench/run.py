"""Benchmark of the hyperramsey library: one workload per run, every metric printed.

    python3 perfbench/run.py --workload {table,exhaust,certify,engines,all}
                             --seed N --seconds S --trace {0,1} [--size {full,smoke}]

Run from anywhere; the package is always taken from `src/` next to this
directory.  The last line of stdout is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the lines before it repeat
every metric with its unit, the environment and the count gate.  A fuller
record (op samples, and spans for traced runs) is written to `perfbench/out/`.
The exit code is 0 when every operation passed its check, 1 when one failed,
and 2 when the package is missing.

`--trace 0` reports the end-to-end metrics, measured untraced, over as many
passes as the workload's nominal pass time fits in `--seconds` (a count that
does not depend on the code's speed).  `--trace 1` alternates untraced and
traced passes of the workload, half as many, reports the per-layer
metrics of the traced passes and `trace_overhead`, and then runs one traced
smoke-size pass of every other workload: a layer the workload never calls
takes its numbers from that sweep, so every metric is measured in every run.
See NOTES.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracing import SPANS, Tracer, summarize  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    cli_import_probe,
    load_library,
    pinned_env,
    certify_families,
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms", "ops_per_s": "1/s"}

_SEARCH_WITH_STATS = ("longest_mono_ell_path", "find_mono_copy", "independence_number",
                      "find_transitive_subtournament")
_CHAINS = ("clique_partition", "build_path_system", "assemble_chains", "validate_chain")
_ENGINES = ("loose_witness_engine", "tight_witness_engine")
_TABLE = ("ramsey_rows", "tau_rows", "dramsey_rows", "freeness_rows")
PER_LAYER = {
    "core.is_red.calls": "count",
    "core.colex_rank.calls": "count",
    "core.is_red.ns_per_call": "ns",
    "constructions.build_s": "s",
    **{f"search.{f}.{m}": u for f in _SEARCH_WITH_STATS
       for m, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
                    ("nodes", "count"), ("prunes", "count"), ("us_per_node", "us"))},
    "search.find_mono_clique.calls": "count",
    "search.find_mono_clique.busy_s": "s",
    "search.find_mono_clique.self_s": "s",
    "exact.free_coloring_exists.calls": "count",
    "exact.free_coloring_exists.busy_s": "s",
    "exact.dfs.nodes": "count",
    "exact.dfs.prunes": "count",
    "exact.dfs.us_per_node": "us",
    "exact.dfs.prune_ratio": "ratio",
    "exact.directed_ramsey_exact.calls": "count",
    "exact.directed_ramsey_exact.busy_s": "s",
    "exact.directed_ramsey_exact.nodes": "count",
    "exact.directed_ramsey_exact.prunes": "count",
    "exact.tau_exact.busy_s": "s",
    "exact.tau_exact.nodes": "count",
    **{f"chains.{f}.{m}": u for f in _CHAINS for m, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
    **{f"engines.{f}.{m}": u for f in _ENGINES for m, u in (("calls", "count"), ("self_s", "s"))},
    "engines.outcome.red_witness": "count",
    "engines.outcome.blue_witness": "count",
    "engines.outcome.stall": "count",
    "engines.witness_ratio": "ratio",
    **{f"table.{f}.busy_s": "s" for f in _TABLE},
    "cli.import_s": "s",
    "trace_overhead": "ratio",
}

SETUP_REPS = {"full": 5, "smoke": 2}


def _nearest_rank(values, share: float) -> float:
    """Nearest-rank percentile: the smallest value with at least `share` of
    the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def pass_count(w, seconds: float, at_least: int) -> int:
    """How many passes a run makes: as many of the workload's nominal passes
    (timed on the code the benchmark was written against) as fit in `seconds`,
    but at least `at_least`.  It depends on `--seconds` only and never on how
    fast the code under test runs, so `pass_time` and `op_times` take the
    same order statistic on every commit."""
    return max(at_least, int(seconds // w.nominal_pass_s))


def _pass_seconds(records) -> float:
    return sum(r.seconds for r in records)


def pass_time(passes: list) -> float:
    """The time of one pass: the nearest-rank 90th percentile of the measured
    pass times.

    On a shared machine a CPU-bound pass runs at a steady speed while the
    neighbours are busy and faster, by an erratic amount, while they idle; the
    share of idle time differs from run to run.  A median across passes moves
    with that share, by up to a third between runs; the 90th percentile stays
    on the steady level (NOTES.md has the measurements)."""
    return _nearest_rank([_pass_seconds(p) for p in passes], 0.9)


def op_times(passes: list) -> list[float]:
    """Each operation's time: the nearest-rank 90th percentile of its times
    across the passes (every pass runs the same operations in the same order),
    for the reason given in `pass_time`."""
    return [_nearest_rank([p[i].seconds for p in passes], 0.9) for i in range(len(passes[0]))]


def _environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()], "platform": platform.platform()}


# ---------------------------------------------------------------------------
# count gate: machine-independent counts compared with the recorded seed values


def count_gate(name: str, seed: int, size: str, passes: list, data: dict) -> dict:
    if name == "exhaust":
        recorded = data["exhaust"]
        notes = []
        for rec in passes[0]:
            want = recorded.get(rec.name)
            if want is None:
                notes.append(f"{rec.name}: no record")
            elif rec.detail["nodes"] > want["nodes"]:
                notes.append(f"{rec.name}: MORE nodes {rec.detail['nodes']} > {want['nodes']}")
            elif rec.detail["nodes"] != want["nodes"] or rec.detail["prunes"] != want["prunes"]:
                notes.append(f"{rec.name}: nodes {rec.detail['nodes']} (was {want['nodes']}), "
                             f"prunes {rec.detail['prunes']} (was {want['prunes']})")
        status = "changed" if any("MORE" in n for n in notes) else ("moved" if notes else "same")
        return {"status": status, "notes": notes}
    if name == "engines":
        want = data["engines_outcomes"].get(size, {}).get(str(seed))
        mixes = {json.dumps(engine_mix(p), sort_keys=True) for p in passes}
        if want is None:
            return {"status": "unrecorded", "notes": [f"no outcome record for {size} seed {seed}"]}
        if mixes == {json.dumps(want, sort_keys=True)}:
            return {"status": "same", "notes": []}
        return {"status": "changed", "notes": [f"outcome mix {sorted(mixes)} != record {want}"]}
    return {"status": "n/a", "notes": []}


def engine_mix(records) -> dict:
    mix: dict = {}
    for r in records:
        mix.setdefault(r.name, Counter())[r.detail.get("outcome", "error")] += 1
    return {kind: dict(sorted(c.items())) for kind, c in sorted(mix.items())}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_untraced(name, seed, seconds, size, data, env) -> dict:
    w = WORKLOADS[name]
    ctx = SimpleNamespace(root=ROOT, env=env, data=data, in_process=False)
    reps = SETUP_REPS[size]
    if name == "table":
        # the CLI pays its own set-up: a child that only imports the package
        setup_times, _ = cli_import_probe(ROOT, env, reps)
        lib = load_library(SRC)
        inputs = w.setup(lib, seed, size, ctx)
    else:
        setup_times = []
        for _ in range(reps):
            t = perf_counter()
            lib = load_library(SRC)
            inputs = w.setup(lib, seed, size, ctx)
            setup_times.append(perf_counter() - t)
    # two passes at least, so every operation's time is taken over several
    passes = [w.run_pass(inputs, lib) for _ in range(pass_count(w, seconds, at_least=2))]
    records = [r for p in passes for r in p]
    lat = op_times(passes)
    wall = pass_time(passes)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": _nearest_rank(lat, 0.5) * 1e3,
        "op_p99_ms": _nearest_rank(lat, 0.99) * 1e3,
        "ops_per_s": len(lat) / wall,
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "records": records,
        "samples": {"passes": len(passes), "ops_per_pass": len(lat), "setups": len(setup_times),
                    "pass_seconds": [_pass_seconds(p) for p in passes], "setup_seconds": setup_times},
        "count_gate": count_gate(name, seed, size, passes, data),
        "spans": None,
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def _traced_pass(tracer, lib, w, inputs):
    tracer.install(lib)
    try:
        return w.run_pass(inputs, lib, tracer)
    finally:
        tracer.uninstall()


def run_traced(name, seed, seconds, size, data, env) -> dict:
    w = WORKLOADS[name]
    ctx = SimpleNamespace(root=ROOT, env=env, data=data, in_process=True)
    lib = load_library(SRC)
    inputs = w.setup(lib, seed, size, ctx)
    tracer = Tracer()
    untraced, traced, own_counts = [], [], Counter()

    def pair():
        untraced.append(w.run_pass(inputs, lib))
        traced.append(_traced_pass(tracer, lib, w, inputs))
        own_counts.update(tracer.take_counts())

    # an untraced and a traced pass take about twice the nominal pass
    for _ in range(pass_count(w, seconds / 2, at_least=1)):
        pair()
    n_own = len(tracer.spans)

    # one smoke-size traced pass of every other workload, for the layers this
    # workload does not reach
    sweep_records, sweep_counts = [], Counter()
    for other in WORKLOADS.values():
        if other.name != name:
            other_inputs = other.setup(lib, seed, "smoke", ctx)
            sweep_records += _traced_pass(tracer, lib, other, other_inputs)
            sweep_counts.update(tracer.take_counts())

    own = summarize(tracer.spans, range(n_own))
    sweep = summarize(tracer.spans, range(n_own, len(tracer.spans)))
    sources = {}

    def layer(fn: str) -> dict:
        if own.get(fn, {}).get("calls"):
            sources[fn] = "own"
            return {k: v / len(traced) for k, v in own[fn].items()}
        sources[fn] = "sweep"
        return dict(sweep.get(fn, {}))

    def counted(fn: str) -> float:
        if own_counts[fn]:
            sources[fn] = "own"
            return own_counts[fn] / len(traced)
        sources[fn] = "sweep"
        return sweep_counts[fn]

    per_fn = {fn: layer(fn) for fn in SPANS}
    m: dict[str, float] = {}
    for fn, agg in per_fn.items():
        for key in ("calls", "busy_s", "self_s", "nodes", "prunes"):
            m[f"{fn}.{key}"] = agg.get(key, 0.0)
        m[f"{fn}.us_per_node"] = agg.get("busy_s", 0.0) * 1e6 / agg["nodes"] if agg.get("nodes") else 0.0
    dfs = per_fn["exact.free_coloring_exists"]
    m["exact.dfs.nodes"] = dfs.get("nodes", 0.0)
    m["exact.dfs.prunes"] = dfs.get("prunes", 0.0)
    m["exact.dfs.us_per_node"] = m["exact.free_coloring_exists.us_per_node"]
    work = m["exact.dfs.nodes"] + m["exact.dfs.prunes"]
    m["exact.dfs.prune_ratio"] = m["exact.dfs.prunes"] / work if work else 0.0
    runs = 0.0
    for outcome in ("red_witness", "blue_witness", "stall"):
        m[f"engines.outcome.{outcome}"] = sum(per_fn[f"engines.{e}"].get(f"outcome.{outcome}", 0.0)
                                              for e in _ENGINES)
        runs += m[f"engines.outcome.{outcome}"]
    m["engines.witness_ratio"] = (
        (m["engines.outcome.red_witness"] + m["engines.outcome.blue_witness"]) / runs if runs else 0.0)
    m["core.is_red.calls"] = counted("core.is_red")
    m["core.colex_rank.calls"] = counted("core.colex_rank")
    m["core.is_red.ns_per_call"] = is_red_probe(lib, seed)
    m["constructions.build_s"] = statistics.median(
        _build_time(lib) for _ in range(SETUP_REPS["full"]))
    m["cli.import_s"] = statistics.median(cli_import_probe(ROOT, env, 3)[1])
    m["trace_overhead"] = pass_time(traced) / pass_time(untraced) - 1

    records = [r for p in untraced + traced for r in p] + sweep_records
    return {
        "metrics": {k: {"value": m[k], "unit": unit} for k, unit in PER_LAYER.items()},
        "records": records,
        "samples": {"untraced_passes": len(untraced), "traced_passes": len(traced),
                    "untraced_pass_seconds": [_pass_seconds(p) for p in untraced],
                    "traced_pass_seconds": [_pass_seconds(p) for p in traced],
                    "sources": sources},
        "count_gate": count_gate(name, seed, size, traced, data),
        "spans": tracer.spans,
    }


def is_red_probe(lib, seed: int, sweeps: int = 20, reps: int = 7) -> float:
    """Untraced cost of one `TwoColoring.is_red` call, in ns: every edge of a
    seeded k=3, n=22 colouring queried through the public method."""
    col = lib.core.TwoColoring.random(3, 22, 0.5, seed=seed)
    edges = list(combinations(range(22), 3)) * sweeps
    times = []
    for _ in range(reps):
        is_red = col.is_red
        t = perf_counter()
        for e in edges:
            is_red(e)
        times.append((perf_counter() - t) / len(edges) * 1e9)
    return statistics.median(times)


def _build_time(lib) -> float:
    t = perf_counter()
    certify_families(lib, "full")
    return perf_counter() - t


# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, size, data, env) -> dict:
    runner = run_traced if trace else run_untraced
    res = runner(name, seed, seconds, size, data, env)
    failed = sum(not r.ok for r in res["records"])
    res.update(workload=name, seed=seed, seconds=seconds, trace=trace, size=size,
               seeded=WORKLOADS[name].seeded, environment=_environment(),
               attempted=len(res["records"]), failed=failed)
    return res


def report_lines(res: dict) -> list[str]:
    env = res["environment"]
    seed_note = "" if res["seeded"] else " (this workload does not depend on the seed)"
    lines = [
        f"# workload {res['workload']}  seed {res['seed']}{seed_note}  seconds {res['seconds']}  "
        f"trace {res['trace']}  size {res['size']}",
        f"# python {env['python']}  nproc {env['nproc']}  loadavg {' '.join(map(str, env['loadavg']))}",
        f"# samples {json.dumps({k: v for k, v in res['samples'].items() if not isinstance(v, (list, dict))})}",
        f"# operations attempted {res['attempted']}, failed {res['failed']}, "
        f"fail_ratio {res['failed'] / res['attempted']:.6f}",
    ]
    swept = [fn for fn, src in res["samples"].get("sources", {}).items() if src == "sweep"]
    if swept:
        lines.append(f"# not called by this workload, so measured in the sweep: {' '.join(swept)}")
    for key, metric in res["metrics"].items():
        lines.append(f"{key:48} {metric['value']:.6g} {metric['unit']}")
    gate = res["count_gate"]
    lines.append(f"# count gate (counts, not speed): {gate['status']}")
    lines += [f"#   {note}" for note in gate["notes"]]
    return lines


def write_record(res: dict) -> None:
    OUT.mkdir(exist_ok=True)
    doc = {k: v for k, v in res.items() if k != "records"}
    doc["operations"] = [[r.name, r.seconds, r.ok, r.detail] for r in res["records"]]
    (OUT / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json").write_text(json.dumps(doc))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()

    if not (SRC / "hyperramsey" / "__init__.py").is_file():
        print(f"error: no hyperramsey package under {SRC}", file=sys.stderr)
        return 2
    env = pinned_env(SRC)
    if dict(os.environ) != env:
        # re-exec once so the benchmark process itself runs pinned as well
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    data = json.loads((BENCH / "data" / "expected.json").read_text())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace, args.size, data, env)
        write_record(res)
        print("\n".join(report_lines(res)), flush=True)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
