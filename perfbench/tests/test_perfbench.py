"""Tests of the benchmark itself: smoke runs, failure detection, traced parity.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS, engine_witness_ok, load_library, pinned_env

BENCH = run.BENCH
ROOT = run.ROOT


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


@pytest.fixture(scope="module")
def lib():
    return load_library(run.SRC)


@pytest.fixture(scope="module")
def data():
    return json.loads((BENCH / "data" / "expected.json").read_text())


def _ctx(data, in_process=True):
    return SimpleNamespace(root=ROOT, env=pinned_env(run.SRC), data=data, in_process=in_process)


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    rc, result = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                        "--trace", "0", "--size", "smoke")
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_measures_every_layer():
    rc, result = _bench("--workload", "exhaust", "--seed", "3", "--seconds", "0.2",
                        "--trace", "1", "--size", "smoke")
    assert rc == 0 and result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    for name, metric in metrics.items():
        if name.endswith((".calls", ".busy_s", "_s", ".ns_per_call")) and name != "trace_overhead":
            assert metric["value"] > 0, name


def test_missing_package_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    rc, result = _bench("--workload", "exhaust", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert rc != 0 and result is None


def test_wrong_table_digest_fails_the_run(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    path = tmp_path / "perfbench" / "data" / "expected.json"
    doc = json.loads(path.read_text())
    doc["table_sha256"] = "0" * 64
    path.write_text(json.dumps(doc))
    rc, result = _bench("--workload", "table", "--seed", "1", "--seconds", "0.1", "--trace", "0",
                        "--size", "smoke", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert rc == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1


def test_wrong_exhaust_value_is_a_failure(lib, data):
    ladder = WORKLOADS["exhaust"].setup(lib, 0, "smoke", _ctx(data))
    label, kind, args, want = ladder[-1]
    records = WORKLOADS["exhaust"].run_pass(ladder[:-1] + [(label, kind, args, want + 1)], lib)
    assert [r.ok for r in records] == [True] * (len(ladder) - 1) + [False]


def test_wrong_certify_expectation_is_a_failure(lib, data):
    ops = WORKLOADS["certify"].setup(lib, 5, "smoke", _ctx(data))
    tampered = [(label, kind, k, n, bits, (args[0], args[1] + 1) if kind == "longest" else args)
                for label, kind, k, n, bits, args in ops]
    records = WORKLOADS["certify"].run_pass(tampered, lib)
    assert [r.ok for r in records] == [kind != "longest" for _, kind, *_ in ops]


def test_tampered_engine_witness_is_rejected(lib, data):
    ops = WORKLOADS["engines"].setup(lib, 0, "full", _ctx(data))[:40]
    checked = set()
    for kind, n, bits, n_target, block_size, chi in ops:
        col = lib.core.TwoColoring(3, n, bits)
        params = lib.engines.EngineParams(n_target=n_target, block_size=block_size)
        if kind == "loose":
            target, _ = lib.core.transitive_tournament_hypergraph(2, 2)
            rep = lib.engines.loose_witness_engine(col, target, params)
        else:
            rep = lib.engines.tight_witness_engine(col, chi, 2, params)
        if rep.outcome == "stall":
            continue
        assert engine_witness_ok(lib, col, kind, chi, n_target, rep.outcome, rep.certificate)
        # recolouring every edge flips each witness edge to the wrong colour
        flipped = lib.core.TwoColoring(3, n, bits ^ ((1 << col.num_edges) - 1))
        assert not engine_witness_ok(lib, flipped, kind, chi, n_target, rep.outcome, rep.certificate)
        rep.certificate.witness = rep.certificate.witness[:1] * len(rep.certificate.witness)
        assert not engine_witness_ok(lib, col, kind, chi, n_target, rep.outcome, rep.certificate)
        checked.add(rep.outcome)
    assert checked == {"red_witness", "blue_witness"}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_passes_agree(lib, data, workload):
    w = WORKLOADS[workload]
    inputs = w.setup(lib, 7, "smoke", _ctx(data))
    plain = w.run_pass(inputs, lib)
    tracer = Tracer()
    tracer.install(lib)
    try:
        traced = w.run_pass(inputs, lib, tracer)
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert [(r.name, r.ok, r.detail) for r in traced] == [(r.name, r.ok, r.detail) for r in plain]
    assert all(r.ok for r in plain)
    assert not hasattr(lib.search.find_mono_copy, "__wrapped__")  # wrappers removed


def test_count_gate_flags_more_nodes_and_a_changed_mix(lib, data):
    ladder = WORKLOADS["exhaust"].setup(lib, 0, "smoke", _ctx(data))
    records = WORKLOADS["exhaust"].run_pass(ladder, lib)
    assert run.count_gate("exhaust", 0, "smoke", [records], data)["status"] == "same"
    fewer = json.loads(json.dumps(data))
    fewer["exhaust"][records[0].name]["nodes"] -= 1
    assert run.count_gate("exhaust", 0, "smoke", [records], fewer)["status"] == "changed"

    ops = WORKLOADS["engines"].setup(lib, 0, "smoke", _ctx(data))
    engine_records = WORKLOADS["engines"].run_pass(ops, lib)
    mix = run.engine_mix(engine_records)
    recorded = {"engines_outcomes": {"smoke": {"0": mix}}}
    assert run.count_gate("engines", 0, "smoke", [engine_records], recorded)["status"] == "same"
    engine_records[0].detail["outcome"] = "stall" if engine_records[0].detail["outcome"] != "stall" else "red_witness"
    assert run.count_gate("engines", 0, "smoke", [engine_records], recorded)["status"] == "changed"


def test_pass_count_depends_on_seconds_only():
    # the order statistic a run reports must not shift with the speed of
    # the code under test
    assert [run.pass_count(w, 35, at_least=2) for w in WORKLOADS.values()] == [14, 15, 3, 8]
    assert run.pass_count(WORKLOADS["certify"], 0.2, at_least=2) == 2
