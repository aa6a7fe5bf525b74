"""Regenerate `data/expected.json` from the code in `src/`.

    python3 perfbench/record.py

Records what the benchmark checks against: the SHA-256 of `hyperramsey table`
stdout, the value, DFS nodes and prunes of every `exhaust` instance (both
sizes), and the engine outcome mix of the full `engines` pass for seeds
0..99.  Run it only on a commit whose outputs are known to be right; the
committed file was recorded on the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from run import engine_mix  # noqa: E402
from workloads import WORKLOADS, load_library, pinned_env  # noqa: E402

ENGINE_SEEDS = 100  # the count gate and NOTES.md assume seeds 0..99


def main() -> int:
    env = pinned_env(SRC)
    if dict(os.environ) != env:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)

    table = subprocess.run([sys.executable, "-m", "hyperramsey.cli", "table"], cwd=ROOT, env=env,
                           capture_output=True, check=True, timeout=170)
    lib = load_library(SRC)
    ctx = SimpleNamespace(root=ROOT, env=env, data={}, in_process=False)
    exhaust = {}
    for size in ("full", "smoke"):
        ladder = WORKLOADS["exhaust"].setup(lib, 0, size, ctx)
        for rec in WORKLOADS["exhaust"].run_pass(ladder, lib):
            if not rec.ok:
                raise SystemExit(f"exhaust instance {rec.name} failed its check")
            exhaust[rec.name] = rec.detail
    outcomes = {}
    for seed in range(ENGINE_SEEDS):
        ops = WORKLOADS["engines"].setup(lib, seed, "full", ctx)
        records = WORKLOADS["engines"].run_pass(ops, lib)
        if not all(r.ok for r in records):
            raise SystemExit(f"engines seed {seed}: a witness failed re-validation")
        outcomes[str(seed)] = engine_mix(records)
        print(f"engines seed {seed}: {outcomes[str(seed)]}", file=sys.stderr, flush=True)

    digest = hashlib.sha256(table.stdout).hexdigest()
    (BENCH / "data").mkdir(exist_ok=True)
    # one line per exhaust instance and per engine seed keeps diffs readable
    lines = [f' "table_sha256": {json.dumps(digest)},', ' "exhaust": {']
    lines.append(",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(exhaust.items())))
    lines += [" },", ' "engines_outcomes": {"full": {']
    lines.append(",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in outcomes.items()))
    lines += [" }}"]
    (BENCH / "data" / "expected.json").write_text("{\n" + "\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
