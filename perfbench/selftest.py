"""Fast self-test of the benchmark harness on tiny grids.

    python3 perfbench/selftest.py

For every workload it runs ``run.py --tiny`` untraced, and traced under two
seeds, and checks the output contract: the last line is one JSON object with
``correct``/``attempted``/``failed``/``metrics``, every metric named in
BENCHMARK.json is present with its unit, all checks pass, and the per-step
call counters of the traced runs repeat exactly between processes.  It also
checks that the benchmark refuses to run, without a result line, where there
are no package sources.  Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTERS = ("polytope.field_jets_per_step", "polytope.diff_per_step",
            "curvature.context_builds_per_step", "curvature.weighted_scalar_calls_per_step",
            "energy.quadrature_per_step", "flow.attempts_per_step", "polytope.n_nodes")


def bench(workload: str, seed: int, trace: int, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def expect_metrics(result: dict, section: str) -> None:
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    got = result["metrics"]
    assert set(got) == set(spec), set(got) ^ set(spec)
    for name, unit in spec.items():
        assert got[name]["unit"] == unit, (name, got[name]["unit"], unit)
        assert isinstance(got[name]["value"], (int, float)), name


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        expect_metrics(result_of(bench(name, 1, 0)), "end_to_end")
        traced = [result_of(bench(name, seed, 1)) for seed in (1, 2)]
        for r in traced:
            expect_metrics(r, "per_layer")
        counters = [{k: r["metrics"][k]["value"] for k in COUNTERS} for r in traced]
        assert counters[0] == counters[1], counters
        print(f"ok  {name}: {counters[0]}")

    bare = HERE / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = bench(SPEC["workloads"][0]["name"], 1, 0, cwd=bare, script=bare / HERE.name / "run.py")
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    shutil.rmtree(bare)
    print("ok  refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
