"""Self-check of the benchmark's own code, at a toy size.

Runs every workload at ``--size tiny``, untraced and traced, and fails unless
each run passes its correctness checks and emits every metric that
``BENCHMARK.json`` declares.  It also runs the benchmark in a directory that
holds only ``BENCHMARK.json`` and ``perfbench/``, where it must exit non-zero
without printing a result.  Takes about a minute::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402


def check_workloads() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload["name"], "--seed", "3",
                                 "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"])
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            label = f"{workload['name']} trace={trace}"
            if code != 0 or not result["correct"]:
                problems.append(f"{label}: exit {code}, correct={result['correct']}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if got is None or got["value"] is None or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} missing: {got}")
            print(f"{label}: exit {code}, {len(result['metrics'])} metrics")
    return problems


def check_bare_directory() -> list:
    """Without the program's source the benchmark must fail cleanly."""
    bare = ROOT / ".bench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cip_silo", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {proc.returncode}")
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory run did not fail cleanly: {proc.returncode} {proc.stdout!r}"]
    return []


def main() -> int:
    problems = check_workloads() + check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
