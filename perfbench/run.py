"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cip_silo --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``.
``--trace 1`` first measures the workload untraced for half the time, then
traced for the other half, and prints every per-layer metric plus the
tracing overhead; the spans are saved under ``.bench_out/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: BLAS and OpenMP pools each get one thread unless the caller chose.  Both
#: CPUs of a 2-CPU box are shared with other tenants; a second BLAS thread
#: spin-waits on a busy core and makes timings swing more than it saves.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(config: dict) -> dict:
    import numpy as np

    from perfbench.workloads import PROBE_NOMINAL_S, PROBES

    return {
        "git_sha": _git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpus_visible": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        # How fast the host ran the pace probe during the run; timings are
        # scaled to the nominal pace.
        "pace_probe": {
            "nominal_s": PROBE_NOMINAL_S,
            "count": len(PROBES),
            "min_s": min(PROBES, default=None),
            "median_s": statistics.median(PROBES) if PROBES else None,
            "max_s": max(PROBES, default=None),
        },
        **config,
    }


def layer_metrics(outcome, tracer, op_stats) -> dict:
    """Per-layer values of a traced run, per timed unit (round or audit)."""
    from perfbench.workloads import NN_OPS

    timed = tracer.summary("timed")
    units = outcome.units

    def per_unit(span: str, key: str = "total_s") -> float:
        return timed.get(span, {}).get(key, 0.0) / units

    values = {}
    for op, names in NN_OPS.items():
        stats = [op_stats[name] for name in names if name in op_stats]
        values[f"nn.{op}.fwd_s"] = sum(s.forward_seconds for s in stats) / units
        values[f"nn.{op}.bwd_s"] = sum(s.backward_seconds for s in stats) / units
        values[f"nn.{op}.calls"] = sum(s.calls for s in stats) / units
    inclusive = [
        "core.train_epoch", "core.perturbation_step", "client.local_update",
        "registry.checkout", "registry.release", "store.put", "store.pop",
        "communication.encode", "communication.decode", "checkpoint.save",
        "server.aggregate", "server.broadcast", "simulation.evaluate",
        "attacks.passive", "attacks.shadow_train", "training.train_supervised",
    ]
    from repro.attacks import EXTERNAL_ATTACKS

    for name in EXTERNAL_ATTACKS:
        inclusive += [f"attacks.{name}.fit", f"attacks.{name}.score"]
    for span in inclusive:
        values[f"{span}_s"] = per_unit(span)
    # Round workloads evaluate accuracy between timed rounds.
    evaluate = tracer.summary("check").get("simulation.evaluate", {}).get("total_s", 0.0)
    values["simulation.evaluate_s"] += evaluate / units
    # Orchestration layers report self time: what remains once the layers
    # they call are taken out.
    values["executor.execute_s"] = per_unit("executor.execute", "self_s")
    values["simulation.round_s"] = per_unit("simulation.round", "self_s")
    local_updates = timed.get("client.local_update", {}).get("calls", 0)
    values["client.local_updates"] = local_updates / units
    participants = outcome.counters.get("participants", 0.0)
    values["batched.stacked_ratio"] = 1.0 - local_updates / participants if participants else 0.0
    setup = tracer.summary("setup")
    values["data.generate_s"] = setup.get("data.generate", {}).get("total_s", 0.0) / outcome.setups
    for key in ("registry.materialized_total", "store.evictions", "store.rehydrations",
                "checkpoint.saves"):
        values[key] = outcome.counters.get(key, 0.0) / units
    for key in ("store.hit_ratio", "checkpoint.bytes", "communication.compression_ratio"):
        values[key] = outcome.counters.get(key, 0.0)
    return values


def overhead_pct(name: str, untraced: float, traced: float) -> float:
    """Extra time the tracing costs on the primary metric, in percent."""
    if name.endswith("_per_s"):
        return (untraced / traced - 1.0) * 100.0
    return (traced / untraced - 1.0) * 100.0


def _print_table(title: str, rows: dict, units: dict) -> None:
    print(f"# {title}")
    for name, value in rows.items():
        print(f"  {name:<36s} {value:>14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at a toy size (self-check)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import tempfile

    tempfile.tempdir = str(workdir)
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Phases

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = WORKLOADS[args.workload]
    try:
        if not args.trace:
            outcome = run(args.seed, args.seconds, str(workdir), args.size, Phases())
            values = dict(outcome.metrics)
            attempted, failed, checks = outcome.attempted, outcome.failed, outcome.checks
        else:
            plain = run(args.seed, args.seconds / 2, str(workdir), args.size, Phases())
            run_id = f"{args.workload}-seed{args.seed}-{int(time.time())}"
            tracer = Tracer(run_id)
            phases = Phases(tracer)
            with tracer:
                outcome = run(args.seed, args.seconds / 2, str(workdir), args.size, phases)
            values = layer_metrics(outcome, tracer, phases.op_stats)
            primary = outcome.primary
            values["trace.overhead_pct"] = overhead_pct(
                primary, plain.metrics[primary], outcome.metrics[primary]
            )
            attempted = plain.attempted + outcome.attempted
            failed = plain.failed + outcome.failed
            checks = {
                **{f"untraced.{k}": v for k, v in plain.checks.items()},
                **{f"traced.{k}": v for k, v in outcome.checks.items()},
            }
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"{run_id}.spans.jsonl")
            summary = {phase: tracer.summary(phase) for phase in ("setup", "timed", "check")}
            (out_dir / f"{run_id}.summary.json").write_text(json.dumps(
                {"run": run_id, "units": outcome.units, "setups": outcome.setups,
                 "primary": primary, "untraced": plain.metrics[primary],
                 "traced": outcome.metrics[primary], "phases": summary}, indent=1))
            print("# spans of the timed phase: calls, inclusive s, self s (whole phase)")
            for name, row in sorted(summary["timed"].items()):
                print(f"  {name:<36s} {row['calls']:>8d} {row['total_s']:>10.4f} "
                      f"{row['self_s']:>10.4f}")
            print(f"# {primary}: untraced {plain.metrics[primary]:.6g}, "
                  f"traced {outcome.metrics[primary]:.6g}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"environment": environment(outcome.config), "checks": checks}))
    missing = sorted(set(units) - set(values))
    finite = all(math.isfinite(values[name]) for name in units if name in values)
    _print_table("trace" if args.trace else "end to end", values, units)
    for name, passed in checks.items():
        if not passed:
            print(f"# check failed: {name}")
    if missing:
        print(f"# metrics not measured: {missing}")
    correct = all(checks.values()) and not missing and finite
    metrics = {
        name: {"value": values[name] if name in values and math.isfinite(values[name]) else None,
               "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
