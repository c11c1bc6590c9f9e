"""choqbern sweep benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mean2d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark imports choqbern from the
checkout's ``src/``; without it, it exits 2 and prints no result.

The run starts fresh Python processes (``worker.py``) with BLAS pinned to
one thread: several that only time set-up (import plus the first config
parse), then one workload process that runs the closed loop of sweeps.
With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer ones.  A line before it records the machine.
Outputs of the run (config, CSV, span dump, machine record) go to
``.perfbench-out/`` in the checkout.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNTERS, SPANS
from workloads import WORKLOADS, config_for

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench-out"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_PROBES = 5          # set-up-only processes per untraced run, after one warm-up
RUN_LIMIT_S = 170         # every process this run starts has ended by then
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def _worker(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON line.

    The process is killed, and waited for, if it is still running at
    ``deadline`` (a ``time.monotonic()`` value).
    """
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 0.1))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup: list[float]) -> dict:
    times = result["times"]
    return {
        "sweep_s.p50": _metric(statistics.median(times), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        "ok_frac": _metric(1.0 - result["failed"] / result["attempted"], "ratio"),
    }


def per_layer(result: dict) -> dict:
    layer = result["layer"]
    metrics = {f"{name}.self_s": _metric(layer[f"{name}.self_s"], "s")
               for name in SPANS}
    metrics.update({name: _metric(layer[name], unit) for name, unit in COUNTERS.items()})
    metrics["trace.overhead_frac"] = _metric(layer["trace.overhead_frac"], "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "choqbern" / "cli.py").is_file():
        print(f"error: no choqbern sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    load_start = _loadavg()
    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config_for(args.workload, args.seed), indent=1))
    common = ["--root", str(ROOT), "--config", str(config_path),
              "--workload", args.workload, "--seed", str(args.seed)]

    try:
        setup = []
        if not args.trace:
            # the first probe fills the page cache and the bytecode cache
            probes = [_worker([*common, "--setup-only"], deadline)
                      for _ in range(SETUP_PROBES + 1)]
            setup = [p["setup_s"] for p in probes[1:]]
        result = _worker([*common, "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--out-dir", str(out_dir)],
                         deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(result["setup_s"])

    machine = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
               "python": platform.python_version(), **result["machine"],
               "thread_env": {name: "1" for name in THREAD_ENV},
               "loadavg_start": load_start, "loadavg_end": _loadavg()}
    (out_dir / "machine.json").write_text(json.dumps(machine, indent=1))
    print("machine: " + json.dumps(machine))
    times = result["times"]
    # too few samples beyond it in most workloads to be a steady metric; logged only
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    print(f"sweeps: {len(times)} timed (p90 {p90:.3f} s, "
          f"{sum(t > p90 for t in times)} beyond it), "
          f"{len(result.get('traced_times', []))} traced, "
          f"reference checked: {result['reference_checked']}; seconds: "
          + " ".join(f"{t:.3f}" for t in times))
    for problem in result["problems"]:
        print(f"problem: {problem}")

    correct = result["failed"] == 0 and result.get("counters_repeat", True)
    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
