"""The workload process: set-up, then a closed loop of sweeps through the CLI.

One client runs one ``choqbern.cli.run_cli(["experiment", ...])`` call per
operation and starts the next only when the last has returned.  The first
sweep is a warm-up whose time is not kept.  Every sweep is checked (see
``check.py``) and its CSV must equal the warm-up's byte for byte.

With ``--trace 1`` sweeps alternate between untraced and traced; the
traced ones record spans and work counters (see ``tracing.py``), whose
counters must repeat exactly from one traced sweep to the next.

With ``--setup-only`` the process times set-up and exits; the parent
(``run.py``) starts several of these to take a median.  The last stdout
line is a JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from check import load_reference, sweep_problems
from tracing import COUNTERS, SPANS, Tracer, self_times

MIN_SWEEPS = 3         # timed sweeps per untraced run, whatever --seconds says
MIN_TRACE_PAIRS = 2    # untraced/traced pairs per traced run
MAX_PROBLEMS = 5       # problem messages passed back to the parent


def _setup(root: Path, config: str, seed: int):
    """Import choqbern (numpy included) and parse the config; return (cli, s)."""
    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    from choqbern import cli
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"choqbern imported from {cli.__file__}, not from the "
                           "checkout's src/")
    cli.parse_config(config, seed=seed, workers=1)
    return cli, time.perf_counter() - start


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None for another BLAS."""
    with open("/proc/self/maps") as fh:
        libs = [line.split()[-1] for line in fh if "openblas" in line]
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads()}


class Sweeps:
    """Runs and checks sweeps of one config, keeping the tallies."""

    def __init__(self, run_cli, argv: list[str], csv_path: Path, reference):
        self.run_cli = run_cli
        self.argv = argv
        self.csv_path = csv_path
        self.reference = reference
        self.first_csv: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, run_cli=None) -> tuple[float, str | None]:
        """One checked sweep; returns (wall seconds, CSV text or None)."""
        run_cli = run_cli or self.run_cli
        self.csv_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = run_cli(self.argv)
        except (Exception, SystemExit) as exc:  # a sweep that raises has failed
            rc = f"raised {exc!r}"
        seconds = time.perf_counter() - start
        text = self.csv_path.read_text() if self.csv_path.is_file() else None
        problems = sweep_problems(rc, out.getvalue(), text, self.reference)
        if self.first_csv is None:
            self.first_csv = text
        elif text != self.first_csv:
            problems.append("CSV differs from the first sweep of this run")
        self.attempted += 1
        if problems:
            if err.getvalue():
                problems.append(f"stderr: {err.getvalue().strip()[:200]}")
            self.failed += 1
            self.problems += problems[:max(0, MAX_PROBLEMS - len(self.problems))]
        return seconds, text


def untraced_loop(sweeps: Sweeps, seconds: float) -> dict:
    sweeps.run()  # warm-up
    times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < MIN_SWEEPS:
        times.append(sweeps.run()[0])
    return {"times": times}


def traced_loop(sweeps: Sweeps, seconds: float, spans_path: Path) -> dict:
    tracer = Tracer()
    traced_cli = tracer.wrap("cli.run_cli", sweeps.run_cli)
    sweeps.run()  # warm-up
    plain, traced, self_s, counters, records = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_TRACE_PAIRS:
        plain.append(sweeps.run()[0])
        tracer.reset()
        tracer.install()
        try:
            elapsed, text = sweeps.run(traced_cli)
        finally:
            tracer.restore()
        traced.append(elapsed)
        counts = dict(tracer.counters)
        counts["cli.csv_bytes"] = len(text.encode()) if text is not None else 0
        counters.append(counts)
        self_s.append(self_times(tracer.spans))
        records += tracer.span_records(len(traced) - 1)
    spans_path.write_text(json.dumps(records))
    repeat = all(c == counters[0] for c in counters)
    if not repeat:
        sweeps.problems.append("work counters differ between traced sweeps")
    layer = {f"{name}.self_s": statistics.median(s.get(name, 0.0) for s in self_s)
             for name in SPANS}
    layer.update({name: counters[0].get(name, 0) for name in COUNTERS})
    layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return {"times": plain, "traced_times": traced, "layer": layer,
            "counters_repeat": repeat}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--config", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli, setup_s = _setup(args.root.resolve(), args.config, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    csv_path = args.out_dir / "sweep.csv"
    run_argv = ["experiment", "--config", args.config, "--seed", str(args.seed),
                "--out", str(csv_path), "--threads", "1"]
    sweeps = Sweeps(cli.run_cli, run_argv, csv_path,
                    load_reference(args.workload, args.seed))
    if args.trace:
        result = traced_loop(sweeps, args.seconds, args.out_dir / "spans.json")
    else:
        result = untraced_loop(sweeps, args.seconds)
    result.update({
        "setup_s": setup_s,
        "attempted": sweeps.attempted,
        "failed": sweeps.failed,
        "problems": sweeps.problems,
        "reference_checked": sweeps.reference is not None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_info(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
