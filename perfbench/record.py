"""Record the reference CSVs the benchmark compares its sweeps against.

    python3 perfbench/record.py --workload mean2d --seeds 0 1 2

Runs each (workload, seed) sweep once through the CLI, refuses to record a
CSV whose rows fail their bounds, and writes reference/<workload>.json
mapping each seed to its CSV.  Seeds already recorded are kept unless
given again.  Record again only when a change of output is intended, and
say so where the change is described.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from check import REFERENCE_DIR, row_problems
from workloads import WORKLOADS, config_for

ROOT = Path(__file__).resolve().parent.parent


def record(workload: str, seeds: list[int]) -> dict[str, str]:
    sys.path.insert(0, str(ROOT / "src"))
    from choqbern.cli import run_cli
    path = REFERENCE_DIR / f"{workload}.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "sweep.csv"
        for seed in seeds:
            config.write_text(json.dumps(config_for(workload, seed)))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = run_cli(["experiment", "--config", str(config), "--seed",
                              str(seed), "--out", str(out), "--threads", "1"])
            text = out.read_text()
            problems = row_problems(text)
            if rc != 0 or problems:
                raise SystemExit(f"{workload} seed {seed}: exit {rc}, {problems[:3]}")
            refs[str(seed)] = text
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(sorted(refs.items(), key=lambda kv: int(kv[0]))),
                               indent=1) + "\n")
    return refs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", required=True, type=int, nargs="+")
    args = ap.parse_args(argv)
    refs = record(args.workload, args.seeds)
    print(f"{args.workload}: {len(refs)} seeds recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
