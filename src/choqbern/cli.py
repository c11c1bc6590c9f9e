"""Command-line entry point: one-shot calculators and the experiment harness.

Exit codes: 0 on success with every emitted row passing, 1 when at least
one row fails its bound, 2 on input errors (bad flags, unreadable or
invalid config, sizes beyond memory).  Every float printed round-trips
exactly: the experiment CSV and ``integrate`` print 17 significant digits,
and the JSON lines of ``modulus``, ``approx`` and ``stochastic`` print each
float's shortest round-trip form.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .bernstein import _check_degree, multivariate_grid, uniform_constant
from .capacity import as_mask, capacity_from_spec, check_properties, make_distortion
from .choquet import (_atom_values, choquet_integral, choquet_integral_oracle,
                      choquet_lp_norm)
from .experiments import (ROW_TOLERANCE, ExperimentConfig, _fmt, named_errors,
                          run_experiment)
from .randomfn import (Grid, build_family, choquet_modulus, list_families,
                       stochastic_modulus)
from .stochastic import (SeededStream, _check_r, _check_slope, k_modulus,
                         lemma51_bound, max_deviation_rows, sample_rows)


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what} file '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file '{path}' is not valid JSON: {exc}") from exc


def _load_capacity(path: str):
    spec = _read_json(path, "capacity")
    with named_errors(f"capacity file '{path}'"):
        return capacity_from_spec(spec)


def _parse_subset(text: str):
    if text == "all":
        return None
    if text.strip() == "":
        return []
    return [int(s) for s in text.split(",")]


def _parse_values(text: str):
    return [float(s) for s in text.split(",")]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_integrate(args) -> int:
    cap = _load_capacity(args.capacity)
    with named_errors("--values"):
        values = _atom_values(_parse_values(args.values), cap.atom_count)
    with named_errors("--subset"):
        subset = as_mask(_parse_subset(args.subset), cap.atom_count)
    if args.p is not None:
        with named_errors("--p"):
            norm = choquet_lp_norm(values, cap, args.p)
        print(_fmt(norm))
        return 0
    if args.method == "oracle":
        with named_errors("--steps"):
            res = choquet_integral_oracle(values, cap, subset, steps=args.steps)
    else:
        res = choquet_integral(values, cap, subset)
    print(_fmt(res.value))
    return 0


def _cmd_capacity_check(args) -> int:
    cap = _load_capacity(args.capacity)
    report = check_properties(cap, mode=args.mode)
    print(json.dumps({"monotone": report.monotone,
                      "subadditive": report.subadditive,
                      "submodular": report.submodular}))
    return 0


def _build_from_args(args):
    """The family named by --family, with the JSON object --params, and the grid.

    --atom and --grid are checked before anything is computed.
    """
    if args.atoms < 1:
        raise ValueError(f"--atoms: must be >= 1, got {args.atoms}")
    if args.family not in list_families():
        raise ValueError(f"unknown --family '{args.family}' (known: {list_families()})")
    if not 0 <= args.atom < args.atoms:
        raise ValueError(f"--atom must lie in [0, {args.atoms}), got {args.atom}")
    with named_errors("--grid"):
        grid = Grid.default_for(args.dim, args.grid)
    with named_errors("--params"):
        params = json.loads(args.params or "{}")
        if not isinstance(params, dict):
            raise TypeError(f"expected a JSON object, got {args.params}")
        return build_family(args.family, args.atoms, args.dim, params), grid


def _cmd_modulus(args) -> int:
    f, grid = _build_from_args(args)
    for flag, delta in (("--delta", args.delta), ("--delta2", args.delta2)):
        with named_errors(flag):
            if delta is not None and not 0.0 <= delta < math.inf:
                raise ValueError(f"must be a finite number >= 0, got {delta}")
    with named_errors("--delta2"):
        if args.delta2 is not None and (args.kind, args.dim) != ("gamma", 2):
            raise ValueError("a second delta needs --kind gamma and --dim 2")
    if args.kind == "gamma":
        if not args.capacity:
            raise ValueError("gamma modulus needs --capacity")
        cap = _load_capacity(args.capacity)
        if cap.atom_count != args.atoms:
            raise ValueError("--atoms must match the capacity's atom count")
        deltas = [args.delta] * args.dim
        if args.delta2 is not None:
            deltas = [args.delta, args.delta2]
        with named_errors("--p"):
            value = choquet_modulus(f, cap, deltas, args.p, grid)
    elif args.kind == "k":
        with named_errors("--dim"):
            value = k_modulus(f, args.delta, grid)
    else:
        value = stochastic_modulus(f, args.delta, args.atom, grid)
    print(json.dumps({"kind": args.kind, "delta": args.delta, "value": value}))
    return 0


def _cmd_approx(args) -> int:
    f, grid = _build_from_args(args)
    with named_errors("--n2"):
        if args.n2 is not None and args.dim != 2:
            raise ValueError("a second degree needs --dim 2")
    for flag, n in (("--n", args.n), ("--n2", args.n2)):
        with named_errors(flag):
            if n is not None:
                _check_degree(n)
    n_vec = tuple([args.n] * args.dim if args.n2 is None else [args.n, args.n2])
    finest = (grid.points_per_axis - 1) ** 2
    if min(n_vec) > finest:
        flag = "--n" if min(n_vec) == args.n else "--n2"
        raise ValueError(f"{flag}: degree {min(n_vec)} is finer than the grid: the "
                         f"modulus at 1/sqrt(n) needs n <= (grid - 1)**2 = {finest}")
    approx = multivariate_grid(f, n_vec, grid)
    tensor = f.grid_tensor(grid)
    w = args.atom
    sup_err = float(np.abs(tensor[..., w] - approx[..., w]).max())
    delta = 1.0 / math.sqrt(min(n_vec))
    omega = stochastic_modulus(f, delta, w, grid)
    bound = uniform_constant(args.dim) * omega
    passed = sup_err <= bound + ROW_TOLERANCE
    print(json.dumps({"n": min(n_vec), "sup_error": sup_err, "modulus": omega,
                 "bound": bound, "pass": bool(passed)}))
    return 0 if passed else 1


def _cmd_stochastic(args) -> int:
    with named_errors("--seed"):
        SeededStream(args.seed, 0)
    with named_errors("--index"):
        SeededStream(args.seed, args.index)
    with named_errors("--n"):
        rows = sample_rows(args.n, args.seed, 1, start_index=args.index)
    m_n = float(max_deviation_rows(rows)[0])
    out = {"n": args.n, "seed": args.seed, "index": args.index, "m_n": m_n}
    if args.epsilon is not None:
        with named_errors("--distortion"):
            slope = make_distortion(args.distortion).derivative_at_zero
            _check_slope(slope)
        with named_errors("--r"):
            _check_r(args.r)
        with named_errors("--epsilon"):
            out["lemma_bound"] = lemma51_bound(args.n, args.epsilon, args.r, slope)
        out["exceeds"] = bool(m_n > args.epsilon)
    print(json.dumps(out))
    return 0


def parse_config(path: str, seed: int | None = None,
                 workers: int | None = None) -> ExperimentConfig:
    """Read and validate an experiment config file, applying defaults."""
    obj = _read_json(path, "config")
    if not isinstance(obj, dict):
        raise ValueError(f"config file '{path}' must hold a JSON object")
    if seed is not None:
        obj = {**obj, "seed": seed}
    cfg = ExperimentConfig.from_mapping(obj)
    if workers is not None:
        cfg.workers = workers
    return cfg


def _cmd_experiment(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads: must be >= 1, got {args.threads}")
    cfg = parse_config(args.config, seed=args.seed, workers=args.threads)
    result = run_experiment(cfg)
    if args.out:
        result.write_csv(args.out)
    else:
        sys.stdout.write(result.to_csv())
    print(json.dumps(result.summary(), sort_keys=True))
    return 0 if result.all_passed else 1


def _cmd_list_families(args) -> int:
    print(json.dumps(list_families()))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choqbern",
        description="Choquet integration and Bernstein approximation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="Choquet integral of tabulated atom values")
    p.add_argument("--capacity", required=True, help="capacity JSON file")
    p.add_argument("--values", required=True, help="comma-separated atom values")
    p.add_argument("--subset", default="all", help="'all' or comma-separated indices")
    p.add_argument("--method", choices=["sorted", "oracle"], default="sorted")
    p.add_argument("--steps", type=int, default=10 ** 6)
    p.add_argument("--p", type=float, default=None,
                   help="print the L^p norm instead of the integral")
    p.set_defaults(fn=_cmd_integrate)

    p = sub.add_parser("capacity-check", help="monotonicity/subadditivity/submodularity")
    p.add_argument("--capacity", required=True)
    p.add_argument("--mode", choices=["auto", "analytic", "exhaustive"],
                   default="auto")
    p.set_defaults(fn=_cmd_capacity_check)

    # the flags ``_build_from_args`` reads, shared by ``modulus`` and ``approx``
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True)
    family.add_argument("--params", default=None, help="family parameters as JSON")
    family.add_argument("--atoms", type=int, default=5)
    family.add_argument("--dim", type=int, choices=(1, 2), default=1)
    family.add_argument("--atom", type=int, default=0)
    family.add_argument("--grid", type=int, default=None)

    p = sub.add_parser("modulus", parents=[family],
                       help="moduli of continuity on a grid")
    p.add_argument("--kind", choices=["gamma", "k", "sample"], default="k")
    p.add_argument("--capacity", default=None, help="needed for --kind gamma")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--delta2", type=float, default=None)
    p.add_argument("--p", type=float, default=1.0)
    p.set_defaults(fn=_cmd_modulus)

    p = sub.add_parser("approx", parents=[family],
                       help="Bernstein approximation report for one sample")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n2", type=int, default=None)
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("stochastic", help="draw one node row and report its deviation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--r", type=float, default=0.9)
    p.add_argument("--distortion", default="rational_2t")
    p.set_defaults(fn=_cmd_stochastic)

    p = sub.add_parser("experiment", help="run a configured verification sweep")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="write rows CSV here")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for the schedule entries (default 1)")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("list-families", help="names of built-in random functions")
    p.set_defaults(fn=_cmd_list_families)
    return parser


def run_cli(argv: Sequence[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; lower the size inputs ('grid_points', 'samples' "
              "or the 'schedule' degrees of a config, or --grid)", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
