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
import functools
import json
import math
import sys
from typing import Sequence

from .bernstein import _check_degree, degree_vector
from .capacity import (as_mask, capacity_from_spec, check_integer, check_properties,
                       make_distortion)
from .choquet import (_atom_values, check_p, choquet_integral, choquet_integral_oracle,
                      choquet_lp_norm)
from .experiments import (BoundRow, ExperimentConfig, _fmt, named_errors,
                          refuse_constant, run_experiment, uniform_estimate)
from .randomfn import (Grid, build_family, choquet_modulus, family_builder, list_families,
                       stochastic_modulus)
from .stochastic import (SeededStream, _check_r, _check_slope, k_modulus,
                         lemma51_bound, max_deviation_rows, sample_rows)


def _read_json(path: str, what: str):
    """The JSON value in ``path``; NaN and +-Infinity are refused."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=refuse_constant)
    except OSError as exc:
        raise ValueError(f"cannot read {what} file '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} file '{path}' is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{what} file '{path}': {exc}") from exc


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
# Subcommand handlers: each returns the text to print and the exit code
# ---------------------------------------------------------------------------

# per subcommand: (flags, whether the chosen mode leaves them unread, why); run_cli
# refuses such a flag set away from its default once the flags the mode reads pass
_UNREAD = {
    "integrate": [("subset method steps", lambda a: a.p is not None,
                   "--p prints the L^p norm over every atom by the sorted formula"),
                  ("steps", lambda a: a.method != "oracle", "only --method oracle reads it")],
    "modulus": [("capacity p", lambda a: a.kind != "gamma", "only --kind gamma reads it"),
                ("delta2", lambda a: (a.kind, a.dim) != ("gamma", 2),
                 "a second delta needs --kind gamma and --dim 2"),
                ("atom", lambda a: a.kind != "sample", "only --kind sample reads it")],
    "approx": [("n2", lambda a: a.dim != 2, "a second degree needs --dim 2")],
    "stochastic": [("r distortion", lambda a: a.epsilon is None, "only --epsilon reads it")],
}


def _refuse_unread(args) -> None:
    """Refuse a flag set away from its default that the chosen mode does not read."""
    for flags, unread, why in _UNREAD.get(args.command, ()):
        for dest in flags.split():
            if unread(args) and getattr(args, dest) != args.parser.get_default(dest):
                raise ValueError(f"--{dest}: {why}")


def _cmd_integrate(args) -> tuple[str, int]:
    cap = _load_capacity(args.capacity)
    with named_errors("--values"):
        values = _atom_values(_parse_values(args.values), cap.atom_count)
    if args.p is not None:
        with named_errors("--p"):
            return _fmt(choquet_lp_norm(values, cap, args.p)), 0
    with named_errors("--subset"):
        subset = as_mask(_parse_subset(args.subset), cap.atom_count)
    if args.method == "oracle":
        with named_errors("--steps"):
            res = choquet_integral_oracle(values, cap, subset, steps=args.steps)
    else:
        res = choquet_integral(values, cap, subset)
    return _fmt(res.value), 0


def _cmd_capacity_check(args) -> tuple[str, int]:
    cap = _load_capacity(args.capacity)
    with named_errors("--mode"):
        report = check_properties(cap, mode=args.mode)
    return json.dumps({"monotone": report.monotone, "subadditive": report.subadditive,
                       "submodular": report.submodular}), 0


def _build_from_args(args):
    """The family named by --family, with the JSON object --params, and the grid.

    --atom and --grid are checked before anything is computed; the family
    must be finite on the grid.
    """
    with named_errors("--atoms"):
        check_integer(args.atoms, "atom count", 1)
    with named_errors("--family"):
        family_builder(args.family)
    with named_errors("--atom"):
        check_integer(args.atom, "atom index", 0, args.atoms)
    with named_errors("--grid"):
        grid = Grid.default_for(args.dim, args.grid)
    with named_errors("--params"):
        params = json.loads(args.params or "{}", parse_constant=refuse_constant)
        if not isinstance(params, dict):
            raise TypeError(f"expected a JSON object, got {args.params}")
        f = build_family(args.family, args.atoms, args.dim, params)
        f.grid_tensor(grid)  # memoized; refuses non-finite values
        return f, grid


def _cmd_modulus(args) -> tuple[str, int]:
    f, grid = _build_from_args(args)
    for flag, delta in (("--delta", args.delta), ("--delta2", args.delta2)):
        with named_errors(flag):
            if delta is not None and not 0.0 <= delta < math.inf:
                raise ValueError(f"must be a finite number >= 0, got {delta}")
    if args.kind == "gamma":
        if not args.capacity:
            raise ValueError("--capacity: the gamma modulus needs a capacity file")
        cap = _load_capacity(args.capacity)
        if cap.atom_count != args.atoms:
            raise ValueError(f"--atoms: must match the capacity's atom count "
                             f"{cap.atom_count}, got {args.atoms}")
        with named_errors("--p"):
            check_p(args.p)
        deltas = [args.delta, args.delta if args.delta2 is None else args.delta2][:args.dim]
        with named_errors("--capacity"):
            value = choquet_modulus(f, cap, deltas, args.p, grid)
    elif args.kind == "k":
        with named_errors("--dim"):
            value = k_modulus(f, args.delta, grid)
    else:
        value = stochastic_modulus(f, args.delta, args.atom, grid)
    return json.dumps({"kind": args.kind, "delta": args.delta, "value": value}), 0


def _cmd_approx(args) -> tuple[str, int]:
    f, grid = _build_from_args(args)
    n2 = args.n2 if args.dim == 2 else None  # a 1-D --n2 is refused as unread
    for flag, n in (("--n", args.n), ("--n2", n2)):
        with named_errors(flag):
            if n is not None:
                _check_degree(n)
    n_vec = degree_vector(args.n if n2 is None else (args.n, n2), args.dim)
    n = min(n_vec)  # the estimate reads the modulus at 1/sqrt(n)
    if n > grid.finest_degree:
        raise ValueError(f"{'--n' if n == args.n else '--n2'}: degree {n} is finer than "
                         f"the grid: the modulus at 1/sqrt(n) needs n <= (grid - 1)**2 = "
                         f"{grid.finest_degree}")
    sup_err, omega, bound = (float(v[args.atom]) for v in uniform_estimate(f, n_vec, grid))
    passed = BoundRow("approx", n, None, None, None, None, None, sup_err, bound).passed
    return json.dumps({"n": n, "sup_error": sup_err, "modulus": omega,
                       "bound": bound, "pass": passed}), 0 if passed else 1


def _cmd_stochastic(args) -> tuple[str, int]:
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
    return json.dumps(out), 0


def parse_config(path: str, seed: int | None = None,
                 workers: int | None = None) -> ExperimentConfig:
    """Read and validate an experiment config file, applying defaults.

    Sweeps set their own threads, so ``workers`` may only be None or 1.
    """
    if workers not in (None, 1):
        raise ValueError(f"workers: sweeps set their own threads, so it must be 1, "
                         f"got {workers}")
    obj = _read_json(path, "config")
    if not isinstance(obj, dict):
        raise ValueError(f"config file '{path}' must hold a JSON object")
    if seed is not None:
        obj = {**obj, "seed": seed}
    return ExperimentConfig.from_mapping(obj)


def _cmd_experiment(args) -> tuple[str, int]:
    if args.threads != 1:
        raise ValueError(f"--threads: sweeps set their own threads, so it must be 1, "
                         f"got {args.threads}")
    cfg = parse_config(args.config, seed=args.seed)
    result = run_experiment(cfg)
    if args.out:
        result.write_csv(args.out)
    summary = json.dumps(result.summary(), sort_keys=True)
    return ("" if args.out else result.to_csv()) + summary, 0 if result.all_passed else 1


def _cmd_list_families(args) -> tuple[str, int]:
    return json.dumps(list_families()), 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache  # built once per process: parsing leaves the parser as it was
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
                   help="accepted only as 1: sweeps set their own threads")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("list-families", help="names of built-in random functions")
    p.set_defaults(fn=_cmd_list_families)
    for p in sub.choices.values():
        p.set_defaults(parser=p)  # whose defaults ``_refuse_unread`` reads
    return parser


def run_cli(argv: Sequence[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        out, code = args.fn(args)
        _refuse_unread(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; lower the size inputs ('grid_points', 'samples' "
              "or the 'schedule' degrees of a config, or --grid)", file=sys.stderr)
        return 2
    print(out)
    return code


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
