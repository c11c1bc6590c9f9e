"""The benchmark's workloads: one experiment config per workload, made from a seed.

Every config sets its ``seed`` from the benchmark seed.  The two
deterministic sweeps also draw the ``affine_noise`` ``z`` vector (one
entry per atom, uniform in [-1, 1]) from that seed, so each seed is a
different input.  Only the standard library is used here, so the
benchmark's parent process never imports numpy.
"""

from __future__ import annotations

import random

WORKLOADS = ("mean2d", "capconv_wide", "stoch_wide")


def _z(seed: int, atoms: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.uniform(-1.0, 1.0) for _ in range(atoms)]


def config_for(workload: str, seed: int) -> dict:
    """The experiment config of ``workload`` for benchmark seed ``seed``."""
    if workload == "mean2d":
        # Acceptance config C08: ChoquetModulusTable is most of the sweep, so this
        # exercises the modulus kernel and the Choquet sort/gather; it uses no RNG.
        return {
            "experiment": "mean_convergence",
            "family": {"name": "affine_noise", "params": {"z": _z(seed, 5)}},
            "capacity": {"atoms": 5, "repr": {
                "type": "distorted",
                "distortion": {"kind": "power", "alpha": 0.5}}},
            "schedule": [[4, 4], [16, 16], [64, 64], [16, 4], [64, 16]],
            "p": [1, 2],
            "grid_points": 65,
            "seed": seed,
        }
    if workload == "capconv_wide":
        # multivariate_grid is most of the sweep; a 16-atom possibility capacity
        # runs a 2^16 subset table through the maxitive representation and
        # bypasses the modulus table and the RNG; its short sweeps make fixed
        # costs (config parse, CSV write) show.
        levels = [0.5 + 0.5 * i / 15 for i in range(16)]
        return {
            "experiment": "capacity_convergence",
            "family": {"name": "affine_noise", "params": {"z": _z(seed, 16)}},
            "capacity": {"atoms": 16, "repr": {"type": "possibility",
                                               "lambda": levels}},
            "dim": 2,
            "grid_points": 65,
            "schedule": [4, 16, 64, 256],
            "epsilons": [0.02, 0.1],
            "etas": [0.05],
            "seed": seed,
        }
    if workload == "stoch_wide":
        # Acceptance config C10 (affine_noise): the _sup_errors GEMM at n=1600 and
        # sample_rows split the time about evenly.  Its small degrees are RNG-bound
        # (generator construction) and its large one is GEMM- and memory-bound, so
        # an RNG change can win on one side and lose on the other.
        return {
            "experiment": "stochastic",
            "family": "affine_noise",
            "atoms": 5,
            "capacity": {"repr": {"type": "distorted",
                                  "distortion": {"kind": "rational_2t"}}},
            "schedule": [25, 100, 400, 1600],
            "deltas": [0.1, 0.2],
            "epsilons": [0.3],
            "rs": [0.9],
            "samples": 10000,
            "seed": seed,
        }
    raise ValueError(f"unknown workload '{workload}' (known: {WORKLOADS})")
