"""The benchmark's tracer around one tiny sweep of each experiment runner.

The tracer (``perfbench/tracing.py``) wraps layer entry points by their
signatures; these sweeps make a signature change in any traced layer fail
here, not only in a traced benchmark run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from choqbern import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer  # noqa: E402

CONFIGS = {
    # a mean run sorts its error rows once for every p, so it calls no
    # integral_batch; the capacity run still checks that signature
    "mean_convergence": ({"schedule": [[4, 4], [8, 4]], "p": [1, 2], "grid_points": 9},
                         {"randomfn.ChoquetModulusTable", "bernstein.multivariate_grid",
                          "capacity.subset_table"}),
    "capacity_convergence": ({"schedule": [4, 16], "grid_points": 9},
                             {"choquet.integral_batch", "bernstein.multivariate_grid",
                              "bernstein.basis_matrix", "capacity.subset_table"}),
    "possibility_convergence": ({"schedule": [4, 16], "grid_points": 9},
                                {"randomfn.sample_modulus_profile",
                                 "bernstein.multivariate_grid"}),
    "stochastic": ({"schedule": [25, 100], "samples": 200},
                   {"stochastic.KTable", "randomfn.sample_modulus_profile",
                    "stochastic.sample_rows", "stochastic.max_deviation_rows"}),
}


def _sweep(run_cli, config: Path, out: Path) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(["experiment", "--config", str(config), "--out", str(out),
                        "--threads", "1"]) == 0
    return out.read_text()


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_traced_sweep_matches_untraced(tmp_path, experiment):
    keys, spans = CONFIGS[experiment]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, "family": "affine_noise",
                                  "seed": 1, **keys}))
    out = tmp_path / "rows.csv"
    plain = _sweep(cli.run_cli, config, out)

    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            traced = _sweep(tracer.wrap("cli.run_cli", cli.run_cli), config, out)
        finally:
            tracer.restore()
        assert traced == plain
        counts.append(dict(tracer.counters))
    assert counts[0] == counts[1]
    names = {span[1] for span in tracer.spans}
    assert {"cli.run_cli", "experiments.from_mapping", "experiments.runner",
            "randomfn.grid_tensor", "randomfn.evaluator"} | spans <= names
