"""Spans and work counters around the public entry points of each choqbern layer.

The tracer wraps functions at the module attributes their callers resolve
(``experiments.sample_rows``, ``bernstein.basis_matrix``, ...); nothing in
``src/`` changes.  Each wrapped call records a span (id, name, parent,
start, end) in memory, and some add to work counters.  Every counter is
computed from the call's arguments, never measured, so two runs of the
same input must give the same counts.  Sweeps run single-threaded
(``--threads 1``), so one stack gives each span its parent.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

# every span the tracer records; each gives a per-layer metric <name>.self_s
SPANS = (
    "cli.run_cli",
    "experiments.from_mapping",
    "capacity.capacity_from_spec",
    "experiments.runner",
    "randomfn.grid_tensor",
    "randomfn.evaluator",
    "randomfn.ChoquetModulusTable",
    "randomfn.sample_modulus_profile",
    "stochastic.KTable",
    "capacity.subset_table",
    "choquet.integral_batch",
    "bernstein.multivariate_grid",
    "bernstein.basis_matrix",
    "stochastic.sample_rows",
    "stochastic.max_deviation_rows",
)

# counter name -> unit; every one is computed from call arguments except
# calls (a count of wrapped calls) and cli.csv_bytes (the size of the output)
COUNTERS = {
    "randomfn.ChoquetModulusTable.cells": "count",
    "bernstein.multivariate_grid.calls": "count",
    "bernstein.basis_matrix.cells": "count",
    "randomfn.evaluator.points": "count",
    "capacity.subset_table.entries": "count",
    "choquet.integral_batch.cells": "count",
    "stochastic.sample_rows.draws": "count",
    "stochastic.sample_rows.bytes": "B",
    "experiments.sup_errors.flops": "flop",
    "cli.csv_bytes": "B",
}

PAIR_TOL = 1e-12  # the grid-window slack the modulus table applies to deltas


class Tracer:
    """In-memory span recorder that patches choqbern while installed."""

    def __init__(self):
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._grid_points = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span named ``name``; ``count(*args, **kw)`` feeds counters."""
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, name, parent, start, end))
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # a class keeps the raw descriptor (e.g. a classmethod), not the bound form
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _patch(self, owners, attr: str, name: str, count=None) -> None:
        for owner in owners:
            self._set(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def install(self) -> None:
        """Wrap every layer entry point at the attributes its callers resolve."""
        from choqbern import bernstein, experiments, randomfn, stochastic

        add = self.counters.update
        from_mapping = experiments.ExperimentConfig.from_mapping.__func__
        self._set(experiments.ExperimentConfig, "from_mapping",
                  classmethod(self.wrap("experiments.from_mapping", from_mapping)))
        self._patch([experiments], "capacity_from_spec", "capacity.capacity_from_spec")

        def runner_count(cfg):
            self._grid_points = cfg.grid_points
        runners = experiments._RUNNERS
        for key in list(runners):
            self._patches.append((runners, key, runners[key]))
            runners[key] = self.wrap("experiments.runner", runners[key], runner_count)

        def family_built(*args, **kwargs):
            f = build_family(*args, **kwargs)
            f.evaluator = self.wrap(
                "randomfn.evaluator", f.evaluator,
                lambda pts, atom: add({"randomfn.evaluator.points":
                                       math.prod(pts.shape[:-1])}))
            return f
        build_family = experiments.build_family
        self._set(experiments, "build_family", family_built)

        self._patch([randomfn.RandomFunction], "grid_tensor", "randomfn.grid_tensor")
        self._patch([experiments], "ChoquetModulusTable", "randomfn.ChoquetModulusTable",
                    lambda f, cap, grid, max_deltas=None, powers=(1.0,): add(
                        {"randomfn.ChoquetModulusTable.cells":
                         modulus_cells(f.dim, f.atom_count, grid.points_per_axis,
                                       max_deltas)}))
        self._patch([stochastic, experiments], "sample_modulus_profile",
                    "randomfn.sample_modulus_profile")
        self._patch([experiments], "KTable", "stochastic.KTable")
        self._patch([experiments, randomfn], "subset_table", "capacity.subset_table",
                    lambda cap: add({"capacity.subset_table.entries":
                                     1 << cap.atom_count}))
        self._patch([experiments], "integral_batch", "choquet.integral_batch",
                    lambda values, mu_table: add({"choquet.integral_batch.cells":
                                                  values.size}))
        self._patch([experiments], "multivariate_grid", "bernstein.multivariate_grid",
                    lambda f, n_vec, grid: add({"bernstein.multivariate_grid.calls": 1}))
        self._patch([experiments, bernstein], "basis_matrix", "bernstein.basis_matrix",
                    lambda n, xs: add({"bernstein.basis_matrix.cells":
                                       len(xs) * (n + 1)}))

        def rows_count(n, master_seed, count, start_index=0):
            draws = count * (n + 1)
            # each batch of rows feeds one (count, n+1) @ (n+1, g) GEMM
            add({"stochastic.sample_rows.draws": draws,
                 "stochastic.sample_rows.bytes": 8 * draws,
                 "experiments.sup_errors.flops": 2 * draws * self._grid_points})
        self._patch([experiments], "sample_rows", "stochastic.sample_rows", rows_count)
        self._patch([experiments], "max_deviation_rows",
                    "stochastic.max_deviation_rows")

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def span_records(self, op_index: int) -> list[dict]:
        return [{"op": op_index, "id": s[0], "name": s[1], "parent": s[2],
                 "start": s[3], "end": s[4]} for s in self.spans]


def self_times(spans) -> dict[str, float]:
    """Per name: span duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span_id, _, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for span_id, name, _, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[name] += (end - start) - covered
    return dict(out)


def _window(delta: float, spacing: float, points: int) -> int:
    steps = math.floor((delta + PAIR_TOL) / spacing + 1e-9)
    return min(max(steps, 0), points - 1)


def modulus_cells(dim: int, atoms: int, points: int, max_deltas) -> int:
    """Difference entries a modulus table visits: offsets x rows x atoms."""
    if max_deltas is None:
        max_deltas = (1.0,) * dim
    elif isinstance(max_deltas, (int, float)):
        max_deltas = (float(max_deltas),) * dim
    spacing = 1.0 / (points - 1)
    if dim == 1:
        w = _window(max(max_deltas), spacing, points)
        return atoms * sum(points - d for d in range(1, w + 1))
    w1 = _window(max_deltas[0], spacing, points)
    w2 = _window(max_deltas[1], spacing, points)
    total = 0
    for dx in range(w1 + 1):
        for dy in range(0 if dx == 0 else -w2, w2 + 1):
            if (dx, dy) != (0, 0):
                total += (points - dx) * (points - abs(dy))
    return atoms * total

