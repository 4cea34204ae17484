"""Child process for the library workloads: ``sweep-random`` and
``fuzz-adversary``.

Run by ``run.py`` in a fresh interpreter (cold caches, clean
environment).  Modes:

- ``setup``: prints the seconds from ``--t0`` (the moment the parent
  spawned this process) to the first completed cell;
- ``measure``: rounds until ``--seconds`` have passed (at least this
  stream's share of the digest prefix), or exactly ``--units`` rounds;
  with ``--streams S --stream i`` this process runs rounds i, i + S,
  i + 2S, ... while the other streams run the rest;
- ``trace``: exactly ``--units`` rounds under the layer tracer.

Work units:

- ``sweep-random``: one round is ``build_sweep(n_values=2..8, reps=1,
  seed_base=...).execute()`` -- serial, library defaults, no ledger;
- ``fuzz-adversary``: one round is ``fuzz_consensus(AdsConsensus,
  n_values=[2, 3, 4], runs_per_cell=1, workers=2, master_seed=...)``
  under the default fail-fast policy.

The "jobs" of the latency metrics are the sweep's cells, timed between
the sweep's own progress callbacks, and the fuzz rounds (one
``fuzz_consensus`` call each).  In a ``measure`` run over ``--seconds``
the wall times of each round's jobs are rescaled to the reference host
by the probes run just before and after the round (``common.HostSpeed``);
``busy_s``, the sum of the rescaled job times, is the time base of the
throughputs.
Runs of a fixed ``--units`` (the halves of a traced run) do not probe,
so their windows compare.
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import sys
import time

from repro.parallel import ParallelExecutionError

from common import (
    DIGEST_UNITS,
    FUZZ_N_VALUES,
    FUZZ_RUNS_PER_CELL,
    FUZZ_WORKERS,
    SWEEP_N_VALUES,
    SWEEP_REPS,
    HostSpeed,
    emit,
    outcome_digest,
    peak_rss_mb,
    unit_seed,
)


class Workload:
    """What a library workload accumulates over its rounds."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rows: list[list] = []  # (experiment, n, seed, value) for the digest
        self.job_ms: list[float] = []
        self.cells = 0
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_cell_at: float | None = None
        self.host: HostSpeed | None = None
        self.busy_s = 0.0  # job time, at reference-host speed when probing

    def lost(self, what: str, count: int, error: Exception) -> None:
        """Record ``count`` failed units; the run then reports incorrect."""
        self.failed += count
        self.problems.append(f"{what}: {str(error).splitlines()[0]}")

    def finished(self, elapsed: list[float]) -> None:
        """A round ended; its jobs took ``elapsed`` wall seconds each."""
        factor = self.host.factor() if self.host is not None else 1.0
        for seconds in elapsed:
            self.job_ms.append(seconds * factor * 1000.0)
            self.busy_s += seconds * factor


class SweepRandom(Workload):
    name = "sweep-random"

    def __init__(self, seed: int):
        from repro.workloads import build_sweep, sweep_experiment

        super().__init__(seed)
        self.build_sweep = build_sweep
        self.experiment = sweep_experiment("ads", "steps")

    def run_unit(self, unit: int, n_values: list[int] = SWEEP_N_VALUES) -> None:
        seed_base = unit_seed(self.seed, unit)
        cell_s: list[float] = []
        last = time.perf_counter()

        def progress(done: int, total: int) -> None:
            nonlocal last
            now = time.perf_counter()
            cell_s.append(now - last)
            last = now
            if self.first_cell_at is None:
                self.first_cell_at = time.time()

        self.attempted += len(n_values) * SWEEP_REPS
        try:
            points = self.build_sweep(
                n_values=n_values, reps=SWEEP_REPS, seed_base=seed_base
            ).execute(progress=progress)
        except ParallelExecutionError as exc:
            # An unsafe run fails validate_run inside its cell.
            self.lost(f"sweep seed_base={seed_base}", len(exc.errors), exc)
            return
        self.finished(cell_s)
        for point in points:
            n = point.params["n"]
            for rep, value in enumerate(point.samples):
                self.rows.append([self.experiment, n, seed_base + rep, value])
                self.cells += 1
                self.steps += int(value)

    def setup_unit(self) -> None:
        """The first cell of round 0 alone: set-up ends when it is done."""
        self.run_unit(0, SWEEP_N_VALUES[:1])

    def check(self, digest_rows: list[list]) -> list[str]:
        """Differential check of the digest cells against the fast
        interpreter (``repro.batch.run_lanes``), which is bit-identical to
        the generator runtime on this cell."""
        from repro.batch import LaneSpec, run_lanes

        specs = [
            LaneSpec(inputs=tuple((seed + i) % 2 for i in range(n)), seed=seed)
            for _exp, n, seed, _value in digest_rows
        ]
        problems = []
        compared = 0
        for (_exp, n, seed, value), lane in zip(digest_rows, run_lanes(specs)):
            if lane.fallback is not None:
                continue
            compared += 1
            decided = set(lane.decisions.values())
            if len(decided) != 1 or not decided <= set(lane.spec.inputs):
                problems.append(f"fast interpreter unsafe on n={n} seed={seed}")
            if float(lane.total_steps) != value:
                problems.append(
                    f"n={n} seed={seed}: sweep says {value} steps, "
                    f"fast interpreter {lane.total_steps}"
                )
        if not compared:
            problems.append("no digest cell reached the fast interpreter")
        return problems


class FuzzAdversary(Workload):
    name = "fuzz-adversary"

    def __init__(self, seed: int):
        from repro.consensus import AdsConsensus
        from repro.verify.fuzz import DEFAULT_SCHEDULERS, fuzz_consensus

        super().__init__(seed)
        self.fuzz = fuzz_consensus
        self.protocol = AdsConsensus
        self.grid_cells = len(FUZZ_N_VALUES) * len(DEFAULT_SCHEDULERS)

    def campaign(self, master_seed: int, workers: int, progress=None):
        return self.fuzz(
            self.protocol,
            n_values=FUZZ_N_VALUES,
            runs_per_cell=FUZZ_RUNS_PER_CELL,
            workers=workers,
            master_seed=master_seed,
            progress=progress,
        )

    @staticmethod
    def summary(report) -> list:
        return [
            report.runs,
            report.steps_total,
            sorted(report.by_scheduler.items()),
            report.recovery_runs,
            report.degraded_runs,
            report.watchdog_halts,
            len(report.failures),
        ]

    def run_unit(self, unit: int) -> None:
        master_seed = unit_seed(self.seed, unit)

        def progress(done: int, total: int) -> None:
            if self.first_cell_at is None:
                self.first_cell_at = time.time()

        expected = self.grid_cells * FUZZ_RUNS_PER_CELL
        self.attempted += expected
        began = time.perf_counter()
        try:
            report = self.campaign(master_seed, FUZZ_WORKERS, progress)
        except ParallelExecutionError as exc:  # a cell raised or its worker died
            self.lost(f"fuzz master_seed={master_seed}", expected, exc)
            return
        self.finished([time.perf_counter() - began])
        if not report.ok or report.runs != expected:
            self.failed += max(1, len(report.failures) + len(report.task_errors))
            self.problems.append(
                f"master_seed={master_seed}: {report.summary()}; "
                + "; ".join(str(f) for f in report.failures[:3])
            )
        self.rows.append(["fuzz", FUZZ_N_VALUES, master_seed, self.summary(report)])
        self.cells += self.grid_cells
        self.steps += report.steps_total

    def setup_unit(self) -> None:
        self.run_unit(0)

    def check(self, digest_rows: list[list]) -> list[str]:
        """The pool's merged report must equal the serial campaign's."""
        if not digest_rows:
            return ["no fuzz round completed"]
        _exp, _n, master_seed, summary = digest_rows[0]
        serial = self.summary(self.campaign(master_seed, 1))
        if serial != summary:
            return [f"master_seed={master_seed}: workers=2 {summary} != serial {serial}"]
        return []


WORKLOAD_CLASSES = {cls.name: cls for cls in (SweepRandom, FuzzAdversary)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOAD_CLASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--units", type=int, default=0)
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--stream", type=int, default=0)
    parser.add_argument("--streams", type=int, default=1)
    parser.add_argument("--tmp", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOAD_CLASSES[args.workload](args.seed)
    if args.mode == "setup":
        workload.setup_unit()
        emit({"setup_s": workload.first_cell_at - args.t0})
        return 0

    tracer = profile = None
    if args.mode == "trace":
        from tracing import LayerTracer

        tracer = LayerTracer(args.tmp / "trace").install()
        if args.workload == "sweep-random":
            profile = cProfile.Profile()  # serial: every cell runs here

    if args.mode == "measure" and not args.units:
        workload.host = HostSpeed()
    digest_units = DIGEST_UNITS[args.workload]
    start = time.perf_counter()
    rounds = 0
    while True:
        unit = args.stream + args.streams * rounds
        if args.units:
            if rounds >= args.units:
                break
        elif unit >= digest_units and time.perf_counter() - start >= args.seconds:
            break
        if tracer is not None:
            if profile is not None:
                profile.enable()
            tracer.spans.run("round", lambda: workload.run_unit(unit), job=f"round-{unit}")
            if profile is not None:
                profile.disable()
        else:
            workload.run_unit(unit)
        rounds += 1
    window = time.perf_counter() - start

    payload = {
        "window_s": window,
        "units": rounds,
        "busy_s": workload.busy_s,
        "cells": workload.cells,
        "steps": workload.steps,
        "job_ms": workload.job_ms,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "rss_mb": peak_rss_mb(),
    }
    problems = list(workload.problems)

    if tracer is not None:
        from tracing import layer_metrics, merged_profile, worker_spans

        snapshot = tracer.snapshot()
        spans = snapshot["spans"] + worker_spans(tracer.tmpdir)
        stats = merged_profile(tracer.tmpdir, profile)
        tracer.uninstall()
        payload["layers"] = layer_metrics(snapshot, spans, stats)
        payload["spans"] = spans
        if stats is not None:
            stats.dump_stats(str(args.tmp / "merged.pstats"))

    digest_rows = [
        row
        for row in workload.rows
        if row[2] < unit_seed(args.seed, digest_units)
    ]
    problems.extend(workload.check(digest_rows))
    payload["digest"] = outcome_digest(digest_rows)
    payload["digest_rows"] = digest_rows
    payload["digest_units"] = digest_units
    payload["problems"] = problems
    emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
