"""Seeded experiment execution: repetitions and parameter sweeps.

Both entry points accept a ``workers`` count and fan their replications
out through :mod:`repro.parallel`.  Each replication derives all of its
randomness from its own seed, so the parallel path returns results
bit-identical to the serial loop — same seeds, same outputs, any worker
count (see ``docs/performance.md``).

Both also accept a :class:`~repro.obs.ledger.RunLedger`: every
replication is then content-addressed by (seed, cell config, code
version), replications whose fingerprint the ledger already holds are
served from it instead of recomputed (cache hits — disable with the
ledger's ``use_cache=False``), and fresh results are appended
*parent-side in submission order after the parallel merge*, so the ledger
bytes are identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.analysis.stats import Summary, summarize
from repro.batch.dispatch import run_tasks_batched
from repro.parallel import ParallelExecutionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.ledger import RunLedger
    from repro.resilience.policy import FailurePolicy


def _run_recorded(
    run_task: Callable[[Any], float],
    tasks: Sequence[Any],
    cells: "Sequence[tuple[int, Mapping[str, Any]]]",
    ledger: "RunLedger",
    experiment: str,
    workers: int | None,
    progress: Callable[[int, int], None] | None,
    policy: "FailurePolicy | None" = None,
    task_timeout: float | None = None,
    metrics: Any = None,
    batch_size: int | None = None,
) -> list[float]:
    """Run tasks through the ledger: serve cached cells, record fresh ones.

    ``cells[i] = (seed, config)`` is task ``i``'s content address.  Fresh
    tasks go through the same engine as the unrecorded path, and their
    records checkpoint to the ledger *incrementally* in submission order
    as results arrive — an interrupted sweep leaves a valid ledger prefix
    behind, and the re-run recomputes only the missing fingerprints.
    """
    from repro.obs.ledger import compute_fingerprint, make_record
    from repro.resilience.checkpoint import LedgerCheckpointer

    fingerprints = [compute_fingerprint(seed, config) for seed, config in cells]
    results: list[float | None] = [None] * len(tasks)
    pending: list[int] = []
    checkpointer = LedgerCheckpointer(ledger)
    for index, fingerprint in enumerate(fingerprints):
        record = ledger.cached(fingerprint)
        if record is not None and isinstance(
            record.outcome.get("value"), (int, float)
        ):
            results[index] = float(record.outcome["value"])
            checkpointer.skip(index)
        else:
            pending.append(index)

    def checkpoint(position: int, value: float) -> None:
        index = pending[position]
        results[index] = value
        seed, config = cells[index]
        checkpointer.offer(
            index,
            make_record(
                kind="sweep",
                experiment=experiment,
                seed=seed,
                config=config,
                outcome={"value": value},
            ),
        )

    # Batched dispatch reports results under the same flat indices, so
    # the checkpointer flushes identical ledger bytes at any batch size.
    partial = run_tasks_batched(
        run_task,
        [tasks[index] for index in pending],
        batch_size=batch_size,
        workers=workers,
        progress=progress,
        metrics=metrics,
        policy=policy,
        task_timeout=task_timeout,
        on_result=checkpoint,
    )
    checkpointer.close()
    _raise_errors(partial)
    return [v for v in results if v is not None]


def _raise_errors(partial: Any) -> list:
    """A fail-fast/retry run's values; a terminally lost task raises."""
    if partial.errors:
        raise ParallelExecutionError(partial.errors)
    return list(partial.results)


def repeat_runs(
    run_once: Callable[[int], float],
    seeds: Iterable[int],
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    *,
    ledger: "RunLedger | None" = None,
    experiment: str = "",
    config: Mapping[str, Any] | None = None,
    policy: "FailurePolicy | None" = None,
    task_timeout: float | None = None,
    batch_size: int | None = None,
) -> list[float]:
    """Execute ``run_once(seed)`` for every seed; collect the metric.

    ``workers`` > 1 distributes the seeds across a process pool; results
    come back in seed order either way.  ``progress(done, total)`` is
    called in the parent as replications complete.  With a ``ledger``,
    each seed's result is content-addressed by (seed, ``config`` +
    ``experiment`` label, code version): known fingerprints are cache
    hits (not recomputed), fresh ones checkpoint incrementally in seed
    order.  ``policy``/``task_timeout`` flow to the engine (fail-fast and
    retry policies only: a replication that is terminally lost raises —
    silently dropping samples would skew the statistics).  ``batch_size``
    (default: the ``REPRO_BATCH`` environment variable) groups seeds into
    batches per pool task, with results bit-identical either way.
    """
    seeds = list(seeds)
    if ledger is None:
        return _raise_errors(
            run_tasks_batched(
                run_once,
                seeds,
                batch_size=batch_size,
                workers=workers,
                progress=progress,
                policy=policy,
                task_timeout=task_timeout,
            )
        )
    base = {"experiment": experiment, **dict(config or {})}
    cells = [(seed, base) for seed in seeds]
    return _run_recorded(
        run_once,
        seeds,
        cells,
        ledger,
        experiment,
        workers,
        progress,
        policy=policy,
        task_timeout=task_timeout,
        batch_size=batch_size,
    )


@dataclass
class SweepPoint:
    """One parameter setting with its replicated measurements."""

    params: dict[str, Any]
    samples: list[float]
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def summary(self) -> Summary:
        return summarize(self.samples)


@dataclass
class Sweep:
    """A one-dimensional parameter sweep with repetitions per point.

    Args:
        parameter: name of the swept parameter.
        values: the values it takes.
        run_once: ``run_once(value, seed) -> metric``.
        repetitions: seeds 0..repetitions-1 are used per point (offset by
            ``seed_base`` so different experiments never share streams).
        workers: default process count for :meth:`execute` (``None`` →
            serial unless ``REPRO_WORKERS`` is set).
        ledger: optional :class:`~repro.obs.ledger.RunLedger`; every
            (value, seed) cell is then content-addressed under
            ``experiment`` + ``config`` + the swept parameter value, with
            cache hits served from the ledger and fresh cells recorded
            parent-side in submission order (byte-identical at any
            worker count).
    """

    parameter: str
    values: Sequence[Any]
    run_once: Callable[[Any, int], float]
    repetitions: int = 10
    seed_base: int = 0
    workers: int | None = None
    ledger: "RunLedger | None" = None
    experiment: str = ""
    config: Mapping[str, Any] | None = None
    #: Optional engine resilience knobs (fail-fast / retry policies only;
    #: a terminally lost replication raises rather than skewing stats).
    policy: "FailurePolicy | None" = None
    task_timeout: float | None = None
    #: Optional :class:`~repro.obs.metrics.MetricsRegistry` the engine
    #: records its dispatch shape and resilience counters into.
    metrics: Any = None
    #: Cells per pool task (``None`` → the ``REPRO_BATCH`` environment
    #: variable, unset meaning ungrouped).  Results and ledger bytes are
    #: identical at any batch size.
    batch_size: int | None = None

    def execute(
        self,
        workers: int | None = None,
        progress: Callable[[int, int], None] | None = None,
        batch_size: int | None = None,
    ) -> list[SweepPoint]:
        """Run every (value, seed) cell; chunked across workers if asked.

        The full cross product is submitted as one task list (better pool
        utilisation than per-point batches when repetitions are few), then
        regrouped by point in value order — output is identical to the
        serial nested loop for any worker count.
        """
        if workers is None:
            workers = self.workers
        if batch_size is None:
            batch_size = self.batch_size
        tasks = [
            (value, self.seed_base + rep)
            for value in self.values
            for rep in range(self.repetitions)
        ]
        run_task = lambda task: self.run_once(task[0], task[1])  # noqa: E731
        if self.ledger is None:
            samples = _raise_errors(
                run_tasks_batched(
                    run_task,
                    tasks,
                    batch_size=batch_size,
                    workers=workers,
                    progress=progress,
                    metrics=self.metrics,
                    policy=self.policy,
                    task_timeout=self.task_timeout,
                )
            )
        else:
            base = {"experiment": self.experiment, **dict(self.config or {})}
            cells = [
                (seed, {**base, self.parameter: value})
                for value, seed in tasks
            ]
            samples = _run_recorded(
                run_task,
                tasks,
                cells,
                self.ledger,
                self.experiment,
                workers,
                progress,
                policy=self.policy,
                task_timeout=self.task_timeout,
                metrics=self.metrics,
                batch_size=batch_size,
            )
        points = []
        for i, value in enumerate(self.values):
            chunk = samples[i * self.repetitions : (i + 1) * self.repetitions]
            points.append(SweepPoint({self.parameter: value}, list(chunk)))
        return points


def sweep_table(
    points: Sequence[SweepPoint],
    predicted: Callable[[Any], float] | None = None,
    parameter: str | None = None,
) -> list[dict[str, Any]]:
    """Rows of measured (and optionally predicted) values per sweep point."""
    rows = []
    for point in points:
        if parameter is None:
            parameter = next(iter(point.params))
        summary = point.summary
        row: dict[str, Any] = {
            parameter: point.params[parameter],
            "mean": summary.mean,
            "ci_low": summary.ci_low,
            "ci_high": summary.ci_high,
            "reps": summary.count,
        }
        if predicted is not None:
            row["predicted"] = predicted(point.params[parameter])
        row.update(point.extra)
        rows.append(row)
    return rows
