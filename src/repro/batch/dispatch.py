"""Grouped dispatch: many campaign cells per pool task.

The contract with callers (``repeat_runs``, ``Sweep``, ``fuzz_consensus``,
``run_mutation_campaign``) is a *drop-in lane under the task list*: tasks
are grouped into consecutive batches, each batch becomes one pool task
(so batching composes with ``--workers`` — every worker drains whole
batches instead of single cells, amortising fork and IPC per task by the
batch size), and the flat results come back in submission order,
bit-identical to the ungrouped path.

Which interpreter runs a cell is the cell's own business, not the
dispatcher's: the canonical ADS/random sweep cell runs on the fast
interpreter at any batch size (see ``repro.workloads.make_sweep_runner``).

Checkpointing and ledger identity are untouched: results are reported
through ``on_result`` with the task's original flat index, so
``LedgerCheckpointer`` flushes the same records in the same order and the
per-cell fingerprints never see the batch boundary.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Callable, Sequence

from repro.resilience.policy import PartialResult

#: Environment variable read when no explicit batch size is passed —
#: the batched analogue of ``REPRO_WORKERS``.
BATCH_ENV = "REPRO_BATCH"


def resolve_batch_size(batch_size: int | None = None) -> int | None:
    """Validate a batch size, falling back to ``REPRO_BATCH``.

    Unlike ``--workers`` there is no "0 = auto" convention: a batch is a
    cell count, so only positive integers make sense.  ``None`` (and an
    unset/empty environment variable) means batching is off.
    """
    if batch_size is None:
        raw = os.environ.get(BATCH_ENV, "").strip()
        if not raw:
            return None
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{BATCH_ENV}={raw!r} is not an integer; set it to a "
                "positive cell count (unset it to disable batching)"
            ) from None
        if value < 1:
            raise ValueError(
                f"{BATCH_ENV}={raw!r} must be >= 1 (cells per batch); "
                "unset it to disable batching"
            )
        return value
    if isinstance(batch_size, bool) or not isinstance(batch_size, int):
        raise TypeError(
            f"batch_size must be a positive integer or None, got {batch_size!r}"
        )
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return batch_size


def make_batch_task(run_task: Callable[[Any], Any]) -> Callable[[list], list]:
    """Lift a per-task function to a per-batch function (group order kept)."""

    def run_batch(group: Sequence[Any]) -> list:
        return [run_task(task) for task in group]

    return run_batch


def run_tasks_batched(
    run_task: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    batch_size: int | None = None,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    metrics: Any = None,
    policy: Any = None,
    task_timeout: float | None = None,
    on_result: Callable[[int, Any], None] | None = None,
) -> PartialResult:
    """``run_tasks_partial`` over groups of ``batch_size`` tasks.

    ``batch_size`` defaults to ``REPRO_BATCH``; unset, the tasks go to
    ``run_tasks_partial`` ungrouped.  Results (and ``on_result``
    callbacks) use the original flat task indices, so ledger
    checkpointing is oblivious to the grouping.
    Resilience knobs apply per *group*: a retried or timed-out unit of
    work is one whole batch, which recomputes deterministically.  A
    terminally failed group surfaces as one ``TaskError`` anchored at the
    group's first flat index, with every task of the group left as a
    ``None`` hole — fail-fast callers raise either way, exactly as the
    unbatched engine would on the first failing cell.
    """
    from repro.parallel.engine import run_tasks_partial

    tasks = list(tasks)
    size = resolve_batch_size(batch_size)
    engine_kwargs = dict(
        workers=workers, metrics=metrics, policy=policy, task_timeout=task_timeout
    )
    if size is None:
        return run_tasks_partial(
            run_task, tasks, progress=progress, on_result=on_result, **engine_kwargs
        )
    groups = [tasks[start : start + size] for start in range(0, len(tasks), size)]
    total = len(tasks)
    flat = PartialResult(results=[None] * total)

    def group_result(group_index: int, values: list) -> None:
        start = group_index * size
        for offset, value in enumerate(values):
            flat.results[start + offset] = value
            if on_result is not None:
                on_result(start + offset, value)

    group_progress = None
    if progress is not None:

        def group_progress(done: int, _groups: int) -> None:
            progress(min(done * size, total), total)

    partial = run_tasks_partial(
        make_batch_task(run_task),
        groups,
        progress=group_progress,
        on_result=group_result,
        **engine_kwargs,
    )
    for error in partial.errors:
        flat.errors.append(dataclasses.replace(error, index=error.index * size))
    flat.retries = partial.retries
    flat.timeouts = partial.timeouts
    flat.shed = partial.shed
    flat.shed_indices = [
        group_index * size + offset
        for group_index in partial.shed_indices
        for offset in range(len(groups[group_index]))
    ]
    return flat


__all__ = ["BATCH_ENV", "make_batch_task", "resolve_batch_size", "run_tasks_batched"]
