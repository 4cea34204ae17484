"""Traced-run plumbing: spans, layer-boundary wrappers and profiles.

Nothing here edits ``src/``.  :class:`LayerTracer` re-binds a few public
functions of the program (``run_tasks_partial``, ``run_lanes``,
``read_records``, ``RunLedger.append``, ``Dispatcher.execute``) to timed
wrappers, in every loaded ``repro`` module that imported them by name,
and restores the originals on :meth:`LayerTracer.uninstall`.

- Spans (name, start, end, parent span, job id) are kept in memory and
  written out once, when the run ends.
- A pool task that runs in a forked worker is profiled there with
  ``cProfile``; the worker writes its profile and its task span to the
  benchmark's temp dir, and the parent merges them with
  ``pstats.Stats.add``.  Workers inherit the wrappers through ``fork``.
- Profiles group into layers by the ``src/repro`` file a function lives
  in (:func:`layer_of`); built-ins and the standard library form the
  ``stdlib`` layer.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import os
import pathlib
import pstats
import sys
import threading
import time
from typing import Any, Callable

from common import median

#: Simulator layers reported per traced run, as (metric prefix, source
#: files under src/repro).  A directory entry covers its whole package;
#: the first match wins, so registers/base.py (the E6 memory audit) is
#: split from the other register operations.
SIM_LAYERS = (
    ("runtime.simulation", ("runtime/simulation.py",)),
    ("runtime.process", ("runtime/process.py",)),
    ("runtime.scheduler", ("runtime/scheduler.py",)),
    ("runtime.adversary", ("runtime/adversary.py",)),
    ("registers.audit", ("registers/base.py",)),
    ("registers.ops", ("registers/",)),
    ("snapshot", ("snapshot/",)),
    ("coin", ("coin/",)),
    ("strip", ("strip/",)),
    ("consensus", ("consensus/",)),
    ("batch", ("batch/",)),
    ("obs.metrics", ("obs/metrics.py",)),
    ("faults", ("faults/",)),
    ("verify", ("verify/",)),
)
STDLIB = "stdlib"
LAYER_NAMES = tuple(name for name, _ in SIM_LAYERS) + (STDLIB,)

_BENCH_DIR = str(pathlib.Path(__file__).resolve().parent) + os.sep
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str) -> str | None:
    """The layer a profiled function belongs to (``None``: other repro
    modules or the benchmark itself — counted in the total only)."""
    if filename.startswith(_BENCH_DIR):
        return None
    mark = filename.find(_REPRO_MARK)
    if mark < 0:
        return STDLIB  # built-ins ("~") and the standard library
    rel = filename[mark + len(_REPRO_MARK) :].replace(os.sep, "/")
    for name, prefixes in SIM_LAYERS:
        if any(rel.startswith(prefix) for prefix in prefixes):
            return name
    return None


def layer_table(stats: pstats.Stats | None) -> dict[str, float]:
    """``<layer>.calls`` (cProfile ncalls) and ``<layer>.self_share``
    (tottime over the total of every profiled function)."""
    calls = dict.fromkeys(LAYER_NAMES, 0)
    self_time = dict.fromkeys(LAYER_NAMES, 0.0)
    total = 0.0
    entries = stats.stats.items() if stats is not None else ()  # type: ignore[attr-defined]
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in entries:
        total += tottime
        layer = layer_of(filename)
        if layer is not None:
            calls[layer] += ncalls
            self_time[layer] += tottime
    table: dict[str, float] = {}
    for layer in LAYER_NAMES:
        table[f"{layer}.calls"] = calls[layer]
        table[f"{layer}.self_share"] = self_time[layer] / total if total else 0.0
    return table


class SpanRecorder:
    """In-memory spans with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def new_id(self) -> str:
        return f"{os.getpid()}-{next(self._ids)}"

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        job: str | None = None,
        parent: str | None = None,
        span_id: str | None = None,
        **args: Any,
    ) -> str:
        span_id = span_id or self.new_id()
        record = {
            "id": span_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent if parent is not None else self.current(),
            "job": job if job is not None else getattr(self._local, "job", None),
            **args,
        }
        with self._lock:
            self.spans.append(record)
        return span_id

    def run(self, name: str, fn: Callable[[], Any], job: str | None = None, **args: Any) -> Any:
        """Call ``fn`` inside a span (children nest under it)."""
        span_id = self.new_id()
        parent = self.current()
        previous_job = getattr(self._local, "job", None)
        if job is not None:
            self._local.job = job
        self._stack().append(span_id)
        start = time.time()
        try:
            return fn()
        finally:
            end = time.time()
            self._stack().pop()
            self.add(name, start, end, parent=parent, span_id=span_id, **args)
            self._local.job = previous_job


def _rebind(original: Any, replacement: Any) -> list[tuple[Any, str]]:
    """Point every loaded ``repro`` module's reference to ``original`` at
    ``replacement``; returns what to restore."""
    bound = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound.append((module, attr))
    return bound


class LayerTracer:
    """Installs the layer-boundary wrappers and gathers what they record.

    ``tmpdir`` is the benchmark-owned directory forked workers write their
    task spans and profiles to.  Worker-side profiling switches on in any
    process other than the one that installed the tracer.
    """

    def __init__(self, tmpdir: pathlib.Path) -> None:
        self.tmpdir = pathlib.Path(tmpdir)
        self.tmpdir.mkdir(parents=True, exist_ok=True)
        self.owner_pid = os.getpid()
        self.spans = SpanRecorder()
        self.counts: dict[str, float] = {
            "parallel.tasks": 0,
            "parallel.wall_s": 0.0,
            "parallel.capacity_s": 0.0,
            "resilience.retries": 0,
            "resilience.timeouts": 0,
            "resilience.shed": 0,
            "batch.lanes": 0,
            "batch.fallbacks": 0,
            "obs.ledger.loads": 0,
            "obs.ledger.records_read": 0,
            "obs.ledger.appends": 0,
        }
        self.load_ms: list[float] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        self._task_seq = itertools.count(1)

    # -- install / uninstall --------------------------------------------------

    def install(self) -> "LayerTracer":
        import repro.analysis.experiment  # noqa: F401 - bind by-name imports
        import repro.batch
        import repro.obs.ledger
        import repro.parallel.engine
        import repro.verify.fuzz  # noqa: F401
        from repro.obs.ledger import RunLedger

        self._swap(repro.parallel.engine.run_tasks_partial, self._wrap_pool)
        self._swap(repro.batch.run_lanes, self._wrap_lanes)
        self._swap(repro.obs.ledger.read_records, self._wrap_read)
        self._swap_method(RunLedger, "append", self._wrap_append)
        return self

    def install_dispatcher(self) -> None:
        """Tag spans opened while the serve dispatcher runs a job with
        that job's id."""
        from repro.serve.dispatcher import Dispatcher

        spans = self.spans

        def wrap(original):
            def execute(dispatcher, job):
                return spans.run("job.execute", lambda: original(dispatcher, job), job=job.id)

            return execute

        self._swap_method(Dispatcher, "execute", wrap)

    def _swap(self, original: Callable, make: Callable[[Callable], Callable]) -> None:
        replacement = make(original)
        for module, attr in _rebind(original, replacement):
            self._restore.append((module, attr, original))

    def _swap_method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, make(original))
        self._restore.append((cls, name, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap_pool(self, original: Callable) -> Callable:
        tracer = self

        def run_tasks_partial(fn, tasks, workers=None, *args, **kwargs):
            from repro.parallel.engine import resolve_workers

            tasks = list(tasks)
            count = max(1, min(resolve_workers(workers), len(tasks)))
            pool_id = tracer.spans.new_id()

            def traced_task(task):
                return tracer._run_task(fn, task, pool_id)

            start = time.time()
            tracer.spans._stack().append(pool_id)
            try:
                partial = original(traced_task, tasks, workers, *args, **kwargs)
            finally:
                tracer.spans._stack().pop()
            end = time.time()
            tracer.spans.add(
                "pool", start, end, span_id=pool_id, tasks=len(tasks), workers=count
            )
            with tracer._lock:
                tracer.counts["parallel.tasks"] += len(tasks)
                tracer.counts["parallel.wall_s"] += end - start
                tracer.counts["parallel.capacity_s"] += count * (end - start)
                tracer.counts["resilience.retries"] += partial.retries
                tracer.counts["resilience.timeouts"] += partial.timeouts
                tracer.counts["resilience.shed"] += partial.shed
            return partial

        return run_tasks_partial

    def _run_task(self, fn: Callable, task: Any, pool_id: str) -> Any:
        in_worker = os.getpid() != self.owner_pid
        profile = cProfile.Profile() if in_worker else None
        start = time.time()
        value = profile.runcall(fn, task) if profile is not None else fn(task)
        end = time.time()
        steps = getattr(value, "steps_total", value)
        span = {
            "name": "task",
            "start": start,
            "end": end,
            "parent": pool_id,
            "steps": steps if isinstance(steps, (int, float)) else 0,
            "pid": os.getpid(),
        }
        if profile is None:
            self.spans.add(**span)
            return value
        # pid + clock + sequence: unique even if a later pool reuses a pid.
        tag = f"{os.getpid()}-{time.monotonic_ns()}-{next(self._task_seq)}"
        profile.dump_stats(self.tmpdir / f"prof-{tag}.pstats")
        span.update(id=f"w{tag}", job=getattr(self.spans._local, "job", None))
        with open(self.tmpdir / f"spans-{os.getpid()}.jsonl", "a") as handle:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
        return value

    def _wrap_lanes(self, original: Callable) -> Callable:
        tracer = self

        def run_lanes(specs, *args, **kwargs):
            results = tracer.spans.run("batch.run_lanes", lambda: original(specs, *args, **kwargs))
            with tracer._lock:
                tracer.counts["batch.lanes"] += len(results)
                tracer.counts["batch.fallbacks"] += sum(
                    1 for result in results if result.fallback is not None
                )
            return results

        return run_lanes

    def _wrap_read(self, original: Callable) -> Callable:
        tracer = self

        def read_records(path):
            start = time.perf_counter()
            records = tracer.spans.run("ledger.load", lambda: original(path))
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            with tracer._lock:
                tracer.counts["obs.ledger.loads"] += 1
                tracer.counts["obs.ledger.records_read"] += len(records)
                tracer.load_ms.append(elapsed_ms)
            return records

        return read_records

    def _wrap_append(self, original: Callable) -> Callable:
        tracer = self

        def append(ledger, record):
            wrote = tracer.spans.run("ledger.append", lambda: original(ledger, record))
            if wrote:
                with tracer._lock:
                    tracer.counts["obs.ledger.appends"] += 1
            return wrote

        return append

    # -- collection ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """What this process recorded, JSON-able (a server dumps this at exit)."""
        with self._lock:
            return {
                "counts": dict(self.counts),
                "load_ms": list(self.load_ms),
                "spans": list(self.spans.spans),
            }


def worker_spans(tmpdir: pathlib.Path) -> list[dict[str, Any]]:
    """Task spans the forked workers wrote to the benchmark's temp dir."""
    spans = []
    for path in sorted(pathlib.Path(tmpdir).glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines() if line)
    return spans


def merged_profile(
    tmpdir: pathlib.Path, parent: cProfile.Profile | None = None
) -> pstats.Stats | None:
    """The parent profile (if any) plus every worker task profile."""
    stats = pstats.Stats(parent) if parent is not None else None
    for path in sorted(pathlib.Path(tmpdir).glob("prof-*.pstats")):
        if stats is None:
            stats = pstats.Stats(str(path))
        else:
            stats.add(str(path))
    return stats


def layer_metrics(
    tracer_snapshot: dict[str, Any],
    spans: list[dict[str, Any]],
    stats: pstats.Stats | None,
) -> dict[str, float]:
    """The per-layer metrics every workload reports (zeros where a layer
    did no work): simulator layers, work counts, pool and ledger."""
    counts = tracer_snapshot["counts"]
    tasks = [span for span in spans if span["name"] == "task"]
    task_s = [span["end"] - span["start"] for span in tasks]
    capacity = counts["parallel.capacity_s"]
    lanes = counts["batch.lanes"]
    metrics = layer_table(stats)
    metrics.update(
        {
            "sim.cells": len(tasks),
            "sim.steps": sum(span.get("steps", 0) for span in tasks),
            "batch.lanes": lanes,
            "batch.fallbacks": counts["batch.fallbacks"],
            "batch.fallback_share": counts["batch.fallbacks"] / lanes if lanes else 0.0,
            "parallel.tasks": counts["parallel.tasks"],
            "parallel.task_ms_p50": median(task_s) * 1000.0,
            "parallel.wall_s": counts["parallel.wall_s"],
            "parallel.idle_share": (1.0 - sum(task_s) / capacity) if capacity else 0.0,
            "resilience.retries": counts["resilience.retries"],
            "resilience.timeouts": counts["resilience.timeouts"],
            "resilience.shed": counts["resilience.shed"],
            "obs.ledger.loads": counts["obs.ledger.loads"],
            "obs.ledger.load_ms_p50": median(tracer_snapshot["load_ms"]),
            "obs.ledger.records_read": counts["obs.ledger.records_read"],
            "obs.ledger.appends": counts["obs.ledger.appends"],
        }
    )
    return metrics

