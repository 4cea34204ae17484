"""Child process for ``service-mixed``: the load generator.

It starts the simulation service in a process of its own --
``repro serve --port 0 --workers 2`` for measured runs, the benchmark's
``serve_launcher.py`` (same server, layer wrappers installed) for traced
runs -- on a state dir whose ledger already holds ``FILLER_RECORDS``
filler records, then drives it with a closed loop of ``SERVICE_CLIENTS``
client threads.  Each thread submits a sweep job and waits for the
terminal frame of ``GET /jobs/{id}/events``; latency runs from the POST
to that frame.  In a run over ``--seconds``, each client thread probes
the host's speed after each of its jobs (``common.HostSpeed``) and
rescales the job's latency, and the job's whole client cycle (POST to
fetched result), to the reference host; the run's time base is the
threads' mean of their summed rescaled cycles.  The probes run under
the load, on purpose: how fast a CPU runs depends on what the other CPU
runs, and probes of the idle host, before and after the load, left the
service's figures spread by 30% across runs.  Job ``k``'s seeds derive
from the workload seed, and every fourth job re-asks for half the cells
of an earlier job (ledger cache hits beside the appends).

Submissions are serialised, so the queue sees jobs in index order; with
one FIFO dispatcher, job ``k - OVERLAP_LAG`` has always finished when job
``k`` is submitted, so cache hits are exact, not timing-dependent.

Modes: ``setup`` (seconds from server spawn to the first accepted job),
``measure`` (``--seconds`` of load and at least ``MIN_JOBS`` jobs, or
exactly ``--units`` jobs) and ``trace`` (exactly ``--units`` jobs through
the traced launcher).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import select
import shutil
import subprocess
import sys
import threading
import time
from typing import Any

from common import (
    DIGEST_UNITS,
    FILLER_EXPERIMENT,
    FILLER_RECORDS,
    SERVICE_CLIENTS,
    SERVICE_N_VALUES,
    SERVICE_REPS,
    SERVICE_WORKERS,
    HostSpeed,
    emit,
    expected_cache_hits,
    median,
    outcome_digest,
    peak_rss_mb,
    percentile,
    service_job_params,
)

HERE = pathlib.Path(__file__).resolve().parent
BOOT_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
#: A measured run submits at least this many jobs (and the digest prefix),
#: so at least 10 latency samples lie beyond p90 even on a slow host.
MIN_JOBS = max(100, DIGEST_UNITS["service-mixed"])


def write_filler(path: pathlib.Path, seed: int) -> None:
    """``FILLER_RECORDS`` sweep-shaped records under an experiment label
    no job asks for: they cost every ledger load, never answer a cell."""
    from repro.obs.ledger import make_record

    lines = []
    for index in range(FILLER_RECORDS):
        config = {
            "experiment": FILLER_EXPERIMENT,
            "protocol": "ads",
            "scheduler": "random",
            "metric": "steps",
            "max_steps": 50_000_000,
            "n": 2 + index % 7,
        }
        record = make_record(
            kind="sweep",
            experiment=FILLER_EXPERIMENT,
            seed=seed * FILLER_RECORDS + index,
            config=config,
            outcome={"value": float(100 + (seed + index * 7919) % 50_000)},
        )
        lines.append(record.to_line() + "\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(lines))


def prepare_state(tmp: pathlib.Path, seed: int, name: str) -> pathlib.Path:
    """A fresh state dir holding a copy of the run's filler ledger."""
    filler = tmp / "filler.jsonl"
    if not filler.exists():
        write_filler(filler, seed)
    state = tmp / name
    if state.exists():
        shutil.rmtree(state)
    state.mkdir(parents=True)
    shutil.copyfile(filler, state / "ledger.jsonl")
    return state


class Server:
    """The service process.  It stays in this process's group, so the
    runner's group kill reaches it and its pool workers on any exit."""

    def __init__(self, state: pathlib.Path, trace_dir: pathlib.Path | None):
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"), "--trace-dir", str(trace_dir)]
        command += [
            "--port", "0",
            "--workers", str(SERVICE_WORKERS),
            "--state-dir", str(state),
        ]
        self.stderr = open(state.parent / f"{state.name}.stderr", "w")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
        )
        self.url = self._await_url()

    def _await_url(self) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        buffered = b""
        stdout = self.proc.stdout
        assert stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(stdout.fileno(), 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.decode("utf-8", "replace").splitlines():
                if "listening on " in line:
                    return line.split("listening on ", 1)[1].strip()
        self.stop()
        raise RuntimeError("service did not report its address in time")

    def stop(self) -> None:
        """SIGTERM (the server exits at once), SIGKILL if it lingers."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.stderr.close()


class LoadGenerator:
    """Closed loop: each client thread submits its next job only after
    its previous one reached a terminal frame."""

    def __init__(self, client: Any, seed: int, seconds: float, units: int):
        self.client = client
        self.seed = seed
        self.seconds = seconds
        self.units = units
        self.jobs: list[dict[str, Any]] = []
        self.busy: list[float] = []  # each thread's rescaled job cycles
        self._next = 0
        self._submit_lock = threading.Lock()
        self._jobs_lock = threading.Lock()
        self.start = 0.0

    def _more(self) -> bool:
        if self.units:
            return self._next < self.units
        return self._next < MIN_JOBS or time.perf_counter() - self.start < self.seconds

    def _client_loop(self) -> None:
        host = None if self.units else HostSpeed()
        busy = 0.0
        while True:
            with self._submit_lock:
                if not self._more():
                    break
                index = self._next
                self._next += 1
                params = service_job_params(self.seed, index)
                job = {"index": index, "params": params, "state": "error"}
                job["posted_wall"] = time.time()
                posted = time.perf_counter()
                try:
                    job_id = self.client.submit("sweep", params)["id"]
                except Exception as exc:  # noqa: BLE001 - a failed job, recorded
                    job["error"] = f"submit: {exc}"
                    job_id = None
                submitted = time.perf_counter()
            job["submit_ms"] = (submitted - posted) * 1000.0
            if job_id is not None:
                self._follow(job, job_id, posted)
            cycle = time.perf_counter() - posted
            if host is not None:
                factor = host.factor()
                cycle *= factor
                if "latency_ms" in job:
                    job["latency_ms"] *= factor
            busy += cycle
            with self._jobs_lock:
                self.jobs.append(job)
        with self._jobs_lock:
            self.busy.append(busy)

    def _follow(self, job: dict[str, Any], job_id: str, posted: float) -> None:
        job["id"] = job_id
        try:
            last = None
            for last in self.client.stream_events(job_id, timeout=JOB_TIMEOUT_S):
                pass
            job["terminal_at"] = time.perf_counter()
            job["wall_ms"] = job["latency_ms"] = (job["terminal_at"] - posted) * 1000.0
            job["state"] = last["event"] if last else "error"
            if job["state"] == "done":
                fetch = time.perf_counter()
                job["result"] = self.client.result(job_id)
                job["result_ms"] = (time.perf_counter() - fetch) * 1000.0
        except Exception as exc:  # noqa: BLE001 - a failed job, recorded
            job["state"] = "error"
            job["error"] = f"follow: {exc}"

    def run(self) -> float:
        self.start = time.perf_counter()
        threads = [
            threading.Thread(target=self._client_loop, name=f"client-{i}")
            for i in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.jobs.sort(key=lambda job: job["index"])
        ends = [job["terminal_at"] for job in self.jobs if "terminal_at" in job]
        return (max(ends) if ends else time.perf_counter()) - self.start


def job_problems(job: dict[str, Any]) -> list[str]:
    """Why a job does not count as delivered (empty when it does)."""
    index = job["index"]
    if job["state"] != "done":
        return [f"job {index}: {job['state']} {job.get('error', '')}".strip()]
    result = job["result"]
    cells = len(SERVICE_N_VALUES) * SERVICE_REPS
    hits = expected_cache_hits(index)
    problems = []
    if result.get("cells") != cells:
        problems.append(f"job {index}: {result.get('cells')} cells, expected {cells}")
    if (result.get("cache_hits"), result.get("recomputed")) != (hits, cells - hits):
        problems.append(
            f"job {index}: cache_hits/recomputed "
            f"{result.get('cache_hits')}/{result.get('recomputed')}, expected {hits}/{cells - hits}"
        )
    return problems


def job_cells(params: dict[str, Any]) -> list[tuple[int, int]]:
    return [
        (n, params["seed_base"] + rep)
        for n in params["n_values"]
        for rep in range(params["reps"])
    ]


def library_rows(jobs: list[dict[str, Any]]) -> list[list]:
    """The same cells through ``build_sweep(...).execute()`` in-process."""
    from repro.workloads import build_sweep, sweep_experiment

    experiment = sweep_experiment("ads", "steps")
    rows = []
    for job in jobs:
        params = job["params"]
        points = build_sweep(**params).execute()
        for point in points:
            for rep, value in enumerate(point.samples):
                rows.append([experiment, point.params["n"], params["seed_base"] + rep, value])
    return rows


def ledger_rows(state: pathlib.Path, jobs: list[dict[str, Any]]) -> tuple[list[list], list[str], float]:
    """The jobs' cells as the service's ledger recorded them, the problems
    found, and the steps of every cell the service simulated."""
    from repro.obs.ledger import read_records
    from repro.workloads import sweep_experiment

    experiment = sweep_experiment("ads", "steps")
    values: dict[tuple[int, int], float] = {}
    simulated = 0.0
    for record in read_records(state / "ledger.jsonl"):
        if record.experiment != experiment:
            continue
        values[(record.config["n"], record.seed)] = record.outcome["value"]
        simulated += record.outcome["value"]
    rows, problems = [], []
    for job in jobs:
        for n, seed in job_cells(job["params"]):
            if (n, seed) not in values:
                problems.append(f"job {job['index']}: cell n={n} seed={seed} missing from the ledger")
                continue
            rows.append([experiment, n, seed, values[(n, seed)]])
    return rows, problems, simulated


def span_ms(records: list[dict[str, Any]], name: str) -> list[float]:
    return [
        (record["end"] - record["start"]) * 1000.0
        for record in records
        if record.get("type") == "span" and record.get("name") == name
    ]


def trace_metrics(
    jobs: list[dict[str, Any]], state: pathlib.Path, trace_dir: pathlib.Path
) -> tuple[dict[str, float], list[dict[str, Any]]]:
    """Per-layer metrics of a traced run: the server's wrapper counts and
    worker profiles, the client's HTTP timings and the job trace spans."""
    from repro.serve.telemetry import load_job_trace
    from tracing import layer_metrics, merged_profile, worker_spans

    snapshot = json.loads((trace_dir / "server.json").read_text())
    spans = snapshot["spans"] + worker_spans(trace_dir)
    stats = merged_profile(trace_dir)
    if stats is not None:
        stats.dump_stats(str(trace_dir.parent / "merged.pstats"))
    metrics = layer_metrics(snapshot, spans, stats)
    job_trace = load_job_trace(state / "trace.jsonl")
    done = [job for job in jobs if job["state"] == "done"]
    hits = sum(job["result"]["cache_hits"] for job in done)
    probes = hits + sum(job["result"]["recomputed"] for job in done)
    queue_wait = span_ms(job_trace, "queue-wait")
    metrics.update(
        {
            "obs.ledger.cache_hit_share": hits / probes if probes else 0.0,
            "serve.http.submit_ms_p50": median([job["submit_ms"] for job in jobs]),
            "serve.http.result_ms_p50": median([job["result_ms"] for job in done]),
            "serve.queue_wait_ms_p50": percentile(queue_wait, 50),
            "serve.queue_wait_ms_p90": percentile(queue_wait, 90),
            "serve.dispatch_ms_p50": median(span_ms(job_trace, "dispatch")),
            "serve.task_ms_p50": median(span_ms(job_trace, "task")),
            "serve.checkpoint_ms_p50": median(span_ms(job_trace, "checkpoint")),
        }
    )
    client_spans = [
        {
            "id": f"client-{job['index']}",
            "name": "job",
            "job": job.get("id"),
            "parent": None,
            "start": job["posted_wall"],
            "end": job["posted_wall"] + job.get("wall_ms", 0.0) / 1000.0,
        }
        for job in jobs
    ]
    return metrics, spans + client_spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--units", type=int, default=0)
    parser.add_argument("--tmp", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    from repro.serve.client import ServeClient

    state = prepare_state(args.tmp, args.seed, f"state-{os.getpid()}")
    trace_dir = args.tmp / "trace" if args.mode == "trace" else None
    server = Server(state, trace_dir)
    client = ServeClient(server.url, timeout=JOB_TIMEOUT_S)
    if args.mode == "setup":
        try:
            job_id = client.submit("sweep", service_job_params(args.seed, 0))["id"]
            accepted = time.perf_counter()
            # Let the job finish, so no pool worker outlives the server.
            for _event in client.stream_events(job_id, timeout=JOB_TIMEOUT_S):
                pass
        finally:
            server.stop()
        emit({"setup_s": accepted - server.spawned})
        return 0

    load = LoadGenerator(client, args.seed, args.seconds, args.units)
    try:
        window = load.run()
    finally:
        server.stop()
    jobs = load.jobs

    job_issues = [job_problems(job) for job in jobs]
    problems = [problem for issues in job_issues for problem in issues]
    delivered = [job for job in jobs if job["state"] == "done"]
    digest_jobs = [job for job in jobs if job["index"] < DIGEST_UNITS["service-mixed"]]
    rows, ledger_problems, simulated_steps = ledger_rows(state, digest_jobs)
    problems.extend(ledger_problems)
    digest = outcome_digest(rows)
    parity = outcome_digest(library_rows(digest_jobs))
    if parity != digest:
        problems.append(f"service digest {digest} != library digest {parity}")

    # A failed job counts as missing every latency limit.
    latencies = [
        float("inf") if issues else job["latency_ms"]
        for job, issues in zip(jobs, job_issues)
    ]
    payload: dict[str, Any] = {
        "window_s": window,
        "busy_s": sum(load.busy) / len(load.busy),
        "units": len(jobs),
        "cells": sum(job["result"]["cells"] for job in delivered),
        "steps": simulated_steps,
        "job_ms": latencies,
        "attempted": len(jobs),
        "failed": sum(1 for issues in job_issues if issues),
        "rss_mb": peak_rss_mb(),
        "digest": digest,
        "digest_units": DIGEST_UNITS["service-mixed"],
        "problems": problems,
    }
    if trace_dir is not None:
        payload["layers"], payload["spans"] = trace_metrics(jobs, state, trace_dir)
    emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
