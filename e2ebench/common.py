"""Shared pieces of the end-to-end benchmark: workload constants, seed
derivation, the outcome digest and the small statistics helpers.

Every module of the benchmark imports this one; it imports nothing from
``repro`` so that ``run.py`` can use it before it knows whether the
source tree is there at all.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from typing import Any, Iterable, Sequence

WORKLOADS = ("sweep-random", "fuzz-adversary", "service-mixed")

#: Knobs that would silently switch the interpreter, the pool or the
#: ledger under a measurement.  Every child process runs without them.
UNSET_ENV = ("REPRO_BATCH", "REPRO_WORKERS", "REPRO_LEDGER", "REPRO_BENCH_WORKERS")
#: Proxy settings would route the load generator's loopback HTTP through
#: a proxy; they are dropped for the same reason.
UNSET_PROXY_ENV = (
    "http_proxy",
    "https_proxy",
    "all_proxy",
    "HTTP_PROXY",
    "HTTPS_PROXY",
    "ALL_PROXY",
)

# -- sweep-random: the canonical ADS/random sweep, serial, library defaults.
SWEEP_N_VALUES = list(range(2, 9))
SWEEP_REPS = 1  # one cell per n per round; a round is one build_sweep call
#: A measured sweep-random run drives this many serial sweep processes
#: side by side, one per CPU, taking alternate rounds.  Cell costs are
#: heavy-tailed (step counts have a coefficient of variation of ~0.75,
#: and n = 7, 8 take two thirds of the time), so one process's ~60
#: rounds in a run left its cell latency quantiles and cells/s spread by
#: 10-15% across seeds; two streams double the sample.
SWEEP_STREAMS = 2

# -- fuzz-adversary: the four standard schedules plus crash/recovery plans.
FUZZ_N_VALUES = [2, 3, 4]
FUZZ_RUNS_PER_CELL = 1
FUZZ_WORKERS = 2

# -- service-mixed: closed loop of sweep jobs against `repro serve`.
SERVICE_WORKERS = 2
SERVICE_CLIENTS = 2
SERVICE_N_VALUES = [2, 3, 4]
SERVICE_REPS = 2
#: Filler records pre-written into the server's ledger before boot, under
#: an experiment label no job queries, so they cost every ledger load but
#: never answer a cell.
FILLER_RECORDS = 2000
FILLER_EXPERIMENT = "e2ebench:filler"
#: Every OVERLAP_EVERY-th job re-asks for half the cells of the job
#: OVERLAP_LAG places earlier (a ledger cache hit per overlapped cell).
OVERLAP_EVERY = 4
OVERLAP_LAG = 2

#: Units of work whose outcomes form the digest: a fixed prefix that
#: every run completes, so the digest repeats for a seed whatever the
#: host speed.  (sweep rounds / fuzz rounds / service jobs)
DIGEST_UNITS = {"sweep-random": 2, "fuzz-adversary": 4, "service-mixed": 4}

#: Fixed work of a traced run, so its call counts repeat exactly.
TRACE_UNITS = {"sweep-random": 8, "fuzz-adversary": 24, "service-mixed": 24}

#: Fresh-interpreter set-up probes per measured run (median reported).
SETUP_PROBES = 9

#: Seed stride between workload seeds: units of one seed never share a
#: cell seed with units of another.
SEED_STRIDE = 1_000_000
#: Workload seeds wrap into [0, SEED_SPACE): the service only accepts
#: non-negative seed bases.
SEED_SPACE = 2**20


def unit_seed(seed: int, unit: int) -> int:
    """The cell-seed base of work unit ``unit`` under workload seed ``seed``."""
    return (seed % SEED_SPACE) * SEED_STRIDE + unit * 10


def service_job_params(seed: int, index: int) -> dict[str, Any]:
    """The sweep-job params of the service load generator's ``index``-th job.

    Fresh jobs get a seed base of their own.  Every ``OVERLAP_EVERY``-th
    job starts one seed after an earlier fresh job's base, so half of its
    cells (one seed of two, for every n) are that job's cells again.
    """
    if index % OVERLAP_EVERY == OVERLAP_EVERY - 1:
        seed_base = unit_seed(seed, index - OVERLAP_LAG) + SERVICE_REPS // 2
    else:
        seed_base = unit_seed(seed, index)
    return {
        "n_values": list(SERVICE_N_VALUES),
        "reps": SERVICE_REPS,
        "seed_base": seed_base,
    }


def expected_cache_hits(index: int) -> int:
    """Ledger cache hits job ``index`` must see (cells it shares)."""
    if index % OVERLAP_EVERY == OVERLAP_EVERY - 1:
        return len(SERVICE_N_VALUES) * (SERVICE_REPS - SERVICE_REPS // 2)
    return 0


def outcome_digest(rows: Iterable[Sequence[Any]]) -> str:
    """sha256 over the sorted (experiment, n, seed, value) tuples."""
    canon = sorted(json.dumps(list(row), sort_keys=True) for row in rows)
    return hashlib.sha256("\n".join(canon).encode("utf-8")).hexdigest()


#: The host-speed probe.  A shared host's CPU speed drifts by up to 1.5x
#: within seconds and between minutes, and the drift shows in thread CPU
#: time too (a fixed loop's CPU time tracks its wall time), so wall
#: times of the same work are not comparable across runs.  Every timed
#: piece of work is bracketed by this fixed pure-Python kernel, timed in
#: thread CPU seconds so that waiting for a CPU or the GIL does not
#: count, and the piece's time is rescaled to the reference host, on
#: which one probe takes REFERENCE_PROBE_S.  The kernel uses nothing
#: from ``repro``: a change to the program cannot move it.
PROBE_ROUNDS = 15_000
REFERENCE_PROBE_S = 0.004


def _probe_kernel(rounds: int) -> int:
    """Generator resumption, tuple keys, dict and list traffic: the
    interpreter work the simulator's step loop is made of."""

    def process(pid: int, table: dict):
        value = 0
        while True:
            key = (pid, value & 15)
            table[key] = table.get(key, 0) + 1
            value = yield key

    table: dict = {}
    procs = [process(pid, table) for pid in range(4)]
    for proc in procs:
        next(proc)
    log = []
    for i in range(rounds):
        log.append(procs[i & 3].send(i))
        if len(log) > 32:
            del log[:16]
    return len(table) + len(log)


def probe_s() -> float:
    """Thread CPU seconds of one probe."""
    began = time.thread_time()
    _probe_kernel(PROBE_ROUNDS)
    return time.thread_time() - began


class HostSpeed:
    """Rescales wall times of work to the reference host.

    :meth:`factor` is called right after a piece of work ends: it probes
    once and returns the factor for the piece, from the mean of the
    probes just before and just after it.  The probes run between pieces,
    never inside one.  One instance per thread.
    """

    def __init__(self) -> None:
        self.probes = [probe_s()]

    def factor(self) -> float:
        """Probe once; the factor from this host to the reference host
        for the piece of work that just ended."""
        before = self.probes[-1]
        self.probes.append(probe_s())
        return 2.0 * REFERENCE_PROBE_S / (before + self.probes[-1])


def percentile(values: Sequence[float], q: int) -> float:
    """The nearest-rank ``q``-th percentile (0 for no samples).  Nearest
    rank keeps a failed job's infinite latency out of any interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    """High-water RSS of this process and of its waited-for descendants
    (the larger of the two), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def emit(payload: dict[str, Any]) -> None:
    """Print a child's result as its last stdout line."""
    sys.stdout.write("RESULT " + json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
