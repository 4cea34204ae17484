"""The dispatcher's one ledger handle follows appends from other processes.

The dispatcher keeps a single :class:`~repro.obs.ledger.RunLedger` for
its lifetime.  A ``repro sweep`` in another process appending to the
same file must still be seen by the very next job: a job over the
seeds the CLI just ran is served entirely from the ledger.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.dispatcher import Dispatcher
from repro.serve.queue import JobQueue, JobStates
from repro.serve.schemas import validate_spec
from repro.serve.telemetry import TelemetryHub, load_job_trace

SRC = Path(__file__).resolve().parents[2] / "src"
PARAMS = {"n_values": [2, 3], "reps": 3, "max_steps": 200_000}
CELLS = len(PARAMS["n_values"]) * PARAMS["reps"]


@pytest.fixture(autouse=True)
def _pinned_code_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-ledger-tail-v1")


def _run_job(dispatcher, queue, job_id, **params):
    spec = validate_spec({"kind": "sweep", "params": {**PARAMS, **params}})
    queue.submit(job_id, spec)
    dispatcher.execute(queue.claim())
    job = queue.get(job_id)
    assert job.state == JobStates.DONE, job.error
    return job.result


def test_next_job_hits_cells_a_cli_process_appended(tmp_path):
    ledger_path = tmp_path / "ledger.jsonl"
    queue = JobQueue(tmp_path / "jobs.jsonl")
    telemetry = TelemetryHub(
        tmp_path / "trace.jsonl", MetricsRegistry(enabled=True)
    )
    dispatcher = Dispatcher(queue, ledger_path=ledger_path, telemetry=telemetry)

    first = _run_job(dispatcher, queue, "first")
    assert (first["cache_hits"], first["recomputed"]) == (0, CELLS)

    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "sweep",
            "--n-values",
            "2,3",
            "--reps",
            str(PARAMS["reps"]),
            "--max-steps",
            str(PARAMS["max_steps"]),
            "--seed-base",
            "100",
            "--ledger",
            str(ledger_path),
        ],
        check=True,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )

    second = _run_job(dispatcher, queue, "second", seed_base=100)
    assert (second["cache_hits"], second["recomputed"]) == (CELLS, 0)
    assert second["table"] != first["table"]

    refresh = {
        record["job"]: record["args"]
        for record in load_job_trace(tmp_path / "trace.jsonl")
        if record["name"] == "ledger-refresh"
    }
    # The first job found an empty ledger.  The second's refresh parsed
    # the CLI's lines (and any of the first job's own appends not yet
    # indexed); over the handle's life every line was parsed once.
    empty = {"bytes_read": 0, "lines_parsed": 0, "records": 0}
    assert refresh["first"] == empty
    assert CELLS <= refresh["second"]["lines_parsed"] <= 2 * CELLS
    assert refresh["second"]["records"] == 2 * CELLS
    assert dispatcher.ledger.lines_parsed == 2 * CELLS
