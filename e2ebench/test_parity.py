"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest e2ebench/test_parity.py -q

- Service/library parity: a small ``service-mixed`` job set (with one
  overlapping job) through a real ``repro serve`` process must record the
  same (experiment, n, seed, value) digest as the same cells through
  ``build_sweep(...).execute()``, with exact cache hits.
- The profile grouping sends every simulator file to its layer.
"""

from __future__ import annotations

import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import DIGEST_UNITS, UNSET_ENV, UNSET_PROXY_ENV, outcome_digest  # noqa: E402


def test_service_matches_library(tmp_path, monkeypatch):
    from repro.serve.client import ServeClient
    from service import (
        LoadGenerator,
        Server,
        job_problems,
        ledger_rows,
        library_rows,
        prepare_state,
    )

    for name in UNSET_ENV + UNSET_PROXY_ENV:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("PYTHONPATH", str(HERE.parent / "src"))
    state = prepare_state(tmp_path, 3, "state")
    server = Server(state, trace_dir=None)
    try:
        load = LoadGenerator(
            ServeClient(server.url, timeout=60), seed=3, seconds=0,
            units=DIGEST_UNITS["service-mixed"],
        )
        load.run()
    finally:
        server.stop()
    assert [problem for job in load.jobs for problem in job_problems(job)] == []
    assert load.jobs[-1]["result"]["cache_hits"] > 0  # the overlapping job
    rows, problems, _steps = ledger_rows(state, load.jobs)
    assert problems == []
    assert outcome_digest(rows) == outcome_digest(library_rows(load.jobs))


def test_layer_grouping():
    from tracing import STDLIB, layer_of

    src = os.path.join(str(HERE.parent), "src", "repro")
    assert layer_of(os.path.join(src, "registers", "base.py")) == "registers.audit"
    assert layer_of(os.path.join(src, "registers", "atomic.py")) == "registers.ops"
    assert layer_of(os.path.join(src, "runtime", "simulation.py")) == "runtime.simulation"
    assert layer_of(os.path.join(src, "runtime", "rng.py")) is None
    assert layer_of(os.path.join(src, "strip", "edge_counters.py")) == "strip"
    assert layer_of("~") == STDLIB
    assert layer_of(os.__file__) == STDLIB
    assert layer_of(str(HERE / "tracing.py")) is None
