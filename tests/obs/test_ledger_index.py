"""The tail-following ledger index: one long-lived handle against a
fresh handle per step.

A :class:`RunLedger` handle indexes its file incrementally (offsets and
identity digests) and refreshes at every probe.  The oracle here is the
per-job model the serve dispatcher used to follow: a brand-new handle,
built from the whole file, for every single operation.  Both sides see
the same operation sequence on twin files and must agree on every
``cached``/``lookup``/``append`` result, on ``hits``/``misses`` and on
the final file bytes.
"""

import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.ledger import (
    LedgerCorruption,
    RunLedger,
    locked_append,
    make_record,
)


@pytest.fixture(autouse=True)
def _pinned_code_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-index-v1")


SEEDS = 4


def _record(seed: int, value: int = 0, wall: int = 0):
    """Same seed = same fingerprint; a different ``value`` contests it; a
    different ``wall`` timing is a duplicate identity with other bytes."""
    return make_record(
        kind="sweep",
        experiment="sweep:index",
        seed=seed,
        config={"experiment": "sweep:index", "n": 2},
        outcome={"value": float(value)},
        timings={"wall_seconds": wall} if wall else None,
    )


RECORDS = [
    _record(seed, value, wall)
    for seed in range(SEEDS)
    for value in range(2)
    for wall in range(2)
]
FINGERPRINTS = sorted({record.fingerprint for record in RECORDS})

record_ids = st.integers(0, len(RECORDS) - 1)
fingerprint_ids = st.integers(0, len(FINGERPRINTS) - 1)
operations = st.one_of(
    st.tuples(st.just("append"), record_ids),
    st.tuples(st.just("external"), record_ids),
    st.tuples(st.just("torn"), record_ids, st.floats(0.05, 0.95)),
    st.tuples(st.just("gc")),
    st.tuples(st.just("cached"), fingerprint_ids),
    st.tuples(st.just("lookup"), fingerprint_ids),
    st.tuples(st.just("len")),
)
WRITES = {"append", "external", "torn", "gc"}


def _lines(records):
    return [record.to_line() for record in records]


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(operations, max_size=30), use_cache=st.booleans())
def test_long_lived_handle_matches_a_fresh_handle_per_step(ops, use_cache):
    with tempfile.TemporaryDirectory() as tmp:
        live_path = Path(tmp, "live.jsonl")
        oracle_path = Path(tmp, "oracle.jsonl")
        live = RunLedger(live_path, use_cache=use_cache)
        hits = misses = 0
        torn_rest = None  # the missing half of a torn line, both files

        def external(text):
            for path in (live_path, oracle_path):
                locked_append(path, text)

        for op in ops:
            if torn_rest is not None and op[0] in WRITES:
                external(torn_rest)  # the torn append completes
                torn_rest = None
            oracle = RunLedger(oracle_path, use_cache=use_cache)
            kind = op[0]
            if kind == "append":
                record = RECORDS[op[1]]
                assert live.append(record) == oracle.append(record)
            elif kind == "external":
                external(RECORDS[op[1]].to_line() + "\n")
            elif kind == "torn":
                line = RECORDS[op[1]].to_line() + "\n"
                cut = max(1, int(len(line) * op[2]))  # never the whole object
                external(line[:cut])
                torn_rest = line[cut:]
            elif kind == "gc":
                assert RunLedger(live_path).gc() == RunLedger(oracle_path).gc()
            elif kind == "cached":
                fingerprint = FINGERPRINTS[op[1]]
                got, want = live.cached(fingerprint), oracle.cached(fingerprint)
                assert (got and got.to_line()) == (want and want.to_line())
            elif kind == "lookup":
                fingerprint = FINGERPRINTS[op[1]]
                assert _lines(live.lookup(fingerprint)) == _lines(
                    oracle.lookup(fingerprint)
                )
            else:
                assert len(live) == len(oracle)
            hits += oracle.hits
            misses += oracle.misses
        assert (live.hits, live.misses) == (hits, misses)
        assert live_path.exists() == oracle_path.exists()
        if live_path.exists():
            assert live_path.read_bytes() == oracle_path.read_bytes()


def test_each_line_is_parsed_once(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    for seed in range(3):
        ledger.append(_record(seed))
    assert len(ledger) == 3 and ledger.lines_parsed == 3
    read = ledger.bytes_read
    for _ in range(5):
        assert ledger.cached(_record(0).fingerprint) is not None
    assert (ledger.bytes_read, ledger.lines_parsed) == (read, 3)
    locked_append(path, _record(3).to_line() + "\n")  # another writer
    assert ledger.cached(_record(3).fingerprint) == _record(3)
    assert ledger.lines_parsed == 4


def test_gc_by_another_handle_triggers_a_full_reindex(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record(0))
    locked_append(path, _record(0, wall=1).to_line() + "\n")  # duplicate
    ledger.append(_record(1))
    assert len(ledger) == 3
    assert RunLedger(path).gc() == (2, 1)
    # Regrow the file past the old end: size alone cannot tell.
    locked_append(path, _record(2).to_line() + "\n")
    locked_append(path, _record(3).to_line() + "\n")
    assert len(ledger) == 4
    assert ledger.lookup(_record(1).fingerprint) == [_record(1)]
    assert ledger.cached(_record(3).fingerprint) == _record(3)


def test_midfile_garbage_raises_naming_file_and_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record(0))
    ledger.append(_record(1))
    assert len(ledger) == 2
    locked_append(path, '{"fingerprint": "half a rec\n')
    # Torn while it is the last line ...
    assert ledger.cached(_record(0).fingerprint) == _record(0)
    locked_append(path, _record(2).to_line() + "\n")
    # ... corruption once a line follows it, on every later probe.
    for probe in (len, lambda handle: handle.cached(_record(2).fingerprint)):
        with pytest.raises(LedgerCorruption) as excinfo:
            probe(ledger)
        assert str(excinfo.value).startswith(f"{path}:3:")


def test_index_holds_no_records(tmp_path):
    """2,000 filler-shaped records cost well under 2 MB of index (a
    handle holding every parsed record measured ~6-7 MB)."""
    path = tmp_path / "ledger.jsonl"
    lines = []
    for index in range(2000):
        config = {
            "experiment": "filler",
            "protocol": "ads",
            "scheduler": "random",
            "metric": "steps",
            "max_steps": 50_000_000,
            "n": 2 + index % 7,
        }
        record = make_record(
            kind="sweep",
            experiment="filler",
            seed=index,
            config=config,
            outcome={"value": float(100 + index * 7919 % 50_000)},
        )
        lines.append(record.to_line() + "\n")
    path.write_text("".join(lines))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ledger = RunLedger(path)
        assert len(ledger) == 2000
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 2 * 1024 * 1024, grown
