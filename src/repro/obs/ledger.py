"""The run ledger: an append-only, content-addressed cross-run store.

Every simulation entry point in this repository is deterministic per
(seed, configuration, code version) — that triple therefore *names* a
result.  The ledger makes the name concrete: a **fingerprint** is the
SHA-256 of the canonically-serialized triple, and a
:class:`LedgerRecord` files one run's outcome summary, metrics snapshot
(series included), wall-clock timings and code provenance under it.
Records append to a JSONL file (one canonical line per record, sorted
keys, compact separators), which buys three properties:

- **cache**: re-recording an identical result is a no-op (a *cache hit*
  — entry points use :meth:`RunLedger.cached` to skip recomputation
  outright unless asked not to);
- **byte-identity**: the deterministic entry points (sweeps, fuzz grids,
  mutation campaigns) write records containing no host measurements, and
  parents append after merging worker results in submission order — so a
  serial run and a ``workers=N`` run of the same workload produce
  byte-identical ledger files;
- **evidence**: a fingerprint that ever maps to *two different* payloads
  is a determinism violation — a strong alarm in a repository whose
  whole verification story rests on bit-identical replay — and the
  ledger keeps both records so :mod:`repro.obs.projections` can flag it.

The file format is crash-tolerant in the only way JSONL can be: a torn
trailing line (a writer died mid-append) is ignored on read; a malformed
line anywhere *else* is corruption and raises.  A :class:`RunLedger`
handle indexes the file incrementally (offsets and identity digests,
never whole records), so a long-lived handle — the serve dispatcher's —
parses each line once and still sees every other writer's appends.

Enable recording with ``--ledger PATH`` on the CLI commands or the
``REPRO_LEDGER`` environment variable; it is off by default.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

try:  # POSIX advisory locks; absent on some platforms (documented below)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro.version import LEDGER_SCHEMA, code_version, provenance

#: Environment variable enabling ledger recording process-wide (the CLI
#: ``--ledger`` flag takes precedence where both are given).
LEDGER_ENV = "REPRO_LEDGER"


def canonical_json(payload: Any) -> str:
    """The one serialization fingerprints and ledger lines are built on:
    sorted keys, compact separators, no NaN — identical input, identical
    bytes, on every platform."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def jsonable(value: Any) -> Any:
    """Coerce a value into plain JSON types (mappings/sequences recursed,
    everything exotic collapsed to ``repr``) so configs with tuples or
    dataclasses still canonicalize deterministically."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    return repr(value)


def compute_fingerprint(
    seed: int, config: Mapping[str, Any], code: str | None = None
) -> str:
    """SHA-256 content address of one (seed, config, code-version) cell."""
    payload = canonical_json(
        {"seed": seed, "config": jsonable(dict(config)), "code": code or code_version()}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LedgerRecord:
    """One recorded run, filed under its content-address fingerprint.

    ``timings`` is the only host-dependent field: it never participates
    in :meth:`identity`, and the deterministic entry points leave it
    empty so their ledger files are byte-identical at any worker count.
    """

    fingerprint: str
    kind: str  # "run" | "sweep" | "fuzz" | "campaign" | "bench" | "profile"
    experiment: str  # human label, e.g. "sweep:ads:steps" or "bench:p1"
    seed: int
    config: dict[str, Any]
    code_version: str
    outcome: dict[str, Any]
    metrics: dict[str, Any] | None = None
    timings: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)
    schema: int = LEDGER_SCHEMA

    def identity(self) -> str:
        """Canonical bytes of everything *deterministic* about this record.

        Two records with equal fingerprints but unequal identities are a
        determinism violation; equal identities are the same result (the
        append path treats the second as a cache hit)."""
        return canonical_json(
            {
                "schema": self.schema,
                "fingerprint": self.fingerprint,
                "kind": self.kind,
                "experiment": self.experiment,
                "seed": self.seed,
                "config": self.config,
                "code_version": self.code_version,
                "outcome": self.outcome,
                "metrics": self.metrics,
                "provenance": self.provenance,
            }
        )

    def to_line(self) -> str:
        """The record's canonical JSONL line (no trailing newline)."""
        return canonical_json(
            {
                "schema": self.schema,
                "fingerprint": self.fingerprint,
                "kind": self.kind,
                "experiment": self.experiment,
                "seed": self.seed,
                "config": self.config,
                "code_version": self.code_version,
                "outcome": self.outcome,
                "metrics": self.metrics,
                "timings": self.timings,
                "provenance": self.provenance,
            }
        )

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "LedgerRecord":
        schema = int(payload.get("schema", 0))
        if schema > LEDGER_SCHEMA:
            raise ValueError(
                f"ledger record schema {schema} is newer than this code's "
                f"schema {LEDGER_SCHEMA} — upgrade repro to read this ledger"
            )
        return cls(
            fingerprint=str(payload["fingerprint"]),
            kind=str(payload.get("kind", "run")),
            experiment=str(payload.get("experiment", "")),
            seed=int(payload.get("seed", 0)),
            config=dict(payload.get("config", {})),
            code_version=str(payload.get("code_version", "")),
            outcome=dict(payload.get("outcome", {})),
            metrics=payload.get("metrics"),
            timings=dict(payload.get("timings", {})),
            provenance=dict(payload.get("provenance", {})),
            schema=schema,
        )


def make_record(
    kind: str,
    experiment: str,
    seed: int,
    config: Mapping[str, Any],
    outcome: Mapping[str, Any],
    metrics: Any = None,
    timings: Mapping[str, Any] | None = None,
    code: str | None = None,
) -> LedgerRecord:
    """Build a record, computing its fingerprint and provenance stamp.

    ``metrics`` may be a :class:`~repro.obs.metrics.MetricsSnapshot` (its
    JSON payload — series included — is taken) or any JSON-able mapping.
    """
    if metrics is not None and hasattr(metrics, "to_json"):
        metrics = json.loads(metrics.to_json())
    code = code or code_version()
    clean_config = jsonable(dict(config))
    return LedgerRecord(
        fingerprint=compute_fingerprint(seed, clean_config, code),
        kind=kind,
        experiment=experiment,
        seed=seed,
        config=clean_config,
        code_version=code,
        outcome=jsonable(dict(outcome)),
        metrics=jsonable(metrics) if metrics is not None else None,
        timings=jsonable(dict(timings)) if timings else {},
        provenance=jsonable(provenance()),
    )


class LedgerCorruption(ValueError):
    """A non-trailing ledger line failed to parse — the file is damaged
    beyond the torn-tail case the reader tolerates by design.

    The message always leads with ``<file>:<line>:`` so server-side
    ledger damage is diagnosable straight from a CI log or artifact."""


def locked_append(path: pathlib.Path | str, text: str) -> None:
    """Append ``text`` to ``path`` under an exclusive advisory lock.

    This is the one write path of every append-only JSONL store in the
    repository (run ledger, serve job log).  The lock makes concurrent
    appends from multiple processes interleave as whole lines instead of
    tearing each other mid-record; within one process, callers serialize
    through their own handle locks.  On platforms without ``fcntl`` the
    append degrades to a plain buffered write (single-writer semantics,
    the pre-existing contract).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            handle.write(text)
            handle.flush()
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def truncate_torn_tail(path: pathlib.Path | str) -> bool:
    """Physically remove a torn trailing line left by a crashed writer.

    Readers already *tolerate* a torn tail (they drop it), but the
    garbage bytes stay in the file — which breaks the serve restart
    guarantee that a resumed campaign's ledger is byte-identical to an
    undisturbed run.  Called once at server boot, before any appends.
    Returns ``True`` when something was truncated.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return False
    data = path.read_bytes()
    # Writers emit "<record>\n" in one locked write, so a torn tail is
    # exactly: bytes after the last newline that do not parse as JSON.
    if not data or data.endswith(b"\n"):
        return False
    head, sep, line = data.rpartition(b"\n")
    offset = len(head) + len(sep)
    try:
        json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        with open(path, "r+b") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                handle.truncate(offset)
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        return True
    # A parsable line missing only its newline: complete it in place.
    locked_append(path, "\n")
    return False


def _parse_line(
    path: pathlib.Path, lineno: int, line: str, trailing: bool
) -> LedgerRecord | None:
    """One ledger line as a record; ``None`` for a torn trailing line.

    An unparsable line that is not the file's last line, or any line
    that parses as JSON but not as a record, raises
    :class:`LedgerCorruption` naming ``<file>:<line>``.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        if trailing:
            return None  # torn trailing line: a crash mid-append, not corruption
        raise LedgerCorruption(
            f"{path}:{lineno}: unparsable ledger line (not the trailing "
            f"line, so this is corruption, not a torn append): {exc}; "
            f"line starts {line[:60]!r}"
        ) from None
    try:
        return LedgerRecord.from_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise LedgerCorruption(
            f"{path}:{lineno}: ledger line parses as JSON but is not a "
            f"valid record ({type(exc).__name__}: {exc}); "
            f"line starts {line[:60]!r}"
        ) from None


def _digest(record: LedgerRecord) -> bytes:
    """SHA-256 of a record's :meth:`~LedgerRecord.identity` — what the
    index keeps in place of the record itself."""
    return hashlib.sha256(record.identity().encode("utf-8")).digest()


def read_records(path: pathlib.Path | str) -> list[LedgerRecord]:
    """Read every record of a ledger file, tolerating a torn last line.

    A missing file is an empty ledger.  An unparsable *trailing* line is
    dropped silently (a writer died mid-append; the append protocol makes
    any earlier line complete).  An unparsable line before the end raises
    :class:`LedgerCorruption` with the line number.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return []
    lines = path.read_text().splitlines()
    records: list[LedgerRecord] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = _parse_line(path, lineno, line, trailing=lineno == len(lines))
        if record is None:
            break
        records.append(record)
    return records


class RunLedger:
    """Append-only, content-addressed JSONL store of run records.

    A handle is a lean, tail-following index over the file: for each
    fingerprint, the byte offset of every line filed under it and the
    SHA-256 of that line's :meth:`~LedgerRecord.identity`.  It holds no
    :class:`LedgerRecord`; a cache hit re-reads its one line at its
    offset (and checks the digest).  Dedupe and contested-fingerprint
    decisions come from the digests alone.

    The index builds lazily at the first :meth:`cached`, :meth:`lookup`,
    :meth:`append` or ``len()``, and each of those first :meth:`refresh`es
    it: a ``stat``, then a read of only the bytes appended since, so each
    line is parsed once per handle however long the handle lives.  Other
    writers are therefore seen at the next probe — the serve dispatcher
    keeps one handle for the server's lifetime and still sees every
    record a concurrent CLI run appends.  The rules the refresh keeps:

    - a trailing line without its newline is left unconsumed until it
      completes (a writer mid-append, or a torn tail);
    - a complete but unparsable *last* line is a torn tail too, until a
      line follows it — then it is corruption, as in :func:`read_records`;
    - a malformed line anywhere else raises :class:`LedgerCorruption`
      naming ``<file>:<line>``;
    - a file that shrank, vanished or was rewritten under the index
      (``repro history gc``) — detected by re-reading the last indexed
      line at its offset — is re-indexed from scratch.

    ``use_cache=False`` makes :meth:`cached` always miss, which is how
    ``--no-cache`` forces recomputation while still recording.
    """

    def __init__(self, path: pathlib.Path | str, use_cache: bool = True):
        self.path = pathlib.Path(path)
        self.use_cache = use_cache
        #: Cache accounting for this handle's lifetime: how many
        #: :meth:`cached` probes were served vs missed.  Campaign resume
        #: reporting ("N cells served from checkpoint") reads these.
        self.hits = 0
        self.misses = 0
        #: Refresh accounting for this handle's lifetime: bytes read and
        #: lines parsed while indexing (the serve job trace reports them).
        self.bytes_read = 0
        self.lines_parsed = 0
        self._reset()

    def _reset(self) -> None:
        self._index: dict[str, list[tuple[int, bytes]]] = {}
        self._digests: set[bytes] = set()
        self._count = 0
        self._offset = 0  # every complete line before this byte is indexed
        self._lineno = 0  # lines consumed so far (for error messages)
        self._last: tuple[int, bytes] | None = None  # last consumed line
        self._stat: tuple[int, ...] | None = None  # file state at last read

    # -- indexing ------------------------------------------------------------

    def refresh(self) -> None:
        """Index the complete lines appended since the last refresh."""
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            if self._offset:
                self._reset()  # deleted: an empty ledger again
            return
        stamp = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
        if stamp == self._stat:
            return
        with open(self.path, "rb") as handle:
            if self._last is not None:
                start, line = self._last
                handle.seek(start)
                if handle.read(len(line)) != line:
                    self._reset()  # shrank or rewritten: re-index it all
            handle.seek(self._offset)
            data = handle.read()
        self.bytes_read += len(data)
        self._consume(data)  # raises on corruption, so every probe re-raises
        self._stat = stamp

    def _consume(self, data: bytes) -> None:
        base, pos = self._offset, 0
        while end := data.find(b"\n", pos) + 1:  # a newline-less tail waits
            line = data[pos:end].decode("utf-8", "replace")
            if line.strip():
                record = _parse_line(
                    self.path, self._lineno + 1, line, trailing=end == len(data)
                )
                if record is None:
                    return  # unparsable last line: torn until a line follows
                self.lines_parsed += 1
                digest = _digest(record)
                self._index.setdefault(record.fingerprint, []).append(
                    (base + pos, digest)
                )
                self._digests.add(digest)
                self._count += 1
                self._last = (base + pos, data[pos:end])
            self._lineno += 1
            self._offset = base + end
            pos = end

    def _entries(self, fingerprint: str) -> list[tuple[int, bytes]]:
        self.refresh()
        return self._index.get(fingerprint, [])

    def _read(self, fingerprint: str, count: int | None = None) -> list[LedgerRecord]:
        """The (first ``count``) records filed under a fingerprint, read
        back at their offsets.  A line that no longer matches its digest
        means the file was rewritten since the last refresh: re-index
        and read again."""
        for _ in range(2):
            records = self._read_lines(self._entries(fingerprint)[:count])
            if records is not None:
                return records
            self._reset()
        raise LedgerCorruption(
            f"{self.path}: lines filed under {fingerprint[:12]} changed while "
            f"being read, twice"
        )

    def _read_lines(
        self, entries: list[tuple[int, bytes]]
    ) -> list[LedgerRecord] | None:
        records: list[LedgerRecord] = []
        if not entries:
            return records
        try:
            with open(self.path, "rb") as handle:
                for offset, digest in entries:
                    handle.seek(offset)
                    line = handle.readline().decode("utf-8", "replace")
                    try:
                        record = _parse_line(self.path, 0, line, trailing=True)
                    except LedgerCorruption:
                        return None
                    if record is None or _digest(record) != digest:
                        return None
                    records.append(record)
        except FileNotFoundError:
            return None
        return records

    # -- reading -------------------------------------------------------------

    def records(self) -> list[LedgerRecord]:
        """Every record on disk now, in file order (a fresh read)."""
        return read_records(self.path)

    def __len__(self) -> int:
        self.refresh()
        return self._count

    def lookup(self, fingerprint: str) -> list[LedgerRecord]:
        """Every record filed under a fingerprint (order = append order)."""
        return self._read(fingerprint)

    def cached(self, fingerprint: str) -> LedgerRecord | None:
        """The cache-hit record for a fingerprint, or ``None``.

        Misses when caching is off, when the fingerprint is unknown, and
        — deliberately — when the fingerprint is *contested* (multiple
        distinct identities): contested results must be recomputed, not
        served from either side of a determinism violation.
        """
        if not self.use_cache:
            self.misses += 1
            return None
        entries = self._entries(fingerprint)
        records = (
            self._read(fingerprint, count=1)
            if len({digest for _, digest in entries}) == 1
            else []  # unknown, or contested
        )
        if not records:
            self.misses += 1
            return None
        self.hits += 1
        return records[0]

    # -- writing -------------------------------------------------------------

    def append(self, record: LedgerRecord) -> bool:
        """Append a record unless an identical one is already filed.

        Returns ``True`` when a line was written.  A record whose
        :meth:`~LedgerRecord.identity` already exists is a cache hit and
        is *not* re-appended (append-only does not mean append-duplicates);
        a record whose fingerprint exists under a *different* identity IS
        appended — that conflict is determinism-violation evidence and
        must survive for :func:`repro.obs.projections.detect_violations`.
        The new line is indexed by the next refresh, together with any
        line another writer appended before it.
        """
        self.refresh()
        if _digest(record) in self._digests:
            return False
        # Locked append: concurrent writers (serve dispatcher + a CLI run
        # sharing one ledger) interleave whole lines, never torn records.
        locked_append(self.path, record.to_line() + "\n")
        return True

    def append_all(self, records: Iterable[LedgerRecord]) -> int:
        """Append many records; returns how many lines were written."""
        return sum(1 for record in records if self.append(record))

    def gc(self) -> tuple[int, int]:
        """Rewrite the file dropping exact-duplicate identities.

        Distinct identities under one fingerprint are *kept* — they are
        evidence, and collecting them is the flakiness detector's job.
        Every handle on the file (this one included) re-indexes at its
        next probe.  Returns ``(kept, dropped)``.
        """
        records = read_records(self.path)
        seen: set[str] = set()
        kept: list[LedgerRecord] = []
        for record in records:
            identity = record.identity()
            if identity in seen:
                continue
            seen.add(identity)
            kept.append(record)
        if self.path.exists() or kept:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(
                "".join(record.to_line() + "\n" for record in kept)
            )
        self._reset()
        return len(kept), len(records) - len(kept)


def ledger_from_env(
    path: str | os.PathLike | None = None, use_cache: bool = True
) -> RunLedger | None:
    """The process's ledger, or ``None`` when recording is off.

    ``path`` (a CLI ``--ledger`` value) wins; otherwise the
    ``REPRO_LEDGER`` environment variable; otherwise recording is off —
    the default, so no entry point pays ledger I/O unasked.
    """
    resolved = str(path) if path else os.environ.get(LEDGER_ENV, "").strip()
    if not resolved:
        return None
    return RunLedger(resolved, use_cache=use_cache)
