"""Append-only CRC-framed write-ahead journal of one simulation run.

The kernel is deterministic (``(time, seq)`` pop order, fixed subscriber
order, synchronous emission), so a run's externally observable history is
fully captured by two streams: the timed-event *pops* that drive it and
the bus events they produce.  This module records both to an append-only
JSONL file, one CRC32-framed record per line::

    crc32-hex-8 {"r":"pop","t":12.5,"q":41,"k":"task_finish","p":...}

Write-ahead semantics: the pop record is appended *before* the event's
handler runs (a kernel pop observer), so after a crash the journal tells
you exactly which event was in flight.  Writes are buffered and fsynced
every ``fsync_every`` records — a crash can therefore tear the final
record(s); :func:`read_journal` tolerates a torn/truncated *tail* and
reports the valid byte length, while corruption in the middle of the
file (a bad record followed by further records) fails loudly.

Recovery story (see :mod:`repro.sim.snapshot`): each snapshot stores the
journal byte offset at its settled point; resuming truncates the journal
to that offset and re-appends while the deterministic engine replays —
so the journal of a crashed-and-resumed run is byte-identical to an
uninterrupted run's, which the soak harness golden-compares.

Everything here is pure JSON — no pickle — and the encoding helpers are
shared with the snapshot serializer (timed-event payloads, bus events).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import zlib
from json.encoder import encode_basestring_ascii as _esc
from pathlib import Path
from typing import Any

from . import kernel as k
from .events import Event, EventKind
from .faults import FaultEvent, FaultKind

__all__ = [
    "JournalCorrupt",
    "JournalWriter",
    "JournalRecorder",
    "read_journal",
    "summarize_journal",
    "encode_payload",
    "decode_payload",
    "encode_bus_event",
    "decode_bus_event",
]


logger = logging.getLogger(__name__)


class JournalCorrupt(RuntimeError):
    """A journal record *before* the tail failed its CRC/format check."""


# ---------------------------------------------------------------- wire codec
def encode_payload(payload: Any) -> Any:
    """JSON-encode a timed-event payload (the closed taxonomy: ``None``,
    a job-id string, a ``(task_id, version)`` pair, a FaultEvent)."""
    if payload is None:
        return None
    if isinstance(payload, str):
        return {"s": payload}
    if isinstance(payload, tuple) and len(payload) == 2:
        return {"v": [payload[0], payload[1]]}
    if isinstance(payload, FaultEvent):
        return {
            "f": [payload.time, payload.node_id, payload.kind.value, payload.factor]
        }
    raise TypeError(f"unencodable timed-event payload: {payload!r}")


def decode_payload(data: Any) -> Any:
    """Inverse of :func:`encode_payload`."""
    if data is None:
        return None
    if "s" in data:
        return data["s"]
    if "v" in data:
        tid, version = data["v"]
        return (tid, version)
    if "f" in data:
        time, node_id, kind, factor = data["f"]
        return FaultEvent(
            time=time, node_id=node_id, kind=FaultKind(kind), factor=factor
        )
    raise JournalCorrupt(f"unknown payload encoding: {data!r}")


#: Per-type field-name cache for the generic bus-event codec.
_BUS_FIELDS: dict[type, tuple[str, ...]] = {}


def _bus_fields(etype: type) -> tuple[str, ...]:
    fields = _BUS_FIELDS.get(etype)
    if fields is None:
        fields = _BUS_FIELDS[etype] = tuple(
            f.name for f in dataclasses.fields(etype)
        )
    return fields


def encode_bus_event(event: k.BusEvent) -> dict:
    """Encode any :class:`~repro.sim.kernel.BusEvent` generically (they
    are flat frozen dataclasses of JSON-safe scalars)."""
    etype = type(event)
    return {
        "e": etype.__name__,
        "a": {name: getattr(event, name) for name in _bus_fields(etype)},
    }


# The recorder sits on the kernel's hottest paths (every pop, every bus
# emission), so it pre-renders records straight to compact-JSON text
# instead of building dicts for json.dumps.  The output must stay
# byte-identical to ``json.dumps(record, separators=(",", ":"))`` — the
# crash-recovery soak golden-compares journals byte for byte — which
# pins the scalar spellings: C-accelerated ``encode_basestring_ascii``
# for strings (what dumps uses under ensure_ascii) and
# ``float.__repr__`` for finite floats (ditto).

def _scalar(value: Any) -> str:
    """One JSON-safe scalar, byte-identical to json.dumps' rendering."""
    t = type(value)
    if t is str:
        return _esc(value)
    if t is float:
        if math.isfinite(value):
            return float.__repr__(value)
        return json.dumps(value)  # Infinity / -Infinity / NaN spellings
    if t is int:
        return repr(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value, separators=(",", ":"))


#: Per-type compiled renderers for bus records (the namedtuple trick:
#: generate the straight-line f-string once, eval it, cache it).  A
#: compiled renderer has no field loop, no getattr, no list building —
#: just attribute loads and one BUILD_STRING — which roughly halves the
#: per-record cost vs a generic loop.  Field *values* still go through
#: :func:`_scalar` so the rendering stays correct for whatever runtime
#: type a field actually holds.
_BUS_RENDERERS: dict[type, Any] = {}


def _compile_bus_renderer(etype: type):
    names = _bus_fields(etype)
    head = '{"r":"bus","e":%s,"a":{' % _esc(etype.__name__)

    def lit(text: str) -> str:  # literal braces inside an f-string
        return text.replace("{", "{{").replace("}", "}}")

    parts = [lit(head)]
    for i, name in enumerate(names):
        # Field names are identifiers, so _esc adds quotes, never escapes.
        parts.append(lit(("," if i else "") + _esc(name) + ":"))
        parts.append("{s(ev.%s)}" % name)
    parts.append(lit("}}"))
    src = "lambda ev, s=_scalar: f'%s'" % "".join(parts)
    return eval(src, {"_scalar": _scalar})  # noqa: S307 — self-generated


def _render_bus(event: k.BusEvent) -> str:
    etype = type(event)
    render = _BUS_RENDERERS.get(etype)
    if render is None:
        render = _BUS_RENDERERS[etype] = _compile_bus_renderer(etype)
    return render(event)


#: EventKind values are a small closed set — cache their escaped forms.
_KIND_TEXT = {kind: _esc(kind.value) for kind in EventKind}


def _render_pop(event: Event) -> str:
    payload = event.payload
    if payload is None:
        p = "null"
    elif type(payload) is str:
        p = '{"s":%s}' % _esc(payload)
    elif isinstance(payload, tuple) and len(payload) == 2:
        p = '{"v":[%s,%s]}' % (_scalar(payload[0]), _scalar(payload[1]))
    elif isinstance(payload, FaultEvent):
        p = '{"f":[%s,%s,%s,%s]}' % (
            _scalar(payload.time), _esc(payload.node_id),
            _esc(payload.kind.value), _scalar(payload.factor),
        )
    else:
        raise TypeError(f"unencodable timed-event payload: {payload!r}")
    return '{"r":"pop","t":%s,"q":%s,"k":%s,"p":%s}' % (
        _scalar(event.time), event.seq, _KIND_TEXT[event.kind], p,
    )


def decode_bus_event(data: dict) -> k.BusEvent:
    """Inverse of :func:`encode_bus_event`."""
    cls = getattr(k, data["e"], None)
    if not (isinstance(cls, type) and issubclass(cls, k.BusEvent)):
        raise JournalCorrupt(f"unknown bus event type: {data.get('e')!r}")
    return cls(**data["a"])


def encode_pop(event: Event) -> dict:
    """The journal record of one timed-event pop."""
    return {
        "r": "pop",
        "t": event.time,
        "q": event.seq,
        "k": event.kind.value,
        "p": encode_payload(event.payload),
    }


def decode_pop(record: dict) -> Event:
    """Rebuild the popped :class:`~repro.sim.events.Event` from its record."""
    return Event(
        time=record["t"],
        seq=record["q"],
        kind=EventKind(record["k"]),
        payload=decode_payload(record["p"]),
    )


# -------------------------------------------------------------------- writer
class JournalWriter:
    """Append-only CRC-framed JSONL writer with batched fsync.

    ``offset`` tracks the logical byte length written so far (buffered
    bytes included) — snapshots store it so resume knows where to
    truncate.  Pass ``truncate_at`` to reopen an existing journal at a
    snapshot's offset and continue appending from there.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync_every: int = 256,
        truncate_at: int | None = None,
    ) -> None:
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every!r}")
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        if truncate_at is not None:
            with open(self._path, "ab"):
                pass  # ensure it exists before r+b
            self._file = open(self._path, "r+b")
            self._file.truncate(truncate_at)
            self._file.seek(truncate_at)
        else:
            self._file = open(self._path, "wb")
        self._fsync_every = fsync_every
        self._since_sync = 0
        self.offset: int = self._file.tell()

    @property
    def path(self) -> Path:
        return self._path

    def append(self, record: dict) -> None:
        """Frame and buffer one record; fsync every ``fsync_every``."""
        self.append_text(json.dumps(record, separators=(",", ":")))

    def append_text(self, payload_text: str) -> None:
        """Frame one already-rendered compact-JSON record (must match
        json.dumps output byte for byte)."""
        payload = payload_text.encode("utf-8")
        line = b"%08x %s\n" % (zlib.crc32(payload), payload)
        self._file.write(line)
        self.offset += len(line)
        self._since_sync += 1
        if self._since_sync >= self._fsync_every:
            self.flush()

    def append_batch(self, payload_texts) -> None:
        """Frame many already-rendered records and write them in one
        syscall (the recorder's drain path)."""
        crc = zlib.crc32
        frames = []
        for text in payload_texts:
            payload = text.encode("utf-8")
            frames.append(b"%08x %s\n" % (crc(payload), payload))
        if not frames:
            return
        blob = b"".join(frames)
        self._file.write(blob)
        self.offset += len(blob)
        self._since_sync += len(frames)
        if self._since_sync >= self._fsync_every:
            self.flush()

    def flush(self) -> None:
        """Flush buffers and fsync to stable storage."""
        self._file.flush()
        os.fsync(self._file.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if not self._file.closed:
            self.flush()
            self._file.close()


# -------------------------------------------------------------------- reader
def _decode_line(line: bytes) -> dict | None:
    """One framed record, or None when the line is invalid/torn."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    payload = line[9:]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(payload) != crc:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def read_journal(path: str | os.PathLike) -> tuple[list[dict], int]:
    """Read a journal, tolerating a torn tail.

    Returns ``(records, valid_bytes)`` where *valid_bytes* is the byte
    length of the valid prefix.  A torn/truncated final record is dropped
    — that is what a crash mid-write leaves behind — with one structured
    warning (logger ``repro.sim.journal``, the truncation offset and the
    number of bytes dropped in both the message and ``extra`` fields, so
    log aggregators can key on them).  An invalid record with *further*
    records after it raises :class:`JournalCorrupt` — that is real
    corruption, not a crash artifact.
    """
    data = Path(path).read_bytes()
    records: list[dict] = []
    pos = 0
    while pos < len(data):
        nl = data.find(b"\n", pos)
        complete = nl >= 0
        line = data[pos:nl] if complete else data[pos:]
        record = _decode_line(line)
        if record is None or not complete:
            if complete and data.find(b"\n", nl + 1) >= 0:
                raise JournalCorrupt(
                    f"invalid journal record at byte {pos} of {path}"
                    " with further records after it"
                )
            # Torn tail — tolerated, but never silently: the offset is the
            # fact an operator needs to correlate with the snapshot's
            # journal_offset and the fsync cadence.
            logger.warning(
                "journal %s has a torn tail: dropped %d byte(s) at offset %d"
                " (valid prefix: %d records)",
                path, len(data) - pos, pos, len(records),
                extra={
                    "journal_path": str(path),
                    "torn_offset": pos,
                    "torn_bytes": len(data) - pos,
                },
            )
            break
        records.append(record)
        pos = nl + 1
    return records, pos


def summarize_journal(records: list[dict], *, tail: int = 10) -> str:
    """Human-readable post-mortem summary of a journal (the CLI's
    ``--journal`` inspection path)."""
    pops = [r for r in records if r.get("r") == "pop"]
    buses = [r for r in records if r.get("r") == "bus"]
    lines = [
        f"{len(records)} records: {len(pops)} timed-event pops,"
        f" {len(buses)} bus events"
    ]
    if pops:
        by_kind: dict[str, int] = {}
        for r in pops:
            by_kind[r["k"]] = by_kind.get(r["k"], 0) + 1
        lines.append(
            "pops by kind: "
            + ", ".join(f"{kind}={n}" for kind, n in sorted(by_kind.items()))
        )
        lines.append(f"sim time span: {pops[0]['t']:g} .. {pops[-1]['t']:g}")
    if buses:
        by_type: dict[str, int] = {}
        for r in buses:
            by_type[r["e"]] = by_type.get(r["e"], 0) + 1
        lines.append(
            "bus events by type: "
            + ", ".join(f"{name}={n}" for name, n in sorted(by_type.items()))
        )
    lines.append(f"last {min(tail, len(records))} records:")
    for r in records[-tail:]:
        if r.get("r") == "pop":
            lines.append(f"  pop  t={r['t']:g} seq={r['q']} {r['k']} {r['p']!r}")
        else:
            lines.append(f"  bus  {r['e']} {r['a']!r}")
    return "\n".join(lines)


# ------------------------------------------------------------------ recorder
#: Most captured records :class:`JournalRecorder` holds before it renders
#: and writes them — the bound on one event's journal stall.
RENDER_SLICE = 256


class JournalRecorder:
    """Wires a :class:`JournalWriter` into a live kernel/bus pair.

    Pop records are captured from a kernel pop observer (write-ahead: the
    record exists before the handler runs); bus records from a wildcard
    subscriber, which the engine attaches *after* every behavioral
    subsystem so recording observes but never perturbs the run.

    The observers sit on the kernel's hottest paths, so they do the
    absolute minimum: append a reference to the (frozen, slotted) event
    to a pending list.  Rendering, CRC framing and file writes happen in
    a tight batched drain loop — an order of magnitude cheaper per record
    than rendering inline between engine work, where every call runs with
    cold caches.  A drain runs whenever ``min(fsync_every,
    RENDER_SLICE)`` records are pending, and on :meth:`flush`.  The drain
    runs inside whichever event captured the last record, so the slice
    bounds how long one event stalls the engine (and a service loop
    driving it) on journal work: on a 2-vCPU host, 1–4 ms for 256
    records, where a whole fsync batch of 8,192 took 20–40 ms.

    The slice is not the fsync cadence: :class:`JournalWriter` counts
    records on its own and fsyncs every ``fsync_every`` of them, so the
    bytes on disk and, when ``fsync_every`` is a multiple of the slice,
    the fsync positions are those of one unsliced batch.  Durability is
    unchanged: buffered records were never crash-safe before the fsync
    anyway, recovery tolerates the torn tail by construction (snapshot +
    deterministic replay), and each snapshot flushes the journal.  The
    coarse default fsync cadence reflects that — frequent fsyncs buy
    nothing but hot-path latency.
    """

    def __init__(
        self,
        kernel: k.Kernel,
        bus: k.EventBus,
        path: str | os.PathLike,
        *,
        fsync_every: int = 8192,
        truncate_at: int | None = None,
    ) -> None:
        self._writer = JournalWriter(
            path, fsync_every=fsync_every, truncate_at=truncate_at
        )
        #: Captured-but-unrendered events, in emission order.  Timed-event
        #: pops are ``Event`` instances, bus records ``BusEvent`` ones —
        #: both frozen dataclasses, so holding references is safe.
        self._pending: list = []
        self._batch = min(fsync_every, RENDER_SLICE)
        kernel.pop_observers.append(self._on_pop)
        bus.subscribe_all(self._on_bus)

    @property
    def path(self) -> Path:
        return self._writer.path

    @property
    def offset(self) -> int:
        """Logical bytes journaled so far (buffered writes included).

        Drains the pending captures first so the answer is exact —
        snapshots store it as the resume truncation point.
        """
        self._drain()
        return self._writer.offset

    def _on_pop(self, event: Event) -> None:
        self._pending.append(event)
        if len(self._pending) >= self._batch:
            self._drain()

    def _on_bus(self, event: k.BusEvent) -> None:
        self._pending.append(event)
        if len(self._pending) >= self._batch:
            self._drain()

    def _drain(self) -> None:
        pending = self._pending
        if not pending:
            return
        self._pending = []
        self._writer.append_batch(
            _render_pop(ev) if type(ev) is Event else _render_bus(ev)
            for ev in pending
        )

    def flush(self) -> None:
        self._drain()
        self._writer.flush()

    def close(self) -> None:
        self._drain()
        self._writer.close()
