"""Cursor-based receive buffer and the one record splitter.

Consuming a ``bytearray`` with ``del buf[:n]`` per record is cheap in
CPython (the ``ob_start`` offset optimisation), but it is still a
per-record call plus periodic internal copying; a cursor makes the
consume step two integer assignments and batches reclamation into one
deletion per :meth:`append` once the dead prefix crosses a threshold.

:meth:`RecordBuffer.take_records` is the only record-header parser
outside :mod:`repro.framing`: both endpoint record layers, the mcTLS
middlebox relay and :mod:`repro.trace` split their input through it.
It parses headers straight against ``data``/``pos`` — no peek copies —
and hands out an immutable snapshot of the records it consumed, so no
caller holds offsets into the mutable buffer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

try:  # vectorized uniform-stride scan; the scalar loop needs nothing
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the image
    _np = None

from repro.framing import APPLICATION_DATA, FramingError, RecordFraming

# (content_type, context_id, start, end) of one record inside a burst.
Entry = Tuple[int, int, int, int]

# Reclaim the consumed prefix once it exceeds this many bytes (or the
# buffer is fully drained, which makes the deletion free).
_COMPACT_BYTES = 1 << 16


class RecordBuffer:
    """Append-at-tail, consume-by-cursor byte buffer."""

    __slots__ = ("data", "pos")

    def __init__(self) -> None:
        self.data = bytearray()
        self.pos = 0

    def __len__(self) -> int:
        return len(self.data) - self.pos

    def __bool__(self) -> bool:
        return len(self.data) > self.pos

    def append(self, chunk) -> None:
        pos = self.pos
        if pos and (pos >= len(self.data) or pos > _COMPACT_BYTES):
            del self.data[:pos]
            self.pos = 0
        self.data += chunk

    def take(self, n: int) -> bytes:
        """Atomically copy out the next ``n`` bytes and consume them.

        A burst reader that parsed record boundaries against
        ``data``/``pos`` must not hold those offsets across a later
        :meth:`append`: reclamation there deletes the consumed prefix
        and shifts every offset, so stale offsets would silently re-read
        already-reclaimed bytes.  Copying the parsed span *and* advancing
        the cursor in one step makes that hazard unrepresentable — the
        returned ``bytes`` is immutable and self-contained, and the
        buffer is free to compact underneath it.
        """
        start = self.pos
        end = start + n
        self.pos = end
        # memoryview slice: one copy (bytearray slicing would copy twice).
        return bytes(memoryview(self.data)[start:end])

    def take_records(
        self, framing: RecordFraming, limit: Optional[int] = None
    ) -> Tuple[bytes, List[Entry], Optional[FramingError]]:
        """Split complete records off the buffer under ``framing``.

        Returns ``(burst, entries, error)``:

        * ``burst`` — a :meth:`take` of the parsed records, consumed
          from the buffer;
        * ``entries`` — ``(content_type, context_id, start, end)`` record
          offsets into ``burst``; the fragment starts
          ``framing.header_len`` bytes after ``start``;
        * ``error`` — a :class:`FramingError` for malformed bytes after
          the last good record, for the caller to raise once it has
          handled ``entries``.  The malformed bytes stay in the buffer.

        A burst ends after its first non-APPLICATION_DATA record: handling
        a control record is the only point where a consumer may switch
        framing, keys or sequence numbers, so the next call splits the
        records behind it under the state it leaves.  ``limit`` caps the
        record count (``1`` for record-at-a-time readers).
        """
        data = self.data
        start = pos = self.pos
        total = len(data)
        header_len = framing.header_len
        parse_header = framing.parse_header
        entries: List[Entry] = []
        error = None
        scan = limit is None and _np is not None
        while total - pos >= header_len and len(entries) != limit:
            try:
                content_type, context_id, length = parse_header(data, pos)
            except FramingError as exc:
                error = exc
                break
            if length > framing.max_fragment:
                error = FramingError("record fragment too long")
                break
            end = pos + header_len + length
            if end > total:
                break
            entries.append((content_type, context_id, pos - start, end - start))
            if content_type != APPLICATION_DATA:
                pos = end
                break
            if scan and len(entries) == 2:
                # Two same-shape records in a row predict a uniform run.
                scan = False
                if entries[0][3] - entries[0][2] == end - pos:
                    end = _vector_scan(framing, data, start, end, total, entries)
            pos = end
        return self.take(pos - start), entries, error

    def clear(self) -> None:
        self.data.clear()
        self.pos = 0


def _vector_scan(
    framing: RecordFraming, data, start: int, pos: int, total: int, entries: List[Entry]
) -> int:
    """Uniform-stride header scan for :meth:`RecordBuffer.take_records`.

    Bulk-transfer bursts are runs of same-size APPLICATION_DATA records,
    so once the scalar loop has parsed two records of one shape, the last
    one's header predicts every later header's fixed bytes (type,
    version, length) at a constant stride.  One strided numpy comparison
    validates the records from ``pos`` on at once; the first mismatching
    (or trailing partial) record hands control back to the scalar loop,
    which re-parses it with full error handling.  Appends the accepted
    entries (offsets relative to ``start``) and returns the position to
    resume from.
    """
    content_type, _, first, last = entries[-1]
    stride = last - first
    count = (total - pos) // stride
    if count < 2:
        return pos
    arr = _np.frombuffer(data, _np.uint8, count * stride, pos)
    offsets, values = framing.scan_pattern(content_type, stride - framing.header_len)
    ok = arr[offsets[0] :: stride] == values[0]
    for offset, value in zip(offsets[1:], values[1:]):
        ok &= arr[offset::stride] == value
    good = count if bool(ok.all()) else int(_np.argmin(ok))
    cid_offset = framing.context_id_offset
    if cid_offset is None:
        context_ids = [0] * good
    else:
        context_ids = arr[cid_offset::stride][:good].tolist()
    base = pos - start
    entries.extend(
        (content_type, cid, off, off + stride)
        for cid, off in zip(context_ids, range(base, base + good * stride, stride))
    )
    return pos + good * stride
