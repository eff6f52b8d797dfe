"""The mcTLS record protocol (§3.4).

An mcTLS record is a TLS record with a one-byte context ID in the header::

    type(1) || version(2) || context_id(1) || length(2) || fragment

Context 0 is the endpoint control context: after ChangeCipherSpec its
records (Finished, alerts) are protected with ``K_endpoints`` and a single
MAC, exactly like TLS.  Application contexts (1..255) use the
**endpoint-writer-reader** scheme: the fragment decrypts (under the
context's reader encryption key) to::

    payload || MAC_endpoints || MAC_writers || MAC_readers

Each MAC covers ``seq(8) || type(1) || version(2) || context_id(1) ||
payload_length(2) || payload`` under the corresponding key.  Sequence
numbers are global across contexts per direction, so record deletion by a
third party is detectable.

Verification rules (paper §3.4):

* an **endpoint** checks ``MAC_writers`` (raising on illegal
  modification) and compares ``MAC_endpoints`` to learn whether a *legal*
  modification occurred;
* a **writer** checks ``MAC_writers``;
* a **reader** checks ``MAC_readers`` (it cannot police other readers —
  the documented limitation; see :mod:`repro.mctls.strict_readers` for
  the paper's optional fixes).

Data-plane fast path
--------------------

Per (context, direction) the layer builds its protection state **once**
— one keyed cipher plus one precomputed HMAC context per MAC slot
(the suite provider's cached HMAC contexts) — instead of
re-keying per record.  Endpoints and middleboxes split their input with
the one shared splitter, :meth:`repro.recbuf.RecordBuffer.take_records`,
which snapshots each burst once; fragments are ``memoryview``s into that
immutable snapshot.  Wire bytes are pinned bit-for-bit by the
golden-vector tests.
"""

from __future__ import annotations

import hmac as _hmac
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional

try:  # uniform-grid burst opening; the per-record path needs nothing
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the image
    _np = None

from repro import framing as frm
from repro.crypto.fastcipher import xor_bytes
from repro.crypto.hmaccache import hmac_sha256
from repro.crypto.opcount import current_counter
from repro.framing import MCTLS_DEFAULT, RecordFraming
from repro.mctls import keys as mk
from repro.mctls.contexts import ENDPOINT_CONTEXT_ID, FieldSchema, Permission
from repro.recbuf import RecordBuffer
from repro.tls.ciphersuites import (
    CipherError,
    CipherSuite,
    decrypt_burst,
    stream_encrypt_batch,
)
from repro.tls.record import (
    ALERT,
    APPLICATION_DATA,
    CHANGE_CIPHER_SPEC,
    CONTENT_TYPES,
    HANDSHAKE,
    MAX_PLAINTEXT,
    TLS_VERSION,
)

# The default mcTLS wire geometry lives in repro.framing; these module
# constants are aliases kept for the (large) existing import surface.
MCTLS_HEADER_LEN = MCTLS_DEFAULT.header_len
MCTLS_VERSION = frm.MCTLS_VERSION
MAC_LEN = MCTLS_DEFAULT.mac_len
MAX_FRAGMENT = frm.MAX_FRAGMENT

# type(1) || version(2) || context_id(1) || length(2)
_WIRE_HEADER = MCTLS_DEFAULT.header
# seq(8) || type(1) || version(2) || context_id(1) || payload_length(2)
_MAC_PREFIX = MCTLS_DEFAULT.mac_prefix_struct

_compare_digest = _hmac.compare_digest

# Sentinel distinguishing "state not built yet" from the cached None that
# means "this context can never be opened" in the per-record hot loop.
_MISSING_STATE = object()


class McTLSRecordError(Exception):
    """Raised on malformed records or failed MAC verification.

    ``where`` reports which kind of party rejected the record
    (``"endpoint"`` / ``"middlebox"``) once known; framing errors leave
    it ``None`` and the catching layer fills it in.  The fault-injection
    harness (:mod:`repro.faults`) uses this to attribute every detection
    to the right party.
    """

    where: Optional[str] = None
    mac: Optional[str] = None
    context_id: Optional[int] = None
    seq: Optional[int] = None


# The three MAC slots of the endpoint-writer-reader scheme (§3.4).
MAC_ENDPOINTS = "endpoints"
MAC_WRITERS = "writers"
MAC_READERS = "readers"


class MacVerificationError(McTLSRecordError):
    """A record MAC check failed — the §3.4 detection outcome.

    Carries *which* MAC caught the tampering (``MAC_ENDPOINTS`` /
    ``MAC_WRITERS`` / ``MAC_READERS``) and *where* (``"endpoint"`` or
    ``"middlebox"``), so tests can assert not just that tampering was
    detected but that the paper's Table 1 attributes the detection to the
    right key.
    """

    def __init__(
        self,
        message: str,
        *,
        mac: str,
        where: str,
        context_id: Optional[int] = None,
        seq: Optional[int] = None,
    ):
        super().__init__(message)
        self.mac = mac
        self.where = where
        self.context_id = context_id
        self.seq = seq


def mac_input(seq: int, content_type: int, context_id: int, payload: bytes) -> bytes:
    """The bytes every mcTLS record MAC covers."""
    return (
        _MAC_PREFIX.pack(seq, content_type, MCTLS_VERSION, context_id, len(payload))
        + payload
    )


def encode_header(content_type: int, context_id: int, fragment_len: int) -> bytes:
    return _WIRE_HEADER.pack(content_type, MCTLS_VERSION, context_id, fragment_len)


@dataclass(slots=True)
class UnprotectedRecord:
    """A record opened by an endpoint record layer."""

    content_type: int
    context_id: int
    payload: bytes
    legally_modified: bool = False


def _hmac_sha256(key: bytes, data: bytes) -> bytes:
    # Kept as the module's (test- and fault-harness-visible) HMAC entry
    # point; the key schedule is cached per key in repro.crypto.hmaccache.
    return hmac_sha256(key, data)


class McTLSRecordLayer:
    """Record framing + protection for an mcTLS *endpoint*.

    Unprotected until :meth:`activate_write` / :meth:`activate_read` are
    called at the ChangeCipherSpec boundary.  The write direction for a
    client is ``c2s``; for a server ``s2c``.
    """

    def __init__(self, is_client: bool):
        self.is_client = is_client
        self.suite: Optional[CipherSuite] = None
        self.endpoint_keys: Optional[mk.EndpointKeys] = None
        self.context_keys: Dict[int, mk.ContextKeys] = {}
        self._write_protected = False
        self._read_protected = False
        self._write_seq = 0
        self._read_seq = 0
        self._inbuf = RecordBuffer()
        # Lazily-built per-direction protection state: context_id ->
        # (cipher, endpoint_mac_ctx, writer_mac_ctx, reader_mac_ctx) and
        # (cipher, mac_ctx) for the endpoint control context.  Built once
        # per key install, reused for every record.
        self._write_ctx_state: Dict[int, tuple] = {}
        self._read_ctx_state: Dict[int, tuple] = {}
        self._write_ep_state: Optional[tuple] = None
        self._read_ep_state: Optional[tuple] = None
        # Negotiated wire framing (applies to protected records only; the
        # handshake and ChangeCipherSpec always use the default framing)
        # plus per-context field schemas and field MAC keys/contexts.
        self._framing: RecordFraming = MCTLS_DEFAULT
        self._field_schemas: Dict[int, FieldSchema] = {}
        self._field_keys: Dict[int, tuple] = {}
        self._field_write_ctx: Dict[int, tuple] = {}
        self._field_read_ctx: Dict[int, tuple] = {}

    # -- direction helpers ----------------------------------------------

    @property
    def _write_dir(self) -> str:
        return mk.C2S if self.is_client else mk.S2C

    @property
    def _read_dir(self) -> str:
        return mk.S2C if self.is_client else mk.C2S

    # -- activation -------------------------------------------------------

    def set_suite(self, suite: CipherSuite) -> None:
        self.suite = suite
        self._drop_cached_state()

    def set_endpoint_keys(self, keys: mk.EndpointKeys) -> None:
        self.endpoint_keys = keys
        # The endpoint MAC key feeds the MAC_endpoints slot of *every*
        # context, so all cached state is stale, not just context 0.
        self._drop_cached_state()

    def install_context_keys(self, context_id: int, keys: mk.ContextKeys) -> None:
        self.context_keys[context_id] = keys
        self._write_ctx_state.pop(context_id, None)
        self._read_ctx_state.pop(context_id, None)

    def _drop_cached_state(self) -> None:
        self._write_ctx_state.clear()
        self._read_ctx_state.clear()
        self._write_ep_state = None
        self._read_ep_state = None
        self._field_write_ctx.clear()
        self._field_read_ctx.clear()

    # -- framing ----------------------------------------------------------

    @property
    def framing(self) -> RecordFraming:
        return self._framing

    def set_framing(
        self,
        framing: RecordFraming,
        schemas=(),
        field_keys: Optional[Dict[int, tuple]] = None,
    ) -> None:
        """Adopt a negotiated wire framing.

        Takes effect for protected records only: everything before the
        ChangeCipherSpec boundary — and the ChangeCipherSpec itself —
        stays default-framed, exactly like cipher activation.
        ``schemas`` are the session's :class:`FieldSchema` declarations;
        ``field_keys`` maps context id → tuple of
        :class:`~repro.mctls.keys.FieldKeys` in schema field order (an
        endpoint holds every field key).
        """
        self._framing = framing
        self._field_schemas = {s.context_id: s for s in schemas}
        self._field_keys = dict(field_keys or {})
        self._field_write_ctx.clear()
        self._field_read_ctx.clear()

    def activate_write(self) -> None:
        if self.endpoint_keys is None or self.suite is None:
            raise McTLSRecordError("cannot activate protection before keys exist")
        self._write_protected = True
        self._write_seq = 0

    def activate_read(self) -> None:
        if self.endpoint_keys is None or self.suite is None:
            raise McTLSRecordError("cannot activate protection before keys exist")
        self._read_protected = True
        self._read_seq = 0

    # -- cached protection state ------------------------------------------

    def _endpoint_state(self, write: bool) -> tuple:
        state = self._write_ep_state if write else self._read_ep_state
        if state is None:
            direction = self._write_dir if write else self._read_dir
            keys = self.endpoint_keys.for_direction(direction)
            state = (self.suite.new_cipher(keys.enc), self.suite.mac_context(keys.mac))
            if write:
                self._write_ep_state = state
            else:
                self._read_ep_state = state
        return state

    def _context_state(self, context_id: int, write: bool) -> tuple:
        cache = self._write_ctx_state if write else self._read_ctx_state
        state = cache.get(context_id)
        if state is None:
            try:
                keys = self.context_keys[context_id]
            except KeyError:
                raise McTLSRecordError(f"no keys for context {context_id}") from None
            direction = self._write_dir if write else self._read_dir
            reader_keys = keys.readers.for_direction(direction)
            state = cache[context_id] = (
                self.suite.new_cipher(reader_keys.enc),
                self.suite.mac_context(
                    self.endpoint_keys.for_direction(direction).mac
                ),
                self.suite.mac_context(keys.writers.mac_for_direction(direction)),
                self.suite.mac_context(reader_keys.mac),
            )
        return state

    # -- encoding ---------------------------------------------------------

    def encode(self, content_type: int, payload: bytes, context_id: int = 0) -> bytes:
        """Frame (and fragment / protect) an outgoing payload."""
        if len(payload) <= MAX_PLAINTEXT:
            return self._encode_one(content_type, context_id, payload)
        view = memoryview(payload)
        out = bytearray()
        for offset in range(0, len(payload), MAX_PLAINTEXT):
            out += self._encode_one(
                content_type, context_id, view[offset : offset + MAX_PLAINTEXT]
            )
        return bytes(out)

    def _encode_one(self, content_type: int, context_id: int, payload) -> bytes:
        if content_type == CHANGE_CIPHER_SPEC or not self._write_protected:
            fragment = payload if type(payload) is bytes else bytes(payload)
            fr = MCTLS_DEFAULT
        elif context_id == ENDPOINT_CONTEXT_ID:
            fr = self._framing
            fragment = self._protect_endpoint(fr, content_type, payload)
        else:
            fr = self._framing
            fragment = self._protect_context(fr, content_type, context_id, payload)
        return fr.pack_header(content_type, context_id, len(fragment)) + fragment

    def _protect_endpoint(self, fr: RecordFraming, content_type: int, payload) -> bytes:
        cipher, mac_ctx = self._endpoint_state(write=True)
        seq = self._write_seq
        self._write_seq = seq + 1
        prefix = fr.pack_mac_prefix(seq, content_type, ENDPOINT_CONTEXT_ID, len(payload))
        mac = mac_ctx.digest(prefix, payload)[: fr.mac_len]
        return cipher.encrypt(b"".join((payload, mac)))

    def _protect_context(
        self, fr: RecordFraming, content_type: int, context_id: int, payload
    ) -> bytes:
        cipher, _, _, _ = self._context_state(context_id, write=True)
        seq = self._write_seq
        self._write_seq = seq + 1
        return cipher.encrypt(
            self._context_plaintext(fr, seq, content_type, context_id, payload)
        )

    def _context_plaintext(
        self, fr: RecordFraming, seq: int, content_type: int, context_id: int, payload
    ) -> bytes:
        """``payload || MAC trailer`` for an application-context record."""
        _, ep_mac, wr_mac, rd_mac = self._context_state(context_id, write=True)
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, len(payload))
        m = fr.mac_len
        parts = [
            payload,
            ep_mac.digest(prefix, payload)[:m],
            wr_mac.digest(prefix, payload)[:m],
            rd_mac.digest(prefix, payload)[:m],
        ]
        if fr.field_macs:
            schema = self._field_schemas.get(context_id)
            if schema is not None:
                ctxs = self._field_mac_contexts(context_id, write=True)
                parts.extend(
                    ctx.digest(prefix + bytes((index,)), field_def.slice(payload))[:m]
                    for index, (field_def, ctx) in enumerate(zip(schema.fields, ctxs))
                )
        return b"".join(parts)

    def _field_mac_contexts(self, context_id: int, write: bool) -> tuple:
        """Cached per-field MAC contexts for one direction of a context."""
        cache = self._field_write_ctx if write else self._field_read_ctx
        ctxs = cache.get(context_id)
        if ctxs is None:
            keys = self._field_keys.get(context_id)
            if not keys:
                raise McTLSRecordError(f"no field keys for context {context_id}")
            direction = self._write_dir if write else self._read_dir
            ctxs = cache[context_id] = tuple(
                self.suite.mac_context(fk.mac_for_direction(direction)) for fk in keys
            )
        return ctxs

    # -- decoding ---------------------------------------------------------

    def feed(self, data: bytes) -> None:
        self._inbuf.append(data)

    def read_record(self) -> Optional[UnprotectedRecord]:
        """The next record, or None if none is complete."""
        records, failure, _ = self._open(1)
        if records:
            return records[0]
        if failure is not None:
            raise failure
        return None

    def read_all(self) -> Iterator[UnprotectedRecord]:
        """Yield buffered records one splitter call at a time."""
        while True:
            record = self.read_record()
            if record is None:
                return
            yield record

    def read_burst(self) -> Iterator[UnprotectedRecord]:
        """Yield every complete buffered record, batching decryption.

        Records come out in order, and any failure raises at its record's
        position after the records before it were yielded — exactly what
        :meth:`read_all` produces.  Each splitter burst ends after a
        control record, so a ChangeCipherSpec the consumer handles
        between yields (activating read protection, resetting the read
        sequence, switching to the negotiated framing) applies to every
        record behind it.
        """
        more = True
        while more:
            records, failure, more = self._open(None)
            yield from records
            if failure is not None:
                raise failure

    def _open(self, limit: Optional[int]):
        """Open one splitter burst of at most ``limit`` records.

        Returns ``(records, failure, more)``: the records before the
        first failure, that failure (for the caller to raise after
        handing on the records) and whether more records may follow —
        true when the burst ended at a control record.
        """
        protected = self._read_protected
        fr = self._framing if protected else MCTLS_DEFAULT
        burst, entries, error = self._inbuf.take_records(fr, limit)
        header_len = fr.header_len
        # A record whose context has no keys cuts the burst and fails at
        # its position.
        items = []
        failure = None
        for content_type, context_id, start, end in entries:
            cipher = None
            if protected and content_type != CHANGE_CIPHER_SPEC:
                try:
                    cipher = self._read_cipher(context_id)
                except McTLSRecordError as exc:
                    failure = exc
                    break
            items.append((cipher, burst[start + header_len : end]))
        plaintexts, cause = decrypt_burst(items)
        if cause is not None:
            failure = McTLSRecordError(f"decryption failed: {cause}")
            failure.__cause__ = cause
        elif failure is None and error is not None:
            failure = McTLSRecordError(str(error))
        records = []
        for (content_type, context_id, _, _), (cipher, _), plaintext in zip(
            entries, items, plaintexts
        ):
            try:
                if cipher is None:
                    record = UnprotectedRecord(content_type, context_id, plaintext)
                elif context_id == ENDPOINT_CONTEXT_ID:
                    record = self._finish_endpoint(content_type, plaintext)
                else:
                    record = self._finish_context(content_type, context_id, plaintext)
            except McTLSRecordError as exc:
                return records, exc, False
            records.append(record)
        more = failure is None and bool(entries) and entries[-1][0] != APPLICATION_DATA
        return records, failure, more

    def _read_cipher(self, context_id: int):
        if context_id == ENDPOINT_CONTEXT_ID:
            return self._endpoint_state(write=False)[0]
        return self._context_state(context_id, write=False)[0]

    def _finish_endpoint(self, content_type: int, plaintext: bytes) -> UnprotectedRecord:
        """Verify a decrypted endpoint-context record."""
        fr = self._framing
        m = fr.mac_len
        _, mac_ctx = self._endpoint_state(write=False)
        if len(plaintext) < m:
            raise McTLSRecordError("record shorter than its MAC")
        payload, mac = plaintext[:-m], plaintext[-m:]
        seq = self._next_read_seq()
        prefix = fr.pack_mac_prefix(
            seq, content_type, ENDPOINT_CONTEXT_ID, len(payload)
        )
        if not _compare_digest(mac, mac_ctx.digest(prefix, payload)[:m]):
            raise MacVerificationError(
                "endpoint MAC verification failed",
                mac=MAC_ENDPOINTS,
                where="endpoint",
                context_id=ENDPOINT_CONTEXT_ID,
                seq=seq,
            )
        return UnprotectedRecord(content_type, ENDPOINT_CONTEXT_ID, payload)

    def _finish_context(
        self, content_type: int, context_id: int, plaintext: bytes
    ) -> UnprotectedRecord:
        """Verify a decrypted application-context record."""
        fr = self._framing
        m = fr.mac_len
        _, ep_mac, wr_mac, _rd_mac = self._context_state(context_id, write=False)
        schema = self._field_schemas.get(context_id) if fr.field_macs else None
        n_fields = len(schema.fields) if schema is not None else 0
        trailer = (3 + n_fields) * m
        if len(plaintext) < trailer:
            raise McTLSRecordError("record shorter than its three MACs")
        base = len(plaintext) - trailer
        payload = plaintext[:base]
        endpoint_mac = plaintext[base : base + m]
        writer_mac = plaintext[base + m : base + 2 * m]
        seq = self._next_read_seq()
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, len(payload))
        if not _compare_digest(writer_mac, wr_mac.digest(prefix, payload)[:m]):
            raise MacVerificationError(
                f"writer MAC verification failed on context {context_id} "
                "(illegal modification)",
                mac=MAC_WRITERS,
                where="endpoint",
                context_id=context_id,
                seq=seq,
            )
        if n_fields:
            # Per-field sub-contexts: each field MAC must verify under its
            # own key.  A record-level writer that modified a field it was
            # not granted passes the writer MAC (it holds K_writers) but
            # cannot refresh that field's MAC — detected and attributed
            # here, to the field.
            ctxs = self._field_mac_contexts(context_id, write=False)
            for index, (field_def, fctx) in enumerate(zip(schema.fields, ctxs)):
                offset = base + (3 + index) * m
                field_mac = plaintext[offset : offset + m]
                expected = fctx.digest(
                    prefix + bytes((index,)), field_def.slice(payload)
                )[:m]
                if not _compare_digest(field_mac, expected):
                    raise MacVerificationError(
                        f"field MAC verification failed on field "
                        f"{field_def.name!r} of context {context_id} "
                        "(unauthorized field modification)",
                        mac=f"field:{field_def.name}",
                        where="endpoint",
                        context_id=context_id,
                        seq=seq,
                    )
        legally_modified = not _compare_digest(
            endpoint_mac, ep_mac.digest(prefix, payload)[:m]
        )
        return UnprotectedRecord(
            content_type, context_id, payload, legally_modified=legally_modified
        )

    def _next_read_seq(self) -> int:
        seq = self._read_seq
        self._read_seq += 1
        return seq


# -- middlebox-side record processing --------------------------------------


class OpenedRecord(NamedTuple):
    """A record opened (or passed through) by a middlebox.

    A ``NamedTuple`` rather than a dataclass: one of these is built per
    record on the middlebox data plane, and the C-level tuple
    constructor keeps that allocation off the per-record floor.
    """

    content_type: int
    context_id: int
    payload: Optional[bytes]  # None when the middlebox cannot read it
    permission: Permission
    endpoint_mac: bytes = b""  # carried through writer rebuilds
    writer_mac: bytes = b""
    reader_mac: bytes = b""
    seq: int = 0
    field_macs: tuple = ()  # per-field MACs (compact framing), schema order


class MiddleboxRecordProcessor:
    """Per-context record access for a middlebox.

    The middlebox holds keys only for contexts it can read; for writable
    contexts it can rebuild records (recomputing writer+reader MACs and
    forwarding the original endpoint MAC, §3.4 "Generating MACs").

    One processor instance handles one *direction* of the session; the
    middlebox keeps two (client→server and server→client).
    """

    def __init__(self, suite: CipherSuite, direction: str):
        self.suite = suite
        self.direction = direction
        self.permissions: Dict[int, Permission] = {}
        self.context_keys: Dict[int, mk.ContextKeys] = {}
        self.seq = 0
        self.active = False
        # context_id -> (cipher, writer_mac_ctx, reader_mac_ctx,
        # can_write, permission), built lazily once per installed key set
        # and reused per record; None caches "cannot open" (no
        # permission / no keys / endpoint context) so the per-record cost
        # of a pass-through context is a single dict lookup.
        self._open_state: Dict[int, Optional[tuple]] = {}
        # Negotiated wire framing for this (always post-CCS) direction,
        # field schemas, and MAC contexts for the granted fields only.
        self.framing: RecordFraming = MCTLS_DEFAULT
        self._field_schemas: Dict[int, FieldSchema] = {}
        self._field_keys: Dict[int, Dict[int, mk.FieldKeys]] = {}
        self._field_ctx: Dict[int, Dict[int, object]] = {}

    def install(self, context_id: int, permission: Permission, keys: Optional[mk.ContextKeys]) -> None:
        self.permissions[context_id] = permission
        if keys is not None:
            self.context_keys[context_id] = keys
        self._open_state.pop(context_id, None)

    def set_framing(self, framing: RecordFraming, schemas=()) -> None:
        """Adopt the session's negotiated framing and field schemas."""
        self.framing = framing
        self._field_schemas = {s.context_id: s for s in schemas}
        self._field_ctx.clear()

    def install_field_keys(self, context_id: int, keys: Dict[int, mk.FieldKeys]) -> None:
        """Install MAC keys for the fields this middlebox was granted.

        ``keys`` maps field index → :class:`~repro.mctls.keys.FieldKeys`;
        a middlebox only ever receives keys for fields it may write, so
        holding a key *is* the write grant.
        """
        self._field_keys.setdefault(context_id, {}).update(keys)
        self._field_ctx.pop(context_id, None)

    def _field_mac_contexts(self, context_id: int) -> Dict[int, object]:
        ctxs = self._field_ctx.get(context_id)
        if ctxs is None:
            ctxs = self._field_ctx[context_id] = {
                index: self.suite.mac_context(fk.mac_for_direction(self.direction))
                for index, fk in self._field_keys.get(context_id, {}).items()
            }
        return ctxs

    def activate(self) -> None:
        """Start counting sequence numbers (at the CCS boundary)."""
        self.active = True
        self.seq = 0

    @property
    def opaque(self) -> bool:
        """True when this processor holds no context read keys at all.

        Every record then forwards verbatim — :meth:`open_burst` would
        yield ``None`` for each without touching a fragment — so callers
        may skip record extraction entirely and account for the burst
        with :meth:`skip_burst`.  Conservative: a processor with keys it
        is not permitted to use reports ``False`` and takes the general
        path.
        """
        return not self.context_keys

    def skip_burst(self, n: int) -> None:
        """Account for ``n`` records forwarded without opening.

        Equivalent to opening ``n`` pass-through records: sequence
        numbers are global per direction, so opaque records still
        consume them (deletion detection, §3.4).
        """
        if not self.active:
            raise McTLSRecordError("record processor not yet activated")
        self.seq += n

    def _build_open_state(self, context_id: int) -> Optional[tuple]:
        permission = self.permissions.get(context_id, Permission.NONE)
        if (
            context_id == ENDPOINT_CONTEXT_ID
            or not permission.can_read
            or context_id not in self.context_keys
        ):
            state = None
        else:
            keys = self.context_keys[context_id]
            reader_keys = keys.readers.for_direction(self.direction)
            state = (
                self.suite.new_cipher(reader_keys.enc),
                self.suite.mac_context(
                    keys.writers.mac_for_direction(self.direction)
                ),
                self.suite.mac_context(reader_keys.mac),
                permission.can_write,
                permission,
            )
        self._open_state[context_id] = state
        return state

    def open_record(self, content_type: int, context_id: int, fragment: bytes) -> OpenedRecord:
        """Open (or account for) one protected record flowing through.

        Every record consumes a sequence number whether or not the
        middlebox can read it — sequence numbers are global.
        """
        if not self.active:
            raise McTLSRecordError("record processor not yet activated")
        seq = self.seq
        self.seq += 1
        try:
            state = self._open_state[context_id]
        except KeyError:
            state = self._build_open_state(context_id)
        if state is None:
            return OpenedRecord(content_type, context_id, None, Permission.NONE, seq=seq)

        cipher = state[0]
        try:
            plaintext = cipher.decrypt(fragment)
        except CipherError as exc:
            raise McTLSRecordError(f"middlebox decryption failed: {exc}") from exc
        return self._finish_open(content_type, context_id, seq, state, plaintext)

    def open_burst(
        self, records
    ) -> Iterator[Optional[OpenedRecord]]:
        """Open a burst of protected records with one fused XOR pass.

        ``records`` is a sequence of ``(content_type, context_id,
        fragment)``.  Yields, in order, an :class:`OpenedRecord` per
        readable record and ``None`` per pass-through record (no
        allocation for contexts the middlebox cannot open — the caller
        already holds the raw bytes to forward).  A decryption or MAC
        failure raises at its record's position, only after the records
        before it were yielded and forwarded — the order a per-record
        ``open_record`` loop produces.
        """
        if not self.active:
            raise McTLSRecordError("record processor not yet activated")
        metas = []  # (content_type, context_id, seq, state)
        items = []  # (cipher, fragment) of the records this box can open
        open_state = self._open_state
        seq = self.seq
        for content_type, context_id, fragment in records:
            state = open_state.get(context_id, _MISSING_STATE)
            if state is _MISSING_STATE:
                state = self._build_open_state(context_id)
            metas.append((content_type, context_id, seq, state))
            seq += 1
            if state is not None:
                items.append((state[0], fragment))
        self.seq = seq
        plaintexts, cause = decrypt_burst(items, views=True)
        plaintexts = iter(plaintexts)
        for content_type, context_id, seq, state in metas:
            if state is None:
                yield None
                continue
            plaintext = next(plaintexts, None)
            if plaintext is None:
                message = f"middlebox decryption failed: {cause}"
                raise McTLSRecordError(message) from cause
            yield self._finish_open(content_type, context_id, seq, state, plaintext)

    def open_wire_burst(
        self, burst: bytes, entries
    ) -> Iterator[Optional[OpenedRecord]]:
        """Open a framed burst straight from its wire buffer.

        ``entries`` are ``(content_type, context_id, start, end)``
        record offsets into ``burst`` from
        :meth:`~repro.recbuf.RecordBuffer.take_records` —
        semantically identical to slicing out the fragments and calling
        :meth:`open_burst`.  A *uniform* burst (one record length, one
        content type, one context — the shape every bulk-transfer burst
        has) takes a grid path: nonces and bodies gather with two
        strided copies, the keystream generates in one packed call, and
        one XOR covers the whole burst, leaving per record only the MAC
        verification that defines the data-plane floor.  Yield order,
        MAC attribution, and failure position match :meth:`open_burst`
        exactly.
        """
        fr = self.framing
        hlen = fr.header_len
        m = fr.mac_len
        n = len(entries)
        if n == 0:
            return
        ct0, cid0, s0, e0 = entries[0]
        length = e0 - s0 - hlen
        if (
            _np is not None
            and n >= 4
            and length >= 16
            and entries[-1][3] - s0 == n * (e0 - s0)
            and self.active
            and self.suite.stream
        ):
            stride = e0 - s0
            arr = _np.frombuffer(
                burst, dtype=_np.uint8, count=n * stride, offset=s0
            ).reshape(n, stride)
            # One vectorized check proves the uniform grid really is the
            # framing: every grid-aligned header must repeat record 0's
            # type, context and length (version was already validated by
            # the splitter for each parsed record).
            offsets, expected = fr.grid_pattern(ct0, cid0, length)
            if bool((arr[:, list(offsets)] == expected).all()):
                state = self._open_state.get(cid0, _MISSING_STATE)
                if state is _MISSING_STATE:
                    state = self._build_open_state(cid0)
                seq = self.seq
                self.seq = seq + n
                if state is None:
                    for _ in range(n):
                        yield None
                    return
                counter = current_counter()
                if counter is not None:
                    counter.add("sym_decrypt", n)
                schema = self._field_schemas.get(cid0) if fr.field_macs else None
                n_fields = len(schema.fields) if schema is not None else 0
                trailer = (3 + n_fields) * m
                body_size = length - 16
                if body_size < trailer:
                    # Shorter than the MAC trailer: the generic loop
                    # raises per record with the exact sequential error.
                    finish = self._finish_open
                    for i in range(n):
                        yield finish(ct0, cid0, seq + i, state, b"")
                    return
                nonces = arr[:, hlen : hlen + 16].tobytes()
                cipher = state[0]
                ks_arr = cipher.stream_grid_arr(nonces, n, body_size)
                if ks_arr is not None:
                    # Fused decrypt: XOR the keystream view straight
                    # against the strided wire bodies — no packed bodies
                    # buffer, no keystream bytes, one plaintext alloc.
                    plain = (arr[:, hlen + 16 :] ^ ks_arr).tobytes()
                else:
                    bodies = arr[:, hlen + 16 :].tobytes()
                    ks = cipher.stream_grid(nonces, n, body_size)
                    plain = xor_bytes(bodies, ks, n * body_size)
                # Inlined uniform-burst twin of :meth:`_finish_open`:
                # same MAC inputs, same error attribution (the fault
                # matrix pins burst == sequential attribution cell by
                # cell), with the record fields sliced straight out of
                # the burst plaintext.
                _, wr_mac, rd_mac, can_write, permission = state
                digest = wr_mac.digest2 if can_write else rd_mac.digest2
                payload_len = body_size - trailer
                # All n MAC prefixes in one vectorized build: only the
                # 8-byte sequence number varies record to record.
                pre = _np.empty((n, 14), dtype=_np.uint8)
                pre[:, :8] = (
                    _np.arange(seq, seq + n, dtype=_np.uint64)
                    .astype(">u8")
                    .view(_np.uint8)
                    .reshape(n, 8)
                )
                pre[:, 8:] = _np.frombuffer(
                    fr.pack_mac_prefix(0, ct0, cid0, payload_len)[8:],
                    dtype=_np.uint8,
                )
                prefixes = pre.tobytes()
                off = 0
                poff = 0
                for i in range(n):
                    end = off + body_size
                    base = off + payload_len
                    payload = plain[off:base]
                    prefix = prefixes[poff : poff + 14]
                    poff += 14
                    endpoint_mac = plain[base : base + m]
                    writer_mac = plain[base + m : base + 2 * m]
                    reader_mac = plain[base + 2 * m : base + 3 * m]
                    if not _compare_digest(
                        writer_mac if can_write else reader_mac,
                        digest(prefix, payload)[:m],
                    ):
                        if can_write:
                            raise MacVerificationError(
                                "writer MAC verification failed at middlebox "
                                "(illegal modification)",
                                mac=MAC_WRITERS,
                                where="middlebox",
                                context_id=cid0,
                                seq=seq + i,
                            )
                        raise MacVerificationError(
                            "reader MAC verification failed at middlebox "
                            "(third-party modification)",
                            mac=MAC_READERS,
                            where="middlebox",
                            context_id=cid0,
                            seq=seq + i,
                        )
                    field_macs = (
                        tuple(
                            plain[base + (3 + j) * m : base + (4 + j) * m]
                            for j in range(n_fields)
                        )
                        if n_fields
                        else ()
                    )
                    yield OpenedRecord(
                        ct0,
                        cid0,
                        payload,
                        permission,
                        endpoint_mac,
                        writer_mac,
                        reader_mac,
                        seq + i,
                        field_macs,
                    )
                    off = end
                return
        view = memoryview(burst)
        yield from self.open_burst(
            (ct, cid, view[s + hlen : e]) for ct, cid, s, e in entries
        )

    def _finish_open(
        self,
        content_type: int,
        context_id: int,
        seq: int,
        state: tuple,
        plaintext: bytes,
    ) -> OpenedRecord:
        """Verify a decrypted record (shared by :meth:`open_record` and
        :meth:`open_burst`, so MAC attribution can never drift)."""
        fr = self.framing
        m = fr.mac_len
        _, wr_mac, rd_mac, can_write, permission = state
        schema = self._field_schemas.get(context_id) if fr.field_macs else None
        n_fields = len(schema.fields) if schema is not None else 0
        trailer = (3 + n_fields) * m
        if len(plaintext) < trailer:
            raise McTLSRecordError("record shorter than its three MACs")
        # bytes() wraps so both bytes and memoryview plaintexts (the
        # batched decrypt hands out views of one shared buffer) produce
        # self-contained, concatenation-safe fields.
        base = len(plaintext) - trailer
        payload = bytes(plaintext[:base])
        endpoint_mac = bytes(plaintext[base : base + m])
        writer_mac = bytes(plaintext[base + m : base + 2 * m])
        reader_mac = bytes(plaintext[base + 2 * m : base + 3 * m])
        field_macs = tuple(
            bytes(plaintext[base + (3 + j) * m : base + (4 + j) * m])
            for j in range(n_fields)
        )
        prefix = fr.pack_mac_prefix(seq, content_type, context_id, len(payload))

        if can_write:
            if not _compare_digest(writer_mac, wr_mac.digest(prefix, payload)[:m]):
                raise MacVerificationError(
                    "writer MAC verification failed at middlebox (illegal modification)",
                    mac=MAC_WRITERS,
                    where="middlebox",
                    context_id=context_id,
                    seq=seq,
                )
        else:
            if not _compare_digest(reader_mac, rd_mac.digest(prefix, payload)[:m]):
                raise MacVerificationError(
                    "reader MAC verification failed at middlebox "
                    "(third-party modification)",
                    mac=MAC_READERS,
                    where="middlebox",
                    context_id=context_id,
                    seq=seq,
                )
        return OpenedRecord(
            content_type,
            context_id,
            payload,
            permission,
            endpoint_mac,
            writer_mac,
            reader_mac,
            seq,
            field_macs,
        )

    def rebuild_record(self, opened: OpenedRecord, new_payload: bytes) -> bytes:
        """Re-protect a (possibly modified) record for forwarding.

        Only legal for contexts this middlebox can write.  The original
        ``MAC_endpoints`` is forwarded untouched; writer and reader MACs
        are regenerated over the new payload.  Under a field-MAC framing,
        only fields this middlebox holds keys for are re-MACed — the
        other field MACs are forwarded as received, so a write outside
        the granted fields leaves a stale MAC the endpoint detects.
        """
        fr = self.framing
        m = fr.mac_len
        cipher, wr_mac, rd_mac = self._rebuild_state(opened.context_id)
        prefix = fr.pack_mac_prefix(
            opened.seq, opened.content_type, opened.context_id, len(new_payload)
        )
        writer_mac = wr_mac.digest(prefix, new_payload)[:m]
        reader_mac = rd_mac.digest(prefix, new_payload)[:m]
        parts = [
            new_payload,
            opened.endpoint_mac[:m],
            writer_mac,
            reader_mac,
        ]
        parts.extend(
            self._field_trailer(fr, prefix, opened.context_id, new_payload, opened)
        )
        fragment = cipher.encrypt(b"".join(parts))
        return (
            fr.pack_header(opened.content_type, opened.context_id, len(fragment))
            + fragment
        )

    def _field_trailer(
        self,
        fr: RecordFraming,
        prefix: bytes,
        context_id: int,
        payload: bytes,
        opened: OpenedRecord,
    ) -> List[bytes]:
        """Field-MAC trailer slots for a rebuilt record.

        Fields this middlebox holds keys for are recomputed over the new
        payload; the rest forward ``opened.field_macs`` untouched — if the
        rewrite changed those bytes, the stale MAC is exactly the signal
        the receiving endpoint uses to detect the unauthorized field
        write.
        """
        schema = self._field_schemas.get(context_id) if fr.field_macs else None
        if schema is None:
            return []
        m = fr.mac_len
        ctxs = self._field_mac_contexts(context_id)
        parts = []
        for index, field_def in enumerate(schema.fields):
            ctx = ctxs.get(index)
            if ctx is not None:
                parts.append(
                    ctx.digest(prefix + bytes((index,)), field_def.slice(payload))[:m]
                )
            elif index < len(opened.field_macs):
                parts.append(opened.field_macs[index])
            else:
                parts.append(b"\x00" * m)
        return parts

    def _rebuild_state(self, context_id: int) -> tuple:
        """(cipher, writer_mac_ctx, reader_mac_ctx) for re-protecting."""
        try:
            state = self._open_state[context_id]
        except KeyError:
            state = self._build_open_state(context_id)
        if state is None or not state[3]:
            if not self.permissions.get(context_id, Permission.NONE).can_write:
                raise McTLSRecordError(
                    f"middlebox lacks write permission on context {context_id}"
                )
            raise McTLSRecordError(
                f"middlebox holds no write keys for context {context_id}"
            )
        return state[0], state[1], state[2]

    def rebuild_burst(self, pairs) -> List[bytes]:
        """Re-protect a burst of ``(opened, new_payload)`` pairs.

        Byte-identical to per-pair :meth:`rebuild_record` (nonces draw in
        pair order); the SHA-CTR suite fuses the burst's re-encryption
        into one XOR pass.  This is the write half of "re-MAC a whole
        burst per wakeup": writer and reader MACs are regenerated per
        record, endpoint MACs forwarded untouched.
        """
        if not self.suite.stream:
            return [self.rebuild_record(o, p) for o, p in pairs]
        fr = self.framing
        m = fr.mac_len
        protect_items = []
        headers = []
        pack = fr.pack_mac_prefix
        state_cid = -1
        cipher = wr_mac = rd_mac = None
        for opened, new_payload in pairs:
            if opened.context_id != state_cid:
                state_cid = opened.context_id
                cipher, wr_mac, rd_mac = self._rebuild_state(state_cid)
            prefix = pack(
                opened.seq, opened.content_type, opened.context_id, len(new_payload)
            )
            writer_mac = wr_mac.digest2(prefix, new_payload)[:m]
            reader_mac = rd_mac.digest2(prefix, new_payload)[:m]
            parts = [
                new_payload,
                opened.endpoint_mac[:m],
                writer_mac,
                reader_mac,
            ]
            parts.extend(
                self._field_trailer(fr, prefix, state_cid, new_payload, opened)
            )
            protect_items.append((cipher, b"".join(parts)))
            headers.append((opened.content_type, opened.context_id))
        fragments = stream_encrypt_batch(protect_items)
        return [
            fr.pack_header(content_type, context_id, len(fragment)) + fragment
            for (content_type, context_id), fragment in zip(headers, fragments)
        ]
