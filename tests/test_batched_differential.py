"""Seeded differential suite: one record path, whatever the input shape.

Every role has one data path — the endpoint readers (``read_burst``, and
``read_record`` / ``read_all``, the same reader capped at one record),
the middlebox relay drain and the per-record writers — all splitting
input with :meth:`repro.recbuf.RecordBuffer.take_records`.  How the
bytes arrive must not matter, so this suite feeds the same seeded
stream in several **feed shapes** — whole, one record per ``feed`` and
cut at, around and between record boundaries — and requires identical
records or events, identical output bytes and, when a record mid-stream
is tampered, the same failing record, MAC slot and detecting party:

* **endpoint layers** — TLS, and mcTLS under the default and the
  compact framing, including a ChangeCipherSpec followed by records in
  the negotiated framing;
* **the middlebox relay** — :class:`~repro.mctls.middlebox.McTLSMiddlebox`
  for NONE / READ / WRITE permissions under both mcTLS framings, again
  across the ChangeCipherSpec boundary;
* **golden vectors** — ``tests/golden/batched_vectors.json`` pins
  multi-record wires built from joined per-record ``encode`` /
  ``rebuild_record`` calls, which must equal the concatenation of the
  per-record wires frozen in ``record_vectors.json``;
* **full-stack event streams** — on every protocol stack, a burst
  pumped through a live client → relay → server chain in one flight
  must deliver the same application byte stream as the same payloads
  sent record by record, and draining the client via
  ``data_to_send_views()`` must be equivalent to the joined drain.

Plus the satellite checks: the bounded keystream pool's hit/miss/evict
accounting (and its ``Instruments`` publication), and the
``RecordBuffer.take`` reclamation-hazard regression.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from repro.core.events import ContextData
from repro.core.instrument import Instruments
from repro.crypto.dh import GROUP_TEST_512
from repro.crypto.fastcipher import KEYSTREAM_POOL, KeystreamPool, ShaCtrCipher
from repro.experiments.harness import Mode, TestBed
from repro.framing import MCTLS_COMPACT, MCTLS_DEFAULT
from repro.mctls import keys as mk
from repro.mctls.contexts import ENDPOINT_CONTEXT_ID, Permission
from repro.mctls.record import (
    McTLSRecordError,
    McTLSRecordLayer,
    MiddleboxRecordProcessor,
    UnprotectedRecord,
)
from repro.recbuf import RecordBuffer
from repro.tls.connection import TLSError
from repro.tls.record import (
    APPLICATION_DATA,
    CHANGE_CIPHER_SPEC,
    HANDSHAKE,
    MAX_PLAINTEXT,
    RecordError,
    RecordLayer,
)
from repro.transport import Chain

from tests.golden.gen_batched_vectors import (
    BATCHED_VECTORS_PATH,
    REBUILD_CASES,
    _write_processor,
    build_batched_vectors,
)
from tests.golden.gen_compact_vectors import SCHEMA as COMPACT_SCHEMA
from tests.golden.gen_record_vectors import (
    PAYLOADS,
    RC,
    RS,
    SECRET,
    SUITES,
    VECTORS_PATH,
    _mctls_layer,
    _patched_nonces,
)
from tests.mctls_helpers import split_burst

SEED = 0xD1FF
FROZEN = json.loads(VECTORS_PATH.read_text())
FROZEN_BATCHED = json.loads(BATCHED_VECTORS_PATH.read_text())

SUITE_NAMES = sorted(SUITES)

# The live (non-golden) differentials also run under the OpenSSL
# provider suites when available — feed-shape independence must hold
# for every provider, not just the pure one.
from repro.crypto.provider import OPENSSL  # noqa: E402

ALL_SUITES = dict(SUITES)
if OPENSSL.available:
    from tests.golden.gen_provider_vectors import PROVIDER_SUITES

    ALL_SUITES.update(PROVIDER_SUITES)
ALL_SUITE_NAMES = sorted(ALL_SUITES)

PERMISSIONS = pytest.mark.parametrize(
    "permission",
    [Permission.NONE, Permission.READ, Permission.WRITE],
    ids=lambda p: p.name.lower(),
)


def _rng(name: str) -> random.Random:
    return random.Random(f"{SEED}:{name}")


def _random_payloads(rng: random.Random, count: int = 12, max_len: int = 600):
    """A seeded mix of sizes: empty, tiny, block-aligned, big."""
    payloads = [b"", b"x", bytes(32), bytes(range(256))]
    while len(payloads) < count:
        payloads.append(bytes(rng.getrandbits(8) for _ in range(rng.randrange(max_len))))
    rng.shuffle(payloads)
    return payloads


def _tls_writer(suite) -> RecordLayer:
    layer = RecordLayer()
    layer.write_state.activate(
        suite, suite.new_cipher(bytes(range(suite.key_length))), bytes(range(32))
    )
    return layer


def _tls_reader(suite) -> RecordLayer:
    layer = RecordLayer()
    layer.read_state.activate(
        suite, suite.new_cipher(bytes(range(suite.key_length))), bytes(range(32))
    )
    return layer


def _two_context_layer(
    suite, is_client: bool, framing=MCTLS_DEFAULT, active: bool = True
) -> McTLSRecordLayer:
    """Like the golden generator's layer, plus a second app context so
    streams can interleave records from different contexts; under the
    compact framing it also carries the golden field schema."""
    layer = McTLSRecordLayer(is_client=is_client)
    layer.set_suite(suite)
    layer.set_endpoint_keys(mk.derive_endpoint_keys(SECRET, RC, RS))
    layer.install_context_keys(1, mk.ckd_context_keys(SECRET, RC, RS, 1))
    layer.install_context_keys(2, mk.ckd_context_keys(SECRET, RC, RS, 2))
    if framing is MCTLS_COMPACT:
        field_keys = mk.derive_field_keys(SECRET, RC, RS, COMPACT_SCHEMA)
        layer.set_framing(MCTLS_COMPACT, (COMPACT_SCHEMA,), {1: field_keys})
    if active:
        layer.activate_write()
        layer.activate_read()
    return layer


def _mixed_mctls_items(rng: random.Random):
    """(content_type, payload, context_id) triples interleaving two app
    contexts with a control record mid-stream (which ends a splitter
    burst — state may change while the consumer handles it)."""
    items = [
        (APPLICATION_DATA, payload, rng.choice((1, 2)))
        for payload in _random_payloads(rng)
    ]
    items.insert(len(items) // 2, (HANDSHAKE, b"mid-burst control", ENDPOINT_CONTEXT_ID))
    return items


def _mctls_wires(suite, items, framing=MCTLS_DEFAULT):
    """Per-record wires of a client's ChangeCipherSpec, its protected
    Finished-like record and then ``items`` — the writer switches to
    protection (and the negotiated framing) after the CCS, as a session
    does."""
    with _patched_nonces():
        writer = _two_context_layer(suite, True, framing, active=False)
        wires = [writer.encode(CHANGE_CIPHER_SPEC, b"\x01")]
        writer.activate_write()
        wires.append(writer.encode(HANDSHAKE, b"finished-ish", ENDPOINT_CONTEXT_ID))
        wires += [writer.encode(ct, payload, cid) for ct, payload, cid in items]
    return wires


def _app_wires(suite, payloads, framing=MCTLS_DEFAULT):
    """Protected context-1 APPLICATION_DATA wires from an active writer."""
    with _patched_nonces():
        writer = _two_context_layer(suite, True, framing)
        return [writer.encode(APPLICATION_DATA, payload, 1) for payload in payloads]


# -- batched golden vectors ---------------------------------------------------


def test_batched_generator_reproduces_frozen_vectors():
    """Joined per-record writes must reproduce the frozen JSON exactly."""
    assert build_batched_vectors() == FROZEN_BATCHED


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
def test_frozen_batched_bursts_equal_joined_sequential_wires(suite_name):
    """Cross-file identity: each frozen burst == the concatenation of
    the per-record wires frozen in ``record_vectors.json``."""
    batched = FROZEN_BATCHED["suites"][suite_name]
    sequential = FROZEN["suites"][suite_name]
    assert batched["tls_burst"] == "".join(
        vector["wire"] for vector in sequential["tls"]["records"]
    )
    for direction in ("c2s", "s2c"):
        assert batched[f"mctls_{direction}_burst"] == "".join(
            vector["wire"]
            for vector in sequential[f"mctls_{direction}"]["records"]
        )


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
def test_frozen_batched_bursts_decode(suite_name):
    """The frozen bursts decode on fresh receive-side layers."""
    suite = ALL_SUITES[suite_name]
    group = FROZEN_BATCHED["suites"][suite_name]

    reader = _tls_reader(suite)
    reader.feed(bytes.fromhex(group["tls_burst"]))
    decoded = list(reader.read_burst())
    assert [payload for _, payload in decoded] == PAYLOADS

    server = _mctls_layer(suite, is_client=False)
    server.feed(bytes.fromhex(group["mctls_c2s_burst"]))
    records = list(server.read_burst())
    assert [r.payload for r in records[:-1]] == PAYLOADS
    assert records[-1].content_type == HANDSHAKE
    assert records[-1].context_id == ENDPOINT_CONTEXT_ID


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
def test_frozen_rebuilt_burst_decodes_with_modification_verdicts(suite_name):
    """The WRITE middlebox's rebuilt burst verifies at the endpoint,
    with §3.4 legal-modification verdicts per record — and
    ``rebuild_burst`` over the opened client burst reproduces those
    frozen bytes, which the generator built with ``rebuild_record`` (same
    nonce schedule: every client encode, then every rebuild)."""
    suite = ALL_SUITES[suite_name]
    group = FROZEN_BATCHED["suites"][suite_name]["middlebox_rebuild_burst"]
    server = _mctls_layer(suite, is_client=False)
    server.feed(bytes.fromhex(group["rebuilt_burst"]))
    records = list(server.read_burst())
    assert len(records) == len(REBUILD_CASES)
    for record, (original, replacement) in zip(records, REBUILD_CASES):
        assert record.payload == replacement
        assert record.legally_modified is (original != replacement)

    proc = _write_processor(suite)
    with _patched_nonces():
        client = _mctls_layer(suite, True)
        client_burst = b"".join(
            client.encode(APPLICATION_DATA, original, 1)
            for original, _ in REBUILD_CASES
        )
        opened = proc.open_wire_burst(*split_burst(client_burst))
        replacements = [replacement for _, replacement in REBUILD_CASES]
        rebuilt = proc.rebuild_burst(list(zip(opened, replacements)))
    assert client_burst.hex() == group["client_burst"]
    assert b"".join(rebuilt).hex() == group["rebuilt_burst"]


# -- feed shapes --------------------------------------------------------------


def _feed_shapes(wires):
    """The same stream as chunk lists: whole, one record per chunk, and
    cut at, just before and just after every record boundary plus
    mid-fragment."""
    stream = b"".join(wires)
    boundaries = list(itertools.accumulate(len(wire) for wire in wires))
    cuts = sorted(
        {0, len(stream)}
        | set(boundaries)
        | {max(0, b - 1) for b in boundaries}
        | {min(len(stream), b + 1) for b in boundaries}
        | {b - len(w) // 2 for b, w in zip(boundaries, wires) if len(w) > 1}
    )
    return {
        "whole": [stream],
        "per-record": list(wires),
        "cuts": [stream[start:end] for start, end in zip(cuts, cuts[1:])],
    }


def _failure(exc):
    """What a failure must agree on across shapes: type, MAC slot, party,
    context and sequence number."""
    exc = exc.__cause__ if isinstance(exc, TLSError) else exc
    return (
        type(exc).__name__,
        getattr(exc, "mac", None),
        getattr(exc, "where", None),
        getattr(exc, "context_id", None),
        getattr(exc, "seq", None),
    )


def _endpoint_outcomes(make_reader, wires, project):
    """Feed ``wires`` to a fresh reader in every shape (``read_burst``
    after each feed), plus the record-at-a-time ``read_all`` on the whole
    stream.  An mcTLS ChangeCipherSpec activates read protection between
    yields, as a session does.  Returns ``{shape: (records, failure)}``."""

    def run(chunks, method):
        reader = make_reader()
        records = []
        try:
            for chunk in chunks:
                reader.feed(chunk)
                for record in getattr(reader, method)():
                    records.append(project(record))
                    if isinstance(record, UnprotectedRecord) and (
                        record.content_type == CHANGE_CIPHER_SPEC
                    ):
                        reader.activate_read()
        except (McTLSRecordError, RecordError) as exc:
            return records, _failure(exc)
        return records, None

    outcomes = {
        shape: run(chunks, "read_burst")
        for shape, chunks in _feed_shapes(wires).items()
    }
    outcomes["read_all"] = run([b"".join(wires)], "read_all")
    return outcomes


def _mctls_record(record):
    return (
        record.content_type,
        record.context_id,
        record.payload,
        record.legally_modified,
    )


def _assert_one_outcome(outcomes):
    first = next(iter(outcomes.values()))
    for shape, outcome in outcomes.items():
        assert outcome == first, f"feed shape {shape!r} diverged"
    return first


def _processor(suite, permission, framing) -> MiddleboxRecordProcessor:
    """A client-to-server processor, not yet active: context 1 installed
    at ``permission`` (plus the field key for ``hdr`` under the compact
    framing when it may write), context 2 unknown."""
    proc = MiddleboxRecordProcessor(suite, mk.C2S)
    if permission is not Permission.NONE:
        proc.install(1, permission, mk.ckd_context_keys(SECRET, RC, RS, 1))
    if framing is MCTLS_COMPACT:
        proc.set_framing(MCTLS_COMPACT, (COMPACT_SCHEMA,))
        if permission is Permission.WRITE:
            field_keys = mk.derive_field_keys(SECRET, RC, RS, COMPACT_SCHEMA)
            proc.install_field_keys(1, {0: field_keys[0]})
    return proc


def _relay(bed, suite, permission, framing):
    """A middlebox whose client side is about to see the ChangeCipherSpec:
    context 1 installed at ``permission`` (field key for ``hdr`` under the
    compact framing), context 2 unknown.  The WRITE transformer rewrites
    odd-length payloads only, so modified and verbatim records mix."""
    relay = bed.make_relays(Mode.MCTLS, 1)[0]
    relay.suite = suite
    relay._wire_framing = framing
    relay._proc_c2s = _processor(suite, permission, framing)
    relay.transformer = lambda direction, cid, payload: (
        payload.upper() if len(payload) % 2 else payload
    )
    return relay


def _middlebox_outcomes(bed, suite, permission, framing, wires):
    """Relay ``wires`` client → server in every feed shape; returns
    ``{shape: (events, output, failure, post-stream seq)}``."""
    outcomes = {}
    for shape, chunks in _feed_shapes(wires).items():
        relay = _relay(bed, suite, permission, framing)
        events, output, failure = [], [], None
        with _patched_nonces():  # rebuilds draw nonces in record order
            try:
                for chunk in chunks:
                    events += relay.receive_from_client(chunk)
                    output += relay.data_to_server_views()
            except TLSError as exc:
                output += relay.data_to_server_views()
                failure = _failure(exc)
        context_data = [e for e in events if isinstance(e, ContextData)]
        outcomes[shape] = (
            context_data,
            b"".join(output),
            failure,
            relay._proc_c2s.seq,
        )
    return outcomes


# -- one encode call emitting several records ----------------------------------
#
# The only multi-record writer is ``encode`` itself, which fragments a
# payload larger than one record: the records it emits must equal the
# joined per-slice encodes (same seqs, MAC slots and nonce order).


def _slices(payload: bytes):
    step = MAX_PLAINTEXT
    return [payload[i : i + step] for i in range(0, len(payload), step)]


BIG_PAYLOAD = bytes(range(256)) * 150  # three records


@pytest.mark.parametrize("suite_name", ALL_SUITE_NAMES)
def test_tls_encode_batch_matches_sequential(suite_name):
    """One ``encode`` over a multi-record payload (a batch of records)
    == encoding each record-sized slice in turn."""
    suite = ALL_SUITES[suite_name]
    with _patched_nonces():
        batch = _tls_writer(suite).encode(APPLICATION_DATA, BIG_PAYLOAD)
    with _patched_nonces():
        writer = _tls_writer(suite)
        sequential = b"".join(
            writer.encode(APPLICATION_DATA, piece) for piece in _slices(BIG_PAYLOAD)
        )
    assert batch == sequential


@pytest.mark.parametrize("suite_name", ALL_SUITE_NAMES)
def test_mctls_encode_batch_matches_sequential(suite_name):
    suite = ALL_SUITES[suite_name]
    with _patched_nonces():
        batch = _two_context_layer(suite, True).encode(APPLICATION_DATA, BIG_PAYLOAD, 2)
    with _patched_nonces():
        layer = _two_context_layer(suite, True)
        sequential = b"".join(
            layer.encode(APPLICATION_DATA, piece, 2) for piece in _slices(BIG_PAYLOAD)
        )
    assert batch == sequential


@pytest.mark.parametrize("suite_name", ALL_SUITE_NAMES)
def test_compact_encode_batch_matches_sequential(suite_name):
    """Same under the compact framing, whose field MACs cover each
    record's own payload slice."""
    suite = ALL_SUITES[suite_name]
    with _patched_nonces():
        layer = _two_context_layer(suite, True, MCTLS_COMPACT)
        batch = layer.encode(APPLICATION_DATA, BIG_PAYLOAD, 1)
    with _patched_nonces():
        layer = _two_context_layer(suite, True, MCTLS_COMPACT)
        sequential = b"".join(
            layer.encode(APPLICATION_DATA, piece, 1) for piece in _slices(BIG_PAYLOAD)
        )
    assert batch == sequential


# -- endpoint readers across feed shapes ----------------------------------------


@pytest.mark.parametrize("suite_name", ALL_SUITE_NAMES)
def test_tls_read_burst_matches_read_all(suite_name):
    suite = ALL_SUITES[suite_name]
    items = [(APPLICATION_DATA, p) for p in _random_payloads(_rng("tls-dec"))]
    items.insert(len(items) // 2, (HANDSHAKE, b"mid-burst control"))
    with _patched_nonces():
        writer = _tls_writer(suite)
        wires = [writer.encode(ct, payload) for ct, payload in items]
    outcomes = _endpoint_outcomes(lambda: _tls_reader(suite), wires, tuple)
    assert _assert_one_outcome(outcomes) == (items, None)


@pytest.mark.parametrize("suite_name", ALL_SUITE_NAMES)
def test_mctls_read_burst_matches_read_all(suite_name):
    """ChangeCipherSpec, then a multi-context stream with a control
    record mid-stream: every feed shape yields the same records."""
    suite = ALL_SUITES[suite_name]
    items = _mixed_mctls_items(_rng("mctls-dec"))
    wires = _mctls_wires(suite, items)
    outcomes = _endpoint_outcomes(
        lambda: _two_context_layer(suite, False, active=False), wires, _mctls_record
    )
    records, failure = _assert_one_outcome(outcomes)
    assert failure is None
    assert [(ct, cid, p) for ct, cid, p, _ in records[2:]] == [
        (ct, cid, p) for ct, p, cid in items
    ]


@pytest.mark.parametrize("suite_name", ALL_SUITE_NAMES)
def test_compact_read_burst_matches_read_all(suite_name):
    """The default-framed ChangeCipherSpec and the compact-framed records
    behind it decode alike whether they arrive in one buffer or split."""
    suite = ALL_SUITES[suite_name]
    items = _mixed_mctls_items(_rng("compact-dec"))
    wires = _mctls_wires(suite, items, MCTLS_COMPACT)
    assert wires[1][0] & 0xFC == 0xD0  # the Finished is compact-framed
    outcomes = _endpoint_outcomes(
        lambda: _two_context_layer(suite, False, MCTLS_COMPACT, active=False),
        wires,
        _mctls_record,
    )
    records, failure = _assert_one_outcome(outcomes)
    assert failure is None
    assert [p for _, _, p, _ in records[2:]] == [p for _, p, _ in items]


# -- the middlebox relay across feed shapes -------------------------------------


@pytest.fixture(scope="module")
def bed() -> TestBed:
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512)


@pytest.mark.parametrize("suite_name", ALL_SUITE_NAMES)
@PERMISSIONS
def test_middlebox_burst_matches_sequential(bed, suite_name, permission):
    """Events, forwarded bytes and the post-stream sequence number are
    identical whether the relay gets the stream in one buffer, record by
    record, or cut mid-record — across the ChangeCipherSpec and a
    mid-stream control record."""
    suite = ALL_SUITES[suite_name]
    items = _mixed_mctls_items(_rng(f"mbox-{permission.name}"))
    wires = _mctls_wires(suite, items)
    outcomes = _middlebox_outcomes(bed, suite, permission, MCTLS_DEFAULT, wires)
    events, output, failure, seq = _assert_one_outcome(outcomes)
    assert failure is None
    assert seq == len(wires) - 1  # every protected record consumed one
    readable = [p for ct, p, cid in items if ct == APPLICATION_DATA and cid == 1]
    if permission is Permission.NONE:
        assert events == [] and output == b"".join(wires)
    else:
        assert [e.data for e in events] == [
            p.upper() if permission.can_write and len(p) % 2 else p for p in readable
        ]
    if permission is Permission.READ:
        assert output == b"".join(wires)


@pytest.mark.parametrize("suite_name", ALL_SUITE_NAMES)
@PERMISSIONS
def test_compact_middlebox_burst_matches_sequential(bed, suite_name, permission):
    """The same under the compact framing: a default-framed
    ChangeCipherSpec followed by a compact-framed Finished, 4-byte
    headers, 8-byte MAC slots and field-MAC trailers forwarded or
    recomputed — one outcome for every feed shape."""
    suite = ALL_SUITES[suite_name]
    items = _mixed_mctls_items(_rng(f"compact-mbox-{permission.name}"))
    wires = _mctls_wires(suite, items, MCTLS_COMPACT)
    outcomes = _middlebox_outcomes(bed, suite, permission, MCTLS_COMPACT, wires)
    events, output, failure, seq = _assert_one_outcome(outcomes)
    assert failure is None
    assert seq == len(wires) - 1
    if permission is not Permission.WRITE:
        assert output == b"".join(wires)
    readable = [p for ct, p, cid in items if ct == APPLICATION_DATA and cid == 1]
    assert len(events) == (0 if permission is Permission.NONE else len(readable))


# -- the burst rebuild ---------------------------------------------------------
#
# The relay rebuilds per modified record; ``rebuild_burst`` is the
# burst-wide rebuild the dataplane benchmarks gate.  Its bytes must equal
# a ``rebuild_record`` loop on every suite, including the fused SHA-CTR
# re-encryption and the compact framing's field-MAC trailers.


@pytest.mark.parametrize("suite_name", ALL_SUITE_NAMES)
@pytest.mark.parametrize(
    "framing", [MCTLS_DEFAULT, MCTLS_COMPACT], ids=["default", "compact"]
)
def test_rebuild_burst_matches_rebuild_record_loop(suite_name, framing):
    """Modified, unmodified, grown, shrunk and emptied payloads: one
    ``rebuild_burst`` == per-pair ``rebuild_record``, byte for byte."""
    suite = ALL_SUITES[suite_name]
    payloads = _random_payloads(_rng(f"rebuild-{framing.name}"))
    burst, entries = split_burst(b"".join(_app_wires(suite, payloads, framing)), framing)
    proc = _processor(suite, Permission.WRITE, framing)
    proc.activate()
    opened = list(proc.open_wire_burst(burst, entries))
    replacements = [
        [p, p.upper(), p + b"grown", p[: len(p) // 2], b""][i % 5]
        for i, p in enumerate(payloads)
    ]
    pairs = list(zip(opened, replacements))
    with _patched_nonces():
        burst_wires = proc.rebuild_burst(pairs)
    with _patched_nonces():
        loop_wires = [proc.rebuild_record(o, p) for o, p in pairs]
    assert len(burst_wires) == len(payloads)
    assert burst_wires == loop_wires


# -- tampering mid-stream -------------------------------------------------------


def test_endpoint_tamper_mid_burst_fails_at_same_record():
    """Flip a payload byte of record 5: every feed shape yields exactly
    the records before it, then fails with the same MAC attribution."""
    suite = SUITES["shactr"]
    payloads = [b"tamper-target-%d" % i * 3 for i in range(8)]
    wires = _app_wires(suite, payloads)
    bad = bytearray(wires[5])
    bad[MCTLS_DEFAULT.header_len + 16] ^= 0x40  # first ciphertext byte
    wires[5] = bytes(bad)
    outcomes = _endpoint_outcomes(
        lambda: _mctls_layer(suite, False), wires, lambda r: r.payload
    )
    records, failure = _assert_one_outcome(outcomes)
    assert records == payloads[:5]
    assert failure == ("MacVerificationError", "writers", "endpoint", 1, 5)


def test_middlebox_tamper_mid_burst_fails_at_same_record(bed):
    """A READ relay forwards exactly the records before the tampered one,
    then fails on its reader MAC, in every shape."""
    suite = SUITES["shactr"]
    payloads = _random_payloads(_rng("tamper-mbox"), count=8)
    wires = _mctls_wires(suite, [(APPLICATION_DATA, p, 1) for p in payloads])
    bad = bytearray(wires[2 + 5])
    bad[-1] ^= 0x40  # last MAC byte
    wires[2 + 5] = bytes(bad)
    outcomes = _middlebox_outcomes(bed, suite, Permission.READ, MCTLS_DEFAULT, wires)
    # Events queued by the failing call never reach the caller, so only
    # the forwarded bytes and the failure are shape-independent here.
    output, failure = _assert_one_outcome(
        {shape: outcome[1:3] for shape, outcome in outcomes.items()}
    )
    assert output == b"".join(wires[: 2 + 5])
    assert failure == ("MacVerificationError", "readers", "middlebox", 1, 6)


def test_compact_endpoint_tamper_mid_burst_fails_at_same_record():
    """Mid-stream tamper under compact framing: one failing record and
    MAC attribution for every feed shape."""
    suite = SUITES["shactr"]
    payloads = [b"tamper-target-%d" % i * 3 for i in range(8)]
    wires = _app_wires(suite, payloads, MCTLS_COMPACT)
    bad = bytearray(wires[5])
    bad[MCTLS_COMPACT.header_len + 16] ^= 0x40
    wires[5] = bytes(bad)
    outcomes = _endpoint_outcomes(
        lambda: _two_context_layer(suite, False, MCTLS_COMPACT),
        wires,
        lambda r: r.payload,
    )
    records, failure = _assert_one_outcome(outcomes)
    assert records == payloads[:5]
    assert failure == ("MacVerificationError", "writers", "endpoint", 1, 5)


# -- full-stack event-stream equivalence --------------------------------------


def _app_events(events):
    return [
        event
        for event in events
        if type(event).__name__.endswith("ApplicationData")
    ]


def _build_chain(bed, mode):
    topology = (
        bed.topology(1) if mode in (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS) else None
    )
    client, server = bed.make_endpoints(mode, topology=topology)
    relays = bed.make_relays(mode, 1)
    chain = Chain(client, relays, server)
    client.start_handshake()
    chain.pump()
    assert client.handshake_complete
    # Plain TCP has no handshake bytes: the server side completes on
    # its first received data, not during the pump above.
    if mode is not Mode.NO_ENCRYPT:
        assert server.handshake_complete
    return client, relays, server, chain


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_burst_flight_delivers_same_stream_as_sequential(bed, mode):
    """One live session per stack: N payloads sent record by record,
    then N more queued and pumped as ONE multi-record flight through the
    relay.  Both phases must deliver the same application byte stream
    (framed stacks also preserve per-record boundaries)."""
    client, relays, server, chain = _build_chain(bed, mode)
    server_events = []
    chain.on_server_event = server_events.append
    ctx = 1 if mode in (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS) else 0
    payloads = _random_payloads(_rng(f"stack-{mode.value}"), count=6, max_len=200)
    payloads = [p for p in payloads if p]  # empty app data is a no-op on plain TCP

    sequential = []
    for payload in payloads:
        client.send_application_data(payload, context_id=ctx)
        chain.pump()
        sequential.extend(e.data for e in _app_events(server_events))
        server_events.clear()

    for payload in payloads:
        client.send_application_data(payload, context_id=ctx)
    chain.pump()
    burst = [e.data for e in _app_events(server_events)]
    server_events.clear()

    assert b"".join(burst) == b"".join(sequential) == b"".join(payloads)
    if mode is not Mode.NO_ENCRYPT:  # record-framed stacks keep boundaries
        assert burst == sequential == payloads


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_views_drain_equivalent_to_joined_drain(bed, mode):
    """`data_to_send_views()` drains the same queue as `data_to_send()`:
    injecting the joined views into the relay delivers the identical
    stream, and the joined drain afterwards is empty."""
    client, relays, server, chain = _build_chain(bed, mode)
    server_events = []
    chain.on_server_event = server_events.append
    ctx = 1 if mode in (Mode.MCTLS, Mode.MCTLS_CKD, Mode.MDTLS) else 0
    payloads = [p for p in _random_payloads(_rng(f"views-{mode.value}"), 6, 200) if p]

    for payload in payloads:
        client.send_application_data(payload, context_id=ctx)
    views = client.data_to_send_views()
    assert client.data_to_send() == b""  # the views drained the queue
    relays[0].receive_from_client(b"".join(views))
    chain.pump()
    delivered = [e.data for e in _app_events(server_events)]
    assert b"".join(delivered) == b"".join(payloads)


# -- keystream pool accounting ------------------------------------------------


class TestKeystreamPool:
    def test_hit_miss_accounting_via_stream_for(self):
        cipher = ShaCtrCipher(b"K" * 16)
        nonce = b"pool-nonce-00001"
        hits0, misses0 = KEYSTREAM_POOL.hits, KEYSTREAM_POOL.misses
        first = cipher.stream_for(nonce, 100)
        assert KEYSTREAM_POOL.misses == misses0 + 1
        second = cipher.stream_for(nonce, 100)
        assert KEYSTREAM_POOL.hits == hits0 + 1
        assert first == second

    def test_bounded_fifo_evicts_oldest(self):
        pool = KeystreamPool(max_entries=2, cacheable_bytes=64)
        pool.put(("k", b"n1", 1), b"s1", 32)
        pool.put(("k", b"n2", 1), b"s2", 32)
        assert len(pool) == 2 and pool.evictions == 0
        pool.put(("k", b"n3", 1), b"s3", 32)
        assert len(pool) == 2 and pool.evictions == 1
        pool.put(("k", b"huge", 9), b"s", 65)  # over the admission cutoff
        assert len(pool) == 2  # not admitted, nothing evicted
        assert pool.evictions == 1

    def test_size_to_workload_rebounds_pool(self):
        pool = KeystreamPool()
        default_entries = pool.max_entries
        pool.size_to_workload([256] * 100, budget_bytes=1 << 23)
        small_records = pool.max_entries
        assert pool.cacheable_bytes >= 256
        pool.size_to_workload([4096] * 100, budget_bytes=1 << 23)
        assert pool.max_entries < small_records  # bigger records, fewer entries
        assert (small_records, pool.max_entries) != (default_entries,) * 2

    def test_publish_to_instruments_is_delta_based(self):
        pool = KeystreamPool(max_entries=1, cacheable_bytes=64)
        pool.hits, pool.misses = 3, 2
        pool.put(("k", b"n1", 1), b"s", 32)
        pool.put(("k", b"n2", 1), b"s", 32)  # evicts n1
        instruments = Instruments()
        pool.publish_to(instruments)
        snap = instruments.snapshot()
        assert snap["keystream.pool.hit"] == 3
        assert snap["keystream.pool.miss"] == 2
        assert snap["keystream.pool.evict"] == 1
        pool.hits += 1
        pool.publish_to(instruments)
        snap = instruments.snapshot()
        assert snap["keystream.pool.hit"] == 4  # only the delta was added
        assert snap["keystream.pool.miss"] == 2


# -- RecordBuffer reclamation regression --------------------------------------


class TestRecordBufferSnapshot:
    def test_snapshot_survives_compaction_on_later_append(self, monkeypatch):
        """The hazard: burst offsets parsed against ``data``/``pos``
        held across an ``append`` whose reclamation shifts the buffer.
        ``take`` copies the span out atomically, so a compacting
        append afterwards must not disturb it or the cursor."""
        import repro.recbuf as recbuf

        monkeypatch.setattr(recbuf, "_COMPACT_BYTES", 8)
        buf = RecordBuffer()
        buf.append(b"AAAABBBBCCCCDDDD")
        first = buf.take(12)  # cursor now well past the tiny threshold
        assert first == b"AAAABBBBCCCC"
        buf.append(b"EEEE")  # triggers reclamation of the consumed prefix
        assert buf.pos == 0  # the dead prefix was compacted away
        assert first == b"AAAABBBBCCCC"  # the snapshot is self-contained
        assert buf.take(8) == b"DDDDEEEE"
        assert len(buf) == 0

    def test_interleaved_feed_and_read_at_fragment_boundaries(self):
        """Feed a protected mcTLS stream in chunks that straddle record
        boundaries, reading between feeds — every record must come out
        intact, whichever side of a fragment boundary the feed stops
        on."""
        suite = SUITES["shactr"]
        payloads = _random_payloads(_rng("recbuf"), count=10, max_len=300)
        with _patched_nonces():
            writer = _mctls_layer(suite, True)
            wires = [writer.encode(APPLICATION_DATA, p, 1) for p in payloads]
        reader = _mctls_layer(suite, False)
        got = []
        for chunk in _feed_shapes(wires)["cuts"]:
            reader.feed(chunk)
            got.extend(record.payload for record in reader.read_burst())
        assert got == payloads
