"""Unit tests for the mcTLS record layer and middlebox record processor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mctls import keys as mk
from repro.mctls.contexts import ENDPOINT_CONTEXT_ID, Permission
from repro.mctls.record import (
    MAX_FRAGMENT,
    MCTLS_HEADER_LEN,
    MacVerificationError,
    McTLSRecordError,
    McTLSRecordLayer,
    MiddleboxRecordProcessor,
    encode_header,
)
from repro.tls.ciphersuites import SUITE_DHE_RSA_SHACTR_SHA256 as SUITE
from repro.framing import MCTLS_DEFAULT, FramingError
from repro.recbuf import RecordBuffer
from repro.tls.record import ALERT, APPLICATION_DATA, HANDSHAKE, MAX_PLAINTEXT

from tests.mctls_helpers import split_wire

RC, RS = b"c" * 32, b"s" * 32
ENDPOINT_SECRET = b"S" * 48


def make_context_keys(ctx_id=1):
    return mk.ckd_context_keys(ENDPOINT_SECRET, RC, RS, ctx_id)


def make_layer(is_client, context_ids=(1,), activate=True):
    layer = McTLSRecordLayer(is_client=is_client)
    layer.set_suite(SUITE)
    layer.set_endpoint_keys(mk.derive_endpoint_keys(ENDPOINT_SECRET, RC, RS))
    for ctx_id in context_ids:
        layer.install_context_keys(ctx_id, make_context_keys(ctx_id))
    if activate:
        layer.activate_write()
        layer.activate_read()
    return layer


def make_pair(context_ids=(1,)):
    return make_layer(True, context_ids), make_layer(False, context_ids)


class TestEndpointRecords:
    def test_context_roundtrip(self):
        client, server = make_pair()
        server.feed(client.encode(APPLICATION_DATA, b"hello", 1))
        record = server.read_record()
        assert (record.context_id, record.payload) == (1, b"hello")
        assert record.legally_modified is False

    def test_control_context_roundtrip(self):
        client, server = make_pair()
        server.feed(client.encode(HANDSHAKE, b"finished-ish", ENDPOINT_CONTEXT_ID))
        record = server.read_record()
        assert record.context_id == ENDPOINT_CONTEXT_ID
        assert record.payload == b"finished-ish"

    def test_directional_separation(self):
        """A client record cannot be decoded as a server record (keys are
        directional)."""
        client, _ = make_pair()
        other_client = make_layer(True)
        other_client.feed(client.encode(APPLICATION_DATA, b"x", 1))
        with pytest.raises(McTLSRecordError):
            other_client.read_record()

    def test_unknown_context_rejected_on_send(self):
        client, _ = make_pair()
        with pytest.raises(McTLSRecordError, match="no keys"):
            client.encode(APPLICATION_DATA, b"x", 99)

    def test_unknown_context_rejected_on_receive(self):
        client, server = make_pair(context_ids=(1, 2))
        limited = make_layer(False, context_ids=(1,))
        limited.feed(client.encode(APPLICATION_DATA, b"x", 2))
        with pytest.raises(McTLSRecordError, match="no keys"):
            limited.read_record()

    def test_activation_requires_keys(self):
        layer = McTLSRecordLayer(is_client=True)
        with pytest.raises(McTLSRecordError):
            layer.activate_write()

    def test_fragmentation_and_reassembly(self):
        client, server = make_pair()
        payload = bytes(range(256)) * 200  # > MAX_PLAINTEXT
        server.feed(client.encode(APPLICATION_DATA, payload, 1))
        chunks = [r.payload for r in server.read_all()]
        assert len(chunks) >= 2
        assert b"".join(chunks) == payload

    def test_sequence_numbers_global_across_contexts(self):
        """Records in different contexts share one sequence space."""
        client, server = make_pair(context_ids=(1, 2))
        r1 = client.encode(APPLICATION_DATA, b"a", 1)
        r2 = client.encode(APPLICATION_DATA, b"b", 2)
        # Delivering ctx-2's record first desynchronises the sequence.
        server.feed(r2)
        with pytest.raises(McTLSRecordError):
            server.read_record()
        del r1

    def test_cross_context_splice_rejected(self):
        """A record cut from context 1 cannot be replayed as context 2."""
        client, server = make_pair(context_ids=(1, 2))
        wire = bytearray(client.encode(APPLICATION_DATA, b"spliced", 1))
        wire[3] = 2  # rewrite the context id in the header
        server.feed(bytes(wire))
        with pytest.raises(McTLSRecordError):
            server.read_record()

    def test_content_type_confusion_rejected(self):
        client, server = make_pair()
        wire = bytearray(client.encode(APPLICATION_DATA, b"x", 1))
        wire[0] = ALERT
        server.feed(bytes(wire))
        with pytest.raises(McTLSRecordError):
            server.read_record()

    @given(st.binary(max_size=1000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, payload, ctx_id):
        client, server = make_pair(context_ids=(1, 2, 3))
        server.feed(client.encode(APPLICATION_DATA, payload, ctx_id))
        received = b"".join(r.payload for r in server.read_all())
        assert received == payload


class TestSplitRecords:
    def test_yields_complete_records_only(self):
        client, _ = make_pair()
        wire = client.encode(APPLICATION_DATA, b"abc", 1)
        buf = RecordBuffer()
        buf.append(wire[:-1])
        assert buf.take_records(MCTLS_DEFAULT) == (b"", [], None)
        buf.append(wire[-1:])
        burst, entries, error = buf.take_records(MCTLS_DEFAULT)
        assert error is None
        assert entries == [(APPLICATION_DATA, 1, 0, len(wire))]
        assert burst == wire  # raw bytes preserved
        assert not buf

    def test_burst_ends_after_first_control_record(self):
        client, _ = make_pair()
        wire = (
            client.encode(APPLICATION_DATA, b"a", 1)
            + client.encode(ALERT, b"\x01\x00", ENDPOINT_CONTEXT_ID)
            + client.encode(APPLICATION_DATA, b"b", 1)
        )
        buf = RecordBuffer()
        buf.append(wire)
        _, entries, _ = buf.take_records(MCTLS_DEFAULT)
        assert [entry[0] for entry in entries] == [APPLICATION_DATA, ALERT]
        _, entries, _ = buf.take_records(MCTLS_DEFAULT)
        assert [entry[0] for entry in entries] == [APPLICATION_DATA]
        assert not buf

    def test_limit_caps_the_record_count(self):
        client, _ = make_pair()
        wires = [client.encode(APPLICATION_DATA, b"%d" % i, 1) for i in range(6)]
        buf = RecordBuffer()
        buf.append(b"".join(wires))
        burst, entries, _ = buf.take_records(MCTLS_DEFAULT, limit=1)
        assert burst == wires[0] and len(entries) == 1
        burst, entries, _ = buf.take_records(MCTLS_DEFAULT)
        assert burst == b"".join(wires[1:]) and len(entries) == 5

    def test_header_fields(self):
        header = encode_header(APPLICATION_DATA, 7, 100)
        assert len(header) == MCTLS_HEADER_LEN
        assert header[0] == APPLICATION_DATA
        assert header[3] == 7

    def test_oversized_record_rejected(self):
        buf = RecordBuffer()
        buf.append(encode_header(APPLICATION_DATA, 1, 0xFFFF))
        burst, entries, error = buf.take_records(MCTLS_DEFAULT)
        assert (burst, entries) == (b"", [])
        assert isinstance(error, FramingError)
        assert len(buf) == MCTLS_HEADER_LEN  # malformed bytes stay put


class TestRecordSizeLimits:
    def test_fragment_exactly_at_limit_accepted(self):
        wire = encode_header(APPLICATION_DATA, 1, MAX_FRAGMENT) + b"\x00" * MAX_FRAGMENT
        records = split_wire(wire)
        assert len(records) == 1
        assert len(records[0][2]) == MAX_FRAGMENT

    def test_fragment_one_over_limit_rejected(self):
        header = encode_header(APPLICATION_DATA, 1, MAX_FRAGMENT + 1)
        with pytest.raises(FramingError, match="too long"):
            split_wire(header)

    def test_payload_exactly_max_plaintext_is_one_record(self):
        """A MAX_PLAINTEXT payload fits one record: its fragment (nonce +
        payload + three MACs) stays within the MAX_FRAGMENT expansion
        budget and the receiver round-trips it."""
        client, server = make_pair()
        payload = b"x" * MAX_PLAINTEXT
        wire = client.encode(APPLICATION_DATA, payload, 1)
        records = split_wire(wire)
        assert len(records) == 1
        assert len(records[0][2]) <= MAX_FRAGMENT
        server.feed(wire)
        assert b"".join(r.payload for r in server.read_all()) == payload

    def test_payload_one_over_max_plaintext_fragments(self):
        client, server = make_pair()
        payload = b"y" * (MAX_PLAINTEXT + 1)
        wire = client.encode(APPLICATION_DATA, payload, 1)
        assert len(split_wire(wire)) == 2
        server.feed(wire)
        chunks = [r.payload for r in server.read_all()]
        assert [len(c) for c in chunks] == [MAX_PLAINTEXT, 1]
        assert b"".join(chunks) == payload


class TestSequenceNumbers:
    def test_third_party_deletion_detected_across_contexts(self):
        """Sequence numbers are global per direction: silently deleting a
        context-1 record makes the *next* record — in a different
        context — fail its writer MAC at the endpoint."""
        client, server = make_pair(context_ids=(1, 2))
        deleted = client.encode(APPLICATION_DATA, b"deleted by attacker", 1)
        survivor = client.encode(APPLICATION_DATA, b"survivor", 2)
        server.feed(survivor)  # the context-1 record never arrives
        with pytest.raises(MacVerificationError) as excinfo:
            server.read_record()
        assert excinfo.value.mac == "writers"
        assert excinfo.value.where == "endpoint"
        assert excinfo.value.context_id == 2
        del deleted

    def test_no_deletion_no_false_positive(self):
        client, server = make_pair(context_ids=(1, 2))
        server.feed(client.encode(APPLICATION_DATA, b"first", 1))
        server.feed(client.encode(APPLICATION_DATA, b"second", 2))
        received = [(r.context_id, r.payload) for r in server.read_all()]
        assert received == [(1, b"first"), (2, b"second")]


class TestMiddleboxProcessor:
    def _wire(self, client, payload=b"data", ctx=1):
        wire = client.encode(APPLICATION_DATA, payload, ctx)
        _, ctx_id, fragment, _ = split_wire(wire)[0]
        return ctx_id, fragment

    def test_reader_opens_record(self):
        client, _ = make_pair()
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(1, Permission.READ, make_context_keys())
        proc.activate()
        ctx_id, fragment = self._wire(client)
        opened = proc.open_record(APPLICATION_DATA, ctx_id, fragment)
        assert opened.payload == b"data"
        assert opened.permission is Permission.READ

    def test_no_permission_returns_opaque(self):
        client, _ = make_pair()
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.activate()
        ctx_id, fragment = self._wire(client)
        opened = proc.open_record(APPLICATION_DATA, ctx_id, fragment)
        assert opened.payload is None

    def test_opaque_records_consume_sequence_numbers(self):
        """A no-access record still advances the global sequence, so a
        later readable record verifies correctly."""
        client, _ = make_pair(context_ids=(1, 2))
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(2, Permission.READ, make_context_keys(2))
        proc.activate()
        ctx1, frag1 = self._wire(client, b"opaque", 1)
        assert proc.open_record(APPLICATION_DATA, ctx1, frag1).payload is None
        ctx2, frag2 = self._wire(client, b"readable", 2)
        assert proc.open_record(APPLICATION_DATA, ctx2, frag2).payload == b"readable"

    def test_writer_rebuild_roundtrip(self):
        client, server = make_pair()
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(1, Permission.WRITE, make_context_keys())
        proc.activate()
        ctx_id, fragment = self._wire(client, b"original")
        opened = proc.open_record(APPLICATION_DATA, ctx_id, fragment)
        rebuilt = proc.rebuild_record(opened, b"rewritten, longer payload")
        server.feed(rebuilt)
        record = server.read_record()
        assert record.payload == b"rewritten, longer payload"
        assert record.legally_modified is True

    def test_reader_cannot_rebuild(self):
        client, _ = make_pair()
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(1, Permission.READ, make_context_keys())
        proc.activate()
        ctx_id, fragment = self._wire(client)
        opened = proc.open_record(APPLICATION_DATA, ctx_id, fragment)
        with pytest.raises(McTLSRecordError, match="write permission"):
            proc.rebuild_record(opened, b"nope")

    def test_tamper_detected_by_reader(self):
        client, _ = make_pair()
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        proc.install(1, Permission.READ, make_context_keys())
        proc.activate()
        ctx_id, fragment = self._wire(client)
        bad = bytearray(fragment)
        bad[-1] ^= 1
        with pytest.raises(McTLSRecordError):
            proc.open_record(APPLICATION_DATA, ctx_id, bytes(bad))

    def test_inactive_processor_rejects(self):
        proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
        with pytest.raises(McTLSRecordError, match="not yet activated"):
            proc.open_record(APPLICATION_DATA, 1, b"x" * 100)
