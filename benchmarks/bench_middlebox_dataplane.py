"""Middlebox data-plane cost by permission level.

The paper's Figure 5 covers handshake CPU; this bench covers the other
half of its §5.3 conclusion ("it is not only feasible, but practical to
use middleboxes in the core network"): per-record forwarding cost at the
middlebox for each access level.

* NONE — parse header, count the sequence number, forward raw bytes;
* READ — decrypt + verify the readers MAC;
* WRITE (unmodified) — decrypt + verify the writers MAC, forward raw;
* WRITE (rewriting) — decrypt, verify, re-encrypt + two fresh MACs;
* SplitTLS — decrypt + verify, re-encrypt + MAC (its only mode).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import emit, format_table

from repro.mctls import keys as mk
from repro.mctls.contexts import Permission
from repro.framing import MCTLS_DEFAULT
from repro.mctls.record import McTLSRecordLayer, MiddleboxRecordProcessor
from repro.tls.ciphersuites import SUITE_DHE_RSA_SHACTR_SHA256 as SUITE
from repro.tls.record import APPLICATION_DATA

PAYLOAD_LEN = 1400
ROUNDS = 400


def _sender(context_ids=(1,)):
    layer = McTLSRecordLayer(is_client=True)
    layer.set_suite(SUITE)
    layer.set_endpoint_keys(mk.derive_endpoint_keys(b"S" * 48, b"c" * 32, b"s" * 32))
    for ctx in context_ids:
        layer.install_context_keys(
            ctx, mk.ckd_context_keys(b"S" * 48, b"c" * 32, b"s" * 32, ctx)
        )
    layer.activate_write()
    return layer


def _fragments(n):
    """Fragments of ``n`` context-1 APPLICATION_DATA records (each wire
    is one record, so its fragment follows the fixed-size header)."""
    sender = _sender()
    header_len = MCTLS_DEFAULT.header_len
    return [
        sender.encode(APPLICATION_DATA, b"x" * PAYLOAD_LEN, 1)[header_len:]
        for _ in range(n)
    ]


def _processor(permission):
    proc = MiddleboxRecordProcessor(SUITE, mk.C2S)
    keys = mk.ckd_context_keys(b"S" * 48, b"c" * 32, b"s" * 32, 1)
    proc.install(1, permission, keys if permission.can_read else None)
    proc.activate()
    return proc


def _measure(permission, rewrite):
    fragments = _fragments(ROUNDS)
    proc = _processor(permission)
    start = time.process_time()
    for fragment in fragments:
        opened = proc.open_record(APPLICATION_DATA, 1, fragment)
        if rewrite and opened.payload is not None:
            proc.rebuild_record(opened, opened.payload[::-1])
    elapsed = time.process_time() - start
    return ROUNDS * PAYLOAD_LEN / elapsed / 1e6


def test_middlebox_dataplane(benchmark, capsys):
    def run():
        rows = [
            ["mcTLS NONE (opaque forward)", f"{_measure(Permission.NONE, False):.1f}"],
            ["mcTLS READ (verify)", f"{_measure(Permission.READ, False):.1f}"],
            ["mcTLS WRITE, unmodified", f"{_measure(Permission.WRITE, False):.1f}"],
            ["mcTLS WRITE, rewriting", f"{_measure(Permission.WRITE, True):.1f}"],
        ]

        # SplitTLS reference: decrypt+verify then re-encrypt+MAC per record.
        from repro.tls.record import RecordLayer

        inbound = RecordLayer()
        outbound = RecordLayer()
        sender = RecordLayer()
        enc_key, mac_key = bytes(16), b"m" * 32
        sender.write_state.activate(SUITE, SUITE.new_cipher(enc_key), mac_key)
        inbound.read_state.activate(SUITE, SUITE.new_cipher(enc_key), mac_key)
        outbound.write_state.activate(SUITE, SUITE.new_cipher(enc_key), mac_key)
        wires = [
            sender.encode(APPLICATION_DATA, b"x" * PAYLOAD_LEN) for _ in range(ROUNDS)
        ]
        start = time.process_time()
        for wire in wires:
            inbound.feed(wire)
            _, plaintext = inbound.read_record()
            outbound.encode(APPLICATION_DATA, plaintext)
        elapsed = time.process_time() - start
        rows.append(["SplitTLS (decrypt + re-encrypt)", f"{ROUNDS * PAYLOAD_LEN / elapsed / 1e6:.1f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "middlebox_dataplane",
        "Middlebox per-record forwarding throughput (1400 B records, SHA-CTR suite)\n"
        + format_table(["configuration", "MB/s"], rows)
        + "\n\nOpaque forwarding is near-free; read verification costs one"
        "\ndecrypt+MAC; only actual rewriting approaches SplitTLS's"
        "\nunconditional decrypt-re-encrypt cost.",
        capsys,
    )
