"""Golden-vector generator for record-layer wire compatibility.

Freezes byte-exact encodings of protected TLS and mcTLS records (all
three mcTLS MAC slots, both directions) plus middlebox rebuild output,
with record-layer nonces made deterministic by patching the ``os`` name
inside ``repro.tls.ciphersuites`` (the only entropy source on the
record path).  The frozen JSON pins the wire format: any fast-path
rewrite of the record layers must reproduce these bytes bit-for-bit.

Run ``python tests/golden/gen_record_vectors.py`` to (re)generate
``record_vectors.json`` — only do that deliberately, for an intentional
wire-format change, never to make a failing test pass.

``tests/test_record_dataplane_golden.py`` imports :func:`build_vectors`
and compares its output against the frozen file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
for _path in (REPO_ROOT / "src", REPO_ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.crypto.fastcipher import ShaCtrCipher
from repro.mctls import keys as mk
from repro.mctls.contexts import ENDPOINT_CONTEXT_ID, Permission
from repro.mctls.record import (
    McTLSRecordLayer,
    MiddleboxRecordProcessor,
    _hmac_sha256,
)
from repro.tls import ciphersuites
from repro.tls.ciphersuites import (
    SUITE_DHE_RSA_AES128_CBC_SHA256,
    SUITE_DHE_RSA_SHACTR_SHA256,
)
from repro.tls.record import APPLICATION_DATA, HANDSHAKE, RecordLayer

from tests.mctls_helpers import split_wire

VECTORS_PATH = Path(__file__).resolve().parent / "record_vectors.json"

SUITES = {
    "shactr": SUITE_DHE_RSA_SHACTR_SHA256,
    "aes128-cbc": SUITE_DHE_RSA_AES128_CBC_SHA256,
}

SECRET, RC, RS = b"S" * 48, b"c" * 32, b"s" * 32

# Per-group payload set: empty, short text, block-boundary, patterned.
PAYLOADS = [
    b"",
    b"attack at dawn",
    bytes(64),
    bytes(range(256)) + b"golden" * 9,
]


class _DeterministicOs:
    """Drop-in replacement for the ``os`` module inside ``ciphersuites``.

    Each group of vectors resets the counter, so generation order within
    a group is the only thing that must stay fixed.
    """

    def __init__(self) -> None:
        self._counter = 0

    def urandom(self, n: int) -> bytes:
        self._counter += 1
        seed = b"mctls-golden-nonce" + self._counter.to_bytes(4, "big")
        out = b""
        while len(out) < n:
            out = out + hashlib.sha256(seed + len(out).to_bytes(2, "big")).digest()
        return out[:n]


class _patched_nonces:
    def __enter__(self):
        self._real_os = ciphersuites.os
        ciphersuites.os = _DeterministicOs()
        return self

    def __exit__(self, *exc):
        ciphersuites.os = self._real_os
        return False


def _mctls_layer(suite, is_client):
    layer = McTLSRecordLayer(is_client=is_client)
    layer.set_suite(suite)
    layer.set_endpoint_keys(mk.derive_endpoint_keys(SECRET, RC, RS))
    layer.install_context_keys(1, mk.ckd_context_keys(SECRET, RC, RS, 1))
    layer.activate_write()
    layer.activate_read()
    return layer


def _tls_vectors(suite):
    enc_key = bytes(range(suite.key_length))
    mac_key = bytes(range(32))
    writer = RecordLayer()
    writer.write_state.activate(suite, suite.new_cipher(enc_key), mac_key)
    records = []
    for payload in PAYLOADS:
        wire = writer.encode(APPLICATION_DATA, payload)
        records.append({"payload": payload.hex(), "wire": wire.hex()})
    return {"enc_key": enc_key.hex(), "mac_key": mac_key.hex(), "records": records}


def _mctls_direction_vectors(suite, is_client):
    """Encoded records from one writer; every record carries all three
    MAC slots (endpoints, writers, readers) inside its protected body."""
    layer = _mctls_layer(suite, is_client)
    records = []
    for payload in PAYLOADS:
        wire = layer.encode(APPLICATION_DATA, payload, 1)
        records.append({"context_id": 1, "payload": payload.hex(), "wire": wire.hex()})
    control = layer.encode(HANDSHAKE, b"finished-ish", ENDPOINT_CONTEXT_ID)
    records.append(
        {
            "context_id": ENDPOINT_CONTEXT_ID,
            "content_type": HANDSHAKE,
            "payload": b"finished-ish".hex(),
            "wire": control.hex(),
        }
    )
    return {"records": records}


def _middlebox_rebuild_vectors(suite):
    """WRITE-middlebox rebuild output for original and modified payloads."""
    client = _mctls_layer(suite, True)
    proc = MiddleboxRecordProcessor(suite, mk.C2S)
    proc.install(1, Permission.WRITE, mk.ckd_context_keys(SECRET, RC, RS, 1))
    proc.activate()
    cases = []
    for original, replacement in [
        (b"attack at dawn", b"attack at dawn"),  # unmodified re-MAC
        (b"attack at dawn", b"ATTACK AT NOON, but longer"),
        (bytes(range(200)), b""),
    ]:
        wire = client.encode(APPLICATION_DATA, original, 1)
        [(content_type, ctx_id, fragment, _)] = split_wire(wire)
        opened = proc.open_record(content_type, ctx_id, fragment)
        rebuilt = proc.rebuild_record(opened, replacement)
        cases.append(
            {
                "original_payload": original.hex(),
                "replacement_payload": replacement.hex(),
                "client_wire": wire.hex(),
                "rebuilt_wire": rebuilt.hex(),
            }
        )
    return {"cases": cases}


def _primitive_vectors():
    """Direct outputs of the hot primitives the fast path replaces."""
    key16, key32 = bytes(range(16)), bytes(range(32))
    nonce = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    big = bytes(200_000)
    shactr = ShaCtrCipher(key16)
    return {
        "hmac_sha256": {
            "key": key32.hex(),
            "data": b"golden hmac input".hex(),
            "mac": _hmac_sha256(key32, b"golden hmac input").hex(),
        },
        "suite_mac": {
            "key": key32.hex(),
            "data": b"golden suite mac".hex(),
            "mac": SUITE_DHE_RSA_SHACTR_SHA256.mac(key32, b"golden suite mac").hex(),
        },
        "shactr_xor": [
            {
                "key": key16.hex(),
                "nonce": nonce.hex(),
                "data": data.hex(),
                "out": shactr.xor(nonce, data).hex(),
            }
            for data in (b"", b"x", bytes(33), bytes(range(100)))
        ],
        "shactr_xor_big": {
            "key": key16.hex(),
            "nonce": nonce.hex(),
            "data_len": len(big),
            "out_sha256": hashlib.sha256(shactr.xor(nonce, big)).hexdigest(),
        },
    }


def build_vectors() -> dict:
    vectors = {"schema": "mctls-record-golden/1", "suites": {}}
    for name, suite in SUITES.items():
        with _patched_nonces():
            tls = _tls_vectors(suite)
        with _patched_nonces():
            c2s = _mctls_direction_vectors(suite, is_client=True)
        with _patched_nonces():
            s2c = _mctls_direction_vectors(suite, is_client=False)
        with _patched_nonces():
            rebuild = _middlebox_rebuild_vectors(suite)
        vectors["suites"][name] = {
            "tls": tls,
            "mctls_c2s": c2s,
            "mctls_s2c": s2c,
            "middlebox_rebuild": rebuild,
        }
    vectors["primitives"] = _primitive_vectors()
    return vectors


def main() -> int:
    vectors = build_vectors()
    VECTORS_PATH.write_text(json.dumps(vectors, indent=2, sort_keys=True) + "\n")
    print(f"wrote {VECTORS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
