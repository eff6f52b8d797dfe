"""Golden-vector generator for the compact (Madtls-style) record framing.

The compact framing is negotiated, never implied, so its wire format
gets its *own* frozen vectors — ``compact_vectors.json`` — while the
default framing stays pinned (byte-identical) by ``record_vectors.json``.
Same machinery as :mod:`tests.golden.gen_record_vectors`: deterministic
nonces, both directions, plus middlebox rebuild cases exercising the
per-field MAC trailer (a granted in-place field rewrite must re-verify
at the endpoint as a legal modification).

Run ``python tests/golden/gen_compact_vectors.py`` to (re)generate the
frozen file — only for an intentional wire-format change, never to make
a failing test pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.framing import MCTLS_COMPACT
from repro.mctls import keys as mk
from repro.mctls.contexts import (
    ENDPOINT_CONTEXT_ID,
    FieldDef,
    FieldSchema,
    Permission,
)
from repro.mctls.record import MiddleboxRecordProcessor
from repro.tls.record import APPLICATION_DATA, HANDSHAKE

from tests.golden.gen_record_vectors import (
    RC,
    RS,
    SECRET,
    SUITES,
    _mctls_layer,
    _patched_nonces,
)
from tests.mctls_helpers import split_wire

COMPACT_VECTORS_PATH = Path(__file__).resolve().parent / "compact_vectors.json"

# The industrial two-field shape: an 8-byte header region a granted
# middlebox may rewrite, and a body region nobody in-path may touch.
SCHEMA = FieldSchema(
    context_id=1,
    fields=(FieldDef("hdr", 0, 8), FieldDef("body", 8, 64)),
    write_grants={"hdr": (1,)},
)

# Compact-framing regime: tiny periodic records, plus one payload that
# crosses the hdr/body field boundary and one past the schema's extent.
PAYLOADS = [
    b"",
    b"setpoint=42",
    bytes(64),
    bytes(range(200)),
]


def _compact_layer(suite, is_client):
    """An endpoint layer negotiated onto the compact framing.

    Endpoints hold every field key (derivation roots in the endpoint
    secret, which only they have).
    """
    layer = _mctls_layer(suite, is_client)
    field_keys = mk.derive_field_keys(SECRET, RC, RS, SCHEMA)
    layer.set_framing(MCTLS_COMPACT, (SCHEMA,), {1: field_keys})
    return layer


def _direction_vectors(suite, is_client):
    layer = _compact_layer(suite, is_client)
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


def _rebuild_vectors(suite):
    """Rebuild output of a middlebox granted only the ``hdr`` field.

    The processor holds the ``hdr`` key and not the ``body`` key, so a
    rebuild recomputes the hdr MAC and forwards the body MAC untouched —
    which re-verifies at the endpoint exactly when the rewrite stayed
    inside the granted field.
    """
    client = _compact_layer(suite, True)
    proc = MiddleboxRecordProcessor(suite, mk.C2S)
    proc.install(1, Permission.WRITE, mk.ckd_context_keys(SECRET, RC, RS, 1))
    field_keys = mk.derive_field_keys(SECRET, RC, RS, SCHEMA)
    proc.set_framing(MCTLS_COMPACT, (SCHEMA,))
    proc.install_field_keys(1, {0: field_keys[0]})  # "hdr" only
    proc.activate()
    original = b"HDRhdrHD" + bytes(range(30))
    cases = []
    for replacement in [
        original,                           # unmodified re-MAC
        b"hdrHDRhd" + original[8:],         # granted: hdr-only rewrite
    ]:
        wire = client.encode(APPLICATION_DATA, original, 1)
        [(content_type, ctx_id, fragment, _)] = split_wire(wire, MCTLS_COMPACT)
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


def build_vectors() -> dict:
    vectors = {
        "schema": "mctls-compact-golden/1",
        "field_schema": SCHEMA.encode().hex(),
        "suites": {},
    }
    for name, suite in SUITES.items():
        with _patched_nonces():
            c2s = _direction_vectors(suite, is_client=True)
        with _patched_nonces():
            s2c = _direction_vectors(suite, is_client=False)
        with _patched_nonces():
            rebuild = _rebuild_vectors(suite)
        vectors["suites"][name] = {
            "compact_c2s": c2s,
            "compact_s2c": s2c,
            "middlebox_rebuild": rebuild,
        }
    return vectors


def main() -> int:
    vectors = build_vectors()
    COMPACT_VECTORS_PATH.write_text(json.dumps(vectors, indent=2, sort_keys=True) + "\n")
    print(f"wrote {COMPACT_VECTORS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
