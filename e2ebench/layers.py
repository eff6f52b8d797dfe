"""Which program names the traced run wraps, and the per-layer metrics.

Every party process installs the same target list; a party that never
calls a name simply records nothing for it.  Keys:

* ``handshake`` — endpoint ``start_handshake`` / ``receive_data`` and
  middlebox ``receive_from_*`` calls that begin before the party's
  ``handshake_complete``;
* ``record.encode`` / ``record.decode`` — endpoint
  ``send_application_data`` / ``receive_data`` after the handshake;
* ``mbox.c2s`` / ``mbox.s2c`` — middlebox ``receive_from_client`` /
  ``receive_from_server`` after the handshake;
* ``rsa``, ``dh``, ``prf``, ``keystream``, ``mac`` — crypto leaves.

Self times exclude nested crypto, so a party's CPU splits into the keys
above plus the runtime remainder (event loop, socket I/O, drains and the
benchmark's own driver code on the client).
"""

from __future__ import annotations

from typing import Dict, List

from tracer import Target

PARTIES = ("client", "mbox", "server")
OP_CATEGORIES = (
    "hash",
    "secret_comp",
    "key_gen",
    "asym_verify",
    "asym_sign",
    "sym_encrypt",
    "sym_decrypt",
)
MAX_PLAINTEXT = 16384


def _endpoint_receive_key(conn) -> str:
    return "record.decode" if conn.handshake_complete else "handshake"


def _mbox_key(direction: str):
    def key(mbox) -> str:
        return direction if mbox.handshake_complete else "handshake"

    return key


def _count_app_data(counters, key, args, result) -> None:
    from repro.core.events import ApplicationData

    if key == "record.decode":
        counters["record.decode.recs"] += sum(
            1 for event in result if isinstance(event, ApplicationData)
        )


def _count_encoded(counters, key, args, result) -> None:
    size = len(args[1])
    counters["record.encode.recs"] += max(1, -(-size // MAX_PLAINTEXT))


def _count_context_data(counters, key, args, result) -> None:
    from repro.core.events import ContextData

    if key == "handshake":
        return
    for event in result:
        if isinstance(event, ContextData):
            counters[key + ".recs"] += 1
            if getattr(event, "modified", False):
                counters["mbox.modified"] += 1


def _leaves(layer: str, specs: List[str]) -> List[Target]:
    return [Target(spec, layer, leaf=True) for spec in specs]


_CIPHER_METHODS = (
    "encrypt",
    "decrypt",
    "encrypt_batch",
    "decrypt_batch",
    "stream_for",
    "stream_batch",
    "stream_concat",
    "stream_grid",
    "stream_grid_arr",
)

TARGETS: List[Target] = [
    # repro.mctls endpoints and middlebox
    Target("repro.mctls.client:McTLSClient.start_handshake", "handshake"),
    Target(
        "repro.mctls.client:McTLSClient.receive_data",
        _endpoint_receive_key,
        counts=_count_app_data,
    ),
    Target(
        "repro.mctls.client:McTLSClient.send_application_data",
        "record.encode",
        counts=_count_encoded,
    ),
    Target(
        "repro.mctls.server:McTLSServer.receive_data",
        _endpoint_receive_key,
        counts=_count_app_data,
    ),
    Target(
        "repro.mctls.server:McTLSServer.send_application_data",
        "record.encode",
        counts=_count_encoded,
    ),
    Target(
        "repro.mctls.middlebox:McTLSMiddlebox.receive_from_client",
        _mbox_key("mbox.c2s"),
        counts=_count_context_data,
    ),
    Target(
        "repro.mctls.middlebox:McTLSMiddlebox.receive_from_server",
        _mbox_key("mbox.s2c"),
        counts=_count_context_data,
    ),
    # repro.aio runtime: socket reads (a coroutine, so counted, not timed)
    Target("asyncio.streams:StreamReader.read", "reads", timed=False),
    # repro.crypto, asymmetric
    *_leaves(
        "rsa",
        [
            "repro.crypto.rsa:RSAPrivateKey.sign",
            "repro.crypto.rsa:RSAPrivateKey.decrypt",
            "repro.crypto.rsa:RSAPublicKey.verify",
            "repro.crypto.rsa:RSAPublicKey.encrypt",
        ],
    ),
    *_leaves(
        "dh",
        [
            "repro.crypto.dh:DHGroup.generate_keypair",
            "repro.crypto.dh:DHKeyPair.combine",
            "repro.crypto.dh:DHKeyPair.combine_bytes",
        ],
    ),
    *_leaves("prf", ["repro.crypto.prf:p_sha256"]),
    # repro.crypto, symmetric
    *_leaves(
        "keystream",
        [
            "repro.crypto.fastcipher:ShaCtrCipher.keystream",
            "repro.crypto.fastcipher:ShaCtrCipher.stream_for",
            "repro.crypto.fastcipher:ShaCtrCipher.xor",
            "repro.crypto.fastcipher:ShaCtrCipher.xor_batch",
            "repro.crypto.fastcipher:xor_bytes",
            "repro.crypto.fastcipher:xor_concat",
            "repro.crypto.provider:AesCtrKeystream.keystream",
            "repro.crypto.provider:AesCtrKeystream.keystream_batch",
            "repro.crypto.provider:AesCtrKeystream.keystream_concat",
            "repro.crypto.provider:AesCtrKeystream.keystream_grid",
            "repro.crypto.provider:AesCtrKeystream.keystream_grid_arr",
            "repro.crypto.provider:AesCtrKeystream.stream_for",
            "repro.crypto.provider:AesCtrKeystream.stream_batch",
            "repro.tls.ciphersuites:stream_encrypt_batch",
            "repro.tls.ciphersuites:stream_decrypt_batch",
        ]
        + [f"repro.tls.ciphersuites:ShaCtrRecordCipher.{m}" for m in _CIPHER_METHODS]
        + [f"repro.tls.ciphersuites:AesCtrRecordCipher.{m}" for m in _CIPHER_METHODS],
    ),
    *_leaves(
        "mac",
        [
            "repro.crypto.hmaccache:CachedHmacSha256.digest",
            "repro.crypto.hmaccache:CachedHmacSha256.digest2",
            "repro.crypto.hmaccache:hmac_sha256",
            "repro.crypto.provider:OpenSSLHmacSha256.digest",
            "repro.crypto.provider:OpenSSLHmacSha256.digest2",
        ],
    ),
]

SPAN_KEYS = (
    "handshake",
    "record.encode",
    "record.decode",
    "mbox.c2s",
    "mbox.s2c",
    "rsa",
    "dh",
    "prf",
    "keystream",
    "mac",
)


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in output order."""
    names: List[str] = []
    for party in PARTIES:
        names += [
            f"aio.{party}.cpu_share",
            f"aio.{party}.cpu_us_per_op",
            f"aio.{party}.runtime_us_per_op",
            f"aio.{party}.reads_per_op",
        ]
    names += [f"handshake.{party}.self_us" for party in PARTIES]
    names.append("handshake.wire_bytes")
    for party in PARTIES:
        names += [f"crypto.{party}.{k}_us" for k in ("rsa", "dh", "prf")]
    for party in PARTIES:
        names += [f"ops.{party}.{c}" for c in OP_CATEGORIES]
    for party in PARTIES:
        names += [
            f"crypto.{party}.keystream_us_per_op",
            f"crypto.{party}.mac_us_per_op",
            f"crypto.{party}.pool_hit_ratio",
        ]
    for party in ("client", "server"):
        names += [
            f"record.{party}.encode_us_per_rec",
            f"record.{party}.decode_us_per_rec",
            f"record.{party}.recs_per_read",
        ]
    names.append("record.overhead_bytes_per_rec")
    names += [
        "mbox.c2s_us_per_rec",
        "mbox.s2c_us_per_rec",
        "mbox.recs_per_read",
        "mbox.rewritten_share",
    ]
    names += [f"trace.{party}.gap_share" for party in PARTIES]
    names.append("trace.overhead")
    return names


def unit_of(name: str) -> str:
    if name.endswith("_share") or name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    if name.endswith("_us_per_op"):
        return "us/op"
    if name.endswith("_us_per_rec"):
        return "us/rec"
    if name.endswith("_us"):
        return "us/op"
    if name.endswith("reads_per_op"):
        return "reads/op"
    if name.endswith("recs_per_read"):
        return "recs/read"
    if name == "handshake.wire_bytes":
        return "B/handshake"
    if name == "record.overhead_bytes_per_rec":
        return "B/rec"
    return "count/op"


def per_layer_values(
    snaps: Dict[str, dict],
    ops: int,
    wire: Dict[str, float],
    overhead: float,
) -> Dict[str, float]:
    """Per-layer metric values from the traced window's party snapshots.

    ``wire`` carries the client-side byte counts measured by the driver:
    ``handshake_bytes`` (per handshake) and ``overhead_bytes_per_rec``.
    """
    values: Dict[str, float] = {}
    us = 1e6
    for party in PARTIES:
        snap = snaps[party]
        spans = snap.get("self_s", {})
        counters = snap.get("counters", {})
        calls = snap.get("calls", {})
        covered = sum(spans.get(k, 0.0) for k in SPAN_KEYS)
        runtime = snap["thread_cpu_s"] - covered
        values[f"aio.{party}.cpu_share"] = _div(snap["cpu_s"], snap["wall_s"])
        values[f"aio.{party}.cpu_us_per_op"] = _div(snap["cpu_s"] * us, ops)
        values[f"aio.{party}.runtime_us_per_op"] = _div(runtime * us, ops)
        values[f"aio.{party}.reads_per_op"] = _div(counters.get("reads", 0), ops)
        values[f"handshake.{party}.self_us"] = _div(spans.get("handshake", 0.0) * us, ops)
        for k in ("rsa", "dh", "prf"):
            values[f"crypto.{party}.{k}_us"] = _div(spans.get(k, 0.0) * us, ops)
        for c in OP_CATEGORIES:
            values[f"ops.{party}.{c}"] = _div(snap.get("ops", {}).get(c, 0), ops)
        values[f"crypto.{party}.keystream_us_per_op"] = _div(
            spans.get("keystream", 0.0) * us, ops
        )
        values[f"crypto.{party}.mac_us_per_op"] = _div(spans.get("mac", 0.0) * us, ops)
        pool = snap["pool"]
        values[f"crypto.{party}.pool_hit_ratio"] = _div(
            pool["hit"], pool["hit"] + pool["miss"]
        )
        # Layer self times + runtime remainder account for the main thread;
        # whatever the process spent elsewhere (helper threads) is the gap.
        values[f"trace.{party}.gap_share"] = _div(
            snap["cpu_s"] - (covered + runtime), snap["cpu_s"]
        )
        if party != "mbox":
            values[f"record.{party}.encode_us_per_rec"] = _div(
                spans.get("record.encode", 0.0) * us,
                counters.get("record.encode.recs", 0),
            )
            decoded = counters.get("record.decode.recs", 0)
            values[f"record.{party}.decode_us_per_rec"] = _div(
                spans.get("record.decode", 0.0) * us, decoded
            )
            values[f"record.{party}.recs_per_read"] = _div(
                decoded, calls.get("record.decode", 0)
            )
        else:
            c2s = counters.get("mbox.c2s.recs", 0)
            s2c = counters.get("mbox.s2c.recs", 0)
            values["mbox.c2s_us_per_rec"] = _div(spans.get("mbox.c2s", 0.0) * us, c2s)
            values["mbox.s2c_us_per_rec"] = _div(spans.get("mbox.s2c", 0.0) * us, s2c)
            values["mbox.recs_per_read"] = _div(
                c2s + s2c, calls.get("mbox.c2s", 0) + calls.get("mbox.s2c", 0)
            )
            values["mbox.rewritten_share"] = _div(
                counters.get("mbox.modified", 0), c2s + s2c
            )
    values["handshake.wire_bytes"] = wire["handshake_bytes"]
    values["record.overhead_bytes_per_rec"] = wire["overhead_bytes_per_rec"]
    values["trace.overhead"] = overhead
    return {name: values[name] for name in per_layer_names()}
