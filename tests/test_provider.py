"""Provider-layer tests: frozen wire vectors, keystream correctness
against independent references, MAC backend unification, and the
provider-aware pooling / calibration satellites.

The OpenSSL-dependent tests skip cleanly when ``cryptography`` is
absent; everything the pure provider owns runs everywhere.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import json
from pathlib import Path

import pytest

from repro.crypto.aes import AES
from repro.crypto.fastcipher import (
    KEYSTREAM_POOL,
    ShaCtrCipher,
    _measured_numpy_crossover,
    clear_keystream_cache,
)
from repro.crypto.hmaccache import CachedHmacSha256
from repro.crypto.provider import (
    OPENSSL,
    PROVIDERS,
    PURE,
    CryptoProvider,
    get_provider,
)
from repro.mctls import keys as mk
from repro.mctls.contexts import ENDPOINT_CONTEXT_ID, Permission
from repro.mctls.record import (
    MCTLS_HEADER_LEN,
    McTLSRecordLayer,
    MiddleboxRecordProcessor,
)
from repro.tls.ciphersuites import SUITES
from repro.tls.record import APPLICATION_DATA, HANDSHAKE, RecordLayer

from tests.golden.gen_record_vectors import _patched_nonces
from tests.mctls_helpers import split_burst

needs_openssl = pytest.mark.skipif(
    not OPENSSL.available, reason="cryptography package not importable"
)

VECTORS_PATH = Path(__file__).parent / "golden" / "provider_vectors.json"
PROVIDER_SUITE_IDS = {"aes128-ctr": 0xFF68, "chacha20": 0xFF69}


def _vectors() -> dict:
    return json.loads(VECTORS_PATH.read_text())


def _suite(name: str):
    return SUITES[PROVIDER_SUITE_IDS[name]]


# -- registry -----------------------------------------------------------------


def test_registry_contents():
    assert get_provider("pure") is PURE
    assert get_provider("openssl") is OPENSSL
    assert set(PROVIDERS) == {"pure", "openssl"}
    with pytest.raises(KeyError):
        get_provider("sgx-enclave")


def test_pure_provider_is_default_for_existing_suites():
    assert SUITES[0xFF67].provider == "pure"
    assert SUITES[0x0067].provider == "pure"


@needs_openssl
def test_openssl_suites_registered_when_available():
    assert SUITES[0xFF68].provider == "openssl"
    assert SUITES[0xFF69].provider == "openssl"


# -- frozen wire vectors ------------------------------------------------------


@needs_openssl
@pytest.mark.parametrize("name", sorted(PROVIDER_SUITE_IDS))
def test_frozen_vectors_match_regenerated(name):
    """Regenerating a suite's vector group must reproduce the frozen
    bytes exactly — same contract as record_vectors.json for the pure
    suites."""
    from tests.golden.gen_provider_vectors import build_provider_vectors

    frozen = _vectors()
    rebuilt = build_provider_vectors()
    assert rebuilt["suites"][name] == frozen["suites"][name]


@needs_openssl
@pytest.mark.parametrize("name", sorted(PROVIDER_SUITE_IDS))
def test_frozen_tls_records_decode(name):
    group = _vectors()["suites"][name]["tls"]
    suite = _suite(name)
    reader = RecordLayer()
    reader.read_state.activate(
        suite,
        suite.new_cipher(bytes.fromhex(group["enc_key"])),
        bytes.fromhex(group["mac_key"]),
    )
    for rec in group["records"]:
        reader.feed(bytes.fromhex(rec["wire"]))
        content_type, plaintext = reader.read_record()
        assert content_type == APPLICATION_DATA
        assert plaintext == bytes.fromhex(rec["payload"])


@needs_openssl
@pytest.mark.parametrize("name", sorted(PROVIDER_SUITE_IDS))
@pytest.mark.parametrize("direction", ["mctls_c2s", "mctls_s2c"])
def test_frozen_mctls_records_decode(name, direction):
    group = _vectors()["suites"][name][direction]
    suite = _suite(name)
    is_client_writer = direction == "mctls_c2s"
    reader = McTLSRecordLayer(is_client=not is_client_writer)
    reader.set_suite(suite)
    reader.set_endpoint_keys(mk.derive_endpoint_keys(b"S" * 48, b"c" * 32, b"s" * 32))
    reader.install_context_keys(
        1, mk.ckd_context_keys(b"S" * 48, b"c" * 32, b"s" * 32, 1)
    )
    reader.activate_write()
    reader.activate_read()
    for rec in group["records"]:
        reader.feed(bytes.fromhex(rec["wire"]))
        record = reader.read_record()
        assert record.context_id == rec["context_id"]
        assert record.payload == bytes.fromhex(rec["payload"])


@needs_openssl
@pytest.mark.parametrize("name", sorted(PROVIDER_SUITE_IDS))
def test_frozen_burst_equals_sequential_concat(name):
    """The frozen batched wires must equal the concatenation of the
    frozen per-record wires — nonces are drawn in the same order."""
    group = _vectors()["suites"][name]
    assert group["tls_burst"] == "".join(r["wire"] for r in group["tls"]["records"])
    for direction in ("mctls_c2s", "mctls_s2c"):
        assert group[f"{direction}_burst"] == "".join(
            r["wire"] for r in group[direction]["records"]
        )


@needs_openssl
@pytest.mark.parametrize("name", sorted(PROVIDER_SUITE_IDS))
def test_frozen_rebuild_cases_decode(name):
    group = _vectors()["suites"][name]["middlebox_rebuild"]
    suite = _suite(name)
    server = McTLSRecordLayer(is_client=False)
    server.set_suite(suite)
    server.set_endpoint_keys(mk.derive_endpoint_keys(b"S" * 48, b"c" * 32, b"s" * 32))
    server.install_context_keys(
        1, mk.ckd_context_keys(b"S" * 48, b"c" * 32, b"s" * 32, 1)
    )
    server.activate_write()
    server.activate_read()
    for case in group["cases"]:
        server.feed(bytes.fromhex(case["rebuilt_wire"]))
        record = server.read_record()
        assert record.payload == bytes.fromhex(case["replacement_payload"])
        modified = case["replacement_payload"] != case["original_payload"]
        assert record.legally_modified == modified


# -- keystream correctness against independent references ---------------------


@needs_openssl
def test_aes_ctr_keystream_matches_pure_python_aes():
    """The persistent-ECB generator must equal CTR mode computed from
    the repo's own pure-Python AES, block by block."""
    key = bytes(range(16))
    gen = OPENSSL.aes_ctr_keystream(key)
    ref = AES(key)
    for nonce_int, length in [
        (0, 1),
        (1, 16),
        (2**64 - 2, 100),  # low-half carry mid-run
        (2**128 - 1, 33),  # full wraparound
        (12345678901234567890, 352),
    ]:
        nonce = nonce_int.to_bytes(16, "big")
        expected = b"".join(
            ref.encrypt_block(((nonce_int + i) % (1 << 128)).to_bytes(16, "big"))
            for i in range(-(-length // 16))
        )
        got = bytes(gen.keystream(nonce, length))
        assert got == expected[: len(got)]
        assert len(got) >= length


@needs_openssl
def test_aes_ctr_batch_matches_per_record():
    key = b"\xaa" * 16
    gen = OPENSSL.aes_ctr_keystream(key)
    nonces = [bytes([i]) * 16 for i in range(6)]
    sizes = [1, 16, 17, 256, 352, 4096]
    batch = gen.keystream_batch(nonces, sizes)
    for nonce, size, out in zip(nonces, sizes, batch):
        assert bytes(out) == bytes(gen.keystream(nonce, size))[: len(out)]


@needs_openssl
def test_aes_ctr_batch_carry_fallback_is_exact():
    """A nonce whose low 64 bits would overflow during the run must take
    the scalar fallback and still be bit-exact."""
    key = b"\xbb" * 16
    gen = OPENSSL.aes_ctr_keystream(key)
    carry_nonce = (2**64 - 1).to_bytes(8, "big").rjust(16, b"\x01")
    nonces = [b"\x02" * 16, carry_nonce]
    sizes = [64, 64]
    batch = gen.keystream_batch(nonces, sizes)
    for nonce, size, out in zip(nonces, sizes, batch):
        assert bytes(out) == bytes(gen.keystream(nonce, size))


@needs_openssl
def test_chacha20_keystream_deterministic_and_key_expanded():
    key16 = b"\xcc" * 16
    gen = OPENSSL.chacha20_keystream(key16)
    nonce = b"\x07" * 16
    a = bytes(gen.keystream(nonce, 100))
    b = bytes(OPENSSL.chacha20_keystream(key16).keystream(nonce, 100))
    assert a == b and len(a) == 100
    # 16-byte suite keys expand via SHA-256 to ChaCha20's 32 bytes.
    expanded = OPENSSL.chacha20_keystream(hashlib.sha256(key16).digest())
    assert bytes(expanded.keystream(nonce, 100)) == a


@needs_openssl
def test_openssl_unavailable_paths_raise(monkeypatch):
    from repro.crypto import provider as provider_mod

    p = provider_mod.OpenSSLProvider()
    monkeypatch.setattr(p, "available", False)
    with pytest.raises(RuntimeError, match="unavailable"):
        p.aes_ctr_keystream(b"k" * 16)
    with pytest.raises(RuntimeError, match="unavailable"):
        p.chacha20_keystream(b"k" * 16)
    # MAC stays usable (falls back to the hashlib implementation).
    assert p.mac_context(b"m" * 32).digest(b"x") == _hmac.new(
        b"m" * 32, b"x", hashlib.sha256
    ).digest()


# -- MAC unification ----------------------------------------------------------


@pytest.mark.parametrize("provider_name", sorted(PROVIDERS))
def test_provider_mac_matches_hmac_reference(provider_name):
    provider = PROVIDERS[provider_name]
    if provider_name == "openssl" and not provider.available:
        pytest.skip("cryptography package not importable")
    key = bytes(range(32))
    ctx = provider.mac_context(key)
    ref = _hmac.new(key, b"part-one|part-two", hashlib.sha256).digest()
    assert ctx.digest(b"part-one|", b"part-two") == ref
    assert provider.hmac(key, b"part-one|", b"part-two") == ref


@needs_openssl
def test_hazmat_and_hashlib_mac_backends_identical():
    from repro.crypto.provider import OpenSSLHmacSha256

    key = b"\x42" * 32
    for parts in [(b"",), (b"a", b"bc", b"def"), (memoryview(b"view-part"),)]:
        assert (
            OpenSSLHmacSha256(key).digest(*parts)
            == CachedHmacSha256(key).digest(*parts)
        )


def test_suite_mac_context_routes_through_provider():
    key = b"\x24" * 32
    ref = _hmac.new(key, b"record", hashlib.sha256).digest()
    for suite in SUITES.values():
        assert suite.mac_context(key).digest(b"record") == ref


@needs_openssl
def test_hmac_backend_env_override(monkeypatch):
    from repro.crypto import provider as provider_mod
    from repro.crypto.provider import OpenSSLHmacSha256, OpenSSLProvider

    monkeypatch.setattr(provider_mod, "_HMAC_BACKEND", "hazmat")
    assert type(OpenSSLProvider().mac_context(b"k" * 32)) is OpenSSLHmacSha256
    monkeypatch.setattr(provider_mod, "_HMAC_BACKEND", "hashlib")
    assert type(OpenSSLProvider().mac_context(b"k" * 32)) is CachedHmacSha256


# -- provider-aware pooling ---------------------------------------------------


def test_pool_worthwhile_thresholds():
    hit = KEYSTREAM_POOL.hit_cost_ns()
    assert hit > 0
    assert KEYSTREAM_POOL.worthwhile(hit * 100)
    assert not KEYSTREAM_POOL.worthwhile(hit * 0.5)


def test_pool_mode_override(monkeypatch):
    from repro.crypto import fastcipher

    monkeypatch.setattr(fastcipher, "_POOL_MODE", "on")
    assert KEYSTREAM_POOL.worthwhile(0.0)
    monkeypatch.setattr(fastcipher, "_POOL_MODE", "off")
    assert not KEYSTREAM_POOL.worthwhile(float("inf"))


def test_pool_mode_off_bypasses_sha_ctr_memo(monkeypatch):
    """``off`` means the SHA-CTR cipher neither looks up nor admits."""
    from repro.crypto import fastcipher

    clear_keystream_cache()
    cipher = ShaCtrCipher(b"\xee" * 16)
    nonce = b"\x22" * 16
    expected = cipher.keystream(nonce, 352)
    monkeypatch.setattr(fastcipher, "_POOL_MODE", "off")
    hits, misses, entries = KEYSTREAM_POOL.hits, KEYSTREAM_POOL.misses, len(KEYSTREAM_POOL)
    assert cipher.stream_for(nonce, 340) == expected
    assert cipher.stream_for(nonce, 340) == expected
    assert cipher.xor(nonce, b"\x00" * 100) == expected[:100]
    assert (KEYSTREAM_POOL.hits, KEYSTREAM_POOL.misses) == (hits, misses)
    assert len(KEYSTREAM_POOL) == entries


@needs_openssl
def test_pooled_generator_uses_shared_pool():
    clear_keystream_cache()
    gen = OPENSSL.aes_ctr_keystream(b"\xdd" * 16)
    if not gen.pooled:
        pytest.skip("pool self-disabled for AES-CTR on this host")
    nonce = b"\x11" * 16
    misses, hits = KEYSTREAM_POOL.misses, KEYSTREAM_POOL.hits
    first = gen.stream_for(nonce, 352)
    second = gen.stream_for(nonce, 352)
    assert first == second
    assert KEYSTREAM_POOL.misses == misses + 1
    assert KEYSTREAM_POOL.hits == hits + 1
    clear_keystream_cache()


@needs_openssl
def test_pool_keys_disambiguate_providers():
    """AES-CTR and ChaCha20 keystreams for the same (key, nonce) must
    never collide in the shared pool."""
    clear_keystream_cache()
    key, nonce = b"\xee" * 16, b"\x33" * 16
    aes = OPENSSL.aes_ctr_keystream(key)
    cha = OPENSSL.chacha20_keystream(key)
    if not (aes.pooled and cha.pooled):
        pytest.skip("pool self-disabled on this host")
    a = bytes(aes.stream_for(nonce, 64))[:64]
    c = bytes(cha.stream_for(nonce, 64))[:64]
    assert a != c
    assert bytes(aes.stream_for(nonce, 64))[:64] == a
    clear_keystream_cache()


# -- xor crossover calibration satellite --------------------------------------


def test_xor_crossover_env_override():
    assert _measured_numpy_crossover({"REPRO_XOR_CROSSOVER": "777"}) == 777
    assert _measured_numpy_crossover({"REPRO_XOR_CROSSOVER": "0"}) == 0
    assert _measured_numpy_crossover({"REPRO_XOR_CROSSOVER": "-5"}) == 0


def test_xor_crossover_measured_value_sane():
    value = _measured_numpy_crossover({})
    assert value in (128, 256, 512, 1024, 2048, 4096) or value == 1 << 62


# -- end-to-end data plane under provider suites ------------------------------


@needs_openssl
@pytest.mark.parametrize("name", sorted(PROVIDER_SUITE_IDS))
def test_batched_equals_sequential_live(name):
    """Fresh (non-golden) differential under each provider suite: a
    joined-encode burst splits and opens through a WRITE middlebox, whose
    batched ``rebuild_burst`` equals a ``rebuild_record`` loop and
    verifies at the server."""
    suite = _suite(name)
    payloads = [b"", b"x" * 256, bytes(range(64)), b"tail"]
    with _patched_nonces():
        writer = McTLSRecordLayer(is_client=True)
        writer.set_suite(suite)
        writer.set_endpoint_keys(
            mk.derive_endpoint_keys(b"S" * 48, b"c" * 32, b"s" * 32)
        )
        writer.install_context_keys(
            1, mk.ckd_context_keys(b"S" * 48, b"c" * 32, b"s" * 32, 1)
        )
        writer.activate_write()
        wire = b"".join(writer.encode(APPLICATION_DATA, p, 1) for p in payloads)

    proc = MiddleboxRecordProcessor(suite, mk.C2S)
    proc.install(
        1, Permission.WRITE, mk.ckd_context_keys(b"S" * 48, b"c" * 32, b"s" * 32, 1)
    )
    proc.activate()
    burst, entries = split_burst(wire)
    assert len(entries) == len(payloads)
    view = memoryview(burst)
    recs = [
        (ct, cid, view[start + MCTLS_HEADER_LEN : end])
        for ct, cid, start, end in entries
    ]
    opened = list(proc.open_burst(recs))
    for op, payload in zip(opened, payloads):
        assert bytes(op.payload) == payload
    pairs = [(op, bytes(op.payload)) for op in opened]
    with _patched_nonces():
        rebuilt = proc.rebuild_burst(pairs)
    with _patched_nonces():
        assert rebuilt == [proc.rebuild_record(op, payload) for op, payload in pairs]
    # Unmodified re-MAC: the server-side reader must accept every record.
    server = McTLSRecordLayer(is_client=False)
    server.set_suite(suite)
    server.set_endpoint_keys(mk.derive_endpoint_keys(b"S" * 48, b"c" * 32, b"s" * 32))
    server.install_context_keys(
        1, mk.ckd_context_keys(b"S" * 48, b"c" * 32, b"s" * 32, 1)
    )
    server.activate_read()
    server.feed(b"".join(rebuilt))
    for payload in payloads:
        record = server.read_record()
        assert record.payload == payload
        assert not record.legally_modified


# -- burst fast-path primitives (grid keystreams, two-part MACs) --------------


def test_digest2_matches_digest_pure():
    mac = CachedHmacSha256(b"k" * 32)
    header, body = b"h" * 14, b"p" * 256
    assert mac.digest2(header, body) == mac.digest(header, body)
    assert mac.digest2(b"", b"") == mac.digest(b"", b"")
    assert mac.digest2(memoryview(header), bytearray(body)) == mac.digest(
        header, body
    )


@needs_openssl
def test_digest2_matches_digest_openssl():
    mac = OPENSSL.mac_context(b"k" * 32)
    header, body = b"h" * 14, b"p" * 256
    assert mac.digest2(header, body) == mac.digest(header, body)
    assert mac.digest2(memoryview(header), bytearray(body)) == mac.digest(
        header, body
    )


@needs_openssl
@pytest.mark.parametrize("size", [1, 15, 16, 52, 352])
def test_keystream_grid_arr_matches_grid(size):
    np = pytest.importorskip("numpy")
    gen = OPENSSL.aes_ctr_keystream(b"K" * 16)
    count = 9
    nonces = bytes(range(256))[: count * 16]
    arr = gen.keystream_grid_arr(nonces, count, size)
    assert arr.shape == (count, size)
    assert arr.tobytes() == gen.keystream_grid(nonces, count, size)
    # The scratch buffers are reused: a second call with different
    # nonces must still be exact (and invalidates the first view).
    nonces2 = bytes(reversed(range(256)))[: count * 16]
    arr2 = gen.keystream_grid_arr(nonces2, count, size)
    assert arr2.tobytes() == gen.keystream_grid(nonces2, count, size)


@needs_openssl
def test_keystream_grid_arr_carry_fallback_is_exact():
    pytest.importorskip("numpy")
    gen = OPENSSL.aes_ctr_keystream(b"K" * 16)
    # One record's counter run overflows the low 64 bits mid-stream.
    nonces = (b"\x11" * 8 + b"\xff" * 8) + bytes(16)
    arr = gen.keystream_grid_arr(nonces, 2, 48)
    assert arr.tobytes() == gen.keystream_grid(nonces, 2, 48)


@needs_openssl
def test_stream_grid_arr_fused_only():
    pytest.importorskip("numpy")
    aes = _suite("aes128-ctr").new_cipher(b"K" * 16)
    chacha = _suite("chacha20").new_cipher(b"K" * 16)
    shactr = SUITES[0xFF67].new_cipher(b"K" * 16)
    nonces = bytes(64)
    assert aes.stream_grid_arr(nonces, 4, 32) is not None
    assert aes.stream_grid_arr(nonces, 4, 32).tobytes() == aes.stream_grid(
        nonces, 4, 32
    )
    # Unfused ciphers decline so callers keep the pool-accounted path.
    assert chacha.stream_grid_arr(nonces, 4, 32) is None
    assert shactr.stream_grid_arr(nonces, 4, 32) is None


@needs_openssl
@pytest.mark.parametrize("name", ["aes128-ctr", "chacha20"])
@pytest.mark.parametrize(
    "permission", [Permission.READ, Permission.WRITE], ids=["read", "write"]
)
def test_open_wire_burst_matches_open_burst(name, permission):
    suite = _suite(name)
    payloads = [b"%03d" % i + b"x" * 253 for i in range(12)]
    client = McTLSRecordLayer(is_client=True)
    client.set_suite(suite)
    client.set_endpoint_keys(mk.derive_endpoint_keys(b"S" * 48, b"c" * 32, b"s" * 32))
    client.install_context_keys(
        1, mk.ckd_context_keys(b"S" * 48, b"c" * 32, b"s" * 32, 1)
    )
    client.activate_write()
    wire = b"".join(client.encode(APPLICATION_DATA, p, 1) for p in payloads)

    def processor():
        proc = MiddleboxRecordProcessor(suite, mk.C2S)
        proc.install(
            1,
            permission,
            mk.ckd_context_keys(b"S" * 48, b"c" * 32, b"s" * 32, 1),
        )
        proc.activate()
        return proc

    burst, entries = split_burst(wire)
    assert len(entries) == len(payloads)
    via_wire = list(processor().open_wire_burst(burst, entries))
    view = memoryview(burst)
    via_slices = list(
        processor().open_burst(
            (ct, cid, view[start + MCTLS_HEADER_LEN : end])
            for ct, cid, start, end in entries
        )
    )
    assert len(via_wire) == len(via_slices) == len(payloads)
    for a, b, payload in zip(via_wire, via_slices, payloads):
        assert bytes(a.payload) == bytes(b.payload) == payload
        assert (a.context_id, a.seq, a.permission) == (b.context_id, b.seq, b.permission)
        assert a.endpoint_mac == b.endpoint_mac
        assert a.writer_mac == b.writer_mac
        assert a.reader_mac == b.reader_mac
