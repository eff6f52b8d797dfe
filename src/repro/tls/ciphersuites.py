"""Cipher suite definitions.

The paper evaluates with ``DHE-RSA-AES128-SHA256``; we implement that suite
faithfully (pure-Python AES-128-CBC, HMAC-SHA256, MAC-then-encrypt per
RFC 5246 §6.2.3.2) plus fast drop-in stream variants that replace the
AES-CBC bulk cipher with a keystream cipher while preserving the record
geometry (an explicit per-record 16-byte IV/nonce and 32-byte MAC):

* ``DHE-RSA-SHACTR-SHA256`` (0xFF67) — the zero-dependency SHA-CTR
  keystream (:mod:`repro.crypto.fastcipher`), golden-vector-pinned;
* ``DHE-RSA-AES128CTR-SHA256`` (0xFF68) — real AES-128-CTR through the
  OpenSSL provider (:mod:`repro.crypto.provider`), with fused
  whole-burst keystream generation;
* ``DHE-RSA-CHACHA20-SHA256`` (0xFF69) — ChaCha20 through the OpenSSL
  provider (per-record contexts; wins on large records).

The OpenSSL-backed suites register only when the ``cryptography``
package is importable; negotiation treats them like any other suite
(offered in ClientHello, sealed into tickets).  All stream suites share
one wire geometry — ``nonce(16) || ciphertext`` with HMAC-SHA256 record
MACs — so the *provider* is an implementation detail, never wire format.
Benchmarks state which suite they use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.crypto.aes import AES
from repro.crypto.fastcipher import ShaCtrCipher, xor_bytes, xor_concat
from repro.crypto.hmaccache import hmac_sha256
from repro.crypto.modes import (
    PaddingError,
    cbc_decrypt,
    cbc_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.opcount import count_op, current_counter
from repro.crypto.provider import OPENSSL, get_provider


class CipherError(Exception):
    """Raised when record decryption or MAC verification fails."""


class BulkCipher:
    """Interface for the per-direction bulk encryption of records."""

    def encrypt(self, plaintext: bytes) -> bytes:
        raise NotImplementedError

    def decrypt(self, ciphertext: bytes) -> bytes:
        raise NotImplementedError

    def ciphertext_length(self, plaintext_length: int) -> int:
        """Predict ciphertext size without encrypting (for size accounting)."""
        raise NotImplementedError


class AesCbcCipher(BulkCipher):
    """AES-CBC with an explicit per-record IV and PKCS#7 padding."""

    def __init__(self, key: bytes):
        self._aes = AES(key)

    def encrypt(self, plaintext: bytes) -> bytes:
        count_op("sym_encrypt")
        if type(plaintext) is not bytes:
            plaintext = bytes(plaintext)
        iv = os.urandom(16)
        return iv + cbc_encrypt(self._aes, iv, pkcs7_pad(plaintext))

    def decrypt(self, ciphertext: bytes) -> bytes:
        count_op("sym_decrypt")
        if type(ciphertext) is not bytes:
            ciphertext = bytes(ciphertext)
        if len(ciphertext) < 32:
            raise CipherError("ciphertext shorter than IV + one block")
        iv, body = ciphertext[:16], ciphertext[16:]
        try:
            return pkcs7_unpad(cbc_decrypt(self._aes, iv, body))
        except (PaddingError, ValueError) as exc:
            raise CipherError(str(exc)) from exc

    def ciphertext_length(self, plaintext_length: int) -> int:
        padded = (plaintext_length // 16 + 1) * 16
        return 16 + padded


class StreamRecordCipher(BulkCipher):
    """Base for ``nonce(16) || ciphertext`` keystream record ciphers.

    The record layers' burst paths batch any cipher of this shape: all
    subclasses expose a pool-aware :meth:`stream_for` (full-block
    keystream, callers slice) and a :meth:`stream_batch` that fused
    generators override.  ``fused_batch`` marks instances whose batch
    keystreams should be generated in one fused call rather than
    per-record through the pool.
    """

    fused_batch = False

    def stream_for(self, nonce: bytes, size: int) -> bytes:
        raise NotImplementedError

    def stream_batch(self, nonces, sizes) -> list:
        return [self.stream_for(n, s) for n, s in zip(nonces, sizes)]

    def stream_concat(self, nonces, sizes) -> bytes:
        """Exactly ``sizes[i]`` keystream bytes per record, packed.

        Fused ciphers override this with a single-call generator path;
        the burst helpers use it to XOR a whole homogeneous burst
        against one buffer with no per-record stream slicing.
        """
        return b"".join(
            memoryview(self.stream_for(n, s))[:s] for n, s in zip(nonces, sizes)
        )

    def stream_grid(self, nonces, count: int, size: int) -> bytes:
        """Packed keystream for ``count`` records of one ``size``.

        ``nonces`` is one packed buffer of 16-byte nonces — the shape a
        uniform wire burst hands over without building per-record nonce
        objects.  Pool accounting matches per-record :meth:`stream_for`;
        fused ciphers override with a single vectorized call.
        """
        view = memoryview(nonces)
        return b"".join(
            memoryview(self.stream_for(bytes(view[i * 16 : i * 16 + 16]), size))[:size]
            for i in range(count)
        )

    def stream_grid_arr(self, nonces, count: int, size: int):
        """:meth:`stream_grid` as a transient numpy view, or ``None``.

        Fused providers return a ``(count, size)`` uint8 array valid
        only until their next keystream call, letting the wire-burst
        open path XOR keystream against record bodies without a packed
        ``bytes`` in between.  The base cipher (and any pool-accounted
        cipher) returns ``None``; callers must fall back to
        :meth:`stream_grid`.
        """
        return None

    def ciphertext_length(self, plaintext_length: int) -> int:
        return 16 + plaintext_length


class ShaCtrRecordCipher(StreamRecordCipher):
    """SHA-CTR keystream cipher with an explicit 16-byte nonce.

    Same wire geometry as :class:`AesCbcCipher` minus padding: records are
    ``nonce || ciphertext``.
    """

    def __init__(self, key: bytes):
        self._cipher = ShaCtrCipher(key)

    def encrypt(self, plaintext: bytes) -> bytes:
        count_op("sym_encrypt")
        nonce = os.urandom(16)
        return nonce + self._cipher.xor(nonce, plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        count_op("sym_decrypt")
        if len(ciphertext) < 16:
            raise CipherError("ciphertext shorter than nonce")
        nonce, body = ciphertext[:16], ciphertext[16:]
        return self._cipher.xor(nonce, body)

    def stream_for(self, nonce: bytes, size: int) -> bytes:
        """Pool-backed full-block keystream (see :meth:`ShaCtrCipher.stream_for`)."""
        return self._cipher.stream_for(nonce, size)


class ProviderStreamCipher(StreamRecordCipher):
    """Stream record cipher over a provider keystream generator.

    Wire geometry is identical to :class:`ShaCtrRecordCipher` — only the
    keystream definition differs per suite.  Pooling decisions live in
    the generator (:meth:`KeystreamPool.worthwhile`); fused generators
    make whole-burst batch paths regenerate below the pool's hit cost.
    """

    def __init__(self, gen):
        self._gen = gen
        self.fused_batch = gen.fused

    def encrypt(self, plaintext: bytes) -> bytes:
        count_op("sym_encrypt")
        nonce = os.urandom(16)
        size = len(plaintext)
        if not size:
            return nonce
        stream = self._gen.stream_for(nonce, size)
        if len(stream) != size:
            stream = memoryview(stream)[:size]
        return nonce + xor_bytes(plaintext, stream, size)

    def decrypt(self, ciphertext: bytes) -> bytes:
        count_op("sym_decrypt")
        if len(ciphertext) < 16:
            raise CipherError("ciphertext shorter than nonce")
        nonce, body = bytes(ciphertext[:16]), ciphertext[16:]
        size = len(body)
        if not size:
            return b""
        stream = self._gen.stream_for(nonce, size)
        if len(stream) != size:
            stream = memoryview(stream)[:size]
        return xor_bytes(body, stream, size)

    def stream_for(self, nonce: bytes, size: int) -> bytes:
        return self._gen.stream_for(nonce, size)

    def stream_batch(self, nonces, sizes) -> list:
        return self._gen.stream_batch(nonces, sizes)

    def stream_concat(self, nonces, sizes) -> bytes:
        return self._gen.keystream_concat(nonces, sizes)

    def stream_grid(self, nonces, count: int, size: int) -> bytes:
        return self._gen.keystream_grid(nonces, count, size)

    def stream_grid_arr(self, nonces, count: int, size: int):
        if not self.fused_batch:
            return None
        grid_arr = getattr(self._gen, "keystream_grid_arr", None)
        return grid_arr(nonces, count, size) if grid_arr is not None else None


class AesCtrRecordCipher(ProviderStreamCipher):
    """AES-128-CTR records via the OpenSSL provider (fused bursts)."""

    def __init__(self, key: bytes):
        super().__init__(OPENSSL.aes_ctr_keystream(key))


class ChaCha20RecordCipher(ProviderStreamCipher):
    """ChaCha20 records via the OpenSSL provider (per-record contexts)."""

    def __init__(self, key: bytes):
        super().__init__(OPENSSL.chacha20_keystream(key))


def _gather_streams(ciphers, nonces, sizes) -> list:
    """Per-record keystreams for a burst, fusing where the cipher can.

    Non-fused ciphers (SHA-CTR) draw through the pool per record in
    record order — identical accounting to the sequential path.  Fused
    ciphers (AES-CTR) are grouped per instance and generate their whole
    group's keystream in one call; generation order within a group is
    record order, so bytes are position-independent either way.
    """
    streams = [None] * len(ciphers)
    fused = None
    for i, cipher in enumerate(ciphers):
        if cipher.fused_batch:
            if fused is None:
                fused = {}
            entry = fused.get(id(cipher))
            if entry is None:
                entry = fused[id(cipher)] = (cipher, [])
            entry[1].append(i)
        else:
            streams[i] = cipher.stream_for(nonces[i], sizes[i])
    if fused is not None:
        for cipher, indices in fused.values():
            outs = cipher.stream_batch(
                [nonces[i] for i in indices], [sizes[i] for i in indices]
            )
            for i, stream in zip(indices, outs):
                streams[i] = stream
    return streams


def _burst_xor(ciphers, nonces, bodies, sizes) -> bytes:
    """XOR a burst's bodies against their keystreams, concatenated.

    A homogeneous fused burst — every record under the same
    fused-capable cipher instance, the shape of every single-context
    data-plane burst — takes the packed path: one generator call for
    the whole burst's keystream and one XOR, with no per-record stream
    slicing.  Mixed or pool-backed bursts keep the per-record gather
    (pool accounting identical to the sequential path).  Bytes are
    identical either way.
    """
    first = ciphers[0] if ciphers else None
    if (
        first is not None
        and first.fused_batch
        and ciphers.count(first) == len(ciphers)
    ):
        data = b"".join(bodies)
        return xor_bytes(data, first.stream_concat(nonces, sizes), len(data))
    streams = _gather_streams(ciphers, nonces, sizes)
    return xor_concat(bodies, streams, sizes)


def stream_encrypt_batch(items) -> list:
    """Batched stream-cipher encrypt across possibly-different instances.

    ``items`` is a sequence of ``(StreamRecordCipher, plaintext)`` pairs —
    the mcTLS record layer encrypts adjacent records under different
    per-context ciphers, and byte-identity with the sequential path
    requires nonces to be drawn strictly in record order regardless of
    which cipher each record uses, so the batch helper lives above the
    per-cipher API.  Op counts and ``os.urandom`` draws happen per record
    exactly as the sequential ``encrypt`` would; the XOR is fused into
    one pass over the concatenated burst, and fused-capable ciphers
    generate their keystreams in one call.
    """
    counter = current_counter()
    if counter is not None:
        counter.add("sym_encrypt", len(items))
    urandom = os.urandom
    nonces = []
    bodies = []
    sizes = []
    ciphers = []
    for cipher, plaintext in items:
        nonces.append(urandom(16))
        bodies.append(plaintext)
        sizes.append(len(plaintext))
        ciphers.append(cipher)
    joined = _burst_xor(ciphers, nonces, bodies, sizes)
    out = []
    off = 0
    for nonce, size in zip(nonces, sizes):
        end = off + size
        out.append(nonce + joined[off:end])
        off = end
    return out


def stream_decrypt_batch(items, views: bool = False) -> list:
    """Batched stream-cipher decrypt across possibly-different instances.

    ``items`` is a sequence of ``(StreamRecordCipher, fragment)`` pairs.
    A short fragment raises :class:`CipherError` at its record position
    (before any XOR work), matching the sequential loop's failure order.
    With ``views=True`` the plaintexts come back as :class:`memoryview`
    slices of one shared buffer (no per-record copy) — for callers that
    re-slice them anyway and never let them escape.
    """
    counter = current_counter()
    if counter is not None:
        counter.add("sym_decrypt", len(items))
    nonces = []
    bodies = []
    sizes = []
    ciphers = []
    for cipher, fragment in items:
        if len(fragment) < 16:
            raise CipherError("ciphertext shorter than nonce")
        nonces.append(bytes(fragment[:16]))
        bodies.append(fragment[16:])
        sizes.append(len(fragment) - 16)
        ciphers.append(cipher)
    joined = _burst_xor(ciphers, nonces, bodies, sizes)
    if views:
        joined = memoryview(joined)
    out = []
    off = 0
    for size in sizes:
        end = off + size
        out.append(joined[off:end])
        off = end
    return out


def decrypt_burst(items, views: bool = False) -> Tuple[list, Optional[CipherError]]:
    """Decrypt ``(cipher, fragment)`` pairs in record order.

    Returns ``(plaintexts, error)``: what ``cipher.decrypt(fragment)``
    gives for each pair before the first that fails, and that pair's
    :class:`CipherError` (``None`` when every pair decrypts) — so a
    caller can hand on the records before a bad one, then fail at its
    position.  A ``None`` cipher passes its fragment through as
    ``bytes`` (records read before protection is active).  The leading
    run of two or more stream-cipher fragments decrypts in one fused
    pass through :func:`stream_decrypt_batch` (``views`` as there); the
    rest decrypt one by one.
    """
    fused = 0
    for cipher, fragment in items:
        if not isinstance(cipher, StreamRecordCipher) or len(fragment) < 16:
            break
        fused += 1
    plaintexts = stream_decrypt_batch(items[:fused], views) if fused > 1 else []
    try:
        for cipher, fragment in items[len(plaintexts) :]:
            plaintexts.append(
                bytes(fragment) if cipher is None else cipher.decrypt(fragment)
            )
    except CipherError as exc:
        return plaintexts, exc
    return plaintexts, None


@dataclass(frozen=True)
class CipherSuite:
    """A negotiated algorithm bundle (key exchange is always DHE-RSA)."""

    suite_id: int
    name: str
    key_length: int
    mac_key_length: int
    mac_length: int
    cipher_factory: Callable[[bytes], BulkCipher]
    stream: bool = False  # nonce(16)||ciphertext geometry, batchable
    provider: str = "pure"  # crypto backend (never wire-visible)

    def new_cipher(self, key: bytes) -> BulkCipher:
        if len(key) != self.key_length:
            raise ValueError("bulk key has wrong length for suite")
        return self.cipher_factory(key)

    def mac(self, key: bytes, data: bytes) -> bytes:
        # Identical bytes to hmac.new(key, data, sha256).digest(), with
        # the key schedule cached per key (see repro.crypto.hmaccache).
        return hmac_sha256(key, data)

    def mac_context(self, key: bytes):
        """Cached HMAC-SHA256 context from this suite's provider.

        All providers produce identical MAC bytes (HMAC-SHA256 is fixed
        by the record format); only the implementation backing the
        cached context differs.
        """
        return get_provider(self.provider).mac_context(key)


SUITE_DHE_RSA_AES128_CBC_SHA256 = CipherSuite(
    suite_id=0x0067,  # TLS_DHE_RSA_WITH_AES_128_CBC_SHA256
    name="DHE-RSA-AES128-CBC-SHA256",
    key_length=16,
    mac_key_length=32,
    mac_length=32,
    cipher_factory=AesCbcCipher,
)

SUITE_DHE_RSA_SHACTR_SHA256 = CipherSuite(
    suite_id=0xFF67,  # private-use id for the fast simulation suite
    name="DHE-RSA-SHACTR-SHA256",
    key_length=16,
    mac_key_length=32,
    mac_length=32,
    cipher_factory=ShaCtrRecordCipher,
    stream=True,
)

# OpenSSL-backed stream suites.  key_length stays 16 (the mcTLS key
# schedule derives 16-byte bulk keys); ChaCha20 expands internally.
SUITE_DHE_RSA_AES128CTR_SHA256 = CipherSuite(
    suite_id=0xFF68,  # private-use id
    name="DHE-RSA-AES128CTR-SHA256",
    key_length=16,
    mac_key_length=32,
    mac_length=32,
    cipher_factory=AesCtrRecordCipher,
    stream=True,
    provider="openssl",
)

SUITE_DHE_RSA_CHACHA20_SHA256 = CipherSuite(
    suite_id=0xFF69,  # private-use id
    name="DHE-RSA-CHACHA20-SHA256",
    key_length=16,
    mac_key_length=32,
    mac_length=32,
    cipher_factory=ChaCha20RecordCipher,
    stream=True,
    provider="openssl",
)

SUITES: Dict[int, CipherSuite] = {
    s.suite_id: s
    for s in (SUITE_DHE_RSA_AES128_CBC_SHA256, SUITE_DHE_RSA_SHACTR_SHA256)
}

# Providerless builds (no ``cryptography``) simply never know these
# suite ids: a client cannot offer them, a server cannot pick them, and
# sealed tickets naming them fail resumption cleanly via suite_by_id.
if OPENSSL.available:
    SUITES[SUITE_DHE_RSA_AES128CTR_SHA256.suite_id] = SUITE_DHE_RSA_AES128CTR_SHA256
    SUITES[SUITE_DHE_RSA_CHACHA20_SHA256.suite_id] = SUITE_DHE_RSA_CHACHA20_SHA256


def suite_by_id(suite_id: int) -> CipherSuite:
    try:
        return SUITES[suite_id]
    except KeyError:
        raise CipherError(f"unknown cipher suite 0x{suite_id:04x}") from None
