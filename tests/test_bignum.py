"""``repro.crypto.bignum.modexp``: equal to ``pow`` on both backends.

The libcrypto backend is the one in use wherever the library loads; the
``pow`` backend is forced by clearing the module's library handle, the
same state a host without libcrypto starts in.  Everything built on
``modexp`` (RSA sign/decrypt, DH, key generation) must give the same
bytes on both.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import secrets
import sys
import threading

import pytest

from repro.crypto import bignum
from repro.crypto.bignum import modexp
from repro.crypto.dh import GROUP_MODP_1024, GROUP_TEST_512, DHKeyPair
from repro.crypto.numtheory import bytes_to_int, int_to_bytes
from repro.crypto.rsa import RSAError, generate_rsa_key

SEED = 1313


@contextlib.contextmanager
def pow_backend():
    saved = bignum._lib
    bignum._lib = None
    try:
        yield
    finally:
        bignum._lib = saved


@pytest.fixture(params=["libcrypto", "pow"])
def backend(request):
    if request.param == "libcrypto" and bignum._lib is None:
        pytest.skip("libcrypto could not be loaded on this host")
    if request.param == "pow":
        with pow_backend():
            yield request.param
    else:
        yield request.param


def _triples(rng: random.Random, count: int):
    """Moduli of 1..2048 bits (odd and even), edge and random bases,
    edge and full-width exponents."""
    for _ in range(count):
        bits = rng.randint(1, 2048)
        mod = rng.getrandbits(bits) | (1 << (bits - 1))
        if rng.random() < 0.5:
            mod |= 1
        base = rng.choice(
            (0, 1, mod, mod + 1, 3 * mod + 7, rng.getrandbits(bits), rng.getrandbits(bits + 64))
        )
        exp = rng.choice((0, 1, 65537, rng.getrandbits(bits) | (1 << (bits - 1))))
        yield base, exp, mod


def test_backend_is_named():
    assert bignum.BACKEND in ("libcrypto", "pow")
    assert (bignum.BACKEND == "libcrypto") == (bignum._lib is not None)


def test_modexp_equals_pow(backend):
    edges = itertools.product(
        (0, 1, 2, 7), (0, 1, 2, 65537), (1, 2, 3, 4, 5, (1 << 64) + 1, 1 << 64)
    )
    for base, exp, mod in itertools.chain(edges, _triples(random.Random(SEED), 2000)):
        assert modexp(base, exp, mod) == pow(base, exp, mod), (base, exp, mod)


def test_per_thread_scratch_is_isolated():
    """Concurrent callers each get their own BN_CTX and BIGNUMs: more
    threads than cores, switching often, every result checked."""
    rng = random.Random(SEED + 1)
    work = [list(_triples(random.Random(rng.random()), 40)) for _ in range(6)]
    bad, done = [], []

    def run(triples):
        for base, exp, mod in triples:
            if modexp(base, exp, mod) != pow(base, exp, mod):
                bad.append((base, exp, mod))
        done.append(True)

    threads = [threading.Thread(target=run, args=(t,)) for t in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == len(threads)
    assert bad == []


# -- everything above the arithmetic is backend-independent ------------------


@pytest.fixture(scope="module")
def key():
    return generate_rsa_key(512)


def _on_both(fn):
    """``fn()`` on the loaded backend, then on ``pow``."""
    first = fn()
    with pow_backend():
        second = fn()
    return first, second


def test_rsa_sign_identical(key):
    for message in (b"", b"handshake transcript", bytes(range(256))):
        first, second = _on_both(lambda: key.sign(message))
        assert first == second
        assert key.public_key.verify(message, first)
        with pow_backend():
            assert key.public_key.verify(message, first)


def test_rsa_decrypt_identical(key):
    ciphertext = key.public_key.encrypt(b"premaster secret")
    first, second = _on_both(lambda: key.decrypt(ciphertext))
    assert first == second == b"premaster secret"


def test_rsa_bad_padding_rejected_on_both(key):
    k = key.byte_length
    bad_em = b"\x00\x03" + b"\x01" * (k - 2)  # wrong block type
    ciphertext = int_to_bytes(pow(bytes_to_int(bad_em), key.e, key.n), k)

    def attempt():
        with pytest.raises(RSAError, match="invalid PKCS#1 v1.5 padding"):
            key.decrypt(ciphertext)
        return True

    assert _on_both(attempt) == (True, True)


@pytest.mark.parametrize("group", [GROUP_TEST_512, GROUP_MODP_1024], ids=lambda g: g.name)
def test_dh_shared_secret_identical(group):
    rng = random.Random(SEED + 2)
    a = DHKeyPair(group, rng.getrandbits(256), 0)
    b_private = rng.getrandbits(256)
    b_public, b_public_pow = _on_both(lambda: modexp(group.g, b_private, group.p))
    assert b_public == b_public_pow == pow(group.g, b_private, group.p)
    first, second = _on_both(lambda: a.combine(b_public))
    assert first == second


def _seeded_key(seed: int):
    rng = random.Random(seed)
    saved = secrets.randbits, secrets.randbelow
    secrets.randbits, secrets.randbelow = rng.getrandbits, rng.randrange
    try:
        return generate_rsa_key(512)
    finally:
        secrets.randbits, secrets.randbelow = saved


def test_seeded_key_generation_identical():
    first, second = _on_both(lambda: _seeded_key(SEED))
    assert first == second
