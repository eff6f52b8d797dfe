"""Cryptographic substrate for the mcTLS reproduction.

The core is implemented from scratch on top of the Python standard
library (``hashlib``/``hmac``/``os.urandom``): AES, block-cipher modes,
finite-field Diffie-Hellman, RSA with PKCS#1 v1.5, the TLS 1.2 PRF, a toy
certificate infrastructure, and an operation counter used to reproduce the
paper's Table 3.  The one exception is modular exponentiation
(:mod:`repro.crypto.bignum`), which runs on the libcrypto that ``hashlib``
already links; RSA and DH logic around it stays from scratch.

Record-layer bulk primitives (keystream generators, HMAC contexts)
additionally route through a pluggable provider registry
(:mod:`repro.crypto.provider`): the pure-Python provider is always
available and remains the default, while the OpenSSL provider (backed
by the optional ``cryptography`` package) powers the fast record suites
when importable.  Providers never change wire bytes — only who computes
them.

These primitives exist to make the *protocol* reproduction self-contained;
they are not hardened against side channels and must not be used to protect
real traffic.
"""

from repro.crypto.aes import AES
from repro.crypto.dh import DHGroup, DHKeyPair, GROUP_MODP_2048, GROUP_TEST_512
from repro.crypto.fastcipher import ShaCtrCipher, clear_keystream_cache
from repro.crypto.hmaccache import CachedHmacSha256, hmac_sha256
from repro.crypto.opcount import OpCounter, current_counter, count_op, counting
from repro.crypto.prf import prf, p_sha256
from repro.crypto.provider import OPENSSL, PROVIDERS, PURE, get_provider
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey, generate_rsa_key

__all__ = [
    "AES",
    "CachedHmacSha256",
    "DHGroup",
    "DHKeyPair",
    "GROUP_MODP_2048",
    "GROUP_TEST_512",
    "OpCounter",
    "RSAPrivateKey",
    "RSAPublicKey",
    "ShaCtrCipher",
    "clear_keystream_cache",
    "count_op",
    "counting",
    "current_counter",
    "generate_rsa_key",
    "hmac_sha256",
    "p_sha256",
    "prf",
]
