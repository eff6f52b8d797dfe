"""Number-theoretic helpers for RSA and Diffie-Hellman.

Implements deterministic-enough probabilistic primality testing
(Miller-Rabin with fixed witnesses for small inputs plus random witnesses
for large inputs), prime generation, and modular inverse.
"""

from __future__ import annotations

import secrets

from repro.crypto.bignum import modexp

# Small primes used for fast trial division before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
    317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409,
]

# Witnesses that make Miller-Rabin deterministic for n < 3.3 * 10**24.
_DETERMINISTIC_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """One Miller-Rabin round; True means "probably prime so far"."""
    x = modexp(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 32) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n < 3.3e24, probabilistic (``rounds`` random
    witnesses) above that.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if n < 3_317_044_064_679_887_385_961_981:
        witnesses = [a for a in _DETERMINISTIC_WITNESSES if a < n]
    else:
        witnesses = [secrets.randbelow(n - 3) + 2 for _ in range(rounds)]

    return all(_miller_rabin_round(n, a, d, r) for a in witnesses)


def generate_prime(bits: int) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size too small")
    while True:
        candidate = secrets.randbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if is_probable_prime(candidate):
            return candidate


def generate_safe_prime(bits: int) -> int:
    """Generate a safe prime p (p = 2q + 1 with q prime).

    Only used for small test DH groups; standard groups are constants.
    """
    while True:
        q = generate_prime(bits - 1)
        p = 2 * q + 1
        if is_probable_prime(p):
            return p


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` modulo ``m`` (extended Euclid)."""
    g, x = _extended_gcd(a % m, m)
    if g != 1:
        raise ValueError("modular inverse does not exist")
    return x % m


def _extended_gcd(a: int, b: int) -> tuple:
    """Return (gcd, x) such that a*x ≡ gcd (mod b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s


def int_to_bytes(n: int, length: int = 0) -> bytes:
    """Big-endian encoding of a non-negative integer.

    With ``length == 0`` the minimal number of bytes is used (at least 1).
    """
    if n < 0:
        raise ValueError("negative integers are not supported")
    if length == 0:
        length = max(1, (n.bit_length() + 7) // 8)
    return n.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")
