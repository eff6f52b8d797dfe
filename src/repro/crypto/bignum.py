"""Modular exponentiation on libcrypto's bignum engine.

RSA and Diffie-Hellman spend nearly all of their time in one primitive,
``base ** exp mod mod``.  :func:`modexp` runs it on the OpenSSL libcrypto
that CPython's ``hashlib`` already links for SHA-256, through ``ctypes``;
everything above the arithmetic (padding, CRT recombination, key
generation, Miller-Rabin, DH validation) stays pure Python.

Odd moduli go through ``BN_mod_exp_mont_consttime``, so secret exponents
are processed in constant time (the built-in ``pow`` is not).  The
built-in ``pow`` is used only when libcrypto cannot be loaded or the
modulus is even; the result is the same integer either way.
:data:`BACKEND` names the engine in use.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import threading
from typing import Optional


def _load() -> Optional[ctypes.CDLL]:
    """The libcrypto ``_hashlib`` links, with the bignum calls declared."""
    p = ctypes.c_void_p
    for name in ("libcrypto.so.3", ctypes.util.find_library("crypto")):
        if not name:
            continue
        try:
            lib = ctypes.CDLL(name)
            for fn, restype, argtypes in (
                ("BN_CTX_new", p, ()),
                ("BN_CTX_free", None, (p,)),
                ("BN_new", p, ()),
                ("BN_free", None, (p,)),
                ("BN_bin2bn", p, (ctypes.c_char_p, ctypes.c_int, p)),
                ("BN_bn2binpad", ctypes.c_int, (p, ctypes.c_char_p, ctypes.c_int)),
                ("BN_mod_exp_mont_consttime", ctypes.c_int, (p, p, p, p, p, p)),
            ):
                func = getattr(lib, fn)
                func.restype = restype
                func.argtypes = argtypes
        except (OSError, AttributeError):
            continue
        return lib
    return None


_lib = _load()
BACKEND = "pow" if _lib is None else "libcrypto"


class _Scratch:
    """One thread's ``BN_CTX`` and the four BIGNUMs of a call
    (result, base, exponent, modulus), freed when the thread ends."""

    __slots__ = ("lib", "ctx", "r", "a", "p", "m")

    def __init__(self, lib: ctypes.CDLL) -> None:
        self.lib = lib
        self.ctx = lib.BN_CTX_new()
        self.r, self.a, self.p, self.m = (lib.BN_new() for _ in range(4))
        if not all((self.ctx, self.r, self.a, self.p, self.m)):
            raise MemoryError("libcrypto bignum allocation failed")

    def __del__(self) -> None:
        for bn in (self.r, self.a, self.p, self.m):
            if bn:
                self.lib.BN_free(bn)
        if self.ctx:
            self.lib.BN_CTX_free(self.ctx)


_local = threading.local()


def modexp(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)`` for ``exp >= 0`` and ``mod >= 1``."""
    lib = _lib
    if lib is None or not mod & 1 or mod < 3 or exp < 0:
        return pow(base, exp, mod)
    s = getattr(_local, "scratch", None)
    if s is None:
        s = _local.scratch = _Scratch(lib)
    k = (mod.bit_length() + 7) >> 3
    base %= mod
    e = exp.to_bytes((exp.bit_length() + 7) >> 3, "big")
    lib.BN_bin2bn(base.to_bytes(k, "big"), k, s.a)
    lib.BN_bin2bn(e, len(e), s.p)
    lib.BN_bin2bn(mod.to_bytes(k, "big"), k, s.m)
    if not lib.BN_mod_exp_mont_consttime(s.r, s.a, s.p, s.m, s.ctx, None):
        raise ArithmeticError("BN_mod_exp_mont_consttime failed")
    out = ctypes.create_string_buffer(k)
    lib.BN_bn2binpad(s.r, out, k)
    return int.from_bytes(out.raw, "big")
