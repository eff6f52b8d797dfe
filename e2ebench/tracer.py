"""Class-level span tracer and per-party meter for the benchmark.

The tracer wraps methods *by name* at class level (``"module:Class.method"``)
and module functions by name (``"module:function"``, replaced in every
``repro`` module that imported the same function object).  A name that no
longer exists is skipped and listed, never an error, so refactors that delete
a record path do not break the benchmark.

Spans measure the calling thread's CPU time.  A span's *self* time is its
duration minus the time of the wrapped calls nested in it, and it is charged
to the span's key.  Crypto spans are leaves: wrapped calls made inside them
(an HMAC inside the PRF, a keystream inside a record cipher) are part of the
leaf and are not timed separately.

:class:`PartyMeter` is what each party process (client, middlebox, server)
runs around a measurement window: CPU from ``getrusage``, main-thread CPU,
keystream-pool counters, peak RSS and, when tracing, the span totals and the
Table 3 op counts from ``repro.crypto.opcount.counting()``.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

_clock = time.thread_time_ns

Key = Union[str, Callable[[object], str]]
# counts(counters, key, args, result): adds event counts after a span ends.
Counts = Callable[[Dict[str, int], str, tuple, object], None]


@dataclass(frozen=True)
class Target:
    """One traced name.

    ``key`` names the bucket the span's self time goes to; a callable gets
    the instance (first argument) and picks the bucket at call entry.
    ``timed=False`` only counts calls (used for coroutine functions, whose
    work happens after the call returns).
    """

    spec: str
    key: Key
    leaf: bool = False
    counts: Optional[Counts] = None
    timed: bool = True


class Tracer:
    """Installs and removes wrappers; accumulates self time per key."""

    def __init__(self, targets: List[Target]):
        self.targets = targets
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        self.skipped: List[str] = []
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.counters.clear()

    def install(self) -> None:
        if self._undo:
            return
        self.skipped = []
        for target in self.targets:
            if not self._install_one(target):
                self.skipped.append(target.spec)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _install_one(self, target: Target) -> bool:
        module_name, _, attr = target.spec.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = getattr(owner, name, None) if isinstance(owner, type) else None
            if not callable(original):
                return False
            own = owner.__dict__.get(name)
            setattr(owner, name, self._wrap(original, target))
            if own is None:
                self._undo.append(lambda: delattr(owner, name))
            else:
                self._undo.append(lambda: setattr(owner, name, own))
            return True
        original = getattr(module, name, None)
        if not callable(original):
            return False
        wrapper = self._wrap(original, target)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            namespace = getattr(mod, "__dict__", {})
            for attr_name, value in list(namespace.items()):
                if value is original:
                    namespace[attr_name] = wrapper
                    self._undo.append(
                        lambda ns=namespace, a=attr_name: ns.__setitem__(a, original)
                    )
        return True

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        counters = self.counters
        key = target.key
        if not target.timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        leaf = target.leaf
        counts = target.counts
        fixed_key = key if isinstance(key, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][2]:
                return fn(*args, **kwargs)
            k = fixed_key if fixed_key is not None else key(args[0])
            frame = [0, 0, leaf]
            stack.append(frame)
            frame[0] = start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                self_ns[k] += elapsed - frame[1]
                calls[k] += 1
                if stack:
                    stack[-1][1] += elapsed
            if counts is not None:
                counts(counters, k, args, result)
            return result

        return traced


def _rusage_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _calibration() -> Dict[str, object]:
    """Code paths this process picked by timing at import or first use."""
    from repro.crypto import fastcipher, provider

    mac_cls = getattr(provider.OPENSSL, "_mac_cls", None)
    return {
        "xor_crossover": getattr(fastcipher, "_NUMPY_MIN_BYTES", None),
        "hmac_backend": getattr(mac_cls, "__name__", None),
    }


class PartyMeter:
    """Per-process accounting for one measurement window."""

    def __init__(self, targets: List[Target]):
        self.tracer = Tracer(targets)
        self._base = (0.0, 0, 0.0)
        self._opcount = None
        self._ops = None

    def reset(self, trace: bool) -> None:
        from repro.crypto.fastcipher import KEYSTREAM_POOL, clear_keystream_cache
        from repro.crypto.opcount import counting

        # Cold data plane: no memoized keystream survives into a window.
        clear_keystream_cache()
        KEYSTREAM_POOL.reset_stats()
        if trace:
            self.tracer.install()
            self.tracer.reset()
            self._opcount = counting()
            self._ops = self._opcount.__enter__()
        self._base = (_rusage_cpu_s(), _clock(), time.perf_counter())

    def snapshot(self) -> Dict[str, object]:
        from repro.crypto.fastcipher import KEYSTREAM_POOL

        cpu_s = _rusage_cpu_s() - self._base[0]
        thread_cpu_s = (_clock() - self._base[1]) / 1e9
        wall_s = time.perf_counter() - self._base[2]
        pool = KEYSTREAM_POOL.stats()
        snap: Dict[str, object] = {
            "cpu_s": cpu_s,
            "thread_cpu_s": thread_cpu_s,
            "wall_s": wall_s,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "pool": {"hit": pool["hit"], "miss": pool["miss"]},
            "calibration": _calibration(),
        }
        if self.tracer.installed:
            self._opcount.__exit__(None, None, None)
            self.tracer.uninstall()
            snap["self_s"] = {k: v / 1e9 for k, v in self.tracer.self_ns.items()}
            snap["calls"] = dict(self.tracer.calls)
            snap["counters"] = dict(self.tracer.counters)
            snap["ops"] = self._ops.snapshot()
            snap["skipped"] = list(self.tracer.skipped)
            self._opcount = self._ops = None
        return snap
