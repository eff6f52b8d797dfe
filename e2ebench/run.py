#!/usr/bin/env python3
"""End-to-end mcTLS benchmark over per-party loopback processes.

    python3 e2ebench/run.py --workload small_records --seed 1 --seconds 45 --trace 0

Workloads: ``handshake_churn``, ``small_records``, ``bulk_transfer`` (see
``load.py`` and README.md).  This process is the client and the only load
generator; the middlebox and the server run the ``repro.aio`` servers in
processes forked after key set-up.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs half the window untraced and
half traced and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Every op's reply is checked byte for byte; the exit code is 0
only when every op passed.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import contextlib
import json
import math
import os
import platform
import random
import secrets
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# Set-up is timed SETUP_REPEATS times per run, each in a fresh interpreter
# (``--setup-only``), so interpreter start and imports count and every
# sample is cold; setup_s is the median over the quieter half of them.
SETUP_REPEATS = 5
SETUP_QUIET_SHARE = 1 / 2
SETUP_TIMEOUT_S = 60.0
# Key generation draws from a generator seeded with this constant, so every
# set-up finds the same primes and does the same work: set-up time then
# moves with the program and the host, not with luck of the prime search.
KEY_SEED = 0x6D63544C53
MIN_OPS = 1000  # so that ten latency samples lie beyond p99
# The window is cut into slices of SLICE_S seconds; the hypervisor's steal
# (CPU time it gives other guests) is read at every slice boundary.  Rates
# and op_p50_ms are medians over the quiet slices: those with no more steal
# than the QUIET_SHARE-th quietest slice (ties included) or STEAL_FLOOR, so
# minutes in which other tenants take this guest's CPUs move few figures.
SLICE_S = 1.0
QUIET_SHARE = 1 / 3
# A stray tick or two of steal in a second is not an episode: a slice (or a
# set-up) with no more steal than this always counts as quiet.
STEAL_FLOOR = 0.02
CAP_FACTOR = 3.0  # a window stretches to at most this many --seconds
# Ops run (and are checked) this long before the first window, so that
# fresh processes' first-use costs do not land in the measured latencies.
WARMUP_S = 2.0

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "goodput_MBps": "MB/s",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_MB": "MB",
}


class SetupError(Exception):
    pass


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


@contextlib.contextmanager
def fixed_key_randomness(seed: int = KEY_SEED):
    """Serve ``secrets``' draws from ``random.Random(seed)`` for the block.

    Only key set-up runs inside it; handshakes, forked parties and every
    later draw use the system generator again.
    """
    rng = random.Random(seed)
    patched = {
        "randbits": rng.getrandbits,
        "randbelow": rng.randrange,
        "token_bytes": rng.randbytes,
    }
    saved = {name: getattr(secrets, name) for name in patched}
    for name, draw in patched.items():
        setattr(secrets, name, draw)
    try:
        yield
    finally:
        for name, draw in saved.items():
            setattr(secrets, name, draw)


def make_bed(suite_id: int):
    """A TestBed (defaults: 1024-bit RSA and DHE, RSA key transport) that
    offers only ``suite_id``, with the one middlebox identity generated
    from fixed key randomness."""
    from repro.experiments.harness import TestBed
    from repro.tls.ciphersuites import suite_by_id

    suite = suite_by_id(suite_id)

    class Bed(TestBed):
        __test__ = False

        @property
        def suites(self):
            return (suite,)

    with fixed_key_randomness():
        bed = Bed()
        bed.middlebox_identities(1)
    return bed


def start_parties(bed, workload, inputs, rewrite: str):
    from load import TRANSFORMERS
    from parties import PartyProcess, PartySpec

    block = inputs.block if workload.name == "bulk_transfer" else b""
    server = PartyProcess(PartySpec("server", bed, block=block))
    try:
        mbox = PartyProcess(
            PartySpec(
                "mbox",
                bed,
                upstream_port=server.port,
                transformer=TRANSFORMERS[rewrite] if workload.rewrite else None,
            )
        )
    except BaseException:
        server.stop()
        raise
    return {"mbox": mbox, "server": server}


def stop_parties(parties) -> None:
    for party in parties.values():
        party.stop()


def check_parties(parties, workload, sessions: int) -> None:
    """Set-up assertions on the far side: suite, mode and permission."""
    for role, party in parties.items():
        live = [d for d in party.call("inspect") if d["complete"]]
        if len(live) != sessions:
            raise SetupError(f"{role}: {len(live)} live sessions, want {sessions}")
        for desc in live:
            if desc["suite"] != workload.suite_id or desc["mode"] != "DEFAULT":
                raise SetupError(f"{role}: negotiated {desc}")
            if role == "mbox" and desc["permissions"] != {"1": workload.permission}:
                raise SetupError(f"mbox permissions {desc['permissions']}")


async def setup_sessions(client, parties, workload, tally) -> None:
    from load import SESSIONS

    if workload.persistent:
        await client.open_sessions(tally)
        check_parties(parties, workload, SESSIONS)
    else:
        # One probe op, inspected while open; its echo is checked too.
        await client.churn_op(0, tally, hold=lambda: check_parties(parties, workload, 1))


def host_cpu_ticks():
    """(steal, total) jiffies of the whole host from /proc/stat, or None."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal; guest time is in user.
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


async def sample_host(samples) -> None:
    """Append (perf_counter, host ticks) now and every SLICE_S seconds."""
    while True:
        samples.append((time.perf_counter(), host_cpu_ticks()))
        await asyncio.sleep(SLICE_S)


async def measure(client, parties, meter, workload, seconds, min_ops, trace):
    from load import Tally, Window

    quiesce = not workload.persistent
    for party in parties.values():
        party.call("reset", trace, quiesce)
    meter.reset(trace)
    window = Window(seconds, min_ops, seconds * CAP_FACTOR)
    tally = Tally(start=window.start)
    sampler = asyncio.ensure_future(sample_host(tally.host_samples))
    try:
        await client.run(window, tally)
    finally:
        sampler.cancel()
    tally.host_samples.append((time.perf_counter(), host_cpu_ticks()))
    elapsed = time.perf_counter() - window.start
    snaps = {"client": meter.snapshot()}
    for role, party in parties.items():
        snaps[role] = party.call("snapshot", quiesce)
    return tally, elapsed, snaps


@dataclass
class SetupSample:
    seconds: float
    steal: float


def steal_between(ticks0, ticks1) -> float:
    """Share of host CPU time stolen between two host_cpu_ticks(); 0.0
    when unknown."""
    if ticks0 is None or ticks1 is None or ticks1[1] <= ticks0[1]:
        return 0.0
    return (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])


def time_setups(args) -> list:
    """Run ``--setup-only`` in a fresh interpreter SETUP_REPEATS times."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--rewrite", args.rewrite, "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        ticks = host_cpu_ticks()
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise SetupError(f"--setup-only exited {proc.returncode}: {proc.stderr[-2000:]}")
        samples.append(SetupSample(seconds, steal_between(ticks, host_cpu_ticks())))
    return samples


@dataclass
class Slice:
    seconds: float
    steal: float  # share of host CPU time stolen; 0.0 when unknown
    ops: int
    nbytes: int
    latencies: list


def slices(tally) -> list:
    """The window's slices between consecutive host samples; a last slice
    shorter than half of SLICE_S is dropped unless it is the only one."""
    out = []
    samples = tally.host_samples
    for (t0, ticks0), (t1, ticks1) in zip(samples, samples[1:]):
        if t1 - t0 < SLICE_S / 2 and len(samples) > 2:
            continue
        lo = bisect.bisect_left(tally.done_at, t0)
        hi = bisect.bisect_left(tally.done_at, t1)
        out.append(
            Slice(
                t1 - t0,
                steal_between(ticks0, ticks1),
                hi - lo,
                sum(tally.done_bytes[lo:hi]),
                tally.latencies[lo:hi],
            )
        )
    return out


def quiet(items, share: float = QUIET_SHARE) -> list:
    """The items (each with a ``steal``) with no more steal than the
    ``share``-th quietest of them (ties included) or STEAL_FLOOR."""
    if not items:
        return []
    ranked = sorted(item.steal for item in items)
    limit = max(STEAL_FLOOR, ranked[max(0, math.ceil(len(ranked) * share) - 1)])
    return [item for item in items if item.steal <= limit]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def sliced_quantile(latencies, q: float) -> float:
    """Median of the ``q``-quantile over equal consecutive runs of at least
    MIN_OPS ops (latencies are in completion order)."""
    count = max(1, len(latencies) // MIN_OPS)
    size = len(latencies) // count
    return statistics.median(
        quantile(latencies[i * size : (i + 1) * size], q) for i in range(count)
    )


def end_to_end(tally, elapsed, snaps, setup_s) -> dict:
    done = len(tally.latencies)
    cpu_s = sum(snap["cpu_s"] for snap in snaps.values())
    calm = quiet(slices(tally))
    values = {
        "ops_per_s": median_or_zero([s.ops / s.seconds for s in calm]),
        "op_p50_ms": median_or_zero([quantile(s.latencies, 0.5) for s in calm if s.ops]) * 1e3,
        "goodput_MBps": median_or_zero([s.nbytes / s.seconds for s in calm]) / 1e6,
        "cpu_ms_per_op": cpu_s * 1e3 / done if done else 0.0,
        "setup_s": setup_s,
        "peak_rss_MB": sum(snap["peak_rss_kb"] for snap in snaps.values()) / 1024,
    }
    return values


def declared_state() -> dict:
    versions = {"python": platform.python_version()}
    for name in ("cryptography", "numpy"):
        try:
            versions[name] = __import__(name).__version__
        except ImportError:
            versions[name] = None
    return {
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "versions": versions,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def window_report(tally, elapsed, snaps) -> dict:
    all_slices = slices(tally)
    calm = quiet(all_slices)
    return {
        "elapsed_s": elapsed,
        "samples": len(tally.latencies),
        # Reported, not gated: see README.md on op_p99_ms.
        "op_p99_ms": sliced_quantile(tally.latencies, 0.99) * 1e3,
        "slice_ops_per_s": [s.ops / s.seconds for s in all_slices],
        # CPU time the hypervisor gave to other guests, per slice.
        "slice_steal_share": [s.steal for s in all_slices],
        "quiet_slices": len(calm),
        # The same figures over every slice, for comparison.
        "all_slices": {
            "ops_per_s": median_or_zero([s.ops / s.seconds for s in all_slices]),
            "op_p50_ms": sliced_quantile(tally.latencies, 0.5) * 1e3,
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": dict(tally.errors),
        "keystream_pool": {role: snap["pool"] for role, snap in snaps.items()},
        "calibration": {role: snap["calibration"] for role, snap in snaps.items()},
        "cpu_s": {role: snap["cpu_s"] for role, snap in snaps.items()},
    }


async def run_measured(args, workload, inputs, bed, parties, t_setup0):
    from layers import TARGETS, per_layer_values
    from load import Client, Tally, Window
    from tracer import PartyMeter

    client = Client(bed, workload, inputs, parties["mbox"].port)
    setup_tally = Tally()
    warmup = Tally()
    try:
        await setup_sessions(client, parties, workload, setup_tally)
        setup_s = time.perf_counter() - t_setup0
        await client.run(Window(WARMUP_S), warmup)
        meter = PartyMeter(TARGETS)
        if not args.trace:
            tally, elapsed, snaps = await measure(
                client, parties, meter, workload, args.seconds, MIN_OPS, False
            )
            return setup_s, warmup, [(tally, elapsed, snaps)], None
        half = args.seconds / 2
        plain = await measure(client, parties, meter, workload, half, 0, False)
        # Fresh sessions for the traced half, opened after the wrappers are
        # in place, so every call on them goes through the tracer.
        await client.close_sessions()
        for party in parties.values():
            party.call("trace_on")
        meter.tracer.install()
        if workload.persistent:
            await client.open_sessions(Tally())
        traced = await measure(client, parties, meter, workload, half, 0, True)
    finally:
        await client.close_sessions()

    tally, elapsed, snaps = traced
    plain_rate = len(plain[0].latencies) / plain[1]
    overhead = len(tally.latencies) / elapsed / plain_rate if plain_rate else 0.0
    hs = tally.handshake_bytes if not workload.persistent else setup_tally.handshake_bytes
    wire = {
        "handshake_bytes": statistics.fmean(hs) if hs else 0.0,
        "overhead_bytes_per_rec": (
            (tally.wire_bytes_in - tally.app_bytes_in) / tally.records_in
            if tally.records_in
            else 0.0
        ),
    }
    layers = per_layer_values(snaps, len(tally.latencies), wire, overhead)
    return setup_s, warmup, [plain, traced], layers


async def setup_only(workload, inputs, bed, parties) -> None:
    from load import Client, Tally

    client = Client(bed, workload, inputs, parties["mbox"].port)
    try:
        await setup_sessions(client, parties, workload, Tally())
    finally:
        await client.close_sessions()


def setup_once(args) -> int:
    """One cold set-up (``--setup-only``): keys, party processes, sessions
    and their checks, then a clean stop."""
    from load import WORKLOADS, Inputs

    workload = WORKLOADS[args.workload]
    inputs = Inputs(workload, args.seed)
    bed = make_bed(workload.suite_id)
    parties = start_parties(bed, workload, inputs, args.rewrite)
    try:
        asyncio.run(setup_only(workload, inputs, bed, parties))
    finally:
        stop_parties(parties)
    return 0


def run(args) -> int:
    from layers import unit_of
    from load import WORKLOADS, Inputs

    workload = WORKLOADS[args.workload]
    inputs = Inputs(workload, args.seed)

    t0 = time.perf_counter()
    bed = make_bed(workload.suite_id)
    parties = start_parties(bed, workload, inputs, args.rewrite)
    try:
        setup_s, warmup, windows, layers = asyncio.run(
            run_measured(args, workload, inputs, bed, parties, t0)
        )
    finally:
        stop_parties(parties)
    setup_samples = time_setups(args)

    attempted = warmup.attempted + sum(w[0].attempted for w in windows)
    failed = warmup.failed + sum(w[0].failed for w in windows)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s_samples": [sample.seconds for sample in setup_samples],
        "setup_steal_share": [sample.steal for sample in setup_samples],
        # This run's own set-up, warm (imports done): not the metric.
        "setup_s_in_run": setup_s,
        "warmup": {
            "attempted": warmup.attempted,
            "failed": warmup.failed,
            "errors": dict(warmup.errors),
        },
        "windows": [window_report(*w) for w in windows],
        **declared_state(),
    }
    if args.trace:
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()}
        report["trace_skipped"] = windows[-1][2]["client"]["skipped"]
    else:
        calm = quiet(setup_samples, SETUP_QUIET_SHARE)
        values = end_to_end(*windows[0], statistics.median(x.seconds for x in calm))
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    print("report " + json.dumps(report, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>14.4f} {metric['unit']}")
    correct = failed == 0 and attempted > 0
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("handshake_churn", "small_records", "bulk_transfer"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rewrite",
        choices=("c2s", "both"),
        default="c2s",
        help="the WRITE hop's transformer; 'both' also rewrites server->client "
        "records, which the checker must reject (smoke test only)",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up once, check, stop, print nothing (times setup_s)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return setup_once(args) if args.setup_only else run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
