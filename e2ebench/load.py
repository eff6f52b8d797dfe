"""Workloads: seeded inputs, the client-side closed loops and their checks.

Every workload runs mcTLS in the default handshake mode through one
middlebox, with the TestBed defaults (1024-bit RSA, 1024-bit DHE, RSA key
transport).  The client is the only load generator and holds at most two
connections.  An op's inputs come only from the seed: op ``i`` of session
``s`` is the same bytes on every run with that seed.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from parties import OBJECT_REQUEST

CONTEXT_ID = 1
SESSIONS = 2
IN_FLIGHT = 8  # small_records: records outstanding per session
ECHO_BYTES = 32  # handshake_churn: one echo per op
RECORD_SIZES = (32, 512)  # small_records: uniform, inclusive
BLOCK_BYTES = 2_200_000  # bulk_transfer: objects are slices of this block
# bulk_transfer draws object-size quantiles stratified: every run of STRATA
# objects on a session holds one from each 1/STRATA band, so the tail that
# sets op_p99_ms is the same share of every run instead of luck of the seed.
STRATA = 100
OP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    permission: str  # middlebox permission on context 1: "READ" | "WRITE"
    suite_id: int
    rewrite: bool  # the WRITE hop rewrites client->server records
    persistent: bool  # sessions handshaken during set-up


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("handshake_churn", "WRITE", 0xFF67, rewrite=True, persistent=False),
        Workload("small_records", "WRITE", 0xFF68, rewrite=True, persistent=True),
        Workload("bulk_transfer", "READ", 0xFF67, rewrite=False, persistent=True),
    )
}


def rewrite_c2s(direction: str, context_id: int, payload: bytes) -> bytes:
    """The WRITE hop's transformer: add one to the first byte, c2s only."""
    if direction == "c2s":
        return bytes(((payload[0] + 1) & 0xFF,)) + payload[1:]
    return payload


def rewrite_both(direction: str, context_id: int, payload: bytes) -> bytes:
    """A transformer the checker does not expect: it also rewrites s2c."""
    return bytes(((payload[0] + 1) & 0xFF,)) + payload[1:]


TRANSFORMERS = {"c2s": rewrite_c2s, "both": rewrite_both}


class Inputs:
    """Seeded op inputs.  ``block`` is shared with the server by fork."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        size = BLOCK_BYTES if workload.name == "bulk_transfer" else 1 << 16
        self.block = random.Random(seed).randbytes(size)
        self._streams = [random.Random(seed * 1009 + 17 * s + 1) for s in range(SESSIONS)]
        self._strata: List[List[float]] = [[] for _ in range(SESSIONS)]

    def echo_payload(self, session: int) -> bytes:
        rng = self._streams[session]
        if self.workload.name == "handshake_churn":
            size = ECHO_BYTES
        else:
            size = rng.randint(*RECORD_SIZES)
        offset = rng.randrange(len(self.block) - size)
        return self.block[offset : offset + size]

    def object_request(self, session: int):
        from repro.workloads.alexa import object_size_quantile

        rng = self._streams[session]
        strata = self._strata[session]
        if not strata:
            strata.extend((band + rng.random()) / STRATA for band in range(STRATA))
            rng.shuffle(strata)
        size = object_size_quantile(strata.pop())
        offset = rng.randrange(len(self.block) - size + 1)
        return offset, size


def expected_echo(workload: Workload, payload: bytes) -> bytes:
    """What the client must get back: the c2s rewrite applied exactly once."""
    return rewrite_c2s("c2s", CONTEXT_ID, payload) if workload.rewrite else payload


class EchoMismatch(Exception):
    pass


class ObjectMismatch(Exception):
    pass


@dataclass
class Window:
    """When the closed loops stop issuing ops.

    A window lasts ``seconds``; if fewer than ``min_ops`` ops finished by
    then, it stretches until they have, up to ``cap_s``.
    """

    seconds: float
    min_ops: int = 0
    cap_s: float = 0.0
    start: float = field(default_factory=time.perf_counter)
    finished: int = 0

    def open(self) -> bool:
        elapsed = time.perf_counter() - self.start
        if elapsed < self.seconds:
            return True
        return self.finished < self.min_ops and elapsed < max(self.cap_s, self.seconds)


@dataclass
class Tally:
    start: float = 0.0  # window start (perf_counter)
    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    done_at: List[float] = field(default_factory=list)
    done_bytes: List[int] = field(default_factory=list)
    app_bytes_in: int = 0
    wire_bytes_in: int = 0
    records_in: int = 0
    handshake_bytes: List[int] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    # (perf_counter, /proc/stat (steal, total) ticks or None), per slice
    host_samples: List[Tuple[float, Optional[Tuple[int, int]]]] = field(default_factory=list)

    def succeed(self, started: float, nbytes: int) -> None:
        now = time.perf_counter()
        self.latencies.append(now - started)
        self.done_at.append(now)
        self.done_bytes.append(nbytes)

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        self.errors[type(exc).__name__] += 1


class Client:
    """The load generator: sessions, closed loops and per-op checks."""

    def __init__(self, bed, workload: Workload, inputs: Inputs, port: int):
        from repro.experiments.harness import Mode
        from repro.experiments.serving import client_connection_factory
        from repro.mctls import Permission

        self.workload = workload
        self.inputs = inputs
        self.addr = ("127.0.0.1", port)
        topology = bed.topology(1, n_contexts=1, permission=Permission[workload.permission])
        self.make_connection = client_connection_factory(bed, Mode.MCTLS, topology=topology)
        self.sessions: List = []

    # -- sessions --------------------------------------------------------

    async def open_session(self, tally: Optional[Tally] = None):
        from repro.aio import connect

        conn = await connect(self.addr, self.make_connection(), default_timeout=OP_TIMEOUT_S)
        try:
            await conn.handshake(OP_TIMEOUT_S)
            self.check_negotiated(conn.connection)
        except BaseException:
            await conn.close()
            raise
        if tally is not None:
            tally.handshake_bytes.append(conn.bytes_in + conn.bytes_out)
        return conn

    def check_negotiated(self, connection) -> None:
        suite = connection.negotiated_suite.suite_id
        if suite != self.workload.suite_id:
            raise AssertionError(f"negotiated suite 0x{suite:04x}, want 0x{self.workload.suite_id:04x}")
        if connection.mode.name != "DEFAULT":
            raise AssertionError(f"negotiated handshake mode {connection.mode.name}")

    async def open_sessions(self, tally: Tally) -> None:
        for _ in range(SESSIONS):
            self.sessions.append(await self.open_session(tally))

    async def close_sessions(self) -> None:
        for conn in self.sessions:
            await conn.close()
        self.sessions = []

    # -- closed loops ----------------------------------------------------

    async def run(self, window: Window, tally: Tally) -> None:
        loop = {
            "handshake_churn": self._churn_loop,
            "small_records": self._records_loop,
            "bulk_transfer": self._bulk_loop,
        }[self.workload.name]
        await asyncio.gather(*(loop(s, window, tally) for s in range(SESSIONS)))

    async def churn_op(self, session: int, tally: Tally, hold=None) -> int:
        """Connect, full handshake, one 32 B echo on context 1, close.

        ``hold`` (set-up only) is called while the session is open, so the
        parties can be inspected mid-session.
        """
        payload = self.inputs.echo_payload(session)
        conn = await self.open_session(tally)
        try:
            if hold is not None:
                hold()
            await conn.send(payload, context_id=CONTEXT_ID)
            event = await conn.recv_app_data(OP_TIMEOUT_S)
            tally.app_bytes_in += len(event.data)
            if event.data != expected_echo(self.workload, payload):
                raise EchoMismatch("echo differs from the c2s-rewritten payload")
        finally:
            await conn.close()
        return len(event.data)

    async def _churn_loop(self, session: int, window: Window, tally: Tally) -> None:
        while window.open():
            tally.attempted += 1
            start = time.perf_counter()
            try:
                nbytes = await self.churn_op(session, tally)
            except Exception as exc:  # each op has its own connection
                tally.fail(exc)
            else:
                tally.succeed(start, nbytes)
            window.finished += 1

    async def _records_loop(self, session: int, window: Window, tally: Tally) -> None:
        conn = self.sessions[session]
        pending: deque = deque()

        async def send_one() -> None:
            payload = self.inputs.echo_payload(session)
            tally.attempted += 1
            pending.append((time.perf_counter(), expected_echo(self.workload, payload)))
            await conn.send(payload, context_id=CONTEXT_ID)

        wire_start = conn.bytes_in
        try:
            for _ in range(IN_FLIGHT):
                await send_one()
            while pending:
                event = await conn.recv_app_data(OP_TIMEOUT_S)
                sent_at, expected = pending.popleft()
                tally.app_bytes_in += len(event.data)
                tally.records_in += 1
                window.finished += 1
                if event.data == expected:
                    tally.succeed(sent_at, len(event.data))
                else:
                    tally.fail(EchoMismatch())
                if window.open():
                    await send_one()
        except Exception as exc:
            # The session is unusable: every op still in flight fails.
            for _ in pending:
                tally.fail(exc)
            pending.clear()
        tally.wire_bytes_in += conn.bytes_in - wire_start

    async def _bulk_loop(self, session: int, window: Window, tally: Tally) -> None:
        conn = self.sessions[session]
        block = self.inputs.block
        wire_start = conn.bytes_in
        while window.open():
            offset, size = self.inputs.object_request(session)
            tally.attempted += 1
            start = time.perf_counter()
            try:
                await conn.send(OBJECT_REQUEST.pack(offset, size), context_id=CONTEXT_ID)
                body = bytearray()
                while len(body) < size:
                    event = await conn.recv_app_data(OP_TIMEOUT_S)
                    body += event.data
                    tally.records_in += 1
                tally.app_bytes_in += len(body)
                if body != block[offset : offset + size]:
                    raise ObjectMismatch(f"object of {size} B differs")
            except ObjectMismatch as exc:
                tally.fail(exc)
            except Exception as exc:
                tally.fail(exc)
                break  # the session is unusable
            else:
                tally.succeed(start, size)
            finally:
                window.finished += 1
        tally.wire_bytes_in += conn.bytes_in - wire_start
