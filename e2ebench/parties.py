"""The middlebox and server parties, each in its own forked process.

Both are forked after key set-up, so they inherit the key material
instead of receiving it pickled, and each runs a ``repro.aio`` server
(:class:`AsyncRelayServer` / :class:`AsyncEndpointServer`) on its own
event loop.  One process per party is the deployment layout, and it
keeps the in-process keystream memo from turning one party's keystream
into another party's cache hit.

The parent drives each party over a pipe with small commands: ``reset``
(start a measurement window, optionally traced), ``snapshot`` (end it
and report), ``trace_on`` (install the tracer ahead of a traced window),
``inspect`` (negotiated state of live sessions) and ``stop``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import struct
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from layers import TARGETS
from tracer import PartyMeter

LOOPBACK = "127.0.0.1"
IDLE_TIMEOUT_S = 120.0
CONTROL_TIMEOUT_S = 60.0
_FORK = multiprocessing.get_context("fork")

# A request for one bulk object: offset and size into the shared block.
OBJECT_REQUEST = struct.Struct("!II")


@dataclass
class PartySpec:
    role: str  # "server" | "mbox"
    bed: object  # TestBed, inherited across fork
    block: bytes = b""  # bulk_transfer object source
    upstream_port: int = 0
    transformer: Optional[Callable] = None


def _object_handler(block: bytes):
    async def serve_objects(conn) -> None:
        while True:
            event = await conn.recv_app_data()
            offset, size = OBJECT_REQUEST.unpack(event.data)
            await conn.send(block[offset : offset + size], context_id=event.context_id)

    return serve_objects


def _describe(obj) -> Dict[str, object]:
    suite = getattr(obj, "negotiated_suite", None) or getattr(obj, "suite", None)
    permissions = getattr(obj, "permissions", None) or {}
    return {
        "complete": bool(obj.handshake_complete),
        "suite": suite.suite_id if suite is not None else None,
        "mode": obj.mode.name,
        "permissions": {str(k): v.name for k, v in permissions.items()},
    }


class _Party:
    """Runs inside the child: the server object plus its meter."""

    def __init__(self, spec: PartySpec):
        from repro.aio import AsyncEndpointServer, AsyncRelayServer
        from repro.experiments.harness import Mode
        from repro.experiments.serving import echo_handler, server_connection_factory
        from repro.mctls import McTLSMiddlebox

        self.spec = spec
        self.meter = PartyMeter(TARGETS)
        self.live: "weakref.WeakSet" = weakref.WeakSet()
        bed = spec.bed
        if spec.role == "server":
            make_server = server_connection_factory(bed, Mode.MCTLS)

            def factory(*args):
                conn = make_server(*args)
                self.live.add(conn)
                return conn

            handler = _object_handler(spec.block) if spec.block else echo_handler
            self.server = AsyncEndpointServer(
                (LOOPBACK, 0),
                factory,
                handler,
                handshake_timeout=IDLE_TIMEOUT_S,
                idle_timeout=IDLE_TIMEOUT_S,
            )
        else:
            identity = bed.middlebox_identities(1)[0]

            def relay_factory():
                mbox = McTLSMiddlebox(
                    identity.name,
                    bed.mbox_tls_config(identity),
                    transformer=spec.transformer,
                )
                self.live.add(mbox)
                return mbox

            self.server = AsyncRelayServer(
                (LOOPBACK, 0),
                (LOOPBACK, spec.upstream_port),
                relay_factory,
                idle_timeout=IDLE_TIMEOUT_S,
            )

    async def quiesce(self, timeout: float = 10.0) -> None:
        """Wait until no connection is open (churn windows end on whole ops)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self.server.stats.active and loop.time() < deadline:
            await asyncio.sleep(0.005)

    async def handle(self, msg: tuple):
        command = msg[0]
        if command == "reset":
            if msg[2]:
                await self.quiesce()
            self.meter.reset(trace=msg[1])
            return "ok"
        if command == "snapshot":
            if msg[1]:
                await self.quiesce()
            snap = self.meter.snapshot()
            snap["stats"] = self.server.stats.snapshot()
            return snap
        if command == "trace_on":
            # Before the traced sessions open: a relay binds its
            # receive_from_* methods once per session.
            await self.quiesce()
            self.meter.tracer.install()
            return "ok"
        if command == "inspect":
            return [_describe(obj) for obj in list(self.live) if not obj.closed]
        raise ValueError(f"unknown command {command!r}")


async def _serve(spec: PartySpec, pipe) -> None:
    from repro.crypto.fastcipher import KEYSTREAM_POOL, clear_keystream_cache

    clear_keystream_cache()
    KEYSTREAM_POOL.reset_stats()
    party = _Party(spec)
    await party.server.start()
    pipe.send(party.server.port)
    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def on_readable() -> None:
        try:
            commands.put_nowait(pipe.recv())
        except (EOFError, OSError):
            commands.put_nowait(("stop",))

    loop.add_reader(pipe.fileno(), on_readable)
    try:
        while True:
            msg = await commands.get()
            if msg[0] == "stop":
                break
            try:
                reply = await party.handle(msg)
            except Exception as exc:  # reported to the parent, which raises
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            pipe.send(reply)
    finally:
        loop.remove_reader(pipe.fileno())
        await party.server.stop(graceful=False)
    pipe.send("stopped")


def _party_main(spec: PartySpec, pipe) -> None:
    asyncio.run(_serve(spec, pipe))


class PartyProcess:
    """Parent-side handle: start, command and stop one party process."""

    def __init__(self, spec: PartySpec):
        self.role = spec.role
        self._pipe, child = _FORK.Pipe()
        self.process = _FORK.Process(
            target=_party_main, args=(spec, child), name=f"bench-{spec.role}"
        )
        self.process.start()
        child.close()
        self.port = self._recv()

    def _recv(self, timeout: float = CONTROL_TIMEOUT_S):
        waited = 0.0
        while not self._pipe.poll(0.25):
            waited += 0.25
            if not self.process.is_alive():
                raise RuntimeError(f"{self.role} party exited")
            if waited >= timeout:
                raise TimeoutError(f"{self.role} party did not answer in {timeout}s")
        reply = self._pipe.recv()
        if isinstance(reply, dict) and "error" in reply:
            raise RuntimeError(f"{self.role} party: {reply['error']}")
        return reply

    def call(self, *msg):
        self._pipe.send(msg)
        return self._recv()

    def stop(self) -> None:
        try:
            if self.process.is_alive():
                self._pipe.send(("stop",))
                self._recv(timeout=10.0)
        except (OSError, EOFError, RuntimeError):
            pass
        finally:
            self.process.join(10.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(5.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
            self._pipe.close()
