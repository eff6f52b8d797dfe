"""Helpers for building wired mcTLS sessions in tests."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.dh import GROUP_TEST_512
from repro.framing import MCTLS_DEFAULT
from repro.mctls import (
    ContextDefinition,
    McTLSClient,
    McTLSMiddlebox,
    McTLSServer,
    MiddleboxInfo,
    SessionTopology,
)
from repro.mctls.session import HandshakeMode
from repro.recbuf import RecordBuffer
from repro.tls.connection import TLSConfig
from repro.transport import Chain


def split_burst(wire: bytes, framing=MCTLS_DEFAULT) -> Tuple[bytes, List[tuple]]:
    """``(burst, entries)`` for the complete records in ``wire``, split
    with the record layers' own splitter: ``burst`` is the consumed
    prefix of ``wire`` and each entry is ``(content_type, context_id,
    start, end)`` with offsets into it.  Raises the splitter's
    :class:`~repro.framing.FramingError` on malformed bytes."""
    buf = RecordBuffer()
    buf.append(wire)
    entries = []
    base = 0
    while True:
        burst, batch, error = buf.take_records(framing)
        entries += [(ct, cid, base + s, base + e) for ct, cid, s, e in batch]
        base += len(burst)
        if error is not None:
            raise error
        if not batch:
            return bytes(wire[:base]), entries


def split_wire(wire: bytes, framing=MCTLS_DEFAULT) -> List[tuple]:
    """Every complete record in ``wire`` as ``(content_type, context_id,
    fragment, raw)`` — :func:`split_burst`, sliced per record."""
    burst, entries = split_burst(wire, framing)
    header_len = framing.header_len
    return [
        (ct, cid, burst[start + header_len : end], burst[start:end])
        for ct, cid, start, end in entries
    ]


def build_session(
    ca,
    server_identity,
    mbox_identities: Sequence,
    contexts: Sequence[ContextDefinition],
    mode: HandshakeMode = HandshakeMode.DEFAULT,
    topology_policy=None,
    transformer=None,
    observer=None,
    key_transport=None,
    session_store=None,
    session_cache=None,
    ticket_store=None,
    ticket_manager=None,
    framing: str = "mctls-default",
    field_schemas: Sequence = (),
):
    """Wire a client ⇄ N middleboxes ⇄ server session; returns
    (client, middleboxes, server, chain) with the handshake already pumped.

    Pass the same ``session_store`` (client side) and ``session_cache``
    (server side) across two calls to exercise session resumption — or
    ``ticket_store`` (client) with ``ticket_manager`` (server) for the
    stateless-ticket kind."""
    middleboxes = [
        MiddleboxInfo(i + 1, identity.name) for i, identity in enumerate(mbox_identities)
    ]
    topology = SessionTopology(middleboxes=middleboxes, contexts=contexts)

    client = McTLSClient(
        TLSConfig(
            trusted_roots=[ca.certificate],
            server_name=server_identity.name,
            dh_group=GROUP_TEST_512,
            framing=framing,
            field_schemas=field_schemas,
        ),
        topology=topology,
        key_transport=key_transport,
        session_store=session_store,
        ticket_store=ticket_store,
    )
    server = McTLSServer(
        TLSConfig(
            identity=server_identity,
            trusted_roots=[ca.certificate],
            dh_group=GROUP_TEST_512,
        ),
        mode=mode,
        topology_policy=topology_policy,
        session_cache=session_cache,
        ticket_manager=ticket_manager,
    )
    mboxes = [
        McTLSMiddlebox(
            identity.name,
            TLSConfig(
                identity=identity,
                trusted_roots=[ca.certificate],
                dh_group=GROUP_TEST_512,
            ),
            transformer=transformer,
            observer=observer,
        )
        for identity in mbox_identities
    ]
    chain = Chain(client, mboxes, server)
    client.start_handshake()
    chain.pump()
    return client, mboxes, server, chain
