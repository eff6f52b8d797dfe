"""Seeded sweep of mutated server flights against TLS and mcTLS clients.

Each case runs a fresh client/server pair up to the server's first
flight (ServerHello .. ServerHelloDone), overwrites one to three random
bytes of that flight and feeds it to the client.  Whatever the mutation
hits (record framing, certificate names, the RSA key inside the
certificate, DH parameters, signatures), a rejection must follow the
Connection contract: one typed :class:`TLSError`, ``closed`` set and a
fatal alert queued — certificate and RSA-key parse failures included.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.dh import GROUP_TEST_512
from repro.experiments.harness import Mode, TestBed
from repro.tls.connection import TLSError

SEED = 1315
MUTATIONS = 300  # per mode: 600 in all


@pytest.fixture(scope="module")
def bed() -> TestBed:
    return TestBed(key_bits=512, dh_group=GROUP_TEST_512)


def _mutate(rng: random.Random, flight: bytes) -> bytes:
    out = bytearray(flight)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(out))
        out[pos] = (out[pos] + rng.randint(1, 255)) & 0xFF  # always a change
    return bytes(out)


@pytest.mark.parametrize("mode", [Mode.E2E_TLS, Mode.MCTLS], ids=lambda m: m.value)
def test_mutated_server_flight_fails_typed_and_closed(bed, mode):
    rng = random.Random(SEED)
    rejected = 0
    for _ in range(MUTATIONS):
        client, server = bed.make_endpoints(mode)
        client.start_handshake()
        server.receive_data(client.data_to_send())
        flight = _mutate(rng, server.data_to_send())
        try:
            client.receive_data(flight)
        except TLSError as exc:
            rejected += 1
            assert client.closed is True, exc
            # The flight is all plaintext, so the alert goes out in clear:
            # its record ends with (fatal, description).
            assert client.data_to_send()[-2:] == bytes((2, exc.alert)), exc
    # Nearly every mutation lands somewhere the client checks.
    assert rejected > MUTATIONS * 0.9
