"""Tests for RSA and the certificate infrastructure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.certs import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    Identity,
    verify_chain,
)
from repro.crypto.rsa import RSAError, RSAPublicKey, generate_rsa_key
from repro.wire import DecodeError


@pytest.fixture(scope="module")
def key():
    return generate_rsa_key(512)


class TestRSA:
    def test_modulus_size(self, key):
        assert key.n.bit_length() == 512
        assert key.byte_length == 64

    def test_sign_verify(self, key):
        signature = key.sign(b"message")
        assert key.public_key.verify(b"message", signature)

    def test_verify_rejects_wrong_message(self, key):
        signature = key.sign(b"message")
        assert not key.public_key.verify(b"other", signature)

    def test_verify_rejects_tampered_signature(self, key):
        signature = bytearray(key.sign(b"message"))
        signature[0] ^= 1
        assert not key.public_key.verify(b"message", bytes(signature))

    def test_verify_rejects_wrong_length(self, key):
        assert not key.public_key.verify(b"message", b"short")

    def test_encrypt_decrypt(self, key):
        ciphertext = key.public_key.encrypt(b"premaster")
        assert key.decrypt(ciphertext) == b"premaster"

    def test_encrypt_padding_is_nonzero_and_round_trips(self, key):
        for plaintext in (b"", b"premaster", b"x" * (key.byte_length - 11)):
            ciphertext = key.public_key.encrypt(plaintext)
            em = key._private_op(int.from_bytes(ciphertext, "big")).to_bytes(
                key.byte_length, "big"
            )
            padding = em[2 : key.byte_length - 1 - len(plaintext)]
            assert em[:2] == b"\x00\x02"
            assert len(padding) >= 8 and b"\x00" not in padding
            assert key.decrypt(ciphertext) == plaintext

    def test_encrypt_redraws_zero_padding_bytes(self, key, monkeypatch):
        """Zero bytes from the generator are replaced, never kept."""
        draws = []

        def token_bytes(n):
            draws.append(n)
            return b"\x00" * (n // 2) + b"\x07" * (n - n // 2)

        monkeypatch.setattr("repro.crypto.rsa.secrets.token_bytes", token_bytes)
        ciphertext = key.public_key.encrypt(b"secret")
        assert draws[0] == key.byte_length - 3 - len(b"secret")
        assert len(draws) > 1
        monkeypatch.undo()
        assert key.decrypt(ciphertext) == b"secret"

    def test_decrypt_rejects_tampering(self, key):
        ciphertext = bytearray(key.public_key.encrypt(b"secret"))
        ciphertext[-1] ^= 0xFF
        with pytest.raises(RSAError):
            key.decrypt(bytes(ciphertext))

    def test_plaintext_too_long(self, key):
        with pytest.raises(RSAError):
            key.public_key.encrypt(b"x" * (key.byte_length - 10))

    def test_public_key_serialization(self, key):
        data = key.public_key.to_bytes()
        assert RSAPublicKey.from_bytes(data) == key.public_key

    def test_public_key_trailing_bytes_rejected(self, key):
        with pytest.raises(RSAError):
            RSAPublicKey.from_bytes(key.public_key.to_bytes() + b"x")

    def test_public_key_degenerate_values_rejected(self, key):
        """Keys no generator makes are parse errors: a zero or tiny
        modulus would make verify() fail untyped (mod-0 pow, or a modulus
        too small for the SHA-256 encoding)."""
        n = key.n
        for bad_n, bad_e in [(0, 65537), (1, 65537), (n >> 8 | 1, 65537), (n + 1, 65537), (n, 2), (n, 1)]:
            data = RSAPublicKey(n=bad_n, e=bad_e).to_bytes()
            with pytest.raises(DecodeError):
                RSAPublicKey.from_bytes(data)

    @given(st.binary(max_size=40))
    @settings(max_examples=10, deadline=None)
    def test_sign_verify_random_messages(self, key, message):
        assert key.public_key.verify(message, key.sign(message))

    @given(st.binary(min_size=1, max_size=20))
    @settings(max_examples=10, deadline=None)
    def test_encrypt_roundtrip_random(self, key, message):
        assert key.decrypt(key.public_key.encrypt(message)) == message


class TestCertificates:
    def test_root_is_self_signed(self, ca):
        assert ca.certificate.is_self_signed
        assert ca.certificate.verify_signature(ca.key.public_key)

    def test_issue_and_verify_leaf(self, ca, server_identity):
        leaf = verify_chain(server_identity.chain, [ca.certificate], "server.example")
        assert leaf.subject == "server.example"

    def test_subject_mismatch_rejected(self, ca, server_identity):
        with pytest.raises(CertificateError):
            verify_chain(server_identity.chain, [ca.certificate], "evil.example")

    def test_untrusted_root_rejected(self, server_identity):
        other = CertificateAuthority.create_root("Other Root", key_bits=512)
        with pytest.raises(CertificateError):
            verify_chain(server_identity.chain, [other.certificate], "server.example")

    def test_empty_chain_rejected(self, ca):
        with pytest.raises(CertificateError):
            verify_chain([], [ca.certificate])

    def test_intermediate_chain(self, ca):
        intermediate = ca.issue_intermediate("Intermediate CA", key_bits=512)
        identity = Identity.issued_by(intermediate, "deep.example", key_bits=512)
        assert len(identity.chain) == 2
        leaf = verify_chain(identity.chain, [ca.certificate], "deep.example")
        assert leaf.subject == "deep.example"

    def test_non_ca_intermediate_rejected(self, ca):
        # A leaf certificate must not be usable as an issuer.
        leaf_key = generate_rsa_key(512)
        leaf_cert = ca.issue("leaf.example", leaf_key.public_key, is_ca=False)
        fake = CertificateAuthority(
            name="leaf.example", key=leaf_key, certificate=leaf_cert
        )
        victim = Identity.issued_by(fake, "victim.example", key_bits=512)
        with pytest.raises(CertificateError):
            verify_chain(victim.chain, [ca.certificate], "victim.example")

    def test_certificate_serialization_roundtrip(self, ca, server_identity):
        cert = server_identity.certificate
        decoded = Certificate.from_bytes(cert.to_bytes())
        assert decoded == cert

    def test_tampered_certificate_rejected(self, ca, server_identity):
        cert = server_identity.certificate
        forged = Certificate(
            subject="evil.example",
            issuer=cert.issuer,
            public_key=cert.public_key,
            serial=cert.serial,
            is_ca=cert.is_ca,
            signature=cert.signature,
        )
        with pytest.raises(CertificateError):
            verify_chain([forged], [ca.certificate], "evil.example")

    def test_truncated_certificate_rejected(self):
        with pytest.raises(CertificateError):
            Certificate.from_bytes(b"\x00\x05ab")

    def test_malformed_certificate_bytes_raise_decode_error(self, server_identity):
        """Every parse failure is a wire DecodeError (and still a
        CertificateError or RSAError), so handshake boundaries close the
        connection with an alert instead of leaking it."""
        good = server_identity.certificate.to_bytes()
        bad_name = b"\x00\x02\xff\xfe" + good[2 + int.from_bytes(good[:2], "big") :]
        key_len_at = 2 + int.from_bytes(good[:2], "big")
        key_len_at += 2 + int.from_bytes(good[key_len_at : key_len_at + 2], "big")
        bad_key = bytearray(good)
        bad_key[key_len_at + 2 + 2 + 64 - 1] ^= 1  # make the modulus even
        for data in (good[:-1], good + b"\x00", bad_name, bytes(bad_key)):
            with pytest.raises(DecodeError):
                Certificate.from_bytes(data)
