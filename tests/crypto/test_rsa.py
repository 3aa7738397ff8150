"""Unit and property tests for primes and RSA signatures."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import RsaKeyPair, SignatureError, generate_prime, is_probable_prime
from repro.crypto.rsa import _emsa_pkcs1_v15

#: SHA-256 of ``RsaKeyPair.generate(seed=7).sign(GOLDEN_MESSAGE)`` (the
#: 1024-bit CA key, SHA-1 digest), recorded from textbook ``m^d mod n``
#: signing.  Any change to the private-key path that alters output fails here.
GOLDEN_MESSAGE = b"golden vector: OGSA grid signing"
GOLDEN_SIGNATURE_SHA256 = "8754b0ca4c3b3937e50b991dfe61ac359a95f3c69a9ff23a585ce0b3a84fa940"


# A small keypair generated once per test module: keygen is the slow part.
@pytest.fixture(scope="module")
def keypair():
    return RsaKeyPair.generate(bits=512, seed=42)


class TestPrimes:
    def test_known_primes(self):
        for p in (2, 3, 5, 101, 7919, 104729):
            assert is_probable_prime(p)

    def test_known_composites(self):
        for c in (0, 1, 4, 100, 7917, 561, 41041):  # incl. Carmichael numbers
            assert not is_probable_prime(c)

    def test_generated_prime_has_exact_bits(self):
        rng = random.Random(1)
        for bits in (64, 128, 256):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_deterministic_for_seed(self):
        assert generate_prime(64, random.Random(9)) == generate_prime(64, random.Random(9))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(4, random.Random(0))


class TestKeyGeneration:
    def test_deterministic(self):
        k1 = RsaKeyPair.generate(bits=512, seed=5)
        k2 = RsaKeyPair.generate(bits=512, seed=5)
        assert (k1.n, k1.e, k1.d) == (k2.n, k2.e, k2.d)

    def test_different_seeds_differ(self):
        assert RsaKeyPair.generate(bits=512, seed=1).n != RsaKeyPair.generate(bits=512, seed=2).n

    def test_modulus_size(self, keypair):
        assert keypair.n.bit_length() == 512
        assert keypair.byte_length == 64

    def test_public_strips_private(self, keypair):
        pub = keypair.public
        assert pub.n == keypair.n and pub.e == keypair.e
        for private in ("d", "p", "q", "dp", "dq", "qinv"):
            assert not hasattr(pub, private)

    @pytest.mark.parametrize("bits,seed", [(512, 42), (1024, 7)])
    def test_crt_components_consistent(self, bits, seed):
        k = RsaKeyPair.generate(bits=bits, seed=seed)
        assert k.p * k.q == k.n
        assert k.dp == k.d % (k.p - 1)
        assert k.dq == k.d % (k.q - 1)
        assert k.qinv * k.q % k.p == 1


class TestSignatures:
    def test_sign_verify_roundtrip(self, keypair):
        sig = keypair.sign(b"hello grid")
        keypair.public.verify(b"hello grid", sig)

    def test_sha256_roundtrip(self, keypair):
        sig = keypair.sign(b"msg", hash_name="sha256")
        keypair.public.verify(b"msg", sig, hash_name="sha256")

    def test_wrong_message_rejected(self, keypair):
        sig = keypair.sign(b"original")
        with pytest.raises(SignatureError):
            keypair.public.verify(b"tampered", sig)

    def test_wrong_hash_rejected(self, keypair):
        sig = keypair.sign(b"m", hash_name="sha1")
        with pytest.raises(SignatureError):
            keypair.public.verify(b"m", sig, hash_name="sha256")

    def test_bitflip_rejected(self, keypair):
        sig = bytearray(keypair.sign(b"m"))
        sig[10] ^= 0x01
        with pytest.raises(SignatureError):
            keypair.public.verify(b"m", bytes(sig))

    def test_wrong_key_rejected(self, keypair):
        other = RsaKeyPair.generate(bits=512, seed=99)
        sig = keypair.sign(b"m")
        with pytest.raises(SignatureError):
            other.public.verify(b"m", sig)

    def test_wrong_length_rejected(self, keypair):
        with pytest.raises(SignatureError):
            keypair.public.verify(b"m", b"\x00" * 10)

    def test_unsupported_hash_rejected(self, keypair):
        with pytest.raises(SignatureError):
            keypair.sign(b"m", hash_name="md5")

    def test_golden_signature_vector(self):
        signature = RsaKeyPair.generate(seed=7).sign(GOLDEN_MESSAGE)
        assert hashlib.sha256(signature).hexdigest() == GOLDEN_SIGNATURE_SHA256

    def test_crt_fault_withholds_signature(self, keypair):
        faulty = dataclasses.replace(keypair, dq=keypair.dq + 1)
        with pytest.raises(SignatureError):
            faulty.sign(b"m")

    @given(
        st.binary(max_size=256),
        st.sampled_from([(512, 42), (1024, 7)]),
        st.sampled_from(["sha1", "sha256"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_crt_equals_textbook(self, message, key, hash_name):
        bits, seed = key
        k = RsaKeyPair.generate(bits=bits, seed=seed)
        em = int.from_bytes(_emsa_pkcs1_v15(message, k.byte_length, hash_name), "big")
        textbook = pow(em, k.d, k.n).to_bytes(k.byte_length, "big")
        assert k.sign(message, hash_name=hash_name) == textbook

    def test_fingerprint_stable_and_short(self, keypair):
        f1 = keypair.public.fingerprint()
        assert f1 == keypair.public.fingerprint()
        assert len(f1) == 16

    @given(st.binary(max_size=256))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip_any_message(self, message):
        keypair = RsaKeyPair.generate(bits=512, seed=42)
        keypair.public.verify(message, keypair.sign(message))

    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_property_distinct_messages_never_cross_verify(self, m1, m2):
        if m1 == m2:
            return
        keypair = RsaKeyPair.generate(bits=512, seed=42)
        sig = keypair.sign(m1)
        with pytest.raises(SignatureError):
            keypair.public.verify(m2, sig)
