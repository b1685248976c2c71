"""Unit and property tests for primes and RSA signatures."""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.container.security import Credentials
from repro.crypto import (
    CertificateAuthority,
    RsaKeyPair,
    RsaPublicKey,
    SignatureError,
    generate_prime,
    is_probable_prime,
    rsa,
)
from repro.crypto.rsa import _emsa_pkcs1_v15


# A small keypair shared by the module (rebuilt from the keyring).
@pytest.fixture(scope="module")
def keypair():
    return RsaKeyPair.generate(bits=512, seed=42)


def textbook_sign(keypair: RsaKeyPair, message: bytes, hash_name: str) -> bytes:
    """The reference signature: ``m^d mod n`` with the full private exponent."""
    k = keypair.byte_length
    m = int.from_bytes(_emsa_pkcs1_v15(message, k, hash_name), "big")
    return pow(m, keypair.d, keypair.n).to_bytes(k, "big")


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
        # The search itself, twice: two lookups would read the keyring twice.
        assert rsa._search_primes(512, 5) == rsa._search_primes(512, 5)

    def test_different_seeds_differ(self):
        assert RsaKeyPair.generate(bits=512, seed=1).n != RsaKeyPair.generate(bits=512, seed=2).n

    def test_modulus_size(self, keypair):
        assert keypair.n.bit_length() == 512
        assert keypair.byte_length == 64

    def test_public_strips_private(self, keypair):
        pub = keypair.public
        assert pub.n == keypair.n and pub.e == keypair.e
        assert not hasattr(pub, "d")


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


class TestNativeModExp:
    """OpenSSL's ``BN_mod_exp``, where it is bound, must equal built-in ``pow``."""

    #: Odd moduli of every size up to 65 bits, then both sides of each
    #: word and half-key boundary up to 1024 bits.
    BITS = (*range(1, 66), 127, 128, 129, 255, 256, 257, 511, 512, 513, 1023, 1024)

    @pytest.fixture()
    def native(self):
        if rsa._mod_exp is pow:
            pytest.skip("the interpreter's libcrypto does not export BN_mod_exp")
        return rsa._mod_exp

    def test_equals_builtin_pow(self, native):
        rng = random.Random(24)
        for bits in self.BITS:
            modulus = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            bases = (
                0, 1, 2, modulus - 1, modulus, modulus + 1,
                rng.randrange(modulus), rng.randrange(modulus, modulus << 64),
            )
            exponents = (0, 1, 2, rng.getrandbits(bits))
            for base in bases:
                for exponent in exponents:
                    expected = pow(base, exponent, modulus)
                    assert native(base, exponent, modulus) == expected, (bits, base, exponent)

    def test_modulus_past_the_buffer_falls_back_to_pow(self, native):
        modulus = (1 << (8 * rsa._NATIVE_MODULUS_BYTES + 64)) - 1
        base = 3 << (8 * rsa._NATIVE_MODULUS_BYTES)
        assert native(base, 65537, modulus) == pow(base, 65537, modulus)

    def test_native_path_is_bound_where_libcrypto_exports_it(self):
        ctypes = pytest.importorskip("ctypes")
        _hashlib = pytest.importorskip("_hashlib")
        path = getattr(_hashlib, "__file__", None)
        if path is None or not hasattr(ctypes.CDLL(path), "BN_mod_exp"):
            pytest.skip("the interpreter's libcrypto does not export BN_mod_exp")
        assert rsa._mod_exp is not pow

    @pytest.mark.parametrize("failure", [None, 0, -1])
    def test_a_null_zero_or_negative_return_raises(self, failure):
        def BN_mod_exp():
            pass

        with pytest.raises(RuntimeError, match="BN_mod_exp failed"):
            rsa._check_result(failure, BN_mod_exp, ())
        assert rsa._check_result(1, BN_mod_exp, ()) == 1


class TestCrtSigning:
    """``sign`` works modulo each prime; it must equal the textbook formula.

    The half-exponentiations run on the module's binding: OpenSSL's
    ``BN_mod_exp`` where the interpreter's libcrypto exports it.
    """

    @pytest.mark.parametrize("seed", [7, 101, 201, 301])
    @pytest.mark.parametrize("hash_name", ["sha1", "sha256"])
    def test_equals_textbook_signature_1024_bit(self, seed, hash_name):
        keypair = RsaKeyPair.generate(bits=1024, seed=seed)
        message = f"<SignedInfo seed={seed}/>".encode()
        assert keypair.sign(message, hash_name) == textbook_sign(keypair, message, hash_name)

    # Runs in this class and in its built-in-pow subclass, hence two executors.
    @given(st.binary(max_size=256), st.sampled_from(["sha1", "sha256"]))
    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.differing_executors]
    )
    def test_property_equals_textbook_signature(self, message, hash_name):
        keypair = RsaKeyPair.generate(bits=512, seed=42)
        assert keypair.sign(message, hash_name) == textbook_sign(keypair, message, hash_name)

    @pytest.mark.parametrize(
        ("bits", "seed", "fingerprint"),
        [
            (1024, 7, "56f8d90dea768a82"),
            (1024, 101, "11a4771b28db8830"),
            (1024, 201, "8d64cbf763fe9998"),
            (512, 42, "98bcd3d3b724206a"),
        ],
    )
    def test_generated_keys_are_unchanged(self, bits, seed, fingerprint):
        assert RsaKeyPair.generate(bits=bits, seed=seed).public.fingerprint() == fingerprint

    def test_crt_values_derive_from_the_primes(self, keypair):
        p, q, d = keypair.p, keypair.q, keypair.d
        assert p * q == keypair.n
        assert (keypair.dp, keypair.dq) == (d % (p - 1), d % (q - 1))
        assert keypair.qinv * q % p == 1

    @pytest.mark.parametrize("name", ["dp", "dq", "qinv"])
    def test_corrupted_crt_value_raises(self, keypair, name):
        broken = dataclasses.replace(keypair, **{name: getattr(keypair, name) + 1})
        with pytest.raises(SignatureError, match="public-exponent"):
            broken.sign(b"m")

    def test_check_does_not_count_as_a_verification(self, keypair, monkeypatch):
        def verify(*args, **kwargs):
            raise AssertionError("sign went through RsaPublicKey.verify")

        monkeypatch.setattr(RsaPublicKey, "verify", verify)
        keypair.sign(b"m")


class TestCrtSigningOnBuiltinPow(TestCrtSigning):
    """The same checks with the half-exponentiations on built-in ``pow``,
    the path wherever libcrypto's ``BN_mod_exp`` cannot be reached."""

    @pytest.fixture(autouse=True, scope="class")
    def builtin_pow(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rsa, "_mod_exp", pow)
            yield

    def test_runs_on_builtin_pow(self):
        assert rsa._mod_exp is pow


class TestPrivateMaterialStaysOutOfRepr:
    def test_keypair_repr_shows_only_the_public_half(self, keypair):
        text = repr(keypair)
        assert str(keypair.n) in text
        for secret in (keypair.d, keypair.p, keypair.q, keypair.dp, keypair.dq, keypair.qinv):
            assert str(secret) not in text

    def test_credentials_repr_hides_d_and_p(self):
        ca = CertificateAuthority.create(seed=7)
        certificate, keypair = ca.issue_identity("alice", seed=11)
        text = repr(Credentials(certificate, keypair))
        assert str(keypair.d) not in text
        assert str(keypair.p) not in text

    def test_equality_and_hash_still_cover_the_key(self):
        k1 = RsaKeyPair.generate(bits=512, seed=5)
        k2 = dataclasses.replace(k1)
        assert k1 == k2 and hash(k1) == hash(k2)
        assert k1 != dataclasses.replace(k1, d=k1.d + 1)
