"""RSA with PKCS#1 v1.5 signatures.

Only what WS-Security needs: keypair generation, ``sign``/``verify`` with
EMSA-PKCS1-v1_5 encoding over SHA-1 (the 2004-era default) or SHA-256.
Signing uses the key's prime factors (the Chinese remainder theorem form
of RSASP1, RFC 3447 §5.2.1): two half-size exponentiations that yield the
same integer as the textbook ``m^d mod n``, so signatures are
byte-identical to it.

The two half-size exponentiations run in OpenSSL's ``BN_mod_exp``, bound
once at import through ``ctypes`` from the libcrypto that the
interpreter's own ``_hashlib`` extension links; no package is added and no
library is searched for.  Where those symbols cannot be reached, built-in
``pow`` computes them.  Garner's recombination and the public-exponent
check run on built-in ``pow`` on either path, so ``sign`` returns no
signature that independent arithmetic has not confirmed to be
``m^d mod n``.  Verification, rebuilding keys and the prime search are pure
Python.

Keys are simulation keys, derived from seeds in the repository.  The primes
of every ``(bits, seed)`` the repository uses are committed in
``keyring.json`` (the keyring), so building a deployment runs no prime
search; any other seed still runs it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.crypto.primes import generate_prime


class SignatureError(ValueError):
    """Raised when a signature fails to verify or inputs are malformed."""


#: ASN.1 DigestInfo prefixes for EMSA-PKCS1-v1_5 (RFC 3447 §9.2 notes).
_DIGEST_INFO_PREFIX = {
    "sha1": bytes.fromhex("3021300906052b0e03021a05000414"),
    "sha256": bytes.fromhex("3031300d060960864801650304020105000420"),
}


def _emsa_pkcs1_v15(message: bytes, em_len: int, hash_name: str) -> bytes:
    prefix = _DIGEST_INFO_PREFIX.get(hash_name)
    if prefix is None:
        raise SignatureError(f"unsupported hash: {hash_name!r}")
    digest = hashlib.new(hash_name, message).digest()
    t = prefix + digest
    if em_len < len(t) + 11:
        raise SignatureError("RSA modulus too small for this digest")
    padding = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + padding + b"\x00" + t


#: The largest modulus, in bytes, whose result fits the native path's
#: output buffer (4096 bits: the CRT halves of an 8192-bit key).
_NATIVE_MODULUS_BYTES = 512


def _check_result(result, function, arguments):
    """``errcheck`` for libcrypto: a NULL pointer, a 0 or a negative
    count is a failure, never a value."""
    if result is None or result <= 0:
        raise RuntimeError(f"libcrypto {function.__name__} failed")
    return result


def _declare(function, restype, *argtypes):
    """Give a libcrypto function its C signature; one that returns a value
    has the value checked."""
    function.restype, function.argtypes = restype, argtypes
    if restype is not None:
        function.errcheck = _check_result
    return function


def _bind_bn_mod_exp():
    """``pow(base, exponent, modulus)`` for non-negative integers, computed
    by OpenSSL's ``BN_mod_exp`` in the libcrypto that ``_hashlib`` links;
    None where that library or one of its symbols cannot be reached.

    Each call works in a fresh ``BN_CTX`` and frees every ``BIGNUM`` it
    made, whatever happens.
    """
    try:
        import ctypes

        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        ptr, c_int = ctypes.c_void_p, ctypes.c_int
        bn_ctx_new = _declare(lib.BN_CTX_new, ptr)
        bn_ctx_free = _declare(lib.BN_CTX_free, None, ptr)
        bn_new = _declare(lib.BN_new, ptr)
        bn_clear_free = _declare(lib.BN_clear_free, None, ptr)
        bn_bin2bn = _declare(lib.BN_bin2bn, ptr, ctypes.c_char_p, c_int, ptr)
        bn_bn2binpad = _declare(lib.BN_bn2binpad, c_int, ptr, ctypes.c_char_p, c_int)
        bn_mod_exp = _declare(lib.BN_mod_exp, c_int, ptr, ptr, ptr, ptr, ptr)
    except (ImportError, OSError, AttributeError):
        return None
    # One array type for every call: ctypes keeps an array type only while
    # something refers to it, so a per-call ``c_char * n`` (or
    # ``create_string_buffer``) builds a new class each time, and a class is
    # garbage that only the cyclic collector frees.
    digits_type = ctypes.c_char * _NATIVE_MODULUS_BYTES

    def to_bignum(value: int) -> int:
        data = value.to_bytes((value.bit_length() + 7) // 8, "big")
        return bn_bin2bn(data, len(data), None)

    def mod_exp(base: int, exponent: int, modulus: int) -> int:
        size = (modulus.bit_length() + 7) // 8
        if size > _NATIVE_MODULUS_BYTES:
            return pow(base, exponent, modulus)
        ctx = a = p = m = r = None
        try:
            ctx = bn_ctx_new()
            a = to_bignum(base)
            p = to_bignum(exponent)
            m = to_bignum(modulus)
            r = bn_new()
            bn_mod_exp(r, a, p, m, ctx)
            digits = digits_type()
            bn_bn2binpad(r, digits, size)
            return int.from_bytes(digits[:size], "big")
        finally:
            for bignum in (a, p, m, r):
                bn_clear_free(bignum)
            bn_ctx_free(ctx)

    return mod_exp


#: The CRT half-exponentiations of :meth:`RsaKeyPair.sign`: OpenSSL's where
#: the interpreter's libcrypto exports it, else built-in ``pow``.
_mod_exp = _bind_bn_mod_exp() or pow


@dataclass(frozen=True)
class RsaPublicKey:
    """The public half (n, e)."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: bytes, hash_name: str = "sha1") -> None:
        """Raise :class:`SignatureError` unless ``signature`` is valid."""
        k = self.byte_length
        if len(signature) != k:
            raise SignatureError("signature length does not match modulus")
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            raise SignatureError("signature representative out of range")
        em = pow(s, self.e, self.n).to_bytes(k, "big")
        expected = _emsa_pkcs1_v15(message, k, hash_name)
        if em != expected:
            raise SignatureError("signature verification failed")

    def fingerprint(self) -> str:
        """Short stable identifier used in KeyInfo elements."""
        material = f"{self.n:x}:{self.e:x}".encode()
        return hashlib.sha1(material).hexdigest()[:16]


_PUBLIC_EXPONENT = 65537


def _search_primes(bits: int, seed: int | None) -> tuple[int, int]:
    """The key search: Miller-Rabin primes ``(p, q)``, in the order drawn
    from an rng seeded with ``seed``.  The keyring is checked against it."""
    rng = random.Random(seed if seed is not None else 0x5EED)
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits - bits // 2, rng)
        if (
            p != q
            and math.gcd(_PUBLIC_EXPONENT, (p - 1) * (q - 1)) == 1
            and (p * q).bit_length() == bits
        ):
            return p, q


def _load_keyring() -> dict[tuple[int, int | None], tuple[int, int]]:
    """``(bits, seed) -> (p, q)`` from the committed keyring, one entry per
    line, sorted by bits and seed, primes in hex."""
    entries = json.loads(Path(__file__).with_name("keyring.json").read_text(encoding="utf-8"))
    return {
        (entry["bits"], entry["seed"]): (int(entry["p"], 16), int(entry["q"], 16))
        for entry in entries
    }


#: Read-only after import; a key is rebuilt from its primes on first use.
_KEYRING = _load_keyring()

_KEY_CACHE: dict[tuple[int, int | None], "RsaKeyPair"] = {}


@dataclass(frozen=True)
class RsaKeyPair:
    """A full keypair; ``public`` strips the private material.

    Besides ``d`` it keeps the primes ``p`` and ``q`` and the CRT values
    ``dp = d mod (p-1)``, ``dq = d mod (q-1)`` and ``qinv = q^-1 mod p``,
    computed once by :meth:`generate`.  None of them appears in ``repr``.
    """

    n: int
    e: int
    d: int = field(repr=False)
    p: int = field(repr=False)
    q: int = field(repr=False)
    dp: int = field(repr=False)
    dq: int = field(repr=False)
    qinv: int = field(repr=False)

    @classmethod
    def generate(cls, bits: int = 1024, seed: int | None = None) -> "RsaKeyPair":
        """The keypair for ``seed``: rebuilt from the keyring's primes, or
        searched for when ``(bits, seed)`` is not in it.

        Either way the key is the one the search yields, so the same
        (bits, seed) always gives the same key and memoizing it is sound.
        """
        cached = _KEY_CACHE.get((bits, seed))
        if cached is not None:
            return cached
        p, q = _KEYRING.get((bits, seed)) or _search_primes(bits, seed)
        e = _PUBLIC_EXPONENT
        d = pow(e, -1, (p - 1) * (q - 1))
        keypair = cls(
            n=p * q, e=e, d=d, p=p, q=q,
            dp=d % (p - 1), dq=d % (q - 1), qinv=pow(q, -1, p),
        )
        _KEY_CACHE[(bits, seed)] = keypair
        return keypair

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def sign(self, message: bytes, hash_name: str = "sha1") -> bytes:
        """EMSA-PKCS1-v1_5 signature over ``message``.

        ``m^d mod n`` is computed as one exponentiation modulo each prime
        (``_mod_exp``), joined by Garner's formula.  The result is checked
        against the public exponent with built-in ``pow`` before it is
        returned: a wrong half would otherwise publish a signature that
        reveals a factor of ``n`` (Boneh, DeMillo and Lipton, 1997).
        """
        k = self.byte_length
        em = _emsa_pkcs1_v15(message, k, hash_name)
        m = int.from_bytes(em, "big")
        s_q = _mod_exp(m, self.dq, self.q)
        s = s_q + self.q * ((_mod_exp(m, self.dp, self.p) - s_q) * self.qinv % self.p)
        if pow(s, self.e, self.n) != m:
            raise SignatureError("CRT signature failed its public-exponent check")
        return s.to_bytes(k, "big")
