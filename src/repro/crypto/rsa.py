"""RSA with PKCS#1 v1.5 signatures (pure Python).

Only what WS-Security needs: keypair generation, ``sign``/``verify`` with
EMSA-PKCS1-v1_5 encoding over SHA-1 (the 2004-era default) or SHA-256.
Signing uses the key's prime factors (the Chinese remainder theorem form
of RSASP1, RFC 3447 §5.2.1): two half-size exponentiations that yield the
same integer as the textbook ``m^d mod n``, so signatures are
byte-identical to it.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

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
        """Generate a keypair deterministically from ``seed``.

        Determinism makes memoization sound: the same (bits, seed) always
        yields the same key, so repeated deployment builds skip the search.
        """
        cached = _KEY_CACHE.get((bits, seed))
        if cached is not None:
            return cached
        rng = random.Random(seed if seed is not None else 0x5EED)
        e = 65537
        while True:
            p = generate_prime(bits // 2, rng)
            q = generate_prime(bits - bits // 2, rng)
            if p == q:
                continue
            phi = (p - 1) * (q - 1)
            if math.gcd(e, phi) != 1:
                continue
            n = p * q
            if n.bit_length() != bits:
                continue
            d = pow(e, -1, phi)
            keypair = cls(
                n=n, e=e, d=d, p=p, q=q,
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

        ``m^d mod n`` is computed as one exponentiation modulo each prime,
        joined by Garner's formula.  The result is checked against the
        public exponent before it is returned: a wrong half would otherwise
        publish a signature that reveals a factor of ``n`` (Boneh, DeMillo
        and Lipton, 1997).
        """
        k = self.byte_length
        em = _emsa_pkcs1_v15(message, k, hash_name)
        m = int.from_bytes(em, "big")
        s_q = pow(m, self.dq, self.q)
        s = s_q + self.q * ((pow(m, self.dp, self.p) - s_q) * self.qinv % self.p)
        if pow(s, self.e, self.n) != m:
            raise SignatureError("CRT signature failed its public-exponent check")
        return s.to_bytes(k, "big")
