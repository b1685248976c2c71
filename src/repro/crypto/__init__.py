"""The WS-Security substrate.

Implements the pieces Microsoft's WSE provided to the paper's testbed:
RSA key generation (Miller-Rabin), PKCS#1 v1.5 signatures, X.509-style
certificates with a small CA, and XML-DSig detached signatures computed over
the exclusive canonical form from :mod:`repro.xmllib.c14n`.  All of it is
Python, except that signing borrows OpenSSL's modular exponentiation from
the interpreter's own libcrypto where it exports one (:mod:`repro.crypto.rsa`).

Signatures are *real* — tampering with a signed message genuinely fails
verification — while their virtual-time cost is charged from the calibrated
:class:`~repro.sim.costs.CostModel` so the paper's "X.509 processing
dominates" result reproduces deterministically.
"""

from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, SignatureError
from repro.crypto.x509 import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    DistinguishedName,
)
from repro.crypto.xmldsig import DsigError, sign_element, verify_element

__all__ = [
    "generate_prime",
    "is_probable_prime",
    "RsaKeyPair",
    "RsaPublicKey",
    "SignatureError",
    "Certificate",
    "CertificateAuthority",
    "CertificateError",
    "DistinguishedName",
    "DsigError",
    "sign_element",
    "verify_element",
]
