"""X.509-style certificates and a minimal certificate authority.

The Grid-in-a-Box account service keys accounts by the user's X.509
Distinguished Name, so DNs are first-class here.  Certificates are signed
XML documents (rather than ASN.1/DER) — the structure and trust semantics
are what the reproduction needs, not the encoding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, SignatureError
from repro.xmllib import canonicalize, element
from repro.xmllib.element import XmlElement
from repro.xmllib.memo import ContentCache, memo_enabled


class CertificateError(ValueError):
    """Raised for invalid, expired or untrusted certificates."""


# Successful issuer-signature checks, keyed by the (frozen, hashable)
# certificate and issuer key.  Only the time-independent signature check is
# cached; the validity window is evaluated on every call because ``at_time``
# moves with the virtual clock.  Failures are never cached.  A deployment
# holds a handful of certificates, so the capacity never binds.
_CHECKED = ContentCache("x509.check", capacity=1024)


@dataclass(frozen=True)
class DistinguishedName:
    """A simplified DN: CN plus optional O/OU/C components."""

    common_name: str
    organization: str = ""
    unit: str = ""
    country: str = ""

    def __str__(self) -> str:
        parts = [f"CN={self.common_name}"]
        if self.unit:
            parts.append(f"OU={self.unit}")
        if self.organization:
            parts.append(f"O={self.organization}")
        if self.country:
            parts.append(f"C={self.country}")
        return ", ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "DistinguishedName":
        fields = {"CN": "", "OU": "", "O": "", "C": ""}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk or "=" not in chunk:
                continue
            key, _, value = chunk.partition("=")
            key = key.strip().upper()
            if key in fields:
                fields[key] = value.strip()
        if not fields["CN"]:
            raise CertificateError(f"DN has no CN component: {text!r}")
        return cls(fields["CN"], fields["O"], fields["OU"], fields["C"])

    def hashed(self) -> str:
        """Stable directory-name hash (the WS-Transfer DataService stores
        each user's files under a hash of the DN — paper §4.2.2)."""
        return hashlib.sha1(str(self).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a DN to a public key."""

    subject: DistinguishedName
    issuer: DistinguishedName
    public_key: RsaPublicKey
    serial: int
    not_before: float
    not_after: float
    signature: bytes

    def tbs_element(self) -> XmlElement:
        """The to-be-signed portion as a canonical XML element."""
        return _tbs_element(
            self.subject, self.issuer, self.public_key, self.serial,
            self.not_before, self.not_after,
        )

    def check(self, issuer_key: RsaPublicKey, at_time: float) -> None:
        """Verify issuer signature and validity window."""
        if not (self.not_before <= at_time <= self.not_after):
            raise CertificateError(
                f"certificate for {self.subject} not valid at t={at_time}"
            )
        enabled = memo_enabled()
        if enabled and _CHECKED.get((self, issuer_key)) is not None:
            return
        payload = canonicalize(self.tbs_element()).encode()
        try:
            issuer_key.verify(payload, self.signature)
        except SignatureError as exc:
            raise CertificateError(f"bad issuer signature on {self.subject}") from exc
        if enabled:
            _CHECKED.put((self, issuer_key), True)


def _tbs_element(
    subject: DistinguishedName,
    issuer: DistinguishedName,
    key: RsaPublicKey,
    serial: int,
    not_before: float,
    not_after: float,
) -> XmlElement:
    return element(
        "{urn:repro:x509}Certificate",
        element("{urn:repro:x509}Subject", str(subject)),
        element("{urn:repro:x509}Issuer", str(issuer)),
        element("{urn:repro:x509}Serial", serial),
        element("{urn:repro:x509}NotBefore", repr(not_before)),
        element("{urn:repro:x509}NotAfter", repr(not_after)),
        element(
            "{urn:repro:x509}PublicKey",
            element("{urn:repro:x509}Modulus", f"{key.n:x}"),
            element("{urn:repro:x509}Exponent", str(key.e)),
        ),
    )


@dataclass
class CertificateAuthority:
    """Issues certificates for the virtual organisation.

    The VO builder creates one CA and issues a cert per service host and per
    user; trust checks in the security handler go back to this root.
    """

    name: DistinguishedName
    keypair: RsaKeyPair
    _serial: int = field(default=1)

    @classmethod
    def create(cls, common_name: str = "Repro Grid CA", seed: int = 7) -> "CertificateAuthority":
        return cls(
            name=DistinguishedName(common_name, organization="Repro VO"),
            keypair=RsaKeyPair.generate(seed=seed),
        )

    def issue(
        self,
        subject: DistinguishedName,
        public_key: RsaPublicKey,
        *,
        not_before: float = 0.0,
        not_after: float = float("inf"),
    ) -> Certificate:
        serial = self._serial
        self._serial += 1
        payload = canonicalize(
            _tbs_element(subject, self.name, public_key, serial, not_before, not_after)
        ).encode()
        signature = self.keypair.sign(payload)
        return Certificate(
            subject=subject,
            issuer=self.name,
            public_key=public_key,
            serial=serial,
            not_before=not_before,
            not_after=not_after,
            signature=signature,
        )

    def issue_identity(
        self, common_name: str, *, seed: int, organization: str = "Repro VO"
    ) -> tuple[Certificate, RsaKeyPair]:
        """Convenience: generate a keypair and issue a certificate for it."""
        keypair = RsaKeyPair.generate(seed=seed)
        subject = DistinguishedName(common_name, organization=organization)
        return self.issue(subject, keypair.public), keypair
