"""Unit tests for certificates, the CA, and XML-DSig."""

import pytest

from repro.crypto import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    DistinguishedName,
    DsigError,
    RsaKeyPair,
    sign_element,
    verify_element,
)
from repro.xmllib import element, parse_xml, serialize


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority.create(seed=7)


@pytest.fixture(scope="module")
def identity(ca):
    return ca.issue_identity("alice", seed=11)


class TestDistinguishedName:
    def test_str_format(self):
        dn = DistinguishedName("alice", organization="UVa", unit="CS", country="US")
        assert str(dn) == "CN=alice, OU=CS, O=UVa, C=US"

    def test_parse_roundtrip(self):
        dn = DistinguishedName("alice", organization="UVa", unit="CS", country="US")
        assert DistinguishedName.parse(str(dn)) == dn

    def test_parse_requires_cn(self):
        with pytest.raises(CertificateError):
            DistinguishedName.parse("O=NoName")

    def test_parse_tolerates_whitespace_and_unknown(self):
        dn = DistinguishedName.parse(" CN = bob , O=Org, X=ignored ")
        assert dn.common_name == "bob"
        assert dn.organization == "Org"

    def test_hashed_stable(self):
        dn = DistinguishedName("alice")
        assert dn.hashed() == dn.hashed()
        assert len(dn.hashed()) == 12
        assert dn.hashed() != DistinguishedName("bob").hashed()


class TestCertificates:
    def test_issue_and_check(self, ca, identity):
        cert, _ = identity
        cert.check(ca.keypair.public, at_time=100.0)

    def test_serials_increment(self, ca):
        c1, _ = ca.issue_identity("u1", seed=21)
        c2, _ = ca.issue_identity("u2", seed=22)
        assert c2.serial > c1.serial

    def test_expired_rejected(self, ca):
        keypair = RsaKeyPair.generate(bits=512, seed=31)
        cert = ca.issue(
            DistinguishedName("shortlived"), keypair.public, not_before=0, not_after=10
        )
        cert.check(ca.keypair.public, at_time=5)
        with pytest.raises(CertificateError, match="not valid"):
            cert.check(ca.keypair.public, at_time=11)

    def test_wrong_issuer_key_rejected(self, ca, identity):
        cert, _ = identity
        other = CertificateAuthority.create(common_name="Evil CA", seed=666)
        with pytest.raises(CertificateError, match="bad issuer signature"):
            cert.check(other.keypair.public, at_time=1)

    def test_forged_subject_rejected(self, ca, identity):
        cert, _ = identity
        forged = Certificate(
            subject=DistinguishedName("mallory"),
            issuer=cert.issuer,
            public_key=cert.public_key,
            serial=cert.serial,
            not_before=cert.not_before,
            not_after=cert.not_after,
            signature=cert.signature,
        )
        with pytest.raises(CertificateError):
            forged.check(ca.keypair.public, at_time=1)


class TestXmlDsig:
    def body(self):
        return element(
            "{urn:app}Request", element("{urn:app}Value", "41"), attrs={"id": "r1"}
        )

    def test_sign_verify_roundtrip(self, identity):
        cert, keypair = identity
        body = self.body()
        signature = sign_element(body, keypair, cert)
        verify_element(body, signature, cert.public_key)

    def test_verify_after_wire_roundtrip(self, identity):
        """Signature must survive serialize → parse (prefix loss etc.)."""
        cert, keypair = identity
        body = self.body()
        signature = sign_element(body, keypair, cert)
        wire_body = parse_xml(serialize(body))
        wire_sig = parse_xml(serialize(signature))
        verify_element(wire_body, wire_sig, cert.public_key)

    def test_tampered_content_rejected(self, identity):
        cert, keypair = identity
        body = self.body()
        signature = sign_element(body, keypair, cert)
        tampered = body.copy()  # signing sealed the body itself
        tampered.find("{urn:app}Value").children = ["42"]
        with pytest.raises(DsigError, match="digest mismatch"):
            verify_element(tampered, signature, cert.public_key)

    def test_tampered_attribute_rejected(self, identity):
        cert, keypair = identity
        body = self.body()
        signature = sign_element(body, keypair, cert)
        tampered = body.copy()
        tampered.set("id", "r2")
        with pytest.raises(DsigError):
            verify_element(tampered, signature, cert.public_key)

    def test_swapped_signature_rejected(self, identity, ca):
        cert, keypair = identity
        body = self.body()
        other_body = element("{urn:app}Request", element("{urn:app}Value", "43"))
        signature_other = sign_element(other_body, keypair, cert)
        with pytest.raises(DsigError):
            verify_element(body, signature_other, cert.public_key)

    def test_resigned_signedinfo_rejected(self, identity, ca):
        """An attacker re-signing SignedInfo with their own key must fail
        against the legitimate subject's public key."""
        cert, keypair = identity
        mallory = RsaKeyPair.generate(bits=512, seed=1337)
        body = self.body()
        signature = sign_element(body, mallory, cert)
        with pytest.raises(DsigError, match="RSA signature"):
            verify_element(body, signature, cert.public_key)

    def test_signer_subject_extraction(self, identity):
        from repro.crypto.xmldsig import signer_subject

        cert, keypair = identity
        signature = sign_element(self.body(), keypair, cert)
        assert signer_subject(signature) == str(cert.subject)

    def test_malformed_signature_elements(self, identity):
        cert, _ = identity
        body = self.body()
        with pytest.raises(DsigError, match="no SignedInfo"):
            verify_element(body, element("{http://www.w3.org/2000/09/xmldsig#}Signature"), cert.public_key)
