"""XML digital signatures over the exclusive canonical form.

A detached ``ds:Signature`` element covering one target element (in practice
the SOAP Body).  Structure follows XML-DSig: a ``SignedInfo`` holding the
digest of the canonicalized target, an RSA ``SignatureValue`` over the
canonicalized ``SignedInfo``, and a ``KeyInfo`` naming the signer's X.509
subject so the verifier can find the certificate.
"""

from __future__ import annotations

import base64
import hashlib

from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, SignatureError
from repro.crypto.x509 import Certificate
from repro.xmllib import canonicalize, element, text_of
from repro.xmllib import ns
from repro.xmllib.c14n import render_canonical
from repro.xmllib.element import XmlElement, content_key
from repro.xmllib.memo import ContentCache, memo_enabled


class DsigError(ValueError):
    """Raised when a signature element is malformed or fails verification."""


_C14N_ALG = "urn:repro:c14n:exclusive-lite"
_SIG_ALG = ns.DSIG_RSA_SHA1
_DIGEST_ALG = ns.DSIG_SHA1

# Content-keyed memoization (DESIGN.md §16).  Digests, signatures and
# verification verdicts are pure functions of (content, key material):
# PKCS#1 v1.5 signing is deterministic, so a cached signature is
# byte-identical to a freshly computed one, and content keys change on any
# mutation of the covered tree, so stale entries can only miss.  Cached
# Signature elements are private copies — callers get a fresh copy per hit
# and can never mutate the cached instance.  Verification caches successes
# only; failures always re-raise through the full path.
_DIGESTS = ContentCache("dsig.digest", capacity=8192)
_SIGNATURES = ContentCache("dsig.sign", capacity=2048)
_VERIFIED = ContentCache("dsig.verify", capacity=8192)


def _digest(target: XmlElement) -> str:
    if memo_enabled():
        key = content_key(target)
        cached = _DIGESTS.get(key)
        if cached is not None:
            return cached
    # The digest is cached below, so the target's text is not: the c14n
    # cache would only ever miss on it.
    payload = render_canonical(target).encode()
    value = base64.b64encode(hashlib.sha1(payload).digest()).decode()
    if memo_enabled():
        _DIGESTS.put(key, value)
    return value


def _signed_info(digest_value: str, reference_uri: str) -> XmlElement:
    return element(
        f"{{{ns.DS}}}SignedInfo",
        element(f"{{{ns.DS}}}CanonicalizationMethod", attrs={"Algorithm": _C14N_ALG}),
        element(f"{{{ns.DS}}}SignatureMethod", attrs={"Algorithm": _SIG_ALG}),
        element(
            f"{{{ns.DS}}}Reference",
            element(f"{{{ns.DS}}}DigestMethod", attrs={"Algorithm": _DIGEST_ALG}),
            element(f"{{{ns.DS}}}DigestValue", digest_value),
            attrs={"URI": reference_uri},
        ),
    )


def sign_element(
    target: XmlElement,
    keypair: RsaKeyPair,
    certificate: Certificate,
    *,
    reference_uri: str = "#Body",
) -> XmlElement:
    """Produce a ``ds:Signature`` element covering ``target``."""
    enabled = memo_enabled()
    if enabled:
        cache_key = (
            content_key(target),
            reference_uri,
            keypair.n,
            keypair.d,
            str(certificate.subject),
        )
        cached = _SIGNATURES.get(cache_key)
        if cached is not None:
            return cached.copy()
    signed_info = _signed_info(_digest(target), reference_uri)
    signature_bytes = keypair.sign(canonicalize(signed_info).encode())
    signature = element(
        f"{{{ns.DS}}}Signature",
        signed_info,
        element(f"{{{ns.DS}}}SignatureValue", base64.b64encode(signature_bytes).decode()),
        element(
            f"{{{ns.DS}}}KeyInfo",
            element(f"{{{ns.DS}}}X509SubjectName", str(certificate.subject)),
        ),
    )
    if enabled:
        _SIGNATURES.put(cache_key, signature.copy())
    return signature


def signer_subject(signature: XmlElement) -> str:
    """Extract the X509SubjectName naming the signing identity."""
    key_info = signature.find(f"{{{ns.DS}}}KeyInfo")
    subject = key_info.find(f"{{{ns.DS}}}X509SubjectName") if key_info else None
    name = text_of(subject)
    if not name:
        raise DsigError("signature carries no X509SubjectName")
    return name


def verify_element(
    target: XmlElement,
    signature: XmlElement,
    public_key: RsaPublicKey,
) -> None:
    """Verify ``signature`` over ``target``; raise :class:`DsigError` if bad.

    Checks both layers: the reference digest against the canonicalized
    target (tamper evidence) and the RSA signature over SignedInfo
    (authenticity).
    """
    enabled = memo_enabled()
    if enabled:
        cache_key = (
            content_key(target),
            content_key(signature),
            public_key.n,
            public_key.e,
        )
        if _VERIFIED.get(cache_key) is not None:
            return
    signed_info = signature.find(f"{{{ns.DS}}}SignedInfo")
    if signed_info is None:
        raise DsigError("signature has no SignedInfo")
    reference = signed_info.find(f"{{{ns.DS}}}Reference")
    if reference is None:
        raise DsigError("SignedInfo has no Reference")
    claimed_digest = text_of(reference.find(f"{{{ns.DS}}}DigestValue"))
    if claimed_digest != _digest(target):
        raise DsigError("digest mismatch: signed content was modified")
    value_el = signature.find(f"{{{ns.DS}}}SignatureValue")
    if value_el is None:
        raise DsigError("signature has no SignatureValue")
    try:
        signature_bytes = base64.b64decode(text_of(value_el), validate=True)
    except Exception as exc:
        raise DsigError(f"SignatureValue is not valid base64: {exc}") from exc
    try:
        public_key.verify(canonicalize(signed_info).encode(), signature_bytes)
    except SignatureError as exc:
        raise DsigError("RSA signature verification failed") from exc
    if enabled:
        _VERIFIED.put(cache_key, True)
