"""Shared fixtures/helpers for stack tests: a one-call VO deployment."""

from __future__ import annotations

import zlib

from repro.container import Deployment, SecurityMode, SecurityPolicy, SoapClient
from repro.crypto import CertificateAuthority
from repro.sim import CostModel


def make_deployment(
    mode: SecurityMode = SecurityMode.NONE,
    costs: CostModel | None = None,
) -> Deployment:
    ca = CertificateAuthority.create(seed=7)
    return Deployment(SecurityPolicy(mode), costs or CostModel(), ca)


def server_container(deployment: Deployment, host: str = "server", name: str = "App"):
    # crc32, not hash(): string hashes change with PYTHONHASHSEED.
    common_name = f"container-{host}-{name}"
    creds = deployment.issue_credentials(common_name, seed=zlib.crc32(common_name.encode()) % 10_000 + 100)
    return deployment.add_container(host, name, creds)


def make_client(deployment: Deployment, host: str = "client", cn: str = "alice", seed: int = 77):
    creds = deployment.issue_credentials(cn, seed=seed)
    return SoapClient(deployment, host, creds)


def fresh_vo(
    stack: str,
    *,
    mode: SecurityMode = SecurityMode.X509,
    reliable: bool = False,
    **overrides,
):
    """The canonical Grid-in-a-Box VO for tests: one factory for both
    stacks so suites stop hand-rolling builder calls.  ``reliable`` turns
    on the default WS-RM retry policy; extra keyword arguments pass
    through to the underlying builder (hosts=, costs=, registered=...)."""
    from repro.apps.giab import build_transfer_vo, build_wsrf_vo
    from repro.reliable.policy import RetryPolicy

    if stack not in ("wsrf", "transfer"):
        raise ValueError(f"unknown stack: {stack!r}")
    builder = build_wsrf_vo if stack == "wsrf" else build_transfer_vo
    reliability = RetryPolicy() if reliable else None
    return builder(mode=mode, reliability=reliability, **overrides)
