"""The Security/Policy handler from Figure 1.

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
from repro.crypto.x509 import Certificate, CertificateAuthority, CertificateError, DistinguishedName
from repro.crypto.xmldsig import DsigError, sign_element, signer_subject, verify_element
from repro.sim.network import Network, TransportKind
from repro.soap.envelope import Envelope
from repro.xmllib import QName, element, ns
from repro.xmllib.element import XmlElement, freeze

_SECURITY_HEADER = QName(ns.WSSE, "Security")
_SIGNATURE = QName(ns.DS, "Signature")


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


class SecurityHandler:
    """Signs outgoing and verifies incoming messages per the policy.

    ``trust`` maps DN strings to certificates (the VO's certificate
    directory); the CA root key validates each certificate before its
    public key is trusted.
    """

    def __init__(
        self,
        policy: SecurityPolicy,
        network: Network,
        ca: CertificateAuthority | None = None,
        trust: dict[str, Certificate] | None = None,
    ) -> None:
        self.policy = policy
        self.network = network
        self.ca = ca
        self.trust = trust if trust is not None else {}

    # -- outgoing ------------------------------------------------------------

    def secure_outgoing(self, envelope: Envelope, credentials: Credentials | None) -> None:
        """Attach a wsse:Security/ds:Signature header over the Body.

        The Body is final once signed, so it is frozen first: signing and
        sending then share its memoized content key.
        """
        if not self.policy.signing:
            return
        if credentials is None:
            raise SecurityError("X.509 policy requires credentials to sign")
        body = freeze(envelope.body)
        costs = self.network.costs
        kb = _approx_kb(body)
        self.network.charge(costs.c14n_digest_per_kb * kb + costs.rsa_sign, "security.sign")
        signature = sign_element(body, credentials.keypair, credentials.certificate)
        envelope.header.append(element(_SECURITY_HEADER, signature))
        self.network.metrics.signed()

    # -- incoming -------------------------------------------------------------

    def verify_incoming(self, envelope: Envelope) -> DistinguishedName | None:
        """Verify the signature (if policy requires) and return the sender DN."""
        if not self.policy.signing:
            return None
        security = envelope.header_element(_SECURITY_HEADER)
        signature = security.find(_SIGNATURE) if security is not None else None
        if signature is None:
            raise SecurityError("policy requires a signed message; none present")
        subject = signer_subject(signature)
        certificate = self.trust.get(subject)
        if certificate is None:
            raise SecurityError(f"unknown signer: {subject}")
        if self.ca is not None:
            try:
                certificate.check(self.ca.keypair.public, at_time=self.network.clock.now)
            except CertificateError as exc:
                raise SecurityError(str(exc)) from exc
        costs = self.network.costs
        kb = _approx_kb(envelope.body)
        self.network.charge(
            costs.c14n_digest_per_kb * kb + costs.rsa_verify + costs.security_policy_check,
            "security.verify",
        )
        try:
            verify_element(envelope.body, signature, certificate.public_key)
        except DsigError as exc:
            raise SecurityError(f"signature invalid: {exc}") from exc
        self.network.metrics.verified()
        return certificate.subject


def _approx_kb(node: XmlElement) -> float:
    # Cheap size proxy for cost scaling: count of text + tags. The exact wire
    # size is charged by the transport; this only scales crypto cost.
    total = 0
    stack = [node]
    while stack:
        current = stack.pop()
        total += 16 + len(current.tag.local)
        for child in current.children:
            if isinstance(child, str):
                total += len(child)
            else:
                stack.append(child)
    return total / 1024.0
