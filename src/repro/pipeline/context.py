"""The unified per-message processing context.

One :class:`PipelineContext` travels through a
:class:`~repro.pipeline.chain.FilterChain` and carries everything any
filter may need: the envelope and its wire form for both legs, the
WS-Addressing headers, the authenticated sender, the cost ledger (via the
deployment's network) and the span stack (via the metrics recorder).  The
same context type serves all three drivers — client invoke, container
handle, notification delivery — which is what lets one filter implement a
cross-cutting concern once instead of three times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.addressing.epr import EndpointReference
from repro.addressing.headers import MessageHeaders
from repro.crypto.x509 import DistinguishedName
from repro.soap.envelope import Envelope, SoapFault
from repro.soap.message import WireMessage
from repro.xmllib.element import XmlElement

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.container.container import Container
    from repro.container.deployment import Deployment, NotificationSink
    from repro.container.security import Credentials

#: The three processing roles a context can play.  ``CLIENT`` and
#: ``SERVER`` are the two ends of a request/response exchange; ``NOTIFY``
#: is the one-way notification push (producer side outbound, consumer
#: side inbound).
CLIENT = "client"
SERVER = "server"
NOTIFY = "notify"


@dataclass
class PipelineContext:
    """Mutable state shared by every filter processing one message."""

    deployment: "Deployment"
    role: str  # CLIENT | SERVER | NOTIFY
    #: Identity used for signing on the outbound leg.
    credentials: "Credentials | None" = None

    # -- client request intent ------------------------------------------------
    epr: EndpointReference | None = None
    action: str = ""
    body: XmlElement | None = None
    reply_to: EndpointReference | None = None
    #: WS-RM ``(sequence id, message number)`` assigned by a reliable
    #: channel; the ReliableMessagingFilter stamps it onto the EPR.
    rm_stamp: tuple[str, int] | None = None

    # -- request leg ---------------------------------------------------------
    headers: MessageHeaders | None = None
    request_envelope: Envelope | None = None
    request_message: WireMessage | None = None
    sender: DistinguishedName | None = None

    # -- server-side processing ----------------------------------------------
    container: "Container | None" = None
    fault: SoapFault | None = None
    result: XmlElement | None = None
    reply_headers: list[XmlElement] | None = None
    #: WS-RM reply-cache key, set when the request carries a sequence stamp.
    rm_key: tuple[str, int] | None = None
    #: True when the response was answered from the WS-RM reply cache.
    replayed: bool = False

    # -- response leg --------------------------------------------------------
    response_envelope: Envelope | None = None
    response_message: WireMessage | None = None
    response_body: XmlElement | None = None

    # -- notification delivery ------------------------------------------------
    sink: "NotificationSink | None" = None

    _deferred: list[Callable[[], None]] = field(default_factory=list)

    # -- shared simulation substrate ------------------------------------------

    @property
    def network(self):
        return self.deployment.network

    @property
    def costs(self):
        return self.deployment.network.costs

    @property
    def clock(self):
        return self.deployment.network.clock

    @property
    def metrics(self):
        return self.deployment.network.metrics

    @property
    def policy(self):
        return self.deployment.policy

    def span(self, name: str, detail: str = ""):
        """Open a trace span on the virtual clock (context manager)."""
        return self.metrics.span(name, self.clock, detail)

    # -- deferred actions ------------------------------------------------------

    def defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` after the current pipeline pass completes (LIFO).

        Filters use this for work that must observe the *finished* message
        — the WS-RM filter caches the serialized reply, the tracing filter
        closes its pass span — mirroring WSE filters that post-process a
        message after the body has been written.
        """
        self._deferred.append(fn)

    def run_deferred(self) -> None:
        while self._deferred:
            self._deferred.pop()()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def client_request(
        cls,
        deployment: "Deployment",
        credentials,
        epr: EndpointReference,
        action: str,
        body: XmlElement,
        reply_to: EndpointReference | None = None,
        rm_stamp: tuple[str, int] | None = None,
    ) -> "PipelineContext":
        return cls(
            deployment=deployment,
            role=CLIENT,
            credentials=credentials,
            epr=epr,
            action=action,
            body=body,
            reply_to=reply_to,
            rm_stamp=rm_stamp,
        )

    @classmethod
    def server_request(
        cls, container: "Container", message: WireMessage
    ) -> "PipelineContext":
        return cls(
            deployment=container.deployment,
            role=SERVER,
            credentials=container.credentials,
            container=container,
            request_message=message,
        )

    @classmethod
    def notify_outbound(
        cls, deployment: "Deployment", envelope: Envelope, credentials, sink
    ) -> "PipelineContext":
        return cls(
            deployment=deployment,
            role=NOTIFY,
            credentials=credentials,
            request_envelope=envelope,
            sink=sink,
        )

    @classmethod
    def notify_inbound(
        cls, deployment: "Deployment", message: WireMessage, sink
    ) -> "PipelineContext":
        return cls(
            deployment=deployment,
            role=NOTIFY,
            request_message=message,
            sink=sink,
        )
