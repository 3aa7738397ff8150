"""Wire messages: an envelope plus its serialized form.

Messages really are serialized before "transmission" — the byte counts
that drive transport costs are always genuine.  Sending freezes the
envelope (DESIGN.md §16): from then on nothing in it can change, so the
receiver is handed the sender's frozen tree itself — a wall-clock
shortcut equivalent to re-parsing the bytes, because a frozen tree is
exactly the tree its text was written from (the round-trip property the
c14n fuzz tests pin).  Under :func:`repro.xmllib.memo.caching_disabled`
every receipt is a full re-parse, and the re-parsed tree is frozen too,
so in both modes a receiver that wants to edit what it got must copy it
first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.soap.envelope import Envelope, parse_envelope
from repro.xmllib import serialize
from repro.xmllib.element import freeze
from repro.xmllib.memo import memo_enabled


@dataclass(frozen=True)
class WireMessage:
    """One message in flight."""

    text: str
    #: The frozen envelope this message was serialized from (wall-clock
    #: fast path only; never compared).
    _source: Envelope | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_envelope(cls, envelope: Envelope) -> "WireMessage":
        text = serialize(freeze(envelope.root), xml_declaration=True)
        return cls(text, envelope if memo_enabled() else None)

    @property
    def n_bytes(self) -> int:
        return len(self.text.encode("utf-8"))

    @property
    def n_kb(self) -> float:
        return self.n_bytes / 1024.0

    def parse(self) -> Envelope:
        source = self._source
        if source is not None and memo_enabled():
            return Envelope(source.root)
        text = self.text
        if text.startswith("<?xml"):
            end = text.find("?>")
            text = text[end + 2 :]
        envelope = parse_envelope(text)
        freeze(envelope.root)
        return envelope
