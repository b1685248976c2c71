"""Wire messages: an envelope plus its serialized form.

Messages really are serialized before "transmission" — the byte counts
that drive transport costs are always genuine.  Sending seals the envelope
(see :mod:`repro.xmllib.element`), so the tree that was serialized can no
longer change.  As a wall-clock memoization (DESIGN.md §16) the receiver
then gets the sender's sealed tree itself: it is equal to what re-parsing
the bytes would build (the round-trip property the c14n fuzz tests pin),
and neither side can edit it.  Under
:func:`repro.xmllib.memo.caching_disabled` every receipt is a full
re-parse, and the re-parsed tree is sealed too, so both modes hand the
receiver a tree that rejects the same edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.soap.envelope import Envelope, parse_envelope
from repro.xmllib import serialize
from repro.xmllib.element import XmlElement, seal
from repro.xmllib.memo import memo_enabled


@dataclass(frozen=True)
class WireMessage:
    """One message in flight."""

    text: str
    #: The sealed root this message was serialized from (wall-clock fast
    #: path only; never compared).
    _source: XmlElement | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_envelope(cls, envelope: Envelope) -> "WireMessage":
        # Sealing keys every node, which is also what arms serialize()'s
        # fragment reuse for this envelope.
        root = seal(envelope.root)
        return cls(serialize(root, xml_declaration=True), root)

    @property
    def n_bytes(self) -> int:
        return len(self.text.encode("utf-8"))

    @property
    def n_kb(self) -> float:
        return self.n_bytes / 1024.0

    def parse(self) -> Envelope:
        if self._source is not None and memo_enabled():
            return Envelope(self._source)
        text = self.text
        if text.startswith("<?xml"):
            end = text.find("?>")
            text = text[end + 2 :]
        envelope = parse_envelope(text)
        seal(envelope.root)
        return envelope
