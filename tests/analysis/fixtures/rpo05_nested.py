"""Fixture: message work inside a nested def is that def's finding (RPO05)."""

from repro.soap.wire import WireMessage


def outer(envelope, transport):
    def inner():
        return WireMessage.from_envelope(envelope)

    transport.push(inner())
