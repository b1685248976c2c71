"""Fixture: clock.charge laundered through wrappers (RPO11's; now RPO05)."""


def bump(clock, ms):
    # A bare-name receiver: every caller launders the charge through here.
    clock.charge(ms)


def advance_quietly(sim_clock, ms):
    sim_clock.advance(ms)


def handle_request(network, cost):
    bump(network.clock, cost)


def outer(network):
    handle_request(network, 5)


def charge_properly(network, ms):
    # Attribution-preserving path — must NOT be flagged.
    network.charge(ms, "soap")
