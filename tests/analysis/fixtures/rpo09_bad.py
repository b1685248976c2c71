"""Fixture: mutable state shared across simulated hosts (RPO09)."""

_LEASES = {}
pending = []

# Populated while the module loads: import-time mutation is single-threaded
# and pre-host, so this must NOT be flagged.
IMPORT_TIME = {}
IMPORT_TIME["seeded"] = True


def record_lease(key, epr):
    _LEASES[key] = epr


def flush_pending():
    pending.clear()


class SubscriptionBook:
    subscribers = []
    index: dict = {}

    # SCREAMING_CASE is the constant-table convention — not flagged here;
    # runtime mutation of it would be caught by the module-level pass.
    ROUTES = {"wsrf": 1, "transfer": 2}

    def __init__(self):
        self.local = []  # per-instance state is fine


# One id source for every host: each next() advances the shared iterator.
import itertools  # noqa: E402

_IDS = itertools.count(1)
FIRST_ID = next(_IDS)  # import time — must NOT be flagged


def next_message_id():
    return f"urn:made-up:msg-{next(_IDS):08d}"
