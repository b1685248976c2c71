"""The subscription-store API the WS-Eventing manager relies on, run
against the flat-file store every WS-Transfer VO uses."""

import pytest

from repro.eventing.store import FlatFileSubscriptionStore, SubscriptionRecord
from repro.sim import CostModel, Network


def record(store, ident=None, source="soap://node1/Node/Source", expires=None):
    rec = SubscriptionRecord(
        identifier=ident or store.new_identifier(),
        source_address=source,
        notify_to="soap://client/Consumer",
        expires=expires,
    )
    store.add(rec)
    return rec


@pytest.fixture()
def store():
    return FlatFileSubscriptionStore(Network(CostModel()))


class TestApiParity:
    """Add, get, remove, renew, source lookup and expiry on one store."""

    def test_add_get_roundtrip(self, store):
        rec = record(store)
        assert store.get(rec.identifier) == rec
        assert store.get("uuid:sub-nope") is None
        assert len(store) == 1

    def test_duplicate_id_rejected(self, store):
        rec = record(store)
        with pytest.raises(ValueError, match="duplicate"):
            store.add(rec)

    def test_remove(self, store):
        rec = record(store)
        assert store.remove(rec.identifier) is True
        assert store.remove(rec.identifier) is False
        assert len(store) == 0

    def test_renew(self, store):
        rec = record(store, expires=100.0)
        renewed = store.renew(rec.identifier, 500.0)
        assert renewed is not None and renewed.expires == 500.0
        assert store.get(rec.identifier).expires == 500.0
        assert store.renew("uuid:sub-nope", 1.0) is None

    def test_for_source(self, store):
        a = record(store, source="soap://node1/Node/Source")
        record(store, source="soap://node2/Node/Source")
        b = record(store, source="soap://node1/Node/Source")
        got = store.for_source("soap://node1/Node/Source")
        assert {r.identifier for r in got} == {a.identifier, b.identifier}

    def test_prune_expired(self, store):
        dead = record(store, expires=10.0)
        live = record(store, expires=None)
        dropped = store.prune_expired(now=50.0)
        assert [r.identifier for r in dropped] == [dead.identifier]
        assert store.get(live.identifier) is not None
        assert len(store) == 1
