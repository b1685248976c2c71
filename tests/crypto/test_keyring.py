"""The committed keyring (``repro/crypto/keyring.json``) against the search.

Every entry must hold exactly the primes ``rsa._search_primes`` draws for
its ``(bits, seed)``: tier-1 re-searches a sample, the soak run all of
them.  Deploying any scenario in ``src/`` must find all its keys there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.counter import CounterScenario, build_transfer_rig, build_wsrf_rig
from repro.apps.datagrid.deploy import build_datagrid
from repro.apps.giab import build_transfer_vo, build_wsrf_vo
from repro.bench.brokered import build_brokered_rig
from repro.bench.switching import measure_route
from repro.crypto import RsaKeyPair, rsa

KEYRING = Path(rsa.__file__).with_name("keyring.json")
SRC = Path(rsa.__file__).parents[2]
ENTRIES = json.loads(KEYRING.read_text(encoding="utf-8"))

#: Seed 7, the CA key, alone takes about half a second to search.
CHEAP_1024_BIT_SEED = 202


def entry_line(bits: int, seed: int) -> str:
    """The keyring line for ``(bits, seed)``, as the search yields it."""
    p, q = rsa._search_primes(bits, seed)
    return json.dumps({"bits": bits, "seed": seed, "p": f"{p:x}", "q": f"{q:x}"})


def test_one_entry_per_line_sorted_by_bits_and_seed():
    keys = [(entry["bits"], entry["seed"]) for entry in ENTRIES]
    assert keys == sorted(set(keys))
    lines = ",\n".join(json.dumps(entry) for entry in ENTRIES)
    assert KEYRING.read_text(encoding="utf-8") == f"[\n{lines}\n]\n"


SAMPLE = [
    entry for entry in ENTRIES
    if entry["bits"] == 512 or (entry["bits"], entry["seed"]) == (1024, CHEAP_1024_BIT_SEED)
]


@pytest.mark.parametrize("entry", SAMPLE, ids=lambda entry: f"{entry['bits']}-{entry['seed']}")
def test_search_reproduces_the_entry(entry):
    assert json.dumps(entry) == entry_line(entry["bits"], entry["seed"])


@pytest.mark.soak
def test_search_reproduces_every_entry():
    searched = [entry_line(entry["bits"], entry["seed"]) for entry in ENTRIES]
    wrong = [line for line, entry in zip(searched, ENTRIES) if line != json.dumps(entry)]
    assert not wrong, "keyring entries differ from the search; commit:\n" + "\n".join(wrong)


def test_a_seed_not_in_the_keyring_is_searched():
    assert (512, 4242) not in rsa._KEYRING
    keypair = RsaKeyPair.generate(bits=512, seed=4242)
    assert (keypair.p, keypair.q) == rsa._search_primes(512, 4242)


DEPLOYMENTS = {
    "counter-wsrf": lambda: build_wsrf_rig(CounterScenario()),
    "counter-transfer": lambda: build_transfer_rig(CounterScenario()),
    "giab-wsrf": build_wsrf_vo,
    "giab-transfer": build_transfer_vo,
    "datagrid-wsrf": lambda: build_datagrid("wsrf"),
    "datagrid-transfer": lambda: build_datagrid("transfer"),
    "brokered": build_brokered_rig,
    "gateway-601": lambda: measure_route("bridged_wsrf"),
    "gateway-602": lambda: measure_route("bridged_transfer"),
}


class PrimeSearch(Exception):
    pass


@pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
def test_deploying_runs_no_prime_search(name, monkeypatch):
    searched = []
    search = rsa._search_primes

    def recording_search(bits, seed):
        searched.append((bits, seed))
        return search(bits, seed)

    def no_prime(bits, rng):
        raise PrimeSearch

    monkeypatch.setattr(rsa, "_KEY_CACHE", {})
    monkeypatch.setattr(rsa, "_search_primes", recording_search)
    monkeypatch.setattr(rsa, "generate_prime", no_prime)
    try:
        DEPLOYMENTS[name]()
    except PrimeSearch:
        monkeypatch.undo()
        pytest.fail(f"deploying {name} searched for a key; commit this keyring line:\n"
                    + entry_line(*searched[-1]))


def test_brokered_keys_do_not_depend_on_string_hashing():
    code = (
        "from repro.bench.brokered import build_brokered_rig\n"
        "deployment = build_brokered_rig()[0]\n"
        "print(sorted((str(s), c.public_key.fingerprint()) for s, c in deployment.trust.items()))\n"
    )
    fingerprints = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed},
        ).stdout
        for hash_seed in ("0", "1")
    }
    assert len(fingerprints) == 1, fingerprints
