"""Fixture: wall-clock waits in retransmission code (RPO07's; now RPO10)."""

import time
from time import sleep as nap


def backoff_for_real(attempt):
    time.sleep(0.04 * 2**attempt)


class Retransmitter:
    def retry(self, attempts):
        for attempt in range(attempts):
            nap(0.01)


def wait_virtually(network, policy, attempt, rng):
    # The compliant shape: virtual backoff, charged and attributed.
    network.charge(policy.backoff_ms(attempt, rng), "reliable.backoff")
