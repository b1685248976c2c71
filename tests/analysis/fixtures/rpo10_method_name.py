"""Fixture: a common method name must not fake handler reachability (RPO10).

The handler calls ``Cert().check(...)``, a method.  The module-level
``check()`` shares only its name, so its wall-clock read is not
handler-reachable and stays a warning.
"""

import time

from repro.container.service import MessageContext, ServiceSkeleton, web_method


class Cert:
    def check(self, at_time):
        return at_time >= 0


def check():
    return time.perf_counter()


class VerifyService(ServiceSkeleton):
    @web_method("http://example.org/made-up-cert/Verify")
    def verify(self, context: MessageContext):
        return Cert().check(1)
