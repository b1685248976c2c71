"""Fixture: a handler mutating module-level state (RPO06's; now RPO09)."""

from repro.container.service import MessageContext, ServiceSkeleton, web_method

SUBSCRIBERS = []
REGISTRY = {}
COUNTER = 0


class LeakyStateService(ServiceSkeleton):
    @web_method("http://example.org/made-up-state/Register")
    def register(self, context: MessageContext):
        global COUNTER
        COUNTER += 1
        SUBSCRIBERS.append(context.sender)
        REGISTRY[str(context.sender)] = COUNTER
        return None
