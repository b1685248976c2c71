"""The WS-Eventing filtering facility.

A filter is an XPath predicate evaluated against a per-event wrapper
document::

    <wse:Event Topic="job/done">
      <app:JobExited>…</app:JobExited>
    </wse:Event>

so topic-style subscriptions use ``@Topic='job/done'`` and content
subscriptions reach into the payload (``JobExited[ExitCode != 0]``).
"Unlike WS-Notification, a subscription is not associated with a resource,
but only with a service.  Thus, a filter can be used for registering a
subscription per resource" — by matching on an id inside the payload.
"""

from __future__ import annotations

from repro.xmllib import element, ns
from repro.xmllib.element import XmlElement, seal
from repro.xmllib.xpath import XPathError, compile_xpath

FILTER_DIALECT_XPATH = ns.XPATH_DIALECT


def event_wrapper(message: XmlElement, topic: str = "") -> XmlElement:
    wrapper = element(f"{{{ns.WSE}}}Event")
    if topic:
        wrapper.set("Topic", topic)
    wrapper.append(seal(message))
    return wrapper


class EventFilter:
    """A compiled filter; empty expression accepts everything."""

    def __init__(self, expression: str = "", dialect: str = FILTER_DIALECT_XPATH):
        if dialect != FILTER_DIALECT_XPATH:
            raise ValueError(f"unsupported filter dialect: {dialect}")
        self.expression = expression.strip()
        self._compiled = compile_xpath(self.expression) if self.expression else None

    def matches(self, message: XmlElement, topic: str = "") -> bool:
        if self._compiled is None:
            return True
        try:
            return self._compiled.matches(event_wrapper(message, topic))
        except XPathError:
            return False

    @staticmethod
    def topic_filter(topic: str) -> str:
        """Convenience: the expression for a topic-based subscription."""
        return f"@Topic='{topic}'"
