"""Stack B part 2: WS-Eventing (the Plumbwork Orange feature set).

Event Source (Subscribe), Subscription Manager (Renew / GetStatus /
Unsubscribe) storing its subscription list in a flat XML file, an XPath
filtering facility, push delivery over a persistent-TCP ``SoapReceiver``,
and the spec-external NotificationManager convenience for firing events —
each named in §3.2 of the paper.
"""

from repro.eventing.store import FlatFileSubscriptionStore, SubscriptionRecord
from repro.eventing.filters import EventFilter
from repro.eventing.source import EventSourceMixin, actions
from repro.eventing.manager import EventSubscriptionManagerService
from repro.eventing.notification_manager import NotificationManager
from repro.eventing.delivery import EventingConsumer

__all__ = [
    "FlatFileSubscriptionStore",
    "SubscriptionRecord",
    "EventFilter",
    "EventSourceMixin",
    "EventSubscriptionManagerService",
    "NotificationManager",
    "EventingConsumer",
    "actions",
]
