"""Wall-clock spans around the public entry points of each ``repro`` layer.

The traced run patches the seams listed in :data:`SEAMS` from outside the
program: nothing under ``src/`` knows it is being timed.  Each wrapped call
records one span in memory (seam, ``perf_counter_ns`` start and end, parent
span, client op id) and adds its *self time* - its duration minus the part
covered by child spans - to a per-phase total.  Because every span nests in
the single root span the run loop opens around each timed phase, the self
times of all seams add up to the timed phase's wall time exactly.

A function bound with ``from ... import`` lives under several names, so a
function seam is patched in every loaded ``repro`` module that holds it, not
only where it is defined.  :meth:`Tracer.uninstall` puts every original
back and checks that it did.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns

#: (seam, defining module, attribute).  A dotted attribute is a method; a
#: seam may cover several methods (their calls and self times add up).
SEAMS = (
    ("xmllib.parse_xml", "repro.xmllib.parse", "parse_xml"),
    ("xmllib.serialize", "repro.xmllib.serialize", "serialize"),
    ("xmllib.canonicalize", "repro.xmllib.c14n", "canonicalize"),
    ("xmllib.copy", "repro.xmllib.element", "XmlElement.copy"),
    ("crypto.sign_element", "repro.crypto.xmldsig", "sign_element"),
    ("crypto.verify_element", "repro.crypto.xmldsig", "verify_element"),
    ("crypto.rsa_sign", "repro.crypto.rsa", "RsaKeyPair.sign"),
    ("crypto.rsa_verify", "repro.crypto.rsa", "RsaPublicKey.verify"),
    ("crypto.cert_check", "repro.crypto.x509", "Certificate.check"),
    ("crypto.keygen", "repro.crypto.rsa", "RsaKeyPair.generate"),
    ("soap.from_envelope", "repro.soap.message", "WireMessage.from_envelope"),
    ("soap.parse", "repro.soap.message", "WireMessage.parse"),
    ("pipeline.outbound", "repro.pipeline.chain", "FilterChain.run_outbound"),
    ("pipeline.inbound", "repro.pipeline.chain", "FilterChain.run_inbound"),
    ("container.invoke", "repro.container.client", "SoapClient.invoke"),
    ("container.handle", "repro.container.container", "Container.handle"),
    ("container.dispatch", "repro.container.service", "ServiceSkeleton.dispatch"),
    ("container.dispatch", "repro.wsrf.programming", "WsResourceService.dispatch"),
    ("xmldb.query", "repro.xmldb.collection", "Collection.query"),
    ("xmldb.query", "repro.xmldb.collection", "Collection.query_keys"),
    # The unindexed registries (Grid-in-a-Box's default) query by scanning.
    ("xmldb.query", "repro.xmldb.collection", "Collection.documents"),
    ("xmldb.read", "repro.xmldb.collection", "Collection.read"),
    ("xmldb.write", "repro.xmldb.collection", "Collection.insert"),
    ("xmldb.write", "repro.xmldb.collection", "Collection.update"),
    ("xmldb.write", "repro.xmldb.collection", "Collection.upsert"),
    ("xmldb.write", "repro.xmldb.collection", "Collection.delete"),
    ("sim.kernel_run", "repro.sim.kernel", "Kernel.run"),
    ("sim.kernel_run_sync", "repro.sim.kernel", "Kernel.run_sync"),
    ("sim.transmit", "repro.sim.network", "Network.transmit"),
    ("sim.transmit", "repro.sim.network", "Network.transmit_response"),
)

#: Seams that are counted but open no span, so their time stays in the
#: caller's self time: prime tests are the bulk of ``crypto.keygen``, and a
#: ``parse_envelope`` under ``soap.parse`` is a receipt that re-parsed text.
COUNTED = (
    ("crypto.is_probable_prime", "repro.crypto.primes", "is_probable_prime"),
    ("soap.parse_envelope", "repro.soap.envelope", "parse_envelope"),
)

#: The run loop's root span: its self time is everything in a timed phase
#: outside the wrapped seams (client proxies, the benchmark loop).
ROOT = "unwrapped"

SEAM_NAMES = tuple(dict.fromkeys(seam for seam, _, _ in SEAMS))


class Tracer:
    """Records nested wall-clock spans; one instance per traced run."""

    def __init__(self) -> None:
        #: Span tuples ``(seam, start_ns, end_ns, parent index, op, track)``
        #: in the order they opened; -1 is "no parent".
        self.spans: list[tuple | None] = []
        #: ``(phase, seam) -> [calls, self ns]``.
        self.totals: dict[tuple[str, str], list[int]] = {}
        #: ``(phase, seam, innermost open seam) -> calls`` for :data:`COUNTED`.
        self.counts: Counter = Counter()
        #: Set by the run loop: ``setup``/``timed``/``check``, the client op
        #: id (or ``setup``) and the stack whose track the spans belong to.
        self.phase = "setup"
        self.op: object = "setup"
        self.track = ""
        #: Set during an open loop: while one of its tasks is stepping, the
        #: task's name is the op id.
        self.kernel = None
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def open(self, seam: str) -> list:
        """Start a span; frames are ``[seam, index, parent, child ns, op, start]``."""
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)
        op = self.op
        if self.kernel is not None and self.kernel.current is not None:
            op = self.kernel.current.name
        frame = [seam, index, stack[-1][1] if stack else -1, 0, op, perf_counter_ns()]
        stack.append(frame)
        return frame

    def close(self, frame: list, call: bool = True) -> None:
        """End a span; ``call=False`` adds its time to a call already counted."""
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        seam, index, parent, child_ns, op, start = frame
        duration = end - start
        self.spans[index] = (seam, start, end, parent, op, self.track)
        total = self.totals.get((self.phase, seam))
        if total is None:
            total = self.totals[(self.phase, seam)] = [0, 0]
        total[0] += call
        total[1] += duration - child_ns
        if stack:
            stack[-1][3] += duration

    def _span_wrapper(self, seam: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(seam, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1][0] == seam:
                # A seam calling itself (``super().dispatch``, ``query_keys``
                # -> ``query``) is one call of that seam, not two.
                return fn(*args, **kwargs)
            frame = self.open(seam)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return traced

    def _generator_wrapper(self, seam: str, fn):
        """A generator does its work as it is iterated: one span per step,
        one call per iteration."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            first = True
            while True:
                frame = self.open(seam)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    self.close(frame, call=first)
                    first = False
                yield item

        return traced

    def _count_wrapper(self, seam: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = self._stack
            self.counts[(self.phase, seam, stack[-1][0] if stack else "")] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every seam; call after importing ``repro``, before deploying."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for seams, make in ((SEAMS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for seam, module_name, attr in seams:
                module = importlib.import_module(module_name)
                owner_name, _, name = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[name]
                    if isinstance(original, classmethod):
                        wrapper = classmethod(make(seam, original.__func__))
                    else:
                        wrapper = make(seam, original)
                    self._patch(owner, name, wrapper)
                else:
                    original = getattr(module, name)
                    wrapper = make(seam, original)
                    for holder in _repro_modules():
                        for bound, value in list(vars(holder).items()):
                            if value is original:
                                self._patch(holder, bound, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def patched_sites(self) -> set[str]:
        """``module.name`` / ``Class.name`` for every patched binding."""
        return {f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, _ in self._patched}

    def uninstall(self) -> None:
        """Restore every original binding, then check that each is back."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        for owner, name, original in self._patched:
            if owner.__dict__[name] is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{name}")
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def calls(self, phase: str, seam: str) -> int:
        return self.totals.get((phase, seam), (0, 0))[0]

    def self_ms(self, phase: str, seam: str) -> float:
        return self.totals.get((phase, seam), (0, 0))[1] / 1e6

    def counted(self, phase: str, seam: str, under: str | None = None) -> int:
        return sum(
            n for (p, s, parent), n in self.counts.items()
            if p == phase and s == seam and (under is None or parent == under)
        )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-seam calls and self time (timed phase; keygen over setup)."""
        metrics: dict[str, tuple[float, str]] = {}
        for seam in SEAM_NAMES:
            phase = "setup" if seam == "crypto.keygen" else "timed"
            metrics[f"{seam}.calls"] = (self.calls(phase, seam), "count")
            metrics[f"{seam}.self_ms"] = (self.self_ms(phase, seam), "ms")
        metrics["crypto.is_probable_prime.calls"] = (
            self.counted("setup", "crypto.is_probable_prime"), "count",
        )
        receipts = self.calls("timed", "soap.parse")
        reparsed = self.counted("timed", "soap.parse_envelope", under="soap.parse")
        metrics["soap.parse.reparse_ratio"] = (
            reparsed / receipts if receipts else 0.0, "ratio",
        )
        metrics[f"{ROOT}.self_ms"] = (self.self_ms("timed", ROOT), "ms")
        return metrics

    def write_chrome_trace(self, path) -> int:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        spans = [span for span in self.spans if span is not None]
        origin = min((span[1] for span in spans), default=0)
        tracks = {track: tid for tid, track in enumerate(sorted({s[5] for s in spans}), 1)}
        events = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid, "args": {"name": track}}
            for track, tid in tracks.items()
        ]
        events.extend(
            {
                "name": seam,
                "cat": seam.partition(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1000,
                "dur": (end - start) / 1000,
                "pid": 1,
                "tid": tracks[track],
                "args": {"op": op},
            }
            for seam, start, end, _parent, op, track in spans
        )
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out, separators=(",", ":"))
        return len(spans)


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
