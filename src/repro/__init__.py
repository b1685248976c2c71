"""repro — Alternative Software Stacks for OGSA-based Grids (SC'05), rebuilt.

A complete Python reproduction of Humphrey et al.'s comparison of the
WSRF/WS-Notification and WS-Transfer/WS-Eventing software stacks: both
stacks implemented from scratch, the substrates they stand on (XML infoset
+ c14n + XPath, pure-Python WS-Security, an Xindice-like XML database, a
calibrated virtual-time network), the paper's two evaluation applications
(the counter "hello world" and Grid-in-a-Box), and a benchmark harness that
regenerates every figure.  Start with README.md; ``python -m repro
experiments --run NAME --results DIR`` regenerates and prints a figure at
the terminal.

Subpackage map (details in DESIGN.md):

================  ===========================================================
``repro.xmllib``     XML infoset, canonicalization, XPath-lite, schemas
``repro.crypto``     RSA / X.509-style certs / XML-DSig
``repro.sim``        virtual clock, cost model, simulated network, metrics
``repro.soap``       envelopes, faults, wire messages
``repro.addressing`` WS-Addressing EPRs + headers
``repro.xmldb``      the Xindice-like XML database
``repro.container``  the paper's Figure 1 resource-aware container
``repro.wsrf``       Stack A: WSRF port types + WSRF.NET programming model
``repro.wsn``        Stack A: WS-Notification (+ topics, broker)
``repro.transfer``   Stack B: WS-Transfer (+ an independent second impl)
``repro.eventing``   Stack B: WS-Eventing
``repro.metadata``   WS-MetadataExchange (extension)
``repro.wsdl``       WSDL generation / inspection / proxy generation
``repro.bridge``     stack-switching facades (extension)
``repro.apps``       the counter and Grid-in-a-Box applications
``repro.bench``      the measurements behind each experiment, reporting
================  ===========================================================
"""

__version__ = "1.0.0"
