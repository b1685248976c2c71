"""Shared toy specs for the experiment-engine tests.

The real registry specs are gated by ``test_records.py``; here a tiny
deterministic spec (2 axes, 4 cells, pure arithmetic) keeps the engine /
gate / CLI tests fast and lets them count measure() invocations.
"""

from repro.experiments import Axis, ExperimentSpec, PairOrdering, Predicate


def toy_measure(params: dict, seed: int) -> dict:
    base = {"wsrf": 10.0, "transfer": 6.0}[params["stack"]]
    security = {"none": 0.0, "x509": 40.0}[params["mode"]]
    return {
        "get_ms": base + security,
        "create_ms": 2.0 * base + security,
        "seed_echo": seed % 97,
    }


def make_toy_spec(*, seed: int = 0, measure=toy_measure, **overrides) -> ExperimentSpec:
    """A 2x2 spec with one ordering and one predicate invariant."""
    fields = dict(
        name="toy",
        title="Toy: hello-world shaped grid",
        axes=(
            Axis("mode", ("none", "x509")),
            Axis("stack", ("wsrf", "transfer")),
        ),
        measure=measure,
        seed=seed,
        invariants=(
            PairOrdering(
                name="x509_slower",
                claim="signing always costs more than no security",
                metric="get_ms",
                greater={"mode": "x509"},
                lesser={"mode": "none"},
            ),
            Predicate(
                name="all_positive",
                claim="every latency is positive",
                fn=lambda record: [
                    f"{cell.cell_id}: get_ms <= 0"
                    for cell in record.cells
                    if cell.values["get_ms"] <= 0
                ],
            ),
        ),
        to_figure=lambda record: {
            cell.cell_id: {"Get": cell.values["get_ms"]} for cell in record.cells
        },
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class CountingMeasure:
    """A measure callable that counts invocations per cell id."""

    def __init__(self, inner=toy_measure):
        self.inner = inner
        self.calls: list[dict] = []

    def __call__(self, params: dict, seed: int) -> dict:
        self.calls.append(dict(params))
        return self.inner(params, seed)
