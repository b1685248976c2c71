"""Declarative experiment specs: axes × measurement × invariants.

A spec names what varies (:class:`Axis` values — stack, security mode,
placement, workload, loss rate…), how one cell is measured (a callable
from ``(params, seed)`` to a JSON payload), and which *shape* claims the
measured numbers must keep satisfying (:class:`PairOrdering` /
:class:`Predicate` invariants).  The engine
(:mod:`repro.experiments.engine`) expands the grid and runs it; the gate
(:mod:`repro.experiments.gates`) re-evaluates the invariants and diffs
fresh numbers against the recorded trajectory.
"""

from __future__ import annotations

import hashlib
import re
import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.experiments.schema import (
    SCHEMA_VERSION,
    RunRecord,
    dumps_canonical,
    numeric_leaves,
)


class SpecError(ValueError):
    """A malformed spec declaration or selector."""


_SCALARS = (str, int, float, bool)


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a name and its ordered values.

    Values must be JSON scalars — they appear verbatim in cell ids and
    the serialized record, and the grid order (outer axes first, values
    in declaration order) is part of the reproducibility contract.
    """

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.name or not re.fullmatch(r"[a-z0-9_]+", self.name):
            raise SpecError(f"axis name must be a lower_snake identifier: {self.name!r}")
        if not self.values:
            raise SpecError(f"axis {self.name!r} has no values")
        for value in self.values:
            if not isinstance(value, _SCALARS):
                raise SpecError(
                    f"axis {self.name!r} value {value!r} is not a JSON scalar"
                )
        if len(set(map(repr, self.values))) != len(self.values):
            raise SpecError(f"axis {self.name!r} has duplicate values")


# -- invariants --------------------------------------------------------------


@dataclass(frozen=True)
class Invariant:
    """Base class: a named shape claim evaluated against a RunRecord."""

    name: str
    claim: str = ""

    def evaluate(self, spec: "ExperimentSpec", record: RunRecord) -> list[str]:
        raise NotImplementedError


def _matches(params: dict, selector: dict) -> bool:
    return all(params.get(axis) == value for axis, value in selector.items())


@dataclass(frozen=True)
class PairOrdering(Invariant):
    """Every matching cell pair must order ``greater`` above ``lesser``.

    Cells matching the ``greater`` selector are paired with the cell
    whose params are identical except for the axes named in ``lesser``
    (e.g. ``greater={"mode": "x509"}, lesser={"mode": "https"}`` pairs
    across the mode axis).  ``metric`` selects which numeric leaves are
    compared: an exact path, a ``prefix.`` (trailing dot), or ``"*"``
    for every shared numeric leaf.  ``factor`` demands
    ``greater > factor × lesser``.
    """

    metric: str = "*"
    greater: dict = field(default_factory=dict)
    lesser: dict = field(default_factory=dict)
    factor: float = 1.0

    def __post_init__(self) -> None:
        if set(self.greater) != set(self.lesser):
            raise SpecError(
                f"ordering {self.name!r}: greater/lesser must name the same axes"
            )
        if not self.greater:
            raise SpecError(f"ordering {self.name!r}: empty selectors")

    def _select(self, leaves: dict[str, float]) -> dict[str, float]:
        if self.metric == "*":
            return leaves
        if self.metric.endswith("."):
            return {p: v for p, v in leaves.items() if p.startswith(self.metric)}
        return {p: v for p, v in leaves.items() if p == self.metric}

    def evaluate(self, spec: "ExperimentSpec", record: RunRecord) -> list[str]:
        violations: list[str] = []
        paired = 0
        for cell in record.cells:
            if not _matches(cell.params, self.greater):
                continue
            partner_params = {**cell.params, **self.lesser}
            partner = next(
                (c for c in record.cells if c.params == partner_params), None
            )
            if partner is None:
                continue
            paired += 1
            high = self._select(numeric_leaves(cell.values))
            low = self._select(numeric_leaves(partner.values))
            for path in sorted(set(high) & set(low)):
                if not high[path] > self.factor * low[path]:
                    violations.append(
                        f"{self.name}: {cell.cell_id}:{path} ({high[path]:g}) "
                        f"must exceed {self.factor:g} x {partner.cell_id}:{path} "
                        f"({low[path]:g})"
                    )
        if not paired:
            violations.append(f"{self.name}: selector matched no cell pairs")
        return violations


@dataclass(frozen=True)
class Predicate(Invariant):
    """Escape hatch: an arbitrary check over the whole record.

    ``fn(record)`` returns a list of violation strings (empty = holds).
    """

    fn: Callable[[RunRecord], list[str]] | None = None

    def evaluate(self, spec: "ExperimentSpec", record: RunRecord) -> list[str]:
        if self.fn is None:
            raise SpecError(f"predicate {self.name!r} has no function")
        return [f"{self.name}: {v}" for v in self.fn(record)]


def evaluate_invariants(spec: "ExperimentSpec", record: RunRecord) -> list[str]:
    """All invariant violations for ``record``, in declaration order."""
    violations: list[str] = []
    for invariant in spec.invariants:
        violations.extend(invariant.evaluate(spec, record))
    return violations


# -- the spec ----------------------------------------------------------------

#: How the gate treats a spec's numbers.  ``exact``: virtual-clock
#: deterministic — fresh numbers must match the record bit-for-bit.
#: ``shape``: wall-clock — only the structure and the invariants are
#: re-checked; absolute numbers may drift.
GATE_KINDS = ("exact", "shape")


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: grid, measurement, contract, outputs."""

    name: str
    title: str
    axes: tuple[Axis, ...]
    #: ``measure(params, seed) -> values`` for one cell.  ``params`` maps
    #: axis names to values; ``seed`` is the cell's derived seed.  Must be
    #: a pure function of its arguments and the virtual clock.
    measure: Callable[[dict, int], dict]
    #: Base seed; each cell's seed is derived from it and the cell id.
    seed: int = 0
    invariants: tuple[Invariant, ...] = ()
    #: Gate mode (see GATE_KINDS).
    gate: str = "exact"
    #: Builds the figure table (series → {column → value}) from a
    #: record; used for the ``results/*.csv`` artifact and the docs table.
    to_figure: Callable[[RunRecord], dict] | None = None
    #: A second table beyond the default figure CSV (fig6's messages and
    #: signatures): ``fn(record) -> {relative filename: exact file text}``.
    extra_artifacts: Callable[[RunRecord], dict[str, str]] | None = None
    #: Included in ``--smoke`` (must be cheap: a few hundred ms).
    smoke: bool = False
    #: Spec-level constants recorded in the run record's config block.
    config: dict = field(default_factory=dict)
    #: Where this spec's measurement lives, for the docs.
    source: str = ""

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[a-z0-9_]+", self.name):
            raise SpecError(f"spec name must be a lower_snake identifier: {self.name!r}")
        if not self.axes:
            raise SpecError(f"spec {self.name!r} declares no axes")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise SpecError(f"spec {self.name!r} has duplicate axis names")
        if self.gate not in GATE_KINDS:
            raise SpecError(f"spec {self.name!r}: unknown gate kind {self.gate!r}")

    # -- grid --------------------------------------------------------------

    def grid(self) -> list[dict]:
        """Every cell's params, outer axes varying slowest."""
        cells: list[dict] = [{}]
        for axis in self.axes:
            cells = [
                {**params, axis.name: value}
                for params in cells
                for value in axis.values
            ]
        return cells

    def cell_id(self, params: dict) -> str:
        if set(params) != {axis.name for axis in self.axes}:
            raise SpecError(
                f"params {sorted(params)} do not cover axes of {self.name!r}"
            )
        return ",".join(f"{axis.name}={params[axis.name]}" for axis in self.axes)

    def cell_seed(self, cell_id: str) -> int:
        """Stable per-cell seed: crc32 over (base seed, cell id)."""
        return zlib.crc32(f"{self.seed}:{cell_id}".encode("utf-8"))

    def fingerprint(self) -> str:
        """Identity of the grid contract (not the measurement code):
        changing axes, seed, gate or config invalidates old records."""
        identity = dumps_canonical(
            {
                "schema_version": SCHEMA_VERSION,
                "name": self.name,
                "axes": [[axis.name, list(axis.values)] for axis in self.axes],
                "seed": self.seed,
                "gate": self.gate,
                "config": self.config,
            }
        )
        return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:16]

    # -- outputs -----------------------------------------------------------

    def figure(self, record: RunRecord) -> dict:
        if self.to_figure is None:
            raise SpecError(f"spec {self.name!r} declares no figure")
        return self.to_figure(record)

    def artifacts(self, record: RunRecord) -> dict[str, str]:
        """Relative filename → exact text of every published artifact."""
        from repro.bench.report import figure_to_csv, slugify

        produced: dict[str, str] = {}
        if self.to_figure is not None:
            produced[f"{slugify(self.title)}.csv"] = figure_to_csv(self.figure(record))
        if self.extra_artifacts is not None:
            produced.update(self.extra_artifacts(record))
        return produced


def make_record(spec: ExperimentSpec, cells: Sequence) -> RunRecord:
    """A RunRecord for ``spec`` holding ``cells`` (schema objects)."""
    return RunRecord(
        spec=spec.name,
        fingerprint=spec.fingerprint(),
        config=dict(spec.config),
        cells=list(cells),
    )
