"""The unified results schema every experiment feeds.

One vocabulary for every benchmark: a spec expands to a grid of *cells*
(one per combination of axis values), each cell run produces a
:class:`CellResult`, and a completed grid is a :class:`RunRecord` — the
thing that is serialized under ``results/experiments/``, diffed by the
regression gate, rendered into ``results/*.csv`` / ``BENCH_*.json``
artifacts, and compiled into ``EXPERIMENTS.md``.

Serialization is deliberately boring: everything is plain JSON with
sorted keys and a fixed indent, so a record regenerated from the same
virtual-clock run is *byte-identical* — which is exactly what the
check gates diff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Bumped when the serialized layout changes incompatibly.
SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A record that does not parse as this schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


@dataclass(frozen=True)
class CellResult:
    """One measured cell: the axis values it ran at and what it produced.

    ``values`` is an arbitrary JSON-serializable payload (floats for
    simple figures, nested dicts/lists for sweep rows); the gate layer
    only compares its *numeric leaves* (see :func:`numeric_leaves`).
    """

    cell_id: str
    params: dict
    seed: int
    values: dict

    def to_json(self) -> dict:
        return {
            "cell_id": self.cell_id,
            "params": self.params,
            "seed": self.seed,
            "values": self.values,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CellResult":
        _require(isinstance(payload, dict), "cell payload must be an object")
        for key in ("cell_id", "params", "seed", "values"):
            _require(key in payload, f"cell payload missing {key!r}")
        _require(isinstance(payload["params"], dict), "cell params must be an object")
        _require(isinstance(payload["values"], dict), "cell values must be an object")
        _require(
            isinstance(payload["seed"], int) and not isinstance(payload["seed"], bool),
            "cell seed must be an integer",
        )
        return cls(
            cell_id=str(payload["cell_id"]),
            params=dict(payload["params"]),
            seed=payload["seed"],
            values=payload["values"],
        )


@dataclass
class RunRecord:
    """A completed (or partially completed) grid run of one spec."""

    spec: str
    fingerprint: str
    config: dict = field(default_factory=dict)
    cells: list[CellResult] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def cell(self, cell_id: str) -> CellResult:
        for cell in self.cells:
            if cell.cell_id == cell_id:
                return cell
        raise KeyError(f"no cell {cell_id!r} in record for {self.spec!r}")

    def cell_ids(self) -> list[str]:
        return [cell.cell_id for cell in self.cells]

    def to_json(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "spec": self.spec,
            "fingerprint": self.fingerprint,
            "config": self.config,
            "cells": [cell.to_json() for cell in self.cells],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RunRecord":
        _require(isinstance(payload, dict), "record payload must be an object")
        for key in ("schema_version", "spec", "fingerprint", "cells"):
            _require(key in payload, f"record payload missing {key!r}")
        _require(
            payload["schema_version"] == SCHEMA_VERSION,
            f"unsupported schema version {payload['schema_version']!r} "
            f"(this build reads {SCHEMA_VERSION})",
        )
        cells = [CellResult.from_json(cell) for cell in payload["cells"]]
        seen: set[str] = set()
        for cell in cells:
            _require(cell.cell_id not in seen, f"duplicate cell id {cell.cell_id!r}")
            seen.add(cell.cell_id)
        return cls(
            spec=str(payload["spec"]),
            fingerprint=str(payload["fingerprint"]),
            config=dict(payload.get("config", {})),
            cells=cells,
        )

    # -- file I/O ----------------------------------------------------------

    def dumps(self) -> str:
        return dumps_canonical(self.to_json())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "RunRecord":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"record is not valid JSON: {exc}") from exc
        return cls.from_json(payload)

    @classmethod
    def load(cls, path: str) -> "RunRecord":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())


def dumps_canonical(payload) -> str:
    """The one serializer every record/artifact JSON goes through: sorted
    keys, indent 2, trailing newline — so identical data is identical
    bytes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def numeric_leaves(values, prefix: str = "") -> dict[str, float]:
    """Flatten the numeric leaves of a cell payload to ``path → value``.

    Paths join nested dict keys (and list indexes) with ``.``; booleans
    are *not* numbers here — ``True`` drifting to ``False`` should read
    as a value change, not a 100% numeric drift.
    """
    flat: dict[str, float] = {}
    if isinstance(values, dict):
        for key in sorted(values):
            child_prefix = f"{prefix}.{key}" if prefix else str(key)
            flat.update(numeric_leaves(values[key], child_prefix))
    elif isinstance(values, (list, tuple)):
        for index, item in enumerate(values):
            child_prefix = f"{prefix}.{index}" if prefix else str(index)
            flat.update(numeric_leaves(item, child_prefix))
    elif isinstance(values, bool):
        pass
    elif isinstance(values, (int, float)):
        flat[prefix] = float(values)
    return flat
