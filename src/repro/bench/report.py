"""Rendering figure data as tables, CSV and ASCII bar charts."""

from __future__ import annotations

import re


def slugify(title: str) -> str:
    """A filesystem-safe slug for figure titles and cell ids.

    Lowercases and collapses every non-alphanumeric run to a single
    underscore, so ``Figure 2: Hello World, no security`` becomes
    ``figure_2_hello_world_no_security`` — no commas, parens or section
    marks in generated filenames.
    """
    return re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")


def format_figure_table(
    title: str, figure: dict[str, dict[str, float]], unit: str = "ms"
) -> str:
    """Render series → {op → value} as an aligned text table."""
    ops: list[str] = []
    for series in figure.values():
        for op in series:
            if op not in ops:
                ops.append(op)
    label_width = max(len(label) for label in figure) if figure else 10
    col_width = max(12, max((len(op) for op in ops), default=8) + 2)
    lines = [title, "=" * len(title)]
    header = " " * label_width + "".join(op.rjust(col_width) for op in ops)
    lines.append(header)
    for label, series in figure.items():
        row = label.ljust(label_width)
        for op in ops:
            value = series.get(op)
            cell = "-" if value is None else f"{value:.1f}"
            row += cell.rjust(col_width)
        lines.append(row)
    lines.append(f"(all values in virtual {unit}, single request)")
    return "\n".join(lines)


def figure_to_csv(figure: dict[str, dict[str, float]]) -> str:
    ops: list[str] = []
    for series in figure.values():
        for op in series:
            if op not in ops:
                ops.append(op)
    lines = ["series," + ",".join(ops)]
    for label, series in figure.items():
        cells = [label] + [
            "" if series.get(op) is None else f"{series[op]:.3f}" for op in ops
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def figure_to_markdown(
    figure: dict[str, dict[str, float]], row_header: str = "series"
) -> str:
    """Render a figure as a GitHub-flavored markdown table (for the
    generated EXPERIMENTS.md)."""
    ops: list[str] = []
    for series in figure.values():
        for op in series:
            if op not in ops:
                ops.append(op)
    lines = [
        "| " + " | ".join([row_header] + ops) + " |",
        "|" + "---|" * (len(ops) + 1),
    ]
    for label, series in figure.items():
        cells = [label]
        for op in ops:
            value = series.get(op)
            if value is None:
                cells.append("-")
            else:
                cells.append(f"{value:.3f}".rstrip("0").rstrip(".") or "0")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def format_span_tree(root, unit: str = "ms") -> str:
    """Render one :class:`~repro.sim.metrics.Span` tree as an outline."""
    lines = []
    for depth, span in root.walk():
        label = f"{'  ' * depth}{span.name}"
        detail = f"  [{span.detail}]" if span.detail else ""
        lines.append(f"{label.ljust(32)} {span.elapsed_ms:8.2f} {unit}{detail}")
    return "\n".join(lines)


def format_bar_chart(
    title: str, values: dict[str, float], width: int = 50, unit: str = "ms"
) -> str:
    """Horizontal ASCII bars, one per label."""
    peak = max(values.values(), default=1.0) or 1.0
    label_width = max((len(k) for k in values), default=4)
    lines = [title]
    for label, value in values.items():
        bar = "#" * max(0, round(width * value / peak))
        lines.append(f"{label.ljust(label_width)} |{bar} {value:.1f} {unit}")
    return "\n".join(lines)
