"""Deterministic text serialization for result tables.

`qfringe.runner` writes every table through `csv_text` or `json_document`.
Both take named columns, and each column picks its cell format once: "%.17g"
for reals (so repeated runs give byte-identical files), `true`/`false` for
Python or numpy booleans, strings raw in CSV and quoted in JSON, where a
non-finite real is `null`. One %-format of a repeated row template then
writes the whole table, with no Python call per cell of a float column.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Mapping, Sequence

import numpy as np


def _column(column, quote: bool) -> tuple[str, list]:
    """One column's %-spec and the cells it formats; `quote` selects JSON cells."""
    values = np.asarray(column)
    cells = values.tolist()
    if values.dtype.kind == "f":
        if not quote or np.isfinite(values).all():
            return "%.17g", cells
        return "%s", ["%.17g" % cell if math.isfinite(cell) else "null" for cell in cells]
    if values.dtype.kind == "b":
        return "%s", ["true" if cell else "false" for cell in cells]
    return "%s", [json.dumps(cell) for cell in cells] if quote else cells


def _cells(columns: Sequence[Sequence], quote: bool) -> tuple[list[str], tuple, int]:
    """Column specs, all cells in row order, and the row count of equal-length columns."""
    specs_and_cells = [_column(column, quote) for column in columns]
    cells = [column for _, column in specs_and_cells]
    rows = tuple(chain.from_iterable(zip(*cells, strict=True)))
    return [spec for spec, _ in specs_and_cells], rows, len(cells[0]) if cells else 0


def _scalars(summary: Mapping, quote: bool) -> tuple[list[str], tuple]:
    """Specs and cells of one-row values, such as a summary or footer."""
    return _cells([[value] for value in summary.values()], quote)[:2]


def _record(names: Sequence[str], specs: Sequence[str], indent: int) -> str:
    """Template of one JSON object whose closing brace sits `indent` spaces in."""
    pad = " " * indent
    fields = (f"{pad}  {json.dumps(name).replace('%', '%%')}: {spec}" for name, spec in zip(names, specs))
    return "{\n" + ",\n".join(fields) + f"\n{pad}}}"


def csv_text(header: Sequence[str], columns: Sequence[Sequence], footer: Mapping = {}) -> str:
    """CSV text of equal-length `columns`: a header line, then one line per row.

    Each `footer` entry follows the rows as a `# name = value` line.
    """
    specs, cells, n_rows = _cells(columns, quote=False)
    body = ((",".join(specs) + "\n") * n_rows) % cells
    footer_specs, footer_cells = _scalars(footer, quote=False)
    lines = "".join(f"# {name.replace('%', '%%')} = {spec}\n" for name, spec in zip(footer, footer_specs))
    return ",".join(header) + "\n" + body + lines % footer_cells


def json_document(
    header: Sequence[str], columns: Sequence[Sequence], rows_key: str | None = None, summary: Mapping = {}
) -> str:
    """JSON text of equal-length `columns`: a list of row records, one key per column.

    With `rows_key` set, the list is wrapped as `{rows_key: [...], **summary}`.
    """
    depth = 0 if rows_key is None else 2
    specs, cells, n_rows = _cells(columns, quote=True)
    item = " " * (depth + 2) + _record(header, specs, depth + 2)
    body = ",\n".join([item] * n_rows) % cells
    rows = f"[\n{body}\n{' ' * depth}]" if n_rows else "[]"
    if rows_key is not None:
        summary_specs, summary_cells = _scalars(summary, quote=True)
        rows = _record((rows_key, *summary), ("%s", *summary_specs), 0) % (rows, *summary_cells)
    return rows + "\n"
