"""Deterministic text serialization for result tables and reports.

`qfringe.runner` writes every experiment's table through `csv_text` or
`json_document`. Reals are written with 17 significant digits so that
repeated runs of the same configuration produce byte-identical files.
Booleans, Python or numpy, are written as `true`/`false`. CSV tables are
passed as columns: each column picks its cell format once, and one %-format
of a repeated row template writes the whole table, so no Python call is
made per cell of a float column.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Sequence

import numpy as np


def format_real(value) -> str:
    return format(float(value), ".17g")


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int,)):
        return str(value)
    return format_real(value)


def csv_text(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """CSV text of equal-length `columns`, one header name per column.

    A column that numpy reads as floating point is written with "%.17g",
    which gives the same text as `format_real`. Any other column (check
    names, pass flags) is formatted cell by cell with `_format_cell`. The
    rows are written by one %-format of a repeated row template over all
    cells in row order.
    """
    specs, cells = [], []
    for column in columns:
        values = np.asarray(column)
        if values.dtype.kind == "f":
            specs.append("%.17g")
            cells.append(values.tolist())
        else:
            specs.append("%s")
            cells.append([_format_cell(value) for value in column])
    template = (",".join(specs) + "\n") * (len(cells[0]) if cells else 0)
    body = template % tuple(chain.from_iterable(zip(*cells, strict=True)))
    return ",".join(header) + "\n" + body


def json_text(value, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(key)}: {json_text(val, indent + 2)}'
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {json_text(item, indent + 2)}" for item in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    return format_real(value)


def json_document(value) -> str:
    return json_text(value) + "\n"
