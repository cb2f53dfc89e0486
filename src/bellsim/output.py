"""Deterministic tabular output with an embedded provenance header.

A table is named columns in table order, one sequence of cells each.  Two
encodings of it: RFC-4180-style CSV (one ``# provenance:`` comment line, then
a header row) and JSON lines (a provenance object first, then one record per
row).  Floats are written with 17 significant digits in CSV and shortest
round-trip repr in JSON, so both parse back to identical values.  None cells
are the empty CSV field / JSON null.

CSV is written in one pass, without ``csv.writer``: each column becomes its
cells' text at once (``_encode_column``: an all-float column by one C-level
``format`` map, an all-None column as empty fields), and each line is those
texts joined by commas.  Header names and the cells of every other column,
the text that can hold a comma, a quote or a line break, go through
``_quote``, which quotes as ``csv.QUOTE_MINIMAL`` does.  ``read_table``
parses either encoding back into rows.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import repeat
from pathlib import Path
from typing import Iterator, Sequence

from .models import ValidationError

PROVENANCE_PREFIX = "# provenance: "
FLOAT_FORMAT = ".17g"  # 17 significant digits: every float parses back to itself


def format_float(x: float) -> str:
    return format(x, FLOAT_FORMAT)


def _encode_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _check_columns(columns: dict[str, Sequence]) -> None:
    """A table has rows, as many in every column."""
    lengths = set(map(len, columns.values()))
    if len(lengths) != 1 or 0 in lengths:
        raise ValidationError(f"a table needs rows, as many in each column, not {sorted(lengths)}")


def _quote(text: str) -> str:
    """One CSV field as ``csv.QUOTE_MINIMAL`` writes it: in quotes, each
    quote doubled, if it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(columns: dict[str, Sequence], provenance: dict) -> str:
    _check_columns(columns)
    rows = map(",".join, zip(*map(_encode_column, columns.values())))
    if len(columns) == 1:  # a lone empty field is written "", so that no line is blank
        rows = (row or '""' for row in rows)
    return "".join((PROVENANCE_PREFIX, json.dumps(provenance, sort_keys=True), "\r\n",
                    ",".join(map(_quote, columns)) or '""', "\r\n",
                    "\r\n".join(rows), "\r\n"))


def _encode_column(cells: Sequence) -> Iterator[str]:
    """One column's CSV fields, lazily: floats alone by one C-level
    ``format``, None alone as empty fields, any other cells one by one."""
    types = set(map(type, cells))
    if types == {float}:
        return map(format, cells, repeat(FLOAT_FORMAT))
    if types == {type(None)}:
        return repeat("", len(cells))
    return map(_quote, map(_encode_cell, cells))


def provenance_header(provenance: dict) -> str:
    """The header of a JSON-lines table, trial stream or SVG plot:
    ``{"provenance": {...}}`` with sorted keys, on one line."""
    return json.dumps({"provenance": provenance}, sort_keys=True)


def render_jsonl(columns: dict[str, Sequence], provenance: dict) -> str:
    _check_columns(columns)
    names = list(columns)
    lines = [provenance_header(provenance)]
    lines.extend(json.dumps(dict(zip(names, row))) for row in zip(*columns.values()))
    return "\n".join(lines) + "\n"


def render_table(columns: dict[str, Sequence], provenance: dict, fmt: str) -> str:
    """``columns`` (name -> cells, in table order) as a csv or jsonl table."""
    if fmt == "csv":
        return render_csv(columns, provenance)
    if fmt == "jsonl":
        return render_jsonl(columns, provenance)
    raise ValidationError(f"unknown table format {fmt!r}")


def write_table(path: "str | Path", columns: dict[str, Sequence], provenance: dict,
                fmt: str) -> None:
    Path(path).write_text(render_table(columns, provenance, fmt), encoding="utf-8", newline="")


def _decode_cell(text: str):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: "str | Path") -> tuple[dict, list[dict]]:
    """Parse a CSV or JSON-lines table back into (provenance, rows)."""
    # newline="" keeps a quoted field's line breaks as written
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    first, _, rest = text.partition("\n")
    first = first.rstrip("\r")
    if first.startswith(PROVENANCE_PREFIX):
        provenance = json.loads(first[len(PROVENANCE_PREFIX):])
        rows_raw = [r for r in csv.reader(io.StringIO(rest)) if r]
        if not rows_raw:
            raise ValidationError(f"{path}: missing header row")
        header = rows_raw[0]
        rows = [
            {k: _decode_cell(v) for k, v in zip(header, r)} for r in rows_raw[1:]
        ]
        return provenance, rows
    lines = [ln for ln in text.splitlines() if ln]
    head = json.loads(lines[0]) if lines else {}  # an empty file has no header
    if "provenance" not in head:
        raise ValidationError(f"{path}: missing provenance header")
    rows = [json.loads(ln) for ln in lines[1:]]
    return head["provenance"], rows
