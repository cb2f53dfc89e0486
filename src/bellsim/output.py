"""Deterministic tabular output with an embedded provenance header.

Two encodings of the same rows: RFC-4180-style CSV (one ``# provenance:``
comment line, then a header row) and JSON lines (a provenance object first,
then one record per line).  Floats are written with 17 significant digits in
CSV and shortest round-trip repr in JSON, so both parse back to identical
values.  Missing values are the empty CSV field / JSON null.  CSV cells are
encoded a column at a time and streamed to the writer (``_encode_column``).
"""

from __future__ import annotations

import csv
import io
import json
from itertools import repeat
from pathlib import Path
from typing import Iterator

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


def render_csv(rows: list[dict], provenance: dict) -> str:
    if not rows:
        raise ValidationError("no rows to write")
    buf = io.StringIO()
    buf.write(PROVENANCE_PREFIX + json.dumps(provenance, sort_keys=True) + "\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    columns = list(rows[0].keys())
    writer.writerow(columns)
    writer.writerows(zip(*(_encode_column(rows, c) for c in columns)))
    return buf.getvalue()


def _encode_column(rows: list[dict], column: str) -> Iterator[str]:
    """One column's cells, lazily: floats alone by one C-level ``format``."""
    if set(map(type, map(dict.get, rows, repeat(column)))) == {float}:
        return map(format, map(dict.get, rows, repeat(column)), repeat(FLOAT_FORMAT))
    return map(_encode_cell, map(dict.get, rows, repeat(column)))


def provenance_header(provenance: dict) -> str:
    """The header of a JSON-lines table, trial stream or SVG plot:
    ``{"provenance": {...}}`` with sorted keys, on one line."""
    return json.dumps({"provenance": provenance}, sort_keys=True)


def render_jsonl(rows: list[dict], provenance: dict) -> str:
    if not rows:
        raise ValidationError("no rows to write")
    lines = [provenance_header(provenance)]
    lines.extend(json.dumps(row) for row in rows)
    return "\n".join(lines) + "\n"


def render_table(rows: list[dict], provenance: dict, fmt: str) -> str:
    """``rows`` as a csv or jsonl table."""
    if fmt == "csv":
        return render_csv(rows, provenance)
    if fmt == "jsonl":
        return render_jsonl(rows, provenance)
    raise ValidationError(f"unknown table format {fmt!r}")


def write_table(path: "str | Path", rows: list[dict], provenance: dict, fmt: str) -> None:
    Path(path).write_text(render_table(rows, provenance, fmt), encoding="utf-8", newline="")


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
    text = Path(path).read_text(encoding="utf-8")
    first = text.split("\n", 1)[0].rstrip("\r")
    if first.startswith(PROVENANCE_PREFIX):
        provenance = json.loads(first[len(PROVENANCE_PREFIX):])
        reader = csv.reader(io.StringIO(text.split("\n", 1)[1]))
        rows_raw = [r for r in reader if r]
        header = rows_raw[0]
        rows = [
            {k: _decode_cell(v) for k, v in zip(header, r)} for r in rows_raw[1:]
        ]
        return provenance, rows
    lines = [ln for ln in text.splitlines() if ln]
    head = json.loads(lines[0])
    if "provenance" not in head:
        raise ValidationError(f"{path}: missing provenance header")
    rows = [json.loads(ln) for ln in lines[1:]]
    return head["provenance"], rows
