"""Report container and CSV/JSON emission.

CSV output is a single header row plus data rows, comma separated, with
a dot decimal point; values with |v| outside [1e-4, 1e6] switch to
scientific notation.  All float formatting round-trips bit-exactly.
JSON output is the object {"meta": ..., "rows": ..., "summary": ...}.

Repeated runs of the same seeded command line must emit byte-identical
reports, so the metadata timestamp honours SOURCE_DATE_EPOCH (the
reproducible-build convention) instead of the wall clock when set.
"""

from __future__ import annotations

import datetime
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError


@dataclass
class Report:
    meta: dict
    columns: list
    rows: list
    summary: dict = field(default_factory=dict)


def report_timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        stamp = int(time.time()) if epoch is None else int(epoch)
        return datetime.datetime.fromtimestamp(stamp, tz=datetime.timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError) as exc:
        raise ParameterError(f"SOURCE_DATE_EPOCH must be an integer epoch, got {epoch!r}") from exc


def format_number(v) -> str:
    """Round-trip formatting with the positional/scientific switch."""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if v != v or v in (float("inf"), float("-inf")):
            return repr(v)
        if v == 0.0:
            return "0"
        if 1e-4 <= abs(v) <= 1e6:
            return repr(v)
        return np.format_float_scientific(v, unique=True)
    return str(v)


def emit(report: Report, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(report.columns)]
        for row in report.rows:
            lines.append(",".join(format_number(row.get(c, "")) for c in report.columns))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {"meta": report.meta, "rows": report.rows, "summary": report.summary}
        # numpy scalars and arrays that are not float subclasses become builtins
        return json.dumps(payload, indent=2, default=lambda o: o.tolist()) + "\n"
    raise ValueError(f"unknown output format {fmt!r}")


def write_output(text: str, out: str | None):
    if out is None:
        print(text, end="")
    else:
        with open(out, "w") as fh:
            fh.write(text)
