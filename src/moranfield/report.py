"""The one codec behind every output file: JSON, CSV and the payload digest.

A report is a JSON object holding a canonical payload (with a ``schema``
key), its ``payload_digest`` and, outside the digest, run timings such as
``wall_clock_seconds``.  Identical seed and config give an identical payload
and digest; :func:`read_report` checks both before returning the payload.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

REPORT_SCHEMA = "moranfield-convergence-report/v1"
REGIME_SCHEMA = "moranfield-regime-report/v1"
RESIDUAL_SCHEMA = "moranfield-residual-report/v1"
_REPORT_SCHEMAS = (REPORT_SCHEMA, REGIME_SCHEMA, RESIDUAL_SCHEMA)
#: report keys outside the payload (and hence outside the digest)
_NOT_PAYLOAD = ("payload_digest", "wall_clock_seconds")


def write_json(path, doc: dict) -> None:
    """Indent 2, sorted keys, trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def csv_cells(column) -> np.ndarray:
    """One column as an object array of CSV cells: floats as ``.17g`` (they
    round-trip exactly), any other value as ``str``; an object array is taken
    to hold cells already.  The type is read once per column: a column mixing
    integers and floats is a float column, in which an integer below 2**53
    prints as it would alone."""
    values = np.asarray(column)
    if values.dtype == object:
        return values
    cell = "{:.17g}".format if values.dtype.kind == "f" else str
    return np.array([cell(x) for x in values.tolist()], dtype=object)


def write_csv(path, header, blocks) -> None:
    """Write ``header``, then each block of rows, given as a list of columns of
    equal length that :func:`csv_cells` turns into cells.

    The one CSV format of the package: cells joined by ``,`` and lines ended
    by ``\\r\\n``, with no quoting, since every cell is a number or a fixed
    identifier.  These are the bytes ``csv.writer``'s default dialect writes
    for the same cells.  Each block is assembled column by column and written
    in one piece, so a caller bounds the memory by the size of its blocks.
    """
    with open(path, "w", newline="") as fh:
        for columns in itertools.chain([[[name] for name in header]], blocks):
            lines = np.empty((len(columns[0]), 2 * len(columns)), dtype=object)
            lines[:, 1::2] = ","
            lines[:, -1] = "\r\n"
            for j, column in enumerate(columns):
                lines[:, 2 * j] = csv_cells(column)
            fh.write("".join(lines.ravel().tolist()))


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def write_report(path, payload: dict, wall_clock_seconds: float | None = None) -> None:
    """``payload`` with its digest; the wall clock, when given, stays outside the digest."""
    doc = {**payload, "payload_digest": payload_digest(payload)}
    if wall_clock_seconds is not None:
        doc["wall_clock_seconds"] = wall_clock_seconds
    write_json(path, doc)


def read_report(path) -> dict:
    """The payload of a report file, after checking its schema and its digest."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") not in _REPORT_SCHEMAS:
        raise ConfigurationError(f"{path}: unexpected report schema {doc.get('schema')!r}")
    payload = {key: value for key, value in doc.items() if key not in _NOT_PAYLOAD}
    if doc.get("payload_digest") != payload_digest(payload):
        raise ConfigurationError(f"{path}: payload does not match its payload_digest")
    return payload
