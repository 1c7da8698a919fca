"""The one codec behind every output file: JSON, CSV and the payload digest.

A report is a JSON object holding a canonical payload (with a ``schema``
key), its ``payload_digest`` and, outside the digest, run timings such as
``wall_clock_seconds``.  Identical seed and config give an identical payload
and digest; :func:`read_report` checks both before returning the payload.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

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


def write_csv(path, header, rows) -> None:
    """Floats as ``.17g`` (they round-trip exactly), every other cell as-is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.17g}" if isinstance(x, float) else x for x in row])


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
