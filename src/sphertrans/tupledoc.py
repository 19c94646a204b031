"""JSON document format for operator tuples.

One tuple per file:

    {
      "name": "example",
      "d": 2,
      "n": 2,
      "matrices": [ [[[re, im], ...], ...], ... ]    # d grids, row-major
    }

Entries are [re, im] pairs of plain JSON floats; Python's float repr is
shortest-roundtrip, so write-then-read reproduces entries bit-exactly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .tuples import OperatorTuple


class TupleDocumentError(ValueError):
    """Malformed tuple document."""


@dataclass(frozen=True)
class TupleDocument:
    name: str
    tuple: OperatorTuple


def to_document_dict(t: OperatorTuple, name: str = "tuple") -> dict:
    return {
        "name": name,
        "d": t.d,
        "n": t.n,
        "matrices": [
            [[[float(z.real), float(z.imag)] for z in row] for row in m]
            for m in t.matrices
        ],
    }


def _require(cond, message):
    if not cond:
        raise TupleDocumentError(message)


def from_document_dict(doc: dict) -> TupleDocument:
    _require(isinstance(doc, dict), "document must be a JSON object")
    for key in ("d", "n", "matrices"):
        _require(key in doc, f"missing field '{key}'")
    name = doc.get("name", "tuple")
    _require(isinstance(name, str), "field 'name' must be a string")
    d, n = doc["d"], doc["n"]
    # bool is an int in Python, but JSON true is not a dimension
    for key, value in (("d", d), ("n", n)):
        _require(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
                 f"field '{key}' must be a positive integer")
    grids = doc["matrices"]
    _require(isinstance(grids, list) and len(grids) == d,
             f"field 'matrices' must hold exactly d={d} grids")
    mats = []
    for gi, grid in enumerate(grids):
        _require(isinstance(grid, list) and len(grid) == n,
                 f"matrices[{gi}] must have n={n} rows")
        m = np.zeros((n, n), dtype=np.complex128)
        for ri, row in enumerate(grid):
            _require(isinstance(row, list) and len(row) == n,
                     f"matrices[{gi}][{ri}] must have n={n} entries")
            for ci, entry in enumerate(row):
                _require(
                    isinstance(entry, list) and len(entry) == 2
                    and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                            for v in entry),
                    f"matrices[{gi}][{ri}][{ci}] must be a [re, im] pair",
                )
                # not math.isfinite: an int beyond float range overflows it
                _require(
                    all(abs(v) <= sys.float_info.max for v in entry),
                    f"matrices[{gi}][{ri}][{ci}] must be finite",
                )
                m[ri, ci] = complex(entry[0], entry[1])
        mats.append(m)
    return TupleDocument(name=name, tuple=OperatorTuple(matrices=tuple(mats)))


def write_tuple(path, t: OperatorTuple, name: str = "tuple") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_document_dict(t, name), fh, indent=1)
        fh.write("\n")


def read_tuple(path) -> TupleDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TupleDocumentError(f"invalid JSON in {path}: {exc}") from exc
    return from_document_dict(doc)
