"""JSON documents for complexes and deterministic report serialization.

Document schema (format_version "1"):

    {
      "format_version": "1",
      "simplices": [[v0, v1, v2, v3, v4], ...],   # orientation = array order
      "coords": {"0": [x, y, z, w], ...},          # optional, all vertices
      "metadata": {"name": "..."}                  # optional, string map
    }

parse_complex validates a document in bulk (the sets of item types and
lengths, one finiteness test of the coordinate array) and walks it item by
item only to name the first fault of a document it rejects.  Floats are
written with 17 significant digits so parsing returns the exact double.
Serialization is deterministic: keys keep a fixed order and vertex keys are
sorted numerically.

dumps writes the common shapes of a report in one pass each, with the same
text as writing them item by item: a list of exactly-float items (one
format per item), a list of exactly-int items, a list of lists or tuples
of exactly-int items (face keys, simplices), a 1-d float64 ndarray (one
"%.17g" format string for the whole vector) and a 1-d integer ndarray
(its distinct values formatted once each, then one join).  Anything else,
a bool or a numpy scalar inside a list included, is written item by item.
Other ndarrays are not supported.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import chain

import numpy as np

from .complexes import build_complex, check_boundary
from .errors import SchemaError

FORMAT_VERSION = "1"
_FORMAT17 = "{:.17g}".format


def format_float(x):
    return _FORMAT17(float(x))


def _dump(obj, pieces):
    if isinstance(obj, dict):
        pieces.append("{")
        first = True
        for key, val in obj.items():
            if not first:
                pieces.append(", ")
            first = False
            pieces.append(json.dumps(str(key)))
            pieces.append(": ")
            _dump(val, pieces)
        pieces.append("}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        # one "%.17g" format for the whole vector, the same text as its .tolist()
        pieces.append(("[" + ", ".join(["%.17g"] * len(obj)) + "]") % tuple(obj.tolist()))
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "iu":
        # each distinct value is formatted once; the same text as its .tolist()
        values, inverse = np.unique(obj, return_inverse=True)
        text = np.array(list(map(str, values.tolist())), dtype=object)
        pieces.append("[" + ", ".join(text.take(inverse).tolist()) + "]")
    elif isinstance(obj, (list, tuple)):
        item_types = set(map(type, obj))
        if item_types <= {float}:
            # all items exactly float (or none): one join, the same text as item by item
            pieces.append("[" + ", ".join(map(_FORMAT17, obj)) + "]")
        elif item_types == {int} or (
            item_types <= {list, tuple} and set(map(type, chain.from_iterable(obj))) <= {int}
        ):
            # exactly-int items or keys: json's C encoder writes the same text
            pieces.append(json.dumps(obj))
        else:
            pieces.append("[")
            for n, val in enumerate(obj):
                if n:
                    pieces.append(", ")
                _dump(val, pieces)
            pieces.append("]")
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(obj))
    elif obj is None:
        pieces.append("null")
    else:
        pieces.append(json.dumps(obj))


def dumps(obj):
    """JSON text with 17-significant-digit floats and stable ordering."""
    pieces = []
    _dump(obj, pieces)
    return "".join(pieces)


@dataclass(frozen=True)
class ComplexDocument:
    """A complex document.

    Immutable, so the complex built from `simplices` the first time it is
    needed (by parse_complex, to validate the document) stays the one that
    every later to_complex call returns.  to_complex is the documents'
    closedness gate: it refuses a complex with boundary tetrahedra unless
    allow_boundary.
    """

    simplices: tuple  # of vertex-id tuples, orientation = order
    coords: dict = None  # vertex id -> np.ndarray(4), or None
    metadata: dict = field(default_factory=dict)
    format_version: str = FORMAT_VERSION

    def __post_init__(self):
        object.__setattr__(self, "simplices", tuple(map(tuple, self.simplices)))

    @cached_property
    def _complex(self):
        return build_complex(self.simplices, allow_boundary=True)

    def to_complex(self, allow_boundary=False):
        check_boundary(self._complex.is_closed, allow_boundary)
        return self._complex

    def realization(self):
        if self.coords is None:
            return None
        return {v: np.asarray(p, dtype=float) for v, p in self.coords.items()}

    def with_coords(self, coords):
        return ComplexDocument(
            simplices=self.simplices,
            coords={int(v): [float(x) for x in p] for v, p in coords.items()},
            metadata=dict(self.metadata),
            format_version=self.format_version,
        )


def _finite_real(x):
    """x as a float; TypeError unless it is a JSON number (not a bool) of finite value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise TypeError(x)
    return float(x)


def _simplex_fault(simplices):
    """The SchemaError of the first simplex, in document order, that is not 5 integers."""
    for n, s in enumerate(simplices):
        if not isinstance(s, list) or len(s) != 5:
            return SchemaError(f"simplices[{n}] must be an array of 5 vertex ids")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in s):
            return SchemaError(f"simplices[{n}] must contain integers")


def _coords_fault(rc, vertices):
    """The SchemaError of the first faulty coords entry, in document order, or of the
    lowest vertex without one."""
    seen = set()
    for key, val in rc.items():
        try:
            vid = int(key)
        except ValueError:
            return SchemaError(f"coords key {key!r} is not a vertex id")
        if vid not in vertices:
            return SchemaError(f"coords key {key!r} names no vertex of the simplices")
        if vid in seen:
            return SchemaError(f"coords key {key!r} repeats vertex {vid}")
        seen.add(vid)
        if not isinstance(val, list) or len(val) != 4:
            return SchemaError(f"coords[{key}] must be an array of 4 reals")
        try:
            for x in val:
                _finite_real(x)
        except (TypeError, OverflowError):
            return SchemaError(f"coords[{key}] must contain finite numbers")
    missing = vertices - seen
    if missing:
        return SchemaError(f"coords is missing vertex {min(missing)}")


def _coords(rc, vertices):
    """{vertex id: [4 floats]} in document order, or None when an entry is faulty.

    Bulk checks: the keys parse as distinct ints naming exactly the
    vertices, every value is a list of 4 ints or floats (a bool's type is
    bool), and the (V, 4) float array of the values is finite.
    """
    try:
        ids = list(map(int, rc))
    except ValueError:
        return None
    values = list(rc.values())
    if not (len(set(ids)) == len(ids) and set(ids) == vertices
            and set(map(type, values)) == {list} and set(map(len, values)) == {4}
            and set(map(type, chain.from_iterable(values))) <= {int, float}):
        return None
    try:
        points = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    if not np.isfinite(points).all():
        return None
    return dict(zip(ids, points.tolist()))


def parse_complex(text):
    """Parse and validate a document; errors name the offending field.

    The simplex list and the coords are checked in bulk, by the sets of
    their item types and lengths and one finiteness test of the coordinate
    array.  Only when a bulk check fails are the items walked in document
    order, to name the first faulty one.  The simplex list is then run
    through complex construction so a schema-valid but structurally broken
    document is rejected here; the document keeps that complex for
    to_complex, which checks closedness.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("document root must be an object")

    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise SchemaError(f"format_version must be {FORMAT_VERSION!r}, got {version!r}")

    simplices = raw.get("simplices")
    if not isinstance(simplices, list) or not simplices:
        raise SchemaError("simplices must be a non-empty array")
    # JSON gives exact lists and ints; a bool's type is bool
    if not (set(map(type, simplices)) == {list} and set(map(len, simplices)) == {5}
            and set(map(type, chain.from_iterable(simplices))) == {int}):
        raise _simplex_fault(simplices)
    vertices = set(chain.from_iterable(simplices))

    coords = None
    if raw.get("coords") is not None:
        rc = raw["coords"]
        if not isinstance(rc, dict):
            raise SchemaError("coords must be an object mapping vertex id to 4 reals")
        coords = _coords(rc, vertices)
        if coords is None:
            raise _coords_fault(rc, vertices)

    metadata = raw.get("metadata", {})
    if metadata is None:
        metadata = {}
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise SchemaError("metadata must be a string-to-string map")

    doc = ComplexDocument(
        simplices=simplices, coords=coords, metadata=metadata, format_version=version
    )
    doc.to_complex(allow_boundary=True)  # structural validation, kept on doc
    return doc


def serialize_complex(doc):
    payload = {
        "format_version": doc.format_version,
        "simplices": [[int(v) for v in s] for s in doc.simplices],
    }
    if doc.coords is not None:
        payload["coords"] = {
            str(v): [float(x) for x in doc.coords[v]] for v in sorted(doc.coords)
        }
    if doc.metadata:
        payload["metadata"] = {k: doc.metadata[k] for k in sorted(doc.metadata)}
    return dumps(payload) + "\n"


def load_document(path):
    """parse_complex of a UTF-8 file; closedness is left to doc.to_complex()."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())


def save_document(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_complex(doc))


def load_fixture(name):
    return parse_complex(resources.files("pachner33.fixtures").joinpath(name).read_text("utf-8"))
