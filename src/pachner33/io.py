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
text as writing them item by item: a dict key (json's C string encoder,
as json.dumps writes a str), a list of exactly-float items (one format
per item), a list of exactly-int items, a list of lists or tuples of
exactly-int items (simplices), a 1-d float64 ndarray (the correctly
rounded "%.17g" text formed with array steps, in chunks of at most 4096
items; zeros, nan, infinities and magnitudes outside [1e-6, 1e17) are
formatted one at a time) and a 1-d or 2-d integer ndarray (triplet
indices, face keys, selection keys: the text of json.dumps(a.tolist())).
Both array writers read digits four at a time from one table of "0000"
to "9999", lay each item's text out in a NUL-padded byte table and
delete the NULs with one bytes.translate.
Anything else, a bool or a numpy scalar inside a list included, is
written item by item.  Other ndarrays are not supported.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .complexes import build_complex, check_boundary
from .errors import SchemaError

FORMAT_VERSION = "1"
_FORMAT17 = "{:.17g}".format


def format_float(x):
    return _FORMAT17(float(x))


# The vectorized "%.17g" of a 1-d float64 array works in chunks of at most
# _CHUNK items, so that its temporaries do not grow with the array.
_CHUNK = 4096
_VELTKAMP = 134217729.0  # 2**27 + 1
# An integer array of fewer items is written by json.dumps(a.tolist()), the
# same text: the byte table of _int_array_text costs about 25 us whatever
# the size, which json's encoder only reaches at about 200 items (2-d
# arrays of 2 or 3 columns; 1-d arrays at 350 to 800).
_INT_TABLE_ITEMS = 200


def _split(a):
    """Veltkamp's split: a == hi + lo exactly, each with at most 26 significant bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


# 10**p for p in 0..22, exact (5**22 < 2**53), and its halves, split on Python
# floats: a float64 ufunc call at import would page in about 170 kB
_POW10, _POW10_HI, _POW10_LO = np.array(
    [(float(10**p), *_split(float(10**p))) for p in range(23)]
).T


def _quad_table():
    """"0000", "0001", ..., "9999" as uint32: entry 100 h + l joins the digit pairs of h and l."""
    # "00" to "99" as (100, 1) uint16: the last two digits of 100 to 199
    text = np.frombuffer("".join(map(str, range(100, 200))).encode(), np.uint8).reshape(100, 3)
    pairs = text[:, 1:].copy().view(np.uint16)
    table = np.empty((100, 100, 2), np.uint16)
    table[..., 0], table[..., 1] = pairs, pairs.T
    return table.view(np.uint32).ravel()


_QUADS = _quad_table()
# Text slots of one item, in order: sign, "0.000" of fixed notation below 1,
# 17 digits and the point, "e-0N" of scientific notation, ", ".
_SIGN, _ZEROS, _DIGITS, _EXPONENT, _SEPARATOR, _SLOTS = 0, 1, 6, 24, 28, 30
_ZEROS_TEXT = np.frombuffer(b"0.000", np.uint8)[:, None]
_EXPONENT_TEXT = np.frombuffer(b"e-0", np.uint8)[:, None]
_ROW5 = np.arange(5)[:, None]
_ROW18 = np.arange(18)[:, None]
_DIGIT_PLACE = np.arange(1, 18, dtype=np.uint8)[:, None]


def _decimal_digits(values, groups):
    """(n, 4 * groups) bytes: the last 4 * groups ASCII decimal digits of each item
    of the uint64 array values, the highest place first, with leading zeros.

    values is split into 4-digit groups (five hold any uint64, 2**64 < 10**20),
    and each group's text is read from _QUADS.
    """
    quads = np.empty((len(values), groups), np.uint32)
    for k in range(groups - 1, 0, -1):
        high = values // np.uint64(10000)
        quads[:, k] = values - high * np.uint64(10000)
        values = high
    quads[:, 0] = values
    return _QUADS.take(quads).view(np.uint8)


def _table_text(T):
    """The text of the byte table T: its bytes in C order, NULs deleted."""
    return T.tobytes().translate(None, b"\0").decode("ascii")


def _significands(x):
    """(N, X, exact): the 17-digit significand N and the decimal exponent X of
    each item of x, and whether they are exact (else the item is formatted alone).

    An item of magnitude a in [1e-6, 1e17):
    - k = floor(log10 a) and p = 16 - k, so that y = a * 10**p lies in
      [1e16, 1e17).  p is at most 22, so 10**p is an exact double.
    - y is formed exactly as hi + lo by Dekker's two-product; hi is an
      integer, as every double from 2**53 up is.
    - N is y rounded half-to-even, in int64, as "%.17g" rounds.
    - y >= 1e16 is tested exactly on (hi, lo) and y < 1e17 on N.  An item
      for which log10 missed k fails one of them and is not exact.
    Zeros, nan, infinities and magnitudes outside that range are not exact.
    """
    a = np.abs(x)
    exact = (a >= 1e-6) & (a < 1e17)  # false for nan
    a = np.where(exact, a, 1.0)
    p = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    hi = a * _POW10[p]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    exact &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0.0))  # y >= 1e16
    whole = np.floor(lo)
    frac = lo - whole
    N = hi.astype(np.int64) + whole.astype(np.int64)
    N += (frac > 0.5) | ((frac == 0.5) & (N & 1 == 1))
    # y < 1e17, and no carry of N into the exponent.  No double in range
    # carries: the one nearest below each power of ten differs from it
    # within 17 digits.
    exact &= N < 10**17
    return N, 16 - p, exact


def _slots(x, N, X):
    """(slots, n) bytes: the "%.17g" text of each item of x, from its significand N
    and exponent X, followed by ", ", with a NUL in each slot the text leaves empty.

    The text follows the rules of %g: fixed notation for exponents -4 to 16,
    scientific ("e-05", "e-06") below, trailing zeros and a bare point left
    out, "-" from the sign bit.
    """
    n = len(x)
    # the 17 digits of N < 10**17, one row per place
    D = np.ascontiguousarray(_decimal_digits(N.view(np.uint64), 5)[:, 3:].T)
    significant = ((D != ord("0")) * _DIGIT_PLACE).max(axis=0)
    scientific = X < -4
    at_least_one = X >= 0
    # the point follows digit `point`; fixed notation below 1 has it in "0.000"
    point = np.where(scientific, 1, np.where(at_least_one, X + 1, 17))
    shown = np.maximum(significant, np.where(at_least_one, X + 1, 1)) + (significant > point)

    T = np.empty((_SLOTS, n), np.uint8)
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=T[_SIGN])
    zeros = np.where(scientific | at_least_one, 0, 1 - X)
    np.multiply(_ZEROS_TEXT, _ROW5 < zeros, out=T[_ZEROS:_DIGITS])
    digits = T[_DIGITS:_EXPONENT]
    # slot j holds digit j before the point and digit j - 1 after it
    digits[:17] = D
    np.copyto(digits[1:], D, where=_ROW18[:17] >= point)
    digits[point, np.arange(n)] = ord(".")
    digits *= _ROW18 < shown
    np.multiply(_EXPONENT_TEXT, scientific, out=T[_EXPONENT:_EXPONENT + 3])
    np.multiply(ord("0") - X, scientific, out=T[_EXPONENT + 3], casting="unsafe")
    T[_SEPARATOR] = ord(",")
    T[_SEPARATOR + 1] = ord(" ")
    return T


def _float64_text(x):
    """The "%.17g" text of each item of the 1-d float64 array x, each followed by ", ".

    The text of the items with an exact significand is laid out by _slots.
    The other items are written one at a time, by _FORMAT17 (the same text
    as "%.17g", at most 24 bytes), into their own text slots, NUL-padded.
    """
    N, X, exact = _significands(x)
    T = _slots(x, N, X)
    per_item = np.flatnonzero(~exact)
    texts = np.array([_FORMAT17(value) for value in x[per_item].tolist()], f"S{_SEPARATOR}")
    T[:_SEPARATOR, per_item] = texts.view(np.uint8).reshape(-1, _SEPARATOR).T
    return _table_text(T.T)


def _int_slots(values, separator):
    """(n, slots) bytes: the decimal text of each item of the int64 or uint64
    array values, its digits right-aligned with NULs before the first (and
    a "-" or a NUL ahead of them when any item is negative), followed by
    the bytes of separator.
    """
    negative = values < 0
    signs = int(negative.any())
    rest = values.astype(np.uint64)
    np.negative(rest, out=rest, where=negative)  # |int64 min| fits in uint64
    width = len(str(int(rest.max())))
    T = np.empty((len(values), signs + width + len(separator)), np.uint8)
    if signs:
        np.multiply(negative, np.uint8(ord("-")), out=T[:, 0])
    # the last `width` digits, with a NUL in each place above an item's
    # highest digit (the units digit of 0 is shown)
    D = _decimal_digits(rest, -(-width // 4))[:, -width:]
    places = np.uint64(10) ** np.arange(width - 1, -1, -1, dtype=np.uint64)
    np.multiply(D, np.maximum(rest, np.uint64(1))[:, None] >= places, out=T[:, signs:signs + width])
    T[:, signs + width:] = np.frombuffer(separator, np.uint8)
    return T


def _int_array_text(a):
    """json.dumps(a.tolist()) of a 1-d or 2-d integer array, byte for byte.

    Each value's text sits in a NUL-padded byte table (_int_slots) with the
    separator that follows it: ", ", with two NULs more in a 2-d array,
    whose last column gets "], [" in their place.  The table spans
    min(a)..max(a) when that range holds fewer values than a has items,
    and one gather takes each item's row; otherwise it holds the items
    themselves.  _table_text then deletes the NULs.
    """
    if not a.size:
        return json.dumps(a.tolist())
    separator = b", " if a.ndim == 1 else b", \0\0"
    wide = np.uint64 if a.dtype.kind == "u" else np.int64
    lo, hi = int(a.min()), int(a.max())
    if hi - lo < a.size:
        table = _int_slots(np.arange(hi - lo + 1, dtype=wide) + wide(lo), separator)
        rows = table.view(f"V{table.shape[1]}").ravel()
        T = rows.take(np.subtract(a, wide(lo), dtype=wide)).view(np.uint8).reshape(a.shape + (-1,))
    else:
        T = _int_slots(a.astype(wide).ravel(), separator).reshape(a.shape + (-1,))
    if a.ndim == 2:
        T[:, -1, -4:] = np.frombuffer(b"], [", np.uint8)
    return "[" * a.ndim + _table_text(T)[:-len(separator)] + "]" * a.ndim


def _dump(obj, pieces):
    if isinstance(obj, dict):
        pieces.append("{")
        first = True
        for key, val in obj.items():
            if not first:
                pieces.append(", ")
            first = False
            # the C function json.dumps calls for a str, without its wrapper
            pieces.append(encode_basestring_ascii(str(key)))
            pieces.append(": ")
            _dump(val, pieces)
        pieces.append("}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        pieces.append("[")
        n = len(obj)
        if n:
            # equal chunks of at most _CHUNK items; each text ends with ", "
            chunks = -(-n // _CHUNK)
            step = -(-n // chunks)
            pieces.extend(_float64_text(obj[start:start + step]) for start in range(0, n, step))
            pieces[-1] = pieces[-1][:-2]
        pieces.append("]")
    elif isinstance(obj, np.ndarray) and obj.ndim in (1, 2) and obj.dtype.kind in "iu":
        small = obj.size < _INT_TABLE_ITEMS
        pieces.append(json.dumps(obj.tolist()) if small else _int_array_text(obj))
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
