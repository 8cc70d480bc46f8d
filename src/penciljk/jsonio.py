"""JSON encoding and decoding of the domain objects.

Rationals travel as strings "p" or "p/q", polynomials as strings in the
variable t, and every multiset is emitted in descending order so that
equal objects always serialize to equal bytes.  Decoding is lenient about
numeric types (plain JSON numbers are accepted where a rational string is
expected) but strict about structure.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import InputFormatError
from .exactla import Mat
from .lie import LieAlgebra, Representation
from .pencils import EigClass, Pencil, StrictInvariants
from .polys import format_poly
from .skewjk import SkewJK
from .strata import BundleSig, SkewBundleSig


def rat_to_str(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def str_to_rat(value) -> int | Fraction:
    """A rational from a JSON value: an int when it is an integer written
    as one (a JSON integer, an integral float or an integer string), else a
    Fraction.  Integer strings are read by ``int``, which accepts what the
    Fraction parser accepts for them, and skip that parser."""
    if isinstance(value, bool):
        raise InputFormatError("expected a rational, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not value.is_integer():
            raise InputFormatError(f"non-integral float {value!r} is not exact")
        return int(value)
    if isinstance(value, str):
        if "/" not in value:
            try:
                return int(value)
            except ValueError:
                pass
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise InputFormatError(f"bad rational {value!r}") from None
    raise InputFormatError(f"expected a rational, got {type(value).__name__}")


def _require(obj: dict, key: str, kind, where: str):
    if not isinstance(obj, dict):
        raise InputFormatError(f"{where} must be a JSON object")
    if key not in obj:
        raise InputFormatError(f"{where} is missing {key!r}")
    val = obj[key]
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise InputFormatError(f"{where}.{key} must be an integer")
    elif kind is list and not isinstance(val, list):
        raise InputFormatError(f"{where}.{key} must be a list")
    return val


def _int_strings(row: list) -> list[int] | None:
    """The ints of a row of integer strings, by one ``int`` per entry, or
    None when some entry is not one.  ``str_to_rat`` reads an integer
    string with that same ``int``, and the caller reads any other row by
    ``str_to_rat``, so the values and errors are those it gives."""
    if not all(type(x) is str for x in row):
        return None
    try:
        return [int(x) for x in row]
    except ValueError:
        return None


def _matrix_from_json(rows, m: int, n: int, where: str) -> Mat:
    """A matrix whose entries all read as ints (plain JSON integers, or
    integer strings read by ``str_to_rat``) becomes integer rows as they
    are; any other entry is read by ``str_to_rat``, row by row, so a bad
    entry and a bad row are reported in the order they appear.  A row of
    strings is read in one pass first (``_int_strings``), as the catalog
    files that ``rep_to_json`` writes hold only integer strings."""
    if not isinstance(rows, list) or len(rows) != m:
        raise InputFormatError(f"{where} must be a list of {m} rows")
    out = []
    plain = True
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise InputFormatError(f"each row of {where} must have {n} entries")
        if not all(type(x) is int for x in row):
            ints = _int_strings(row)
            if ints is None:
                ints = [str_to_rat(x) for x in row]
                plain = plain and all(type(x) is int for x in ints)
            row = ints
        out.append(row)
    return Mat.from_ints(out, n) if plain else Mat(out, n=n)


def _matrix_to_json(mat: Mat) -> list[list[str]]:
    return [[rat_to_str(x) for x in row] for row in mat.tolist()]


# ---------------------------------------------------------------------------
# pencils and their invariants


def pencil_from_json(obj) -> Pencil:
    m = _require(obj, "m", int, "pencil")
    n = _require(obj, "n", int, "pencil")
    if m < 0 or n < 0:
        raise InputFormatError("pencil dimensions must be non-negative")
    a = _matrix_from_json(_require(obj, "A", list, "pencil"), m, n, "pencil.A")
    b = _matrix_from_json(_require(obj, "B", list, "pencil"), m, n, "pencil.B")
    return Pencil(a, b)


def class_to_str(cls: EigClass) -> str:
    if cls.is_infinite:
        return "inf"
    return format_poly(cls.poly, "t")


def _jordan_to_json(jordan) -> list[dict]:
    return [
        {
            "class": class_to_str(cls),
            "rootCount": cls.root_count,
            "sizes": list(sizes),
        }
        for cls, sizes in jordan
    ]


def invariants_to_json(inv: StrictInvariants) -> dict:
    return {
        "rank": inv.rank,
        "horizontal": list(inv.horizontal),
        "vertical": list(inv.vertical),
        "jordan": _jordan_to_json(inv.jordan),
    }


def skew_to_json(jk: SkewJK) -> dict:
    return {
        "dim": jk.dim,
        "kronecker": list(jk.kronecker),
        "jordan": _jordan_to_json(jk.jordan),
    }


# ---------------------------------------------------------------------------
# bundle signatures


def sig_to_json(sig: BundleSig) -> dict:
    return {
        "m": sig.m,
        "n": sig.n,
        "rank": sig.rank,
        "horizontal": list(sig.horizontal),
        "vertical": list(sig.vertical),
        "slots": [list(s) for s in sig.slots],
    }


def sig_from_json(obj) -> BundleSig:
    m = _require(obj, "m", int, "signature")
    n = _require(obj, "n", int, "signature")
    rank = _require(obj, "rank", int, "signature")
    h = _require(obj, "horizontal", list, "signature")
    v = _require(obj, "vertical", list, "signature")
    slots = _require(obj, "slots", list, "signature")
    for name, values in (("horizontal", h), ("vertical", v)):
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in values):
            raise InputFormatError(f"signature.{name} must hold integers")
    cleaned = []
    for slot in slots:
        if not isinstance(slot, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in slot
        ):
            raise InputFormatError("signature.slots must hold lists of integers")
        cleaned.append(tuple(slot))
    try:
        return BundleSig.make(m, n, rank, tuple(h), tuple(v), cleaned)
    except ValueError as exc:
        raise InputFormatError(f"inconsistent signature: {exc}") from None


def skew_sig_to_json(sig: SkewBundleSig) -> dict:
    return {
        "dim": sig.dim,
        "kronecker": list(sig.kronecker),
        "slots": [list(s) for s in sig.slots],
    }


# ---------------------------------------------------------------------------
# algebras and representations


def lie_from_json(obj) -> LieAlgebra:
    """Build the algebra; raises InputFormatError only for shape problems.

    Out-of-range bracket indices raise ValueError from the constructor so
    the caller can report an invalid algebra rather than bad JSON.
    """
    dim = _require(obj, "dim", int, "algebra")
    if dim < 0:
        raise InputFormatError("algebra.dim must be non-negative")
    brackets = _require(obj, "brackets", list, "algebra")
    entries = []
    for item in brackets:
        i = _require(item, "i", int, "bracket")
        j = _require(item, "j", int, "bracket")
        k = _require(item, "k", int, "bracket")
        if "c" not in item:
            raise InputFormatError("bracket is missing 'c'")
        entries.append((i, j, k, str_to_rat(item["c"])))
    return LieAlgebra(dim, entries)


def lie_to_json(g: LieAlgebra) -> dict:
    brackets = [{"i": i, "j": j, "k": k, "c": rat_to_str(c)} for i, j, k, c in g.entries()]
    return {"dim": g.dim, "brackets": brackets}


def rep_from_json(obj, base_dir: str = ".") -> Representation:
    alg = _require(obj, "algebra", object, "representation")
    if isinstance(alg, str):
        path = alg if os.path.isabs(alg) else os.path.join(base_dir, alg)
        alg = load_json(path)
    g = lie_from_json(alg)
    dim_v = _require(obj, "dimV", int, "representation")
    if dim_v < 0:
        raise InputFormatError("representation.dimV must be non-negative")
    mats_json = _require(obj, "mats", list, "representation")
    if len(mats_json) != g.dim:
        raise InputFormatError("representation needs one matrix per basis element")
    mats = tuple(
        _matrix_from_json(mj, dim_v, dim_v, f"mats[{i}]")
        for i, mj in enumerate(mats_json)
    )
    return Representation(g, dim_v, mats)


def rep_to_json(rho: Representation) -> dict:
    return {
        "algebra": lie_to_json(rho.algebra),
        "dimV": rho.dim_v,
        "mats": [_matrix_to_json(m) for m in rho.mats],
    }


# ---------------------------------------------------------------------------
# canonical byte emission


def emit(obj) -> str:
    """Canonical text for a report: sorted keys, two-space indent.

    The text is ``json.dumps(obj, sort_keys=True, indent=2)`` and a
    newline, written directly: objects and arrays open a new line per
    member, indented two spaces deeper, with "," ending every member but
    the last and ": " after each key; empty ones are {} and [].  Strings
    go through ``json.encoder.encode_basestring_ascii``, ints through
    ``int.__repr__``, and True, False and None are true, false and null.
    A dict key that is not a string, or a value of any other type, raises
    ``TypeError``.  ``json.dumps`` falls back to its pure-Python encoder
    whenever it indents, which is slower than writing the text here."""
    out: list[str] = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(obj, newline: str, out: list[str]) -> None:
    """Append the text of obj, whose lines continue with ``newline``."""
    if type(obj) is str:
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(lead)
            out.append(_quote(key))
            out.append(": ")
            _emit(obj[key], inner, out)
            lead = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in obj:
            out.append(lead)
            _emit(item, inner, out)
            lead = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, an integer literal past
        # Python's digit limit, or nesting past the recursion limit
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from None
