"""Bit-exact file formats: matrices, polygons, certificates, formulations.

Rationals travel as strings "p/q" in canonical form ("/q" omitted when
the denominator is 1).  Decimal literals in input files are parsed
exactly (a finite decimal becomes the rational it denotes), so reading
back a written file always reproduces the original values.  A numeric
token may ask for at most ``MAX_DIGITS`` decimal digits, its digits plus
its exponent, so a short file cannot request a huge integer.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .driver import Factorization
from .errors import ExactNMFError, ParseError
from .linalg import MAX_DIGITS, SAFE_BITS, Matrix, _check_token_size, _read_token, token_digits
from .polygon import ExtendedFormulation, Polygon, polygon_from_points


def format_scalar(x: Fraction) -> str:
    return str(Fraction(x))  # "p", or "p/q" when q > 1


def _format_rows(rows, name: str) -> list:
    """The entries as the tokens ``format_scalar`` writes, each entry's p and
    q read once.  The reader refuses a token of more than MAX_DIGITS digits
    in p and q together, so such an entry raises ExactNMFError naming it."""
    out = []
    for i, row in enumerate(rows):
        pairs = [(x.numerator, x.denominator) for x in row]
        for j, (p, q) in enumerate(pairs):
            if p.bit_length() + q.bit_length() > SAFE_BITS and (digits := token_digits(row[j])):
                raise ExactNMFError(f"{name} entry ({i}, {j}) needs {digits} digits; "
                                    f"a file holds at most {MAX_DIGITS}")
        out.append([f"{p}/{q}" if q != 1 else str(p) for p, q in pairs])
    return out


# "p" or "p/q" in ASCII digits, the form format_scalar writes.  Other
# spellings (signs, spaces, "_", decimals, other scripts' digits) keep the
# general path of parse_scalar.
_CANONICAL_TOKEN = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_scalar(token) -> Fraction:
    """Parse "p/q", integer, or decimal tokens to an exact rational.

    A canonical token of at most MAX_DIGITS characters is read with two
    int() calls; every other token takes the general path below, the
    reader ``as_scalar`` uses too, which reads the same canonical tokens to
    the same values."""
    if type(token) is str and len(token) <= MAX_DIGITS and _CANONICAL_TOKEN.fullmatch(token):
        p, _, q = token.partition("/")
        if not q:
            return Fraction(int(p))
        q = int(q)
        if q:
            return Fraction(int(p), q)
    if isinstance(token, Fraction):
        return token
    if isinstance(token, bool):
        raise ParseError(f"boolean {token!r} is not a number")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, float):
        # floats only appear when a caller bypassed exact JSON loading
        raise ParseError(f"refusing inexact float {token!r}; write it as a string")
    return _read_token(str(token).strip())


class _TokenMemo(dict):
    """str token -> Fraction, filled on first lookup; other tokens are
    parsed on every lookup.  Only str tokens are kept: 1, 1.0 and True
    are equal dict keys that parse_scalar treats apart."""

    def __missing__(self, token):
        value = parse_scalar(token)
        if type(token) is str:
            self[token] = value
        return value


def _parse_rows(rows: list) -> tuple:
    """Parse one document's rows of tokens, each distinct string once.

    The memo lives for this call only, so it never outgrows the document,
    and equal tokens share one Fraction."""
    memo = _TokenMemo()
    try:
        return tuple(tuple(map(memo.__getitem__, row)) for row in rows)
    except TypeError:  # an unhashable token: parse_scalar names the error
        return tuple(tuple(map(parse_scalar, row)) for row in rows)


def matrix_to_jsonable(m: Matrix, name: str = "matrix") -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": _format_rows(m.data, name)}


def matrix_from_jsonable(obj) -> Matrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ParseError('matrix object needs an "entries" field')
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise ParseError("matrix entries must be a list of rows")
    if not entries:
        rows, cols = obj.get("rows"), obj.get("cols")
        if type(rows) is not int or rows != 0 or type(cols) is not int or cols < 0:
            raise ParseError('empty matrix entries need "rows": 0 and an integer "cols"')
        return Matrix.zeros(0, cols)
    if not all(isinstance(row, list) for row in entries):
        raise ParseError("every matrix row must be a list of entries")
    widths = {len(row) for row in entries}
    if len(widths) != 1:
        raise ParseError(f"matrix rows have unequal lengths {sorted(widths)}")
    m = Matrix._raw(_parse_rows(entries), len(entries), widths.pop())
    for name, value in (("rows", m.rows), ("cols", m.cols)):
        declared = obj.get(name, value)
        if type(declared) is not int:
            raise ParseError(f'declared "{name}" must be an integer, got {declared!r}')
        if declared != value:
            raise ParseError(f'declared "{name}" = {declared} but entries give {value}')
    return m


def matrix_to_csv(m: Matrix) -> str:
    return "\n".join(map(",".join, _format_rows(m.data, "matrix"))) + "\n"


def matrix_from_csv(text: str) -> Matrix:
    rows = _parse_rows([line.split(",") for line in map(str.strip, text.splitlines()) if line])
    if not rows:
        raise ParseError("CSV input contains no rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"CSV rows have unequal lengths {sorted(widths)}")
    return Matrix._raw(rows, len(rows), len(rows[0]))


def polygon_to_jsonable(poly: Polygon) -> dict:
    return {"vertices": _format_rows(poly.vertices, "vertex")}


def polygon_from_jsonable(obj) -> Polygon:
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ParseError('polygon object needs a "vertices" field')
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, list) for v in vertices):
        raise ParseError('polygon "vertices" must be a list of [x, y] pairs')
    for entry in vertices:
        if len(entry) != 2:
            raise ParseError(f"vertex {entry!r} is not a coordinate pair")
    return polygon_from_points(_parse_rows(vertices))


def certificate_to_jsonable(fact: Factorization) -> dict:
    return {
        "left": matrix_to_jsonable(fact.left, "left factor"),
        "right": matrix_to_jsonable(fact.right, "right factor"),
        "inner_dim": fact.inner_dim,
        "bound": fact.bound,
        "trace": list(fact.trace),
    }


def certificate_from_jsonable(obj) -> Factorization:
    if not isinstance(obj, dict) or "left" not in obj or "right" not in obj:
        raise ParseError('certificate object needs "left" and "right" matrices')
    left = matrix_from_jsonable(obj["left"])
    right = matrix_from_jsonable(obj["right"])
    inner_dim = obj.get("inner_dim", left.cols)
    bound = obj.get("bound")
    if bound is None:
        raise ParseError('certificate object needs a "bound" field')
    trace = obj.get("trace", [])
    if not isinstance(trace, list):
        raise ParseError('certificate "trace" must be a list')
    if type(inner_dim) is not int or type(bound) is not int:
        raise ParseError('"inner_dim" and "bound" must be integers')
    return Factorization(left, right, inner_dim, bound, tuple(trace))


def formulation_to_jsonable(ef: ExtendedFormulation) -> dict:
    return {
        "k": ef.k,
        "T": matrix_to_jsonable(ef.T, "T"),
        "C": matrix_to_jsonable(ef.C, "C"),
        "beta": _format_rows([ef.beta], "beta")[0],
        "lifts": matrix_to_jsonable(ef.lifts, "lifts"),
    }


def formulation_from_jsonable(obj) -> ExtendedFormulation:
    required = ("k", "T", "C", "beta", "lifts")
    if not isinstance(obj, dict) or any(key not in obj for key in required):
        raise ParseError(f"formulation object needs fields {required}")
    if type(obj["k"]) is not int:
        raise ParseError('"k" must be an integer')
    if not isinstance(obj["beta"], list):
        raise ParseError('formulation "beta" must be a list')
    return ExtendedFormulation(
        k=obj["k"],
        T=matrix_from_jsonable(obj["T"]),
        C=matrix_from_jsonable(obj["C"]),
        beta=_parse_rows([obj["beta"]])[0],
        lifts=matrix_from_jsonable(obj["lifts"]),
    )


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def load_json(path: str):
    """Load a JSON file with floats parsed exactly as decimals.  Number
    literals over MAX_DIGITS digits, and nesting deeper than the
    interpreter's recursion limit, raise ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(
                handle,
                parse_float=lambda s: Fraction(_check_token_size(s)),
                parse_int=lambda s: int(_check_token_size(s)),
            )
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} nests JSON arrays or objects too deeply") from None


def load_matrix_file(path: str, fmt: str = "auto") -> Matrix:
    """Read an input matrix.  Unlike a certificate factor, an input with
    rows but no columns is refused."""
    if fmt == "auto":
        fmt = "csv" if path.lower().endswith(".csv") else "json"
    if fmt == "csv":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                m = matrix_from_csv(handle.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {path}: {exc}") from None
    else:
        m = matrix_from_jsonable(load_json(path))
    if m.rows and not m.cols:
        raise ParseError(f"{path}: matrix has rows but no columns")
    return m


def save_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
