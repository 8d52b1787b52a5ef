"""Tensor document format: parse and canonical serialization.

A document is line oriented.  The first nonblank line is the header
``curvlab-tensor/1``; after it come ``key = value`` assignments and sparse
component entries, with ``#`` comments and blank lines ignored:

    curvlab-tensor/1
    m = 2
    s = 1
    J = canonical            # or: custom, followed by 2m rows J[r] = ...
    name = example           # optional, token of [A-Za-z0-9_.+-]
    seed = 7                 # optional integer
    symmetrize = false
    bianchi = false
    R[1,2,2,1] = -3/4

Indices are 1-based in files and 0-based in the API; the conversion lives
here and only here.  Values are exact rationals ``p`` or ``p/q`` (no floats
in files; float-backend commands convert after parsing).  The canonical
serialization fixes key order, reduces rationals, sorts entries
lexicographically and omits zero entries, so parse/serialize round-trips
byte for byte on canonical files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .scalars import format_rational
from .spaces import GeometryError, make_space
from .tensors import CurvatureTensor, dense_components, from_dense

HEADER = "curvlab-tensor/1"

_RATIONAL = re.compile(r"-?\d+(/\d*[1-9]\d*)?", re.ASCII)     # no zero denominator
_NAME = re.compile(r"[A-Za-z0-9_.+-]+$")
_ENTRY_KEY = re.compile(r"R\[(\d+),(\d+),(\d+),(\d+)\]$")
_JROW_KEY = re.compile(r"J\[(\d+)\]$")


class ParseError(GeometryError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class TensorDocument:
    """Parsed tensor file: space description plus sparse components."""

    m: int
    s: int
    J: Optional[tuple] = None          # rows of Fractions; None = canonical
    name: Optional[str] = None
    seed: Optional[int] = None
    symmetrize: bool = False
    bianchi: bool = False
    entries: tuple = ()                # ((i, j, k, l, Fraction), ...) 1-based

    def canonical(self) -> "TensorDocument":
        """Entries sorted by index, repeated indices summed, zeros dropped."""
        summed = {}
        for *key, v in self.entries:
            key = tuple(key)
            summed[key] = summed[key] + v if key in summed else v
        return TensorDocument(
            self.m, self.s, self.J, self.name, self.seed,
            self.symmetrize, self.bianchi,
            tuple((*key, v) for key, v in sorted(summed.items()) if v))


def _number(convert, tok: str, lineno: int, col: int):
    """convert(tok) for a token the grammar already accepted."""
    try:
        return convert(tok)
    except ValueError:      # more digits than the interpreter converts
        raise ParseError(f"number {tok[:20]}... has too many digits", lineno, col) from None


def parse_rational(tok: str) -> Fraction:
    """The value of a document rational ``p`` or ``p/q`` with q > 0.

    ValueError for any other text, and for a number with more digits than
    the interpreter converts (which it could not write back either).
    """
    if not _RATIONAL.fullmatch(tok):
        raise ValueError(f"expected a rational p or p/q with q > 0, got {tok!r}")
    try:
        # from ints: Fraction(str) would match tok against its own pattern again
        return Fraction(*map(int, tok.split("/")))
    except ValueError:      # more digits than the interpreter converts
        raise ValueError(f"number {tok[:20]}... has too many digits") from None


def _rational_value(tok: str, lineno: int, col: int) -> Fraction:
    try:
        return parse_rational(tok)
    except ValueError as exc:
        raise ParseError(str(exc), lineno, col) from None


def _lines(text: str) -> list[str]:
    """Lines broken at \\n, \\r\\n and \\r only (`str.splitlines` also breaks at
    \\v, \\f and \\x1c-\\x1e, which would shift every reported line number)."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _check_ascii(text: str) -> None:
    if text.isascii():
        return
    index = next(i for i, ch in enumerate(text) if not ch.isascii())
    before = _lines(text[:index] + "?")
    raise ParseError(f"non-ASCII character {ord(text[index]):#x}; tensor files are ASCII",
                     len(before), len(before[-1]))


def read_document(path) -> TensorDocument:
    """Parse the tensor file at `path`.

    Bytes are read as Latin-1, so a non-ASCII byte reaches the parser as the
    character of the same code and is reported with its line and column.
    """
    with open(path, "rb") as fh:
        return parse_document(fh.read().decode("latin-1"))


def parse_document(text: str) -> TensorDocument:
    _check_ascii(text)
    lines = _lines(text)
    fields = {"J_rows": {}, "entries": []}
    values = {}
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if not header_seen:
            if line.strip() != HEADER:
                raise ParseError(f"expected header {HEADER!r}", lineno)
            header_seen = True
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno, len(line))
        key, _, value = line.partition("=")
        col = len(line) - len(value.lstrip()) + 1       # first column of the value
        key, value = key.strip(), value.strip()
        if match := _ENTRY_KEY.match(key):     # most lines: tried first
            i, j, k, l = (_number(int, g, lineno, 1) for g in match.groups())
            v = values.get(value)
            if v is None:       # a tensor's symmetries repeat most value texts
                v = values[value] = _rational_value(value, lineno, col)
            fields["entries"].append((i, j, k, l, v))
        elif key in ("m", "s", "seed"):
            if not re.fullmatch(r"-?\d+", value):
                raise ParseError(f"{key} must be an integer", lineno, col)
            fields[key] = _number(int, value, lineno, col)
        elif key == "J":
            if value not in ("canonical", "custom"):
                raise ParseError("J must be 'canonical' or 'custom'", lineno, col)
            fields["J"] = value
        elif key == "name":
            if not _NAME.match(value):
                raise ParseError("name must match [A-Za-z0-9_.+-]+", lineno, col)
            fields["name"] = value
        elif key in ("symmetrize", "bianchi"):
            if value not in ("true", "false"):
                raise ParseError(f"{key} must be true or false", lineno, col)
            fields[key] = value == "true"
        elif _JROW_KEY.match(key):
            r = _number(int, _JROW_KEY.match(key).group(1), lineno, 1)
            fields["J_rows"][r] = [_rational_value(tok.group(), lineno, col + tok.start())
                                   for tok in re.finditer(r"\S+", value)]
        else:
            raise ParseError(f"unknown key {key!r}", lineno)
    if not header_seen:
        raise ParseError(f"missing header {HEADER!r}", max(1, len(lines)))
    for req in ("m", "s"):
        if req not in fields:
            raise ParseError(f"missing required field {req!r}", len(lines))
    m, s = fields["m"], fields["s"]
    J = None
    if fields.get("J") == "custom" or fields["J_rows"]:
        rows = fields["J_rows"]
        n = 2 * m
        # the length test comes first: a hostile m must not size a list
        if len(rows) != n or sorted(rows) != list(range(1, n + 1)):
            raise ParseError(f"custom J needs rows J[1] .. J[{n}]", len(lines))
        for r, row in rows.items():
            if len(row) != n:
                raise ParseError(f"J[{r}] must have {n} entries", len(lines))
        J = tuple(tuple(rows[r]) for r in range(1, n + 1))
    doc = TensorDocument(m=m, s=s, J=J,
                         name=fields.get("name"), seed=fields.get("seed"),
                         symmetrize=fields.get("symmetrize", False),
                         bianchi=fields.get("bianchi", False),
                         entries=tuple(fields["entries"]))
    return doc.canonical()


def serialize_document(doc: TensorDocument) -> str:
    doc = doc.canonical()
    out = [HEADER, f"m = {doc.m}", f"s = {doc.s}"]
    if doc.J is None:
        out.append("J = canonical")
    else:
        out.append("J = custom")
        for r, row in enumerate(doc.J, start=1):
            out.append(f"J[{r}] = " + " ".join(format_rational(v) for v in row))
    if doc.name is not None:
        out.append(f"name = {doc.name}")
    if doc.seed is not None:
        out.append(f"seed = {doc.seed}")
    out.append(f"symmetrize = {'true' if doc.symmetrize else 'false'}")
    out.append(f"bianchi = {'true' if doc.bianchi else 'false'}")
    try:
        for (i, j, k, l, v) in doc.entries:
            out.append(f"R[{i},{j},{k},{l}] = {format_rational(v)}")
    except ValueError:      # more digits than the interpreter converts
        raise GeometryError("a component has too many digits to write") from None
    return "\n".join(out) + "\n"


def build_tensor(doc: TensorDocument, validate: bool = True) -> CurvatureTensor:
    """Construct the space and tensor a document describes (exact backend).

    Validation runs on the tensor's integer form, which stays cached for its
    first contraction.  With `validate` off the components are kept
    unchecked, for a caller that reports their `failing_symmetries` itself.
    """
    space = make_space(doc.m, doc.s, J=doc.J)
    C = dense_components(space.n, [(i - 1, j - 1, k - 1, l - 1, v)
                                   for (i, j, k, l, v) in doc.entries])
    return from_dense(space, C, symmetrize=doc.symmetrize,
                      bianchi_projection=doc.bianchi, validate=validate)


def document_from_tensor(R: CurvatureTensor, name: Optional[str] = None,
                         seed: Optional[int] = None) -> TensorDocument:
    """Sparse canonical document for an exact tensor (components stored as is)."""
    if not R.is_exact:
        raise GeometryError("documents store exact rationals; convert before writing")
    space = R.space
    J = None
    if not space.has_canonical_J:
        J = tuple(tuple(Fraction(x) for x in row) for row in space.J)
    entries = []
    n = space.n
    comp = R.components
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    v = comp[i, j, k, l]
                    if v:
                        entries.append((i + 1, j + 1, k + 1, l + 1, Fraction(v)))
    doc = TensorDocument(m=space.m, s=space.s, J=J, name=name, seed=seed,
                         symmetrize=False, bianchi=False, entries=tuple(entries))
    return doc.canonical()
