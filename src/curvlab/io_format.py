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

Ingestion goes from text to the tensor's integer form once.  One
regular-expression scan of the whole text splits off the entry lines
written in the serializer's own form (`_LINE`); the other lines go through
the line grammar with their own line numbers, so errors are reported as
before.  All entries meet in one column form, a flat component index and a
value text per entry: duplicates are summed, zeros dropped and entries
sorted on the flat index, and each distinct value text becomes one
`Fraction`.  The parsed document keeps that column form and builds its
`entries` tuple from it only when read, which nothing on the way from text
to tensor does.  `build_tensor` builds the tensor straight from the integer
form N / D the parse left on the document, gathering values and numerators
by code (the numerators into int64 too, when they fit), and checks its
symmetries once, on N, in int64 below the checker's bound.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, count, islice, product
from operator import lt
from typing import Optional

import numpy as np

from .scalars import format_rational
from .spaces import MAX_M, GeometryError, make_space
from .tensors import CurvatureTensor, _from_codes, dense_components, from_dense

HEADER = "curvlab-tensor/1"
_ZERO = Fraction(0)

_RATIONAL = re.compile(r"-?\d+(/\d*[1-9]\d*)?", re.ASCII)     # no zero denominator
_NAME = re.compile(r"[A-Za-z0-9_.+-]+$")
_ENTRY_KEY = re.compile(r"R\[(\d+),(\d+),(\d+),(\d+)\]$")
_JROW_KEY = re.compile(r"J\[(\d+)\]$")
# One match per line of "\n" + text + "\n": an entry line exactly as the
# serializer writes it, split into its index and value texts, or any other
# line whole.  The first branch caps its digit runs, so that int() converts
# every number it takes whatever limit sys.set_int_max_str_digits sets (640
# digits at least), and leaves zero denominators to the line grammar.
_LINE = re.compile(r"\n(?:R\[([1-9]\d{0,99},[1-9]\d{0,99},[1-9]\d{0,99},[1-9]\d{0,99})\] = "
                   r"(-?\d{1,300}(?:/0{0,9}[1-9]\d{0,300})?)(?=\n)|([^\n]*))", re.ASCII)


class ParseError(GeometryError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class _Entries:
    """The `entries` field: stored as given, except that a parsed document
    is given None and builds its entries from `_columns` on first read."""

    def __get__(self, doc, owner=None):
        if doc is None:
            return ()                   # the field's default
        entries = doc.__dict__["entries"]
        if entries is None and doc._columns is not None:
            flat, codes, fractions = doc._columns[:3]
            indices = _index_maps(2 * doc.m)[1]
            entries = doc.__dict__["entries"] = tuple(
                [indices[f] + (fractions[c],) for f, c in zip(flat, codes)])
        return entries

    def __set__(self, doc, entries):
        doc.__dict__["entries"] = entries


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
    entries: tuple = _Entries()        # ((i, j, k, l, Fraction), ...) 1-based
    # the entries' integer form, set by parse_document only: flat 0-based
    # component indices, a value code per entry, and by code (0 for zero) the
    # Fraction values and their numerators over D.  Not an init field, so
    # `dataclasses.replace` drops it
    _columns: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

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


@lru_cache(maxsize=None)
def _index_maps(n: int) -> tuple[dict, list]:
    """The serialized index text "i,j,k,l" -> flat 0-based component index,
    and flat index -> (i, j, k, l), 1-based, on an n-dimensional space.
    Built once per n, in time of the order of one n^4 component array."""
    texts = product([str(i) for i in range(1, n + 1)], repeat=4)
    return dict(zip(map(",".join, texts), count())), list(product(range(1, n + 1), repeat=4))


def _flat_index(n: int, i: int, j: int, k: int, l: int) -> Optional[int]:
    """The flat 0-based component index of R[i,j,k,l], None when an index is
    outside 1..n.  The range is checked before any arithmetic."""
    if 1 <= i <= n and 1 <= j <= n and 1 <= k <= n and 1 <= l <= n:
        return (((i - 1) * n + j - 1) * n + k - 1) * n + l - 1
    return None


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
    """The canonical document a tensor file's text describes.

    Entry lines written as the serializer writes them, ``R[i,j,k,l] = p`` or
    ``p/q``, come out of one scan of the text as (index text, value text)
    pairs; every other line (the header, keys, comments, entries with other
    spacing) goes through the line grammar with its own line number.  When
    m is in 1..MAX_M and every index in range, the entries are canonicalized
    in the column form (`_canonical`), and the components' integer form
    (flat indices, value codes, and per code the value and its numerator
    over the lcm D of the reduced denominators) stays on the document for
    `build_tensor`; other documents are canonicalized entry by entry.
    """
    _check_ascii(text)
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    nlines = text.count("\n") + (not text.endswith("\n")) if text else 0
    # one (index, value, other) row per line; the row after the last is empty
    keys, texts, others = zip(*_LINE.findall(f"\n{text}\n"))
    first_entry = next(compress(count(1), keys), None)
    fields = {"J_rows": {}}
    values = {}             # value text -> Fraction: a tensor's symmetries repeat most
    entries = []            # (i, j, k, l, value text) of the other entry lines
    header_seen = False
    for lineno, raw in compress(zip(count(1), others), others):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if not header_seen:
            if first_entry is not None and first_entry < lineno:
                break           # the first nonblank line is an entry
            if line.strip() != HEADER:
                raise ParseError(f"expected header {HEADER!r}", lineno)
            header_seen = True
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno, len(line))
        key, _, value = line.partition("=")
        col = len(line) - len(value.lstrip()) + 1       # first column of the value
        key, value = key.strip(), value.strip()
        if match := _ENTRY_KEY.match(key):
            i, j, k, l = (_number(int, g, lineno, 1) for g in match.groups())
            if value not in values:
                values[value] = _rational_value(value, lineno, col)
            entries.append((i, j, k, l, value))
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
        if first_entry is not None:
            raise ParseError(f"expected header {HEADER!r}", first_entry)
        raise ParseError(f"missing header {HEADER!r}", max(1, nlines))
    for req in ("m", "s"):
        if req not in fields:
            raise ParseError(f"missing required field {req!r}", nlines)
    m, s = fields["m"], fields["s"]
    J = None
    if fields.get("J") == "custom" or fields["J_rows"]:
        rows = fields["J_rows"]
        n = 2 * m
        # the length test comes first: a hostile m must not size a list
        if len(rows) != n or sorted(rows) != list(range(1, n + 1)):
            raise ParseError(f"custom J needs rows J[1] .. J[{n}]", nlines)
        for r, row in rows.items():
            if len(row) != n:
                raise ParseError(f"J[{r}] must have {n} entries", nlines)
        J = tuple(tuple(rows[r]) for r in range(1, n + 1))
    doc = partial(TensorDocument, m=m, s=s, J=J,
                  name=fields.get("name"), seed=fields.get("seed"),
                  symmetrize=fields.get("symmetrize", False),
                  bianchi=fields.get("bianchi", False))
    return _canonical(doc, m, list(filter(None, keys)), list(filter(None, texts)),
                      entries, values)


def _canonical(doc, m: int, keys: list, texts: list, entries: list,
               values: dict) -> TensorDocument:
    """The canonical document `doc(entries=...)` for the serialized entries
    (index texts `keys` and value `texts`) and the other entry lines (i, j,
    k, l, value text).  `values` maps the other lines' value texts to their
    Fractions; the serialized ones are added, each distinct text converted
    once.  In the column form the document is given its entries as None,
    to be built from `_columns` when read."""
    for t in set(texts).difference(values):
        values[t] = Fraction(*map(int, t.split("/")))      # every number converts (_LINE)
    texts += [e[4] for e in entries]
    n = 2 * m
    maps = _index_maps(n) if 1 <= m <= MAX_M else None
    if maps:
        flat = list(map(maps[0].get, keys)) + [_flat_index(n, *e[:4]) for e in entries]
    if not maps or None in flat:        # no such space, or an index out of range
        indices = [tuple(map(int, key.split(","))) for key in keys] + [e[:4] for e in entries]
        return doc(entries=tuple((*idx, values[t]) for idx, t in zip(indices, texts))).canonical()
    # the column form: one flat component index and one value text per entry
    if not all(map(lt, flat, islice(flat, 1, None))):   # repeated or unsorted indices
        summed = {}
        for f, t in zip(flat, texts):
            summed[f] = summed[f] + values[t] if f in summed else values[t]
        flat = sorted(summed)
        texts = [format_rational(summed[f]) for f in flat]
        values.update(zip(texts, map(summed.__getitem__, flat)))
    distinct = set(texts)
    if zeros := {t for t in distinct if not values[t]}:
        kept = [(f, t) for f, t in zip(flat, texts) if t not in zeros]
        flat, texts = [f for f, _ in kept], [t for _, t in kept]
        distinct -= zeros
    # the integer form by value code: code 0 is the zero component
    code = {t: c for c, t in enumerate(distinct, 1)}
    fractions = [_ZERO] + list(map(values.__getitem__, code))
    D = math.lcm(*(v.denominator for v in fractions))
    numerators = [v.numerator * (D // v.denominator) for v in fractions]
    out = doc(entries=None)             # built from the columns when read
    object.__setattr__(out, "_columns", (flat, list(map(code.__getitem__, texts)),
                                         fractions, numerators, D))
    return out


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

    A parsed document is built from the integer form `parse_document` left
    on it: the values and numerators by code are gathered into place, one
    `Fraction` per distinct value text, the numerators also as int64 for the
    symmetry checks when they fit (`tensors._from_codes`), and nothing is
    integerized; with projection flags the gathered components are projected.
    Other documents are built entry by entry.  Validation runs on the
    tensor's integer form, which stays cached for its first contraction.
    With `validate` off the components are kept unchecked, for a caller that
    reports their `symmetry_failures` itself.
    """
    space = make_space(doc.m, doc.s, J=doc.J)
    if doc._columns is None:
        C = dense_components(space.n, [(i - 1, j - 1, k - 1, l - 1, v)
                                       for (i, j, k, l, v) in doc.entries])
        return from_dense(space, C, symmetrize=doc.symmetrize,
                          bianchi_projection=doc.bianchi, validate=validate)
    flat, codes, fractions, numerators, D = doc._columns
    index = np.zeros(space.n ** 4, dtype=np.intp)
    index[np.fromiter(flat, np.intp, len(flat))] = np.fromiter(codes, np.intp, len(codes))
    index = index.reshape((space.n,) * 4)
    if doc.symmetrize or doc.bianchi:
        return from_dense(space, np.fromiter(fractions, object, len(fractions))[index],
                          symmetrize=doc.symmetrize, bianchi_projection=doc.bianchi,
                          validate=validate)
    return _from_codes(space, index, numerators, D, validate=validate, fractions=fractions)


def document_from_tensor(R: CurvatureTensor, name: Optional[str] = None,
                         seed: Optional[int] = None) -> TensorDocument:
    """Sparse canonical document for an exact tensor (components stored as is)."""
    if not R.is_exact:
        raise GeometryError("documents store exact rationals; convert before writing")
    space = R.space
    J = None
    if not space.has_canonical_J:
        J = tuple(tuple(Fraction(x) for x in row) for row in space.J)
    nonzero = np.nonzero(R.components)        # in row-major index order
    entries = [(i + 1, j + 1, k + 1, l + 1, Fraction(v)) for i, j, k, l, v in
               zip(*(a.tolist() for a in nonzero), R.components[nonzero].tolist())]
    doc = TensorDocument(m=space.m, s=space.s, J=J, name=name, seed=seed,
                         symmetrize=False, bianchi=False, entries=tuple(entries))
    return doc.canonical()
