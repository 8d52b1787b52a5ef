"""Tangent-space model: indefinite inner product, complex structure, planes.

A `PseudoHermitianSpace` is R^{2m} carrying the diagonal inner product with
signs (-1,...,-1,+1,...,+1) (2s minus signs first) and an almost complex
structure J with J^2 = -id and g(JX, JY) = g(X, Y).  Vectors are plain numpy
arrays: dtype=object with Fraction entries in the exact backend, float64 in
the float backend.  Complexified vectors are `ComplexVector` pairs (re, im);
the complex extension of g is complex-bilinear, never sesquilinear.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .linsolve import field_rank
from .scalars import (FLOAT_DEGENERATE_TOL, FLOAT_IDENTITY_TOL, ExactComplex, below,
                      integerize, is_exact, is_zero, rational, two_below)


class GeometryError(ValueError):
    """Base class for precondition violations in geometric operations."""


class DimensionMismatch(GeometryError):
    pass


class DependentVectorsError(GeometryError):
    pass


class DegeneratePlaneError(GeometryError):
    def __init__(self, message: str, gram_rank: int):
        super().__init__(message)
        self.gram_rank = gram_rank


class UnrealizablePatternError(GeometryError):
    pass


class InvariantViolation(GeometryError):
    """Raised with the name of the failing structural invariant."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.invariant = name


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def canonical_complex_structure(m: int) -> np.ndarray:
    """J sending e_{2k} -> e_{2k+1} -> -e_{2k} inside each 2-block (0-based)."""
    n = 2 * m
    J = np.zeros((n, n), dtype=object)
    J[:, :] = 0
    for b in range(m):
        J[2 * b + 1, 2 * b] = 1
        J[2 * b, 2 * b + 1] = -1
    return _freeze(J)


def _times(x, a):
    """x * a, with an int entry +-1 of J as a copy or a negation."""
    if type(x) is int and (x == 1 or x == -1):
        return a if x == 1 else -a
    return x * a


@dataclass(frozen=True, eq=False)
class PseudoHermitianSpace:
    """2m-dimensional inner-product space with compatible complex structure.

    Immutable after construction; all operations are pure functions, so
    instances can be shared freely across threads.
    """

    m: int
    s: int
    metric_signs: tuple
    J: np.ndarray

    @property
    def n(self) -> int:
        return 2 * self.m

    @property
    def is_definite(self) -> bool:
        return self.s == 0 or self.s == self.m

    @property
    def is_indefinite(self) -> bool:
        return not self.is_definite

    @cached_property
    def J_float(self) -> np.ndarray:
        return _freeze(np.array([[float(x) for x in row] for row in self.J]))

    @cached_property
    def has_canonical_J(self) -> bool:
        return bool((self.J == canonical_complex_structure(self.m)).all())

    @cached_property
    def J_form(self) -> Optional[tuple]:
        """(JN, d): J = JN / d with Python ints JN; None for a float J."""
        form = integerize(self.J.flat)
        if form is None:
            return None
        return np.array(form[0], dtype=object).reshape(self.J.shape), form[1]

    def __post_init__(self):
        if self.m < 1:
            raise GeometryError("complex dimension m must be >= 1")
        if not 0 <= self.s <= self.m:
            raise GeometryError(f"need 0 <= s <= m, got s={self.s}, m={self.m}")
        signs = tuple(self.metric_signs)
        expected = (-1,) * (2 * self.s) + (1,) * (2 * (self.m - self.s))
        if signs != expected:
            raise InvariantViolation("signs.layout",
                                     "metric signs must be 2s entries -1 followed by +1")
        J = self.J
        if J.shape != (self.n, self.n):
            raise InvariantViolation("J.shape", f"J must be {self.n}x{self.n}")
        form = self.J_form
        d, dtype = 1, object
        if form is not None:
            # J = JN / d: J^2 = -id and J^T G J = G read JN JN = -d^2 id and
            # JN^T G JN = d^2 G.  An entry sums n products, in int64 while
            # n max|JN|^2 + d^2 < 2^63, else in Python ints
            J, d = form
            top = max(map(abs, J.flat))
            if self.n * top * top + d * d < 2 ** 63:
                J, dtype = J.astype(np.int64), np.int64
        G, one = np.diag(np.array(signs, dtype=dtype)), np.eye(self.n, dtype=dtype)
        for name, residual, what in (("J.square", J.dot(J) + d * d * one, "J o J != -identity"),
                                     ("J.metric-compat", J.T.dot(G.dot(J)) - d * d * G,
                                      "g(JX,JY) != g(X,Y)")):
            # a float J is checked to tolerance
            if (np.count_nonzero(residual) if form is not None else
                    not all(is_zero(x, FLOAT_DEGENERATE_TOL) for x in residual.flat)):
                raise InvariantViolation(name, f"{what} (float tolerance {FLOAT_DEGENERATE_TOL})")

    # -- vectors ----------------------------------------------------------

    def vector(self, coords) -> np.ndarray:
        """Coerce coordinates to a vector of this space.

        Floats give a float64 vector; ints, Fractions and 'p/q' strings give
        an exact one.
        """
        coords = list(coords)
        if len(coords) != self.n:
            raise DimensionMismatch(f"expected {self.n} coordinates, got {len(coords)}")
        if any(isinstance(c, float) for c in coords):
            return _freeze(np.array([float(c) for c in coords]))
        return _freeze(np.array([rational(c) for c in coords], dtype=object))

    def basis_vector(self, i: int) -> np.ndarray:
        """e_i, 0-based.  (File formats are 1-based; the parser converts.)"""
        if not 0 <= i < self.n:
            raise DimensionMismatch(f"basis index {i} out of range 0..{self.n - 1}")
        v = np.array([Fraction(0)] * self.n, dtype=object)
        v[i] = Fraction(1)
        return _freeze(v)

    def _check_vec(self, u):
        if len(u) != self.n:
            raise DimensionMismatch(f"vector of length {len(u)} in a space of dimension {self.n}")

    # -- inner products ---------------------------------------------------

    def inner(self, u, v):
        """Indefinite inner product sum_i sign_i u_i v_i."""
        self._check_vec(u)
        self._check_vec(v)
        acc = 0
        for sg, a, b in zip(self.metric_signs, u, v):
            acc = acc + sg * a * b
        return acc

    def inner_c(self, u, v):
        """Complex-bilinear extension of `inner` (not conjugate-linear)."""
        uc = as_complex(self, u)
        vc = as_complex(self, v)
        rr = self.inner(uc.re, vc.re)
        ii = self.inner(uc.im, vc.im)
        ri = self.inner(uc.re, vc.im)
        ir = self.inner(uc.im, vc.re)
        re, im = rr - ii, ri + ir
        if is_exact(re) and is_exact(im):
            return ExactComplex(Fraction(re), Fraction(im))
        return complex(float(re), float(im))

    @cached_property
    def _J_rows(self) -> tuple:
        """J's nonzero entries, row by row, as (column, entry) pairs."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.J)

    def apply_J(self, u):
        """Matrix action of J; extends entrywise to ComplexVector.  Float
        vectors multiply by `J_float`, exact ones by J's sparse rows."""
        if isinstance(u, ComplexVector):
            return ComplexVector(self.apply_J(u.re), self.apply_J(u.im))
        self._check_vec(u)
        if is_float_vector(u):
            return self.J_float.dot(u)
        u = np.asarray(u, dtype=object)
        out = np.empty(self.n, dtype=object)
        out[:] = [reduce(operator.add, [_times(x, u[j]) for j, x in row])
                  for row in self._J_rows]
        return out

    # -- planes -----------------------------------------------------------

    def classify_plane(self, u, v) -> "PlaneClass":
        return classify_plane(self, u, v)


@dataclass(frozen=True, eq=False)
class ComplexVector:
    """Complexified tangent vector re + i*im (both parts in the same space)."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        if len(self.re) != len(self.im):
            raise DimensionMismatch("re and im parts differ in length")

    def conjugate(self) -> "ComplexVector":
        return ComplexVector(self.re, -np.asarray(self.im))

    def __add__(self, other):
        return ComplexVector(self.re + other.re, self.im + other.im)

    def scaled(self, c) -> "ComplexVector":
        if isinstance(c, (ExactComplex, complex)):
            re = np.asarray(self.re) * c.real - np.asarray(self.im) * c.imag
            im = np.asarray(self.re) * c.imag + np.asarray(self.im) * c.real
            return ComplexVector(re, im)
        return ComplexVector(np.asarray(self.re) * c, np.asarray(self.im) * c)


def as_complex(space: PseudoHermitianSpace, u) -> ComplexVector:
    """Promote a real vector to a ComplexVector; pass ComplexVector through."""
    if isinstance(u, ComplexVector):
        return u
    space._check_vec(u)
    if is_float_vector(u):
        zero = np.zeros(space.n)
    else:
        zero = np.array([Fraction(0)] * space.n, dtype=object)
    return ComplexVector(np.asarray(u), zero)


def is_float_vector(u) -> bool:
    """True for float or complex numpy arrays; int arrays count as exact."""
    if isinstance(u, ComplexVector):
        return is_float_vector(u.re) or is_float_vector(u.im)
    return isinstance(u, np.ndarray) and u.dtype.kind in "fc"


@dataclass(frozen=True)
class PlaneClass:
    """Taxonomy of a 2-plane: holomorphy, Gram rank, signature label.

    `gram_rank == 1` is exactly the weakly isotropic case.  The signature
    label exists only for rank-2 planes whose Gram form is real; complex
    planes with non-real Gram entries get None.
    """

    holomorphy: str            # 'holomorphic' | 'antiholomorphic' | 'generic'
    gram_rank: int
    signature_label: Optional[str]

    @property
    def weakly_isotropic(self) -> bool:
        return self.gram_rank == 1


def _rank_float(rows) -> int:
    a = np.array(rows, dtype=complex)
    sv = np.linalg.svd(a, compute_uv=False)
    scale = float(abs(a).max())
    return sum(not is_zero(x, FLOAT_IDENTITY_TOL, scale) for x in sv)


def gram_rank(guu, guv, gvv, exact: bool) -> int:
    """Rank of the Gram matrix [[guu, guv], [guv, gvv]] of a plane basis:
    exact, or numerical against the largest Gram entry."""
    if exact:
        if guu * gvv - guv * guv:
            return 2
        return 1 if (guu or guv or gvv) else 0
    return _rank_float([[guu, guv], [guv, gvv]])


def _complex_rows(vectors) -> list[list]:
    """Rows of coordinates over the exact complex field."""
    rows = []
    for w in vectors:
        if isinstance(w, ComplexVector):
            rows.append([ExactComplex(Fraction(a), Fraction(b))
                         for a, b in zip(w.re, w.im)])
        else:
            rows.append([ExactComplex(Fraction(a), Fraction(0)) for a in w])
    return rows


def _span_rank(space, vectors, exact: bool) -> int:
    if exact:
        return field_rank(_complex_rows(vectors), space.n)
    rows = []
    for w in vectors:
        if isinstance(w, ComplexVector):
            rows.append(np.asarray(w.re, dtype=float) + 1j * np.asarray(w.im, dtype=float))
        else:
            rows.append(np.asarray(w, dtype=float).astype(complex))
    return _rank_float(rows)


def classify_plane(space: PseudoHermitianSpace, u, v) -> PlaneClass:
    """Classify span{u, v}: holomorphy, Gram rank, and signature when real.

    Accepts real vectors or ComplexVector pairs.  Holomorphy and Gram rank
    are invariants of the span; the signature label of a complex plane is
    only reported when the Gram matrix of the *given* basis is real.
    """
    exact = not (is_float_vector(u) or is_float_vector(v))
    if _span_rank(space, [u, v], exact) < 2:
        raise DependentVectorsError("plane basis vectors are linearly dependent")

    complex_input = isinstance(u, ComplexVector) or isinstance(v, ComplexVector)
    ip = space.inner_c if complex_input else space.inner
    ju, jv = space.apply_J(u), space.apply_J(v)

    if _span_rank(space, [u, v, ju], exact) == 2 and _span_rank(space, [u, v, jv], exact) == 2:
        holomorphy = "holomorphic"
    elif is_zero(ip(u, jv), FLOAT_IDENTITY_TOL):
        # g(u,Ju) = g(v,Jv) = 0 automatically; the single cross term decides
        holomorphy = "antiholomorphic"
    else:
        holomorphy = "generic"

    guu, guv, gvv = ip(u, u), ip(u, v), ip(v, v)
    rank = gram_rank(guu, guv, gvv, exact)

    label = None
    if rank == 2:
        entries = [guu, guv, gvv]
        if complex_input:
            real = all(is_zero(_imag_part(x), FLOAT_IDENTITY_TOL) for x in entries)
            if real:
                entries = [_real_part(x) for x in entries]
            else:
                entries = None
        if entries is not None:
            a, b, c = (entries if exact
                       else [float(np.real(complex(x))) for x in entries])
            det = a * c - b * b
            if det < 0:
                label = "(+,-)"
            elif a + c > 0:
                label = "(+,+)"
            else:
                label = "(-,-)"
    return PlaneClass(holomorphy, rank, label)


def require_antiholomorphic_pair(space: PseudoHermitianSpace, x, w, what: str,
                                 signs: Optional[tuple] = None) -> None:
    """Raise GeometryError unless {x, w} is an orthonormal antiholomorphic pair:
    g(x,w) = g(x,Jw) = 0, and g(x,x), g(w,w) equal to `signs`, or to either
    of +-1 when `signs` is None.

    Rational vectors are checked in Python ints, on their numerators over
    one common d (`require_antiholomorphic_frame`); float ones are checked
    as they are.
    """
    space._check_vec(x)
    space._check_vec(w)
    form = integerize(chain(x, w))
    if form is None:
        require_antiholomorphic_frame(space, (x, w), 1, what, signs)
    else:
        N = np.array(form[0], dtype=object).reshape(2, space.n)
        require_antiholomorphic_frame(space, N, form[1], what, signs)


def require_antiholomorphic_frame(space: PseudoHermitianSpace, N, D: int, what: str,
                                  signs: Optional[tuple] = None) -> None:
    """`require_antiholomorphic_pair` on the pair N[0] / D, N[1] / D of an
    integer frame, checked on the numerators: g(x, x) = sigma reads
    sum_i s_i a_i^2 = sigma D^2."""
    g, scale = space.inner, D * D
    x, w = N[0], N[1]
    gxx, gww = g(x, x), g(w, w)
    if signs is None:
        conditions = [("g(x,x)^2=1", gxx * gxx - scale * scale),
                      ("g(w,w)^2=1", gww * gww - scale * scale)]
    else:
        conditions = [(f"g(x,x)={signs[0]}", gxx - signs[0] * scale),
                      (f"g(w,w)={signs[1]}", gww - signs[1] * scale)]
    conditions += [("g(x,w)=0", g(x, w)), ("g(x,Jw)=0", g(x, space.apply_J(w)))]
    for name, val in conditions:
        # on the numerators a float J's residue is measured against D^2
        if not is_zero(val, FLOAT_IDENTITY_TOL, scale):
            raise GeometryError(f"{what} needs an orthonormal antiholomorphic pair: {name} fails")


def _real_part(x):
    return x.real if isinstance(x, (ExactComplex, complex)) else x


def _imag_part(x):
    return x.imag if isinstance(x, (ExactComplex, complex)) else 0


MAX_M = 6


def make_space(m: int, s: int, J=None) -> PseudoHermitianSpace:
    """Space of complex dimension m <= MAX_M with s negative 2-blocks.

    With J omitted the canonical block structure is used.  A custom J is
    accepted iff it satisfies J^2 = -id and g(JX,JY) = g(X,Y); entries may
    be ints (numpy's too), Fractions, 'p/q' strings or floats (checked to
    tolerance).
    """
    if not isinstance(m, int) or not isinstance(s, int):
        raise GeometryError("m and s must be integers")
    if m < 1 or s < 0 or s > m:
        raise GeometryError(f"need m >= 1 and 0 <= s <= m, got m={m}, s={s}")
    if m > MAX_M:
        # past this, dense n^4 arrays and ~m^4-column constraint systems are impractical
        raise GeometryError(f"complex dimension m={m} exceeds the supported maximum {MAX_M}")
    signs = (-1,) * (2 * s) + (1,) * (2 * (m - s))
    if J is None:
        Jm = canonical_complex_structure(m)
    else:
        rows = [list(row) for row in J]
        if any(isinstance(x, float) for row in rows for x in row):
            Jm = np.array([[float(x) for x in row] for row in rows], dtype=object)
        else:
            Jm = np.array([[rational(x) for x in row] for row in rows], dtype=object)
        if Jm.shape != (2 * m, 2 * m):
            raise InvariantViolation("J.shape", f"J must be {2*m}x{2*m}")
        Jm = _freeze(Jm)
    return PseudoHermitianSpace(m=m, s=s, metric_signs=signs, J=Jm)


# -- exact orthonormal tuples ---------------------------------------------
#
# Rational vectors cannot be rescaled to unit norm, so orthonormal tuples are
# produced as images of standard basis vectors under random exact isometries:
# products of plane rotations with Pythagorean-triple coefficients (and their
# hyperbolic counterparts across mixed-sign coordinate pairs).  Rotation
# coefficients come from a fixed small table of integer triples (c, s, d),
# read as cos = c/d and sin = s/d (cosh and sinh for boosts), so entries stay
# short rationals and downstream exact elimination is cheap.  Every draw (a
# coordinate pair, a table row, a flip) goes through `scalars.below` and
# `two_below`, which give exactly what `Random.randrange`, `choice` and
# `sample` give, in fewer Python calls.  A row rotation acts on each column
# separately, so only the requested columns are rotated, and it touches only
# its two rows.  The rows are Python-int numerators over one denominator per
# row group (a J-block's two rows for a unitary isometry, which always move
# together, else one row): a step brings its groups to the lcm of theirs and
# multiplies that by d, and the rows meet over one lcm D at the end.  That
# integer form (`isometry_columns`, `integer_frame`) is what the classifiers
# probe on and what every pinching family is expanded on
# (`polarization.family_numerators`); `light_isometry` and `tuple_from_rng`
# build one reduced Fraction per entry from it, and `frame_vectors` does so
# for a report.  For antiholomorphic tuples the rotations act per J-block
# (complex phases and block mixes), which makes the isometry commute with J
# and preserves the J-orthogonality of the block-representative seeds.

_CIRCLE_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))
_BOOST_TRIPLES = tuple((c, b, a) for a, b, c in
                       ((3, 4, 5), (5, 12, 13), (12, 5, 13), (8, 15, 17),
                        (15, 8, 17), (7, 24, 25), (24, 7, 25), (20, 21, 29)))


def _rotation_coeffs(rng: random.Random, same_sign: bool) -> tuple[int, int, int]:
    if same_sign:
        c, s, d = _CIRCLE_TRIPLES[below(rng, len(_CIRCLE_TRIPLES))]
        if rng.getrandbits(1):
            c, s = s, c
    else:
        c, s, d = _BOOST_TRIPLES[below(rng, len(_BOOST_TRIPLES))]
    if rng.getrandbits(1):
        s = -s
    return c, s, d


# Hyperbolic steps per isometry, capped to keep frame coordinates moderate
# (each boost stretches them by its table factor).
_MAX_BOOSTS = 2


def isometry_columns(signs: Sequence[int], rng: random.Random,
                     unitary: bool = False,
                     columns: Optional[Sequence[int]] = None) -> tuple[np.ndarray, int]:
    """The integer form (N, D) of `light_isometry`: column columns[t] of the
    isometry is N[t] / D, for a (len(columns), n) object array N of Python
    ints and one positive D.  The draws from `rng` are the same."""
    n = len(signs)
    if columns is None:
        columns = range(n)
    N = [[int(r == col) for col in columns] for r in range(n)]
    if unitary:
        if n % 2 or any(signs[r] != signs[r + 1] for r in range(0, n, 2)):
            raise GeometryError("unitary rotations need equal-sign coordinate pairs")
        # a phase or a block mix moves a J-block's two rows together
        groups = [(r, r + 1) for r in range(0, n, 2)]
    else:
        groups = [(r,) for r in range(n)]
    k = len(groups)
    group_signs = [signs[group[0]] for group in groups]
    # N[r][t] / den[g] is entry (r, columns[t]) for each row r of group g
    den = [1] * k
    boosts = 0
    for _ in range(2 * n + 4):
        if unitary and (k == 1 or rng.random() < 0.4):
            # a phase: the rotation of one block's two rows
            g = below(rng, k)
            c, s, d = _rotation_coeffs(rng, True)
            pairs, same = (groups[g],), True
            den[g] *= d
        else:
            g1, g2 = two_below(rng, k)
            same = group_signs[g1] == group_signs[g2]
            if not same:
                if boosts >= _MAX_BOOSTS:
                    continue
                boosts += 1
            c, s, d = _rotation_coeffs(rng, same)
            L = den[g1]
            if den[g2] != L:
                L = math.lcm(L, den[g2])
                for g in (g1, g2):
                    if den[g] != L:
                        for r in groups[g]:
                            N[r] = [x * (L // den[g]) for x in N[r]]
            pairs = zip(groups[g1], groups[g2])
            den[g1] = den[g2] = L * d
        t = -s if same else s
        for i, j in pairs:
            ri, rj = N[i], N[j]
            N[i] = [c * a + t * b for a, b in zip(ri, rj)]
            N[j] = [s * a + c * b for a, b in zip(ri, rj)]
    D = math.lcm(*den)
    return np.array([[x * (D // d) for x in N[r]] for group, d in zip(groups, den)
                     for r in group], dtype=object).T, D


def light_isometry(signs: Sequence[int], rng: random.Random,
                   unitary: bool = False,
                   columns: Optional[Sequence[int]] = None) -> np.ndarray:
    """Exact isometry of diag(signs) as a product of up to 2n + 4 table rotations.

    With `unitary` the sign list must consist of equal-sign coordinate pairs
    (the J-block layout); rotations are then phases inside one block or
    identical rotations across two blocks, so the result commutes with the
    canonical J.  Hyperbolic steps across mixed-sign pairs are capped at
    `_MAX_BOOSTS`.  With `columns` only those columns of the isometry are
    computed and returned, in the given order; the draws from `rng` are the
    same either way.  The entries are reduced Fractions of `isometry_columns`.
    """
    N, D = isometry_columns(signs, rng, unitary=unitary, columns=columns)
    return np.array([[Fraction(x, D) for x in row] for row in N.T], dtype=object)


def random_isometry(space: PseudoHermitianSpace, rng: random.Random,
                    unitary: bool = False) -> np.ndarray:
    """Exact rational isometry of the space; J-commuting when `unitary`."""
    if unitary and not space.has_canonical_J:
        raise GeometryError("J-commuting isometries require the canonical J")
    return light_isometry(space.metric_signs, rng, unitary=unitary)


def realizable(space: PseudoHermitianSpace, pattern, antiholomorphic: bool = True) -> bool:
    """Whether an orthonormal tuple with the signs of `pattern` exists.

    The +1 and -1 signs must each fit: against the positive and negative
    J-blocks for antiholomorphic tuples (one vector per block), against the
    positive and negative coordinates otherwise.  A sign other than +-1
    raises `UnrealizablePatternError`.
    """
    pattern = tuple(pattern)
    for p in pattern:
        if p not in (1, -1):
            raise UnrealizablePatternError(f"bad sign {p!r} in pattern")
    per_block = 1 if antiholomorphic else 2
    return (pattern.count(1) <= per_block * (space.m - space.s)
            and pattern.count(-1) <= per_block * space.s)


def integer_frame(space: PseudoHermitianSpace, rng: random.Random, pattern,
                  antiholomorphic: bool = False) -> tuple[np.ndarray, int]:
    """The integer form (N, D) of `tuple_from_rng`: vector t of the tuple is
    N[t] / D, with the same draws and the same errors."""
    pattern = tuple(pattern)
    fits = realizable(space, pattern, antiholomorphic)
    plus, minus = pattern.count(1), pattern.count(-1)
    if antiholomorphic:
        if not space.has_canonical_J:
            raise GeometryError("antiholomorphic tuples require the canonical J")
        if not fits:
            raise UnrealizablePatternError(
                f"antiholomorphic pattern {pattern} needs {plus} positive and "
                f"{minus} negative J-blocks; space has {space.m - space.s} and {space.s}")
    elif not fits:
        raise UnrealizablePatternError(
            f"pattern {pattern} exceeds signature ({2*space.s}, {2*(space.m-space.s)})")
    cols = seed_columns(space, pattern, antiholomorphic)
    return isometry_columns(space.metric_signs, rng, unitary=antiholomorphic, columns=cols)


def frame_vectors(N: np.ndarray, D: int) -> list[np.ndarray]:
    """The vectors N[t] / D of an integer frame, as frozen arrays of reduced
    Fractions: the public view (`tuple_from_rng`), and what a report prints
    of a frame the computation kept in integers."""
    return [_freeze(np.array([Fraction(x, D) for x in row], dtype=object)) for row in N]


def tuple_from_rng(space: PseudoHermitianSpace, rng: random.Random, pattern,
                   antiholomorphic: bool = False) -> list[np.ndarray]:
    """Exact orthonormal tuple with the requested signs, drawn from `rng`.

    The tuple is the image of standard basis vectors (one per J-block when
    antiholomorphic) under a random isometry, of which only those columns
    are computed (`integer_frame`).  Raises `UnrealizablePatternError`
    unless `realizable`.
    """
    return frame_vectors(*integer_frame(space, rng, pattern, antiholomorphic))


def seed_columns(space: PseudoHermitianSpace, pattern,
                 antiholomorphic: bool = False) -> list[int]:
    """Indices of distinct standard basis vectors with the signs of `pattern`,
    one per J-block when antiholomorphic: the negative coordinates come
    first, the positive ones after them, each taken in order."""
    step = 2 if antiholomorphic else 1
    return [(0 if p == -1 else 2 * space.s) + step * pattern[:i].count(p)
            for i, p in enumerate(pattern)]


def unitary_generators(space: PseudoHermitianSpace) -> tuple:
    """Two integer generators X = G B_X, Y = G B_Y of the Lie algebra u(p, q)
    of (g, J); X alone when m = 1.

    G = diag(metric signs), and the B are real forms on the canonical
    J-blocks: B_X = sum_b 2^b i E_bb weighs the block phases, and B_Y sums
    the plain and J-twisted rotations E_bc - E_cb and i (E_bc + E_cb) of
    consecutive blocks, the infinitesimal steps of
    `light_isometry(unitary=True)`.  su(p, q) is simple, so two elements
    generate it (Kuranishi, 1951), and these two do for every m <= MAX_M
    (their Lie closure has rank m^2 modulo a prime, a test checks); the
    signed weights sum_b s_b 2^b never vanish, so X also reaches the centre.
    GeometryError unless J is exact and every K commutes with it and is
    g-skew, which holds for J = +-canonical J.
    """
    G, E = np.diag(np.array(space.metric_signs)), np.eye(space.m, dtype=np.int64)
    one, i = np.eye(2, dtype=np.int64), np.array([[0, -1], [1, 0]])
    Bs = [np.kron(np.diag(2 ** np.arange(space.m)), i)]
    if space.m > 1:
        shift = np.eye(space.m, k=1, dtype=np.int64)      # sum of E_b,b+1
        Bs.append(np.kron(shift - shift.T, one) + np.kron(shift + shift.T, i))
    gens = tuple(_freeze(G.dot(B)) for B in Bs)
    J = space.J
    if any(isinstance(x, float) for x in J.flat):
        # the closure offers exact rows built from J
        raise GeometryError("u(p,q) generators need an exact J; this J has float entries")
    if any((K.dot(J) - J.dot(K)).any() or (K.T.dot(G) + G.dot(K)).any() for K in gens):
        raise GeometryError("u(p,q) generators need J = +-canonical J: "
                            "a generator is not g-skew or does not commute with J")
    return gens


def gram_schmidt_tuple(space: PseudoHermitianSpace, seed: int, pattern,
                       antiholomorphic: bool = False) -> list[np.ndarray]:
    """Deterministic orthonormal tuple: g(u_i,u_i) = requested sign exactly,
    g(u_i,u_j) = 0, and g(u_i, J u_j) = 0 for all pairs when flagged
    antiholomorphic.
    """
    return tuple_from_rng(space, random.Random(seed), pattern, antiholomorphic)
