"""Algebraic curvature tensors and the sectional-curvature zoo.

A `CurvatureTensor` is a dense rank-4 component array R[i,j,k,l] over one
space, satisfying

    R(X,Y,Z,U) = -R(Y,X,Z,U) = -R(X,Y,U,Z) = R(Z,U,X,Y)

entrywise, with the first Bianchi identity available as an optional
projection.  All sectional curvatures are ratios against the constant
curvature form

    pi1(X,Y,Z,U) = g(X,U) g(Y,Z) - g(X,Z) g(Y,U),

which makes them basis independent and fixes the sign convention on
mixed-signature planes (an orthonormal (+,-) pair has pi1(x,a,a,x) = -1).

Every evaluation is one kernel, `CurvatureTensor.contract`: four stacks of
real vectors in, the array of R on every choice of one row per stack out.
`eval` is the one-row case; `eval_c` stacks the real and imaginary parts of
each slot and `polarization.expand` the base and direction rows of each
family, and both sum the values by their powers of t and i
(`polarized_coefficients`).  Exact tensors keep their components as a
`Fraction` array, but contract on an integer form: Python-int numerators N
over one common denominator D (the lcm of the component denominators),
computed at most once and cached on the immutable tensor.  The symmetry
checks run on the numerators too, since scaling by D preserves which sums
vanish: validating a tensor computes the integer form its first contraction
then uses.  They run in int64 while every |N| < 2^60, since a check adds at
most three entries, and on the Python ints past that.  A caller that
already has the integer form (a parsed document, a combination of integer
coordinates) passes it in (`from_integer_form`); `from_dense` integerizes
exact input once and projects on the numerators, D taking the factors 8
and 3.  Both build through `_from_codes`, which gathers one `Fraction` and
one numerator per distinct value into place, and the numerators' int64
copy for the checks, so no n^4 object array is converted.  Integer dtypes
are stored as Python ints.

The contraction itself runs on the bivector form: R is antisymmetric in each
slot pair, so R(X, Y, Z, U) = (X^Y) S (Z^U)^T with the 2-forms written on
the P = n(n-1)/2 indices (i < j) and S[(i<j), (k<l)] = N_ijkl, the P x P
matrix of numerators, cached beside the integer form.  Rational vectors are
integerized the same way (`scalars.integerize`), their wedges are integer
rows, and a value is P^2 integer multiply-adds instead of n^4 (225 against
1296 at m = 3), reduced to one `Fraction` at the end.  Rows that already
are integers over a known denominator, the integer frames of the pinching
families (`polarization.family_numerators`), enter that branch directly
(`_contract_numerators`) and come out as integers.  When the last two
stacks repeat the first two in reverse, R(u, v, v, u), the right wedges
are the left ones negated and are not formed again; values are summed by
t-degree and power of i through a plan cached per slot shape.  `sectional`
reads its denominator off the same wedge: pi1(u, v, v, u) =
sum_P s_i s_j (u^v)_P^2.
Float tensors, and exact tensors on float vectors, keep the four-step dense
contraction (U, Z, Y, X), so float values are unchanged bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, product

import numpy as np

from .scalars import (FLOAT_DEGENERATE_TOL, FLOAT_IDENTITY_TOL, ExactComplex,
                      integerize, is_exact, is_zero)
from .spaces import (ComplexVector, DegeneratePlaneError, DimensionMismatch,
                     GeometryError, InvariantViolation, PseudoHermitianSpace,
                     gram_rank, require_antiholomorphic_pair)


def component_scale(C: np.ndarray) -> float:
    """Largest |component| of a float array, at least 1: the scale of its
    tolerances.  1 for exact (object) arrays, whose zero tests ignore it."""
    if C.dtype == object:
        return 1.0
    return max(1.0, float(np.abs(C).max()))


def bianchi_cyclic_sum(C: np.ndarray) -> np.ndarray:
    """First-Bianchi cyclic sum over the first three slots."""
    return C + C.transpose(1, 2, 0, 3) + C.transpose(2, 0, 1, 3)


# A symmetry check adds at most three entries (the Bianchi sum), so no check
# on int64 entries below 2^60 in absolute value wraps: 3 * 2^60 < 2^63.
_INT64_CHECK_BOUND = 2 ** 60


def failing_symmetries(C: np.ndarray, bianchi: bool = False,
                       integral: bool = False) -> list[str]:
    """Names of violated tensor invariants, empty when all hold.

    `integral` says that C already holds Python ints (an integer form's
    numerators), which are checked as they are.  An integer array is checked
    exactly: in int64 when every |entry| < 2^60, else as Python ints.
    """
    if C.dtype.kind in "iu":
        fits = -_INT64_CHECK_BOUND < C.min() and C.max() < _INT64_CHECK_BOUND
        C = C.astype(np.int64, copy=False) if fits else C.astype(object)
    elif C.dtype == object and not integral:
        # scaling by the common denominator preserves which sums vanish
        form = integerize(C.flat)
        if form is not None:
            C = np.array(form[0], dtype=object).reshape(C.shape)
    checks = [
        ("antisym-12", C + C.transpose(1, 0, 2, 3)),
        ("antisym-34", C + C.transpose(0, 1, 3, 2)),
        ("pair-exchange", C - C.transpose(2, 3, 0, 1)),
    ]
    if bianchi:
        checks.append(("bianchi", bianchi_cyclic_sum(C)))
    if C.dtype == np.int64:
        return [name for name, diff in checks if np.count_nonzero(diff)]
    scale = component_scale(C)
    return [name for name, diff in checks
            if not is_zero(np.abs(diff).max(), FLOAT_IDENTITY_TOL, scale)]


# -- the 2-form basis ---------------------------------------------------------

@lru_cache(maxsize=None)
def _two_forms(n: int) -> tuple:
    """(i, j), i < j, of the 2-form indices P = 0 .. n(n-1)/2 - 1, in order."""
    return np.triu_indices(n, 1)


@lru_cache(maxsize=None)
def _orbit_pairs(n: int) -> tuple:
    """Indices (a, b), a <= b, of the 2-form pairs {P_a, P_b}: one coordinate
    of the pair-symmetric basis each, in basis order."""
    return np.triu_indices(n * (n - 1) // 2)


@lru_cache(maxsize=None)
def _component_lift(n: int) -> tuple:
    """(P, Q, sign) on the components R_ijkl: the 2-form indices of (i, j) and
    (k, l), and the sign of e_i^e_j (x) e_k^e_l against e_P (x) e_Q (0 when
    i = j or k = l), as arrays that broadcast to (n, n, n, n)."""
    index = np.zeros((n, n), dtype=np.intp)
    iu, ju = _two_forms(n)
    index[iu, ju] = index[ju, iu] = np.arange(len(iu))
    sign = np.sign(np.arange(n) - np.arange(n)[:, None])
    return index[:, :, None, None], index, sign[:, :, None, None] * sign


@lru_cache(maxsize=None)
def _pair_signs(signs: tuple) -> np.ndarray:
    """s_i s_j on the 2-form indices: pi1(u, v, v, u) = sum_P s_P (u^v)_P^2.
    Python ints, so exact wedges of any size multiply without overflow."""
    iu, ju = _two_forms(len(signs))
    out = np.array([signs[i] * signs[j] for i, j in zip(iu, ju)], dtype=object)
    out.setflags(write=False)
    return out


def _bivector_matrix(C: np.ndarray) -> np.ndarray:
    """The frozen P x P matrix C[i, j, k, l] on the 2-form indices (i < j), (k < l)."""
    i, j = _two_forms(len(C))
    S = C[i[:, None], j[:, None], i, j]
    S.setflags(write=False)
    return S


def _wedge(a, b) -> np.ndarray:
    """(a ^ b)_P = a_i b_j - a_j b_i for the 2-form indices P = (i < j) of the
    last axis; leading axes broadcast, so stacks of rows give stacks of 2-forms."""
    a, b = np.asarray(a), np.asarray(b)
    i, j = _two_forms(a.shape[-1])
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    """Immutable curvature tensor over a fixed space."""

    space: PseudoHermitianSpace
    components: np.ndarray
    bianchi: bool = False      # True when the Bianchi identity was enforced
    validate: bool = True      # False only for freshly projected components
    # the integer form when the caller has it (`from_integer_form`,
    # `io_format.build_tensor`): it must equal the one `integer_form` computes,
    # and with it `numerators64`, gathered by code (`_from_codes`)
    form: InitVar[tuple | None] = None
    form64: InitVar[np.ndarray | None] = None

    def __post_init__(self, form, form64):
        n = self.space.n
        if self.components.shape != (n, n, n, n):
            raise DimensionMismatch(f"components must be {(n, n, n, n)}")
        if self.components.dtype.kind in "iu":      # Python ints: exact, and no wrapping
            object.__setattr__(self, "components", self.components.astype(object))
        self.components.setflags(write=False)
        if form is not None:
            self.__dict__["integer_form"] = form
            self.__dict__["numerators64"] = form64
        if self.validate:
            # on the numerators of the integer form, which stays cached for
            # the first contraction
            bad = self.symmetry_failures(self.bianchi)
            if bad:
                raise InvariantViolation(bad[0], "curvature symmetry violated")

    @property
    def is_exact(self) -> bool:
        return self.components.dtype == object

    @cached_property
    def integer_form(self) -> tuple[np.ndarray, int] | None:
        """(N, D) with components == N / D, computed once; None unless exact and rational."""
        form = integerize(self.components.flat) if self.is_exact else None
        if form is None:
            return None
        return np.array(form[0], dtype=object).reshape(self.components.shape), form[1]

    @cached_property
    def numerators64(self) -> np.ndarray | None:
        """The integer form's numerators as int64, None without an integer
        form or when a numerator does not fit."""
        form = self.integer_form
        if form is None:
            return None
        try:
            return form[0].astype(np.int64)
        except OverflowError:
            return None

    def symmetry_failures(self, bianchi: bool = False) -> list[str]:
        """`failing_symmetries` of the components, checked on the integer
        form's numerators: on `numerators64` when they fit, which the check
        runs in int64 below its bound, else on the Python ints."""
        if self.numerators64 is not None:
            return failing_symmetries(self.numerators64, bianchi=bianchi)
        form = self.integer_form
        return failing_symmetries(self.components if form is None else form[0],
                                  bianchi=bianchi, integral=form is not None)

    @cached_property
    def bivector_form(self) -> np.ndarray:
        """The P x P matrix S[P, Q] = R_ijkl on the 2-form indices P = (i < j)
        and Q = (k < l), computed once: the integer form's numerators (over
        its D) when the tensor is exact and rational, else the components.

        R(X, Y, Z, U) = (X^Y) S (Z^U)^T needs both antisymmetries, since S
        reads only i < j and k < l.  Validation has checked them; an
        unvalidated tensor is checked here and raises InvariantViolation
        rather than contract as its antisymmetric part.
        """
        form = self.integer_form
        if not self.validate:
            bad = [name for name in self.symmetry_failures() if name.startswith("antisym")]
            if bad:
                raise InvariantViolation(bad[0], "the bivector form needs both antisymmetries")
        return _bivector_matrix(self.components if form is None else form[0])

    # -- evaluation --------------------------------------------------------

    def _contract(self, stacks) -> tuple[np.ndarray, int | None]:
        """(values, D): R on every choice of one row from each of the four
        stacks, as a (k1, k2, k3, k4) array.

        When the tensor and every row are rational, each stack is integerized
        and the values are `_contract_numerators` over D.  Otherwise they are
        the dense contraction in the tensor's own dtype (float64 stays
        float64) and D is None: U contracts first, on the last axis, then Z,
        Y and X, so one-row stacks repeat the single-vector contraction bit
        for bit.
        """
        n = self.space.n
        if any(len(v) != n for S in stacks for v in S):
            raise DimensionMismatch("vector length does not match tensor space")
        forms = ([integerize(x for v in S for x in v) for S in stacks]
                 if self.integer_form else [None])
        if None not in forms:
            return self._contract_numerators(
                [np.array(N, dtype=object).reshape(len(S), n) for (N, _), S in zip(forms, stacks)],
                math.prod(d for _, d in forms))
        out = self.components
        rows = [np.asarray(S, dtype=out.dtype) for S in stacks]
        k = 1
        for S in reversed(rows):
            # the axis to contract is last, the stacks so far lead
            out = np.dot(out.reshape(-1, n, k).transpose(2, 0, 1).reshape(-1, n), S.T)
            k = len(S)
        k1, k2, k3, k4 = map(len, rows)
        return out.reshape(k2, k3, k4, k1).transpose(3, 0, 1, 2), None

    def _contract_numerators(self, stacks, den: int) -> tuple[np.ndarray, int]:
        """(values, D) for four stacks of Python-int rows whose values are
        over `den` (the product of the stacks' denominators), on an exact
        rational tensor: the integer numerators (X^Y) S (Z^U)^T, one matrix
        product on the stacked wedges of each slot pair, over D = D_R den.
        Integer frames (`spaces.integer_frame`) come here directly."""
        X, Y, Z, U = (np.asarray(S, dtype=object) for S in stacks)
        P = len(self.bivector_form)
        left = _wedge(X[:, None], Y[None])
        if Z.shape == Y.shape and U.shape == X.shape and (Z == Y).all() and (U == X).all():
            # R(u, v, v, u), as in sectional values and most families: v^u = -(u^v)
            right = -left.transpose(1, 0, 2)
        else:
            right = _wedge(Z[:, None], U[None])
        values = left.reshape(-1, P).dot(self.bivector_form).dot(right.reshape(-1, P).T)
        return values.reshape([len(S) for S in stacks]), self.integer_form[1] * den

    def contract(self, S1, S2, S3, S4) -> np.ndarray:
        """The (k1, k2, k3, k4) array of R(S1[a], S2[b], S3[c], S4[d]) for
        stacks of real vectors: Fractions on exact rational input, from the
        bivector form, else the dense contraction in the tensor's dtype."""
        values, den = self._contract((S1, S2, S3, S4))
        if den is None:
            return values
        return np.array([Fraction(v, den) for v in values.flat],
                        dtype=object).reshape(values.shape)

    def eval(self, X, Y, Z, U):
        """Multilinear contraction R(X,Y,Z,U) on real vectors: the one-row
        case of `contract`."""
        values, den = self._contract(((X,), (Y,), (Z,), (U,)))
        return values.item() if den is None else Fraction(values.item(), den)

    def eval_c(self, X, Y, Z, U):
        """Complex-multilinear extension: one contraction of the real and
        imaginary rows of every slot; restricts to `eval` on real input."""
        return polarized_coefficients(self, [complex_terms(v) for v in (X, Y, Z, U)])[0]

    def to_float(self) -> "CurvatureTensor":
        """The float64 copy: each component the float of its Fraction, taken
        as N / D from the integer form when every |N| and D are below 2^53
        (IEEE division of exact operands rounds once, as `float(Fraction)`
        does).  A validated tensor's copy keeps the antisymmetries exactly,
        since rounding is odd, so its bivector form is taken unchecked."""
        if not self.is_exact:
            return self
        form = self.integer_form
        if form is not None and form[1] < 2 ** 53 and max(map(abs, form[0].flat)) < 2 ** 53:
            C = np.array(form[0], dtype=float) / form[1]
        else:
            C = np.asarray(self.components, dtype=float)
        F = CurvatureTensor(self.space, C, bianchi=self.bianchi, validate=False)
        if self.validate:
            F.__dict__["bivector_form"] = _bivector_matrix(C)
        return F


def complex_terms(v, degree: int = 0, power: int = 0) -> list:
    """(real row, t-degree, power of i) terms of i^power * t^degree * v: one
    for a real vector, its real and imaginary parts for a ComplexVector."""
    if isinstance(v, ComplexVector):
        return [(v.re, degree, power), (v.im, degree, power + 1)]
    return [(v, degree, power)]


def polarized_coefficients(R: CurvatureTensor, slots) -> list:
    """Coefficients of t^0, t^1, ... of R on four slots of `complex_terms`.

    One stacked contraction of every slot's rows; each value is added to the
    coefficient of its total t-degree, signed and placed by its total power
    of i.  Exact rational input gives `ExactComplex` coefficients, divided by
    the common denominator once at the end; anything else gives `complex`.
    """
    values, den = R._contract([[row for row, _, _ in terms] for terms in slots])
    coeffs = _by_degree(slots, values)
    if den is None:
        return [complex(float(re), float(im)) for re, im in coeffs]
    return [ExactComplex(Fraction(re, den), Fraction(im, den)) for re, im in coeffs]


def _by_degree(slots, values) -> list:
    """[re, im] sums of the contracted values by total t-degree, each signed
    and placed by its total power of i."""
    degrees, plan = _degree_plan(tuple(tuple((d, p) for _, d, p in terms) for terms in slots))
    coeffs = [[0, 0] for _ in range(degrees)]
    for (k, part, negate), value in zip(plan, values.flat):
        coeffs[k][part] += -value if negate else value
    return coeffs


@lru_cache(maxsize=256)
def _degree_plan(shape: tuple) -> tuple:
    """For four slots' (t-degree, power of i) terms: the number of t-degrees,
    and per choice of one term per slot, in `product` order, the degree it
    adds to, its part (0 real, 1 imaginary) and whether it enters negated."""
    plan = []
    for picks in product(*shape):
        power = sum(p for _, p in picks) % 4
        plan.append((sum(d for d, _ in picks), power % 2, power >= 2))
    return 1 + sum(max(d for d, _ in terms) for terms in shape), tuple(plan)


@dataclass(frozen=True)
class CurvatureValue:
    """A curvature number tagged with the evaluation path that produced it."""

    value: object
    path: str                  # 'real' | 'complex'


def curvature_of_plane(R: "CurvatureTensor", u, v) -> CurvatureValue:
    """Sectional curvature of span{u, v}, tagged by evaluation path.

    Real input pairs go through the real contraction; anything complexified
    goes through the complex-multilinear extension.  Complex evaluations of
    real inputs carry a zero imaginary part.
    """
    if isinstance(u, ComplexVector) or isinstance(v, ComplexVector):
        return CurvatureValue(sectional_c(R, u, v), "complex")
    return CurvatureValue(sectional(R, u, v), "real")


def from_dense(space: PseudoHermitianSpace, components: np.ndarray,
               symmetrize: bool = False, bianchi_projection: bool = False,
               validate: bool = True) -> CurvatureTensor:
    """A tensor on the (optionally projected) components.  With `validate`
    off the raw components are kept unchecked, for a caller that reports
    their `failing_symmetries` itself.  Exact input (ints, numpy integers,
    Fractions) is integerized once and projected on its numerators, the
    denominator taking the factors 8 and 3 that float input is divided by."""
    C = components
    form = integerize(C.flat) if C.dtype.kind in "Oiu" else None
    if form is not None:
        C = np.array(form[0], dtype=object).reshape(C.shape)
    if symmetrize:             # 8 times the projection on the pair symmetries
        C = C - C.transpose(1, 0, 2, 3)
        C = C - C.transpose(0, 1, 3, 2)
        C = C + C.transpose(2, 3, 0, 1)
        C = C / 8 if form is None else C
    if bianchi_projection:     # 3 times C without its alternating part
        C = 2 * C - C.transpose(1, 2, 0, 3) - C.transpose(2, 0, 1, 3)
        C = C / 3 if form is None else C
    # a projection guarantees its own invariants; validate only raw input
    validate = validate and not symmetrize
    if form is None:
        return CurvatureTensor(space, C, bianchi=bianchi_projection, validate=validate)
    D = form[1] * 8 ** symmetrize * 3 ** bianchi_projection
    return _from_numerators(space, C, D, bianchi_projection, validate)


def from_integer_form(space: PseudoHermitianSpace, N: np.ndarray, D: int,
                      validate: bool = True) -> CurvatureTensor:
    """The tensor with components N / D, for an n^4 object array N of Python
    ints and a positive int D.

    The integer form is reduced to the one `CurvatureTensor.integer_form`
    computes (D the lcm of the reduced denominators) and cached.  Each
    distinct numerator becomes one `Fraction`, gathered into place by its
    code.  With `validate` the symmetries are checked once, on N.
    """
    return _from_numerators(space, N, D, False, validate)


def _from_numerators(space, N, D, bianchi, validate) -> CurvatureTensor:
    """`from_integer_form` with the tensor's `bianchi` flag."""
    values = set(N.flat)
    g = math.gcd(D, *values)
    code = {x: c for c, x in enumerate(values)}
    index = np.array(list(map(code.__getitem__, N.flat)), dtype=np.intp).reshape(N.shape)
    return _from_codes(space, index, [x // g for x in code], D // g, bianchi, validate)


def _from_codes(space, index, numerators: list, D: int, bianchi: bool = False,
                validate: bool = True, fractions=None) -> CurvatureTensor:
    """The tensor with component numerators[c] / D wherever `index` holds the
    code c, for Python-int `numerators` by code over the D of the reduced
    integer form.  The `Fraction`s by code (built here unless `fractions`
    has them) and the numerators are gathered into place; so are the
    numerators as int64 when they fit, which `symmetry_failures` checks."""
    if fractions is None:
        fractions = [Fraction(x, D) for x in numerators]
    try:
        N64 = np.array(numerators, dtype=np.int64)[index]
    except OverflowError:
        N64 = None
    # fromiter: np.array would probe every Fraction for the array protocols
    C = np.fromiter(fractions, dtype=object, count=len(fractions))[index]
    return CurvatureTensor(space, C, bianchi=bianchi, validate=validate,
                           form=(np.array(numerators, dtype=object)[index], D), form64=N64)


def dense_components(n: int, entries) -> np.ndarray:
    """Dense n^4 component array summing sparse (i, j, k, l, value), 0-based.

    Exact unless some value is a float.  Out-of-range indices and non-finite
    values raise instead of wrapping or propagating.  An exact value goes
    into its slot as is, and only an index seen before adds, so unique
    entries (a document's) cost no arithmetic.
    """
    entries = list(entries)
    floaty = any(isinstance(e[4], float) for e in entries)
    if floaty:
        C = np.zeros((n, n, n, n))
    else:
        zero = Fraction(0)
        flat = [zero] * n ** 4
    for (i, j, k, l, value) in entries:
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n and 0 <= l < n):
            bad = next(idx for idx in (i, j, k, l) if not 0 <= idx < n)
            raise DimensionMismatch(f"index {bad} out of range 0..{n - 1}")
        if isinstance(value, float):
            if not math.isfinite(value):
                raise GeometryError(f"non-finite component value {value!r}")
        elif type(value) is not Fraction:
            value = Fraction(value)
        if floaty:
            C[i, j, k, l] = C[i, j, k, l] + value
        else:
            at = ((i * n + j) * n + k) * n + l
            flat[at] = value if flat[at] is zero else flat[at] + value
    if not floaty:
        C = np.empty(n ** 4, dtype=object)
        C[:] = flat
        C = C.reshape(n, n, n, n)
    return C


def from_components(space: PseudoHermitianSpace, entries,
                    symmetrize: bool = False, bianchi_projection: bool = False) -> CurvatureTensor:
    """Build a tensor from a sparse list of (i, j, k, l, value), 0-based.

    With `symmetrize` the input is projected onto the symmetry subspace;
    otherwise the entries must already satisfy the symmetries.
    """
    C = dense_components(space.n, entries)
    return from_dense(space, C, symmetrize=symmetrize, bianchi_projection=bianchi_projection)


# -- the constant-curvature form and friends --------------------------------

def pi1(space: PseudoHermitianSpace, X, Y, Z, U):
    g = space.inner
    return g(X, U) * g(Y, Z) - g(X, Z) * g(Y, U)


def pi1_c(space: PseudoHermitianSpace, X, Y, Z, U):
    g = space.inner_c
    return g(X, U) * g(Y, Z) - g(X, Z) * g(Y, U)


def pi1_components(space: PseudoHermitianSpace) -> np.ndarray:
    """pi1_ijkl = g_il g_jk - g_ik g_jl for g = diag(metric signs), as an
    object array of Python ints."""
    g = np.diag(space.metric_signs)
    return (np.einsum("il,jk->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)).astype(object)


def sectional(R: CurvatureTensor, u, v):
    """Sectional curvature of span{u,v}: R(u,v,v,u) / pi1(u,v,v,u).

    Depends only on the span.  On rational vectors the denominator comes
    from the wedge w = u^v, pi1(u,v,v,u) = sum_P s_i s_j w_P^2, and so does
    the numerator of an exact tensor, -w S w^T on its bivector form S.
    Raises DegeneratePlaneError (carrying the Gram rank) on weakly or
    totally isotropic planes.
    """
    space = R.space
    g = space.inner
    # vectors of the wrong length take the general path, whose g reports them
    form = len(u) == len(v) == space.n and integerize(chain(u, v))
    if form:
        a, b = np.array(form[0], dtype=object).reshape(2, space.n)
        w = _wedge(a, b)
        # pi1(u, v, v, u) d^4 for the vectors' common denominator d, which
        # cancels against the numerator's
        den = w.dot(w * _pair_signs(space.metric_signs))
        if den and R.integer_form:
            return Fraction(-w.dot(R.bivector_form).dot(w), den * R.integer_form[1])
        if den:         # the float contraction over the same exact rational
            return R.eval(u, v, v, u) / Fraction(den, form[1] ** 4)
        # from the integer vectors, on which g cannot wrap as on int64 ones
        rank = gram_rank(g(a, a), g(a, b), g(b, b), True)
    else:
        uu, uv, vv = g(u, u), g(u, v), g(v, v)
        den = uu * vv - uv * uv            # pi1(u, v, v, u)
        num = R.eval(u, v, v, u)
        if not is_zero(den, FLOAT_DEGENERATE_TOL, num):
            return num / den
        rank = gram_rank(uu, uv, vv, is_exact(den))
    raise DegeneratePlaneError(
        f"plane is degenerate (gram rank {rank}); sectional curvature undefined", rank)


def sectional_c(R: CurvatureTensor, u, v):
    """Complexified sectional curvature of span{u,v} in the complexification."""
    space = R.space
    den = pi1_c(space, u, v, v, u)
    num = R.eval_c(u, v, v, u)
    if is_zero(den, FLOAT_DEGENERATE_TOL, num):
        raise DegeneratePlaneError("complexified plane is degenerate", 1)
    if not is_exact(num):       # a float tensor on exact vectors
        den = complex(den)
    return num / den


def holomorphic_sectional(R: CurvatureTensor, X):
    """H(X): sectional curvature of the holomorphic plane span{X, JX}."""
    if is_zero(R.space.inner(X, X), FLOAT_DEGENERATE_TOL):
        raise DegeneratePlaneError("X is isotropic; holomorphic plane degenerate", 1)
    return sectional(R, X, R.space.apply_J(X))


def biholomorphic(R: CurvatureTensor, X, Y):
    """Totally real biholomorphic curvature R(X, JX, JY, Y).

    Requires an antiholomorphic orthonormal pair; the raw value is returned
    (its sign normalization across signatures is the caller's business).
    """
    space = R.space
    require_antiholomorphic_pair(space, X, Y, "biholomorphic curvature")
    return R.eval(X, space.apply_J(X), space.apply_J(Y), Y)
