"""Model tensors, hypothesis constraint systems, and theorem verification.

Quantified curvature hypotheses ("... = 0 for every antiholomorphic pair")
are linear in the tensor and invariant under the pseudo-unitary group
U(p, q) of (g, J).  They are imposed exactly, without sampling: the
constraint rows at one representative configuration per orbit are closed
under u(p, q), and the solutions are the certified exact nullspace of the
closure in the symmetry-reduced component space.  The closure
(`closure.close`) is split by coordinate classes: the flip of the sign of
one J-block lies in U(p, q) and has every pair-symmetric coordinate as an
eigenvector, so an invariant row space is the direct sum of its parts on
the classes of coordinates with equal flip signs, and each class is closed
and solved on its own, with no change of basis.  Boundedness statements
are tested through their dichotomy: bounds hold on constant models, and
nonconstant tensors must blow up along pinching families approaching
isotropic planes.

The catalog is three tables.  `CONDITIONS` describes each hypothesis once:
the space requirements it needs, its identities as lists of 4-vector slot
tuples whose R-values must sum to zero, the equations of its configurations,
its orbit representatives and a configuration sampler.  Constraint rows are
the identities written as functionals on the pair-symmetric basis (products
of 2-form components); `condition_holds` rechecks the same identities with
`R.eval` on independent isometry-built unit configurations.  `PROBE_KINDS`
describes each pinching family once: the sign pattern of its drawn tuple,
its multiplicity and ladder side, its curvature expression, and its bounded
values on the two models.  `_THEOREMS` maps each catalog id to its
requirements and a runner: imposed-hypothesis classification, the
unboundedness dichotomy, or the definite-case bound check, each parametrized
by a row of data.  Each space requirement is a named `_Need` written once and
shared by every entry that has it; which sign patterns exist on a space is
decided by `spaces.realizable` alone.

Pinching families are evaluated exactly: the numerator polynomial comes
from one exact expansion, and each ladder rung t = 1 -+ 2^-k is the exact
value p(t) / sigma^multiplicity, sigma = 1 - t^2, as a quotient of two
integers.  Bounded families report their true maximum, and a blow-up is
never cancellation noise.  Probing therefore takes exact rational tensors
only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .constancy import (constant_antiholomorphic, constant_biholomorphic,
                        constant_holomorphic, normalized_biholomorphic)
from .closure import close
from .linsolve import integer_row
from .polarization import (TPolynomial, VectorFamily, bound_forced_identities,
                           complexified_family_expansion, expand)
from .scalars import (FLOAT_IDENTITY_TOL, FLOAT_REVERIFY_TOL, RAND_DENOMINATOR,
                      below, format_scalar, integerize, is_zero, rand_numerator,
                      rand_rational, two_below)
from .spaces import (GeometryError, PseudoHermitianSpace, light_isometry,
                     random_isometry, realizable, seed_columns, tuple_from_rng,
                     unitary_generators)
from .tensors import (CurvatureTensor, _component_lift, _orbit_pairs, _wedge,
                      from_dense, from_integer_form, pi1_components, sectional)


class HypothesisError(GeometryError):
    """Space parameters violate a theorem's hypotheses (CLI exit code 2)."""


# -- model tensors -----------------------------------------------------------

def model_constant_sectional(space: PseudoHermitianSpace, c) -> CurvatureTensor:
    """c * pi1: every nondegenerate plane has sectional curvature c."""
    comps = pi1_components(space) * Fraction(c)
    return CurvatureTensor(space, comps, bianchi=True)


def model_complex_space_form(space: PseudoHermitianSpace, c) -> CurvatureTensor:
    """The standard tensor with H = c: (c/4)(pi1 + J-paired terms)."""
    n = space.n
    g = space.inner
    e = [space.basis_vector(i) for i in range(n)]
    JG = np.empty((n, n), dtype=object)
    for i in range(n):
        Je = space.apply_J(e[i])
        for j in range(n):
            JG[i, j] = g(Je, e[j])
    P = pi1_components(space)
    c4 = Fraction(c) / 4
    C = np.empty((n, n, n, n), dtype=object)
    for i, j, k, l in np.ndindex(C.shape):
        C[i, j, k, l] = c4 * (P[i, j, k, l] + JG[i, l] * JG[j, k]
                              - JG[i, k] * JG[j, l] - 2 * JG[i, j] * JG[k, l])
    return CurvatureTensor(space, C, bianchi=True)


def random_tensor(space: PseudoHermitianSpace, seed: int,
                  bianchi: bool = True) -> CurvatureTensor:
    """Symmetrized (and by default Bianchi-projected) seeded random tensor."""
    rng = random.Random(seed)
    n = space.n
    flat = [rand_rational(rng) for _ in range(n ** 4)]
    C = np.array(flat, dtype=object).reshape(n, n, n, n)
    return from_dense(space, C, symmetrize=True, bianchi_projection=bianchi)


# -- the symmetry-reduced component space ------------------------------------

def _functional(a, b, c, d) -> np.ndarray:
    """The functional R -> R(a, b, c, d) on the pair-symmetric basis.

    The orbit of {P, Q} contributes (a^b)_P (c^d)_Q + (a^b)_Q (c^d)_P, once
    when P = Q; this is the orbit's signed sum of the outer product a b c d.
    """
    w1, w2 = _wedge(a, b), _wedge(c, d)
    ia, ib = _orbit_pairs(len(a))
    return w1[ia] * w2[ib] + np.where(ia == ib, 0, w1[ib] * w2[ia])


def tensor_from_coefficients(space: PseudoHermitianSpace, coeffs) -> CurvatureTensor:
    """The tensor with rational coordinates `coeffs` on the pair-symmetric
    basis (`_lift_coordinates` of their integer form)."""
    form = integerize(coeffs)
    if form is None:
        raise GeometryError("pair-symmetric coordinates must be rational")
    return _lift_coordinates(space, *form)


def _lift_coordinates(space: PseudoHermitianSpace, coords, D: int) -> CurvatureTensor:
    """The tensor with coordinates coords / D on the pair-symmetric basis, for
    Python ints `coords`: the symmetric 2-form matrix S with S_PQ = S_QP =
    coords[{P, Q}], lifted to the numerators N_ijkl = sign * S_PQ over D."""
    n = space.n
    ia, ib = _orbit_pairs(n)
    S = np.empty((n * (n - 1) // 2,) * 2, dtype=object)
    S[ia, ib] = S[ib, ia] = coords
    P, Q, sign = _component_lift(n)
    # the lift has the pair symmetries by construction
    return from_integer_form(space, S[P, Q] * sign, D, validate=False)


# -- space requirements -------------------------------------------------------

@dataclass(frozen=True)
class _Need:
    """One requirement on the space parameters, named as error messages say it."""

    text: str
    holds: Callable[[PseudoHermitianSpace], bool]


def _thmA_x_signs(space) -> list[int]:
    """Signs of X for which (X, xi) spans a weakly isotropic antiholomorphic
    plane: xi needs a positive and a negative J-block besides X's."""
    return [x for x in (1, -1) if realizable(space, (x, 1, -1))]


_M_ABOVE_1 = _Need("m > 1", lambda sp: sp.m > 1)
_M_ABOVE_2 = _Need("m > 2", lambda sp: sp.m > 2)
_INDEFINITE = _Need("an indefinite space", lambda sp: sp.is_indefinite)
_DEFINITE = _Need("a definite space", lambda sp: sp.s == 0)
_TWO_POSITIVE_BLOCKS = _Need("at least two positive J-blocks (m - s >= 2)",
                             lambda sp: realizable(sp, (1, 1)))
_ISOTROPIC_PLANES = _Need("weakly isotropic antiholomorphic planes",
                          lambda sp: bool(_thmA_x_signs(sp)))
_MIXED_TRIPLES = _Need("(+,+,-) triples",
                       lambda sp: realizable(sp, (1, 1, -1)))


def _require(name: str, needs: tuple, space: PseudoHermitianSpace) -> None:
    if not all(need.holds(space) for need in needs):
        raise HypothesisError(f"{name}: needs {', '.join(n.text for n in needs)}")


# -- hypothesis conditions ----------------------------------------------------
#
# Every condition is a polynomial identity in its configuration, linear in R
# and homogeneous in each quantified vector, so unit-length normalizations
# are dropped.  Its configurations are invariant under the pseudo-unitary
# group U(p, q) of (g, J), which by Witt's theorem for Hermitian forms
# (Scharlau, *Quadratic and Hermitian Forms*, 1985) moves a configuration to
# any other with the same Hermitian Gram matrix.  Up to scale there are a
# few orbits: one per sign pattern for the pairs of eq1 and lemma2, one per
# sign of X for the weakly isotropic planes of thmA and thm3, and for thm6 a
# family whose identities are quadratic in v = c Ju + s w, spanned by three
# values of (c, s).  U(p, q) is connected, so the constraint rows span the
# smallest u(p, q)-invariant space holding the rows at the representatives.

def _block_vectors(space, pattern) -> list:
    """Standard basis vectors with the signs of `pattern`, in distinct J-blocks."""
    return [space.basis_vector(c) for c in seed_columns(space, pattern, antiholomorphic=True)]


def _isotropic_representatives(space) -> list:
    """(X, e+ + e-) from three J-blocks, for each realizable sign of X."""
    return [(X, plus + minus) for X, plus, minus in
            (_block_vectors(space, (x, 1, -1)) for x in _thmA_x_signs(space))]


def _complex_isotropic_representatives(space) -> list:
    """(x, u, v) with v = c Ju + s w at three points (c, s) of the circle."""
    x, u, w = _block_vectors(space, (1, 1, 1))
    return [(x, u, c * space.apply_J(u) + s * w)
            for c, s in ((1, 0), (0, 1), (Fraction(3, 5), Fraction(4, 5)))]


def _off_block_frame(space, rng, b0):
    """x = T e_{2 b0} for a random unitary isometry T, the coordinates outside
    J-block b0, and T applied to the columns of a random isometry of them."""
    T = random_isometry(space, rng, unitary=True)
    comp_idx = [i for b in range(space.m) if b != b0 for i in (2 * b, 2 * b + 1)]
    S = light_isometry([space.metric_signs[i] for i in comp_idx], rng)
    return T[:, 2 * b0].copy(), comp_idx, T[:, comp_idx].dot(S)


def _isotropic_config(space, rng, x_sign):
    """Unit X of given sign and exact isotropic xi with span{X, xi} weakly
    isotropic and antiholomorphic."""
    blocks = range(space.s, space.m) if x_sign == 1 else range(space.s)
    b0 = blocks[below(rng, len(blocks))]
    X, comp_idx, cols = _off_block_frame(space, rng, b0)
    plus_b = next(b for b in range(space.s, space.m) if b != b0)
    minus_b = next(b for b in range(space.s) if b != b0)
    return X, cols[:, comp_idx.index(2 * plus_b)] + cols[:, comp_idx.index(2 * minus_b)]


def _complexified_isotropic_config(space, rng):
    """Unit x and orthonormal u, v away from span{x, Jx} (definite metric);
    xi = u + i v is isotropic and span{x, xi} is weakly isotropic
    antiholomorphic in the complexification."""
    b0 = below(rng, space.m)
    x, comp_idx, cols = _off_block_frame(space, rng, b0)
    l1, l2 = two_below(rng, len(comp_idx))
    return x, cols[:, l1], cols[:, l2]


@dataclass(frozen=True)
class _Condition:
    """A quantified hypothesis: identities that vanish on every configuration.

    `identities(J, *config)` lists the identities, each a list of 4-slot
    vector tuples whose R-values sum to zero; signs ride in the slot vectors.
    `equations(g, J, *config)` lists values that vanish on configurations,
    `representatives` gives one per U(p, q) orbit (up to scale) for the
    constraint rows, and `iso_configs` draws independent unit ones for rechecks.
    """

    needs: tuple
    identities: Callable
    equations: Callable
    representatives: Callable[[PseudoHermitianSpace], list]
    iso_configs: Callable[[PseudoHermitianSpace, random.Random], list]

    def rows(self, space) -> np.ndarray:
        """Integer constraint rows at the representatives, checked on their
        equations.  Each configuration is scaled once to integer vectors:
        every identity is homogeneous of degree 4 in it, so the coprime rows
        are those of the rational configuration.  A functional entry is at
        most 8 M^4 for entries up to M, so a row of t terms is summed in
        int64 when 8 t M^4 < 2^62."""
        g, J = space.inner, space.apply_J
        rows, dtype = [], np.int64
        for config in self.representatives(space):
            ints, _ = integerize(chain(*config))
            config = np.array(ints, dtype=object).reshape(len(config), -1)
            # the equations are bilinear, so the scaled configuration meets them too
            if not all(is_zero(e, FLOAT_IDENTITY_TOL) for e in self.equations(g, J, *config)):
                raise GeometryError("a representative configuration fails its equations")
            identities = self.identities(J, *config)
            terms = max(map(len, identities))
            if 8 * terms * max(map(abs, ints)) ** 4 >= 2 ** 62:
                dtype = object
            rows += [integer_row(sum(_functional(*(np.array(v, dtype=dtype) for v in slots))
                                     for slots in identity))
                     for identity in identities]
        return np.array(rows, dtype=dtype)

    def holds(self, R: CurvatureTensor, rng) -> bool:
        J = R.space.apply_J
        return all(sum(R.eval(*slots) for slots in identity) == 0
                   for config in self.iso_configs(R.space, rng)
                   for identity in self.identities(J, *config))


def _pair_condition(needs, partner_sign):
    """R(x,Jx,Jx,a) + R(x,Jx,Ja,x) = 0 on antiholomorphic (+, partner) pairs."""
    return _Condition(
        needs,
        lambda J, x, a: [[(x, J(x), J(x), a), (x, J(x), J(a), x)]],
        lambda g, J, x, a: [g(x, a), g(x, J(a))],
        lambda sp: [tuple(_block_vectors(sp, (1, partner_sign)))],
        lambda sp, rng: [tuple_from_rng(sp, rng, (1, partner_sign),
                                        antiholomorphic=True)])


def _isotropic_condition(identities):
    """An identity on weakly isotropic antiholomorphic planes span{X, xi}."""
    return _Condition(
        (_M_ABOVE_2, _ISOTROPIC_PLANES), identities,
        lambda g, J, X, xi: [g(xi, xi), g(X, xi), g(X, J(xi))],
        _isotropic_representatives,
        lambda sp, rng: [_isotropic_config(sp, rng, x_sign)
                         for x_sign in _thmA_x_signs(sp)])


CONDITIONS = {
    "eq1": _pair_condition((_INDEFINITE, _M_ABOVE_1), -1),
    "lemma2": _pair_condition((_TWO_POSITIVE_BLOCKS,), 1),
    "thmA": _isotropic_condition(lambda J, X, xi: [[(X, xi, xi, X)]]),
    "thm3": _isotropic_condition(lambda J, X, xi: [[(X, J(X), J(xi), xi)]]),
    # R_C(x, xi, xi, x) = 0 for xi = u + i v: its real and imaginary parts
    "thm6": _Condition(
        (_DEFINITE, _M_ABOVE_2),
        lambda J, x, u, v: [[(x, u, u, x), (x, v, v, -x)],
                            [(x, u, v, x), (x, v, u, x)]],
        # q_C(u + i v) = 0, and u, v, Ju, Jv orthogonal to x
        lambda g, J, x, u, v: [g(u, u) - g(v, v), g(u, v)]
        + [g(x, w) for w in (u, v, J(u), J(v))],
        _complex_isotropic_representatives,
        lambda sp, rng: [_complexified_isotropic_config(sp, rng)]),
}


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Solution space of a curvature hypothesis imposed as linear constraints.

    `basis` is the certified nullspace basis in integer form, one coprime
    integer row of coordinates on the pair-symmetric basis (`_orbit_pairs`)
    per vector, and `denominators` holds each row's entry at its free
    column: vector i is basis[i] / denominators[i].  `coefficients` is that
    rational view, and tensors are built from it only on demand.
    `probes_used` counts the class parts offered (`closure.close`): a row
    counts once for each sign-flip class it has nonzero entries in.
    """

    space: PseudoHermitianSpace
    condition_id: str
    rank: int
    basis: np.ndarray              # (dimension, N) Python ints
    denominators: tuple
    probes_used: int

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def coefficients(self) -> tuple:
        zero = Fraction(0)          # most entries; Fractions are immutable, so they share it
        return tuple([Fraction(v, d) if v else zero for v in row]
                     for row, d in zip(self.basis.tolist(), self.denominators))

    @cached_property
    def solution_basis(self) -> tuple:
        return tuple(tensor_from_coefficients(self.space, vec) for vec in self.coefficients)

    def random_element(self, seed: int) -> CurvatureTensor:
        """The basis combined with seeded `rand_rational` weights, one per vector."""
        if not self.dimension:
            raise GeometryError("constraint system has a trivial solution space")
        rng = random.Random(seed)
        # weight i is k_i / (64 d_i), over D = 64 lcm(d_i) without the
        # common factor (each vector over its own d_i keeps numerators small)
        L = math.lcm(*self.denominators)
        weights = [rand_numerator(rng) * (L // d) for d in self.denominators]
        g = math.gcd(RAND_DENOMINATOR * L, *weights)
        weights, D = [k // g for k in weights], RAND_DENOMINATOR * L // g
        return _lift_coordinates(self.space, np.array(weights, dtype=object).dot(self.basis), D)

    def condition_holds(self, R: CurvatureTensor, seed: int, count: int = 30) -> bool:
        """Recheck the named condition on fresh probe configurations."""
        rng = random.Random(seed)
        cond = CONDITIONS[self.condition_id]
        return all(cond.holds(R, rng) for _ in range(count))


def impose(space: PseudoHermitianSpace, condition_id: str, seed: int = 0) -> ConstraintSystem:
    """Impose a quantified curvature condition: close its representative rows
    under u(p, q) and take the certified exact nullspace.

    The integer rows at the representatives are closed under the two
    generators of u(p, q) (`spaces.unitary_generators`) by `closure.close`.
    A space invariant under both generators is invariant under the Lie
    algebra they generate, so the closed rows span the whole constraint
    space.  The closure is spun one sign-flip class at a time, which is
    exact: the sign flip of one J-block lies in U(p, q), so the constraint
    space is the direct sum of its parts on the coordinate classes those
    flips tell apart, and the solution space is the direct sum of the class
    solution spaces, with the same echelon basis.  The basis spans the
    solutions in the pair-symmetric component space (no Bianchi projection)
    and is kept in the integer form `RowReducer.nullspace` returns.  Nothing
    is drawn, so the result does not depend on `seed`.
    """
    if condition_id not in CONDITIONS:
        raise GeometryError(f"unknown condition {condition_id!r}")
    cond = CONDITIONS[condition_id]
    _require(condition_id, cond.needs, space)
    gens = unitary_generators(space)       # first: it refuses a float J by name
    closed = close(gens, cond.rows(space))
    basis, free = closed.nullspace()
    denominators = tuple(basis[np.arange(len(basis)), free].tolist())
    return ConstraintSystem(space, condition_id, closed.rank, basis, denominators,
                            closed.offered)


# -- pinching families and the unboundedness probe ----------------------------

@dataclass(frozen=True)
class _Kind:
    """One pinching family, approaching isotropic planes of one signature.

    The drawn orthonormal antiholomorphic tuple is (base, direction) or
    (base, partner, direction); the family's planes are span{u, v} with
    u = base + t*direction and v = Ju or the partner.  Its numerator is
    R(u,v,v,u), or R(u,Ju,Jv,v) when biholomorphic, over
    sigma^multiplicity, sigma = 1 - t^2.
    """

    pattern: tuple             # signs of the drawn tuple
    multiplicity: int
    above_one: bool            # ladder approaches t = 1 from above
    biholomorphic: bool
    model_values: tuple        # bounded maxima on the c=3 constant-curvature
                               # model and the c=2 holomorphic model


PROBE_KINDS = {
    "holomorphic": _Kind((1, -1), 2, False, False, (3.0, 2.0)),
    "antiholomorphic:(+,+)": _Kind((1, 1, -1), 1, False, False, (3.0, 0.5)),
    "antiholomorphic:(+,-)": _Kind((1, 1, -1), 1, True, False, (3.0, 0.5)),
    "antiholomorphic:(-,-)": _Kind((-1, -1, 1), 1, False, False, (3.0, 0.5)),
    "biholomorphic": _Kind((1, 1, -1), 1, False, True, (0.0, 1.0)),
}


def _kind_realizable(space, kind) -> bool:
    if kind not in PROBE_KINDS:
        raise GeometryError(f"unknown probe kind {kind!r}")
    return realizable(space, PROBE_KINDS[kind].pattern)


def _family_for(R, row: _Kind, tup) -> TPolynomial:
    """The numerator of `row`'s family through the drawn tuple."""
    J = R.space.apply_J

    def image(f):
        """J applied to a family, built only for the kinds that use it."""
        return VectorFamily(J(f.base), None if f.direction is None else J(f.direction))

    base, *partner, direction = tup
    u = VectorFamily.affine(base, direction)
    v = VectorFamily.constant(partner[0]) if partner else image(u)
    slots = (u, image(u), image(v), v) if row.biholomorphic else (u, v, v, u)
    return expand(R, *slots)


@dataclass(frozen=True)
class BoundWitness:
    """A plane and parameter where a pinching family exceeded the threshold."""

    kind: str
    u: np.ndarray              # first spanning vector, base + t*direction
    v: np.ndarray              # second spanning vector
    t: object
    value: object
    threshold: float

    def reverify(self, R: CurvatureTensor):
        """Recompute the curvature at the stored plane by direct evaluation."""
        if PROBE_KINDS[self.kind].biholomorphic:
            return normalized_biholomorphic(R, self.u, self.v)
        return sectional(R, self.u, self.v)


@dataclass(frozen=True)
class ProbeReport:
    exceeded: bool
    witness: Optional[BoundWitness]
    max_abs: float
    max_kind: Optional[str]
    evaluations: int
    threshold: float


def _ladder(poly: TPolynomial, multiplicity: int, step: int, rungs: int):
    """(a, b, num, den) for the rungs k = 1 .. rungs of a pinching family:
    t = a / b with b = 2^k and a = b + step, and p(t) / sigma^m = num / den.

    In integers: with the coefficients c_j = n_j / D over one D, and d the
    degree of p,

        p(t) / sigma^m = (sum_j n_j a^j b^(d-j)) b^(2m) / (D b^d (b^2 - a^2)^m),

    the sum by homogeneous Horner.  den > 0, and num / den is an int true
    division, which rounds correctly, so its float is float(p(t) / sigma^m)
    bit for bit (a zero value too is +0.0).
    """
    numerators, D = integerize(poly.coeffs)
    d = max(len(numerators) - 1, 0)
    for k in range(1, rungs + 1):
        b = 1 << k
        a = b + step
        acc = 0
        for j, c in enumerate(reversed(numerators)):
            acc = acc * a + (c << k * j)
        sigma = b * b - a * a           # b^2 sigma: negative above t = 1
        num = acc << 2 * multiplicity * k
        if sigma < 0 and multiplicity % 2:
            num = -num
        yield a, b, num, (D << d * k) * abs(sigma) ** multiplicity


def probe_unboundedness(R: CurvatureTensor, threshold: float = 1e6,
                        budget: tuple = (64, 40), seed: int = 0,
                        kinds=None) -> ProbeReport:
    """Push pinching families toward isotropic planes, hunting |value| > threshold.

    Returns the first threshold crossing as a re-verifiable witness, or a
    bounded-so-far report with the maximum found.  Requires an indefinite
    space, since definite metrics admit no isotropic limit directions, and
    an exact rational tensor: every rung is evaluated exactly, and a float
    tensor's cancellation noise near t = +-1 would read as a blow-up.  The
    rungs t = 1 -+ 2^-k are computed in integers (`_ladder`); the `Fraction`
    t and value are built only for a witness.
    """
    space = R.space
    if space.is_definite:
        raise GeometryError("unboundedness probing needs an indefinite space")
    if R.integer_form is None:
        raise GeometryError("unboundedness probing needs an exact rational tensor")
    if kinds is None:
        kinds = [k for k in PROBE_KINDS if _kind_realizable(space, k)]
    else:
        kinds = list(kinds)      # an iterator would be spent by this check
        for k in kinds:
            if not _kind_realizable(space, k):
                raise GeometryError(f"probe kind {k!r} not realizable on this signature")
    if not kinds:
        raise GeometryError("unboundedness probing needs at least one probe kind")
    probes, rungs = budget
    if probes < 1 or rungs < 1:
        raise GeometryError("unboundedness probing needs at least one pair and one rung")
    if not (threshold > 0 and math.isfinite(threshold)):
        raise GeometryError(f"unboundedness threshold must be finite and positive, "
                            f"got {threshold!r}")
    max_abs, max_kind = 0.0, None
    evaluations = 0
    for p_idx in range(probes):
        rng = random.Random(seed * 1_000_003 + p_idx)
        for kind in kinds:
            row = PROBE_KINDS[kind]
            tup = tuple_from_rng(space, rng, row.pattern, antiholomorphic=True)
            poly = _family_for(R, row, tup)
            step = 1 if row.above_one else -1
            for a, b, num, den in _ladder(poly, row.multiplicity, step, rungs):
                evaluations += 1
                fval = abs(num / den)
                if fval > max_abs:
                    max_abs, max_kind = fval, kind
                if fval > threshold:
                    t = Fraction(a, b)
                    base, *partner, direction = tup
                    u = np.asarray(base) + t * np.asarray(direction)
                    v = partner[0] if partner else space.apply_J(u)
                    witness = BoundWitness(kind, u, v, t, Fraction(num, den), threshold)
                    return ProbeReport(True, witness, max_abs, max_kind,
                                       evaluations, threshold)
    return ProbeReport(False, None, max_abs, max_kind, evaluations, threshold)


# -- end-to-end theorem verification ------------------------------------------

@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    m: int
    s: int
    trials: int
    seed: int
    status: str                # 'pass' | 'fail'
    items: tuple
    payload: object = None     # failing (tensor, evidence) when status == 'fail'

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class _Theorem:
    needs: tuple
    run: Callable              # (space, trials, seed, threshold, budget) -> (items, payload)


def _run_hypothesis(cond_id, classifier, label, space, trials, seed, threshold, budget):
    system = impose(space, cond_id, seed=seed)
    items = [f"constraint rank = {system.rank}, solution dimension = {system.dimension}"]
    payload = None
    for i in range(trials):
        R = system.random_element(seed * 1_000_003 + 7 * i + 1)
        verdict = classifier(R)
        ok = verdict.is_constant
        value = f" value = {format_scalar(verdict.value)}" if ok else ""
        items.append(f"trial {i}: {label} {'constant' if ok else 'NONCONSTANT'}{value}")
        if not ok and payload is None:
            payload = (R, verdict)
    return items, payload


def _hypothesis(cond_id, classifier, label, extra_needs=()) -> _Theorem:
    """Catalog entry: impose a condition and classify random solutions."""
    return _Theorem(extra_needs + CONDITIONS[cond_id].needs,
                    partial(_run_hypothesis, cond_id, classifier, label))


def _realizable_kinds(space, family) -> list[str]:
    return [k for k in PROBE_KINDS
            if k.split(":")[0] == family and _kind_realizable(space, k)]


def _check_dichotomy(kinds, classifier, label, space, trials, seed, threshold, budget):
    """Models stay bounded at their constant; nonconstant tensors cross."""
    items = []
    payload = None

    def bounded_check(name, R, expected):
        nonlocal payload
        rep = probe_unboundedness(R, threshold, budget, seed=seed, kinds=kinds)
        ok = not rep.exceeded and is_zero(rep.max_abs - expected, FLOAT_IDENTITY_TOL,
                                          max(rep.max_abs, expected))
        items.append(f"model {name}: bounded, max = {rep.max_abs!r} "
                     f"(expected {expected!r}){'' if ok else ' MISMATCH'}")
        if not ok and payload is None:
            payload = (R, rep)

    c3, c2 = PROBE_KINDS[kinds[0]].model_values
    bounded_check("constant-curvature c=3", model_constant_sectional(space, 3), c3)
    bounded_check("holomorphic-model c=2", model_complex_space_form(space, 2), c2)

    for i in range(trials):
        R = random_tensor(space, seed * 1_000_003 + i, bianchi=True)
        verdict = classifier(R)
        rep = probe_unboundedness(R, threshold, budget, seed=seed + i, kinds=kinds)
        if verdict.is_constant:
            ok = not rep.exceeded
            items.append(f"trial {i}: {label} constant; probe bounded = {ok}")
        else:
            ok = rep.exceeded
            if ok:
                recomputed = float(rep.witness.reverify(R.to_float()))
                stored = float(rep.witness.value)
                ok = is_zero(recomputed - stored, FLOAT_REVERIFY_TOL, stored)
                items.append(
                    f"trial {i}: nonconstant; witness {rep.witness.kind} "
                    f"|value| = {abs(stored)!r} at t = {format_scalar(rep.witness.t)}"
                    f"{' (reverified)' if ok else ' REVERIFY-FAILED'}")
            else:
                items.append(f"trial {i}: nonconstant but NO crossing "
                             f"(max {rep.max_abs!r})")
        if not ok and payload is None:
            payload = (R, rep)
    return items, payload


def _run_unboundedness(family, classifier, label, space, trials, seed, threshold, budget):
    return _check_dichotomy(_realizable_kinds(space, family), classifier, label,
                            space, trials, seed, threshold, budget)


def _run_restricted_signatures(space, trials, seed, threshold, budget):
    items = []
    payload = None
    for kind in _realizable_kinds(space, "antiholomorphic"):
        sub_items, sub_payload = _check_dichotomy(
            [kind], constant_antiholomorphic, f"[{kind}]",
            space, trials, seed, threshold, budget)
        items.extend(f"{kind} :: {line}" for line in sub_items)
        if sub_payload is not None and payload is None:
            payload = sub_payload
    return items, payload


def _antiholomorphic_even_expansion(R, x, y, z):
    """Real part of the complexified K numerator along y + i t z (unit x)."""
    p = expand(R, VectorFamily.constant(x), VectorFamily.imaginary(y, z),
               VectorFamily.imaginary(y, z), VectorFamily.constant(x))
    return p.real_part()


@dataclass(frozen=True)
class _DefiniteBound:
    """A definite-case bound: the pinching expansion it constrains, the exact
    expansion of the c-model, and the report wording."""

    pattern: tuple             # signs of the orthonormal antiholomorphic probe tuple
    expansion: Callable        # (R, *tuple) -> TPolynomial
    multiplicity: int          # the bound is |p(t)| <= c (1 - t^2)^multiplicity
    model_coeffs: Callable     # c -> coefficients of the model's expansion
    model_label: str           # formatted with c
    classifier: Callable
    curvature: str             # name of the classified curvature
    probes: str                # plural noun for the probe tuples
    model_offset: int          # rng stream offsets of the model draw
    trial_offset: int          # and of each trial's probes


_DEFINITE_HOLOMORPHIC = _DefiniteBound(
    (1, 1), complexified_family_expansion, 2, lambda c: (c, 0, -2 * c, 0, c),
    "expansion equals c*(1-t^2)^2 with c = {c}", constant_holomorphic,
    "H", "pairs", 3, 1000)

_DEFINITE_ANTIHOLOMORPHIC = _DefiniteBound(
    (1, 1, 1), _antiholomorphic_even_expansion, 1, lambda c: (c / 4, 0, -c / 4),
    "K family reduces to (c/4)*(1-t^2)", constant_antiholomorphic,
    "K", "triples", 5, 2000)


def _run_definite_bound(row, space, trials, seed, threshold, budget):
    items = []
    payload = None

    def probe_expansion(R, rng):
        return row.expansion(R, *tuple_from_rng(space, rng, row.pattern,
                                                antiholomorphic=True))

    def bound_compatible(p):
        return all(v == 0 for v in bound_forced_identities(p, multiplicity=row.multiplicity))

    c = Fraction(4)
    model = model_complex_space_form(space, c)
    p = probe_expansion(model, random.Random(seed * 1_000_003 + row.model_offset))
    ok = p == TPolynomial.of(row.model_coeffs(c)) and bound_compatible(p)
    items.append(f"model: {row.model_label.format(c=format_scalar(c))}: {ok}")
    if not ok:
        payload = (model, p)
    for i in range(trials):
        R = random_tensor(space, seed * 1_000_003 + i, bianchi=True)
        verdict = row.classifier(R)
        rng = random.Random(seed * 1_000_003 + row.trial_offset + i)
        violations = sum(not bound_compatible(probe_expansion(R, rng)) for _ in range(20))
        if verdict.is_constant:
            ok = violations == 0
            items.append(f"trial {i}: {row.curvature} constant; "
                         f"all {row.probes} bound-compatible = {ok}")
        else:
            ok = violations > 0
            items.append(f"trial {i}: {row.curvature} nonconstant; violated "
                         f"constraints on {violations}/20 {row.probes}")
        if not ok and payload is None:
            payload = (R, verdict)
    return items, payload


_THEOREMS = {
    "lemma1": _hypothesis("eq1", constant_holomorphic, "H"),
    "lemma2": _hypothesis("lemma2", constant_holomorphic, "H", extra_needs=(_DEFINITE,)),
    "thmA": _hypothesis("thmA", constant_antiholomorphic, "antiholomorphic K"),
    "thm3": _hypothesis("thm3", constant_biholomorphic, "biholomorphic"),
    "thm6": _hypothesis("thm6", constant_antiholomorphic, "antiholomorphic K"),
    "thm1": _Theorem((_INDEFINITE, _M_ABOVE_1), partial(
        _run_unboundedness, "holomorphic", constant_holomorphic, "H")),
    "thm2": _Theorem((_INDEFINITE, _M_ABOVE_2), partial(
        _run_unboundedness, "antiholomorphic", constant_antiholomorphic,
        "antiholomorphic K")),
    "thm4": _Theorem((_INDEFINITE, _M_ABOVE_2, _MIXED_TRIPLES), partial(
        _run_unboundedness, "biholomorphic", constant_biholomorphic, "biholomorphic")),
    "remark1": _Theorem((_INDEFINITE, _M_ABOVE_2), _run_restricted_signatures),
    "thm5": _Theorem((_DEFINITE, _M_ABOVE_1),
                     partial(_run_definite_bound, _DEFINITE_HOLOMORPHIC)),
    "thm7": _Theorem((_DEFINITE, _M_ABOVE_2),
                     partial(_run_definite_bound, _DEFINITE_ANTIHOLOMORPHIC)),
}

THEOREM_IDS = tuple(_THEOREMS)


def verify(theorem_id: str, space: PseudoHermitianSpace, trials: int = 20,
           seed: int = 0, threshold: float = 1e6, budget: tuple = (64, 40)) -> TheoremReport:
    """Run one catalog entry end to end and report pass/fail with evidence."""
    if theorem_id not in _THEOREMS:
        raise GeometryError(f"unknown theorem id {theorem_id!r}; "
                            f"known: {', '.join(THEOREM_IDS)}")
    if trials < 1:
        raise GeometryError("verification needs at least one trial")
    theorem = _THEOREMS[theorem_id]
    _require(theorem_id, theorem.needs, space)
    items, payload = theorem.run(space, trials, seed, threshold, budget)
    status = "pass" if payload is None else "fail"
    return TheoremReport(theorem_id, space.m, space.s, trials, seed,
                         status, tuple(items), payload)
