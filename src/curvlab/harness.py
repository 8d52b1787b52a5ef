"""Model tensors, hypothesis constraint systems, and theorem verification.

Quantified curvature hypotheses ("... = 0 for every antiholomorphic pair")
are linear in the tensor, so they are imposed by instantiating the condition
on seeded integer points of its configuration variety, drawn from a
polynomial parametrization of that variety, until the constraint rank is
stable for ten consecutive draws, then taking the certified exact nullspace
inside the symmetry-reduced component space.  Boundedness statements are
tested through their dichotomy: bounds hold on constant models, and
nonconstant tensors must blow up along pinching families approaching
isotropic planes.

The catalog is three tables.  `CONDITIONS` describes each hypothesis once:
the space requirements it needs, its identities as lists of 4-vector slot
tuples whose R-values must sum to zero, and two configuration samplers.
Constraint rows are the identities written as functionals on the
pair-symmetric basis (products of 2-form components) at parametrized integer
configurations; `condition_holds` rechecks the same identities with `R.eval`
on independent isometry-built unit configurations.  `PROBE_KINDS` describes
each pinching family once: the sign pattern of its drawn tuple, its
multiplicity and ladder side, its curvature expression, and its bounded
values on the two models.  `_THEOREMS` maps each catalog id to its
requirements and a runner: imposed-hypothesis classification, the
unboundedness dichotomy, or the definite-case bound check, each parametrized
by a row of data.  Each space requirement is a named `_Need` written once and
shared by every entry that has it; which sign patterns exist on a space is
decided by `spaces.realizable` alone.

Pinching families are evaluated through their exact polynomial coefficients
rewritten in powers of sigma = 1 - t^2.  Near t = +-1 a direct float
contraction loses all significant digits to cancellation; the sigma form is
exact for rational tensors and keeps the ladder cheap.  For float tensors
the coefficients carry the float noise floor, which bounds how small a
detected blow-up coefficient can meaningfully be.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .constancy import (constant_antiholomorphic, constant_biholomorphic,
                        constant_holomorphic, normalized_biholomorphic)
from .linsolve import RowReducer, integer_row
from .polarization import (TPolynomial, VectorFamily, bound_forced_identities,
                           complexified_family_expansion, expand)
from .scalars import (FLOAT_IDENTITY_TOL, FLOAT_REVERIFY_TOL, format_scalar,
                      integerize, is_zero, rand_rational)
from .spaces import (GeometryError, PseudoHermitianSpace, light_isometry,
                     random_isometry, realizable, tuple_from_rng)
from .tensors import (CurvatureTensor, from_dense, pi1_components, sectional)


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

@lru_cache(maxsize=None)
def _pair_orbits(n: int) -> tuple:
    """Orbit presentation of the pair-symmetric tensor basis.

    Basis elements are indexed by unordered pairs {P <= Q} of 2-form indices
    P = (i<j); each element touches at most 8 components with signs +-1.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    orbits = []
    for a, (i, j) in enumerate(pairs):
        for (k, l) in pairs[a:]:
            entries = [((i, j, k, l), 1), ((j, i, k, l), -1),
                       ((i, j, l, k), -1), ((j, i, l, k), 1)]
            if (i, j) != (k, l):
                entries += [((k, l, i, j), 1), ((l, k, i, j), -1),
                            ((k, l, j, i), -1), ((l, k, j, i), 1)]
            orbits.append(tuple(entries))
    return tuple(orbits)


@lru_cache(maxsize=None)
def _orbit_pairs(n: int) -> tuple:
    """Indices (a, b), a <= b, of the 2-form pairs {P_a, P_b} of each orbit,
    in `_pair_orbits` order."""
    return np.triu_indices(n * (n - 1) // 2)


def _wedge(a, b) -> np.ndarray:
    """(a ^ b)_P = a_i b_j - a_j b_i for the 2-form indices P = (i < j)."""
    W = np.multiply.outer(np.asarray(a), np.asarray(b))
    return (W - W.T)[np.triu_indices(len(a), 1)]


def _functional(a, b, c, d) -> np.ndarray:
    """The functional R -> R(a, b, c, d) on the pair-symmetric basis.

    The orbit of {P, Q} contributes (a^b)_P (c^d)_Q + (a^b)_Q (c^d)_P, once
    when P = Q; this is the orbit's signed sum of the outer product a b c d.
    """
    w1, w2 = _wedge(a, b), _wedge(c, d)
    ia, ib = _orbit_pairs(len(a))
    return w1[ia] * w2[ib] + np.where(ia == ib, 0, w1[ib] * w2[ia])


def tensor_from_coefficients(space: PseudoHermitianSpace, coeffs) -> CurvatureTensor:
    n = space.n
    orbits = _pair_orbits(n)
    C = np.empty((n, n, n, n), dtype=object)
    C[...] = Fraction(0)
    for c, orbit in zip(coeffs, orbits):
        if c:
            for idx, sign in orbit:
                C[idx] = C[idx] + sign * c
    # orbit sums have the pair symmetries by construction
    return CurvatureTensor(space, C, validate=False)


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
# are dropped: constraint rows come from integer points of the configuration
# variety, drawn from a polynomial parametrization evaluated on the box
# [-3, 3]^n, with no sign tests and no rejection.
#
# - Pair variety (eq1, lemma2): P = {(x, a): g(x,a) = g(x,Ja) = 0}.  Over
#   q(x) != 0 it is a vector bundle of rank n - 2, a smooth manifold of
#   dimension 2n - 2.  a = g(x,x) t - g(x,t) x - g(Jx,t) Jx is g(x,x) times
#   the projection of t onto span{x, Jx}^perp, so (x, t) -> (x, a) maps
#   onto that bundle.  eq1's (+,-) and lemma2's (+,+) pairs are its open
#   subsets q(x) > 0, q(a) < 0 or > 0.
# - Isotropic variety (thmA, thm3): I = {(X, xi): q(xi) = 0, g(X,xi) =
#   g(X,J xi) = 0}.  Over the null cone minus 0 (smooth of dimension n - 1,
#   and xi, J xi independent there) it is a bundle of rank n - 2.  With a
#   fixed null e, xi = q(t) e - 2 b(t,e) t projects from e onto the cone
#   (t = xi' + lambda e gives -2 b(xi',e) xi'), and X, the generalized cross
#   product of the two forms with free vectors, sweeps out the fibre.  The
#   planes span{X, xi} the theorems quantify over are the open subsets
#   q(X) > 0 or q(X) < 0.
# - Complexified isotropic variety (thm6): the same projection over C^n,
#   with t = t1 + i t2 and e = e_0 + i e_2, covers the complex null cone
#   xi = u + i v, and x comes from the real kernel of u, v, Ju, Jv.  Where
#   those four are independent (an open condition that orthonormal
#   configurations meet off a null set) the kernel is a bundle of rank n - 4.
#
# Each variety is the Zariski closure of the image of an affine space under
# its parametrization, hence irreducible, and the image contains a nonempty
# Euclidean-open set of its smooth real points of top dimension.  The
# sign-restricted configurations of the theorems are another such open set
# wherever the `_Need`s hold.  A nonempty open set of smooth real points of
# an irreducible variety is Zariski-dense in it (Bochnak, Coste & Roy, *Real
# Algebraic Geometry*, ch. 2-3), so an identity vanishes on the
# sign-restricted set iff it vanishes on the variety iff it vanishes on the
# parametrized points, and the certified echelon basis of the solutions is
# the same as with sign-restricted configurations.  Saturation is
# unchanged: sampling stops after ten consecutive draws with no rank
# growth.  A Schwartz-Zippel bound on missing a constraint (degree over box
# size) says nothing useful at box size 7, so no such bound is claimed.
# The recheck path `condition_holds` uses the independent isometry-based
# unit configurations of `iso_configs`.

def _small_int_vector(rng, n, bound=3) -> np.ndarray:
    return np.array([rng.randint(-bound, bound) for _ in range(n)], dtype=object)


def _unit(n, i) -> np.ndarray:
    e = np.zeros(n, dtype=object)
    e[i] = 1
    return e


def _det(rows) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss elimination)."""
    M = [list(r) for r in rows]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def _kernel_point(rows, frees) -> np.ndarray:
    """Generalized cross product of the n - 1 vectors `rows` + `frees`.

    Entry i is (-1)^i times the minor with column i deleted, so the result
    annihilates every row; as the free vectors vary it sweeps out the common
    kernel of the rows.  Rows may be rational (they are scaled to integers)
    and the result is divided by its content.
    """
    M = [integer_row(r) for r in rows] + [list(f) for f in frees]
    x = [(-1) ** i * _det([r[:i] + r[i + 1:] for r in M]) for i in range(len(M) + 1)]
    g = math.gcd(*x)
    return np.array([v // g for v in x] if g > 1 else x, dtype=object)


def _lower(space, v) -> list:
    """The linear form g(., v) as a coefficient row."""
    return [sg * a for sg, a in zip(space.metric_signs, v)]


def _null_point(space, t, e):
    """xi = q(t) e - 2 b(t,e) t for complex t = t[0] + i t[1] and e = e[0] + i e[1],
    with q and b complex-bilinear; xi = xi[0] + i xi[1] is null when e is."""
    g = space.inner
    (t0, t1), (e0, e1) = t, e
    qr, qi = g(t0, t0) - g(t1, t1), 2 * g(t0, t1)
    br, bi = g(t0, e0) - g(t1, e1), g(t0, e1) + g(t1, e0)
    return (qr * e0 - qi * e1 - 2 * (br * t0 - bi * t1),
            qr * e1 + qi * e0 - 2 * (br * t1 + bi * t0))


def _int_pair_config(space, rng):
    """(x, a) with g(x,a) = g(x,Ja) = 0."""
    g, J = space.inner, space.apply_J
    x, t = _small_int_vector(rng, space.n), _small_int_vector(rng, space.n)
    return [(x, g(x, x) * t - g(x, t) * x - g(J(x), t) * J(x))]


def _int_isotropic_config(space, rng):
    """(X, xi) with q(xi) = 0 and g(X,xi) = g(X,J xi) = 0."""
    n = space.n
    zero = np.zeros(n, dtype=object)
    e = _unit(n, 0) + _unit(n, 2 * space.s)     # one negative, one positive coordinate
    xi, _ = _null_point(space, (_small_int_vector(rng, n), zero), (e, zero))
    X = _kernel_point([_lower(space, xi), _lower(space, space.apply_J(xi))],
                      [_small_int_vector(rng, n) for _ in range(n - 3)])
    return [(X, xi)]


def _int_complex_isotropic_config(space, rng):
    """(x, u, v) with q_C(u + i v) = 0 and u, v, Ju, Jv orthogonal to x."""
    n = space.n
    t = (_small_int_vector(rng, n), _small_int_vector(rng, n))
    u, v = _null_point(space, t, (_unit(n, 0), _unit(n, 2)))   # definite metric
    x = _kernel_point([_lower(space, w) for w in (u, v, space.apply_J(u), space.apply_J(v))],
                      [_small_int_vector(rng, n) for _ in range(n - 5)])
    return [(x, u, v)]


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
    b0 = rng.choice(list(blocks))
    X, comp_idx, cols = _off_block_frame(space, rng, b0)
    plus_b = next(b for b in range(space.s, space.m) if b != b0)
    minus_b = next(b for b in range(space.s) if b != b0)
    return X, cols[:, comp_idx.index(2 * plus_b)] + cols[:, comp_idx.index(2 * minus_b)]


def _complexified_isotropic_config(space, rng):
    """Unit x and orthonormal u, v away from span{x, Jx} (definite metric);
    xi = u + i v is isotropic and span{x, xi} is weakly isotropic
    antiholomorphic in the complexification."""
    b0 = rng.randrange(space.m)
    x, comp_idx, cols = _off_block_frame(space, rng, b0)
    l1, l2 = rng.sample(range(len(comp_idx)), 2)
    return x, cols[:, l1], cols[:, l2]


@dataclass(frozen=True)
class _Condition:
    """A quantified hypothesis: identities that vanish on every configuration.

    `identities(J, *config)` lists the identities, each a list of 4-slot
    vector tuples whose R-values sum to zero; signs ride in the slot vectors.
    `int_configs` draws integer points of the configuration variety for
    constraint rows and `iso_configs` the independent isometry-built unit
    configurations for rechecks.
    """

    needs: tuple
    identities: Callable
    int_configs: Callable[[PseudoHermitianSpace, random.Random], list]
    iso_configs: Callable[[PseudoHermitianSpace, random.Random], list]

    def rows(self, space, rng) -> list:
        """One constraint row per identity and integer configuration."""
        J = space.apply_J
        return [sum(_functional(*slots) for slots in identity)
                for config in self.int_configs(space, rng)
                for identity in self.identities(J, *config)]

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
        _int_pair_config,
        lambda sp, rng: [tuple_from_rng(sp, rng, (1, partner_sign),
                                        antiholomorphic=True)])


def _isotropic_condition(identities):
    """An identity on weakly isotropic antiholomorphic planes span{X, xi};
    rechecks draw one configuration per realizable sign of X."""
    return _Condition(
        (_M_ABOVE_2, _ISOTROPIC_PLANES), identities, _int_isotropic_config,
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
        _int_complex_isotropic_config,
        lambda sp, rng: [_complexified_isotropic_config(sp, rng)]),
}


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Solution space of a curvature hypothesis imposed as linear constraints.

    `coefficients` is the certified nullspace basis as vectors of rational
    coordinates on the pair-symmetric basis (`_pair_orbits`); tensors are
    built from them only on demand.
    """

    space: PseudoHermitianSpace
    condition_id: str
    rank: int
    coefficients: tuple
    probes_used: int
    seed: int

    @property
    def dimension(self) -> int:
        return len(self.coefficients)

    @cached_property
    def solution_basis(self) -> tuple:
        return tuple(tensor_from_coefficients(self.space, vec) for vec in self.coefficients)

    def random_element(self, seed: int) -> CurvatureTensor:
        """The basis combined with seeded `rand_rational` weights, one per vector."""
        if not self.coefficients:
            raise GeometryError("constraint system has a trivial solution space")
        rng = random.Random(seed)
        # each vector over its own denominator keeps the numerators small
        rows = [integerize(vec) for vec in self.coefficients]
        weights, D = integerize(rand_rational(rng) / d for _, d in rows)
        combined = np.array(weights, dtype=object).dot(
            np.array([nums for nums, _ in rows], dtype=object))
        return tensor_from_coefficients(self.space, [Fraction(v, D) for v in combined])

    def condition_holds(self, R: CurvatureTensor, seed: int, count: int = 30) -> bool:
        """Recheck the named condition on fresh probe configurations."""
        rng = random.Random(seed)
        cond = CONDITIONS[self.condition_id]
        return all(cond.holds(R, rng) for _ in range(count))


# Consecutive probe configurations that must add no rank before `impose`
# stops (the "ten consecutive draws" of the saturation note above).
SATURATION_RUN = 10


def impose(space: PseudoHermitianSpace, condition_id: str, seed: int = 0) -> ConstraintSystem:
    """Impose a quantified curvature condition by rank-saturating probes.

    Fresh probe configurations are instantiated until `SATURATION_RUN`
    consecutive draws add no rank; the system's coefficient vectors then
    span the solutions inside the pair-symmetric component space (no
    Bianchi projection).  `RowReducer.nullspace` certifies them exactly
    against every row offered, so rank and basis are exact over Q.
    """
    if condition_id not in CONDITIONS:
        raise GeometryError(f"unknown condition {condition_id!r}")
    cond = CONDITIONS[condition_id]
    _require(condition_id, cond.needs, space)
    ncols = len(_pair_orbits(space.n))
    reducer = RowReducer(ncols)
    rng = random.Random(seed * 1_000_003 + 17)
    consecutive = 0
    used = 0
    cap = 10 * ncols + 100
    while consecutive < SATURATION_RUN:
        grew = False
        for row in cond.rows(space, rng):
            if reducer.add_row(row):
                grew = True
        used += 1
        consecutive = 0 if grew else consecutive + 1
        if used > cap:
            raise GeometryError(f"rank saturation did not stabilize after {cap} probes")
    return ConstraintSystem(space, condition_id, reducer.rank,
                            tuple(reducer.nullspace()), used, seed)


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


def _sigma_coefficients(p: TPolynomial):
    """Rewrite p(t) = E(sigma) + t * O(sigma), sigma = 1 - t^2 (degree <= 4)."""
    a = list(p.coeffs) + [0] * (5 - len(p.coeffs))
    E = (a[0] + a[2] + a[4], -a[2] - 2 * a[4], a[4])
    O = (a[1] + a[3], -a[3])
    return E, O


def _family_value(row: _Kind, poly: TPolynomial, k: int):
    """Family value at the k-th ladder rung, evaluated cancellation-free.

    Exact Fraction arithmetic end to end: t = 1 -+ 2^-k and sigma = 1 - t^2
    are exact rationals, so bounded families report their true maximum and
    blow-up detection never rides on float cancellation noise.
    """
    step = Fraction(1, 2 ** k)
    if row.above_one:
        t = 1 + step
        sigma = -step * (2 + step)
    else:
        t = 1 - step
        sigma = step * (2 - step)
    E, O = _sigma_coefficients(poly)
    m = row.multiplicity
    value = 0
    for j, e in enumerate(E):
        value = value + e * sigma ** (j - m)
    odd = 0
    for j, o in enumerate(O):
        odd = odd + o * sigma ** (j - m)
    value = value + t * odd
    return t, value


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


def probe_unboundedness(R: CurvatureTensor, threshold: float = 1e6,
                        budget: tuple = (64, 40), seed: int = 0,
                        kinds=None) -> ProbeReport:
    """Push pinching families toward isotropic planes, hunting |value| > threshold.

    Returns the first threshold crossing as a re-verifiable witness, or a
    bounded-so-far report with the maximum found.  Requires an indefinite
    space: definite metrics admit no isotropic limit directions.
    """
    space = R.space
    if space.is_definite:
        raise GeometryError("unboundedness probing needs an indefinite space")
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
            for k in range(1, rungs + 1):
                t, value = _family_value(row, poly, k)
                evaluations += 1
                fval = float(value)
                if abs(fval) > max_abs:
                    max_abs, max_kind = abs(fval), kind
                if abs(fval) > threshold:
                    base, *partner, direction = tup
                    u = np.asarray(base) + t * np.asarray(direction)
                    v = partner[0] if partner else space.apply_J(u)
                    witness = BoundWitness(kind, u, v, t, value, threshold)
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
