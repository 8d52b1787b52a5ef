"""Pointwise-constancy deciders for the three curvature notions.

Holomorphic constancy is decided exactly: H is constant iff the quartic form
X -> R(X,JX,JX,X) - c * g(X,X)^2 is the zero polynomial, which reduces to
comparing totally symmetrized coefficient tensors.  Antiholomorphic and
biholomorphic constancy are decided by exact-rational randomized probing
over orthonormal antiholomorphic tuples of every realizable signature
pattern (60 per pattern by default); a generic rational probe set witnesses
these polynomial conditions, with a measure-zero false-accept risk that the
seed-independence tests keep honest.

Biholomorphic values are compared after dividing by g(X,X)*g(Y,Y): the raw
quantity R(X,JX,JY,Y) flips sign on mixed-signature pairs even for model
tensors, so only the normalized value can be pointwise constant on an
indefinite space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations
from typing import Optional

import numpy as np

from .scalars import FLOAT_DEGENERATE_TOL, FLOAT_VERDICT_TOL, is_zero
from .spaces import (GeometryError, PseudoHermitianSpace, realizable,
                     tuple_from_rng)
from .tensors import (CurvatureTensor, _pair_signs, _wedge, component_scale,
                      holomorphic_sectional, sectional)

# Candidate vectors the exact holomorphic branch tries for a witness.  When
# the quartic comparison says nonconstant, a random candidate from [-3, 3]^n
# is isotropic or has H = c only on the zero set of the nonzero sextic
# g(v,v) (R(v,Jv,Jv,v) - c g(v,v)^2), with probability at most 6/7
# (Schwartz-Zippel).  The at least 790 random candidates after the fixed
# ones leave a risk below 1e-52, so running out means the comparison and
# the contraction disagree.
_WITNESS_CANDIDATES = 1000


@dataclass(frozen=True)
class Witness:
    """Two curvature arguments whose values disagree."""

    kind: str
    planes: tuple              # tuple of vector tuples
    values: tuple              # the two differing curvature values


@dataclass(frozen=True)
class ConstancyVerdict:
    status: str                # 'constant' | 'nonconstant'
    value: object = None       # populated exactly when constant
    witness: Optional[Witness] = None

    @property
    def is_constant(self) -> bool:
        return self.status == "constant"


def _comparators(R: CurvatureTensor):
    """(same, zero) predicates on curvature values under the verdict tolerance."""
    scale = component_scale(R.components)

    def zero(v):
        return is_zero(v, FLOAT_VERDICT_TOL, scale)

    def same(a, b):
        return a == b or zero(a - b)

    return same, zero


def _sign_patterns(space: PseudoHermitianSpace, k: int):
    """Realizable antiholomorphic sign patterns of length k, most positive first."""
    for p in range(k, -1, -1):
        pattern = (1,) * p + (-1,) * (k - p)
        if realizable(space, pattern):
            yield pattern


# -- holomorphic ------------------------------------------------------------

def _holomorphic_quartic(C: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Coefficient tensor of the quartic X -> C(X, JX, JX, X)."""
    T = np.tensordot(C, J, axes=([1], [0]))   # (i, q, l, j)
    T = np.tensordot(T, J, axes=([1], [0]))   # (i, l, j, k)
    return T.transpose(0, 2, 3, 1)


def _symmetrize_quartic(A: np.ndarray) -> np.ndarray:
    acc = None
    for perm in permutations(range(4)):
        term = A.transpose(perm)
        acc = term.copy() if acc is None else acc + term
    return acc


@lru_cache(maxsize=None)
def _norm_square_quartic(signs: tuple) -> np.ndarray:
    """Symmetrized integer coefficient tensor of the quartic X -> g(X, X)^2,
    built once per metric signature."""
    n = len(signs)
    G4 = np.zeros((n, n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            G4[i, i, j, j] = signs[i] * signs[j]
    SG = _symmetrize_quartic(G4)
    SG.setflags(write=False)
    return SG


def _candidate_coords(n: int, rng: random.Random):
    """Integer coordinates of the holomorphic probe vectors, in a fixed order:
    the basis vectors, then e_i + c e_j for c in (1, -1, 2), then random
    vectors of [-3, 3]^n.  Isotropic ones are the caller's to skip."""
    for i in range(n):
        yield [int(k == i) for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for coef in (1, -1, 2):
                v = [0] * n
                v[i], v[j] = 1, coef
                yield v
    while True:
        yield [rng.randint(-3, 3) for _ in range(n)]


def _norm(space: PseudoHermitianSpace, coords) -> int:
    """g(v, v) of an integer coordinate vector."""
    return sum(sg * x * x for sg, x in zip(space.metric_signs, coords))


def _holomorphic_screen(R: CurvatureTensor, V: np.ndarray) -> np.ndarray:
    """H of a float tensor at every row of V: -w S w^T / sum_P s_P w_P^2 on
    the float bivector form S, for the wedges w = v ^ Jv."""
    space = R.space
    W = _wedge(V, V @ space.J_float.T)
    pair_signs = _pair_signs(space.metric_signs).astype(float)
    return -((W @ R.bivector_form) * W).sum(axis=1) / ((W * W) @ pair_signs)


def constant_holomorphic(R: CurvatureTensor, samples: int = 200, seed: int = 0) -> ConstancyVerdict:
    """Decide pointwise constancy of H.

    Exact backend: polynomial-identity comparison of symmetrized quartic
    coefficient arrays (no sampling).  Float backend: H is constant when it
    agrees, within `FLOAT_VERDICT_TOL` times the tensor scale (largest
    component, at least 1), on `samples` deterministic nonisotropic probe
    vectors.  H of all of them is screened at once on the float bivector
    form; those more than half the tolerance away from the first are
    re-evaluated in order with `holomorphic_sectional`, which decides the
    verdict and gives every reported value.
    """
    space = R.space
    rng = random.Random(seed)
    if R.is_exact:
        ref = space.basis_vector(0)
        c = holomorphic_sectional(R, ref)
        # with components = N / D and c = p / q, SA == c SG reads SA_N q == SG p D
        N, D = R.integer_form or (R.components, 1)
        p, q = c.as_integer_ratio()
        SA = _symmetrize_quartic(_holomorphic_quartic(N, space.J))
        SG = _norm_square_quartic(space.metric_signs)
        if (SA * q == SG * (p * D)).all():
            return ConstancyVerdict("constant", value=c)
        # genuinely nonconstant: hunt a differing pair of holomorphic planes
        hunt = (coords for coords in islice(_candidate_coords(space.n, rng), _WITNESS_CANDIDATES)
                if _norm(space, coords) != 0)
        for coords in hunt:
            v = space.vector(coords)
            if (h := holomorphic_sectional(R, v)) != c:
                return ConstancyVerdict("nonconstant", witness=Witness(
                    "holomorphic", planes=((ref, space.apply_J(ref)), (v, space.apply_J(v))),
                    values=(c, h)))
        raise GeometryError(f"H is not constant, but no holomorphic plane among "
                            f"{_WITNESS_CANDIDATES} candidates has a value other than {c}")
    # float backend.  The screen and the scalar path (n^4 dense float64
    # terms) compute the same H in another order, so they differ by rounding
    # only: at most 7e-13 of the tensor scale on models and random tensors
    # up to m = 6, where the screen needs less than tol/4 = 2.5e-9.  Then
    # every candidate the scalar comparison rejects is flagged, and the
    # first confirmed flag is the candidate the scalar loop stopped at.
    same, _ = _comparators(R)
    tol = FLOAT_VERDICT_TOL * component_scale(R.components)
    nonisotropic = (v for v in _candidate_coords(space.n, rng) if _norm(space, v) != 0)
    coords = list(islice(nonisotropic, max(samples, 1)))
    H = _holomorphic_screen(R, np.array(coords, dtype=float))
    ref_vec = space.vector(coords[0])
    ref_val = holomorphic_sectional(R, ref_vec)
    for k in np.flatnonzero(np.abs(H - H[0]) > tol / 2):
        v = space.vector(coords[k])
        if not same(h := holomorphic_sectional(R, v), ref_val):
            return ConstancyVerdict("nonconstant", witness=Witness(
                "holomorphic",
                planes=((ref_vec, space.apply_J(ref_vec)), (v, space.apply_J(v))),
                values=(ref_val, h)))
    return ConstancyVerdict("constant", value=ref_val)


# -- antiholomorphic --------------------------------------------------------

def _derive_plane_witness(R, same, p, q, r):
    """From R(p,q,r,p) != 0 build two antiholomorphic planes with K apart."""
    base = sectional(R, p, q)
    for t in (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), 2, 3, -2):
        w = np.asarray(q) + t * np.asarray(r)
        if is_zero(R.space.inner(w, w), FLOAT_DEGENERATE_TOL):
            continue
        k = sectional(R, p, w)
        if not same(k, base):
            return Witness("antiholomorphic", planes=((p, q), (p, w)), values=(base, k))
    return None


def constant_antiholomorphic(R: CurvatureTensor, probes: int = 60, seed: int = 0) -> ConstancyVerdict:
    """Decide pointwise constancy of the antiholomorphic sectional curvature.

    Needs m > 2.  Probes `probes` orthonormal antiholomorphic triples per
    realizable signature pattern; constancy requires every probe value of K
    to agree and every mixed evaluation R(u,v,w,u) to vanish (the latter are
    the curvature values of planes degenerating to weak isotropy).
    """
    space = R.space
    if space.m <= 2:
        raise GeometryError("antiholomorphic constancy needs complex dimension m > 2")
    if probes < 1:
        raise GeometryError("antiholomorphic constancy needs at least one probe")
    rng = random.Random(seed)
    same, zero = _comparators(R)
    plane0 = val0 = None
    a_violation = None
    for pattern in _sign_patterns(space, 3):
        for _ in range(probes):
            u, v, w = tuple_from_rng(space, rng, pattern, antiholomorphic=True)
            for (p, q, r) in ((u, v, w), (v, w, u), (w, u, v)):
                if a_violation is None and not zero(R.eval(p, q, r, p)):
                    a_violation = (p, q, r)
                val = sectional(R, p, q)
                if plane0 is None:
                    plane0, val0 = (p, q), val
                elif not same(val, val0):
                    return ConstancyVerdict("nonconstant", witness=Witness(
                        "antiholomorphic", planes=(plane0, (p, q)), values=(val0, val)))
    if a_violation is not None:
        wit = _derive_plane_witness(R, same, *a_violation)
        if wit is not None:
            return ConstancyVerdict("nonconstant", witness=wit)
    return ConstancyVerdict("constant", value=val0)


# -- totally real biholomorphic ---------------------------------------------

def normalized_biholomorphic(R: CurvatureTensor, X, Y):
    """R(X,JX,JY,Y) / (g(X,X) g(Y,Y)) for an antiholomorphic orthonormal pair."""
    space = R.space
    J = space.apply_J
    return R.eval(X, J(X), J(Y), Y) / (space.inner(X, X) * space.inner(Y, Y))


def constant_biholomorphic(R: CurvatureTensor, probes: int = 60, seed: int = 0) -> ConstancyVerdict:
    """Decide pointwise constancy of the totally real biholomorphic curvature.

    Needs m > 2.  Values are compared after the signature normalization of
    `normalized_biholomorphic`.  On a drawn orthonormal pair g(u,u) g(v,v)
    is the product of the pattern's signs, so the normalization is a sign.
    """
    space = R.space
    if space.m <= 2:
        raise GeometryError("biholomorphic constancy needs complex dimension m > 2")
    if probes < 1:
        raise GeometryError("biholomorphic constancy needs at least one probe")
    rng = random.Random(seed)
    same, _ = _comparators(R)
    J = space.apply_J
    plane0 = val0 = None
    for pattern in _sign_patterns(space, 2):
        norm = pattern[0] * pattern[1]
        for _ in range(probes):
            u, v = tuple_from_rng(space, rng, pattern, antiholomorphic=True)
            val = R.eval(u, J(u), J(v), v) * norm
            if plane0 is None:
                plane0, val0 = (u, v), val
            elif not same(val, val0):
                return ConstancyVerdict("nonconstant", witness=Witness(
                    "biholomorphic", planes=(plane0, (u, v)), values=(val0, val)))
    return ConstancyVerdict("constant", value=val0)


# -- the three-way equivalence on definite spaces ----------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    """Probe outcome for the a/b/c equivalence on a definite space.

    a: R(x,y,z,x) = 0 on orthonormal antiholomorphic triples;
    b: K(x,y) = K(x,z) on the same triples;
    c: the antiholomorphic constancy verdict.
    """

    condition_a: bool
    condition_b: bool
    condition_c: bool
    agree: bool
    witness_a: Optional[tuple]
    witness_b: Optional[tuple]
    verdict_c: ConstancyVerdict


def lemma3_check(R: CurvatureTensor, probes: int = 60, seed: int = 0) -> EquivalenceReport:
    """Evaluate the three equivalent conditions and assert their agreement."""
    space = R.space
    if space.is_indefinite:
        raise GeometryError("the a/b/c equivalence check is a definite-metric tool")
    if space.m <= 2:
        raise GeometryError("the a/b/c equivalence needs complex dimension m > 2")
    rng = random.Random(seed)
    same, zero = _comparators(R)
    a_ok, b_ok = True, True
    wit_a = wit_b = None
    (pattern,) = _sign_patterns(space, 3)     # all positive or all negative
    for _ in range(probes):
        u, v, w = tuple_from_rng(space, rng, pattern, antiholomorphic=True)
        for (p, q, r) in ((u, v, w), (v, w, u), (w, u, v)):
            aval = R.eval(p, q, r, p)
            if a_ok and not zero(aval):
                a_ok, wit_a = False, ((p, q, r), aval)
            k1, k2 = sectional(R, p, q), sectional(R, p, r)
            if b_ok and not same(k1, k2):
                b_ok, wit_b = False, ((p, q, r), k1, k2)
    verdict = constant_antiholomorphic(R, probes=probes, seed=seed)
    c_ok = verdict.is_constant
    return EquivalenceReport(a_ok, b_ok, c_ok, agree=(a_ok == b_ok == c_ok),
                             witness_a=wit_a, witness_b=wit_b, verdict_c=verdict)
