"""Pointwise-constancy deciders for the three curvature notions.

Holomorphic constancy is decided exactly: H is constant iff the quartic form
X -> R(X,JX,JX,X) - c * g(X,X)^2 is the zero polynomial, which reduces to
comparing totally symmetrized coefficient tensors, in int64 whenever a bound
on the entries allows it (`_quartic_is_constant`).  Its witness hunt and the
float backend's sampled criterion try the same integer candidate vectors,
whose random coordinates are decoded in bulk from the generator's words
(`_candidate_coords`, `scalars.bulk_below`).  Antiholomorphic and
biholomorphic constancy are decided by exact-rational randomized probing
over orthonormal antiholomorphic tuples of every realizable signature
pattern (60 per pattern by default); a generic rational probe set witnesses
these polynomial conditions, with a measure-zero false-accept risk that the
seed-independence tests keep honest.

The probing runs on integer frames: each tuple is drawn as Python-int rows
N over one denominator D (`spaces.integer_frame`).  On an exact tensor a
value is an int pair, the wedges of the rows contracted on the bivector form
over its D_R (the frame's D cancels in K), and values are compared by
cross-multiplying; a float tensor evaluates the rows N / D.  A `Fraction`
is built only for what a verdict reports: the constant value, and the
planes and values of a witness.

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
from itertools import chain, permutations
from typing import Optional

import numpy as np

from .scalars import FLOAT_DEGENERATE_TOL, FLOAT_VERDICT_TOL, bulk_below, is_zero
from .spaces import (GeometryError, PseudoHermitianSpace, frame_vectors,
                     integer_frame, realizable)
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
    """Symmetrized int64 coefficient tensor of the quartic X -> g(X, X)^2,
    built once per metric signature; its entries are at most 24."""
    n = len(signs)
    G4 = np.zeros((n, n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            G4[i, i, j, j] = signs[i] * signs[j]
    SG = _symmetrize_quartic(G4)
    SG.setflags(write=False)
    return SG


def _quartic_is_constant(R: CurvatureTensor, c: Fraction) -> bool:
    """Whether R(X,JX,JX,X) = c g(X,X)^2 as polynomials, R exact: the
    symmetrized quartic of the components N / D against that of g(X,X)^2.
    With c = p / q it reads SA_N q == SG p D.  The arrays are int64 when J
    is integral and every entry stays below 2^63: an SA_N entry sums 24
    terms of n^2 products N J J, so |SA_N q| <= 24 n^2 max|N| max|J|^2 q,
    and |SG p D| <= max|SG| |p| D.  Otherwise they hold Python ints, or
    the Fractions or floats of J."""
    space, form = R.space, R.integer_form
    N, D = form or (R.components, 1)
    J, SG = space.J, _norm_square_quartic(space.metric_signs)
    p, q = c.as_integer_ratio()
    dtype = object
    if form is not None and all(type(x) is int or (type(x) is Fraction and x.denominator == 1)
                                for x in J.flat):
        n, n_max, j_max = space.n, max(N.max(), -N.min()), int(np.abs(J).max())
        if max(24 * n * n * n_max * j_max * j_max * q,
               int(np.abs(SG).max()) * abs(p) * D) < 2 ** 63:
            dtype = np.int64
    SA = _symmetrize_quartic(_holomorphic_quartic(N.astype(dtype), J.astype(dtype)))
    return bool((SA * q == SG.astype(dtype) * (p * D)).all())


def _candidate_coords(n: int, rng: random.Random):
    """Integer coordinates of the holomorphic probe vectors, as int64 blocks
    of rows in a fixed order: the basis vectors, then e_i + c e_j for c in
    (1, -1, 2), then blocks of 256 random vectors of [-3, 3]^n.  Their
    coordinates are the values of successive rng.randint(-3, 3), row by row,
    decoded in bulk (`bulk_below`), which may draw words past the last block
    it yields.  Isotropic rows are the caller's to drop."""
    eye = np.eye(n, dtype=np.int64)
    yield eye
    i, j = np.triu_indices(n, 1)
    yield (eye[i][:, None] + np.array([1, -1, 2])[:, None] * eye[j][:, None]).reshape(-1, n)
    rows = 256          # one block covers the float backend's default 200 samples
    values, need = np.empty(0, dtype=np.int64), rows * n
    while True:
        # a word is a redraw with chance 1/8; the loop draws again if short
        short = need - len(values)
        values = np.concatenate([values, bulk_below(rng, 7, short + short // 6 + 8) - 3])
        if len(values) >= need:
            yield values[:need].reshape(rows, n)
            values = values[need:]


def _probe_vectors(space: PseudoHermitianSpace, rng: random.Random, limit=None):
    """The rows with g(v, v) != 0 of the candidate blocks, block by block;
    with `limit`, only those among the first `limit` candidates."""
    signs = np.array(space.metric_signs, dtype=np.int64)
    for block in _candidate_coords(space.n, rng):
        if limit is not None:
            block, limit = block[:limit], limit - len(block)
        yield block[(block * block).dot(signs) != 0]
        if limit is not None and limit <= 0:
            return


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
        if _quartic_is_constant(R, c):
            return ConstancyVerdict("constant", value=c)
        # genuinely nonconstant: hunt a differing pair of holomorphic planes
        hunt = chain.from_iterable(_probe_vectors(space, rng, _WITNESS_CANDIDATES))
        for coords in hunt:
            v = space.vector(coords.tolist())
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
    blocks, have = [], 0
    for block in _probe_vectors(space, rng):
        blocks.append(block)
        have += len(block)
        if have >= samples:
            break
    coords = np.concatenate(blocks)[:max(samples, 1)]
    H = _holomorphic_screen(R, coords.astype(float))
    ref_vec = space.vector(coords[0].tolist())
    ref_val = holomorphic_sectional(R, ref_vec)
    for k in np.flatnonzero(np.abs(H - H[0]) > tol / 2):
        v = space.vector(coords[k].tolist())
        if not same(h := holomorphic_sectional(R, v), ref_val):
            return ConstancyVerdict("nonconstant", witness=Witness(
                "holomorphic",
                planes=((ref_vec, space.apply_J(ref_vec)), (v, space.apply_J(v))),
                values=(ref_val, h)))
    return ConstancyVerdict("constant", value=ref_val)


# -- probing on integer frames --------------------------------------------------

class _FrameProbe:
    """Curvature values of one tensor on integer frames (N, D).

    Exact tensors give int pairs (numerator, denominator) on the bivector
    form, compared by cross-multiplying.  Float tensors give the float64 of
    `eval` on the rows N_i / D, and K divides it by the plane denominator
    den / D^4; both are int true divisions, correctly rounded like
    `float(Fraction)`, so the values are those of the `Fraction` frames bit
    for bit.
    """

    def __init__(self, R: CurvatureTensor):
        self.R = R
        self.exact = R.integer_form is not None
        self.pair_signs = _pair_signs(R.space.metric_signs)
        # the comparators of reported values (Fractions or floats)
        self.same_value, self.zero_value = _comparators(R)

    def same(self, a, b) -> bool:
        return a[0] * b[1] == b[0] * a[1] if self.exact else self.same_value(a, b)

    def zero(self, a) -> bool:
        return not a[0] if self.exact else self.zero_value(a)

    def report(self, a):
        """The value as a verdict reports it: a Fraction, or the float."""
        return Fraction(*a) if self.exact else a

    def antiholomorphic(self, N, D, reverse: bool = False) -> tuple:
        """(K, mixed, K_rev) on the cyclic triples (p, q, r) of the frame rows
        (u, v, w), starting at u, v and w: K(p, q), R(p, q, r, p) and, with
        `reverse`, K(p, r) (else None)."""
        R = self.R
        W = _wedge(N, N[[1, 2, 0]])                 # u^v, v^w, w^u
        den = (W * W).dot(self.pair_signs)          # pi1(p, q, q, p) D^4
        if self.exact:
            # R(p, q, q, p) = -(p^q) S (p^q)^T and R(p, q, r, p) = (p^q) S (r^p)^T
            M = W.dot(R.bivector_form).dot(W.T)
            D_R = R.integer_form[1]
            K = [(-M[k, k], den[k] * D_R) for k in range(3)]
            mixed_den = D_R * D ** 4
            mixed = [(M[k, k - 1], mixed_den) for k in range(3)]
            return K, mixed, K[-1:] + K[:-1] if reverse else None
        rows = _float_rows(N, D)
        D4 = D ** 4
        K, mixed, K_rev = [], [], []
        for k in range(3):
            p, q, r = rows[k], rows[k - 2], rows[k - 1]
            K.append(R.eval(p, q, q, p) / (den[k] / D4))
            mixed.append(R.eval(p, q, r, p))
            if reverse:
                K_rev.append(R.eval(p, r, r, p) / (den[k - 1] / D4))
        return K, mixed, K_rev if reverse else None

    def biholomorphic(self, N, D, norm: int):
        """R(u, Ju, Jv, v) times `norm` on the frame rows (u, v)."""
        R = self.R
        u, v = N
        ju, jv = N.dot(R.space.J.T)             # frames need the canonical J
        if self.exact:
            value = _wedge(u, ju).dot(R.bivector_form).dot(_wedge(jv, v))
            return value * norm, R.integer_form[1] * D ** 4
        return R.eval(*_float_rows((u, ju, jv, v), D)) * norm


def _float_rows(N, D) -> list:
    """The float64 rows N_i / D, each entry an int true division."""
    return [np.array([x / D for x in row]) for row in N]


def _cyclic(vectors, k: int) -> tuple:
    """The k-th cyclic triple (p, q, r) of (u, v, w)."""
    return vectors[k], vectors[k - 2], vectors[k - 1]


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


def _antiholomorphic_probes(R: CurvatureTensor, probes: int, seed: int, reverse: bool = False):
    """(probe, stream): the stream yields (N, D, K, mixed, K_rev) of
    `_FrameProbe.antiholomorphic` for `probes` frames per realizable sign
    pattern, drawn lazily from one generator seeded with `seed`."""
    space = R.space
    if space.m <= 2:
        raise GeometryError("antiholomorphic constancy needs complex dimension m > 2")
    if probes < 1:
        raise GeometryError("antiholomorphic constancy needs at least one probe")
    probe, rng = _FrameProbe(R), random.Random(seed)
    frames = (integer_frame(space, rng, pattern, antiholomorphic=True)
              for pattern in _sign_patterns(space, 3) for _ in range(probes))
    return probe, ((N, D, *probe.antiholomorphic(N, D, reverse)) for N, D in frames)


def _antiholomorphic_verdict(probe: _FrameProbe, stream) -> ConstancyVerdict:
    first = a_violation = None
    for N, D, K, mixed, _ in stream:
        for k in range(3):
            if a_violation is None and not probe.zero(mixed[k]):
                a_violation = (N, D, k)
            if first is None:
                first = (N, D, k, K[k])
            elif not probe.same(K[k], first[3]):
                planes = [_cyclic(frame_vectors(N_, D_), k_)[:2]
                          for N_, D_, k_ in (first[:3], (N, D, k))]
                return ConstancyVerdict("nonconstant", witness=Witness(
                    "antiholomorphic", planes=tuple(planes),
                    values=(probe.report(first[3]), probe.report(K[k]))))
    if a_violation is not None:
        N, D, k = a_violation
        wit = _derive_plane_witness(probe.R, probe.same_value, *_cyclic(frame_vectors(N, D), k))
        if wit is not None:
            return ConstancyVerdict("nonconstant", witness=wit)
    return ConstancyVerdict("constant", value=probe.report(first[3]))


def constant_antiholomorphic(R: CurvatureTensor, probes: int = 60, seed: int = 0) -> ConstancyVerdict:
    """Decide pointwise constancy of the antiholomorphic sectional curvature.

    Needs m > 2.  Probes `probes` orthonormal antiholomorphic triples per
    realizable signature pattern; constancy requires every probe value of K
    to agree and every mixed evaluation R(u,v,w,u) to vanish (the latter are
    the curvature values of planes degenerating to weak isotropy).  The
    triples are integer frames, drawn one at a time, so a nonconstant tensor
    stops at its first mismatch.
    """
    return _antiholomorphic_verdict(*_antiholomorphic_probes(R, probes, seed))


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
    The pairs are integer frames, drawn one at a time.
    """
    space = R.space
    if space.m <= 2:
        raise GeometryError("biholomorphic constancy needs complex dimension m > 2")
    if probes < 1:
        raise GeometryError("biholomorphic constancy needs at least one probe")
    rng = random.Random(seed)
    probe = _FrameProbe(R)
    first = None
    for pattern in _sign_patterns(space, 2):
        norm = pattern[0] * pattern[1]
        for _ in range(probes):
            N, D = integer_frame(space, rng, pattern, antiholomorphic=True)
            val = probe.biholomorphic(N, D, norm)
            if first is None:
                first = (N, D, val)
            elif not probe.same(val, first[2]):
                return ConstancyVerdict("nonconstant", witness=Witness(
                    "biholomorphic",
                    planes=(tuple(frame_vectors(*first[:2])), tuple(frame_vectors(N, D))),
                    values=(probe.report(first[2]), probe.report(val))))
    return ConstancyVerdict("constant", value=probe.report(first[2]))


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
    probe, stream = _antiholomorphic_probes(R, probes, seed, reverse=True)
    # definite: the one realizable pattern, all positive or all negative
    frames = list(stream)
    a_ok, b_ok = True, True
    wit_a = wit_b = None
    for N, D, K, mixed, K_rev in frames:
        for k in range(3):
            if a_ok and not probe.zero(mixed[k]):
                a_ok, wit_a = False, (_cyclic(frame_vectors(N, D), k), probe.report(mixed[k]))
            if b_ok and not probe.same(K[k], K_rev[k]):
                b_ok, wit_b = False, (_cyclic(frame_vectors(N, D), k),
                                      probe.report(K[k]), probe.report(K_rev[k]))
    verdict = _antiholomorphic_verdict(probe, iter(frames))
    c_ok = verdict.is_constant
    return EquivalenceReport(a_ok, b_ok, c_ok, agree=(a_ok == b_ok == c_ok),
                             witness_a=wit_a, witness_b=wit_b, verdict_c=verdict)
