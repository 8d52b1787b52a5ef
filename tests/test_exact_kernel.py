"""Property tests of the exact contraction kernel against nested-loop oracles.

Exact tensors contract on their bivector form, the 2-form matrix of
Python-int numerators over one common denominator; these tests check every
path of `CurvatureTensor.eval` and `eval_c` against plain `Fraction`
arithmetic written out index by index, up to m = 4, the stacked `contract`
and `expand` against single evaluations, `sectional` against the oracle
ratio and its degenerate planes by Gram rank, and `failing_symmetries`
against invariants broken by hand.  Validation shares the integer form with
the first contraction, and an unvalidated tensor without both
antisymmetries refuses to build its bivector form.  `from_dense` projects
on numerators, checked against the projections written as `Fraction` array
formulas, and float input keeps the bits of the same formulas in floats.
"""

import functools
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab import tensors
from curvlab.constancy import constant_holomorphic
from curvlab.harness import (model_constant_sectional, probe_unboundedness, random_tensor,
                             tensor_from_coefficients)
from curvlab.polarization import VectorFamily, expand
from curvlab.scalars import ExactComplex
from curvlab.spaces import (ComplexVector, DegeneratePlaneError, InvariantViolation,
                            make_space, random_isometry)
from curvlab.tensors import (CurvatureTensor, failing_symmetries, from_components,
                             from_dense, pi1_components, sectional)

SPACES = [make_space(1, 0), make_space(2, 1), make_space(3, 1),
          make_space(4, 0), make_space(4, 2)]
BIG = 2 ** 40

PROPERTY = settings(max_examples=40, deadline=None)


def as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(int(x))


def oracle(C, X, Y, Z, U) -> Fraction:
    """R(X,Y,Z,U) as a sum over every index quadruple, in Fractions."""
    n = C.shape[0]
    X, Y, Z, U = ([as_fraction(x) for x in v] for v in (X, Y, Z, U))
    total = Fraction(0)
    for i, j, k, l in product(range(n), repeat=4):
        if C[i, j, k, l]:
            total += as_fraction(C[i, j, k, l]) * X[i] * Y[j] * Z[k] * U[l]
    return total


def oracle_c(C, X, Y, Z, U) -> tuple:
    """Complex-multilinear R(X,Y,Z,U) over (re, im) Fraction pairs."""
    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    n = C.shape[0]
    vs = [[(as_fraction(r), as_fraction(i)) for r, i in zip(v.re, v.im)]
          for v in (X, Y, Z, U)]
    re = im = Fraction(0)
    for i, j, k, l in product(range(n), repeat=4):
        if not C[i, j, k, l]:
            continue
        term = (as_fraction(C[i, j, k, l]), Fraction(0))
        for v, idx in zip(vs, (i, j, k, l)):
            term = mul(term, v[idx])
        re, im = re + term[0], im + term[1]
    return re, im


denominators = st.one_of(st.integers(1, 12), st.integers(BIG, 4 * BIG))
fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), denominators)
# an entry of a mixed exact vector: int, numpy int or Fraction
entries = st.one_of(st.integers(-50, 50), st.integers(-50, 50).map(np.int64), fractions)


def sparse_coefficients(n):
    """A few nonzero coordinates on the pair-symmetric basis, the rest zero."""
    size = len(tensors._orbit_pairs(n)[0])
    return st.dictionaries(st.integers(0, size - 1), fractions, min_size=1, max_size=6).map(
        lambda d: [d.get(i, Fraction(0)) for i in range(size)])


@st.composite
def exact_tensors(draw):
    """A tensor with mixed denominators: symmetrized (maybe Bianchi-projected)
    entries at m <= 3; at m = 4 the lift of a few pair-symmetric coordinates."""
    space = draw(st.sampled_from(SPACES))
    if space.m == 4:
        return tensor_from_coefficients(space, draw(sparse_coefficients(space.n)))
    idx = st.integers(0, space.n - 1)
    values = draw(st.lists(st.tuples(idx, idx, idx, idx, fractions), min_size=1, max_size=6))
    return from_components(space, values, symmetrize=True,
                           bianchi_projection=draw(st.booleans()))


def vectors(n):
    """Exact vectors of length n in every accepted container, zero vectors included."""
    return st.one_of(
        st.lists(entries, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=object)),
        st.lists(entries, min_size=n, max_size=n),
        st.lists(st.integers(-2 ** 31, 2 ** 31), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64)),
        st.just(np.array([Fraction(0)] * n, dtype=object)),
    )


@PROPERTY
@given(st.data())
def test_exact_eval_matches_loop_oracle(data):
    R = data.draw(exact_tensors())
    vs = [data.draw(vectors(R.space.n)) for _ in range(4)]
    got = R.eval(*vs)
    assert type(got) is Fraction
    assert got == oracle(R.components, *vs)


@PROPERTY
@given(st.data())
def test_exact_tensor_on_float_vectors(data):
    R = data.draw(exact_tensors())
    n = R.space.n
    finite = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    vs = [np.array(data.draw(st.lists(finite, min_size=n, max_size=n))) for _ in range(4)]
    got = R.eval(*vs)
    assert isinstance(got, float)
    exact = oracle(R.components, *(map(Fraction, v) for v in vs))
    # rounding is bounded by the sum of the absolute terms
    scale = oracle(abs(R.components), *([abs(Fraction(x)) for x in v] for v in vs))
    assert abs(Fraction(got) - exact) <= Fraction(1, 10 ** 9) * max(1, scale)


@PROPERTY
@given(st.data())
def test_exact_eval_c_matches_complex_oracle(data):
    R = data.draw(exact_tensors())
    n = R.space.n
    part = st.lists(entries, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=object))
    # one row per real slot, two per complex one
    vs = [ComplexVector(data.draw(part), data.draw(part)) if data.draw(st.booleans())
          else data.draw(part) for _ in range(4)]
    got = R.eval_c(*vs)
    assert isinstance(got, ExactComplex)
    zero = np.zeros(n, dtype=object)
    as_c = [v if isinstance(v, ComplexVector) else ComplexVector(v, zero) for v in vs]
    assert (got.re, got.im) == oracle_c(R.components, *as_c)


@PROPERTY
@given(seed=st.integers(0, 10 ** 6), space=st.sampled_from(SPACES[1:3]),
       q=denominators, sign=st.sampled_from((1, -1)), data=st.data())
def test_nudged_entry_names_broken_invariants(seed, space, q, sign, data):
    R = random_tensor(space, seed, bianchi=True)
    assert failing_symmetries(R.components, bianchi=True) == []
    idx = st.integers(0, space.n - 1)
    i, j, k, l = (data.draw(idx) for _ in range(4))
    C = R.components.copy()
    C[i, j, k, l] += Fraction(sign, q)
    # the lone nudged entry has no partner under either antisymmetry or in
    # the cyclic sum; pair exchange maps it to itself when (i,j) == (k,l)
    expected = ["antisym-12", "antisym-34"]
    if (i, j) != (k, l):
        expected.append("pair-exchange")
    expected.append("bianchi")
    assert failing_symmetries(C, bianchi=True) == expected


def test_integer_form_is_cached_and_exact():
    R = random_tensor(SPACES[1], 7)
    N, D = R.integer_form
    assert R.integer_form[0] is N
    assert all(type(x) is int for x in N.flat)
    assert (N == R.components * D).all()
    assert D == math.lcm(*(x.denominator for x in R.components.flat))
    assert R.to_float().integer_form is None


def test_validation_integerizes_once_for_the_first_contraction(monkeypatch):
    space = SPACES[2]
    C = random_tensor(space, 7).components
    sizes = []

    def counting(values):
        values = list(values)
        if any(type(x) is not int for x in values):     # not ints, already integral
            sizes.append(len(values))
        return integerize(values)

    integerize = tensors.integerize
    monkeypatch.setattr(tensors, "integerize", counting)
    R = CurvatureTensor(space, C.copy())
    N, D = R.integer_form
    e = np.eye(space.n, dtype=object)
    value = R.eval(e[0], e[1], e[1], e[0])
    assert sizes == [space.n ** 4]
    assert value == C[0, 1, 1, 0]
    assert (N == C * D).all()


@PROPERTY
@given(st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_eval_c_on_int64_vectors_is_exact(rows):
    R = random_tensor(make_space(2, 1), 3)
    ints = [np.array(r, dtype=np.int64) for r in rows]
    objs = [np.array(r, dtype=object) for r in rows]
    got = R.eval_c(*ints)
    assert isinstance(got, ExactComplex)
    assert got == R.eval_c(*objs) == ExactComplex(R.eval(*ints), Fraction(0))


@PROPERTY
@given(st.data())
def test_contract_stacks_every_single_eval(data):
    R = data.draw(exact_tensors())
    n = R.space.n
    stacks = [data.draw(st.lists(vectors(n), min_size=1, max_size=3)) for _ in range(4)]
    got = R.contract(*stacks)
    assert got.shape == tuple(len(S) for S in stacks)
    for idx in np.ndindex(got.shape):
        assert got[idx] == R.eval(*(S[i] for S, i in zip(stacks, idx)))


def fraction_vectors(n):
    return st.lists(fractions, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=object))


@st.composite
def families(draw, n):
    """A constant, affine or imaginary family on real or complex exact vectors."""
    def vector():
        if draw(st.booleans()):
            return draw(fraction_vectors(n))
        return ComplexVector(draw(fraction_vectors(n)), draw(fraction_vectors(n)))
    kind = draw(st.sampled_from(("constant", "affine", "imaginary")))
    if kind == "constant":
        return VectorFamily.constant(vector())
    return getattr(VectorFamily, kind)(vector(), vector())


def family_at(f, t, n):
    """f(t) as a real vector when f is real, else as a ComplexVector."""
    if f.direction is None:
        return f.base
    if not (isinstance(f.base, ComplexVector) or isinstance(f.direction, ComplexVector)
            or f.imaginary_direction):
        return f.base + t * f.direction
    zero = np.array([Fraction(0)] * n, dtype=object)
    b, d = (v if isinstance(v, ComplexVector) else ComplexVector(v, zero)
            for v in (f.base, f.direction))
    if f.imaginary_direction:
        d = ComplexVector(-d.im, d.re)
    return ComplexVector(b.re + t * d.re, b.im + t * d.im)


@PROPERTY
@given(st.data())
def test_expand_interpolates_pointwise_evaluations(data):
    R = data.draw(exact_tensors())
    fams = [data.draw(families(R.space.n)) for _ in range(4)]
    p = expand(R, *fams)
    assert p.degree <= 4
    ts = data.draw(st.lists(st.fractions(-5, 5, max_denominator=7),
                            min_size=5, max_size=5, unique=True))
    for t in ts:
        vs = [family_at(f, t, R.space.n) for f in fams]
        if any(isinstance(v, ComplexVector) for v in vs):
            assert p(t) == R.eval_c(*vs)
        else:
            assert p(t) == R.eval(*vs)


def tensordot_eval(C, X, Y, Z, U):
    """The single-vector contraction loop: U first, on the last axis."""
    out = C
    for v in (U, Z, Y, X):
        out = np.tensordot(out, np.asarray(v, dtype=out.dtype), axes=([out.ndim - 1], [0]))
    return out.item()


@PROPERTY
@given(m=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from((1e-3, 1.0, 1e6)))
def test_float_eval_is_bit_identical_to_the_vector_loop(m, seed, scale):
    space = make_space(m, 0)
    rng = np.random.default_rng(seed)
    n = space.n
    R = from_dense(space, scale * rng.standard_normal((n, n, n, n)), symmetrize=True)
    vs = [rng.standard_normal(n) for _ in range(4)]
    assert R.eval(*vs).hex() == tensordot_eval(R.components, *vs).hex()
    # exact vectors on a float tensor are converted to float64 first
    exact = [np.array([Fraction(x).limit_denominator(1000) for x in v], dtype=object) for v in vs]
    assert R.eval(*exact).hex() == tensordot_eval(R.components, *exact).hex()


def pinched(R, make, x, y):
    """expand(R, f, f', f', f) for f = x + t*y (or x + i*t*y) and f' its J-image,
    the shape of the holomorphic and complexified family expansions."""
    J = R.space.apply_J
    f, fJ = make(x, y), make(J(x), J(y))
    p = expand(R, f, fJ, fJ, f)
    assert p.degree == 4
    return p.coeffs


def test_result_types():
    space = SPACES[1]
    R = random_tensor(space, 5)
    rng = np.random.default_rng(0)
    floats = [rng.standard_normal(space.n) for _ in range(2)]
    exact = [np.array([Fraction(1, 3), Fraction(-2), 1, Fraction(1, 7)], dtype=object),
             np.array([0, 1, Fraction(5, 2), -1], dtype=object)]
    real, imag = VectorFamily.affine, VectorFamily.imaginary
    # an exact tensor on float vectors computes in floats
    assert type(R.eval(floats[0], floats[1], floats[1], floats[0])) is float
    assert type(R.eval_c(floats[0], ComplexVector(*floats), floats[1], floats[0])) is complex
    assert all(type(c) is float for c in pinched(R, real, *floats))
    assert all(type(c) is complex for c in pinched(R, imag, *floats))
    # exact input: real families give Fractions, complex ones ExactComplex
    assert all(type(c) is Fraction for c in pinched(R, real, *exact))
    assert all(type(c) is ExactComplex for c in pinched(R, imag, *exact))
    # a float tensor gives floats and complex numbers on any input
    F = R.to_float()
    assert type(F.eval(*exact, *exact)) is float
    assert type(F.eval_c(*exact, *exact)) is complex
    assert all(type(c) is float for c in pinched(F, real, *exact))
    assert all(type(c) is complex for c in pinched(F, imag, *exact))


def gram_oracle(signs, u, v) -> tuple:
    """The Gram entries g(u,u), g(u,v), g(v,v), in Fractions."""
    def g(a, b):
        return sum((s * as_fraction(x) * as_fraction(y) for s, x, y in zip(signs, a, b)),
                   Fraction(0))
    return g(u, u), g(u, v), g(v, v)


def pi1_oracle(signs, u, v) -> Fraction:
    """pi1(u, v, v, u) = g(u,u) g(v,v) - g(u,v)^2, in Fractions."""
    uu, uv, vv = gram_oracle(signs, u, v)
    return uu * vv - uv ** 2


@PROPERTY
@given(st.data())
def test_sectional_matches_the_oracle_ratio(data):
    R = data.draw(exact_tensors())
    u, v = (data.draw(vectors(R.space.n)) for _ in range(2))
    den = pi1_oracle(R.space.metric_signs, u, v)
    if den == 0:
        with pytest.raises(DegeneratePlaneError) as exc:
            sectional(R, u, v)
        # int64 entries up to 2^31 overflow an int64 Gram entry
        assert exc.value.gram_rank == (1 if any(gram_oracle(R.space.metric_signs, u, v)) else 0)
        return
    got = sectional(R, u, v)
    assert type(got) is Fraction
    assert got == oracle(R.components, u, v, v, u) / den
    # a float tensor divides its dense contraction by the same exact
    # rational, however that is summed: the float bits are the parent's
    F = R.to_float()
    assert sectional(F, u, v).hex() == (F.eval(u, v, v, u) / den).hex()


@functools.lru_cache(maxsize=None)
def plane_test_tensor(space):
    """A lifted tensor with every pair-symmetric coordinate nonzero, one per space."""
    return tensor_from_coefficients(space, [Fraction(k % 7 - 3, k % 5 + 1) for k in
                                            range(len(tensors._orbit_pairs(space.n)[0]))])


def isotropic_pair(space, totally: bool):
    """e_0 + e_2s, null, with e_1 + e_2s+1 (null, orthogonal) or with e_1."""
    e = [space.basis_vector(i) for i in range(space.n)]
    t = 2 * space.s
    return e[0] + e[t], (e[1] + e[t + 1] if totally else e[1])


@PROPERTY
@given(space=st.sampled_from([make_space(2, 1), make_space(3, 1), make_space(4, 2),
                              make_space(3, 0)]),
       kind=st.sampled_from(("weak", "total", "dependent")), seed=st.integers(0, 10 ** 6),
       mix=st.tuples(*[st.integers(-3, 3)] * 4).filter(lambda m: m[0] * m[3] != m[1] * m[2]))
def test_degenerate_planes_report_their_gram_rank(space, kind, seed, mix):
    rng = random.Random(seed)
    R = plane_test_tensor(space)
    if kind == "dependent":
        # x and 0 span a line; a basis vector is not null, so the rank is 1
        x = space.basis_vector(rng.randrange(space.n))
        u, v, rank = x, 0 * x, 1
    elif space.s == 0:
        return          # a definite space has no null vectors
    else:
        u, v = isotropic_pair(space, kind == "total")
        rank = 0 if kind == "total" else 1
    T = random_isometry(space, rng)
    u, v = T.dot(u), T.dot(v)
    a, b, c, d = mix
    u, v = a * u + b * v, c * u + d * v
    for tensor in (R, R.to_float()):
        with pytest.raises(DegeneratePlaneError) as exc:
            sectional(tensor, u, v)
        assert exc.value.gram_rank == rank


def test_int64_vectors_report_the_exact_gram_rank():
    # g(u, u) = 2^64 wraps to 0 in int64; the plane span{u} still has rank 1
    R = tensor_from_coefficients(make_space(1, 0), [Fraction(1)])
    for u in (np.array([2 ** 32, 0], dtype=np.int64), [2 ** 32, 0]):
        with pytest.raises(DegeneratePlaneError) as exc:
            sectional(R, u, u)
        assert exc.value.gram_rank == 1


@pytest.mark.parametrize("broken", ["antisym-12", "antisym-34"])
@pytest.mark.parametrize("exact", [True, False])
def test_unvalidated_tensor_without_an_antisymmetry_has_no_bivector_form(broken, exact):
    # the bivector form reads only i < j and k < l: a tensor without both
    # antisymmetries must not contract as its antisymmetric part
    space = SPACES[2]
    C = random_tensor(space, 3).components.copy()
    i, j, k, l = 0, 1, 2, 3
    bump = Fraction(1, 7)
    C[i, j, k, l] += bump
    if broken == "antisym-12":
        C[i, j, l, k] -= bump       # keeps antisym-34
    else:
        C[j, i, k, l] -= bump       # keeps antisym-12
    if not exact:
        C = C.astype(float)
    R = CurvatureTensor(space, C, validate=False)
    with pytest.raises(InvariantViolation) as exc:
        # the exact contraction, or the float holomorphic screen
        if exact:
            R.eval(*np.eye(space.n, dtype=object)[[i, j, k, l]])
        else:
            constant_holomorphic(R)
    assert exc.value.invariant == broken


def test_pair_exchange_is_not_needed_by_the_kernel():
    space = SPACES[2]
    C = random_tensor(space, 4).components.copy()
    for (a, b, c, d), sign in (((0, 1, 2, 3), 1), ((1, 0, 2, 3), -1),
                               ((0, 1, 3, 2), -1), ((1, 0, 3, 2), 1)):
        C[a, b, c, d] += sign * Fraction(2, 5)
    assert failing_symmetries(C) == ["pair-exchange"]
    R = CurvatureTensor(space, C, validate=False)
    rng = np.random.default_rng(5)
    for _ in range(5):
        vs = [np.array([Fraction(int(x), 3) for x in rng.integers(-9, 9, space.n)],
                       dtype=object) for _ in range(4)]
        assert R.eval(*vs) == oracle(C, *vs)


@settings(max_examples=15, deadline=None)
@given(space=st.sampled_from(SPACES[1:]), data=st.data())
def test_lifted_and_projected_tensors_match_the_loop_oracle(space, data):
    n = space.n
    idx = st.integers(0, n - 1)
    raw = data.draw(st.lists(st.tuples(idx, idx, idx, idx, fractions), min_size=1, max_size=4))
    C = tensors.dense_components(n, raw)
    for R in (tensor_from_coefficients(space, data.draw(sparse_coefficients(n))),
              from_dense(space, C, symmetrize=True)):
        vs = [data.draw(vectors(n)) for _ in range(4)]
        assert R.eval(*vs) == oracle(R.components, *vs)


def projection_oracle(C, symmetrize, bianchi):
    """The projections as whole-array formulas, dividing as they go: exact on
    a `Fraction` array, and the reference bits on a float one."""
    if symmetrize:
        C = C - C.transpose(1, 0, 2, 3)
        C = C - C.transpose(0, 1, 3, 2)
        C = (C + C.transpose(2, 3, 0, 1)) / 8
    if bianchi:
        C = (2 * C - C.transpose(1, 2, 0, 3) - C.transpose(2, 0, 1, 3)) / 3
    return C


@PROPERTY
@given(space=st.sampled_from(SPACES[:2]), symmetrize=st.booleans(), bianchi=st.booleans(),
       kind=st.sampled_from(("fractions", "ints", "int64", "floats")), data=st.data())
def test_from_dense_projects_as_the_fraction_formulas(space, symmetrize, bianchi, kind, data):
    n = space.n
    numerators = data.draw(st.lists(st.integers(-BIG, BIG), min_size=n ** 4, max_size=n ** 4))
    if kind in ("fractions", "floats"):
        dens = data.draw(st.lists(st.sampled_from((1, 2, 3, 7, 12, BIG + 1)),
                                  min_size=n ** 4, max_size=n ** 4))
        values = list(map(Fraction, numerators, dens))
    else:
        values = numerators
    exact = np.array([Fraction(v) for v in values], dtype=object).reshape((n,) * 4)
    C = {"fractions": exact, "ints": np.array(values, dtype=object).reshape((n,) * 4),
         "int64": exact.astype(np.int64), "floats": exact.astype(float)}[kind]
    # raw input is validated unless symmetrized, and random input is not symmetric
    R = from_dense(space, C, symmetrize=symmetrize, bianchi_projection=bianchi,
                   validate=False)
    if kind == "floats":
        expected = projection_oracle(C, symmetrize, bianchi)
        assert R.components.dtype == float
        assert [x.hex() for x in R.components.flat] == [x.hex() for x in expected.flat]
        return
    expected = projection_oracle(exact, symmetrize, bianchi)
    assert all(type(x) is Fraction for x in R.components.flat)
    assert (R.components == expected).all()
    assert R.integer_form[1] == math.lcm(*(x.denominator for x in expected.flat))
    assert (R.integer_form[0] * Fraction(1, R.integer_form[1]) == expected).all()


def test_symmetrized_python_ints_stay_exact():
    # object arrays of Python ints used to be divided by 8 into floats,
    # which left no integer form to probe on
    space = SPACES[2]
    C = np.array(range(space.n ** 4), dtype=object).reshape((space.n,) * 4) % 7
    R = from_dense(space, C, symmetrize=True, bianchi_projection=True)
    assert probe_unboundedness(R, budget=(1, 1)).evaluations > 0
    assert R.is_exact and all(type(x) is Fraction for x in R.components.flat)
    assert (R.components == projection_oracle(C * Fraction(1), True, True)).all()


@pytest.mark.parametrize("build", [lambda sp, C: from_dense(sp, C),
                                   lambda sp, C: CurvatureTensor(sp, C, bianchi=True)])
def test_integer_dtype_components_are_exact(build):
    # int64 components once cast Fraction vectors to int64: 1/2 read as 0
    space = SPACES[1]
    R = build(space, (3 * pi1_components(space)).astype(np.int64))
    u = np.array([Fraction(1, 2), 0, 0, 0], dtype=object)
    v = space.basis_vector(1)
    assert R.eval(u, v, v, u) == Fraction(3, 4)
    assert sectional(R, u, v) == 3
    assert R.is_exact and R.integer_form is not None


@PROPERTY
@given(st.data())
def test_float_copy_has_the_bits_of_every_fraction(data):
    # from the integer form when it fits in 53 bits, else entry by entry
    R = data.draw(exact_tensors())
    assert ([x.hex() for x in R.to_float().components.flat]
            == [float(x).hex() for x in R.components.flat])


@pytest.mark.parametrize("c", [Fraction(3, 7), Fraction(1, 2 ** 60 + 1), Fraction(2 ** 60 + 1, 3),
                               Fraction(-(2 ** 53) + 1, 2 ** 53 - 1)])
def test_float_copy_bits_around_the_53_bit_bound(c):
    R = model_constant_sectional(SPACES[2], c)
    R = CurvatureTensor(R.space, R.components + random_tensor(R.space, 9).components)
    F = R.to_float()
    assert [x.hex() for x in F.components.flat] == [float(x).hex() for x in R.components.flat]


def test_float_copy_of_a_validated_tensor_is_not_checked_again(monkeypatch):
    space = SPACES[2]
    R = CurvatureTensor(space, random_tensor(space, 5).components)
    calls = []
    check = tensors.failing_symmetries
    monkeypatch.setattr(tensors, "failing_symmetries",
                        lambda *a, **k: calls.append(a) or check(*a, **k))
    S = R.to_float().bivector_form
    assert calls == []
    i, j = np.triu_indices(space.n, 1)
    assert S.dtype == float and (S == R.to_float().components[i[:, None], j[:, None], i, j]).all()
    # the copy of an unvalidated tensor keeps the guard
    C = R.components.copy()
    C[0, 1, 2, 3] += 1
    with pytest.raises(InvariantViolation):
        CurvatureTensor(space, C, validate=False).to_float().bivector_form
    assert len(calls) == 1
