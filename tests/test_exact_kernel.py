"""Property tests of the exact contraction kernel against nested-loop oracles.

Exact tensors contract on Python-int numerators over one common
denominator; these tests check every path of `CurvatureTensor.eval` and
`eval_c` against plain `Fraction` arithmetic written out index by index, and
`failing_symmetries` against invariants broken by hand.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
from hypothesis import given, settings, strategies as st

from curvlab.harness import random_tensor
from curvlab.scalars import ExactComplex
from curvlab.spaces import ComplexVector, make_space
from curvlab.tensors import failing_symmetries, from_components

SPACES = [make_space(1, 0), make_space(2, 1), make_space(3, 1)]
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


@st.composite
def exact_tensors(draw):
    """A symmetrized (maybe Bianchi-projected) tensor with mixed denominators."""
    space = draw(st.sampled_from(SPACES))
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
    vs = [ComplexVector(data.draw(part), data.draw(part)) for _ in range(4)]
    got = R.eval_c(*vs)
    assert isinstance(got, ExactComplex)
    assert (got.re, got.im) == oracle_c(R.components, *vs)


@PROPERTY
@given(seed=st.integers(0, 10 ** 6), space=st.sampled_from(SPACES[1:]),
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
