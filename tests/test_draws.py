"""Integer draws from one rule, and the holomorphic comparison in int64.

`scalars.below` must give exactly what `random.Random`'s `randrange`,
`choice`, `randint` and a small `sample` give, and leave the generator in the
same state, since the pinned frames and goldens hold those draws.
`bulk_below` and the holomorphic candidates it feeds must continue the same
sequence; the per-`randint` generator they replaced is kept here as the
oracle.  The int64 quartic comparison must give the verdict of the
object-dtype comparison it shortcuts, also kept here.
"""

import random
from fractions import Fraction
from itertools import chain, islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab import constancy
from curvlab.constancy import constant_holomorphic
from curvlab.harness import model_complex_space_form, model_constant_sectional, random_tensor
from curvlab.scalars import below, bulk_below, rand_numerator, two_below
from curvlab.spaces import MAX_M, canonical_complex_structure, light_isometry, make_space
from curvlab.tensors import CurvatureTensor

seeds = st.integers(0, 2 ** 64)


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(1, 12))
def test_below_is_randrange_choice_and_randint(seed, k):
    for draw in (lambda rng: rng.randrange(k),
                 lambda rng: rng.choice(range(k)),
                 lambda rng: rng.randint(-3, k - 4) + 3):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [below(ours, k) for _ in range(20)] == [draw(theirs) for _ in range(20)]
        assert ours.getstate() == theirs.getstate()


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(2, 21))
def test_two_below_is_sample(seed, k):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert [two_below(ours, k) for _ in range(20)] == \
        [tuple(theirs.sample(range(k), 2)) for _ in range(20)]
    assert ours.getstate() == theirs.getstate()


def test_two_below_covers_every_space():
    # the isometries draw two of at most n = 2 m coordinates
    assert 2 * MAX_M <= 21


@settings(max_examples=50, deadline=None)
@given(seeds, st.sampled_from([1, 2, 7, 64, 129, 2 ** 31 + 1, 2 ** 32 - 1]),
       st.integers(0, 40), st.integers(0, 40))
def test_bulk_below_continues_below(seed, k, words1, words2):
    bulk, one = random.Random(seed), random.Random(seed)
    values = np.concatenate([bulk_below(bulk, k, words1), bulk_below(bulk, k, words2)])
    assert values.dtype == np.int64
    assert values.tolist() == [below(one, k) for _ in range(len(values))]
    # exactly the asked words are drawn
    ref = random.Random(seed)
    ref.getrandbits(32 * (words1 + words2))
    assert bulk.getstate() == ref.getstate()


@settings(max_examples=50, deadline=None)
@given(seeds, st.integers(1, 64), st.integers(1, 3))
def test_rand_numerator_is_randint(seed, denominator, span):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert [rand_numerator(ours, denominator, span) for _ in range(20)] == \
        [theirs.randint(-span * denominator, span * denominator) for _ in range(20)]
    assert ours.getstate() == theirs.getstate()


def randint_candidates(n, rng):
    """The oracle: the holomorphic candidates with one rng.randint(-3, 3)
    per random coordinate."""
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


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12])
@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40 + 3])
def test_bulk_candidates_are_the_randint_candidates(n, seed):
    bulk = islice(chain.from_iterable(constancy._candidate_coords(n, random.Random(seed))), 1000)
    assert [row.tolist() for row in bulk] == \
        list(islice(randint_candidates(n, random.Random(seed)), 1000))


def test_probe_vectors_drop_isotropic_candidates_and_stop_at_the_limit():
    space = make_space(3, 1)
    expected = [v for v in islice(randint_candidates(space.n, random.Random(5)), 700)
                if sum(s * x * x for s, x in zip(space.metric_signs, v))]
    rows = chain.from_iterable(constancy._probe_vectors(space, random.Random(5), 700))
    assert [row.tolist() for row in rows] == expected


# -- the quartic comparison ---------------------------------------------------

def object_quartic_is_constant(R, c):
    """The oracle: the comparison on object arrays, as before the int64 path."""
    N, D = R.integer_form
    p, q = c.as_integer_ratio()
    SA = constancy._symmetrize_quartic(constancy._holomorphic_quartic(N, R.space.J))
    SG = constancy._norm_square_quartic(R.space.metric_signs).astype(object)
    return bool((SA * q == SG * (p * D)).all())


@pytest.fixture
def quartic_dtypes(monkeypatch):
    """The dtypes `_symmetrize_quartic` is called with, in order; the last
    is the tensor's (the first call on a signature also builds g(X,X)^2)."""
    seen = []
    symmetrize = constancy._symmetrize_quartic
    monkeypatch.setattr(constancy, "_symmetrize_quartic",
                        lambda A: seen.append(A.dtype) or symmetrize(A))
    return seen


def reference_value(R):
    return constancy.holomorphic_sectional(R, R.space.basis_vector(0))


def tensors_on(space, seed):
    yield model_constant_sectional(space, Fraction(-7, 3)), True
    yield model_complex_space_form(space, Fraction(5, 2)), True
    R = random_tensor(space, seed)
    yield R, False
    yield CurvatureTensor(space, model_constant_sectional(space, 2).components
                          + Fraction(1, 7) * R.components), False


@pytest.mark.parametrize("m,s", [(2, 0), (2, 1), (3, 0), (3, 2), (4, 2)])
@pytest.mark.parametrize("negated", [False, True])
def test_int64_quartic_gives_the_object_verdict(m, s, negated, quartic_dtypes):
    J = -canonical_complex_structure(m) if negated else None
    space = make_space(m, s, J=J)
    for R, constant in tensors_on(space, 10 * m + s):
        c = reference_value(R)
        quartic_dtypes.clear()
        assert constancy._quartic_is_constant(R, c) is constant
        assert quartic_dtypes[-1] == np.int64
        assert object_quartic_is_constant(R, c) is constant


@pytest.mark.parametrize("scale", [2 ** 58, 3 ** 80])
def test_large_entries_take_the_object_path(scale, quartic_dtypes):
    space = make_space(2, 1)
    model = model_constant_sectional(space, 3)
    big = CurvatureTensor(space, model.components * scale)
    noisy = CurvatureTensor(space, big.components + random_tensor(space, 4).components)
    for R, constant in ((big, True), (noisy, False)):
        c = reference_value(R)
        quartic_dtypes.clear()
        assert constancy._quartic_is_constant(R, c) is constant
        assert quartic_dtypes[-1] == object
        assert object_quartic_is_constant(R, c) is constant
    assert constant_holomorphic(big).value == 3 * scale


def test_rational_J_takes_the_object_path(quartic_dtypes):
    # J conjugated by a rational isometry T: T J T^-1, with T^-1 = G T^T G
    space = make_space(2, 1)
    T = light_isometry(space.metric_signs, random.Random(3))
    G = np.diag(np.array(space.metric_signs, dtype=object))
    J = T.dot(space.J).dot(G.dot(T.T).dot(G))
    assert any(Fraction(x).denominator > 1 for x in J.flat)
    rotated = make_space(2, 1, J=J)
    for R, constant in tensors_on(rotated, 9):
        quartic_dtypes.clear()
        assert constancy._quartic_is_constant(R, reference_value(R)) is constant
        assert quartic_dtypes[-1] == object
