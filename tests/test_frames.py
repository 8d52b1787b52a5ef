"""Exact frames: isometries computed column by column, and the tuples drawn from them.

`light_isometry(columns=...)` rotates only the requested columns; it must
give exactly those columns of the full isometry and leave the generator in
the same state.  Its integer form, `isometry_columns`, must equal a
reference `Fraction` product of the same draws (`fraction_isometry` below).
The pinned digests hold `tuple_from_rng` to the draws, values and types of
the full-matrix `Fraction` implementation it replaced (digests taken from
that implementation).
"""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab import spaces
from curvlab.spaces import (GeometryError, frame_vectors, integer_frame,
                            isometry_columns, light_isometry, make_space,
                            seed_columns, tuple_from_rng)

SIGNATURES = [(m, s) for m in range(1, 7) for s in range(m + 1)]


@st.composite
def isometry_draws(draw):
    m, s = draw(st.sampled_from(SIGNATURES))
    n = 2 * m
    columns = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return make_space(m, s), draw(st.booleans()), columns, draw(st.integers(0, 2 ** 32))


@settings(max_examples=80, deadline=None)
@given(isometry_draws())
def test_columns_are_those_of_the_full_isometry(case):
    space, unitary, columns, seed = case
    rng_full, rng_cols = random.Random(seed), random.Random(seed)
    full = light_isometry(space.metric_signs, rng_full, unitary=unitary)
    cols = light_isometry(space.metric_signs, rng_cols, unitary=unitary, columns=columns)
    assert cols.shape == (space.n, len(columns))
    assert all(type(x) is Fraction for x in cols.flat)
    assert (cols == full[:, columns]).all()
    assert rng_full.getstate() == rng_cols.getstate()


@settings(max_examples=40, deadline=None)
@given(isometry_draws())
def test_isometry_columns_are_orthonormal(case):
    space, unitary, columns, seed = case
    T = light_isometry(space.metric_signs, random.Random(seed), unitary=unitary)
    G = np.diag(np.array(space.metric_signs, dtype=object))
    assert (T.T.dot(G.dot(T)) == G).all()
    if unitary:
        assert (T.dot(space.J) == space.J.dot(T)).all()
    sub = light_isometry(space.metric_signs, random.Random(seed), unitary=unitary,
                         columns=columns)
    assert (sub.T.dot(G.dot(sub)) == G[np.ix_(columns, columns)]).all()


def rotation_coeffs(rng, same_sign):
    """The oracle's table rotation, drawn with `random.Random.choice`."""
    if same_sign:
        c, s, d = rng.choice(spaces._CIRCLE_TRIPLES)
        if rng.getrandbits(1):
            c, s = s, c
    else:
        c, s, d = rng.choice(spaces._BOOST_TRIPLES)
    if rng.getrandbits(1):
        s = -s
    return c, s, d


def fraction_isometry(signs, rng, unitary=False):
    """The oracle: the product of the drawn rotations as Fraction matrices,
    each step one full matrix product, with the draws of `light_isometry`
    made by `random.Random`'s own randrange, sample and choice."""
    n = len(signs)
    T = np.array([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], dtype=object)

    def rotate(pairs, c, s, d, same_sign):
        nonlocal T
        G = np.array([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], dtype=object)
        for i, j in pairs:
            G[i, i], G[i, j] = Fraction(c, d), Fraction(-s if same_sign else s, d)
            G[j, i], G[j, j] = Fraction(s, d), Fraction(c, d)
        T = G.dot(T)

    boosts = 0
    m = n // 2
    for _ in range(2 * n + 4):
        if unitary:
            if m == 1 or rng.random() < 0.4:
                b = rng.randrange(m)
                rotate([(2 * b, 2 * b + 1)], *rotation_coeffs(rng, True), True)
                continue
            b1, b2 = rng.sample(range(m), 2)
            i, j, pairs = 2 * b1, 2 * b2, [(2 * b1, 2 * b2), (2 * b1 + 1, 2 * b2 + 1)]
        else:
            i, j = rng.sample(range(n), 2)
            pairs = [(i, j)]
        same = signs[i] == signs[j]
        if not same:
            if boosts >= spaces._MAX_BOOSTS:
                continue
            boosts += 1
        rotate(pairs, *rotation_coeffs(rng, same), same)
    return T


@st.composite
def small_isometry_draws(draw):
    m, s = draw(st.sampled_from([(m, s) for m in range(1, 5) for s in range(m + 1)]))
    n = 2 * m
    columns = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return make_space(m, s), draw(st.booleans()), columns, draw(st.integers(0, 2 ** 32))


@settings(max_examples=80, deadline=None)
@given(small_isometry_draws())
def test_integer_form_is_the_fraction_product(case):
    space, unitary, columns, seed = case
    rng_ref, rng_int = random.Random(seed), random.Random(seed)
    T = fraction_isometry(space.metric_signs, rng_ref, unitary=unitary)
    N, D = isometry_columns(space.metric_signs, rng_int, unitary=unitary, columns=columns)
    assert N.shape == (len(columns), space.n)
    assert type(D) is int and D > 0
    assert all(type(x) is int for x in N.flat)
    assert all((N[t] == T[:, col] * D).all() for t, col in enumerate(columns))
    assert rng_ref.getstate() == rng_int.getstate()


@settings(max_examples=40, deadline=None)
@given(small_isometry_draws())
def test_integer_frames_are_the_drawn_tuples(case):
    space, _, _, seed = case
    pattern = (1,) * (space.m - space.s) + (-1,) * space.s
    for antiholomorphic in (True, False):
        rng_int, rng_vec = random.Random(seed), random.Random(seed)
        N, D = integer_frame(space, rng_int, pattern, antiholomorphic)
        vecs = tuple_from_rng(space, rng_vec, pattern, antiholomorphic)
        assert all((a == b).all() for a, b in zip(frame_vectors(N, D), vecs))
        assert all(type(x) is Fraction for v in frame_vectors(N, D) for x in v)
        assert rng_int.getstate() == rng_vec.getstate()
        assert len(vecs) == len(seed_columns(space, pattern, antiholomorphic))


def test_unitary_needs_block_pairs():
    with pytest.raises(GeometryError):
        light_isometry((-1, 1, 1, 1), random.Random(0), unitary=True, columns=[0])


# ((m, s), seed, pattern, antiholomorphic, sha256 prefix of the drawn tuple)
PINNED_TUPLES = [
    ((1, 0), 3, (1,), False, "01eaa75612730bfb"),
    ((1, 1), 4, (-1,), True, "daf67a19e034f243"),
    ((2, 0), 0, (1, 1), True, "80de9843cce5b22a"),
    ((2, 1), 0, (1, -1), True, "c97d648d4156aa01"),
    ((2, 1), 5, (1, -1), True, "abfaf8b7f6d470ed"),
    ((2, 1), 7, (1, -1), False, "88784485a3644463"),
    ((2, 2), 1, (-1, -1), True, "dbb8a79c309c6189"),
    ((3, 0), 2, (1, 1, 1), True, "3d61e9e058b74ab0"),
    ((3, 1), 8, (1, 1, -1), True, "8e78aab011c65c2d"),
    ((3, 1), 9, (1, -1, -1), False, "d668abb34068a943"),
    ((3, 2), 10, (1, -1, -1), True, "0afcc505cd32cd2a"),
    ((3, 1), 11, (1, 1), True, "9dbc848c182d36f7"),
    ((4, 2), 12, (1, 1, -1), True, "056b7c1f63ba8a9e"),
    ((4, 1), 13, (1, 1, 1, -1), False, "097159441ac53f74"),
    ((5, 2), 14, (1, -1), True, "759113421c5de16c"),
    ((6, 3), 15, (1, 1, -1), True, "518216c3a2d4f962"),
    ((6, 0), 16, (1, 1, 1), True, "e5dbcc636958a651"),
    ((5, 5), 17, (-1, -1, -1), True, "5177440d73ecde80"),
    ((3, 3), 18, (-1, -1), False, "87809f20c3192438"),
    ((4, 0), 19, (1, 1, 1, 1, 1, 1, 1, 1), False, "9844b7c16aff5492"),
    ((2, 1), 20, (1, 1, -1, -1), False, "7bd7f0882d47669b"),
]


@pytest.mark.parametrize("signature,seed,pattern,antiholomorphic,digest", PINNED_TUPLES)
def test_tuple_from_rng_is_pinned(signature, seed, pattern, antiholomorphic, digest):
    rng = random.Random(seed)
    vecs = tuple_from_rng(make_space(*signature), rng, pattern, antiholomorphic=antiholomorphic)
    # entry types and the generator state after the call are part of the digest
    text = ";".join(" ".join(f"{type(x).__name__}:{x}" for x in v) for v in vecs)
    text += f"|{rng.getrandbits(64)}"
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
