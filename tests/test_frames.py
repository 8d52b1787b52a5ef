"""Exact frames: isometries computed column by column, and the tuples drawn from them.

`light_isometry(columns=...)` rotates only the requested columns; it must
give exactly those columns of the full isometry and leave the generator in
the same state.  The pinned digests hold `tuple_from_rng` to the draws,
values and types of the full-matrix `Fraction` implementation it replaced
(digests taken from that implementation).
"""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab.spaces import GeometryError, light_isometry, make_space, tuple_from_rng

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
