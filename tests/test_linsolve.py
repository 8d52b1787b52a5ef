"""The certified modular nullspace of `RowReducer` and `random_element`."""

import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab import linsolve
from curvlab.harness import impose
from curvlab.linsolve import RowReducer, field_rank, rational_lift
from curvlab.scalars import integerize, rand_rational


def reducer_for(rows, ncols):
    red = RowReducer(ncols)
    for row in rows:
        red.add_row(row)
    return red


P0, P1, P2 = linsolve._PRIMES
MODULUS = P0 * P1 * P2
BOUND = isqrt((MODULUS - 1) // 2)          # the lift bound, about 2^37


class TestCertificate:
    def test_row_zero_mod_p_but_not_over_q_raises(self):
        # (1, 2 + p0) = (1, 2) mod p0, so the echelon form sees rank 1 and
        # offers (-2, 1), which (1, 2 + p0) does not annihilate over Q
        red = RowReducer(2)
        assert red.add_row([1, 2])
        assert not red.add_row([1, 2 + P0])
        with pytest.raises(ArithmeticError, match="certificate"):
            red.nullspace()

    @pytest.mark.parametrize("prime", [P1, P2])
    def test_pivot_vanishing_mod_one_other_prime_raises(self, prime):
        # the second row reduces to (0, prime, 1): its pivot entry is nonzero
        # mod p0 but zero mod `prime`, so the primes disagree on the echelon
        # form and the combined entries cannot pass the exact certificate
        red = RowReducer(3)
        assert red.add_row([1, 2, 0])
        assert red.add_row([1, 2 + prime, 1])
        with pytest.raises(ArithmeticError):
            red.nullspace()

    def test_true_pivot_shift_is_still_exact(self):
        # (1, 2 + p0, 1) reduces to (0, 0, 1) mod p0 but (0, p0, 1) over Q;
        # the echelon form picks pivot column 2, and the basis it offers is
        # still the exact nullspace, so the certificate accepts it
        red = reducer_for([[1, 2, 0], [1, 2 + P0, 1]], 3)
        assert red.nullspace() == [[-2, 1, -P0]]

    def test_lift_past_reconstruction_bound_raises(self):
        # the nullspace of (3, -2^40) is (2^40/3, 1); the numerator is past
        # the reconstruction bound sqrt(M/2) ~ 2^37
        red = reducer_for([[3, -2 ** 40]], 2)
        with pytest.raises(ArithmeticError, match="no rational lift"):
            red.nullspace()

    def test_wrong_lift_inside_the_bound_fails_certificate(self):
        # (M + 1)/2 = 1/2 mod M, so the true entry (M + 1)/2 ~ 2^74 lifts to
        # the small fraction 1/2, which the exact row product rejects; the
        # row entry is far past int64 and is reduced before the cast
        red = reducer_for([[1, -(MODULUS + 1) // 2]], 2)
        with pytest.raises(ArithmeticError, match="certificate"):
            red.nullspace()

    def test_lift_inside_the_bound(self):
        for value in (Fraction(0), Fraction(-3, 7), Fraction(BOUND, BOUND - 1),
                      Fraction(-BOUND, BOUND - 2)):
            residue = value.numerator * pow(value.denominator, -1, MODULUS) % MODULUS
            assert rational_lift(residue, MODULUS) == value
        with pytest.raises(ArithmeticError):
            rational_lift(2 ** 40 * pow(3, -1, MODULUS), MODULUS)

    def test_fractional_rows_and_basis(self):
        red = reducer_for([[Fraction(1, 2), Fraction(1, 3), 0],
                           [1, Fraction(2, 3), 0]], 3)
        assert red.rank == 1
        # integer rows d * x, with d at the vector's free column
        basis = red.nullspace()
        assert red.free_columns == [1, 2]
        assert basis == [[-2, 3, 0], [0, 0, 1]]
        assert ([[Fraction(v, row[c]) for v in row] for row, c in zip(basis, red.free_columns)]
                == [[Fraction(-2, 3), 1, 0], [0, 0, 1]])

    def test_integer_row_clears_every_denominator(self):
        # the basis vector (-1/2, -1/3, 1) comes back as 6 times itself
        red = reducer_for([[2, 0, 1], [0, 3, 1]], 3)
        assert red.nullspace() == [[-3, -2, 6]]


small_int = st.integers(min_value=-4, max_value=4)


@st.composite
def row_systems(draw):
    ncols = draw(st.integers(min_value=1, max_value=6))
    base = draw(st.lists(st.lists(small_int, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    rows = list(base)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        ca, cb = draw(small_int), draw(small_int)
        rows.append([ca * x + cb * y for x, y in zip(a, b)])
    rows += draw(st.lists(st.sampled_from(base), max_size=2))
    return ncols, draw(st.permutations(rows))


@st.composite
def dependent_blocks(draw):
    """Blocks of integer rows, some of them combinations of rows before them
    in the same block (or in earlier blocks), on a few columns."""
    ncols = draw(st.integers(min_value=1, max_value=7))
    row = st.lists(small_int, min_size=ncols, max_size=ncols)
    blocks, seen = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        block = draw(st.lists(row, min_size=1, max_size=6))
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            a, b = draw(st.sampled_from(seen + block)), draw(st.sampled_from(seen + block))
            ca, cb = draw(small_int), draw(small_int)
            block.insert(draw(st.integers(0, len(block))),
                         [ca * x + cb * y for x, y in zip(a, b)])
        blocks.append(block)
        seen += block
    return ncols, blocks


def assert_same_reducer(red, one_by_one):
    assert red._pivots == one_by_one._pivots
    assert red.free_columns == one_by_one.free_columns
    assert np.array_equal(red._ech, one_by_one._ech)      # all three primes
    assert red.nullspace() == one_by_one.nullspace()


@settings(max_examples=80, deadline=None)
@given(dependent_blocks())
def test_block_offer_matches_row_by_row(system):
    # add_rows eliminates a block among itself and updates the echelon form
    # once; add_row offers blocks of one row
    ncols, blocks = system
    rows = [r for block in blocks for r in block]
    one_by_one = RowReducer(ncols)
    absorbed = [i for i, row in enumerate(rows) if one_by_one.add_row(row)]
    red, got, start = RowReducer(ncols), [], 0
    for block in blocks:
        got += [start + i for i in red.add_rows(np.array(block, dtype=np.int64))]
        start += len(block)
    assert got == absorbed
    assert_same_reducer(red, one_by_one)


def test_block_past_the_int64_limit_is_split():
    # 9000 rows on three columns: multiples of (1, 2, 0) but for two rows
    # after the 8192 that one product may hold
    rows = np.array([[k % 7 + 1, 2 * (k % 7 + 1), 0] for k in range(9000)], dtype=np.int64)
    rows[8500], rows[8999] = [0, 1, 5], [3, 6, 1]
    red = RowReducer(3)
    assert red.add_rows(rows) == [0, 8500, 8999]
    one_by_one = RowReducer(3)
    assert [i for i, row in enumerate(rows) if one_by_one.add_row(row)] == [0, 8500, 8999]
    assert_same_reducer(red, one_by_one)
    assert red.nullspace() == []


def test_annihilation_check_is_exact():
    q = (2 ** 25 - 1) * (2 ** 25 - 3) * (2 ** 25 - 5)     # the first three moduli
    for rows, cols, zero in [
            ([[1, 2 ** 80]], [[2 ** 80], [-1]], True),        # needs seven moduli
            ([[1, 2 ** 80]], [[2 ** 80 + 1], [-1]], False),
            ([[q]], [[1]], False),                             # zero modulo three of them
            ([[3, 4], [1, 0]], [[0], [0]], True)]:
        assert linsolve._annihilates([np.array(rows, dtype=object)],
                                     np.array(cols, dtype=object)) is zero


@settings(max_examples=60, deadline=None)
@given(row_systems())
def test_rank_and_nullspace_against_plain_elimination(system):
    ncols, rows = system
    red = reducer_for(rows, ncols)
    rank = field_rank([[Fraction(v) for v in r] for r in rows], ncols)
    assert red.rank == rank
    basis = red.nullspace()
    assert len(basis) == ncols - rank
    for x in basis:
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, x)) == 0


@pytest.mark.parametrize("cond,space", [("eq1", "sp21"), ("thmA", "sp31")])
def test_random_element_is_the_weighted_basis_sum(cond, space, request):
    system = impose(request.getfixturevalue(space), cond, seed=0)
    rng = random.Random(7)
    expected = sum(B.components * rand_rational(rng) for B in system.solution_basis)
    R = system.random_element(7)
    got = R.components
    assert got.shape == expected.shape
    assert all(a == b for a, b in zip(got.ravel(), expected.ravel()))
    assert all(isinstance(a, Fraction) for a in got.ravel())
    # the cached integer form is the one integerizing the components gives
    N, D = R.integer_form
    assert (list(N.flat), D) == integerize(got.flat)
    assert all(type(x) is int for x in N.flat)
