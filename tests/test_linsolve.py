"""The certified modular nullspace of `RowReducer` and `random_element`."""

import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from curvlab import linsolve
from curvlab.harness import impose
from curvlab.linsolve import RowReducer, field_rank, integer_row, rational_lift
from curvlab.scalars import integerize, rand_rational


def reducer_for(rows, ncols):
    red = RowReducer(ncols)
    for row in rows:
        red.add_row(row)
    return red


P0 = linsolve._PRIME
BOUND = isqrt((P0 - 1) // 2)               # the lift bound, 4095


class TestCertificate:
    def test_row_zero_mod_p_but_not_over_q_raises(self):
        # (1, 2 + p0) = (1, 2) mod p0, so the echelon form sees rank 1 and
        # offers (-2, 1), which (1, 2 + p0) does not annihilate over Q
        red = RowReducer(2)
        assert red.add_row([1, 2])
        assert not red.add_row([1, 2 + P0])
        with pytest.raises(ArithmeticError, match="certificate"):
            red.nullspace()

    @pytest.mark.parametrize("entry", [P0 - 10, P0 - 22])
    def test_pivot_entry_near_the_prime_fails_the_certificate(self, entry):
        # the second row reduces to (0, entry, 1); the basis vector
        # (2, -1, entry) / entry has entries +-1/entry and 2/entry, past the
        # lift bound, but entry reads -10 (-22) mod p0, so they lift to
        # small wrong fractions, which the certificate rejects
        red = RowReducer(3)
        assert red.add_row([1, 2, 0])
        assert red.add_row([1, 2 + entry, 1])
        with pytest.raises(ArithmeticError, match="certificate"):
            red.nullspace()

    def test_true_pivot_shift_fails_the_certificate(self):
        # (1, 2 + p0, 1) reduces to (0, 0, 1) mod p0 but (0, p0, 1) over Q;
        # the echelon form picks pivot column 2, and the true basis entry
        # -p0 of the vector (-2, 1, -p0) reads 0 mod p0, so the lift is
        # (-2, 1, 0), which the exact certificate rejects
        red = reducer_for([[1, 2, 0], [1, 2 + P0, 1]], 3)
        with pytest.raises(ArithmeticError, match="certificate"):
            red.nullspace()

    def test_lift_past_reconstruction_bound_raises(self):
        # the nullspace of (3, -2^12) is (2^12/3, 1); the numerator 4096 is
        # just past the reconstruction bound isqrt((p0 - 1)/2) = 4095, and
        # the residue has no other lift within it
        red = reducer_for([[3, -2 ** 12]], 2)
        with pytest.raises(ArithmeticError, match="no rational lift"):
            red.nullspace()

    def test_wrong_lift_inside_the_bound_fails_certificate(self):
        # (p0^3 + 1)/2 = 1/2 mod p0, so the true entry (p0^3 + 1)/2 ~ 2^74
        # lifts to the small fraction 1/2, which the exact row product, in
        # Python ints, rejects; the row entry is far past int64 and is
        # reduced before the cast
        red = reducer_for([[1, -(P0 ** 3 + 1) // 2]], 2)
        with pytest.raises(ArithmeticError, match="certificate"):
            red.nullspace()

    def test_lift_inside_the_bound(self):
        for value in (Fraction(0), Fraction(-3, 7), Fraction(BOUND, BOUND - 1),
                      Fraction(-BOUND, BOUND - 2)):
            residue = value.numerator * pow(value.denominator, -1, P0) % P0
            assert rational_lift(residue, P0) == value
        with pytest.raises(ArithmeticError):
            rational_lift(2 ** 12 * pow(3, -1, P0), P0)

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


class TestRowChecks:
    def test_block_with_too_many_columns_is_refused(self):
        red = RowReducer(3)
        with pytest.raises(ValueError, match="shape"):
            red.add_rows(np.array([[0, 0, 0, 1]], dtype=np.int64))
        with pytest.raises(ValueError, match="shape"):
            red.add_rows(np.array([[1, 2]], dtype=object))
        with pytest.raises(ValueError, match="shape"):
            red.add_rows(np.array([1, 2, 3], dtype=np.int64))
        assert red.rank == 0 and red.nullspace() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_block_of_floats_is_refused(self):
        red = RowReducer(3)
        for block in (np.array([[0.5, 2, 1]]), np.array([[1, 2, 3]], dtype=np.int32),
                      [[1, 2, 3]]):
            with pytest.raises(TypeError):
                red.add_rows(block)
        assert red.rank == 0

    def test_float_row_is_refused(self):
        with pytest.raises(TypeError, match="ints or Fractions"):
            integer_row([0.5, 2, 1])
        red = RowReducer(3)
        with pytest.raises(TypeError, match="ints or Fractions"):
            red.add_row([1, 2.0, 1])
        with pytest.raises(ValueError, match="entries"):
            red.add_row([1, 2])
        assert red.rank == 0


class TestOnePrime:
    def test_lifts_from_the_first_prime_alone(self):
        red = RowReducer(3)
        red.add_rows(np.array([[2, -1, 0], [0, 2, -3]], dtype=np.int64))
        assert red.nullspace() == [[3, 6, 4]]

    @pytest.mark.parametrize("power", [20, 30])
    def test_entry_past_the_lift_bound_fails_the_certificate(self, power):
        # 2^20/3 and 2^30/3 are past the lift bound 4095, but p0 = 2^25 - 39,
        # so they read 13/32 and 416 modulo p0: wrong lifts inside the
        # bound, which the certificate rejects
        red = RowReducer(2)
        red.add_row([3, -2 ** power])
        with pytest.raises(ArithmeticError, match="certificate"):
            red.nullspace()

    def test_certificate_rejects_a_lift_off_by_a_multiple_of_the_prime(self):
        # the entry 3 + 2 p0 reads 3 modulo p0, which lifts to 3 and fails
        # the certificate
        red = RowReducer(2)
        red.add_row([1, -(3 + 2 * P0)])
        with pytest.raises(ArithmeticError, match="certificate"):
            red.nullspace()

    def test_no_rows_absorbed(self):
        # every row vanishes modulo p0, so the lift is the identity, which
        # the certificate rejects
        red = RowReducer(2)
        assert not red.add_rows(np.array([[P0, 2 * P0]], dtype=np.int64))
        with pytest.raises(ArithmeticError, match="certificate"):
            red.nullspace()


def test_too_many_columns_are_refused():
    # a product sums at most rank <= ncols terms below p0^2, exact in int64
    # for up to 8192 of them
    RowReducer(8192)
    with pytest.raises(ValueError, match="columns"):
        RowReducer(8193)


def fraction_nullspace(rows, ncols):
    """The oracle: the echelon nullspace basis in `RowReducer`'s integer
    form, by Gauss-Jordan elimination over Fractions."""
    work, pivots = [[Fraction(v) for v in r] for r in rows], []
    for col in range(ncols):
        piv = next((i for i in range(len(pivots), len(work)) if work[i][col]), None)
        if piv is None:
            continue
        r = len(pivots)
        work[r], work[piv] = work[piv], work[r]
        work[r] = [v / work[r][col] for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        x = [Fraction(0)] * ncols
        x[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            x[pc] = -work[i][c]
        basis.append(integer_row(x))
    return free, basis


def checked_nullspace(red, rows, ncols):
    """`red.nullspace()` against the oracle: the oracle's basis when every
    entry of it is a/b with |a|, b <= BOUND, so that it lifts from p0;
    otherwise ArithmeticError, never a wrong basis, and None is returned."""
    free, basis = fraction_nullspace(rows, ncols)
    if all(abs(Fraction(v, row[c]).numerator) <= BOUND and Fraction(v, row[c]).denominator <= BOUND
           for row, c in zip(basis, free) for v in row):
        assert red.free_columns == free
        assert red.nullspace() == basis
        event("lifted")
        return basis
    with pytest.raises(ArithmeticError):
        red.nullspace()
    event("past the lift bound")
    return None


@st.composite
def wide_systems(draw):
    """Integer rows with entries up to 2^12, some of them combinations."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    top = draw(st.sampled_from([2, 2 ** 6, 2 ** 12]))
    entry = st.integers(min_value=-top, max_value=top)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        ca, cb = draw(small_int), draw(small_int)
        rows.append([ca * x + cb * y for x, y in zip(a, b)])
    return ncols, rows


@settings(max_examples=150, deadline=None)
@given(wide_systems())
def test_nullspace_against_fraction_elimination(system):
    ncols, rows = system
    red = RowReducer(ncols)
    red.add_rows(np.array(rows, dtype=np.int64))
    checked_nullspace(red, rows, ncols)


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


def nullspace_outcome(red):
    """The basis `nullspace` returns, or the message of its ArithmeticError."""
    try:
        return red.nullspace()
    except ArithmeticError as exc:
        return str(exc)


def assert_same_reducer(red, one_by_one):
    assert red._pivots == one_by_one._pivots
    assert red.free_columns == one_by_one.free_columns
    assert np.array_equal(red._ech, one_by_one._ech)      # modulo p0
    assert nullspace_outcome(red) == nullspace_outcome(one_by_one)


@settings(max_examples=80, deadline=None)
@given(dependent_blocks())
# one block whose echelon basis has the denominator 4144, past the lift bound
@example((7, [[[0, 0, 0, 0, 0, 0, 0], [0, -1, 0, 0, -4, 4, 1], [0, -3, 0, 0, -3, -4, 0],
               [0, -3, 0, 0, 4, 0, 0], [-3, 0, 4, 0, 0, 0, 0], [4, 0, 4, 0, 0, 1, 1]]]))
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
    checked_nullspace(one_by_one, rows, ncols)


def test_block_past_the_int64_limit():
    # 9000 rows on three columns, more than the 8192 terms one int64
    # product may sum: multiples of (1, 2, 0) but for two rows after 8192
    rows = np.array([[k % 7 + 1, 2 * (k % 7 + 1), 0] for k in range(9000)], dtype=np.int64)
    rows[8500], rows[8999] = [0, 1, 5], [3, 6, 1]
    red = RowReducer(3)
    assert red.add_rows(rows) == [0, 8500, 8999]
    one_by_one = RowReducer(3)
    assert [i for i, row in enumerate(rows) if one_by_one.add_row(row)] == [0, 8500, 8999]
    assert_same_reducer(red, one_by_one)
    assert red.nullspace() == []


def test_annihilation_check_is_exact():
    q = (2 ** 25 - 1) * (2 ** 25 - 3) * (2 ** 25 - 5)     # about 2^75
    for rows, cols, zero in [
            ([[1, 2 ** 80]], [[2 ** 80], [-1]], True),        # past int64: Python ints
            ([[1, 2 ** 80]], [[2 ** 80 + 1], [-1]], False),
            ([[q]], [[1]], False),                             # zero modulo each of its factors
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
    basis = checked_nullspace(red, rows, ncols)
    if basis is not None:
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
