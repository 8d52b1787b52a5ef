from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvlab.scalars import (FLOAT_DEGENERATE_TOL, FLOAT_IDENTITY_TOL,
                             FLOAT_REVERIFY_TOL, FLOAT_VERDICT_TOL,
                             ExactComplex, is_zero, rational)


class TestRational:
    @pytest.mark.parametrize("x", [7, np.int64(7), np.int32(7), np.uint8(7), "7", "14/2",
                                   Fraction(7)])
    def test_integers_of_every_kind(self, x):
        value = rational(x)
        assert value == 7 and type(value) is Fraction and type(value.numerator) is int

    def test_large_numpy_integer_keeps_its_value(self):
        assert rational(np.int64(2 ** 62)) * 4 == 2 ** 64

    @pytest.mark.parametrize("x", [True, np.bool_(True), 1.0, np.float64(1.0), None])
    def test_bools_and_floats_refused(self, x):
        with pytest.raises(TypeError):
            rational(x)


class TestIsZero:
    @pytest.mark.parametrize("tol", [FLOAT_DEGENERATE_TOL, FLOAT_IDENTITY_TOL,
                                     FLOAT_VERDICT_TOL, FLOAT_REVERIFY_TOL])
    def test_exact_values_ignore_the_tolerance(self, tol):
        assert not is_zero(Fraction(1, 10**30), tol)
        assert not is_zero(Fraction(1, 10**30), tol, scale=10**30)
        assert is_zero(Fraction(0), tol)
        assert is_zero(0, tol)

    def test_floats_scale_by_max_one_and_abs_scale(self):
        tol = FLOAT_IDENTITY_TOL
        assert is_zero(0.9e-9, tol) and not is_zero(1.1e-9, tol)
        # scales below 1 do not shrink the tolerance
        assert is_zero(0.9e-9, tol, scale=1e-3)
        assert is_zero(-0.9e-6, tol, scale=1000.0) and not is_zero(1.1e-6, tol, scale=1000.0)
        assert is_zero(0.9e-6, tol, scale=-1000.0)
        assert is_zero(0.9e-6, tol, scale=Fraction(1000))
        assert is_zero(0.9e-6, tol, scale=1000j)

    def test_complex_floats_compare_their_modulus(self):
        assert is_zero(0.6e-9 + 0.6e-9j, FLOAT_IDENTITY_TOL)
        assert not is_zero(0.8e-9 + 0.8e-9j, FLOAT_IDENTITY_TOL)

    def test_nan_is_not_zero(self):
        assert not is_zero(float("nan"), FLOAT_VERDICT_TOL)

    def test_exact_complex(self):
        assert is_zero(ExactComplex.of(0, 0), FLOAT_IDENTITY_TOL)
        assert not is_zero(ExactComplex.of(0, Fraction(1, 10**30)), FLOAT_IDENTITY_TOL)
        # the scale is never read on the exact branch (abs of ExactComplex raises)
        assert not is_zero(ExactComplex.of(1), FLOAT_IDENTITY_TOL, scale=ExactComplex.of(0, 5))
        with pytest.raises(TypeError):
            abs(ExactComplex.of(1))


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=50)
exact_complex = st.builds(ExactComplex, fractions, fractions)


class TestExactComplexField:
    @given(exact_complex, exact_complex, exact_complex)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a and a * 1 == a and 1 * a == a
        assert a + (-a) == 0 and a - b == a + (-b)
        assert b - a == -(a - b) and 0 - a == -a

    @given(exact_complex, exact_complex)
    def test_inverses(self, a, b):
        if a:
            assert a * (1 / a) == 1
            assert (b / a) * a == b
        else:
            with pytest.raises(ZeroDivisionError):
                b / a

    @given(exact_complex, exact_complex)
    def test_conjugation_is_a_field_automorphism(self, a, b):
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a
        norm = a * a.conjugate()
        assert norm.imag == 0 and norm.real >= 0 and (norm.real == 0) == (not a)

    @given(fractions, fractions, fractions, fractions)
    def test_embeds_the_rationals(self, p, q, r, s):
        a, b = ExactComplex(p, q), ExactComplex(r, s)
        assert ExactComplex.of(p) == p and ExactComplex.of(p) + r == ExactComplex.of(p + r)
        assert ExactComplex.of(p) * r == ExactComplex.of(p * r)
        assert (a * b).real == p * r - q * s and (a * b).imag == p * s + q * r
        assert hash(ExactComplex.of(p, q)) == hash(a)


dyadic = st.integers(-2 ** 40, 2 ** 40).map(lambda k: Fraction(k, 2 ** 20))
floats = st.floats(-1e6, 1e6, allow_nan=False)


class TestExactComplexMixed:
    @given(fractions, fractions, floats, floats)
    def test_float_and_complex_operands_give_builtin_complex(self, p, q, x, y):
        a, c = ExactComplex(p, q), complex(p, q)
        for other in (x, complex(x, y)):
            for got, want in ((a + other, c + other), (other + a, other + c),
                              (a - other, c - other), (other - a, other - c),
                              (a * other, c * other), (other * a, other * c)):
                assert type(got) is complex and got == want
            if other:
                assert type(a / other) is complex and a / other == c / other
            if a:
                assert type(other / a) is complex and other / a == other / c

    @given(dyadic, dyadic)
    def test_equality_and_hash_agree_with_builtin_numbers(self, p, q):
        a = ExactComplex(p, q)
        c = complex(float(p), float(q))       # dyadic values convert exactly
        assert a == c and c == a and hash(a) == hash(c)
        if q == 0:
            assert a == float(p) and hash(a) == hash(float(p)) == hash(p)
        assert len({a, c}) == 1

    @given(fractions, fractions)
    def test_equality_with_floats_is_exact(self, p, q):
        a = ExactComplex(p, q)
        c = complex(p, q)
        assert (a == c) == (p == c.real and q == c.imag)
        assert a != complex(float("nan"), 0)

    def test_hash_of_integers_and_large_fractions(self):
        assert ExactComplex.of(3) == 3 and len({ExactComplex.of(3), 3}) == 1
        assert hash(ExactComplex.of(Fraction(1, 3))) == hash(Fraction(1, 3))
        huge = ExactComplex.of(10 ** 400, Fraction(1, 7))   # too large for a float
        assert isinstance(hash(huge), int) and huge != complex(1e308, 0)

    @given(st.lists(exact_complex, min_size=1, max_size=5), floats)
    def test_exact_complex_polynomial_at_a_float(self, coeffs, t):
        from curvlab.polarization import TPolynomial
        got = TPolynomial(tuple(coeffs))(t)
        want = 0
        for c in reversed(coeffs):
            want = want * t + complex(c)
        assert isinstance(got, complex)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
