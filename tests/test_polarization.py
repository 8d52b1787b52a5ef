import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvlab.polarization import (TPolynomial, VectorFamily,
                                  bound_forced_identities,
                                  complexified_family_expansion, expand,
                                  holomorphic_family_expansion)
from curvlab.harness import (impose, model_complex_space_form,
                             model_constant_sectional, random_tensor)
from curvlab.spaces import GeometryError, gram_schmidt_tuple
from curvlab.tensors import holomorphic_sectional

from conftest import rand_vector


class TestTPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = TPolynomial.of([Fraction(1), Fraction(0), Fraction(0)])
        assert p.coeffs == (Fraction(1),) and p.degree == 0

    def test_horner_evaluation(self):
        p = TPolynomial.of([1, -2, 0, 4])
        for t in (Fraction(0), Fraction(1, 2), Fraction(-3), Fraction(7, 5)):
            assert p(t) == 1 - 2 * t + 4 * t ** 3

    def test_sigma_form_rewrites_the_polynomial(self):
        rng = random.Random(4)
        for degree in range(-1, 9):
            p = TPolynomial.of([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                for _ in range(degree + 1)])
            E, O = p.sigma_form()
            for t in (Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-5, 2)):
                assert p(t) == E(1 - t * t) + t * O(1 - t * t)

    def test_sigma_form_of_the_envelope(self):
        c = Fraction(5)
        E, O = TPolynomial.of([c, 0, -2 * c, 0, c]).sigma_form()
        assert E.coeffs == (0, 0, c) and O.is_zero()


class TestExpand:
    def test_pi1_along_pinching_family(self, sp31):
        # g(x+ta, x+ta) g(y,y) = 1 - t^2 by the hand oracle
        R = model_constant_sectional(sp31, 1)
        x, y, a = gram_schmidt_tuple(sp31, 5, (1, 1, -1), antiholomorphic=True)
        fam = VectorFamily.affine(x, a)
        cy = VectorFamily.constant(y)
        assert expand(R, fam, cy, cy, fam).coeffs == (Fraction(1), Fraction(0), Fraction(-1))

    def test_zero_directions_give_constant(self, sp21):
        R = random_tensor(sp21, 1)
        rng = random.Random(0)
        vs = [rand_vector(sp21, rng) for _ in range(4)]
        fams = [VectorFamily.constant(v) for v in vs]
        p = expand(R, *fams)
        assert p.degree <= 0
        assert p(Fraction(0)) == R.eval(*vs)

    @pytest.mark.parametrize("seed", range(6))
    def test_interpolation_oracle(self, sp21, seed):
        # the polynomial must agree with direct evaluation at 7 t values
        R = random_tensor(sp21, 100 + seed)
        rng = random.Random(seed)
        fams = [VectorFamily.affine(rand_vector(sp21, rng), rand_vector(sp21, rng))
                for _ in range(4)]
        p = expand(R, *fams)
        for t in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                  Fraction(-2), Fraction(3), Fraction(-3)):
            vs = [np.asarray(f.base) + t * np.asarray(f.direction) for f in fams]
            assert p(t) == R.eval(*vs)

    def test_mixed_slot_families(self, sp21):
        # families with different bases per slot, as in derived-identity work
        R = random_tensor(sp21, 11)
        rng = random.Random(3)
        x, a = rand_vector(sp21, rng), rand_vector(sp21, rng)
        J = sp21.apply_J
        fams = [VectorFamily.affine(x, a), VectorFamily.affine(J(x), J(a)),
                VectorFamily.affine(J(a), J(x)), VectorFamily.affine(a, x)]
        p = expand(R, *fams)
        for t in (Fraction(1, 2), Fraction(-2)):
            vs = [np.asarray(f.base) + t * np.asarray(f.direction) for f in fams]
            assert p(t) == R.eval(*vs)

    def test_imaginary_direction_family(self, sp30):
        R = random_tensor(sp30, 12)
        x, y = gram_schmidt_tuple(sp30, 6, (1, 1), antiholomorphic=True)
        fam = VectorFamily.imaginary(x, y)
        p = expand(R, fam, VectorFamily.constant(x), VectorFamily.constant(y), fam)
        # check against eval_c at t = 2 with u = x + 2i y
        from curvlab.spaces import ComplexVector
        u = ComplexVector(x, 2 * np.asarray(y))
        assert p(Fraction(2)) == R.eval_c(u, x, y, u)


class TestHolomorphicFamilyExpansion:
    def test_constant_model_gives_bound_envelope(self, sp21):
        R = model_constant_sectional(sp21, 3)
        x, a = gram_schmidt_tuple(sp21, 7, (1, -1), antiholomorphic=True)
        p = holomorphic_family_expansion(R, x, a)
        assert p.coeffs == (Fraction(3), Fraction(0), Fraction(-6), Fraction(0), Fraction(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_odd_coefficients_match_direct_evaluations(self, sp21, seed):
        R = random_tensor(sp21, 200 + seed)
        x, a = gram_schmidt_tuple(sp21, 50 + seed, (1, -1), antiholomorphic=True)
        p = holomorphic_family_expansion(R, x, a)
        J = sp21.apply_J
        coeffs = list(p.coeffs) + [Fraction(0)] * (5 - len(p.coeffs))
        assert coeffs[1] == 2 * (R.eval(x, J(x), J(x), a) + R.eval(x, J(x), J(a), x))
        assert coeffs[3] == 2 * (R.eval(a, J(a), J(a), x) + R.eval(a, J(a), J(x), a))
        assert coeffs[0] == R.eval(x, J(x), J(x), x)
        assert coeffs[4] == R.eval(a, J(a), J(a), a)

    def test_sign_flip_of_direction_mirrors_parameter(self, sp21):
        # (x, -a) realizes t -> -t; (-x, -a) changes nothing (degree 4)
        R = random_tensor(sp21, 13)
        x, a = gram_schmidt_tuple(sp21, 8, (1, -1), antiholomorphic=True)
        p = holomorphic_family_expansion(R, x, a)
        q = holomorphic_family_expansion(R, x, -np.asarray(a))
        r = holomorphic_family_expansion(R, -np.asarray(x), -np.asarray(a))
        for k in range(len(p.coeffs)):
            assert q.coeffs[k] == (-1) ** k * p.coeffs[k]
        assert r.coeffs == p.coeffs

    def test_rejects_wrong_signature(self, sp21):
        R = random_tensor(sp21, 14)
        x, y = gram_schmidt_tuple(sp21, 9, (1, 1), antiholomorphic=False)
        with pytest.raises(GeometryError):
            holomorphic_family_expansion(R, x, y)


class TestComplexifiedFamilyExpansion:
    def test_space_form_envelope(self, sp30):
        c = Fraction(4)
        R = model_complex_space_form(sp30, c)
        x, y = gram_schmidt_tuple(sp30, 10, (1, 1), antiholomorphic=True)
        p = complexified_family_expansion(R, x, y)
        assert p.coeffs == (c, Fraction(0), -2 * c, Fraction(0), c)

    @pytest.mark.parametrize("seed", range(4))
    def test_even_structure_and_endpoints(self, sp30, seed):
        R = random_tensor(sp30, 300 + seed)
        x, y = gram_schmidt_tuple(sp30, 60 + seed, (1, 1), antiholomorphic=True)
        p = complexified_family_expansion(R, x, y)
        coeffs = list(p.coeffs) + [Fraction(0)] * (5 - len(p.coeffs))
        assert coeffs[1] == 0 and coeffs[3] == 0
        assert coeffs[0] == holomorphic_sectional(R, x)
        assert coeffs[4] == holomorphic_sectional(R, y)

    def test_quadratic_bracket_against_direct_evaluations(self, sp30):
        R = random_tensor(sp30, 15)
        x, y = gram_schmidt_tuple(sp30, 11, (1, 1), antiholomorphic=True)
        p = complexified_family_expansion(R, x, y)
        J = sp30.apply_J
        bracket = (R.eval(x, J(y), J(y), x) + 2 * R.eval(x, J(x), J(y), y)
                   + 2 * R.eval(x, J(y), J(x), y) + R.eval(y, J(x), J(x), y))
        assert p.coeffs[2] == -bracket

    def test_indefinite_space_rejected(self, sp21):
        R = random_tensor(sp21, 16)
        x, a = gram_schmidt_tuple(sp21, 12, (1, -1), antiholomorphic=True)
        with pytest.raises(GeometryError):
            complexified_family_expansion(R, x, a)


def _synthetic_division_rounds(p: TPolynomial, multiplicity: int) -> list:
    """Reference for `bound_forced_identities`: the values at t = +-1, then
    division by (t - 1) and (t + 1) by synthetic division, round by round."""
    out = []
    cs = list(p.coeffs)
    for _ in range(multiplicity):
        at1, at_1 = TPolynomial.of(cs)(1), TPolynomial.of(cs)(-1)
        out += [at1, at_1]
        if at1 != 0 or at_1 != 0:
            break
        for root in (1, -1):
            acc, quotient = 0, []
            for c in reversed(cs):
                acc = acc * root + c
                quotient.append(acc)
            cs = quotient[-2::-1]      # the remainder is zero by the root check
        cs = [-c for c in cs]          # 1 - t^2 = -(t - 1)(t + 1)
    return out


def _times_sigma(cs: list) -> list:
    """Coefficients of (1 - t^2) * p."""
    cs = list(cs) + [0, 0]
    return [c - (cs[k - 2] if k >= 2 else 0) for k, c in enumerate(cs)]


@st.composite
def envelope_polynomials(draw):
    """(p, multiplicity) with p = sigma^j * q: divisible by sigma^j, and at
    most one degree over the envelope (1-t^2)^multiplicity."""
    multiplicity = draw(st.integers(1, 3))
    j = draw(st.integers(0, multiplicity))
    coeffs = draw(st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
                           max_size=2 * (multiplicity - j) + 2))
    for _ in range(j):
        coeffs = _times_sigma(coeffs)
    return TPolynomial.of(coeffs), multiplicity


class TestBoundForcedIdentities:
    @settings(max_examples=300, deadline=None)
    @given(envelope_polynomials())
    # the cases the deflation tests pinned: the envelope itself, a
    # polynomial without the roots, and the zero polynomial
    @example((TPolynomial.of([Fraction(5), 0, Fraction(-10), 0, Fraction(5)]), 2))
    @example((TPolynomial.of([1, 1]), 1))
    @example((TPolynomial.of([Fraction(0)] * 5), 3))
    def test_matches_synthetic_division(self, case):
        p, multiplicity = case
        if p.degree > 2 * multiplicity:
            with pytest.raises(GeometryError):
                bound_forced_identities(p, multiplicity=multiplicity)
            return
        expected = _synthetic_division_rounds(p, multiplicity)
        assert bound_forced_identities(p, multiplicity=multiplicity) == expected

    def test_envelope_compatible_polynomial(self):
        c = Fraction(7)
        p = TPolynomial.of([c, 0, -2 * c, 0, c])
        assert bound_forced_identities(p) == [0, 0, 0, 0]

    def test_linear_violation(self):
        assert bound_forced_identities(TPolynomial.of([0, 1])) == [1, -1]

    def test_first_round_passes_second_fails(self):
        # (1-t^2)*(1+t^2) vanishes at +-1 but its quotient does not
        p = TPolynomial.of([1, 0, 0, 0, -1])
        got = bound_forced_identities(p)
        assert got[:2] == [0, 0] and got[2:] == [2, 2]

    def test_vanishing_expansion_is_compatible(self, sp21):
        # the flat tensor expands to the zero polynomial: four zero rounds
        R = model_constant_sectional(sp21, 0)
        x, a = gram_schmidt_tuple(sp21, 5, (1, -1), antiholomorphic=True)
        p = holomorphic_family_expansion(R, x, a)
        assert p.is_zero()
        assert bound_forced_identities(p) == [0, 0, 0, 0]

    def test_multiplicity_one(self):
        p = TPolynomial.of([Fraction(3), 0, Fraction(-3)])
        assert bound_forced_identities(p, multiplicity=1) == [0, 0]

    def test_degree_guard(self):
        with pytest.raises(GeometryError):
            bound_forced_identities(TPolynomial.of([0, 0, 0, 1]), multiplicity=1)

    def test_hypothesis_solutions_pass_both_rounds(self, sp21):
        system = impose(sp21, "eq1", seed=5)
        for i in range(5):
            R = system.random_element(700 + i)
            x, a = gram_schmidt_tuple(sp21, 80 + i, (1, -1), antiholomorphic=True)
            p = holomorphic_family_expansion(R, x, a)
            assert bound_forced_identities(p) == [0, 0, 0, 0]


class TestDerivedIdentityPipeline:
    def test_equal_holomorphic_curvature_across_signs(self, sp21):
        # tensors satisfying the mixed-pair identity have H(x) = H(a)
        system = impose(sp21, "eq1", seed=1)
        R = system.random_element(17)
        for i in range(50):
            x, a = gram_schmidt_tuple(sp21, 1000 + i, (1, -1), antiholomorphic=True)
            assert holomorphic_sectional(R, x) == holomorphic_sectional(R, a)

    def test_mirrored_identity_in_lowest_dimension(self, sp21):
        # for m = 2 the swapped-role identity holds on the solution space
        system = impose(sp21, "eq1", seed=2)
        R = system.random_element(18)
        J = sp21.apply_J
        for i in range(10):
            x, a = gram_schmidt_tuple(sp21, 2000 + i, (1, -1), antiholomorphic=True)
            assert R.eval(a, J(a), J(a), x) + R.eval(a, J(a), J(x), a) == 0
