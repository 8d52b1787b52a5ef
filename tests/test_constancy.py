from fractions import Fraction

import numpy as np
import pytest

from curvlab import constancy
from curvlab.constancy import (constant_antiholomorphic,
                               constant_biholomorphic, constant_holomorphic,
                               lemma3_check, normalized_biholomorphic)
from curvlab.harness import (impose, model_complex_space_form,
                             model_constant_sectional, random_tensor)
from curvlab.spaces import GeometryError, gram_schmidt_tuple
from curvlab.tensors import (CurvatureTensor, from_components,
                             holomorphic_sectional, pi1_components, sectional)


def perturbed_pi1(space, seed=0):
    """pi1 plus a symmetrized single-entry bump touching the first coordinate."""
    n = space.n
    P = pi1_components(space)
    bump = from_components(space, [(0, 1, 2, 3, Fraction(1, 2))], symmetrize=True)
    return CurvatureTensor(space, P + bump.components)


class TestConstantHolomorphic:
    def test_constant_model(self, sp21):
        v = constant_holomorphic(model_constant_sectional(sp21, 3))
        assert v.is_constant and v.value == 3

    def test_space_form(self, sp31):
        v = constant_holomorphic(model_complex_space_form(sp31, Fraction(5, 2)))
        assert v.is_constant and v.value == Fraction(5, 2)

    def test_perturbation_detected_with_witness(self, sp21):
        R = perturbed_pi1(sp21)
        v = constant_holomorphic(R)
        assert not v.is_constant
        (u1, _), (u2, _) = v.witness.planes
        h1, h2 = v.witness.values
        assert holomorphic_sectional(R, u1) == h1
        assert holomorphic_sectional(R, u2) == h2
        assert h1 != h2

    def test_exact_and_sampled_criteria_agree(self, sp21):
        for seed in range(20):
            R = random_tensor(sp21, 400 + seed)
            exact = constant_holomorphic(R)
            sampled = constant_holomorphic(R.to_float())
            assert exact.status == sampled.status

    def test_exhausted_witness_hunt_raises(self, sp21, monkeypatch):
        # a doubled norm-square quartic makes the exact comparison call a
        # constant model nonconstant; no plane has another H value, so the
        # bounded hunt must end with an error instead of running forever
        quartic = constancy._norm_square_quartic
        monkeypatch.setattr(constancy, "_norm_square_quartic", lambda sp: 2 * quartic(sp))
        with pytest.raises(GeometryError, match="candidates"):
            constant_holomorphic(model_constant_sectional(sp21, 3))

    def test_float_constant_model(self, sp21):
        v = constant_holomorphic(model_constant_sectional(sp21, 3).to_float())
        assert v.is_constant and abs(v.value - 3.0) < 1e-9


class TestConstantAntiholomorphic:
    def test_needs_m_greater_than_two(self, sp21):
        with pytest.raises(GeometryError):
            constant_antiholomorphic(model_constant_sectional(sp21, 1))

    def test_space_form_definite(self, sp30):
        v = constant_antiholomorphic(model_complex_space_form(sp30, 4), probes=20)
        assert v.is_constant and v.value == 1

    def test_space_form_indefinite(self, sp31):
        v = constant_antiholomorphic(model_complex_space_form(sp31, 4), probes=20)
        assert v.is_constant and v.value == 1

    def test_constant_model(self, sp31):
        v = constant_antiholomorphic(model_constant_sectional(sp31, 3), probes=20)
        assert v.is_constant and v.value == 3

    def test_generic_tensor_nonconstant_with_verified_witness(self, sp31):
        R = random_tensor(sp31, 21)
        v = constant_antiholomorphic(R, probes=10)
        assert not v.is_constant
        (p1, q1), (p2, q2) = v.witness.planes
        k1, k2 = v.witness.values
        assert sectional(R, p1, q1) == k1
        assert sectional(R, p2, q2) == k2
        assert k1 != k2

    def test_scale_invariance_of_status(self, sp31):
        R = model_complex_space_form(sp31, 4)
        scaled = CurvatureTensor(sp31, R.components * Fraction(3), bianchi=True)
        v = constant_antiholomorphic(scaled, probes=10)
        assert v.is_constant and v.value == 3


class TestConstantBiholomorphic:
    def test_space_form_across_signatures(self, sp31):
        # normalized values agree on (+,+) and (+,-) pairs
        v = constant_biholomorphic(model_complex_space_form(sp31, 4), probes=20)
        assert v.is_constant and v.value == 2

    def test_constant_model_vanishes(self, sp31):
        v = constant_biholomorphic(model_constant_sectional(sp31, 3), probes=20)
        assert v.is_constant and v.value == 0

    def test_generic_tensor_nonconstant(self, sp31):
        R = random_tensor(sp31, 22)
        v = constant_biholomorphic(R, probes=10)
        assert not v.is_constant
        (p1, q1), (p2, q2) = v.witness.planes
        assert normalized_biholomorphic(R, p1, q1) == v.witness.values[0]
        assert normalized_biholomorphic(R, p2, q2) == v.witness.values[1]

    def test_needs_m_greater_than_two(self, sp21):
        with pytest.raises(GeometryError):
            constant_biholomorphic(model_constant_sectional(sp21, 1))


class TestEquivalenceReport:
    def test_space_form_all_true(self, sp30):
        rep = lemma3_check(model_complex_space_form(sp30, 4), probes=15)
        assert (rep.condition_a, rep.condition_b, rep.condition_c) == (True, True, True)
        assert rep.agree

    def test_generic_all_false_with_cross_verified_witnesses(self, sp30):
        R = random_tensor(sp30, 23)
        rep = lemma3_check(R, probes=15)
        assert (rep.condition_a, rep.condition_b, rep.condition_c) == (False, False, False)
        assert rep.agree
        (p, q, r), aval = rep.witness_a
        assert R.eval(p, q, r, p) == aval != 0
        (p, q, r), k1, k2 = rep.witness_b
        assert sectional(R, p, q) == k1 and sectional(R, p, r) == k2 and k1 != k2

    def test_constraint_built_tensor_all_true(self, sp30):
        system = impose(sp30, "thm6", seed=3)
        rep = lemma3_check(system.random_element(24), probes=15)
        assert (rep.condition_a, rep.condition_b, rep.condition_c) == (True, True, True)
        assert rep.agree

    def test_requires_definite_and_m3(self, sp31, sp20):
        with pytest.raises(GeometryError):
            lemma3_check(random_tensor(sp31, 1))
        with pytest.raises(GeometryError):
            lemma3_check(random_tensor(sp20, 1))

    def test_substitution_coherence(self, sp30):
        # b) holds on a triple iff the polarized combination vanishes:
        # K(x,y) = K(x,z)  <=>  R(x, y-z, y+z, x) = 0, radical-free
        rng_tensors = [random_tensor(sp30, 500 + i) for i in range(3)]
        rng_tensors.append(model_complex_space_form(sp30, 4))
        for R in rng_tensors:
            for i in range(10):
                x, y, z = gram_schmidt_tuple(sp30, 3000 + i, (1, 1, 1),
                                             antiholomorphic=True)
                direct = sectional(R, x, y) == sectional(R, x, z)
                polarized = R.eval(x, np.asarray(y) - np.asarray(z),
                                   np.asarray(y) + np.asarray(z), x) == 0
                assert direct == polarized


class TestDerivedIdentitiesOnHypothesisSolutions:
    def test_isotropic_route_identities(self, sp31):
        # solutions of the weak-isotropy hypothesis satisfy the derived
        # identity family on antiholomorphic triples of every realizable
        # mixed signature
        system = impose(sp31, "thmA", seed=4)
        J = sp31.apply_J
        for i in range(3):
            R = system.random_element(600 + i)
            for k in range(10):
                x, y, a = gram_schmidt_tuple(sp31, 4000 + k, (1, 1, -1),
                                             antiholomorphic=True)
                assert sectional(R, x, y) == sectional(R, x, a)
                assert R.eval(x, y, a, x) == 0
                assert R.eval(x, y, J(y), x) == 0
                assert R.eval(x, a, J(a), x) == 0
                assert R.eval(x, a, a, y) == 0
                assert R.eval(a, y, J(y), a) == 0
