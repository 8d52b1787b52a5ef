import random
from fractions import Fraction
from itertools import chain, islice

import numpy as np
import pytest

from curvlab import constancy
from curvlab.constancy import (constant_antiholomorphic,
                               constant_biholomorphic, constant_holomorphic,
                               lemma3_check, normalized_biholomorphic)
from curvlab.harness import (impose, model_complex_space_form,
                             model_constant_sectional, random_tensor)
from curvlab.spaces import GeometryError, gram_schmidt_tuple, make_space
from curvlab.tensors import (CurvatureTensor, component_scale, from_components,
                             from_dense, holomorphic_sectional, pi1_components,
                             sectional)


def perturbed_pi1(space, seed=0):
    """pi1 plus a symmetrized single-entry bump touching the first coordinate."""
    n = space.n
    P = pi1_components(space)
    bump = from_components(space, [(0, 1, 2, 3, Fraction(1, 2))], symmetrize=True)
    return CurvatureTensor(space, P + bump.components)


class TestConstantHolomorphic:
    @pytest.mark.parametrize("m,s", [(m, s) for m in range(1, 5) for s in range(m + 1)])
    def test_reference_value_is_the_vector_path_value(self, m, s):
        # H(e_0) from the integer rows of e_0 and J e_0, against the Fraction
        # vectors through `holomorphic_sectional`
        space = make_space(m, s)
        flipped = make_space(m, s, J=-space.J)
        tensors = [random_tensor(space, m + s), random_tensor(flipped, 3),
                   model_complex_space_form(space, Fraction(-7, 3))]
        if m > 1:
            tensors.append(perturbed_pi1(space))
        for R in tensors:
            c = constancy._holomorphic_at_e0(R)
            assert type(c) is Fraction
            assert c == holomorphic_sectional(R, R.space.basis_vector(0))

    def test_reference_value_with_a_rational_and_a_float_J(self):
        P = np.eye(4, dtype=object) * Fraction(1)
        P[0, 0] = P[2, 2] = Fraction(3, 5)
        P[2, 0], P[0, 2] = Fraction(4, 5), Fraction(-4, 5)
        J = P.dot(make_space(2, 0).J).dot(P.T)
        rational = random_tensor(make_space(2, 0, J=J.tolist()), 4)
        assert rational.space.J_form[1] > 1
        floaty = CurvatureTensor(make_space(2, 0, J=J.astype(float).tolist()),
                                 rational.components)
        assert floaty.space.J_form is None
        for R in (rational, floaty):
            assert (constancy._holomorphic_at_e0(R)
                    == holomorphic_sectional(R, R.space.basis_vector(0)))
            assert constant_holomorphic(R).is_constant is False

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


def scalar_holomorphic(R, samples=200, seed=0):
    """The sampled criterion as one scalar `holomorphic_sectional` per
    candidate, in order, with Fraction candidate vectors: the reference the
    batched float screen and the exact witness hunt must reproduce, verdict
    for verdict and value for value."""
    space = R.space
    rng = random.Random(seed)
    tol = 0 if R.is_exact else (constancy.FLOAT_VERDICT_TOL
                                * max(1.0, float(np.abs(R.components).max())))

    def candidates():
        n = space.n
        for i in range(n):
            yield space.basis_vector(i)
        for i in range(n):
            for j in range(i + 1, n):
                for coef in (1, -1, 2):
                    yield space.basis_vector(i) + coef * space.basis_vector(j)
        while True:
            yield space.vector([Fraction(rng.randint(-3, 3)) for _ in range(n)])

    ref_vec = ref_val = None
    count = 0
    for v in candidates():
        if space.inner(v, v) == 0:
            continue
        h = holomorphic_sectional(R, v)
        if ref_val is None:
            ref_vec, ref_val = v, h
        elif abs(h - ref_val) > tol:
            return "nonconstant", (ref_val, h), (ref_vec, v)
        count += 1
        if count >= samples:
            break
    return "constant", ref_val, None


def block_bump(space, block, delta):
    """delta times pi1 restricted to the J-block span{e_2b, e_2b+1}: it moves
    H(e_2b) by delta and H of a vector v by at most delta on a definite space."""
    i, j = 2 * block, 2 * block + 1
    return from_components(space, [(i, j, j, i, delta), (j, i, i, j, delta),
                                   (i, j, i, j, -delta), (j, i, j, i, -delta)])


def assert_same_as_scalar_loop(R, samples=200, seed=0):
    verdict = constant_holomorphic(R, samples=samples, seed=seed)
    status, values, planes = scalar_holomorphic(R, samples=samples, seed=seed)
    assert verdict.status == status
    if status == "constant":
        assert verdict.value == values
    else:
        assert verdict.witness.values == values
        assert all((plane[0] == v).all() for plane, v in zip(verdict.witness.planes, planes))
    return verdict


class TestFloatHolomorphicScreen:
    SIGNATURES = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 2)]

    @pytest.mark.parametrize("m,s", SIGNATURES)
    def test_models_agree_with_scalar_loop(self, m, s):
        space = make_space(m, s)
        for R in (model_constant_sectional(space, Fraction(-7, 3)),
                  model_complex_space_form(space, Fraction(5, 2))):
            assert assert_same_as_scalar_loop(R.to_float(), seed=m + s).is_constant

    @pytest.mark.parametrize("m,s", SIGNATURES)
    def test_random_tensors_agree_with_scalar_loop(self, m, s):
        space = make_space(m, s)
        for seed in range(3):
            R = random_tensor(space, 700 + seed).to_float()
            assert_same_as_scalar_loop(R, seed=seed)
            assert_same_as_scalar_loop(R, samples=5, seed=seed)

    @pytest.mark.parametrize("m,s", [(2, 0), (2, 1), (3, 1), (4, 2)])
    def test_pair_candidate_witnesses_agree_with_scalar_loop(self, m, s):
        # the bump leaves H(e_i) alone, so the first witness is a later candidate
        R = perturbed_pi1(make_space(m, s))
        for T in (R, R.to_float()):
            verdict = assert_same_as_scalar_loop(T, samples=1000, seed=m)
            assert not verdict.is_constant
            assert (verdict.witness.planes[1][0] != 0).sum() > 1

    @pytest.mark.parametrize("m,s", SIGNATURES)
    @pytest.mark.parametrize("fraction", [0.4, 0.6, 1.2, 2.5])
    def test_nudged_models_agree_with_scalar_loop(self, m, s, fraction):
        space = make_space(m, s)
        model = model_constant_sectional(space, Fraction(1, 2)).to_float()
        # model components stay within 1, so the verdict tolerance is 1e-8
        delta = fraction * constancy.FLOAT_VERDICT_TOL
        bump = block_bump(space, space.m - 1, Fraction(1)).to_float()
        R = CurvatureTensor(space, model.components + delta * bump.components)
        assert_same_as_scalar_loop(R, seed=3)

    @pytest.mark.parametrize("fraction,constant,flags_ok", [
        (0.4, True, lambda k: k == 0),      # nothing past tol/2: no re-evaluation
        (0.6, True, lambda k: k > 0),       # flagged, and every flag refuted
        (1.2, False, lambda k: k == 1),     # the first flag confirmed
    ])
    def test_screen_flags_past_half_the_tolerance(self, sp30, fraction, constant, flags_ok,
                                                  monkeypatch):
        # on a definite space the bump moves H by at most delta, and by
        # exactly delta on e_4, the first candidate it moves at all
        calls = []
        scalar = constancy.holomorphic_sectional
        monkeypatch.setattr(constancy, "holomorphic_sectional",
                            lambda R, v: calls.append(v) or scalar(R, v))
        model = model_constant_sectional(sp30, Fraction(1, 2)).to_float()
        delta = fraction * constancy.FLOAT_VERDICT_TOL
        bump = block_bump(sp30, 2, Fraction(1)).to_float()
        verdict = constant_holomorphic(
            CurvatureTensor(sp30, model.components + delta * bump.components))
        assert verdict.is_constant == constant
        assert flags_ok(len(calls) - 1)     # the first call is the reference value
        if not constant:
            assert (verdict.witness.planes[1][0] == sp30.basis_vector(4)).all()


    @pytest.mark.parametrize("m,s", [(1, 0), (2, 1), (3, 1), (4, 2), (5, 3), (6, 3), (6, 6)])
    def test_screen_rounding_stays_below_a_quarter_of_the_tolerance(self, m, s):
        # the screen sums H in another order than the scalar path; the flags
        # catch every rejection only while the two differ by less than tol/4
        space = make_space(m, s)
        n = space.n
        rng = np.random.default_rng(10 * m + s)
        models = [model_constant_sectional(space, Fraction(-7, 3)).to_float()]
        if m < 6:       # the exact m = 6 space form takes half a second to build
            models.append(model_complex_space_form(space, Fraction(5, 2)).to_float())
        randoms = [from_dense(space, scale * rng.standard_normal((n,) * 4),
                              symmetrize=True, bianchi_projection=True)
                   for scale in (1e-3, 1.0, 1e6)]
        nonisotropic = chain.from_iterable(constancy._probe_vectors(space, random.Random(m)))
        coords = [c.tolist() for c in islice(nonisotropic, 200)]
        for R in models + randoms:
            tol = constancy.FLOAT_VERDICT_TOL * component_scale(R.components)
            screen = constancy._holomorphic_screen(R, np.array(coords, dtype=float))
            scalar = [holomorphic_sectional(R, space.vector(c)) for c in coords]
            assert np.abs(screen - scalar).max() < tol / 4


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

    def test_negative_definite_space(self):
        # s = m: the triples are (-,-,-), the one realizable pattern of length 3
        sp33 = make_space(3, 3)
        for R, want in ((model_complex_space_form(sp33, 4), True),
                        (model_constant_sectional(sp33, 3), True),
                        (random_tensor(sp33, 23), False)):
            rep = lemma3_check(R, probes=10)
            assert (rep.condition_a, rep.condition_b, rep.condition_c) == (want,) * 3
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
