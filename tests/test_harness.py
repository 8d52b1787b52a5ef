import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curvlab.harness import (HypothesisError, THEOREM_IDS, _ladder, impose,
                             model_complex_space_form, model_constant_sectional,
                             probe_unboundedness, random_tensor, verify)
from curvlab.polarization import TPolynomial
from curvlab.constancy import constant_holomorphic
from curvlab.io_format import build_tensor, parse_document
from curvlab.spaces import GeometryError, gram_schmidt_tuple, make_space
from curvlab.tensors import failing_symmetries

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"


class TestImpose:
    def test_known_solution_dimensions(self, sp21, sp31, sp30):
        # dimensions cross-checked against an independent isometry-based
        # constraint construction
        assert impose(sp21, "eq1", seed=0).dimension == 13
        assert impose(sp31, "eq1", seed=0).dimension == 85
        assert impose(sp31, "thmA", seed=0).dimension == 31
        assert impose(sp30, "thm6", seed=0).dimension == 31
        assert impose(make_space(2, 0), "lemma2", seed=0).dimension == 13

    def test_seed_independent_dimension(self, sp21):
        dims = {impose(sp21, "eq1", seed=s).dimension for s in (0, 7, 99)}
        assert len(dims) == 1

    def test_models_lie_in_solution_spaces(self, sp21, sp31, sp30):
        sys1 = impose(sp21, "eq1", seed=1)
        assert sys1.condition_holds(model_constant_sectional(sp21, 3), seed=9)
        assert sys1.condition_holds(model_complex_space_form(sp21, 2), seed=9)
        sys6 = impose(sp30, "thm6", seed=1)
        assert sys6.condition_holds(model_complex_space_form(sp30, 4), seed=9)
        sysA = impose(sp31, "thmA", seed=1)
        assert sysA.condition_holds(model_complex_space_form(sp31, 4), seed=9)

    def test_basis_elements_satisfy_condition_on_fresh_probes(self, sp21):
        system = impose(sp21, "eq1", seed=2)
        for B in system.solution_basis:
            assert system.condition_holds(B, seed=123, count=30)

    def test_random_elements_pass_symmetries(self, sp31):
        system = impose(sp31, "thmA", seed=2)
        R = system.random_element(5)
        assert not failing_symmetries(R.components)
        for B in system.solution_basis:
            assert not failing_symmetries(B.components)

    def test_generic_tensor_violates_conditions(self, sp21):
        system = impose(sp21, "eq1", seed=3)
        R = random_tensor(sp21, 3)
        assert not system.condition_holds(R, seed=11, count=5)

    def test_unknown_condition(self, sp21):
        with pytest.raises(GeometryError):
            impose(sp21, "nope", seed=0)

    @pytest.mark.parametrize("cond,m,s", [
        ("eq1", 2, 0),          # needs indefinite
        ("thmA", 2, 1),         # needs m > 2
        ("thmA", 3, 0),         # needs isotropic planes
        ("thm6", 3, 1),         # needs definite
        ("lemma2", 3, 2),       # needs two positive blocks
    ])
    def test_hypothesis_violations(self, cond, m, s):
        with pytest.raises(HypothesisError):
            impose(make_space(m, s), cond, seed=0)

    def test_deterministic(self, sp21):
        a = impose(sp21, "eq1", seed=4)
        b = impose(sp21, "eq1", seed=4)
        assert a.rank == b.rank and a.dimension == b.dimension
        for Ba, Bb in zip(a.solution_basis, b.solution_basis):
            assert (Ba.components == Bb.components).all()


class TestProbeUnboundedness:
    def test_constant_model_reports_exact_bound(self, sp21):
        rep = probe_unboundedness(model_constant_sectional(sp21, 3))
        assert not rep.exceeded and rep.max_abs == 3.0

    def test_space_form_bound(self, sp21):
        rep = probe_unboundedness(model_complex_space_form(sp21, 2))
        assert not rep.exceeded and rep.max_abs == 2.0

    def test_tiny_threshold_crosses_immediately(self, sp21):
        rep = probe_unboundedness(model_constant_sectional(sp21, 3), threshold=1e-9)
        assert rep.exceeded and rep.evaluations == 1

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -1.0])
    def test_degenerate_threshold_rejected(self, sp21, threshold):
        # NaN never compares above, inf is never crossed, and a threshold <= 0
        # is crossed by every value, so none of them tests a bound
        with pytest.raises(GeometryError):
            probe_unboundedness(random_tensor(sp21, 1), threshold=threshold)

    def test_empty_kinds_rejected(self, sp21):
        # a bounded verdict from zero evaluations would assert nothing
        with pytest.raises(GeometryError):
            probe_unboundedness(random_tensor(sp21, 1), kinds=[])
        rep = probe_unboundedness(model_constant_sectional(sp21, 3), budget=(2, 3),
                                  kinds=iter(["holomorphic"]))
        assert rep.evaluations == 2 * 3

    def test_unknown_kind_rejected(self, sp21):
        with pytest.raises(GeometryError, match="unknown probe kind"):
            probe_unboundedness(random_tensor(sp21, 1), kinds=["antiholomorphic"])

    def test_random_tensor_crosses_with_reverifiable_witness(self, sp21):
        for seed in range(5):
            R = random_tensor(sp21, 800 + seed)
            rep = probe_unboundedness(R, seed=seed)
            assert rep.exceeded
            w = rep.witness
            # exact recomputation reproduces the stored value exactly
            assert w.reverify(R) == w.value
            # float recomputation agrees to 1e-6 relative
            got = float(w.reverify(R.to_float()))
            assert abs(got - float(w.value)) <= 1e-6 * max(1.0, abs(float(w.value)))

    def test_crossing_parameter_approaches_one(self, sp21):
        R = random_tensor(sp21, 33)
        rep = probe_unboundedness(R, seed=1)
        assert rep.exceeded and abs(float(rep.witness.t) - 1) < 0.25

    def test_float_tensor_refused(self, sp21):
        # rungs are exact; float cancellation near t = 1 would read as a blow-up
        for model in (model_constant_sectional(sp21, 3), model_complex_space_form(sp21, 2)):
            with pytest.raises(GeometryError, match="exact"):
                probe_unboundedness(model.to_float())

    def test_definite_space_rejected(self, sp30):
        with pytest.raises(GeometryError):
            probe_unboundedness(model_constant_sectional(sp30, 1))

    def test_unrealizable_kind_rejected(self, sp21):
        with pytest.raises(GeometryError):
            probe_unboundedness(random_tensor(sp21, 1), kinds=["antiholomorphic:(+,+)"])

    def test_antiholomorphic_kinds_on_m3(self, sp31):
        R = random_tensor(sp31, 34)
        for kind in ("antiholomorphic:(+,+)", "antiholomorphic:(+,-)", "biholomorphic"):
            rep = probe_unboundedness(R, seed=2, kinds=[kind])
            assert rep.exceeded and rep.witness.kind == kind
            got = float(rep.witness.reverify(R.to_float()))
            assert abs(got - float(rep.witness.value)) <= 1e-6 * max(1.0, abs(float(rep.witness.value)))

    def test_bounded_report_budget(self, sp21):
        rep = probe_unboundedness(model_constant_sectional(sp21, 3), budget=(4, 10))
        assert rep.evaluations == 4 * 10

    @pytest.mark.parametrize("budget", [(0, 40), (64, 0), (-1, 40), (64, -1)])
    def test_empty_budget_rejected(self, budget):
        # a bounded verdict from zero evaluations would assert nothing
        R = build_tensor(parse_document((GOLDEN / "random_2_1.tensor").read_text()))
        with pytest.raises(GeometryError):
            probe_unboundedness(R, budget=budget)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)),
                    max_size=5),
           st.sampled_from([1, 2]), st.sampled_from([1, -1]), st.integers(1, 60))
    def test_integer_rungs_are_the_fraction_rungs(self, coeffs, multiplicity, step, rungs):
        # degree up to 4; the zero polynomial included
        poly = TPolynomial.of(coeffs)
        ladder = list(_ladder(poly, multiplicity, step, rungs))
        assert len(ladder) == rungs
        for k, (a, b, num, den) in enumerate(ladder, start=1):
            t = 1 + Fraction(step, 2 ** k)
            value = poly(t) / (1 - t * t) ** multiplicity
            assert Fraction(a, b) == t and Fraction(num, den) == value
            # bit for bit, the sign of a zero included
            assert (num / den).hex() == float(value).hex()

    def test_deterministic_for_seed(self, sp21):
        R = random_tensor(sp21, 35)
        r1 = probe_unboundedness(R, seed=3)
        r2 = probe_unboundedness(R, seed=3)
        assert float(r1.witness.value) == float(r2.witness.value)
        assert r1.witness.t == r2.witness.t


class TestVerify:
    @pytest.mark.parametrize("tid,m,s", [
        ("lemma1", 2, 1), ("thm1", 2, 1),
        ("lemma2", 2, 0), ("thm5", 2, 0),
    ])
    def test_small_space_theorems_pass(self, tid, m, s):
        report = verify(tid, make_space(m, s), trials=4, seed=5)
        assert report.passed, report.items

    @pytest.mark.parametrize("tid,m,s", [
        ("thmA", 3, 1), ("thm2", 3, 1), ("thm3", 3, 1), ("thm4", 3, 1),
        ("thm6", 3, 0), ("thm7", 3, 0), ("remark1", 3, 1),
    ])
    def test_m3_theorems_pass(self, tid, m, s):
        report = verify(tid, make_space(m, s), trials=2, seed=5)
        assert report.passed, report.items

    def test_unknown_id(self, sp21):
        with pytest.raises(GeometryError):
            verify("thm99", sp21)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, sp21, trials):
        # a pass after checking no trial would assert nothing
        with pytest.raises(GeometryError):
            verify("lemma1", sp21, trials=trials)

    @pytest.mark.parametrize("tid,m,s", [
        ("lemma1", 2, 0), ("thm1", 1, 0), ("thmA", 2, 1),
        ("thm5", 2, 1), ("thm7", 3, 1), ("thm2", 2, 1),
    ])
    def test_hypothesis_violations(self, tid, m, s):
        with pytest.raises(HypothesisError):
            verify(tid, make_space(m, s), trials=1)

    def test_failure_payload_reverifies(self, sp21):
        # starve the probe so a nonconstant tensor cannot cross: the report
        # must fail and carry re-checkable evidence
        report = verify("thm1", sp21, trials=2, seed=5, threshold=1e300)
        assert not report.passed
        R, probe_rep = report.payload
        assert not constant_holomorphic(R).is_constant
        again = probe_unboundedness(R, threshold=1e300, seed=5 + 0,
                                    kinds=["holomorphic"])
        assert not again.exceeded and again.max_abs == probe_rep.max_abs

    def test_catalog_is_complete(self):
        assert set(THEOREM_IDS) == {"lemma1", "lemma2", "thmA", "thm1", "thm2",
                                    "thm3", "thm4", "thm5", "thm6", "thm7",
                                    "remark1"}


class TestLowestDimensionDefiniteRelations:
    def test_five_three_relation_pair(self, sp20):
        # solutions of the definite mixed-pair identity satisfy the paired
        # 5/3-weighted relations used in the m = 2 reduction
        system = impose(sp20, "lemma2", seed=6)
        J = sp20.apply_J
        for i in range(5):
            R = system.random_element(900 + i)
            for k in range(10):
                x, y = gram_schmidt_tuple(sp20, 5000 + k, (1, 1), antiholomorphic=True)
                lhs1 = 5 * (R.eval(x, J(x), J(x), y) + R.eval(x, J(x), J(y), x))
                rhs1 = 3 * (R.eval(x, J(y), J(y), y) + R.eval(y, J(y), J(x), y))
                lhs2 = 3 * (R.eval(x, J(x), J(x), y) + R.eval(x, J(x), J(y), x))
                rhs2 = 5 * (R.eval(x, J(y), J(y), y) + R.eval(y, J(y), J(x), y))
                assert lhs1 == rhs1 and lhs2 == rhs2
