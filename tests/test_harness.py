import dataclasses
import pathlib
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from curvlab import harness
from curvlab.harness import (HypothesisError, THEOREM_IDS, _ladder, impose,
                             model_complex_space_form, model_constant_sectional,
                             probe_unboundedness, random_tensor, verify)
from curvlab.polarization import TPolynomial
from curvlab.constancy import ConstancyVerdict, constant_holomorphic
from curvlab.io_format import build_tensor, parse_document
from curvlab.scalars import integerize
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
           st.sampled_from([1, 2]), st.sampled_from([1, -1]), st.integers(1, 60),
           st.integers(1, 10 ** 6))
    def test_integer_rungs_are_the_fraction_rungs(self, coeffs, multiplicity, step, rungs,
                                                  extra):
        # degree up to 4; the zero polynomial included; the numerators over
        # any common denominator, not only the least one
        poly = TPolynomial.of(coeffs)
        numerators, D = integerize(poly.coeffs)
        ladder = list(_ladder([n * extra for n in numerators], D * extra,
                              multiplicity, step, rungs))
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
        assert not report.passed and report.status == "fail"
        # the two model checks pass; both trials fail, and both are reported
        assert len(report.items) == 4
        assert all("NO crossing" in item for item in report.items[2:])
        R, probe_rep = report.payload
        # the evidence is the first trial's
        assert (R.components == random_tensor(sp21, 5 * 1_000_003 + 0).components).all()
        assert not constant_holomorphic(R).is_constant
        again = probe_unboundedness(R, threshold=1e300, seed=5 + 0,
                                    kinds=["holomorphic"])
        assert again == probe_rep and not again.exceeded

    def test_starved_remark1_payload_is_the_first_kind_trial(self, sp31):
        report = verify("remark1", sp31, trials=1, seed=3, threshold=1e300)
        assert report.status == "fail"
        kinds = ["antiholomorphic:(+,+)", "antiholomorphic:(+,-)"]
        # every realizable kind keeps its two model checks and its trial
        assert [item.split(" :: ")[0] for item in report.items] == [k for k in kinds
                                                                   for _ in range(3)]
        assert all("NO crossing" in report.items[i] for i in (2, 5))
        R, probe_rep = report.payload
        first = random_tensor(sp31, 3 * 1_000_003 + 0)
        assert (R.components == first.components).all()
        assert probe_rep == probe_unboundedness(first, threshold=1e300, seed=3,
                                                kinds=kinds[:1])

    @staticmethod
    def _recording(status):
        """A classifier giving `status` on every tensor, with its calls and verdicts."""
        calls, verdicts = [], []

        def classify(R):
            calls.append(R)
            verdicts.append(ConstancyVerdict(status))
            return verdicts[-1]
        return classify, calls, verdicts

    def test_hypothesis_payload_is_the_first_failing_trial(self, sp21, monkeypatch):
        classify, calls, verdicts = self._recording("nonconstant")
        monkeypatch.setitem(harness._THEOREMS, "lemma1",
                            harness._hypothesis("eq1", classify, "H"))
        report = verify("lemma1", sp21, trials=3, seed=2)
        assert report.status == "fail"
        assert report.items[0].startswith("constraint rank = ")
        assert report.items[1:] == tuple(f"trial {i}: H NONCONSTANT" for i in range(3))
        assert len(calls) == 3
        assert report.payload[0] is calls[0] and report.payload[1] is verdicts[0]

    def test_remark1_classifies_each_trial_tensor_once(self, sp31, monkeypatch):
        expected = verify("remark1", sp31, trials=2, seed=3).items
        calls = []

        def classify(R):
            calls.append(R)
            return harness.constant_antiholomorphic(R)
        kinds = ("antiholomorphic:(+,+)", "antiholomorphic:(+,-)", "antiholomorphic:(-,-)")
        monkeypatch.setitem(harness._THEOREMS, "remark1", harness._Theorem(
            harness._THEOREMS["remark1"].needs,
            partial(harness._run_dichotomy, kinds, classify, None)))
        report = verify("remark1", sp31, trials=2, seed=3)
        # each realizable kind in turn, with its two models and two trials
        assert [item.split(" :: ")[0] for item in report.items] == [k for k in kinds[:2]
                                                                   for _ in range(4)]
        assert report.items == expected
        assert len(calls) == 2
        for i, R in enumerate(calls):
            assert (R.components == random_tensor(sp31, 3 * 1_000_003 + i).components).all()

    def test_definite_bound_payload_is_the_first_failing_trial(self, sp20, monkeypatch):
        # nonconstant tensors break the bound, which a constant verdict forbids
        classify, calls, verdicts = self._recording("constant")
        row = dataclasses.replace(harness._DEFINITE_HOLOMORPHIC, classifier=classify)
        monkeypatch.setitem(harness._THEOREMS, "thm5", harness._Theorem(
            harness._THEOREMS["thm5"].needs, partial(harness._run_definite_bound, row)))
        report = verify("thm5", sp20, trials=2, seed=3)
        assert report.status == "fail"
        assert report.items[0].endswith(": True")          # the model check passes
        assert report.items[1:] == tuple(f"trial {i}: H constant; all pairs "
                                         "bound-compatible = False" for i in range(2))
        assert len(calls) == 2
        assert report.payload[0] is calls[0] and report.payload[1] is verdicts[0]

    @pytest.mark.parametrize("theorem,row,sp,expected", [
        ("thm5", "_DEFINITE_HOLOMORPHIC", (2, 0), (4, 0, -8, 0, 4)),
        ("thm7", "_DEFINITE_ANTIHOLOMORPHIC", (3, 0), (1, 0, -1))])
    def test_definite_bound_model_payload_is_the_fraction_expansion(
            self, monkeypatch, theorem, row, sp, expected):
        # a wrong model expectation: the payload is the model and its exact expansion
        row = dataclasses.replace(getattr(harness, row), model_coeffs=lambda c: (c,))
        monkeypatch.setitem(harness._THEOREMS, theorem, harness._Theorem(
            harness._THEOREMS[theorem].needs, partial(harness._run_definite_bound, row)))
        report = verify(theorem, make_space(*sp), trials=1, seed=3)
        assert report.status == "fail" and report.items[0].endswith(": False")
        model, p = report.payload
        c4 = harness.model_complex_space_form(model.space, 4)
        assert (model.components == c4.components).all()
        assert p == TPolynomial.of(expected) and all(type(c) is Fraction for c in p.coeffs)

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
