"""The classifiers' integer-frame probing against the `Fraction` loops it replaced.

`constant_antiholomorphic`, `constant_biholomorphic` and `lemma3_check`
evaluate their probes on integer frames (N, D).  The references below are
the loops they replaced, kept here as oracles: one `Fraction` tuple per
probe from `tuple_from_rng`, and `sectional` and `eval` on it.  Both must
give the same verdicts, values and witnesses, floats bit for bit.
"""

import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab import constancy
from curvlab.constancy import (ConstancyVerdict, Witness, constant_antiholomorphic,
                               constant_biholomorphic, lemma3_check)
from curvlab.harness import model_complex_space_form, model_constant_sectional, random_tensor
from curvlab.spaces import make_space, tuple_from_rng
from curvlab.tensors import CurvatureTensor, sectional


def reference_antiholomorphic(R, probes, seed):
    space, rng = R.space, random.Random(seed)
    same, zero = constancy._comparators(R)
    plane0 = val0 = a_violation = None
    for pattern in constancy._sign_patterns(space, 3):
        for _ in range(probes):
            u, v, w = tuple_from_rng(space, rng, pattern, antiholomorphic=True)
            for (p, q, r) in ((u, v, w), (v, w, u), (w, u, v)):
                if a_violation is None and not zero(R.eval(p, q, r, p)):
                    a_violation = (p, q, r)
                val = sectional(R, p, q)
                if plane0 is None:
                    plane0, val0 = (p, q), val
                elif not same(val, val0):
                    return ConstancyVerdict("nonconstant", witness=Witness(
                        "antiholomorphic", planes=(plane0, (p, q)), values=(val0, val)))
    if a_violation is not None:
        wit = constancy._derive_plane_witness(R, same, *a_violation)
        if wit is not None:
            return ConstancyVerdict("nonconstant", witness=wit)
    return ConstancyVerdict("constant", value=val0)


def reference_biholomorphic(R, probes, seed):
    space, rng = R.space, random.Random(seed)
    same, _ = constancy._comparators(R)
    J = space.apply_J
    plane0 = val0 = None
    for pattern in constancy._sign_patterns(space, 2):
        for _ in range(probes):
            u, v = tuple_from_rng(space, rng, pattern, antiholomorphic=True)
            val = R.eval(u, J(u), J(v), v) * pattern[0] * pattern[1]
            if plane0 is None:
                plane0, val0 = (u, v), val
            elif not same(val, val0):
                return ConstancyVerdict("nonconstant", witness=Witness(
                    "biholomorphic", planes=(plane0, (u, v)), values=(val0, val)))
    return ConstancyVerdict("constant", value=val0)


def reference_lemma3(R, probes, seed):
    """(a, b, witness_a, witness_b) of the a/b loop on a definite space."""
    rng = random.Random(seed)
    same, zero = constancy._comparators(R)
    a_ok = b_ok = True
    wit_a = wit_b = None
    (pattern,) = constancy._sign_patterns(R.space, 3)
    for _ in range(probes):
        u, v, w = tuple_from_rng(R.space, rng, pattern, antiholomorphic=True)
        for (p, q, r) in ((u, v, w), (v, w, u), (w, u, v)):
            aval = R.eval(p, q, r, p)
            if a_ok and not zero(aval):
                a_ok, wit_a = False, ((p, q, r), aval)
            k1, k2 = sectional(R, p, q), sectional(R, p, r)
            if b_ok and not same(k1, k2):
                b_ok, wit_b = False, ((p, q, r), k1, k2)
    return a_ok, b_ok, wit_a, wit_b


def bits(x):
    """A value with its type, floats by their exact bits."""
    return (type(x).__name__, x.hex() if isinstance(x, float) else x)


def assert_same_vectors(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert all(type(x) is Fraction for x in a)
        assert (np.asarray(a) == np.asarray(b)).all()


def assert_same_verdict(got, want):
    assert got.status == want.status
    assert bits(got.value) == bits(want.value)
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert got.witness.kind == want.witness.kind
        assert list(map(bits, got.witness.values)) == list(map(bits, want.witness.values))
        assert len(got.witness.planes) == len(want.witness.planes)
        for a, b in zip(got.witness.planes, want.witness.planes):
            assert_same_vectors(a, b)


SIGNATURES = [(3, 0), (3, 1), (3, 2), (4, 2)]
KINDS = ("random", "constant", "space-form", "sum")


@functools.lru_cache(maxsize=None)
def tensor(m, s, kind, seed):
    space = make_space(m, s)
    if kind == "random":
        return random_tensor(space, seed)
    a = Fraction(seed % 7 - 3, seed % 5 + 1)
    A, B = model_constant_sectional(space, a), model_complex_space_form(space, a + 2)
    if kind == "constant":
        return A
    if kind == "space-form":
        return B
    return CurvatureTensor(space, A.components + B.components, bianchi=True)


cases = st.tuples(st.sampled_from(SIGNATURES), st.sampled_from(KINDS), st.integers(0, 3),
                  st.booleans(), st.integers(1, 8), st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None)
@given(cases)
def test_classifiers_agree_with_the_fraction_loops(case):
    (m, s), kind, tensor_seed, exact, probes, seed = case
    R = tensor(m, s, kind, tensor_seed)
    if not exact:
        R = R.to_float()
    assert_same_verdict(constant_antiholomorphic(R, probes=probes, seed=seed),
                        reference_antiholomorphic(R, probes, seed))
    assert_same_verdict(constant_biholomorphic(R, probes=probes, seed=seed),
                        reference_biholomorphic(R, probes, seed))


@pytest.mark.parametrize("m,s", SIGNATURES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("exact", [True, False])
def test_every_kind_agrees_at_the_default_seed(m, s, kind, exact):
    R = tensor(m, s, kind, 1)
    if not exact:
        R = R.to_float()
    for classifier, reference in ((constant_antiholomorphic, reference_antiholomorphic),
                                  (constant_biholomorphic, reference_biholomorphic)):
        verdict = classifier(R, probes=10)
        assert_same_verdict(verdict, reference(R, 10, 0))
        assert verdict.is_constant == (kind != "random")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 0), (3, 3), (4, 0)]), st.sampled_from(KINDS), st.integers(0, 3),
       st.booleans(), st.integers(1, 6), st.integers(0, 2 ** 16))
def test_lemma3_agrees_with_the_fraction_loop(sig, kind, tensor_seed, exact, probes, seed):
    R = tensor(*sig, kind, tensor_seed)
    if not exact:
        R = R.to_float()
    rep = lemma3_check(R, probes=probes, seed=seed)
    a_ok, b_ok, wit_a, wit_b = reference_lemma3(R, probes, seed)
    assert (rep.condition_a, rep.condition_b) == (a_ok, b_ok)
    for got, want in ((rep.witness_a, wit_a), (rep.witness_b, wit_b)):
        assert (got is None) == (want is None)
        if want is not None:
            assert_same_vectors(got[0], want[0])
            assert list(map(bits, got[1:])) == list(map(bits, want[1:]))
    assert_same_verdict(rep.verdict_c, reference_antiholomorphic(R, probes, seed))
