"""Pinching families on integer frames against the `Fraction` expansions.

`probe_unboundedness` and the CLI's `expand` draw each frame as Python-int
rows N over one D (`integer_frame`) and read the family's numerator as
integer coefficients over one denominator.  The references are the
`Fraction` paths they replaced: the `tuple_from_rng` vectors of the same
draw, expanded by `polarization.expand` and the `*_family_expansion`
functions.  The pinned reports were recorded with the `Fraction` loop.
"""

import functools
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curvlab.harness import (PROBE_KINDS, _family_for, model_complex_space_form,
                             model_constant_sectional, probe_unboundedness, random_tensor)
from curvlab.polarization import (TPolynomial, VectorFamily, bound_forced_identities,
                                  complexified_family_expansion, complexified_frame_expansion,
                                  expand, holomorphic_family_expansion,
                                  holomorphic_frame_expansion)
from curvlab.spaces import integer_frame, make_space, realizable, tuple_from_rng

SIGNATURES = [(m, s) for m in range(1, 5) for s in range(m + 1)]


@functools.lru_cache(maxsize=None)
def tensor(m, s, seed):
    return random_tensor(make_space(m, s), seed)


def reference_family(R, row, tup):
    """The numerator of `row`'s family through the `Fraction` tuple, as
    `polarization.expand` gives it."""
    J = R.space.apply_J
    base, *partner, direction = tup
    u = VectorFamily.affine(base, direction)
    Ju = VectorFamily.affine(J(base), J(direction))
    if partner:
        v, Jv = VectorFamily.constant(partner[0]), VectorFamily.constant(J(partner[0]))
    else:
        v = Ju
    return expand(R, *((u, Ju, Jv, v) if row.biholomorphic else (u, v, v, u)))


def over(poly, D):
    return TPolynomial.of([Fraction(c, D) for c in poly.coeffs])


@pytest.mark.parametrize("m,s", SIGNATURES)
@settings(max_examples=8, deadline=None)
@given(tensor_seed=st.integers(0, 3), frame_seed=st.integers(0, 10 ** 6))
def test_integer_families_are_the_fraction_expansions(m, s, tensor_seed, frame_seed):
    R = tensor(m, s, tensor_seed)
    space = R.space
    for kind, row in PROBE_KINDS.items():
        if not realizable(space, row.pattern):
            continue
        N, D = integer_frame(space, random.Random(frame_seed), row.pattern, antiholomorphic=True)
        tup = tuple_from_rng(space, random.Random(frame_seed), row.pattern, antiholomorphic=True)
        poly, den = _family_for(R, row, N, D)
        assert all(type(c) is int for c in poly.coeffs) and type(den) is int and den > 0
        assert over(poly, den) == reference_family(R, row, tup), kind
    for pattern, frame_expansion, family_expansion in (
            ((1, -1), holomorphic_frame_expansion, holomorphic_family_expansion),
            ((1, 1), complexified_frame_expansion, complexified_family_expansion)):
        if not realizable(space, pattern) or (pattern == (1, 1) and space.is_indefinite):
            continue
        N, D = integer_frame(space, random.Random(frame_seed), pattern, antiholomorphic=True)
        x, w = tuple_from_rng(space, random.Random(frame_seed), pattern, antiholomorphic=True)
        poly, den = frame_expansion(R, N, D)
        reference = family_expansion(R, x, w)
        assert over(poly, den) == reference
        # the bound's values are linear: the integer ones over den
        assert ([Fraction(v, den) for v in bound_forced_identities(poly)]
                == bound_forced_identities(reference))


def test_every_probe_kind_and_family_is_reached():
    kinds = {kind for m, s in SIGNATURES for kind, row in PROBE_KINDS.items()
             if realizable(make_space(m, s), row.pattern)}
    assert kinds == set(PROBE_KINDS)
    assert any(s == 0 and m >= 2 for m, s in SIGNATURES)       # complexified
    assert any(0 < s < m for m, s in SIGNATURES)               # holomorphic


def render(report):
    """Every `ProbeReport` field, max_abs as its bits and the witness vectors
    as a digest of their reduced entries."""
    w = report.witness
    witness = None if w is None else (
        w.kind, str(w.t), str(w.value),
        hashlib.sha256(repr(([str(x) for x in w.u], [str(x) for x in w.v])).encode())
        .hexdigest()[:16])
    return (report.exceeded, report.max_abs.hex(), report.evaluations, report.max_kind,
            report.threshold, witness)


MODELS = {"random": random_tensor, "space-form": model_complex_space_form,
          "constant": model_constant_sectional}

# (model, (m, s), seed or c, probe keywords) -> the rendered report, recorded
# with the `Fraction` tuples and expansions
PINNED_REPORTS = [
    ("random", (2, 1), 7, {},
     (True, '0x1.ab29e991892aep+20', 10, 'holomorphic', 1000000.0,
      ('holomorphic', '1023/1024', '303741487066889633928375967/173600034320144203776',
       '6911afa4c2750493'))),
    ("random", (3, 1), 11, {'seed': 2},
     (True, '0x1.265b131fca58fp+21', 6, 'holomorphic', 1000000.0,
      ('holomorphic', '63/64', '-65633318712475345796886590917073896770926194987/'
       '27218355470099722451250000000000000000000', 'ff304e7d0d2358ff'))),
    ("random", (3, 1), 11, {'seed': 1, 'kinds': ['biholomorphic']},
     (True, '0x1.b45892e8f957fp+20', 25, 'biholomorphic', 1000000.0,
      ('biholomorphic', '33554431/33554432',
       '1062057137368113204471253051/594233242089994955136', '58ed864055c2e297'))),
    ("random", (3, 1), 5, {'seed': 4, 'kinds': ['antiholomorphic:(+,-)']},
     (True, '0x1.710137739d3a0p+20', 20, 'antiholomorphic:(+,-)', 1000000.0,
      ('antiholomorphic:(+,-)', '1048577/1048576', '-127454949949172440628161552340427826649/'
       '84326640618305638800000000000000', 'b846353d40bd9cbf'))),
    ("random", (3, 2), 3, {'seed': 6, 'kinds': ['antiholomorphic:(-,-)']},
     (True, '0x1.620f05cbf0685p+20', 18, 'antiholomorphic:(-,-)', 1000000.0,
      ('antiholomorphic:(-,-)', '262143/262144',
       '1174005667648388938020515387/809533819853022151680', '457d091aa4d68a81'))),
    ("random", (3, 2), 3, {'threshold': 1e300, 'budget': (3, 40), 'seed': 1},
     (False, '0x1.9c0112b173515p+85', 240, 'holomorphic', 1e300, None)),
    ("random", (4, 2), 9, {'threshold': 1e300, 'budget': (2, 30), 'seed': 5},
     (False, '0x1.8866c939975a8p+58', 300, 'holomorphic', 1e300, None)),
    ("space-form", (3, 1), 2, {'budget': (8, 12), 'seed': 3},
     (False, '0x1.0000000000000p+1', 384, 'holomorphic', 1000000.0, None)),
    ("constant", (4, 1), 3, {'threshold': 1e300, 'budget': (2, 40), 'seed': 9},
     (False, '0x1.8000000000000p+1', 320, 'holomorphic', 1e300, None)),
]


@pytest.mark.parametrize("model,sig,arg,kwargs,expected", PINNED_REPORTS)
def test_pinned_probe_reports(model, sig, arg, kwargs, expected):
    R = MODELS[model](make_space(*sig), arg)
    assert render(probe_unboundedness(R, **kwargs)) == expected
