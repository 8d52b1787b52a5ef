"""Pinching families on integer frames against `polarization.expand`.

Every pinching family is one row of `polarization.FAMILIES`, expanded on
`integer_frame`'s Python-int rows N over one D by `family_numerators`:
`probe_unboundedness`, the CLI's `expand` and the definite-case bounds of
thm5 and thm7 all read their numerators there.  The reference does not go
through the table: the `tuple_from_rng` `Fraction` vectors of the same
draw, with J applied by `space.apply_J`, put into each family's slots here
and expanded by `polarization.expand`.  `holomorphic_family_expansion` and
`complexified_family_expansion`, the table's exact adapters, are checked
against the same reference and must refuse float input.  The pinned
reports were recorded with the `Fraction` loop the integer one replaced.
"""

import functools
import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab.harness import (PROBE_KINDS, model_complex_space_form, model_constant_sectional,
                             probe_unboundedness, random_tensor)
from curvlab.polarization import (FAMILIES, TPolynomial, VectorFamily, bound_forced_identities,
                                  complexified_family_expansion, expand, family_numerators,
                                  holomorphic_family_expansion)
from curvlab.spaces import (GeometryError, canonical_complex_structure, integer_frame,
                            make_space, realizable, tuple_from_rng)

SIGNATURES = [(m, s) for m in range(1, 5) for s in range(m + 1)]

# every family on its own frame signs, and each probe kind on its own
CASES = sorted({(name, row.pattern) for name, row in FAMILIES.items()}
               | {(row.family, row.pattern) for row in PROBE_KINDS.values()})

ADAPTERS = {"holomorphic": holomorphic_family_expansion,
            "complexified": complexified_family_expansion}

affine, constant, imaginary = VectorFamily.affine, VectorFamily.constant, VectorFamily.imaginary

# each family's four slots on the Fraction frame, J applied to the vectors
REFERENCE_SLOTS = {
    "holomorphic": lambda J, x, a: (affine(x, a), affine(J(x), J(a)),
                                    affine(J(x), J(a)), affine(x, a)),
    "complexified": lambda J, x, y: (imaginary(x, y), imaginary(J(x), J(y)),
                                     imaginary(J(x), J(y)), imaginary(x, y)),
    "antiholomorphic": lambda J, b, v, d: (affine(b, d), constant(v),
                                           constant(v), affine(b, d)),
    "biholomorphic": lambda J, b, v, d: (affine(b, d), affine(J(b), J(d)),
                                         constant(J(v)), constant(v)),
    "complexified-antiholomorphic": lambda J, x, y, z: (constant(x), imaginary(y, z),
                                                        imaginary(y, z), constant(x)),
}


@functools.lru_cache(maxsize=None)
def tensor(m, s, seed):
    return random_tensor(make_space(m, s), seed)


def reference_family(R, family, tup):
    """The real numerator of `family` through the `Fraction` tuple, as
    `polarization.expand` gives it."""
    p = expand(R, *REFERENCE_SLOTS[family](R.space.apply_J, *tup))
    return TPolynomial.of([c.real for c in p.coeffs])


def over(poly, D):
    return TPolynomial.of([Fraction(c, D) for c in poly.coeffs])


def test_the_reference_covers_every_family():
    assert set(REFERENCE_SLOTS) == set(FAMILIES)


@pytest.mark.parametrize("m,s", SIGNATURES)
@settings(max_examples=8, deadline=None)
@given(tensor_seed=st.integers(0, 3), frame_seed=st.integers(0, 10 ** 6))
def test_integer_families_are_the_fraction_expansions(m, s, tensor_seed, frame_seed):
    R = tensor(m, s, tensor_seed)
    space = R.space
    for family, pattern in CASES:
        if not realizable(space, pattern):
            continue
        N, D = integer_frame(space, random.Random(frame_seed), pattern, antiholomorphic=True)
        tup = tuple_from_rng(space, random.Random(frame_seed), pattern, antiholomorphic=True)
        poly, den = family_numerators(R, family, N, D)
        assert all(type(c) is int for c in poly.coeffs) and type(den) is int and den > 0
        reference = reference_family(R, family, tup)
        assert over(poly, den) == reference, (family, pattern)
        # the bound's values are linear: the integer ones over den
        assert ([Fraction(v, den) for v in bound_forced_identities(poly)]
                == bound_forced_identities(reference))
        if family in ADAPTERS and pattern == FAMILIES[family].pattern and not (
                family == "complexified" and space.is_indefinite):
            assert ADAPTERS[family](R, *tup) == reference


def test_every_probe_kind_and_family_is_reached():
    reached = {case for m, s in SIGNATURES for case in CASES
               if realizable(make_space(m, s), case[1])}
    assert reached == set(CASES)
    assert {row.pattern for row in PROBE_KINDS.values()} <= {pattern for _, pattern in CASES}
    # the definite-case rows on definite spaces
    assert realizable(make_space(2, 0), FAMILIES["complexified"].pattern)
    assert realizable(make_space(3, 0), FAMILIES["complexified-antiholomorphic"].pattern)


@pytest.mark.parametrize("family,sig", [("holomorphic", (2, 1)), ("complexified", (2, 0))])
def test_family_expansions_are_exact_only(family, sig):
    R = tensor(*sig, 0)
    x, w = tuple_from_rng(R.space, random.Random(5), FAMILIES[family].pattern,
                          antiholomorphic=True)
    expansion = ADAPTERS[family]
    assert expansion(R, x, w) == reference_family(R, family, (x, w))
    with pytest.raises(GeometryError, match="exact rational tensor"):
        expansion(R.to_float(), x, w)
    # float vectors pass the pair check within tolerance, then are refused
    with pytest.raises(GeometryError, match="rational vectors"):
        expansion(R, np.array(x, dtype=float), np.array(w, dtype=float))


def _rotated_J_space():
    """(2, 0) with J = P J0 P^T, P the (3/5, 4/5) rotation of e_0 and e_2:
    a g-compatible J with a denominator, and the pair (P e_0, P e_2), which
    is antiholomorphic for it."""
    P = np.eye(4, dtype=object) * Fraction(1)
    P[0, 0] = P[2, 2] = Fraction(3, 5)
    P[2, 0], P[0, 2] = Fraction(4, 5), Fraction(-4, 5)
    J = P.dot(canonical_complex_structure(2)).dot(P.T)
    return make_space(2, 0, J=J.tolist()), P[:, 0], P[:, 2]


def test_families_take_a_rational_J():
    space, x, y = _rotated_J_space()
    assert space.J_form[1] > 1
    R = random_tensor(space, 4)
    assert complexified_family_expansion(R, x, y) == reference_family(R, "complexified", (x, y))


def test_families_take_the_canonical_J_as_fractions():
    # a document's custom J block that spells out the canonical J
    space = make_space(2, 1, J=[[Fraction(v) for v in row]
                                for row in canonical_complex_structure(2)])
    R, R0 = random_tensor(space, 3), random_tensor(make_space(2, 1), 3)
    assert space.has_canonical_J and space.J_form[1] == 1
    assert (render(probe_unboundedness(R, budget=(4, 10)))
            == render(probe_unboundedness(R0, budget=(4, 10))))
    N, D = integer_frame(space, random.Random(1), (1, -1), antiholomorphic=True)
    assert family_numerators(R, "holomorphic", N, D) == family_numerators(R0, "holomorphic", N, D)


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
