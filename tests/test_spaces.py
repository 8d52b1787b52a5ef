import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from curvlab.scalars import ExactComplex
from curvlab.spaces import (ComplexVector, DependentVectorsError,
                            DimensionMismatch, GeometryError,
                            InvariantViolation, UnrealizablePatternError,
                            canonical_complex_structure,
                            classify_plane, gram_schmidt_tuple, make_space,
                            random_isometry, realizable,
                            require_antiholomorphic_pair, tuple_from_rng)

from conftest import rand_vector


class TestMakeSpace:
    def test_signature_layout(self):
        sp = make_space(2, 1)
        assert sp.metric_signs == (-1, -1, 1, 1)
        assert sp.apply_J(sp.basis_vector(0))[1] == 1

    def test_definite_and_negative_definite(self):
        assert make_space(1, 0).metric_signs == (1, 1)
        assert make_space(3, 3).metric_signs == (-1,) * 6

    @pytest.mark.parametrize("m,s", [(0, 0), (2, -1), (2, 3), (7, 0), (40, 1)])
    def test_rejects_bad_parameters(self, m, s):
        with pytest.raises(GeometryError):
            make_space(m, s)

    def test_custom_J_must_square_to_minus_id(self):
        J = np.eye(4, dtype=int).tolist()
        with pytest.raises(InvariantViolation) as exc:
            make_space(2, 0, J=J)
        assert exc.value.invariant == "J.square"

    def test_custom_J_must_preserve_metric(self):
        # J^2 = -id but g(J.,J.) != g: swap a mixed-sign pair on (2,1)
        J = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
        with pytest.raises(InvariantViolation) as exc:
            make_space(2, 1, J=J)
        assert exc.value.invariant == "J.metric-compat"

    def test_valid_custom_J_accepted(self):
        J = -canonical_complex_structure(2)
        sp = make_space(2, 1, J=J.tolist())
        assert not sp.has_canonical_J

    def test_numpy_integer_J_accepted_like_a_list(self):
        J = -canonical_complex_structure(2)
        for dtype in (np.int64, np.int32, np.int8):
            sp = make_space(2, 1, J=np.array(J.tolist(), dtype=dtype))
            assert all(type(x) is Fraction and type(x.numerator) is int for x in sp.J.flat)
            assert (sp.J == make_space(2, 1, J=J.tolist()).J).all()
        with pytest.raises(TypeError):
            make_space(1, 0, J=np.array([[False, True], [True, False]]))

    def test_float_J_validated_to_tolerance(self):
        eps = 1e-14
        J = [[0.0, -1.0 + eps], [1.0, 0.0]]
        sp = make_space(1, 0, J=J)       # within the 1e-12 float tolerance
        assert not sp.has_canonical_J
        with pytest.raises(InvariantViolation):
            make_space(1, 0, J=[[0.0, -1.001], [1.0, 0.0]])

    def test_float_J_tolerance_is_absolute(self):
        # 1e-6 off: inside numpy's default relative tolerance, far outside 1e-12
        with pytest.raises(InvariantViolation) as exc:
            make_space(1, 0, J=[[0.0, -1.000001], [1.0, 0.0]])
        assert exc.value.invariant == "J.square"


class TestInner:
    def test_basis_values(self, sp21):
        e = [sp21.basis_vector(i) for i in range(4)]
        assert sp21.inner(e[0], e[0]) == -1
        assert sp21.inner(e[2], e[2]) == 1
        assert sp21.inner(e[0], e[2]) == 0

    def test_symmetric_bilinear(self, sp21):
        rng = random.Random(0)
        for _ in range(10):
            u, v, w = (rand_vector(sp21, rng) for _ in range(3))
            assert sp21.inner(u, v) == sp21.inner(v, u)
            assert sp21.inner(u + w, v) == sp21.inner(u, v) + sp21.inner(w, v)

    def test_dimension_mismatch(self, sp21, sp31):
        with pytest.raises(DimensionMismatch):
            sp21.inner(sp21.basis_vector(0), sp31.basis_vector(0))

    def test_isotropic_sum(self):
        # (+) plus (-) unit vectors give an isotropic combination
        for (m, s) in [(2, 1), (3, 1), (3, 2)]:
            sp = make_space(m, s)
            x, a = gram_schmidt_tuple(sp, 5, (1, -1), antiholomorphic=True)
            assert sp.inner(x + a, x + a) == 0


class TestJ:
    def test_J_squared(self, sp21):
        rng = random.Random(1)
        for _ in range(5):
            v = rand_vector(sp21, rng)
            assert (sp21.apply_J(sp21.apply_J(v)) == -v).all()

    def test_J_invariance_of_metric(self, sp31):
        for i in range(6):
            for j in range(6):
                ei, ej = sp31.basis_vector(i), sp31.basis_vector(j)
                assert sp31.inner(sp31.apply_J(ei), sp31.apply_J(ej)) == sp31.inner(ei, ej)

    def test_extends_to_complex_vectors(self, sp21):
        u = ComplexVector(sp21.basis_vector(0), sp21.basis_vector(2))
        ju = sp21.apply_J(u)
        assert (ju.re == sp21.basis_vector(1)).all()
        assert (ju.im == sp21.basis_vector(3)).all()


class TestInnerC:
    def test_restriction_to_reals(self, sp21):
        rng = random.Random(2)
        u, v = rand_vector(sp21, rng), rand_vector(sp21, rng)
        assert sp21.inner_c(u, v) == ExactComplex.of(sp21.inner(u, v))

    def test_isotropic_complexified_vector(self, sp20):
        x, y = sp20.basis_vector(0), sp20.basis_vector(2)
        assert sp20.inner_c(ComplexVector(x, y), ComplexVector(x, y)) == ExactComplex.of(0)

    def test_bilinear_expansion_example(self, sp20):
        u = ComplexVector(sp20.basis_vector(0), sp20.basis_vector(2))
        w = ComplexVector(sp20.basis_vector(0), -sp20.basis_vector(2))
        assert sp20.inner_c(u, w) == ExactComplex.of(2)

    def test_conjugation_symmetry(self, sp21):
        rng = random.Random(3)
        for _ in range(10):
            u = ComplexVector(rand_vector(sp21, rng), rand_vector(sp21, rng))
            v = ComplexVector(rand_vector(sp21, rng), rand_vector(sp21, rng))
            assert sp21.inner_c(u.conjugate(), v.conjugate()) == sp21.inner_c(u, v).conjugate()


class TestClassifyPlane:
    def test_holomorphic_block_plane(self, sp21):
        pc = classify_plane(sp21, sp21.basis_vector(0), sp21.basis_vector(1))
        assert (pc.holomorphy, pc.gram_rank, pc.signature_label) == ("holomorphic", 2, "(-,-)")

    def test_antiholomorphic_cross_block(self, sp21):
        pc = classify_plane(sp21, sp21.basis_vector(0), sp21.basis_vector(2))
        assert (pc.holomorphy, pc.gram_rank, pc.signature_label) == ("antiholomorphic", 2, "(+,-)")

    def test_weakly_isotropic(self, sp21):
        # Gram matrix oracle: g(e1+e3, e1+e3) = 0, cross term 0, g(e2,e2) = -1
        u = sp21.vector([1, 0, 1, 0])
        pc = classify_plane(sp21, u, sp21.basis_vector(1))
        assert pc.gram_rank == 1 and pc.weakly_isotropic
        assert pc.signature_label is None

    def test_dependent_vectors_rejected(self, sp21):
        v = sp21.vector([1, 2, 3, 4])
        with pytest.raises(DependentVectorsError):
            classify_plane(sp21, v, 2 * np.asarray(v))

    def test_basis_invariance(self, sp21):
        rng = random.Random(4)
        for _ in range(20):
            u, v = rand_vector(sp21, rng), rand_vector(sp21, rng)
            try:
                ref = classify_plane(sp21, u, v)
            except DependentVectorsError:
                continue
            a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
            if a * d - b * c == 0:
                continue
            u2 = a * np.asarray(u) + b * np.asarray(v)
            v2 = c * np.asarray(u) + d * np.asarray(v)
            got = classify_plane(sp21, u2, v2)
            assert (got.holomorphy, got.gram_rank) == (ref.holomorphy, ref.gram_rank)

    def test_complexified_weakly_isotropic_plane(self, sp30):
        # span{x, y+iz}: the hypothesis plane of the complexified route
        x, y, z = (sp30.basis_vector(i) for i in (0, 2, 4))
        pc = classify_plane(sp30, x, ComplexVector(y, z))
        assert pc.weakly_isotropic and pc.holomorphy == "antiholomorphic"

    def test_float_backend(self, sp21):
        pc = classify_plane(sp21, np.array([1.0, 0.0, 1.0, 0.0]),
                            np.array([0.0, 1.0, 0.0, 0.0]))
        assert pc.gram_rank == 1

    def test_int64_vectors_are_exact(self, sp21):
        # holomorphic, antiholomorphic, weakly isotropic, then random planes
        planes = [([1, 0, 0, 0], [0, 1, 0, 0]), ([1, 0, 0, 0], [0, 0, 1, 0]),
                  ([1, 0, 1, 0], [0, 1, 0, 0])]
        rng = random.Random(8)
        planes += [([rng.randint(-2, 2) for _ in range(4)],
                    [rng.randint(-2, 2) for _ in range(4)]) for _ in range(30)]
        for u, v in planes:
            try:
                ref = classify_plane(sp21, np.array(u, dtype=object),
                                     np.array(v, dtype=object))
            except DependentVectorsError:
                with pytest.raises(DependentVectorsError):
                    classify_plane(sp21, np.array(u), np.array(v))
                continue
            assert classify_plane(sp21, np.array(u, dtype=np.int64),
                                  np.array(v, dtype=np.int64)) == ref


class TestIsometries:
    @pytest.mark.parametrize("unitary", [False, True])
    def test_light_isometry_invariants(self, sp31, unitary):
        rng = random.Random(7)
        G = np.diag(np.array(sp31.metric_signs, dtype=object))
        for _ in range(5):
            T = random_isometry(sp31, rng, unitary=unitary)
            assert (T.T.dot(G.dot(T)) == G).all()
            if unitary:
                assert (T.dot(sp31.J) == sp31.J.dot(T)).all()


class TestGramSchmidtTuple:
    @pytest.mark.parametrize("m,s,pattern", [
        (3, 1, (1, 1, -1)),
        (2, 0, (1, 1)),
        (4, 2, (1, -1, -1)),
    ])
    def test_antiholomorphic_relations_exact(self, m, s, pattern):
        sp = make_space(m, s)
        tup = gram_schmidt_tuple(sp, 11, pattern, antiholomorphic=True)
        for i, u in enumerate(tup):
            for j, v in enumerate(tup):
                want = pattern[i] if i == j else 0
                assert sp.inner(u, v) == want
                assert sp.inner(u, sp.apply_J(v)) == 0

    def test_plain_orthonormal_tuple(self, sp21):
        tup = gram_schmidt_tuple(sp21, 3, (1, -1, -1))
        signs = (1, -1, -1)
        for i, u in enumerate(tup):
            for j, v in enumerate(tup):
                assert sp21.inner(u, v) == (signs[i] if i == j else 0)

    def test_deterministic_per_seed(self, sp31):
        t1 = gram_schmidt_tuple(sp31, 9, (1, 1, -1), antiholomorphic=True)
        t2 = gram_schmidt_tuple(sp31, 9, (1, 1, -1), antiholomorphic=True)
        t3 = gram_schmidt_tuple(sp31, 10, (1, 1, -1), antiholomorphic=True)
        assert all((a == b).all() for a, b in zip(t1, t2))
        assert any((a != b).any() for a, b in zip(t1, t3))

    def test_unrealizable_patterns(self, sp20, sp21):
        with pytest.raises(UnrealizablePatternError):
            gram_schmidt_tuple(sp20, 1, (1, 1, 1), antiholomorphic=True)
        with pytest.raises(UnrealizablePatternError):
            gram_schmidt_tuple(sp21, 1, (-1, -1, -1))


SPACES_UP_TO_4 = [(m, s) for m in range(1, 5) for s in range(m + 1)]
PATTERNS_UP_TO_4 = [p for k in range(5) for p in product((1, -1), repeat=k)]


class TestRealizable:
    @pytest.mark.parametrize("m,s", SPACES_UP_TO_4)
    @pytest.mark.parametrize("antiholomorphic", [True, False])
    def test_tuple_exists_exactly_when_realizable(self, m, s, antiholomorphic):
        sp = make_space(m, s)
        rng = random.Random(m * 10 + s)
        per_block = 1 if antiholomorphic else 2
        for pattern in PATTERNS_UP_TO_4:
            fits = (pattern.count(1) <= per_block * (m - s)
                    and pattern.count(-1) <= per_block * s)
            assert realizable(sp, pattern, antiholomorphic) == fits
            if not fits:
                with pytest.raises(UnrealizablePatternError):
                    tuple_from_rng(sp, rng, pattern, antiholomorphic)
                continue
            tup = tuple_from_rng(sp, rng, pattern, antiholomorphic)
            assert len(tup) == len(pattern)
            for i, u in enumerate(tup):
                for j, v in enumerate(tup):
                    assert sp.inner(u, v) == (pattern[i] if i == j else 0)
                    if antiholomorphic:
                        assert sp.inner(u, sp.apply_J(v)) == 0

    @pytest.mark.parametrize("sign", ["+", "+1", "-", "-1", 0, 2, None])
    def test_signs_other_than_one_rejected(self, sp31, sign):
        with pytest.raises(UnrealizablePatternError, match="bad sign"):
            realizable(sp31, (1, sign))
        with pytest.raises(UnrealizablePatternError, match="bad sign"):
            tuple_from_rng(sp31, random.Random(0), (1, sign), antiholomorphic=True)

    @pytest.mark.parametrize("m,s", SPACES_UP_TO_4)
    def test_callers_keep_their_earlier_formulas(self, m, s):
        # the per-caller sign counts that `realizable` replaced, written out
        from curvlab.constancy import _sign_patterns
        from curvlab.harness import PROBE_KINDS, _kind_realizable, _thmA_x_signs
        sp = make_space(m, s)
        plus, minus = m - s, s
        kinds = {
            "holomorphic": plus >= 1 and minus >= 1,
            "antiholomorphic:(+,+)": plus >= 2 and minus >= 1,
            "antiholomorphic:(+,-)": plus >= 2 and minus >= 1,
            "antiholomorphic:(-,-)": minus >= 2 and plus >= 1,
            "biholomorphic": plus >= 2 and minus >= 1,
        }
        assert list(PROBE_KINDS) == list(kinds)
        assert {k: _kind_realizable(sp, k) for k in PROBE_KINDS} == kinds
        for k in range(5):
            assert list(_sign_patterns(sp, k)) == [
                (1,) * p + (-1,) * (k - p) for p in range(k, -1, -1)
                if p <= plus and k - p <= minus]
        x_signs = [1] if plus >= 2 and minus >= 1 else []
        x_signs += [-1] if minus >= 2 and plus >= 1 else []
        assert _thmA_x_signs(sp) == x_signs


class TestRequireAntiholomorphicPair:
    # at (2, 1): x = e2 and w = e0 are an orthonormal antiholomorphic (+, -)
    # pair; each case below breaks exactly the named condition
    BROKEN = [
        ((0, 0, 2, 0), (1, 0, 0, 0), (1, -1), "g(x,x)=1"),
        ((0, 0, 1, 0), (2, 0, 0, 0), (1, -1), "g(w,w)=-1"),
        ((0, 0, 2, 0), (1, 0, 0, 0), None, "g(x,x)^2=1"),
        ((0, 0, 1, 0), (2, 0, 0, 0), None, "g(w,w)^2=1"),
        ((2, 0, 2, 1), (1, 0, 0, 0), (1, -1), "g(x,w)=0"),
        ((2, 0, 2, 1), (0, 1, 0, 0), (1, -1), "g(x,Jw)=0"),
    ]
    KINDS = {"fraction": lambda v: np.array([Fraction(x) for x in v], dtype=object),
             "int64": lambda v: np.array(v, dtype=np.int64),
             "float": lambda v: np.array(v, dtype=float)}

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("x,w,signs,name", BROKEN)
    def test_each_broken_condition_raises(self, sp21, kind, x, w, signs, name):
        make = self.KINDS[kind]
        with pytest.raises(GeometryError, match=re.escape(
                f"test needs an orthonormal antiholomorphic pair: {name} fails")):
            require_antiholomorphic_pair(sp21, make(x), make(w), "test", signs=signs)

    @pytest.mark.parametrize("kind", KINDS)
    def test_orthonormal_pairs_pass(self, sp21, kind):
        make = self.KINDS[kind]
        for signs in ((1, -1), None):
            require_antiholomorphic_pair(sp21, make((0, 0, 1, 0)), make((1, 0, 0, 0)),
                                         "test", signs=signs)
            # a pair off the coordinate axes: g(x,x) = -4 + 4 + 1, g(w,w) = -1 - 4 + 4
            require_antiholomorphic_pair(sp21, make((2, 0, 2, 1)), make((1, 2, 0, 2)),
                                         "test", signs=signs)

    def test_drawn_rational_pairs_pass(self):
        for m, s, signs in ((2, 1, (1, -1)), (3, 0, (1, 1)), (4, 2, (-1, 1))):
            space = make_space(m, s)
            for seed in range(5):
                x, w = tuple_from_rng(space, random.Random(seed), signs, antiholomorphic=True)
                require_antiholomorphic_pair(space, x, w, "test", signs=signs)
                with pytest.raises(GeometryError, match=r"g\(x,x\)"):
                    require_antiholomorphic_pair(space, x * Fraction(1, 2), w, "test")
