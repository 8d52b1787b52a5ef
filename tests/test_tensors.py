import random
from fractions import Fraction

import numpy as np
import pytest

from curvlab.scalars import FLOAT_VERDICT_TOL, ExactComplex, integerize
from curvlab.spaces import ComplexVector, DegeneratePlaneError, GeometryError
from curvlab.tensors import (bianchi_cyclic_sum, biholomorphic,
                             curvature_of_plane, dense_components, failing_symmetries,
                             from_components, from_dense, from_integer_form,
                             holomorphic_sectional, pi1, pi1_c,
                             pi1_components, sectional, sectional_c)
from curvlab.harness import (model_complex_space_form,
                             model_constant_sectional, random_tensor)
from curvlab.spaces import gram_schmidt_tuple

from conftest import loop_eval, rand_nonisotropic, rand_vector


class TestConstruction:
    def test_scaled_pi1_round_trip(self, sp21):
        entries = []
        P = pi1_components(sp21)
        for idx in np.ndindex(P.shape):
            if P[idx]:
                entries.append((*idx, 3 * P[idx]))
        R = from_components(sp21, entries)
        assert (R.components == 3 * P).all()

    def test_single_entry_symmetrized(self, sp21):
        R = from_components(sp21, [(0, 1, 2, 3, Fraction(1))], symmetrize=True)
        c = R.components
        assert c[1, 0, 2, 3] == -c[0, 1, 2, 3]
        assert c[0, 1, 3, 2] == -c[0, 1, 2, 3]
        assert c[2, 3, 0, 1] == c[0, 1, 2, 3]

    def test_random_dense_projection_loop_oracle(self, sp21):
        rng = random.Random(5)
        n = 4
        C = np.array([Fraction(rng.randint(-64, 64), 64) for _ in range(n ** 4)],
                     dtype=object).reshape(n, n, n, n)
        R = from_dense(sp21, C, symmetrize=True, bianchi_projection=True)
        comp = R.components
        for (i, j, k, l) in np.ndindex(comp.shape):
            assert comp[i, j, k, l] == -comp[j, i, k, l] == -comp[i, j, l, k]
            assert comp[i, j, k, l] == comp[k, l, i, j]
            assert comp[i, j, k, l] + comp[j, k, i, l] + comp[k, i, j, l] == 0

    @pytest.mark.parametrize("scale", [1, 6])
    def test_integer_form_is_reduced_and_cached(self, sp21, scale):
        R = random_tensor(sp21, 4)
        N, D = R.integer_form
        S = from_integer_form(sp21, N * scale, D * scale)
        assert (S.components == R.components).all()
        assert all(type(c) is Fraction for c in S.components.flat)
        # D is the lcm of the reduced denominators, as integerize gives it
        N2, D2 = S.integer_form
        assert (list(N2.flat), D2) == integerize(S.components.flat) == (list(N.flat), D)
        with pytest.raises(GeometryError):
            from_integer_form(sp21, N * scale + (N != 0), D * scale)

    def test_unsymmetric_input_rejected(self, sp21):
        with pytest.raises(GeometryError):
            from_components(sp21, [(0, 1, 2, 3, Fraction(1))])

    def test_repeated_indices_add(self):
        C = dense_components(2, [(0, 1, 1, 0, Fraction(1, 2)), (1, 0, 0, 1, 3),
                                 (0, 1, 1, 0, 1), (0, 1, 1, 0, Fraction(-1, 3))])
        assert (C[0, 1, 1, 0], C[1, 0, 0, 1]) == (Fraction(7, 6), 3)
        assert type(C[1, 0, 0, 1]) is Fraction and np.count_nonzero(C) == 2
        F = dense_components(2, [(0, 1, 1, 0, 0.5), (0, 1, 1, 0, Fraction(1, 4))])
        assert F.dtype == float and F[0, 1, 1, 0] == 0.75

    def test_index_out_of_range(self, sp21):
        with pytest.raises(GeometryError):
            from_components(sp21, [(0, 1, 2, 4, Fraction(1))], symmetrize=True)

    def test_non_finite_value(self, sp21):
        with pytest.raises(GeometryError):
            from_components(sp21, [(0, 1, 2, 3, float("nan"))], symmetrize=True)


class TestEval:
    def test_pi1_contraction_on_orthonormal_pair(self, sp21):
        R = model_constant_sectional(sp21, 5)
        x, y = gram_schmidt_tuple(sp21, 2, (1, 1))
        assert R.eval(x, y, y, x) == 5

    def test_antisymmetry_in_first_slots(self, sp21):
        R = random_tensor(sp21, 1)
        rng = random.Random(6)
        X, Z, U = (rand_vector(sp21, rng) for _ in range(3))
        assert R.eval(X, X, Z, U) == 0

    def test_matches_loop_oracle(self, sp21):
        R = random_tensor(sp21, 2)
        rng = random.Random(7)
        for _ in range(5):
            vs = [rand_vector(sp21, rng) for _ in range(4)]
            assert R.eval(*vs) == loop_eval(R, *vs)

    def test_homogeneity(self, sp21):
        R = random_tensor(sp21, 3)
        rng = random.Random(8)
        X, Y, Z, U = (rand_vector(sp21, rng) for _ in range(4))
        lam = Fraction(7, 3)
        assert R.eval(lam * np.asarray(X), Y, Z, U) == lam * R.eval(X, Y, Z, U)

    def test_eval_c_restricts_to_eval(self, sp21):
        R = random_tensor(sp21, 4)
        rng = random.Random(9)
        vs = [rand_vector(sp21, rng) for _ in range(4)]
        assert R.eval_c(*vs) == ExactComplex.of(R.eval(*vs))

    def test_eval_c_conjugation(self, sp21):
        R = random_tensor(sp21, 5)
        rng = random.Random(10)
        vs = [ComplexVector(rand_vector(sp21, rng), rand_vector(sp21, rng))
              for _ in range(4)]
        conj = [v.conjugate() for v in vs]
        assert R.eval_c(*conj) == R.eval_c(*vs).conjugate()

    def test_complexified_mixed_plane_collapse(self, sp30):
        # along y + i z with orthonormal y, z the constant model cancels
        R = model_constant_sectional(sp30, 4)
        x, y, z = gram_schmidt_tuple(sp30, 3, (1, 1, 1), antiholomorphic=True)
        yz = ComplexVector(y, z)
        assert R.eval_c(x, yz, yz, x) == ExactComplex.of(0)


class TestPi1:
    def test_orthonormal_values(self, sp21):
        x, y = gram_schmidt_tuple(sp21, 4, (1, 1))
        x2, a = gram_schmidt_tuple(sp21, 5, (1, -1))
        assert pi1(sp21, x, y, y, x) == 1
        assert pi1(sp21, x2, a, a, x2) == -1

    def test_antisymmetry(self, sp21):
        rng = random.Random(11)
        X, Z, U = (rand_vector(sp21, rng) for _ in range(3))
        assert pi1(sp21, X, X, Z, U) == 0

    def test_components_are_its_basis_values(self, sp21, sp31):
        for space in (sp21, sp31):
            P = pi1_components(space)
            e = [space.basis_vector(i) for i in range(space.n)]
            assert all(type(x) is int for x in P.flat)
            assert all(P[i, j, k, l] == pi1(space, e[i], e[j], e[k], e[l])
                       for i, j, k, l in np.ndindex(P.shape))

    def test_complexified_matches_tensor(self, sp21):
        R = model_constant_sectional(sp21, 1)
        rng = random.Random(12)
        vs = [ComplexVector(rand_vector(sp21, rng), rand_vector(sp21, rng))
              for _ in range(4)]
        assert R.eval_c(*vs) == pi1_c(sp21, *vs)


class TestSectional:
    def test_constant_model_on_random_planes(self, sp21):
        R = model_constant_sectional(sp21, 3)
        rng = random.Random(13)
        found = 0
        while found < 20:
            u, v = rand_vector(sp21, rng), rand_vector(sp21, rng)
            try:
                value = sectional(R, u, v)
            except (DegeneratePlaneError, GeometryError):
                continue
            assert value == 3
            found += 1

    def test_basis_independence(self, sp31):
        R = random_tensor(sp31, 6)
        rng = random.Random(14)
        for _ in range(10):
            u, v = rand_vector(sp31, rng), rand_vector(sp31, rng)
            try:
                ref = sectional(R, u, v)
            except DegeneratePlaneError:
                continue
            a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
            if a * d - b * c == 0:
                continue
            u2 = a * np.asarray(u) + b * np.asarray(v)
            v2 = c * np.asarray(u) + d * np.asarray(v)
            assert sectional(R, u2, v2) == ref

    def test_degenerate_plane_error_carries_rank(self, sp21):
        R = model_constant_sectional(sp21, 3)
        with pytest.raises(DegeneratePlaneError) as exc:
            sectional(R, sp21.vector([1, 0, 1, 0]), sp21.basis_vector(1))
        assert exc.value.gram_rank == 1

    def test_sectional_c_restricts_to_sectional(self, sp21):
        R = random_tensor(sp21, 7)
        rng = random.Random(15)
        for _ in range(5):
            u, v = rand_vector(sp21, rng), rand_vector(sp21, rng)
            try:
                real = sectional(R, u, v)
            except DegeneratePlaneError:
                continue
            assert sectional_c(R, u, v) == ExactComplex.of(real)

    def test_constant_model_complexified_planes(self, sp21):
        R = model_constant_sectional(sp21, 3)
        rng = random.Random(16)
        found = 0
        while found < 20:
            u = ComplexVector(rand_vector(sp21, rng), rand_vector(sp21, rng))
            v = ComplexVector(rand_vector(sp21, rng), rand_vector(sp21, rng))
            try:
                value = sectional_c(R, u, v)
            except DegeneratePlaneError:
                continue
            assert value == ExactComplex.of(3)
            found += 1

    def test_float_tensor_on_exact_vectors(self, sp21):
        # eval_c of a float tensor is a complex; pi1_c of exact vectors an ExactComplex
        R = random_tensor(sp21, 3)
        rng = random.Random(20)
        e2, e0 = sp21.basis_vector(2), sp21.basis_vector(0)
        planes = [(e2, e0), (ComplexVector(e2, 0 * e2), e0)]
        while len(planes) < 5:
            u = ComplexVector(rand_vector(sp21, rng), rand_vector(sp21, rng))
            v = ComplexVector(rand_vector(sp21, rng), rand_vector(sp21, rng))
            if pi1_c(sp21, u, v, v, u):
                planes.append((u, v))
        for u, v in planes:
            exact = complex(sectional_c(R, u, v))
            values = [sectional_c(R.to_float(), u, v)]
            if isinstance(u, ComplexVector):
                values.append(curvature_of_plane(R.to_float(), u, v).value)
            for value in values:
                assert isinstance(value, complex)
                assert abs(value - exact) <= FLOAT_VERDICT_TOL * max(1, abs(exact))


class TestHolomorphicSectional:
    def test_constant_model(self, sp21):
        R = model_constant_sectional(sp21, 3)
        rng = random.Random(17)
        for _ in range(10):
            v = rand_nonisotropic(sp21, rng)
            assert holomorphic_sectional(R, v) == 3

    def test_negative_unit_vector(self, sp21):
        # numerator c*g(a,a)^2 = c over pi1 = g(a,a)^2 = 1
        R = model_constant_sectional(sp21, 3)
        assert holomorphic_sectional(R, sp21.basis_vector(0)) == 3

    def test_space_form_everywhere(self, sp31):
        R = model_complex_space_form(sp31, 7)
        rng = random.Random(18)
        for _ in range(20):
            v = rand_nonisotropic(sp31, rng)
            assert holomorphic_sectional(R, v) == 7

    def test_scale_invariance(self, sp21):
        R = random_tensor(sp21, 8)
        rng = random.Random(19)
        v = rand_nonisotropic(sp21, rng)
        assert holomorphic_sectional(R, 5 * np.asarray(v)) == holomorphic_sectional(R, v)

    def test_isotropic_rejected(self, sp21):
        R = random_tensor(sp21, 9)
        with pytest.raises(DegeneratePlaneError):
            holomorphic_sectional(R, sp21.vector([1, 0, 1, 0]))


class TestBiholomorphic:
    def test_constant_model_vanishes(self, sp21):
        R = model_constant_sectional(sp21, 3)
        x, a = gram_schmidt_tuple(sp21, 6, (1, -1), antiholomorphic=True)
        assert biholomorphic(R, x, a) == 0

    def test_space_form_definite_value(self, sp30):
        R = model_complex_space_form(sp30, 4)
        x, y = gram_schmidt_tuple(sp30, 7, (1, 1), antiholomorphic=True)
        assert biholomorphic(R, x, y) == 2

    def test_space_form_mixed_signature_raw_value(self, sp31):
        # raw values flip sign across signatures; the classifier normalizes
        R = model_complex_space_form(sp31, 4)
        x, a = gram_schmidt_tuple(sp31, 8, (1, -1), antiholomorphic=True)
        assert biholomorphic(R, x, a) == -2

    def test_holomorphic_pair_rejected(self, sp21):
        R = model_constant_sectional(sp21, 3)
        x = sp21.basis_vector(2)
        with pytest.raises(GeometryError):
            biholomorphic(R, x, sp21.apply_J(x))


class TestCurvatureOfPlane:
    def test_real_path_tag(self, sp21):
        R = model_constant_sectional(sp21, 3)
        cv = curvature_of_plane(R, sp21.basis_vector(2), sp21.basis_vector(0))
        assert (cv.value, cv.path) == (3, "real")

    def test_complex_path_on_real_inputs_has_zero_imaginary_part(self, sp21):
        R = random_tensor(sp21, 30)
        rng = random.Random(31)
        for _ in range(5):
            u = rand_vector(sp21, rng)
            v = rand_vector(sp21, rng)
            try:
                cv = curvature_of_plane(R, ComplexVector(u, 0 * np.asarray(u)), v)
            except Exception:
                continue
            assert cv.path == "complex" and cv.value.imag == 0


class TestModels:
    @pytest.mark.parametrize("m,s", [(2, 1), (3, 1), (3, 0)])
    def test_space_form_satisfies_all_symmetries(self, m, s):
        from curvlab.spaces import make_space
        R = model_complex_space_form(make_space(m, s), 2)
        assert not failing_symmetries(R.components, bianchi=True)

    @pytest.mark.parametrize("m,s", [(m, s) for m in range(1, 5) for s in range(m + 1)])
    @pytest.mark.parametrize("c", [2, Fraction(-3, 5)])
    def test_space_form_is_the_fraction_construction(self, m, s, c):
        # the construction it replaced: n^4 Fractions, integerized on validation
        from curvlab.spaces import make_space
        from curvlab.tensors import CurvatureTensor
        space = make_space(m, s)
        JG = space.J.T * np.array(space.metric_signs)
        i, j, k, l = np.ix_(*(range(space.n),) * 4)
        C = Fraction(c) / 4 * (pi1_components(space) + JG[i, l] * JG[j, k]
                               - JG[i, k] * JG[j, l] - 2 * JG[i, j] * JG[k, l])
        reference = CurvatureTensor(space, C, bianchi=True)
        R = model_complex_space_form(space, c)
        assert R.bianchi and R.components.dtype == object
        assert all(type(x) is Fraction for x in R.components.flat)
        assert (R.components == reference.components).all()
        (N, D), (N0, D0) = R.integer_form, reference.integer_form
        assert D == D0 and (N == N0).all()
        assert all(type(x) is int for x in N.flat)

    def test_space_form_with_a_rational_J(self):
        from curvlab.spaces import canonical_complex_structure, make_space
        flipped = make_space(3, 1, J=-canonical_complex_structure(3))
        # J enters the model twice in every term, so its sign cancels
        assert (model_complex_space_form(flipped, 2).components
                == model_complex_space_form(make_space(3, 1), 2).components).all()

    def test_random_tensor_deterministic(self, sp21):
        R1 = random_tensor(sp21, 42)
        R2 = random_tensor(sp21, 42)
        R3 = random_tensor(sp21, 43)
        assert (R1.components == R2.components).all()
        assert (R1.components != R3.components).any()

    def test_random_tensor_bianchi_loop_oracle(self, sp21):
        R = random_tensor(sp21, 10, bianchi=True)
        assert (bianchi_cyclic_sum(R.components) == 0).all()
        R2 = random_tensor(sp21, 10, bianchi=False)
        assert (bianchi_cyclic_sum(R2.components) != 0).any()
