import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbo.objectives import (
    CsInstance,
    CsObjective,
    FunctionObjective,
    Rastrigin,
    Sphere,
    ToyStochasticObjective,
    finite_diff_grad,
    generate_cs_instance,
)
from cbo.rng import RngStream
from oracles import cs_eval, cs_grad, rastrigin, rastrigin_grad


class TestRastrigin:
    def test_global_minimum(self):
        assert rastrigin(np.zeros(4)) == 0.0
        np.testing.assert_array_equal(rastrigin_grad(np.zeros(4)), np.zeros(4))

    def test_known_values(self):
        # at integer points the cosine term vanishes
        assert rastrigin(np.array([1.0])) == pytest.approx(1.0)
        assert rastrigin(np.array([2.0, -1.0])) == pytest.approx(5.0)
        # at half-integers it contributes 5 per coordinate
        assert rastrigin(np.array([0.5])) == pytest.approx(5.25)

    def test_gradient_against_finite_differences(self):
        obj = Rastrigin(5)
        gen = np.random.Generator(np.random.PCG64(0))
        for _ in range(100):
            x = gen.uniform(-4, 4, 5)
            fd = finite_diff_grad(obj, x)
            g = obj.grad(x)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5)

    def test_vectorized_matches_scalar(self):
        obj = Rastrigin(3)
        pts = np.random.Generator(np.random.PCG64(1)).uniform(-3, 3, (20, 3))
        np.testing.assert_allclose(
            obj.values(pts), [rastrigin(x) for x in pts], rtol=1e-14
        )
        np.testing.assert_allclose(
            obj.gradients(pts), [rastrigin_grad(x) for x in pts], rtol=1e-14
        )

    @given(arrays(float, 3, elements=st.floats(-10, 10)))
    def test_nonnegative_with_quadratic_bounds(self, x):
        v = rastrigin(x)
        ss = float(np.sum(np.asarray(x) ** 2))
        assert ss - 1e-9 <= v <= ss + 5.0 * len(x) + 1e-9


class TestCsEval:
    def make_instance(self, p=1.0, mu=0.5):
        A = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
        b = np.array([1.0, 1.0])
        return CsInstance(A=A, b=b, mu=mu, p=p)

    def test_hand_computed_value_p1(self):
        inst = self.make_instance()
        x = np.array([1.0, -1.0, 0.5])
        # Ax = (2, -1.5); residual (1, -2.5); 1/2*7.25 + 0.5*2.5
        assert cs_eval(inst, x) == pytest.approx(3.625 + 1.25)

    def test_hand_computed_value_p_half(self):
        inst = self.make_instance(p=0.5, mu=2.0)
        x = np.array([4.0, 0.0, 0.0])
        # Ax = (4, 0); residual (3, -1); 5 + 2*sqrt(4)
        assert cs_eval(inst, x) == pytest.approx(5.0 + 4.0)

    def test_naive_double_loop_oracle(self):
        gen = np.random.Generator(np.random.PCG64(7))
        for p in (1.0, 0.5):
            inst = generate_cs_instance(8, 5, 2, 0.3, p, RngStream(11))
            for _ in range(20):
                x = gen.standard_normal(8)
                res = [
                    sum(inst.A[i, j] * x[j] for j in range(8)) - inst.b[i]
                    for i in range(5)
                ]
                naive = 0.5 * sum(r * r for r in res) + 0.3 * sum(
                    abs(v) ** p for v in x
                )
                assert cs_eval(inst, x) == pytest.approx(naive, rel=1e-12)

    def test_objective_view_matches_scalar_eval(self):
        inst = generate_cs_instance(6, 4, 2, 0.2, 0.5, RngStream(3))
        obj = CsObjective(inst)
        pts = np.random.Generator(np.random.PCG64(2)).standard_normal((10, 6))
        np.testing.assert_allclose(
            obj.values(pts), [cs_eval(inst, x) for x in pts], rtol=1e-12
        )

    def test_invalid_exponent(self):
        with pytest.raises(ValueError, match="p"):
            CsInstance(A=np.eye(2), b=np.zeros(2), mu=0.1, p=0.7)


class TestCsGrad:
    def test_p1_sign_zero_convention(self):
        inst = CsInstance(A=np.eye(2), b=np.zeros(2), mu=1.0, p=1.0)
        g = CsObjective(inst).grad(np.array([0.0, 2.0]))
        np.testing.assert_allclose(g, [0.0, 3.0])

    def test_p1_matches_finite_differences_away_from_zeros(self):
        gen = np.random.Generator(np.random.PCG64(8))
        inst = generate_cs_instance(10, 6, 2, 0.4, 1.0, RngStream(21))
        obj = CsObjective(inst)
        for _ in range(100):
            x = gen.standard_normal(10)
            x[np.abs(x) < 0.05] = 0.1  # keep away from the kink
            np.testing.assert_allclose(
                obj.grad(x), finite_diff_grad(obj, x), rtol=1e-5, atol=1e-6
            )

    def test_p_half_matches_finite_differences(self):
        gen = np.random.Generator(np.random.PCG64(9))
        inst = generate_cs_instance(10, 6, 2, 0.4, 0.5, RngStream(22))
        obj = CsObjective(inst, smoothing_eps=0.0)
        for _ in range(100):
            x = gen.standard_normal(10)
            x[np.abs(x) < 0.05] = 0.1
            np.testing.assert_allclose(
                obj.grad(x),
                finite_diff_grad(obj, x, h=1e-7),
                rtol=1e-5,
                atol=1e-5,
            )

    def test_p_half_zero_stays_finite(self):
        inst = CsInstance(A=np.eye(2), b=np.zeros(2), mu=1.0, p=0.5)
        g = CsObjective(inst, smoothing_eps=0.0).grad(np.zeros(2))
        assert np.all(np.isfinite(g))
        np.testing.assert_allclose(g, 0.0)

    def test_objective_gradients_match_scalar(self):
        pts = np.random.Generator(np.random.PCG64(3)).standard_normal((10, 6))
        pts[0, :2] = 0.0  # the sign(0) and smoothing conventions
        for p, eps in ((0.5, 1e-8), (0.5, 0.0), (1.0, 1e-8)):
            inst = generate_cs_instance(6, 4, 2, 0.2, p, RngStream(4))
            obj = CsObjective(inst, smoothing_eps=eps)
            np.testing.assert_allclose(
                obj.gradients(pts), [cs_grad(inst, x, eps) for x in pts], rtol=1e-12
            )


class TestGenerateCsInstance:
    def test_postconditions(self):
        inst = generate_cs_instance(30, 12, 4, 0.05, 1.0, RngStream(5))
        assert inst.A.shape == (12, 30)
        assert inst.b.shape == (12,)
        support = np.nonzero(inst.ground_truth)[0]
        assert len(support) == 4
        assert np.all(np.abs(inst.ground_truth[support]) >= 0.1)
        np.testing.assert_allclose(inst.A @ inst.ground_truth, inst.b, atol=1e-14)

    def test_variance_scaling(self):
        inst = generate_cs_instance(400, 200, 3, 0.1, 1.0, RngStream(6))
        assert inst.A.var() == pytest.approx(1.0 / 200, rel=0.1)

    def test_reproducible(self):
        a = generate_cs_instance(10, 5, 2, 0.1, 1.0, RngStream(7))
        b = generate_cs_instance(10, 5, 2, 0.1, 1.0, RngStream(7))
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.ground_truth, b.ground_truth)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="sparsity"):
            generate_cs_instance(5, 3, 6, 0.1, 1.0, RngStream(0))
        with pytest.raises(ValueError, match="measurement"):
            generate_cs_instance(5, 9, 2, 0.1, 1.0, RngStream(0))

    def test_save_load_round_trip(self, tmp_path):
        inst = generate_cs_instance(9, 4, 2, 0.07, 0.5, RngStream(8))
        path = tmp_path / "instance.txt"
        inst.save(path)
        back = CsInstance.load(path)
        np.testing.assert_array_equal(back.A, inst.A)
        np.testing.assert_array_equal(back.b, inst.b)
        np.testing.assert_array_equal(back.ground_truth, inst.ground_truth)
        assert back.mu == inst.mu and back.p == inst.p and back.sparsity == 2


class TestFiniteDiffGrad:
    def test_quadratic_exact(self):
        obj = Sphere(3)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(finite_diff_grad(obj, x), 2 * x, rtol=1e-8)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(Sphere(2), np.zeros(2), h=0.0)


class TestToyStochasticObjective:
    def test_batch_centers_average_to_zero(self):
        obj = ToyStochasticObjective(4, 6)
        np.testing.assert_allclose(obj.centers.mean(axis=0), 0.0, atol=1e-14)
        assert obj.n_batches == 6

    def test_full_data_minimizer_is_origin(self):
        obj = ToyStochasticObjective(3, 5)
        gen = np.random.Generator(np.random.PCG64(0))
        pts = gen.standard_normal((50, 3))
        avg = np.mean([obj.values(pts, batch=k) for k in range(5)], axis=0)
        at_origin = np.mean([obj.values(np.zeros((1, 3)), batch=k) for k in range(5)])
        assert np.all(avg >= at_origin - 1e-12)

    def test_batch_gradient_matches_finite_differences(self):
        obj = ToyStochasticObjective(3, 4, seed=1)
        x = np.array([0.3, -1.0, 2.0])
        for k in range(4):
            fd = finite_diff_grad(
                FunctionObjective(lambda P, k=k: obj.values(P, batch=k), 3), x
            )
            np.testing.assert_allclose(obj.gradients(x[None], batch=k)[0], fd, rtol=1e-6)

    def test_single_batch_is_plain_sphere(self):
        obj = ToyStochasticObjective(2, 1)
        pts = np.array([[1.0, 2.0]])
        assert obj.values(pts)[0] == pytest.approx(5.0)

    def test_invalid_batch_count(self):
        with pytest.raises(ValueError):
            ToyStochasticObjective(2, 0)
