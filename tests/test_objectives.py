import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbo.objectives import (
    CS_SMOOTHING_EPS,
    CsObjective,
    Rastrigin,
    Sphere,
    ToyStochasticObjective,
    finite_diff_grad,
    generate_cs_instance,
)
from cbo.rng import RngStream
from helpers import FunctionObjective
from oracles import cs_eval, cs_grad, rastrigin, rastrigin_grad


class ScaledCs(CsObjective):
    """A sparse-recovery objective with a state of its own, which stacking
    and splitting keep."""

    def __init__(self, A, b, mu, p, scale):
        super().__init__(A, b, mu, p)
        self.scale = scale


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
            g = obj.gradients(x[None])[0]
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

    @pytest.mark.parametrize("shape", [(4, 100, 4), (100, 100, 4), (7, 3)])
    def test_values_are_the_textbook_expression_bit_for_bit(self, shape):
        """The in-place values keep the operation order of the expression."""
        pts = np.random.Generator(np.random.PCG64(2)).normal(1.5, 2.0, shape)
        want = np.sum(pts**2 + 2.5 * (1.0 - np.cos(2.0 * np.pi * pts)), axis=-1)
        assert Rastrigin(shape[-1]).values(pts).tobytes() == want.tobytes()

    @given(arrays(float, 3, elements=st.floats(-10, 10)))
    def test_nonnegative_with_quadratic_bounds(self, x):
        v = rastrigin(x)
        ss = float(np.sum(np.asarray(x) ** 2))
        assert ss - 1e-9 <= v <= ss + 5.0 * len(x) + 1e-9


class TestCsEval:
    def make_instance(self, p=1.0, mu=0.5):
        A = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
        b = np.array([1.0, 1.0])
        return CsObjective(A, b, mu, p)

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
            inst, _ = generate_cs_instance(8, 5, 2, 0.3, p, RngStream(11))
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
        obj, _ = generate_cs_instance(6, 4, 2, 0.2, 0.5, RngStream(3))
        pts = np.random.Generator(np.random.PCG64(2)).standard_normal((10, 6))
        np.testing.assert_allclose(
            obj.values(pts), [cs_eval(obj, x) for x in pts], rtol=1e-12
        )

    def test_invalid_exponent(self):
        with pytest.raises(ValueError, match="p=0.7"):
            CsObjective(np.eye(2), np.zeros(2), 0.1, 0.7)

    def test_negative_mu(self):
        with pytest.raises(ValueError, match="mu must be nonnegative"):
            CsObjective(np.eye(2), np.zeros(2), -0.1, 1.0)

    def test_converts_and_stacks_through_the_constructor(self):
        obj = CsObjective([[1, 0, 2], [0, 1, -1]], [1, 1], 0.5, 1.0)
        assert obj.A.dtype == obj.b.dtype == np.float64
        assert obj.dimension == 3
        stacked = CsObjective.stack([obj, CsObjective(2 * obj.A, obj.b, 0.5, 1.0)])
        assert type(stacked) is CsObjective
        assert stacked.A.shape == (2, 2, 3) and stacked.b.shape == (2, 2)
        assert (stacked.dimension, stacked.mu, stacked.p) == (3, 0.5, 1.0)
        with pytest.raises(ValueError, match="equal mu and p"):
            CsObjective.stack([obj, CsObjective(obj.A, obj.b, 0.5, 0.5)])

    @pytest.mark.parametrize("cls", [CsObjective, ScaledCs], ids=["CsObjective", "subclass"])
    @pytest.mark.parametrize("trials", [slice(0, 1), slice(0, 3), slice(3, 5), slice(2, 5)])
    def test_part_is_the_inverse_of_stack(self, cls, trials):
        """A part of a stacked batch equals the stack of those trials' own
        objectives, byte for byte, and keeps a subclass's own state."""
        objs = []
        for t in range(5):
            cs, _ = generate_cs_instance(7, 4, 2, 0.05, 0.5, RngStream(9, t))
            objs.append(cs if cls is CsObjective else ScaledCs(cs.A, cs.b, cs.mu, cs.p, 3.0))
        got, want = cls.stack(objs).part(trials), cls.stack(objs[trials])
        assert type(got) is type(want) is cls
        assert vars(got).keys() == vars(want).keys()
        for name, value in vars(want).items():
            if isinstance(value, np.ndarray):
                assert getattr(got, name).shape == value.shape
                assert getattr(got, name).tobytes() == value.tobytes()
            else:
                assert getattr(got, name) == value

    def test_transpose_travels_with_A(self):
        """``At`` is a C-contiguous A^T after construction, ``stack`` and
        ``part``, and each part of a stacked batch gives the values,
        residuals and gradients of its trials' own objectives byte for
        byte."""
        objs = [generate_cs_instance(9, 5, 2, 0.1, 0.5, RngStream(4, t))[0] for t in range(4)]
        stacked = CsObjective.stack(objs)
        parts = [stacked.part(slice(t, t + 1)) for t in range(4)]
        for obj in [*objs, stacked, *parts, stacked.part(slice(1, 3))]:
            assert obj.At.flags.c_contiguous
            assert np.array_equal(obj.At, obj.A.mT)
        pts = np.random.Generator(np.random.PCG64(6)).standard_normal((4, 15, 9))
        pts[0, 0, :2] = 0.0
        for t, (own, part) in enumerate(zip(objs, parts)):
            own_values, own_residual = own.values(pts[t], with_residual=True)
            part_values, part_residual = part.values(pts[t : t + 1], with_residual=True)
            for got, want in (
                (part_values[0], own_values),
                (part_residual[0], own_residual),
                (part.gradients(pts[t : t + 1])[0], own.gradients(pts[t])),
                (part.gradients(pts[t : t + 1], residual=part_residual)[0],
                 own.gradients(pts[t], residual=own_residual)),
            ):
                assert got.tobytes() == want.tobytes()

    def test_unstacked_objectives_are_their_own_parts(self):
        cs, _ = generate_cs_instance(7, 4, 2, 0.05, 0.5, RngStream(0))
        assert cs.part(slice(1, 2)) is cs
        sphere = Sphere(3)
        assert sphere.part(slice(0, 1)) is sphere


class TestCsGrad:
    def test_p1_sign_zero_convention(self):
        g = CsObjective(np.eye(2), np.zeros(2), 1.0, 1.0).gradients(np.array([[0.0, 2.0]]))[0]
        np.testing.assert_allclose(g, [0.0, 3.0])

    def test_p1_matches_finite_differences_away_from_zeros(self):
        gen = np.random.Generator(np.random.PCG64(8))
        obj, _ = generate_cs_instance(10, 6, 2, 0.4, 1.0, RngStream(21))
        for _ in range(100):
            x = gen.standard_normal(10)
            x[np.abs(x) < 0.05] = 0.1  # keep away from the kink
            np.testing.assert_allclose(
                obj.gradients(x[None])[0], finite_diff_grad(obj, x), rtol=1e-5, atol=1e-6
            )

    def test_p_half_matches_finite_differences(self):
        gen = np.random.Generator(np.random.PCG64(9))
        obj, _ = generate_cs_instance(10, 6, 2, 0.4, 0.5, RngStream(22))
        for _ in range(100):
            x = gen.standard_normal(10)
            x[np.abs(x) < 0.05] = 0.1
            np.testing.assert_allclose(
                obj.gradients(x[None])[0],
                finite_diff_grad(obj, x, h=1e-7),
                rtol=1e-5,
                atol=1e-5,
            )

    def test_p_half_zero_stays_finite(self):
        g = CsObjective(np.eye(2), np.zeros(2), 1.0, 0.5).gradients(np.zeros((1, 2)))[0]
        assert np.all(np.isfinite(g))
        np.testing.assert_allclose(g, 0.0)

    def test_objective_gradients_match_scalar(self):
        pts = np.random.Generator(np.random.PCG64(3)).standard_normal((10, 6))
        pts[0, :2] = 0.0  # the sign(0) and smoothing conventions
        for p in (0.5, 1.0):
            obj, _ = generate_cs_instance(6, 4, 2, 0.2, p, RngStream(4))
            np.testing.assert_allclose(
                obj.gradients(pts), [cs_grad(obj, x) for x in pts], rtol=1e-12
            )

    @pytest.mark.parametrize("p", [0.5, 1.0])
    @pytest.mark.parametrize("trials", [None, 3])
    def test_in_place_forms_equal_out_of_place_expressions_bit_for_bit(self, p, trials):
        gen = np.random.Generator(np.random.PCG64(5))
        objs = [generate_cs_instance(12, 6, 2, 0.3, p, RngStream(s))[0] for s in range(3)]
        if trials is None:
            obj = objs[0]
            pts = gen.standard_normal((20, 12))
        else:
            obj = CsObjective.stack(objs)
            pts = gen.standard_normal((trials, 20, 12))
        pts[gen.random(pts.shape) < 0.25] = 0.0
        pts[..., 0, :3] = -0.0
        # the out-of-place expressions, in their order of operations
        mu, A, b = obj.mu, obj.A, obj.b
        residual = pts @ obj.At - b[..., None, :]
        values = 0.5 * np.einsum("...j,...j->...", residual, residual) + mu * np.sum(
            np.abs(pts) ** p, axis=-1
        )
        grads = residual @ A
        if p == 1.0:
            grads = grads + mu * np.sign(pts)
        else:
            grads = grads + np.sign(pts) * ((p * mu) / np.sqrt(np.abs(pts) + CS_SMOOTHING_EPS))

        got_values, got_residual = obj.values(pts, with_residual=True)
        for got, want in (
            (obj.values(pts), values),
            (got_values, values),
            (got_residual, residual),
            (obj.gradients(pts), grads),
            (obj.gradients(pts, residual=got_residual), grads),
        ):
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()


class TestGenerateCsInstance:
    def test_postconditions(self):
        obj, x_star = generate_cs_instance(30, 12, 4, 0.05, 1.0, RngStream(5))
        assert obj.A.shape == (12, 30)
        assert obj.b.shape == (12,)
        assert (obj.dimension, obj.mu, obj.p) == (30, 0.05, 1.0)
        support = np.nonzero(x_star)[0]
        assert len(support) == 4
        assert np.all(np.abs(x_star[support]) >= 0.1)
        np.testing.assert_allclose(obj.A @ x_star, obj.b, atol=1e-14)

    def test_variance_scaling(self):
        obj, _ = generate_cs_instance(400, 200, 3, 0.1, 1.0, RngStream(6))
        assert obj.A.var() == pytest.approx(1.0 / 200, rel=0.1)

    def test_reproducible(self):
        (a, a_star), (b, b_star) = (
            generate_cs_instance(10, 5, 2, 0.1, 1.0, RngStream(7)) for _ in range(2)
        )
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a_star, b_star)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="sparsity"):
            generate_cs_instance(5, 3, 6, 0.1, 1.0, RngStream(0))
        with pytest.raises(ValueError, match="measurement"):
            generate_cs_instance(5, 9, 2, 0.1, 1.0, RngStream(0))


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
