import copy
import hashlib
import io
import json
import math
import pickle
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformest import nn
from deformest.evaluation import run_session
from deformest.fem import MaterialParams, elasticity_matrix
from deformest.mesh import generate_rpp
from deformest.nn import (
    AdamState,
    MlpModel,
    TrainConfig,
    adam_step,
    alpha_schedule,
    cost,
    forward_batch,
    gradients,
    init_model,
    load_model,
    predict,
    relu,
    save_model,
    train,
)
from deformest.sampling import SamplingSpec, build_dataset
from conftest import make_synthetic_dataset as synthetic_dataset


def relu_grad(z):
    """Derivative of ReLU, 0 at z = 0 by convention: the oracle gradients' own."""
    return (z > 0.0).astype(np.float64)


def zero_model(n_in=2, h1=3, h2=3, n_out=2) -> MlpModel:
    return MlpModel(
        w_hidden1=np.zeros((h1, n_in + 1)),
        w_hidden2=np.zeros((h2, h1 + 1)),
        w_out=np.zeros((n_out, h2 + 1)),
    )


def ones_1111() -> MlpModel:
    return MlpModel(w_hidden1=np.ones((1, 2)), w_hidden2=np.ones((1, 2)), w_out=np.ones((1, 2)))


class TestActivation:
    def test_relu(self):
        z = np.array([-2.0, -1e-9, 0.0, 1e-9, 3.0])
        assert np.array_equal(relu(z), [0.0, 0.0, 0.0, 1e-9, 3.0])

    def test_relu_grad_zero_at_kink(self):
        z = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(relu_grad(z), [0.0, 0.0, 1.0])


class TestForward:
    def test_zero_weights_give_zero_output(self):
        model = zero_model()
        assert not forward_batch(model, [[0.0, 0.0], [1.5, -2.0], [100.0, 3.0]]).outputs.any()

    def test_hand_example_chain(self):
        # sizes 1-1-1-1, every weight (incl. biases) 1, input 2:
        # hidden1 = 1 + 2 = 3, hidden2 = 1 + 3 = 4, output = 1 + 4 = 5
        cache = forward_batch(ones_1111(), [[2.0]])
        assert cache.a_hidden1[0, 0] == 3.0
        assert cache.a_hidden2[0, 0] == 4.0
        assert cache.outputs[0, 0] == 5.0

    def test_negative_preactivations_clamp(self):
        model = ones_1111()
        model.w_hidden1[:] = [[-10.0, 1.0]]  # bias -10 dominates
        cache = forward_batch(model, [[2.0]])
        assert cache.z_hidden1[0, 0] == -8.0
        assert cache.a_hidden1[0, 0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inputs, got"):
            forward_batch(zero_model(n_in=2), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("call", [
        lambda model, x, y: forward_batch(model, x),
        lambda model, x, y: cost(model, x, y, lambdas=(0, 0, 0)),
        lambda model, x, y: gradients(model, x, y, lambdas=(0, 0, 0)),
    ], ids=["forward_batch", "cost", "gradients"])
    def test_one_row_vector_rejected(self, call):
        # a batch of one row is (1, n_in); a bare (n_in,) row is not a batch
        model = zero_model(n_in=2, n_out=2)
        with pytest.raises(ValueError, match=r"expected \(m, 2\) inputs, got \(2,\)"):
            call(model, np.ones(2), np.ones(2))
        assert call(model, np.ones((1, 2)), np.ones((1, 2))) is not None


class TestCost:
    def test_perfect_zero_fit(self):
        model = zero_model()
        assert cost(model, [[1.0, 2.0]], [[0.0, 0.0]], lambdas=(0, 0, 0)) == 0.0

    def test_hand_half_squared_error(self):
        # output (1, 2) via output biases, target (0, 0): J = (1 + 4) / 2
        model = zero_model(n_in=2, h1=3, h2=3, n_out=2)
        model.w_out[:, 0] = [1.0, 2.0]
        assert cost(model, [[0.0, 0.0]], [[0.0, 0.0]], lambdas=(0, 0, 0)) == 2.5

    def test_regularizer_only(self):
        model = zero_model(n_in=2, h1=3, h2=3, n_out=2)
        w = 0.7
        model.w_hidden1[1, 2] = w  # one non-bias weight; hidden output stays 0 via ReLU? no:
        # keep the data term at zero by zero input so the weight never activates
        n1 = 3 * 2
        lam = 0.5
        j = cost(model, [[0.0, 0.0]], [[0.0, 0.0]], lambdas=(lam, 0, 0))
        assert abs(j - lam * w**2 / (2 * n1)) <= 1e-15

    def test_bias_weights_not_regularized(self):
        model = zero_model(n_in=2, h1=3, h2=3, n_out=2)
        lambdas = (0.3, 0.4, 0.5)
        x, y = [[0.5, -0.5]], [[0.1, 0.2]]
        before = cost(model, x, y, lambdas) - cost(model, x, y, (0, 0, 0))
        model.w_out[:, 0] = [5.0, -3.0]  # bias column only
        after = cost(model, x, y, lambdas) - cost(model, x, y, (0, 0, 0))
        assert abs(before - after) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="target shape"):
            cost(zero_model(), [[1.0, 2.0]], [[1.0]], lambdas=(0, 0, 0))


def model_with_margin(seed, n_in=4, h1=5, h2=4, n_out=3, m=3, margin=1e-3):
    """Model and batch whose pre-activations stay away from the ReLU kink."""
    for offset in range(100):
        rng = np.random.default_rng(seed + offset)
        model = init_model(n_in, h1, h2, n_out, rng)
        x = rng.normal(size=(m, n_in))
        y = rng.normal(size=(m, n_out))
        cache = forward_batch(model, x)
        if (
            np.abs(cache.z_hidden1).min() > margin
            and np.abs(cache.z_hidden2).min() > margin
        ):
            return model, x, y
    raise AssertionError("could not find a kink-free configuration")


def finite_difference_gradients(model, x, y, lambdas, h=1e-6):
    grads = []
    for w in model.weights():
        g = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + h
                up = cost(model, x, y, lambdas)
                w[i, j] = orig - h
                down = cost(model, x, y, lambdas)
                w[i, j] = orig
                g[i, j] = (up - down) / (2 * h)
        grads.append(g)
    return tuple(grads)


class TestGradients:
    def test_zero_error_zero_gradient(self):
        model = zero_model()
        g = gradients(model, [[1.0, 2.0]], [[0.0, 0.0]], lambdas=(0, 0, 0))
        for grad in g:
            assert not grad.any()

    def test_output_delta_literal(self):
        # output 3 via the output bias, target 1: gradient at that bias is 3 - 1 = 2
        model = zero_model(n_in=1, h1=1, h2=1, n_out=1)
        model.w_out[0, 0] = 3.0
        g = gradients(model, [[0.0]], [[1.0]], lambdas=(0, 0, 0))
        assert g[2][0, 0] == 2.0

    @pytest.mark.parametrize("lambdas", [(0.0, 0.0, 0.0), (0.1, 0.1, 0.1)])
    def test_matches_finite_differences(self, lambdas):
        model, x, y = model_with_margin(seed=100)
        analytic = gradients(model, x, y, lambdas)
        numeric = finite_difference_gradients(model, x, y, lambdas)
        for a, n in zip(analytic, numeric):
            rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-6)])
            assert rel.max() <= 1e-5

    def test_batch_gradient_is_mean_of_singles(self):
        model, x, y = model_with_margin(seed=7, m=4)
        batch = gradients(model, x, y, (0, 0, 0))
        singles = [gradients(model, x[i : i + 1], y[i : i + 1], (0, 0, 0)) for i in range(4)]
        for layer in range(3):
            mean = np.mean([s[layer] for s in singles], axis=0)
            np.testing.assert_allclose(batch[layer], mean, rtol=1e-12, atol=1e-15)


class TestAdam:
    def test_zero_gradient_keeps_weights(self):
        model = ones_1111()
        before = [w.copy() for w in model.weights()]
        state = AdamState.zeros(model)
        adam_step(state, model, tuple(np.zeros_like(w) for w in model.weights()), alpha=0.5)
        for w, b in zip(model.weights(), before):
            assert np.array_equal(w, b)
        assert state.t == 1

    def test_first_step_magnitude(self):
        alpha = 0.02
        model = zero_model(n_in=1, h1=1, h2=1, n_out=1)
        state = AdamState.zeros(model)
        grads = tuple(np.ones_like(w) for w in model.weights())
        adam_step(state, model, grads, alpha=alpha)
        expected = alpha / (1 + 1e-8)
        for w in model.weights():
            assert np.abs(np.abs(w) - expected).max() <= 1e-12

    def test_first_step_sign_opposes_gradient(self):
        rng = np.random.default_rng(3)
        model = init_model(2, 3, 3, 2, rng)
        state = AdamState.zeros(model)
        before = [w.copy() for w in model.weights()]
        grads = tuple(rng.normal(size=w.shape) for w in model.weights())
        adam_step(state, model, grads, alpha=0.01)
        for w, b, g in zip(model.weights(), before, grads):
            assert (np.sign(w - b) == -np.sign(g)).all()

    def test_moments_accumulate(self):
        model = zero_model(1, 1, 1, 1)
        state = AdamState.zeros(model)
        grads = tuple(np.ones_like(w) for w in model.weights())
        for _ in range(5):
            adam_step(state, model, grads, alpha=0.1)
        assert state.t == 5
        for v in state.second:
            assert (v >= 0).all()


class TestAlphaSchedule:
    def test_paper_values(self):
        assert alpha_schedule(1, gamma=50.0) == 0.02
        assert alpha_schedule(100, gamma=50.0) == 0.0002

    def test_strictly_decreasing(self):
        values = [alpha_schedule(e, 50.0) for e in range(1, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_epoch_must_be_positive(self):
        with pytest.raises(ValueError, match="epoch"):
            alpha_schedule(0, 50.0)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        for key, value in (("epochs", 2.7), ("batch_size", "10"), ("seed", True),
                           ("log_every", np.float64(2.5)), ("inner_iters", None)):
            with pytest.raises(ValueError, match=f"{key} must be an integer"):
                TrainConfig(**{key: value})
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        for lambdas in ((0.1, np.nan, 0.1), (np.inf, 0.1, 0.1), (0.1, "a", 0.1), 0.1,
                        (10**400, 0, 0)):
            with pytest.raises(ValueError, match="lambdas"):
                TrainConfig(lambdas=lambdas)
        for gamma in (np.inf, np.nan, "50", 10**400):
            with pytest.raises(ValueError, match="gamma"):
                TrainConfig(gamma=gamma)
        for hidden in ((90,), (0, 5), (4, 4, 4), "12", (8.5, 8)):
            with pytest.raises(ValueError, match="hidden"):
                TrainConfig(hidden=hidden)
        with pytest.raises(ValueError):
            TrainConfig(lambdas=(-0.1, 0.1, 0.1))
        with pytest.raises(ValueError):
            TrainConfig(gamma=0.0)

    def test_dict_roundtrip(self):
        for hidden in (None, (12, 7)):
            cfg = TrainConfig(epochs=3, batch_size=7, lambdas=(0.0, 0.1, 0.2), seed=9,
                              hidden=hidden)
            d = json.loads(json.dumps(cfg.to_dict()))
            assert d["hidden"] == (None if hidden is None else list(hidden))
            assert TrainConfig.from_dict(d) == cfg

    def test_from_dict_coerces_hidden(self):
        assert TrainConfig.from_dict({"hidden": [8.0, 9]}).hidden == (8, 9)
        for hidden in ("ab", "12"):
            with pytest.raises(ValueError, match="hidden"):
                TrainConfig.from_dict({"hidden": hidden})

    def test_integral_floats_become_ints(self):
        cfg = TrainConfig(epochs=3.0, batch_size=np.int64(7), seed=2.0)
        assert (cfg.epochs, cfg.batch_size, cfg.seed) == (3, 7, 2)
        assert all(type(v) is int for v in (cfg.epochs, cfg.batch_size, cfg.seed))
        assert TrainConfig(lambdas=[0, 0.5, 1]).lambdas == (0, 0.5, 1)

    def test_fields(self):
        assert [f.name for f in fields(TrainConfig)] == [
            "epochs", "batch_size", "inner_iters", "gamma", "lambdas", "seed", "log_every",
            "hidden",
        ]


class TestTrain:
    def test_minimal_schedule_single_update(self):
        ds = synthetic_dataset(m=10)
        cfg = TrainConfig(epochs=1, batch_size=8, inner_iters=1, seed=1, log_every=1,
                          hidden=(4, 4))
        model, log = train(ds, np.arange(8), cfg, test_idx=[8, 9])
        assert model.layer_sizes[1:3] == (4, 4)
        assert [t for t, _ in log.curve] == [1]

    def test_remainder_samples_dropped(self):
        # 2850 training samples with batches of 1000: 2 batches per epoch, 850 ignored
        ds = synthetic_dataset(m=2860, n_free=1)
        cfg = TrainConfig(epochs=2, batch_size=1000, inner_iters=1, seed=0, log_every=1,
                          hidden=(2, 2))
        _, log = train(ds, np.arange(2850), cfg, test_idx=np.arange(2850, 2860))
        assert [t for t, _ in log.curve] == [1, 2, 3, 4]

    def test_update_count_with_inner_iterations(self):
        ds = synthetic_dataset(m=25)
        cfg = TrainConfig(epochs=3, batch_size=10, inner_iters=5, seed=0, log_every=1,
                          hidden=(2, 2))
        _, log = train(ds, np.arange(20), cfg, test_idx=np.arange(20, 25))
        assert [t for t, _ in log.curve] == list(range(1, 3 * 2 * 5 + 1))

    def test_too_small_training_set(self):
        ds = synthetic_dataset(m=5)
        cfg = TrainConfig(epochs=1, batch_size=10, inner_iters=1, hidden=(2, 2))
        with pytest.raises(ValueError, match="cannot fill one batch"):
            train(ds, np.arange(5), cfg)

    def test_diverging_run_stops_with_epoch(self):
        # alpha = 1 / (gamma * epoch) = 1e300: the first epoch already overflows
        ds = synthetic_dataset(m=30)
        cfg = TrainConfig(epochs=3, batch_size=10, inner_iters=2, gamma=1e-300, seed=0,
                          hidden=(4, 4))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="epoch 1 "):
            train(ds, np.arange(30), cfg)

    def test_rows_gathered_by_index_train_as_a_copied_subset(self):
        ds = synthetic_dataset(m=30)
        rows = np.random.default_rng(1).permutation(30)[:22]
        subset = replace(ds, region_id=ds.region_id[rows], target=ds.target[rows], u=ds.u[rows])
        cfg = TrainConfig(epochs=3, batch_size=5, inner_iters=2, seed=8, log_every=0,
                          hidden=(5, 5))
        gathered, _ = train(ds, rows, cfg)
        copied, _ = train(subset, np.arange(22), cfg)
        assert_same_bits(gathered.weights(), copied.weights())

    def test_deterministic(self):
        ds = synthetic_dataset(m=24)
        cfg = TrainConfig(epochs=3, batch_size=8, inner_iters=2, seed=42, log_every=0,
                          hidden=(5, 5))
        m1, _ = train(ds, np.arange(24), cfg)
        m2, _ = train(ds, np.arange(24), cfg)
        for a, b in zip(m1.weights(), m2.weights()):
            assert np.array_equal(a, b)

    def test_test_rmse_logged(self):
        ds = synthetic_dataset(m=30)
        cfg = TrainConfig(epochs=1, batch_size=10, inner_iters=2, seed=0, log_every=2,
                          hidden=(3, 3))
        _, log = train(ds, np.arange(20), cfg, test_idx=np.arange(20, 30))
        assert [t for t, _ in log.curve] == [2, 4]
        assert all(r >= 0 for _, r in log.curve)

    def test_no_curve_without_test_set(self):
        ds = synthetic_dataset(m=30)
        cfg = TrainConfig(epochs=1, batch_size=10, inner_iters=2, seed=0, log_every=2,
                          hidden=(3, 3))
        _, log = train(ds, np.arange(20), cfg)
        assert log.curve == [] and len(log.epoch_mean_cost) == 1

    def test_log_every_zero_records_only_the_last_update(self):
        ds = synthetic_dataset(m=30)
        cfg = TrainConfig(epochs=2, batch_size=10, inner_iters=3, seed=0, log_every=0,
                          hidden=(3, 3))
        model, log = train(ds, np.arange(20), cfg, test_idx=np.arange(20, 30))
        out = forward_batch(model, ds.inputs()[20:]).outputs
        rmse = float(np.sqrt(np.mean((out - ds.targets()[20:]) ** 2)) * ds.mm_per_unit)
        assert log.curve == [(2 * 2 * 3, rmse)]

    def test_hidden_none_uses_free_vertex_count(self):
        ds = synthetic_dataset(m=20, n_free=7)
        cfg = TrainConfig(epochs=1, batch_size=10, inner_iters=1, seed=0, hidden=None)
        model, _ = train(ds, np.arange(20), cfg)
        assert model.layer_sizes == (ds.n_obs * 3, 7, 7, 21)

    def test_overfit_small_fem_dataset(self):
        # memorization sanity: tiny dataset, no regularization
        mesh = generate_rpp(51.2, 25.6, 25.6)
        d = elasticity_matrix(MaterialParams())
        spec = SamplingSpec(mode="box", spacing=0.02, extents=(0.08, 0.06, 0.0))
        ds = build_dataset(mesh, d, {"end": spec}, n_steps=2)
        assert ds.m == 20
        cfg = TrainConfig(
            epochs=500, batch_size=20, inner_iters=10, lambdas=(0, 0, 0), seed=3, log_every=0,
            hidden=(50, 50),
        )
        idx = np.arange(ds.m)
        model, log = train(ds, idx, cfg)

        init_rng = np.random.default_rng(cfg.seed)
        x, y = ds.inputs(), ds.targets()
        virgin = init_model(x.shape[1], 50, 50, y.shape[1], init_rng)

        def rmse(m):
            from deformest.nn import forward_batch

            return np.sqrt(np.mean((forward_batch(m, x).outputs - y) ** 2))

        assert rmse(model) <= 0.01 * rmse(virgin)
        assert log.epoch_mean_cost[-1] < log.epoch_mean_cost[0]

    def test_initialization_bounds(self):
        rng = np.random.default_rng(0)
        model = init_model(9, 90, 90, 270, rng)
        for w in model.weights():
            bound = 1.0 / np.sqrt(w.shape[1])
            assert np.abs(w).max() <= bound
        out = forward_batch(model, np.linspace(-1, 1, 9)[None]).outputs
        assert np.isfinite(out).all()


class TestPredict:
    def test_zero_model_zero_field(self):
        model = zero_model(n_in=6, h1=4, h2=4, n_out=12)
        field = predict(model, np.ones((2, 3)))
        assert field.shape == (4, 3)
        assert not field.any()

    def test_layout_roundtrip(self):
        rng = np.random.default_rng(5)
        model = init_model(6, 8, 8, 12, rng)
        obs = rng.normal(size=(2, 3))
        field = predict(model, obs)
        raw = forward_batch(model, obs.reshape(1, -1)).outputs[0]
        assert np.array_equal(field.reshape(-1), raw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_rejected(self, bad):
        model = zero_model(n_in=6, h1=4, h2=4, n_out=12)
        obs = np.ones((2, 3))
        obs[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            predict(model, obs)

    def test_wrong_observation_count(self):
        model = zero_model(n_in=6, h1=4, h2=4, n_out=12)
        with pytest.raises(ValueError, match="observation"):
            predict(model, np.ones((3, 3)))


@st.composite
def models_and_rows(draw, scale=1.0):
    """A seeded model with layer sizes in 1-40 and a few input rows of it, one per call."""
    n_obs, n_out = draw(st.integers(1, 13)), draw(st.integers(1, 13))  # 3-39 inputs, outputs
    h1, h2 = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = init_model(3 * n_obs, h1, h2, 3 * n_out, rng)
    return model, rng.normal(scale=scale, size=(m, n_obs, 3))


PROPERTIES = settings(derandomize=True, max_examples=60, deadline=None)


class TestPredictProperties:
    """predict's matrix-vector path against forward_batch, on generated shapes."""

    @PROPERTIES
    @given(models_and_rows())
    def test_equals_single_row_forward_bit_for_bit(self, case):
        model, obs = case
        for o in obs:
            field = predict(model, o)
            assert field.shape == (model.layer_sizes[3] // 3, 3)
            row = forward_batch(model, o.reshape(1, -1)).outputs[0]
            assert np.array_equal(field.reshape(-1), row)

    @PROPERTIES
    @given(models_and_rows())
    def test_within_1e12_of_batch_row(self, case):
        model, obs = case
        batch = forward_batch(model, obs.reshape(len(obs), -1)).outputs
        for o, row in zip(obs, batch):
            got = predict(model, o).reshape(-1)
            assert np.allclose(got, row, rtol=1e-12, atol=1e-12 * np.abs(row).max())

    @PROPERTIES
    @given(models_and_rows(), st.integers(0, 38), st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_anywhere_rejected(self, case, where, bad):
        model, obs = case
        o = obs[0].copy()
        o.reshape(-1)[where % o.size] = bad
        with pytest.raises(ValueError, match="non-finite"):
            predict(model, o)

    @PROPERTIES
    @given(models_and_rows(scale=1e200))
    def test_finite_entries_whose_squares_overflow_accepted(self, case):
        model, obs = case
        o = obs[0]
        with np.errstate(over="ignore"):
            assert math.isinf(o.reshape(-1) @ o.reshape(-1))
        field = predict(model, o)
        assert np.array_equal(field.reshape(-1), forward_batch(model, o.reshape(1, -1)).outputs[0])

    @PROPERTIES
    @given(models_and_rows())
    def test_finite_entries_whose_sum_overflows_accepted(self, case):
        model, obs = case
        # the input layer scaled down, so that no product overflows
        model = MlpModel(model.w_hidden1 * 1e-10, model.w_hidden2, model.w_out)
        o = obs[0]
        o.reshape(-1)[:2] = 1e308, 1e308  # the fast check's sum overflows: the exact one decides
        assert math.isinf(sum(o.reshape(-1).tolist()))
        field = predict(model, o)
        assert np.array_equal(field.reshape(-1), forward_batch(model, o.reshape(1, -1)).outputs[0])


def assert_one_flat_vector(model):
    """The three matrices are row-major views of consecutive pieces of _params."""
    flat = model._params
    assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
    assert flat.size == sum(w.size for w in model.weights())
    for w in model.weights():
        assert w.base is flat and w.flags.c_contiguous
    assert np.array_equal(np.concatenate([w.ravel() for w in model.weights()]), flat)
    ends = np.cumsum([w.size for w in model.weights()])
    for w, start in zip(model.weights(), [0, *ends[:-1]]):
        assert np.shares_memory(w, flat[start : start + w.size])


def models_by_every_route(tmp_path):
    fresh = init_model(4, 6, 5, 9, np.random.default_rng(21))
    path = tmp_path / "model.json"
    save_model(fresh, path)
    return {
        "init_model": fresh,
        "MlpModel": MlpModel(*(w.tolist() for w in fresh.weights())),
        "load_model": load_model(path)[0],
        "deepcopy": copy.deepcopy(fresh),
        "pickle": pickle.loads(pickle.dumps(fresh)),
    }


class TestFlatParameters:
    def test_matrices_share_one_vector_by_every_route(self, tmp_path):
        models = models_by_every_route(tmp_path)
        for route, model in models.items():
            assert_one_flat_vector(model)
            assert_same_bits(model.weights(), models["init_model"].weights())

    def test_copies_own_their_vector(self, tmp_path):
        models = models_by_every_route(tmp_path)
        for route, model in models.items():
            if route != "init_model":
                assert not np.shares_memory(model._params, models["init_model"]._params), route

    def test_constructor_copies_its_arrays(self):
        w = [np.zeros((3, 3)), np.zeros((2, 4)), np.zeros((5, 3))]
        model = MlpModel(*w)
        w[2][0, 0] = 1.0
        assert not model._params.any()

    def test_writes_show_both_ways(self):
        model = init_model(4, 6, 5, 9, np.random.default_rng(22))
        model.w_out[2, 3] = 7.5
        assert model._params[6 * 5 + 5 * 7 + 2 * 6 + 3] == 7.5
        model._params[6 * 5 + 1] = -2.25  # w_hidden2[0, 1]
        assert model.w_hidden2[0, 1] == -2.25
        model._params[:] = 0.0
        assert not any(w.any() for w in model.weights())

    def test_training_updates_the_vector_in_place(self):
        ds = synthetic_dataset(m=20)
        cfg = TrainConfig(epochs=2, batch_size=5, inner_iters=2, seed=1, hidden=(4, 3))
        model, _ = train(ds, np.arange(20), cfg)
        assert_one_flat_vector(model)

    def test_save_model_bytes_unchanged(self, tmp_path):
        # the same seeded model and metadata, written before the weights shared a vector
        model = init_model(6, 5, 4, 9, np.random.default_rng(8))
        path = tmp_path / "model.json"
        save_model(model, path, observation_ids=[3, 7], mesh_hash="abc123", mm_per_unit=256.0,
                   train_config=TrainConfig(epochs=2, seed=8), metrics={"rmse_mm": 0.5})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "243df42e229a6232a09179197aef7380ec768c62459654d879613efa4f99fa9a")

    def test_l2_weights_per_parameter(self):
        c = nn._l2_weights((2, 3, 4, 5), (0.3, 0.0, 0.8))
        h1, h2, out = per_matrix(c, zero_model(2, 3, 4, 5))
        assert not c.flags.writeable
        assert (h1[:, 0] == 0).all() and (h1[:, 1:] == 0.3 / 6).all()
        assert not h2.any()
        assert (out[:, 0] == 0).all() and (out[:, 1:] == 0.8 / 20).all()

    def test_cost_penalty_is_half_weighted_sum_of_squares(self):
        model = init_model(2, 3, 4, 5, np.random.default_rng(23))
        lambdas = (0.3, 0.5, 0.8)
        x, y = np.zeros((1, 2)), np.zeros((1, 5))
        penalty = cost(model, x, y, lambdas) - cost(model, x, y, (0, 0, 0))
        by_matrix = sum(lam / (2 * w[:, 1:].size) * np.sum(w[:, 1:] ** 2)
                        for lam, w in zip(lambdas, model.weights()))
        assert math.isclose(penalty, by_matrix, rel_tol=1e-12)


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        model = init_model(6, 5, 4, 9, rng)
        cfg = TrainConfig(epochs=2, seed=8)
        path = tmp_path / "model.json"
        save_model(
            model,
            path,
            observation_ids=[3, 7],
            mesh_hash="abc123",
            mm_per_unit=256.0,
            train_config=cfg,
            metrics={"rmse_mm": 0.5},
        )
        loaded, meta = load_model(path)
        for a, b in zip(loaded.weights(), model.weights()):
            assert np.array_equal(a, b)
        assert meta["observation_ids"] == [3, 7]
        assert meta["mesh_hash"] == "abc123"
        assert meta["mm_per_unit"] == 256.0
        assert TrainConfig.from_dict(meta["train_config"]) == cfg
        assert meta["metrics"] == {"rmse_mm": 0.5}

    def test_bytes_are_json_dumps(self, tmp_path):
        # the file holds what json.dump writes for its content, float for float
        model = init_model(6, 5, 4, 9, np.random.default_rng(8))
        path = tmp_path / "model.json"
        save_model(model, path, observation_ids=[3, 7], mesh_hash="abc123", mm_per_unit=256.0,
                   train_config=TrainConfig(epochs=2, seed=8),
                   metrics={"rmse_mm": 0.1 + 0.2, "final_cost": 1e-300})
        want = io.StringIO()
        json.dump(json.loads(path.read_text()), want, sort_keys=True, separators=(",", ":"))
        assert path.read_text() == want.getvalue() + "\n"

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a model file"):
            load_model(path)

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(8)
        model = init_model(3, 2, 2, 3, rng)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# Oracles. The textbook update (Kingma & Ba's Algorithm 1, each gradient
# divided by the batch size after its product) is the arithmetic of the
# allocating update the reusable workspace replaced; the flat in-place update
# reorders it, so it must match to rounding. The efficient-form references
# below run the flat update's own order of operations on fresh per-matrix
# arrays, and the in-place code must reproduce their every bit.
# ---------------------------------------------------------------------------

def _with_bias(x):
    return np.hstack([np.ones((x.shape[0], 1)), x])


def per_matrix(vector, model):
    """Views of a flat parameter-layout vector, one per weight matrix."""
    ends = np.cumsum([w.size for w in model.weights()])[:-1]
    return tuple(part.reshape(w.shape) for part, w in zip(np.split(vector, ends), model.weights()))


def reference_gradients(model, x, y, lambdas=(0.1, 0.1, 0.1), work=None):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    m = x.shape[0]
    cache = forward_batch(model, x)
    delta_out = cache.outputs - y
    delta_h2 = (delta_out @ model.w_out[:, 1:]) * relu_grad(cache.z_hidden2)
    delta_h1 = (delta_h2 @ model.w_hidden2[:, 1:]) * relu_grad(cache.z_hidden1)
    g_out = delta_out.T @ _with_bias(cache.a_hidden2) / m
    g_h2 = delta_h2.T @ _with_bias(cache.a_hidden1) / m
    g_h1 = delta_h1.T @ _with_bias(cache.inputs) / m
    for g, lam, w in zip((g_h1, g_h2, g_out), lambdas, model.weights()):
        if lam:
            g[:, 1:] += (lam / w[:, 1:].size) * w[:, 1:]
    return g_h1, g_h2, g_out


def reference_adam_step(state, model, grads, alpha):
    state.t += 1
    t = state.t
    for w, g, m, v in zip(model.weights(), grads, per_matrix(state.first, model),
                          per_matrix(state.second, model)):
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        w -= alpha * m_hat / (np.sqrt(v_hat) + 1e-8)


def efficient_gradients(model, x, y, lambdas=(0.1, 0.1, 0.1), work=None):
    """The batch size divides the output error before the products; the L2
    term is c * w with c = lambda / n on non-bias entries and 0 on bias
    columns, added to every matrix once any lambda is nonzero."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    cache = forward_batch(model, x)
    delta_out = (cache.outputs - y) / x.shape[0]
    delta_h2 = (delta_out @ model.w_out[:, 1:]) * relu_grad(cache.z_hidden2)
    delta_h1 = (delta_h2 @ model.w_hidden2[:, 1:]) * relu_grad(cache.z_hidden1)
    grads = (delta_h1.T @ _with_bias(cache.inputs), delta_h2.T @ _with_bias(cache.a_hidden1),
             delta_out.T @ _with_bias(cache.a_hidden2))
    if any(lambdas):
        for g, lam, w in zip(grads, lambdas, model.weights()):
            c = np.full(w.shape, lam / w[:, 1:].size if lam else 0.0)
            c[:, 0] = 0.0
            g += c * w
    return grads


def efficient_adam_step(state, model, grads, alpha):
    """Kingma & Ba's efficient form: both bias corrections folded into the
    step size and the denominator guard."""
    state.t += 1
    t = state.t
    alpha_t = alpha * math.sqrt(1.0 - 0.999**t) / (1.0 - 0.9**t)
    eps_hat = 1e-8 * math.sqrt(1.0 - 0.999**t)
    for w, g, m, v in zip(model.weights(), grads, per_matrix(state.first, model),
                          per_matrix(state.second, model)):
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        w -= m / (np.sqrt(v) + eps_hat) * alpha_t


ORACLES = {
    "textbook": (reference_gradients, reference_adam_step),
    "efficient": (efficient_gradients, efficient_adam_step),
}
# Largest relative difference allowed against the textbook oracle, over 100x
# the largest measured on these cases (see CHANGES.md); the efficient-form
# oracle must match exactly (bound None).
BOUNDS = {"textbook": 1e-12, "efficient": None}


def run_with_oracle(monkeypatch, oracle, call):
    """call() with train() running the oracle's kernels, then call() as is."""
    oracle_gradients, oracle_adam_step = ORACLES[oracle]
    monkeypatch.setattr(nn, "gradients", oracle_gradients)
    monkeypatch.setattr(nn, "adam_step", oracle_adam_step)
    want = call()
    monkeypatch.undo()
    return call(), want


def assert_same_bits(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.shape == y.shape and np.array_equal(x, y)
        assert np.array_equal(np.signbit(x), np.signbit(y))


def relative_difference(a, b) -> float:
    """Largest |a - b| over the largest |b|, taken across a sequence of arrays."""
    return max(np.abs(np.subtract(x, y)).max() for x, y in zip(a, b)) / max(
        np.abs(y).max() for y in b)


def assert_matches(a, b, bound):
    """a and b equal in every bit (bound None) or to within the relative bound."""
    if bound is None:
        assert_same_bits(a, b)
    else:
        assert len(a) == len(b) and relative_difference(a, b) <= bound


def assert_values_match(a, b, bound, where="report"):
    """Nested reports equal, each float to within the relative bound (bound
    None: equal)."""
    if isinstance(a, float) and bound is not None:
        assert math.isclose(a, b, rel_tol=bound, abs_tol=0.0), (where, a, b)
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_values_match(x, y, bound, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            assert_values_match(a[key], b[key], bound, f"{where}.{key}")
    else:
        assert a == b, (where, a, b)


TRAIN_CASES = [
    (1, (6, 5), (0.1, 0.1, 0.1)),
    (7, (5, 4), (0.0, 0.3, 0.1)),
    (10, None, (0.1, 0.1, 0.1)),
]


class TestAllocationFreeUpdate:
    def check_train(self, monkeypatch, oracle, batch_size, hidden, lambdas):
        ds = synthetic_dataset(m=40, n_free=5)
        cfg = TrainConfig(epochs=3, batch_size=batch_size, inner_iters=3, lambdas=lambdas,
                          seed=4, log_every=5, hidden=hidden)
        (model, log), (ref_model, ref_log) = run_with_oracle(
            monkeypatch, oracle, lambda: train(ds, np.arange(35), cfg, test_idx=np.arange(35, 40)))
        assert_matches(model.weights(), ref_model.weights(), BOUNDS[oracle])
        assert_values_match(log.epoch_mean_cost, ref_log.epoch_mean_cost, BOUNDS[oracle])
        assert_values_match(log.curve, ref_log.curve, BOUNDS[oracle])

    @pytest.mark.parametrize("batch_size, hidden, lambdas", TRAIN_CASES)
    def test_train_matches_reference(self, monkeypatch, batch_size, hidden, lambdas):
        self.check_train(monkeypatch, "textbook", batch_size, hidden, lambdas)

    @pytest.mark.parametrize("batch_size, hidden, lambdas", TRAIN_CASES)
    def test_train_matches_efficient_reference(self, monkeypatch, batch_size, hidden, lambdas):
        self.check_train(monkeypatch, "efficient", batch_size, hidden, lambdas)

    def check_session(self, monkeypatch, oracle):
        ds = synthetic_dataset(m=30, n_free=4)
        cfg = TrainConfig(epochs=2, batch_size=6, inner_iters=2, seed=3, log_every=4,
                          hidden=(5, 5))
        report, ref = run_with_oracle(
            monkeypatch, oracle, lambda: asdict(run_session(ds, cfg, k=3, n_repeats=2)))
        assert_values_match(report, ref, BOUNDS[oracle])

    def test_session_report_matches_reference(self, monkeypatch):
        self.check_session(monkeypatch, "textbook")

    def test_session_report_matches_efficient_reference(self, monkeypatch):
        self.check_session(monkeypatch, "efficient")

    def test_reused_workspace_matches_fresh_calls(self):
        rng = np.random.default_rng(11)
        model = init_model(4, 6, 5, 3, rng)
        work = nn._GradientWorkspace(model, 5)
        for lambdas in ((0.1, 0.2, 0.3), (0.0, 0.0, 0.0), (0.0, 0.2, 0.0)):
            for _ in range(2):  # two different batches through one workspace
                x, y = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
                reused = gradients(model, x, y, lambdas, work)
                assert_same_bits(reused, gradients(model, x, y, lambdas))
                assert_same_bits(reused, efficient_gradients(model, x, y, lambdas))
                assert_matches(reused, reference_gradients(model, x, y, lambdas),
                               BOUNDS["textbook"])
                assert (work.x[:, 0] == 1).all() and (work.a1[:, 0] == 1).all()
                assert (work.a2[:, 0] == 1).all()
                assert all(np.shares_memory(g, work.grad) for g in reused)

    def test_workspace_of_other_batch_size_rejected(self):
        model = init_model(4, 6, 5, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="workspace"):
            gradients(model, np.zeros((3, 4)), np.zeros((3, 3)), work=nn._GradientWorkspace(model, 5))

    def check_adam_step(self, oracle):
        oracle_adam_step = ORACLES[oracle][1]
        for flat_gradients in (True, False):
            rng = np.random.default_rng(12)
            model = init_model(3, 4, 4, 6, rng)
            ref_model = MlpModel(*(w.copy() for w in model.weights()))
            state, ref_state = AdamState.zeros(model), AdamState.zeros(ref_model)
            work = nn._GradientWorkspace(model, 2)
            for step in range(1, 6):
                grads = tuple(rng.normal(size=w.shape) for w in model.weights())
                if flat_gradients:  # the flat path that train takes
                    for g, src in zip(work.grads, grads):
                        g[...] = src
                    grads = work.grads
                adam_step(state, model, grads, alpha=0.02 / step)
                oracle_adam_step(ref_state, ref_model, grads, alpha=0.02 / step)
            assert_matches(model.weights(), ref_model.weights(), BOUNDS[oracle])
            assert_matches([state.first, state.second], [ref_state.first, ref_state.second],
                           BOUNDS[oracle])
            assert state.t == ref_state.t == 5

    def test_adam_step_matches_reference(self):
        self.check_adam_step("textbook")

    def test_adam_step_matches_efficient_reference(self):
        self.check_adam_step("efficient")

    def test_adam_step_rejects_wrong_shapes(self):
        model = init_model(3, 4, 4, 6, np.random.default_rng(0))
        state = AdamState.zeros(model)
        for grads in (tuple(np.zeros_like(w) for w in model.weights()[:2]),
                      tuple(np.zeros_like(w.T) for w in model.weights())):
            with pytest.raises(ValueError, match="gradient shapes"):
                adam_step(state, model, grads, alpha=0.01)
        assert state.t == 0

    def test_one_gradient_and_one_adam_call_per_update(self, monkeypatch):
        # the benchmark's traced run divides train time by the nn.gradients span count
        calls = {"gradients": 0, "adam_step": 0}
        for name in calls:
            original = getattr(nn, name)

            def counted(*args, __name=name, __original=original, **kwargs):
                calls[__name] += 1
                return __original(*args, **kwargs)

            monkeypatch.setattr(nn, name, counted)
        ds = synthetic_dataset(m=23)
        cfg = TrainConfig(epochs=3, batch_size=5, inner_iters=4, seed=0, hidden=(3, 3))
        train(ds, np.arange(23), cfg)
        assert calls == {"gradients": 3 * 4 * 4, "adam_step": 3 * 4 * 4}
