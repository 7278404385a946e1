"""The OpenBLAS thread pins: numpy's for training and cross-validation, scipy's for FEM steps."""

import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from deformest import _blas, evaluation, fem, nn, sampling
from deformest.evaluation import run_session
from deformest.fem import MaterialParams, deform, elasticity_matrix
from deformest.mesh import generate_rpp
from deformest.nn import TrainConfig, train

from conftest import make_synthetic_dataset

CONFIG = TrainConfig(epochs=2, batch_size=5, inner_iters=2, seed=3, log_every=2, hidden=(6, 6))
DIVERGING = TrainConfig(epochs=2, batch_size=5, inner_iters=2, gamma=1e-300, hidden=(6, 6))


def fake_library(*patterns):
    """A stand-in for a loaded OpenBLAS exporting its thread-count functions under each
    symbol pattern, and the dict holding its one count."""
    state = {"count": 4}

    def get():
        time.sleep(0)  # let other threads run between a pin's check and its update
        return state["count"]

    def put(n):
        time.sleep(0)
        state["count"] = n

    lib = types.SimpleNamespace()
    for pattern in patterns:
        setattr(lib, pattern.format("get_num_threads"), get)
        setattr(lib, pattern.format("set_num_threads"), put)
    return lib, state


@pytest.fixture
def fresh_lookup(monkeypatch):
    """The uncached library lookup, on an empty pin registry and the given mapped libraries."""
    monkeypatch.setattr(_blas, "_pins", {})

    def lookup(libs, package):
        monkeypatch.setattr(_blas, "_mapped_blas", lambda: libs)
        return _blas.threads.__wrapped__(package)

    return lookup


class TestLookup:
    def test_packages_on_one_library_share_one_pin(self, fresh_lookup):
        lib, state = fake_library("openblas_{}", "openblas_{}64_")
        numpy_pin = fresh_lookup({"libopenblas.so": lib}, "numpy")
        scipy_pin = fresh_lookup({"libopenblas.so": lib}, "scipy")
        assert numpy_pin is scipy_pin
        with numpy_pin.one_thread():
            with scipy_pin.one_thread():
                assert state["count"] == 1
            assert state["count"] == 1  # the other body still runs
        assert state["count"] == 4

    def test_each_package_pins_its_own_library(self, fresh_lookup):
        numpy_lib, numpy_state = fake_library("scipy_openblas_{}64_")
        scipy_lib, scipy_state = fake_library("scipy_openblas_{}")
        libs = {"libscipy_openblas.so": scipy_lib, "libscipy_openblas64_.so": numpy_lib}
        numpy_pin, scipy_pin = fresh_lookup(libs, "numpy"), fresh_lookup(libs, "scipy")
        assert numpy_pin is not scipy_pin
        with numpy_pin.one_thread():
            assert (numpy_state["count"], scipy_state["count"]) == (1, 4)
        with scipy_pin.one_thread():
            assert (numpy_state["count"], scipy_state["count"]) == (4, 1)

    def test_overlapping_bodies_in_many_threads_restore_the_count(self, fresh_lookup):
        lib, state = fake_library("scipy_openblas_{}64_")
        pin = fresh_lookup({"libscipy_openblas64_.so": lib}, "numpy")
        inside = []

        def body():
            for _ in range(200):
                with pin.one_thread():
                    inside.append(state["count"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=body) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert inside == [1] * 1200
        assert state["count"] == 4

    def test_numpy_never_takes_a_library_without_64_names(self, fresh_lookup):
        lib, _ = fake_library("scipy_openblas_{}")
        assert fresh_lookup({"libscipy_openblas.so": lib}, "numpy") is None

    def test_nothing_found_pins_nothing(self, monkeypatch):
        monkeypatch.setattr(_blas, "threads", lambda package: None)
        with _blas.one_thread("numpy"):
            pass


class TestNumpyPin:
    @pytest.mark.parametrize("runners", [(1, 1), (1, 2)])
    def test_in_process_samples_run_on_one_thread_and_give_the_count_back(
            self, runners, numpy_threads, monkeypatch):
        seen = []
        run = sampling._run_sample

        def recording(*args):
            seen.append(numpy_threads())
            return run(*args)

        monkeypatch.setattr(sampling, "_run_sample", recording)
        monkeypatch.setattr(sampling, "sampling_runners", lambda *args: runners)
        spec = sampling.SamplingSpec(mode="box", spacing=0.2, extents=(0.2, 0.2, 0.0))
        ds = sampling.build_dataset(generate_rpp(), elasticity_matrix(MaterialParams()),
                                    {"end": spec}, n_steps=2)
        assert ds.runners == runners and seen == [1] * 4
        assert numpy_threads() == 2

    def test_train_runs_on_one_thread_and_gives_the_count_back(self, numpy_threads,
                                                               monkeypatch):
        seen = []
        gradients = nn.gradients

        def recording(*args, **kwargs):
            seen.append(numpy_threads())
            return gradients(*args, **kwargs)

        monkeypatch.setattr(nn, "gradients", recording)
        ds = make_synthetic_dataset(m=20)
        train(ds, np.arange(20), CONFIG)
        assert seen and set(seen) == {1}
        assert numpy_threads() == 2
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged"):
            train(ds, np.arange(20), DIVERGING)
        assert numpy_threads() == 2

    @pytest.mark.parametrize("runners", [1, 2])
    def test_session_runs_on_one_thread_and_gives_the_count_back(self, runners, numpy_threads,
                                                                 monkeypatch):
        seen = []
        forward_batch = evaluation.forward_batch

        def recording(*args, **kwargs):  # each trial's final pass, outside train
            seen.append(numpy_threads())
            return forward_batch(*args, **kwargs)

        monkeypatch.setattr(evaluation, "forward_batch", recording)
        monkeypatch.setattr(_blas, "runners", lambda package, n: runners)
        ds = make_synthetic_dataset(m=20)
        run_session(ds, CONFIG, k=4)
        assert seen == [1] * 4
        assert numpy_threads() == 2
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged"):
            run_session(ds, DIVERGING, k=4)
        assert numpy_threads() == 2

    def test_batch_forward_runs_on_one_thread_and_predict_never_pins(self, numpy_threads,
                                                                     monkeypatch):
        seen = []
        relu = nn.relu

        def recording(z):  # inside the forward pass, between its products
            seen.append(numpy_threads())
            return relu(z)

        monkeypatch.setattr(nn, "relu", recording)
        model = nn.init_model(6, 5, 5, 12, np.random.default_rng(0))
        rows = np.random.default_rng(1).normal(size=(7, 6))
        batch = nn.forward_batch(model, rows).outputs
        assert seen == [1, 1] and numpy_threads() == 2
        seen.clear()
        one = nn.predict(model, rows[3].reshape(2, 3))
        assert seen == [2, 2] and numpy_threads() == 2
        assert np.allclose(one.reshape(-1), batch[3], rtol=1e-12, atol=0.0)

    def test_overlapping_deform_and_train_restore_both_counts(self, numpy_threads,
                                                              lapack_threads, monkeypatch):
        # each call waits inside its pin until the other is inside its own, and
        # neither goes on before both have read the counts
        barrier = threading.Barrier(2, timeout=30)
        seen = {}

        def meeting(name, original):
            def call(*args, **kwargs):
                if name not in seen:
                    seen[name] = None
                    barrier.wait()
                    seen[name] = (numpy_threads(), lapack_threads())
                    barrier.wait()
                return original(*args, **kwargs)
            return call

        monkeypatch.setattr(fem, "_band_cholesky", meeting("deform", fem._band_cholesky))
        monkeypatch.setattr(nn, "gradients", meeting("train", nn.gradients))
        mesh, d = generate_rpp(51.2, 25.6, 25.6), elasticity_matrix(MaterialParams())
        ds = make_synthetic_dataset(m=20)
        with ThreadPoolExecutor(1) as pool:
            fields = pool.submit(deform, mesh, d, "end", (0.01, 0.02, 0.0), 3)
            train(ds, np.arange(20), CONFIG)
            fields.result(timeout=60)
        assert seen == {"deform": (1, 1), "train": (1, 1)}
        assert (numpy_threads(), lapack_threads()) == (2, 2)
