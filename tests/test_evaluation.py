import io
import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from deformest import _blas, evaluation
from deformest.evaluation import (
    curves_to_csv,
    export_vtk,
    kfold,
    local_positional_error,
    report_to_csv,
    report_to_json,
    rmse,
    run_session,
)
from deformest.mesh import ScaleConvention
from deformest.nn import TrainConfig
from conftest import make_synthetic_dataset

MM = ScaleConvention(mm_per_unit=256.0)


class TestKFold:
    def test_even_split(self):
        folds = kfold(10, k=5, seed=0)
        assert len(folds) == 5
        assert all(len(f) == 2 for f in folds)

    def test_remainder_distribution(self):
        folds = kfold(11, k=5, seed=3)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [2, 2, 2, 2, 3]
        assert sorted(np.concatenate(folds).tolist()) == list(range(11))

    def test_deterministic(self):
        a = kfold(17, k=4, seed=12)
        b = kfold(17, k=4, seed=12)
        assert len(a) == len(b) == 4
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_seed_changes_folds(self):
        a = kfold(17, k=4, seed=12)
        b = kfold(17, k=4, seed=13)
        assert any(not np.array_equal(fa, fb) for fa, fb in zip(a, b))

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(2, min(n, 8) + 1))
            folds = kfold(n, k=k, seed=int(rng.integers(1000)))
            assert len(folds) == k
            assert sorted(np.concatenate(folds).tolist()) == list(range(n))
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="cannot split"):
            kfold(3, k=5)

    @pytest.mark.parametrize("k", [2.5, True, "3"])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            kfold(10, k)


class TestRmse:
    def test_zero_for_identical(self):
        x = np.random.default_rng(0).normal(size=(3, 5, 3))
        assert rmse(x, x, MM) == 0.0

    def test_hand_single_vertex(self):
        # single sample, single vertex, difference (3, 4, 0)/256 units:
        # sqrt((9 + 16 + 0)/3) mm = 5/sqrt(3) mm
        pred = np.array([[[3.0, 4.0, 0.0]]]) / 256.0
        target = np.zeros((1, 1, 3))
        assert abs(rmse(pred, target, MM) - 5.0 / np.sqrt(3.0)) <= 1e-12
        assert abs(rmse(pred, target, MM) - 2.886751345948129) <= 1e-12

    def test_scales_linearly_with_mm_per_unit(self):
        rng = np.random.default_rng(4)
        pred, target = rng.normal(size=(2, 6, 3)), rng.normal(size=(2, 6, 3))
        a = rmse(pred, target, ScaleConvention(mm_per_unit=256.0))
        b = rmse(pred, target, ScaleConvention(mm_per_unit=512.0))
        assert abs(b - 2 * a) <= 1e-12 * b

    def test_symmetry_and_definiteness(self):
        rng = np.random.default_rng(8)
        pred, target = rng.normal(size=(4, 5, 3)), rng.normal(size=(4, 5, 3))
        assert rmse(pred, target, MM) == rmse(target, pred, MM)
        assert rmse(pred, target, MM) > 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            rmse(np.zeros((1, 2, 3)), np.zeros((1, 3, 3)), MM)


class TestLocalPositionalError:
    def test_identical_fields(self):
        x = np.random.default_rng(0).normal(size=(1, 7, 3))
        res = local_positional_error(x, x, MM)
        assert not res.per_vertex_mm.any()
        assert res.mean_mm[0] == 0.0 and res.max_mm[0] == 0.0

    def test_single_component_offset(self):
        target = np.random.default_rng(1).normal(size=(5, 3)) * 0.01
        pred = target.copy()
        pred[2, 0] += 0.01  # 0.01 units = 2.56 mm at 256 mm/unit
        res = local_positional_error(pred[None], target[None], MM)
        assert abs(res.per_vertex_mm[0, 2] - 2.56) <= 1e-12
        assert np.abs(np.delete(res.per_vertex_mm[0], 2)).max() == 0.0
        assert abs(res.max_mm[0] - 2.56) <= 1e-12
        assert res.argmax_vertex[0] == 2
        expected_disp = np.linalg.norm(target[2]) * 256.0
        assert abs(res.argmax_true_disp_mm[0] - expected_disp) <= 1e-12

    def test_mean_matches_naive_loop(self):
        # 40 vertices: the per-sample mean runs numpy's pairwise summation
        rng = np.random.default_rng(21)
        pred, target = rng.normal(size=(2, 60, 40, 3))
        res = local_positional_error(pred, target, MM)
        assert res.per_vertex_mm.shape == (60, 40)
        for name in ("mean_mm", "max_mm", "argmax_vertex", "argmax_true_disp_mm"):
            assert getattr(res, name).shape == (60,), name
        for i in range(60):
            errors = []
            for v in range(40):
                dx = pred[i, v] - target[i, v]
                errors.append(np.sqrt(dx[0] ** 2 + dx[1] ** 2 + dx[2] ** 2) * 256.0)
            assert abs(res.mean_mm[i] - sum(errors) / 40) <= 1e-9
            assert abs(res.max_mm[i] - max(errors)) <= 1e-9
            v = res.argmax_vertex[i]
            assert v == int(np.argmax(errors))
            assert res.argmax_true_disp_mm[i] == np.linalg.norm(target[i, v]) * 256.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="fields of one shape"):
            local_positional_error(np.zeros((2, 4, 3)), np.zeros((2, 5, 3)), MM)
        with pytest.raises(ValueError, match="fields of one shape"):
            local_positional_error(np.zeros(12), np.zeros(12), MM)
        with pytest.raises(ValueError, match="fields of one shape"):  # one field, unstacked
            local_positional_error(np.zeros((4, 3)), np.zeros((4, 3)), MM)

    def test_mean_never_exceeds_max(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            res = local_positional_error(rng.normal(size=(1, 6, 3)), rng.normal(size=(1, 6, 3)), MM)
            assert res.mean_mm[0] <= res.max_mm[0] + 1e-15


def tiny_session(k=2, n_repeats=1, m=30):
    ds = make_synthetic_dataset(m=m, n_free=4, seed=2)
    cfg = TrainConfig(epochs=2, batch_size=5, inner_iters=2, seed=11, log_every=2, hidden=(6, 6))
    return ds, run_session(ds, cfg, k=k, n_repeats=n_repeats)


class TestRunSession:
    def test_minimal_session_populates_report(self):
        ds, report = tiny_session(k=2)
        assert len(report.trials) == 2
        assert report.k == 2 and report.n_repeats == 1
        assert report.sample_count == ds.m
        assert report.n_free == 4 and report.n_obs == 2
        assert report.n_hidden1 == report.n_hidden2 == 6
        assert report.mean_rmse_mm > 0
        assert report.max_displacement_mm > 0
        for t in report.trials:
            assert t.n_train + t.n_test == ds.m
            assert t.curve, "expected test RMSE curve points"

    def test_mean_rmse_is_mean_of_trials(self):
        _, report = tiny_session(k=3)
        assert abs(report.mean_rmse_mm - np.mean([t.rmse_mm for t in report.trials])) <= 1e-12

    def test_percentages_recompute_from_mm(self):
        _, report = tiny_session(k=2, n_repeats=2)
        scale = 100.0 / report.max_displacement_mm
        assert abs(report.mean_rmse_pct - report.mean_rmse_mm * scale) <= 1e-12
        assert abs(report.mean_max_lpe_pct - report.mean_max_lpe_mm * scale) <= 1e-12
        for t in report.trials:
            assert abs(t.rmse_pct - t.rmse_mm * scale) <= 1e-12
            assert abs(t.mean_lpe_pct - t.mean_lpe_mm * scale) <= 1e-12

    def test_mean_lpe_below_mean_max_lpe(self):
        _, report = tiny_session(k=2)
        assert report.mean_lpe_mm <= report.mean_max_lpe_mm

    def test_repeats_produce_k_trials_each(self):
        _, report = tiny_session(k=2, n_repeats=3)
        assert len(report.trials) == 6
        assert sorted({t.repeat for t in report.trials}) == [0, 1, 2]

    def test_deterministic(self):
        _, a = tiny_session(k=2)
        _, b = tiny_session(k=2)
        assert a.mean_rmse_mm == b.mean_rmse_mm
        for ta, tb in zip(a.trials, b.trials):
            assert ta.rmse_mm == tb.rmse_mm


class TestSessionArguments:
    @pytest.mark.parametrize("n_repeats", [0, -2])
    def test_no_repeat_is_rejected_before_training(self, n_repeats, monkeypatch):
        def untrained(*args, **kwargs):
            raise AssertionError("train was called")

        monkeypatch.setattr(evaluation, "train", untrained)
        ds = make_synthetic_dataset(m=30, n_free=4, seed=2)
        with pytest.raises(ValueError, match="n_repeats must be >= 1, got"):
            run_session(ds, TrainConfig(batch_size=5, hidden=(6, 6)), k=2, n_repeats=n_repeats)

    @pytest.mark.parametrize("n_repeats", [1.5, True])
    def test_non_integral_repeats_are_rejected_before_training(self, n_repeats, monkeypatch):
        def untrained(*args, **kwargs):
            raise AssertionError("train was called")

        monkeypatch.setattr(evaluation, "train", untrained)
        ds = make_synthetic_dataset(m=30, n_free=4, seed=2)
        with pytest.raises(ValueError, match=f"n_repeats must be an integer, got {n_repeats!r}"):
            run_session(ds, TrainConfig(batch_size=5, hidden=(6, 6)), k=2, n_repeats=n_repeats)

    def test_hidden_widths_come_from_the_config(self):
        ds = make_synthetic_dataset(m=30, n_free=4, seed=2)
        cfg = TrainConfig(epochs=1, batch_size=5, inner_iters=1, hidden=None)
        report = run_session(ds, cfg, k=2)
        assert (report.n_hidden1, report.n_hidden2) == (4, 4)


def session_files(tmp_path, name, ds, cfg, **kwargs):
    """The bytes of report.json, report.csv and curves.csv of one session."""
    report = run_session(ds, cfg, **kwargs)
    out = tmp_path / name
    out.mkdir()
    blobs = []
    for writer, file in ((report_to_json, "report.json"), (report_to_csv, "report.csv"),
                         (curves_to_csv, "curves.csv")):
        writer(report, out / file)
        blobs.append((out / file).read_bytes())
    return tuple(blobs)


class TestTrialThreads:
    """run_session runs its trials in threads and reports as a serial loop would."""

    def test_one_runner_per_core_and_trial(self, monkeypatch):
        cores = len(os.sched_getaffinity(0))
        if _blas.threads("numpy") is not None:
            assert _blas.runners("numpy", 1) == 1
            assert _blas.runners("numpy", 50) == cores
        monkeypatch.setattr(_blas, "threads", lambda package: None)
        assert _blas.runners("numpy", 50) == 1

    def test_every_index_runs_once_under_fast_thread_switching(self):
        # more runners than cores, switching threads every microsecond
        calls = []

        def run(i):
            calls.append(i)
            return i * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _blas.in_threads(run, 500, 6)
        finally:
            sys.setswitchinterval(interval)
        assert results == [i * i for i in range(500)]
        assert sorted(calls) == list(range(500))

    def test_report_bytes_do_not_depend_on_thread_count(self, tmp_path, monkeypatch):
        # products small enough that OpenBLAS runs them on one thread even
        # unpinned, as in the serial run where no OpenBLAS is found
        ds = make_synthetic_dataset(m=64, n_free=40, seed=6)
        cfg = TrainConfig(epochs=3, batch_size=16, inner_iters=2, seed=9, log_every=5,
                          hidden=(48, 48))
        runs = {}
        for runners in (1, 2, 3):
            monkeypatch.setattr(_blas, "runners", lambda package, n, r=runners: r)
            runs[runners] = session_files(tmp_path, f"r{runners}", ds, cfg, k=4, n_repeats=2)
        monkeypatch.undo()
        monkeypatch.setattr(_blas, "threads", lambda package: None)  # no OpenBLAS found
        runs["serial"] = session_files(tmp_path, "serial", ds, cfg, k=4, n_repeats=2)
        assert all(blobs == runs[1] for blobs in runs.values())

    def test_report_bytes_do_not_depend_on_the_callers_blas_threads(self, tmp_path,
                                                                    numpy_threads):
        # desk-sized products, which a threaded OpenBLAS splits: unpinned, one
        # and two caller threads give other bits
        ds = make_synthetic_dataset(m=140, n_free=90, seed=6)
        cfg = TrainConfig(epochs=2, batch_size=100, inner_iters=2, seed=9, log_every=2,
                          hidden=(90, 90))
        runs = []
        for count in (1, 2):
            _blas.threads("numpy").put(count)
            runs.append(session_files(tmp_path, f"t{count}", ds, cfg, k=4, n_repeats=2))
        assert runs[0] == runs[1]

    def test_every_runner_trains_at_once_in_the_callers_errstate(self, monkeypatch):
        # a serial loop never passes the barrier
        barrier = threading.Barrier(3, timeout=30)
        seen = {}
        train = evaluation.train

        def meeting(*args, **kwargs):
            if threading.get_ident() not in seen:
                seen[threading.get_ident()] = np.geterr()
                barrier.wait()
            return train(*args, **kwargs)

        monkeypatch.setattr(_blas, "runners", lambda package, n: 3)
        monkeypatch.setattr(evaluation, "train", meeting)
        with np.errstate(over="ignore", under="warn"):
            _, report = tiny_session(k=5)
            expected = np.geterr()
        assert len(report.trials) == 5
        assert len(seen) == 3 and all(state == expected for state in seen.values())

    @pytest.mark.parametrize("runners", [1, 2, 3])
    def test_first_failing_trial_in_order_raises_and_later_ones_never_start(
            self, runners, monkeypatch):
        started = []
        train = evaluation.train

        def failing(dataset, train_idx, config, test_idx=None):
            fold = config.seed % 1000
            started.append(fold)
            if fold == 1:
                time.sleep(0.3)  # fold 2 fails first, when it runs at once
                raise ValueError("fold 1 failed")
            if fold == 2:
                raise ValueError("fold 2 failed")
            return train(dataset, train_idx, config, test_idx=test_idx)

        monkeypatch.setattr(_blas, "runners", lambda package, n: runners)
        monkeypatch.setattr(evaluation, "train", failing)
        with pytest.raises(ValueError, match="^fold 1 failed$"):
            tiny_session(k=6)
        assert set(started) <= set(range(runners + 1))

    def test_diverging_trials_raise_one_error_at_every_thread_count(self, monkeypatch):
        ds = make_synthetic_dataset(m=30, n_free=4, seed=2)
        cfg = TrainConfig(epochs=2, batch_size=5, inner_iters=2, gamma=1e-300, hidden=(6, 6))
        errors = []
        for runners in (1, 2):
            monkeypatch.setattr(_blas, "runners", lambda package, n, r=runners: r)
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="epoch 1 ") as exc:
                run_session(ds, cfg, k=3)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


class TestExports:
    def test_json_roundtrip(self, tmp_path):
        _, report = tiny_session(k=2)
        path = tmp_path / "report.json"
        report_to_json(report, path)
        doc = json.loads(path.read_text())
        assert doc["mean_rmse_mm"] == report.mean_rmse_mm
        assert len(doc["trials"]) == 2
        want = io.StringIO()  # what json.dump writes for the content
        json.dump(doc, want, sort_keys=True, separators=(",", ":"))
        assert path.read_text() == want.getvalue() + "\n"

    def test_csv_row_per_trial(self, tmp_path):
        _, report = tiny_session(k=3)
        path = tmp_path / "report.csv"
        report_to_csv(report, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3
        header = lines[0].split(",")
        assert "rmse_mm" in header and "mean_max_lpe_pct" in header
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["rmse_mm"]) == report.trials[0].rmse_mm

    def test_curves_csv(self, tmp_path):
        _, report = tiny_session(k=2)
        path = tmp_path / "curves.csv"
        curves_to_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "repeat,fold,iteration,test_rmse_mm"
        assert len(lines) == 1 + sum(len(t.curve) for t in report.trials)

    def test_vtk_export(self, tmp_path, unit_cube):
        rng = np.random.default_rng(0)
        scalars = {"error_mm": rng.random(unit_cube.n_vertices)}
        disp = 0.01 * rng.normal(size=(unit_cube.n_vertices, 3))
        path = tmp_path / "field.vtk"
        export_vtk(path, unit_cube, point_scalars=scalars, displacements=disp)
        text = path.read_text().splitlines()
        assert text[0] == "# vtk DataFile Version 3.0"
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert f"POINTS {unit_cube.n_vertices} double" in text
        assert f"CELLS {unit_cube.n_tets} {5 * unit_cube.n_tets}" in text
        assert f"POINT_DATA {unit_cube.n_vertices}" in text
        assert "SCALARS error_mm double 1" in text
        assert "VECTORS displacement double" in text
        # the first point is displaced
        first = np.array([float(v) for v in text[5].split()])
        np.testing.assert_allclose(first, unit_cube.vertices[0] + disp[0], rtol=0, atol=0)

    def test_vtk_scalar_length_checked(self, tmp_path, unit_cube):
        with pytest.raises(ValueError, match="values"):
            export_vtk(tmp_path / "x.vtk", unit_cube, point_scalars={"bad": np.ones(3)})
