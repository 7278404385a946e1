import json

import numpy as np
import pytest

from deformest.evaluation import (
    FoldPlan,
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
        plan = kfold(10, k=5, seed=0)
        assert all(len(f) == 2 for f in plan.folds)

    def test_remainder_distribution(self):
        plan = kfold(11, k=5, seed=3)
        sizes = sorted(len(f) for f in plan.folds)
        assert sizes == [2, 2, 2, 2, 3]
        assert sorted(np.concatenate(plan.folds).tolist()) == list(range(11))

    def test_deterministic(self):
        a = kfold(17, k=4, seed=12)
        b = kfold(17, k=4, seed=12)
        for fa, fb in zip(a.folds, b.folds):
            assert np.array_equal(fa, fb)

    def test_seed_changes_folds(self):
        a = kfold(17, k=4, seed=12)
        b = kfold(17, k=4, seed=13)
        assert any(not np.array_equal(fa, fb) for fa, fb in zip(a.folds, b.folds))

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(2, min(n, 8) + 1))
            plan = kfold(n, k=k, seed=int(rng.integers(1000)))
            assert sorted(np.concatenate(plan.folds).tolist()) == list(range(n))
            for fold in range(k):
                train = set(plan.train_indices(fold).tolist())
                test = set(plan.test_indices(fold).tolist())
                assert not train & test
                assert train | test == set(range(n))

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="cannot split"):
            kfold(3, k=5)

    def test_overlapping_folds_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FoldPlan(k=2, seed=0, folds=(np.array([0, 1]), np.array([1, 2])))


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
        x = np.random.default_rng(0).normal(size=(7, 3))
        res = local_positional_error(x, x, MM)
        assert not res.per_vertex_mm.any()
        assert res.mean_mm == 0.0 and res.max_mm == 0.0

    def test_single_component_offset(self):
        target = np.random.default_rng(1).normal(size=(5, 3)) * 0.01
        pred = target.copy()
        pred[2, 0] += 0.01  # 0.01 units = 2.56 mm at 256 mm/unit
        res = local_positional_error(pred, target, MM)
        assert abs(res.per_vertex_mm[2] - 2.56) <= 1e-12
        assert np.abs(np.delete(res.per_vertex_mm, 2)).max() == 0.0
        assert abs(res.max_mm - 2.56) <= 1e-12
        assert res.argmax_vertex == 2
        expected_disp = np.linalg.norm(target[2]) * 256.0
        assert abs(res.argmax_true_disp_mm - expected_disp) <= 1e-12

    def test_mean_matches_naive_loop(self):
        rng = np.random.default_rng(6)
        pred, target = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
        res = local_positional_error(pred, target, MM)
        acc = 0.0
        for i in range(9):
            dx = pred[i] - target[i]
            acc += np.sqrt(dx[0] ** 2 + dx[1] ** 2 + dx[2] ** 2) * 256.0
        assert abs(res.mean_mm - acc / 9) <= 1e-9

    def test_mean_never_exceeds_max(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            res = local_positional_error(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)), MM)
            assert res.mean_mm <= res.max_mm + 1e-15


def tiny_session(k=2, n_repeats=1, m=30):
    ds = make_synthetic_dataset(m=m, n_free=4, seed=2)
    cfg = TrainConfig(epochs=2, batch_size=5, inner_iters=2, seed=11, log_every=2)
    return ds, run_session(ds, cfg, n_hidden1=6, n_hidden2=6, k=k, n_repeats=n_repeats)


class TestRunSession:
    def test_minimal_session_populates_report(self):
        ds, report = tiny_session(k=2)
        assert len(report.trials) == 2
        assert report.k == 2 and report.n_repeats == 1
        assert report.sample_count == ds.m
        assert report.n_free == 4 and report.n_obs == 2
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


class TestExports:
    def test_json_roundtrip(self, tmp_path):
        _, report = tiny_session(k=2)
        path = tmp_path / "report.json"
        report_to_json(report, path)
        doc = json.loads(path.read_text())
        assert doc["mean_rmse_mm"] == report.mean_rmse_mm
        assert len(doc["trials"]) == 2

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
