"""End-to-end acceptance suite.

Each criterion prints one [PASS]/[FAIL] line (visible with ``pytest -s``).
Criterion 5 runs the full rpp1-desk pipeline through the CLI and takes a few
minutes; everything else finishes in seconds.
"""

import hashlib
import json
import os

import numpy as np
import pytest
import scipy.linalg

from deformest.cli import main
from deformest.evaluation import kfold, run_session
from deformest.fem import (
    MaterialParams,
    StiffnessSystem,
    assemble,
    deform,
    elasticity_matrix,
    solve_forced_displacement,
)
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
    train,
)
from deformest.sampling import SamplingSpec, grid_points, ellipsoid_points, load_dataset

from conftest import element_stiffness
from test_fem import material_d, solve_via_explicit_inverse
from test_nn import finite_difference_gradients, model_with_margin, zero_model
from test_sampling import brute_force_ellipsoid_count

WORKERS = min(os.cpu_count() or 1, 4)


def check(criterion: str, description: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{tag}] {criterion}: {description}{suffix}")
    assert passed, f"{criterion}: {description}{suffix}"


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Full rpp1-desk reproduction through the CLI; shared by criteria 5 and 6."""
    out = tmp_path_factory.mktemp("rpp1_desk")
    code = main(["repro", "--profile", "rpp1-desk", "--out", str(out),
                 "--workers", str(WORKERS)])
    assert code == 0, "rpp1-desk reproduction run failed"
    return out


class TestCriterion1FemCorrectness:
    def test_stiffness_symmetry(self, paper_rpp):
        k = assemble(paper_rpp, paper_rpp.vertices, material_d()).K
        asym = np.abs(k - k.T).max() / np.abs(k).max()
        check("criterion-1", "global stiffness symmetric within 1e-10 relative",
              asym <= 1e-10, f"asymmetry {asym:.2e}")

    def test_rigid_translation_annihilation(self):
        tet = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        ke = element_stiffness(tet, material_d())
        worst = max(
            np.abs(ke @ np.tile(t, 4)).max() for t in np.eye(3)
        ) / np.abs(ke).max()
        check("criterion-1", "element annihilates rigid translations within 1e-9",
              worst <= 1e-9, f"residual {worst:.2e}")

    def test_patch_test(self):
        mesh = generate_rpp(76.8, 76.8, 25.6, fixed_spec=[], contact_specs={},
                            observation_spec=[])
        system = assemble(mesh, mesh.vertices, material_d())
        coords = mesh.vertices
        lo, hi = 1e-9, 0.3 - 1e-9
        interior = np.flatnonzero(
            ((coords > lo) & (coords < hi)).all(axis=1)
        )
        boundary = np.setdiff1d(np.arange(mesh.n_vertices), interior)
        a = np.array([[0.02, 0.01, 0.0], [0.005, -0.01, 0.015], [0.0, 0.02, -0.005]])
        affine = coords @ a.T + np.array([0.001, -0.002, 0.003])
        _, u_n = solve_forced_displacement(
            system, system.vertex_dofs(boundary), affine[boundary].reshape(-1)
        )
        err = np.abs(u_n.reshape(-1, 3) - affine[interior]).max()
        check("criterion-1", "patch test reproduces the affine field within 1e-8",
              err <= 1e-8, f"max error {err:.2e}")

    def test_floating_mesh_nullspace(self):
        mesh = generate_rpp(51.2, 25.6, 25.6, fixed_spec=[], contact_specs={},
                            observation_spec=[])
        k = assemble(mesh, mesh.vertices, material_d()).K
        s = np.linalg.svd(k, compute_uv=False)
        dim = int(np.sum(s < 1e-9 * s[0]))
        check("criterion-1", "floating 2-cube mesh has a 6-dimensional nullspace",
              dim == 6, f"dimension {dim}")

    def test_two_dof_hand_example(self):
        system = StiffnessSystem(K=np.array([[2.0, -1.0], [-1.0, 2.0]]))
        f_c, u_n = solve_forced_displacement(system, [0], [1.0])
        err = max(abs(u_n[0] - 0.5), abs(f_c[0] - 1.5))
        check("criterion-1", "2-DOF forced-displacement example exact to 1e-12",
              err <= 1e-12, f"error {err:.1e}")

    def test_inverse_form_equivalence(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(5):
            a = rng.normal(size=(30, 30))
            k = a @ a.T + 30 * np.eye(30)
            contact = rng.choice(30, size=6, replace=False)
            u_c = rng.normal(size=6)
            f_c, u_n = solve_forced_displacement(StiffnessSystem(K=k), contact, u_c)
            f_ref, u_ref = solve_via_explicit_inverse(k, contact, u_c)
            worst = max(
                worst,
                np.abs(f_c - f_ref).max() / max(1.0, np.abs(f_ref).max()),
                np.abs(u_n - u_ref).max() / max(1.0, np.abs(u_ref).max()),
            )
        check("criterion-1", "partitioned solve matches the inverse form within 1e-10",
              worst <= 1e-10, f"max rel diff {worst:.2e}")


class TestCriterion2PhysicsProperties:
    def test_young_modulus_scaling(self):
        mesh = generate_rpp(51.2, 25.6, 25.6)
        target = np.array([0.02, 0.05, 0.01])
        soft = deform(mesh, material_d(1.0e6, 0.4), "end", target, n_steps=3)
        stiff = deform(mesh, material_d(1.0e7, 0.4), "end", target, n_steps=3)
        du = np.abs(soft.displacements - stiff.displacements).max() / max(
            1.0, np.abs(soft.displacements).max()
        )
        df = np.abs(10.0 * soft.contact_forces - stiff.contact_forces).max() / np.abs(
            stiff.contact_forces
        ).max()
        check("criterion-2", "10x Young's modulus leaves displacements unchanged (<=1e-9)",
              du <= 1e-9, f"rel diff {du:.2e}")
        check("criterion-2", "10x Young's modulus scales contact forces 10x (<=1e-9)",
              df <= 1e-9, f"rel diff {df:.2e}")

    def test_incremental_matches_linear_in_small_regime(self, paper_rpp):
        target = 1e-4 * np.array([0.2, 0.7, -0.6])  # 1e-4 of the unit-long object
        one = deform(paper_rpp, material_d(), "end", target, n_steps=1)
        many = deform(paper_rpp, material_d(), "end", target, n_steps=100)
        rel = np.abs(one.displacements - many.displacements).max() / np.abs(
            one.displacements
        ).max()
        check("criterion-2", "100-step increment matches one linear solve within 0.1%",
              rel <= 1e-3, f"rel diff {rel:.2e}")


class TestCriterion3SamplingReproduction:
    def test_box_grid_count_and_reach(self):
        pts = grid_points([0.0, 0.0, 0.0], (204.8, 204.8, 102.4), 5.12)
        check("criterion-3", "box grid yields exactly 35,301 points",
              len(pts) == 35301, f"count {len(pts)}")
        lattice = np.rint(pts / 5.12)
        max_sq = (lattice**2).sum(axis=1).max()
        reach = 5.12 * np.sqrt(max_sq)
        check("criterion-3", "farthest grid point sits exactly 153.6 mm from the center",
              reach == 153.6, f"reach {reach!r}")

    def test_ellipsoid_counts_match_bruteforce(self):
        rng = np.random.default_rng(31)
        ok = True
        for _ in range(5):
            spacing = float(rng.uniform(0.2, 1.0))
            r_para = float(rng.uniform(1.0, 4.0)) * spacing
            r_perp = float(rng.uniform(1.0, 4.0)) * spacing
            spec = SamplingSpec(mode="ellipsoid", spacing=spacing,
                                r_para=r_para, r_perp=r_perp)
            pts = ellipsoid_points(spec, rng.normal(size=3), rng.normal(size=3))
            ok &= len(pts) == brute_force_ellipsoid_count(r_para, r_perp, spacing)
        check("criterion-3", "ellipsoid counts equal brute-force lattice enumeration", ok)


class TestCriterion4NetworkMath:
    def test_gradients_match_finite_differences(self):
        model, x, y = model_with_margin(seed=500)
        worst = 0.0
        for lambdas in ((0.0, 0.0, 0.0), (0.1, 0.1, 0.1)):
            analytic = gradients(model, x, y, lambdas)
            numeric = finite_difference_gradients(model, x, y, lambdas)
            for a, n in zip(analytic, numeric):
                rel = np.abs(a - n) / np.maximum.reduce(
                    [np.abs(a), np.abs(n), np.full_like(a, 1e-6)]
                )
                worst = max(worst, rel.max())
        check("criterion-4", "backprop matches central differences within 1e-5",
              worst <= 1e-5, f"max rel diff {worst:.2e}")

    def test_output_delta(self):
        model = zero_model(n_in=1, h1=1, h2=1, n_out=1)
        model.w_out[0, 0] = 3.0
        g = gradients(model, [[0.0]], [[1.0]], lambdas=(0, 0, 0))
        check("criterion-4", "output-layer delta equals output minus target exactly",
              g[2][0, 0] == 2.0, f"delta {g[2][0, 0]!r}")

    def test_cost_hand_value(self):
        model = zero_model(n_in=2, h1=3, h2=3, n_out=2)
        model.w_out[:, 0] = [1.0, 2.0]
        j = cost(model, [[0.0, 0.0]], [[0.0, 0.0]], lambdas=(0, 0, 0))
        check("criterion-4", "half-squared-error example J = 2.5 exactly",
              j == 2.5, f"J {j!r}")

    def test_adam_first_step(self):
        alpha = 0.02
        model = zero_model(n_in=1, h1=1, h2=1, n_out=1)
        state = AdamState.zeros(model)
        adam_step(state, model, tuple(np.ones_like(w) for w in model.weights()), alpha=alpha)
        expected = alpha / (1 + 1e-8)
        err = max(np.abs(np.abs(w) - expected).max() for w in model.weights())
        check("criterion-4", "first Adam step magnitude equals alpha/(1+1e-8) to 1e-12",
              err <= 1e-12, f"error {err:.1e}")

    def test_alpha_schedule_values(self):
        ok = alpha_schedule(1, 50.0) == 0.02 and alpha_schedule(100, 50.0) == 0.0002
        check("criterion-4", "step-size schedule gives 0.02 and 0.0002 at epochs 1 and 100",
              ok)


class TestCriterion5DeskScaleEndToEnd:
    def test_desk_profile_rmse_bound(self, desk_run):
        report = json.loads((desk_run / "report.json").read_text())
        pct = report["mean_rmse_pct"]
        check(
            "criterion-5",
            "rpp1-desk mean 5-fold test RMSE within 1% of max contact displacement",
            pct <= 1.0,
            f"{report['mean_rmse_mm']:.4f} mm = {pct:.4f}% of "
            f"{report['max_displacement_mm']:.1f} mm",
        )

    def test_desk_artifacts_complete(self, desk_run):
        missing = [
            name
            for name in ("mesh.txt", "dataset.ds", "model.json", "report.json",
                          "report.csv", "curves.csv", "repro.manifest.json")
            if not (desk_run / name).exists()
        ]
        check("criterion-5", "reproduction run writes every pipeline artifact",
              not missing, f"missing {missing}" if missing else "all present")
        manifest = json.loads((desk_run / "repro.manifest.json").read_text())
        files = {"mesh": "mesh.txt", "dataset": "dataset.ds", "model": "model.json",
                 "report_json": "report.json", "report_csv": "report.csv",
                 "curves_csv": "curves.csv"}
        hashes = {name: hashlib.sha256((desk_run / f).read_bytes()).hexdigest()
                  for name, f in files.items()}
        recorded = (manifest["outputs"], manifest["seed"], manifest["workers"])
        check("criterion-5", "reproduction manifest hashes every artifact, with seed and workers",
              recorded == (hashes, 0, WORKERS), f"recorded {recorded}")

    def test_model_records_training_metrics(self, desk_run):
        metrics = json.loads((desk_run / "model.json").read_text())["metrics"]
        ok = metrics is not None and all(
            np.isfinite(metrics.get(key, np.nan)) for key in ("train_rmse_mm", "final_cost")
        )
        check("criterion-5", "reproduction model records its training metrics", ok,
              f"metrics {metrics}")

    def test_report_internally_consistent(self, desk_run):
        report = json.loads((desk_run / "report.json").read_text())
        trials = report["trials"]
        mean_recomputed = float(np.mean([t["rmse_mm"] for t in trials]))
        ok = (
            len(trials) == 5
            and abs(mean_recomputed - report["mean_rmse_mm"]) <= 1e-12
            and abs(report["mean_rmse_pct"]
                    - report["mean_rmse_mm"] / report["max_displacement_mm"] * 100.0) <= 1e-12
        )
        check("criterion-5", "report aggregates recompute from per-trial records", ok)


class TestCriterion6OverfitSanity:
    def test_memorize_20_samples(self, desk_run):
        ds = load_dataset(desk_run / "dataset.ds")
        subset_idx = np.arange(20)
        cfg = TrainConfig(epochs=500, batch_size=20, inner_iters=10,
                          lambdas=(0, 0, 0), seed=7, log_every=0, hidden=(50, 50))
        # rebuild the untouched initial model to measure the starting error
        x = ds.inputs()[subset_idx]
        y = ds.targets()[subset_idx]
        virgin = init_model(x.shape[1], 50, 50, y.shape[1], np.random.default_rng(cfg.seed))

        model, _ = train(ds, subset_idx, cfg)

        def rmse_of(m):
            return float(np.sqrt(np.mean((forward_batch(m, x).outputs - y) ** 2)))

        ratio = rmse_of(model) / rmse_of(virgin)
        check("criterion-6", "20-sample unregularized run reaches 1% of initial RMSE",
              ratio <= 0.01, f"final/initial {ratio:.5f}")


TINY_CONFIG = {
    "mesh": {"generator": {"kind": "rpp", "long_mm": 51.2, "short_mm": 25.6,
                           "spacing_mm": 25.6, "roles": "single"}},
    "material": {"young_modulus_pa": 1.0e6, "poisson_ratio": 0.40},
    "scale": {"mm_per_unit": 256.0},
    "fem": {"n_steps": 2},
    "sampling": {"regions": {"end": {"mode": "box",
                                     "extents_mm": [10.24, 10.24, 0.0],
                                     "spacing_mm": 5.12}}},
    "train": {"epochs": 2, "batch_size": 4, "inner_iters": 2, "gamma": 50.0,
              "lambdas": [0.1, 0.1, 0.1], "seed": 5, "log_every": 2,
              "hidden": [8, 8]},
    "eval": {"k": 2, "repeats": 1},
}

ARTIFACTS = ("mesh.txt", "dataset.ds", "model.json", "report.json", "report.csv",
             "curves.csv")


class TestCriterion7Determinism:
    def test_every_stage_reproduces_byte_identical_artifacts(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY_CONFIG))
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            for stage in ("mesh", "sample", "train", "eval"):
                code = main([stage, "--config", str(cfg_path), "--out", str(out)])
                assert code == 0, f"stage {stage} failed"
            blobs.append({f: (out / f).read_bytes() for f in ARTIFACTS})
        diffs = [f for f in ARTIFACTS if blobs[0][f] != blobs[1][f]]
        check("criterion-7", "identical seed/config reproduce byte-identical artifacts",
              not diffs, f"differing {diffs}" if diffs else "all identical")

    def test_session_level_determinism(self):
        mesh = generate_rpp(51.2, 25.6, 25.6)
        d = elasticity_matrix(MaterialParams())
        results = []
        for _ in range(2):
            res = deform(mesh, d, "end", (0.01, 0.02, 0.0), n_steps=3)
            results.append(res.displacements.tobytes())
        check("criterion-7", "repeated FEM runs are bitwise identical",
              results[0] == results[1])

    def test_fold_plans_deterministic(self):
        a = kfold(40, k=5, seed=3)
        b = kfold(40, k=5, seed=3)
        same = len(a) == len(b) == 5 and all(np.array_equal(x, y) for x, y in zip(a, b))
        check("criterion-7", "fold plans are deterministic per seed", same)
