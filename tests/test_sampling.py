import multiprocessing
import os
import re
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from deformest import _blas, fem, sampling
from deformest.fem import MaterialParams, elasticity_matrix
from deformest.mesh import TetMesh, generate_rpp
from deformest.sampling import (
    _MAGIC,
    Dataset,
    DatasetError,
    DatasetFormatError,
    MeshHashMismatchError,
    SamplingSpec,
    build_dataset,
    ellipsoid_points,
    ellipsoid_spec_for_region,
    fixed_to_contact_direction,
    grid_points,
    load_dataset,
    region_surface_normal,
    sampling_runners,
    save_dataset,
)

from conftest import make_blob_mesh, rewrite_dataset_header

D = elasticity_matrix(MaterialParams())


class TestGridPoints:
    def test_box_grid_point_count(self):
        pts = grid_points([0, 0, 0], (204.8, 204.8, 102.4), 5.12)
        assert pts.shape == (41 * 41 * 21, 3)
        assert len(pts) == 35301

    def test_max_center_distance(self):
        pts = grid_points([0, 0, 0], (204.8, 204.8, 102.4), 5.12)
        # exact arithmetic on the integer lattice: the farthest corner is
        # (20, 20, 10) spacings away, |.| = 30 spacings
        lattice = pts / 5.12
        n2 = np.rint(lattice[:, 0]) ** 2 + np.rint(lattice[:, 1]) ** 2 + np.rint(lattice[:, 2]) ** 2
        assert 5.12 * np.sqrt(n2.max()) == 153.6
        # naive float norms agree to a few ulp
        naive = np.linalg.norm(pts, axis=1).max()
        assert abs(naive - 153.6) <= 1e-12 * 153.6

    def test_degenerate_extents_yield_center(self):
        center = np.array([1.5, -2.0, 0.25])
        pts = grid_points(center, (0.0, 0.0, 0.0), 5.12)
        assert pts.shape == (1, 3)
        assert np.array_equal(pts[0], center)

    def test_count_formula_property(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cells = rng.integers(0, 6, size=3)
            spacing = float(rng.uniform(0.1, 3.0))
            pts = grid_points(rng.normal(size=3), tuple(cells * spacing), spacing)
            assert len(pts) == np.prod(cells + 1)

    def test_non_divisible_extent_rejected(self):
        with pytest.raises(DatasetError, match="integer multiple"):
            grid_points([0, 0, 0], (1.0, 1.0, 0.7), 0.3)

    def test_boundary_included(self):
        pts = grid_points([0, 0, 0], (2.0, 2.0, 2.0), 1.0)
        assert pts[:, 0].min() == -1.0 and pts[:, 0].max() == 1.0


def brute_force_ellipsoid_count(r_para, r_perp, spacing):
    """Plain triple loop over the integer lattice (frame independent)."""
    count = 0
    n = int(max(r_para, r_perp) / spacing) + 2
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            for k in range(-n, n + 1):
                d_para = i * spacing
                d_perp_sq = (j * spacing) ** 2 + (k * spacing) ** 2
                if (d_para / r_para) ** 2 + d_perp_sq / r_perp**2 <= 1.0:
                    count += 1
    return count


class TestEllipsoidPoints:
    def test_tiny_radius_keeps_only_centroid(self):
        spec = SamplingSpec(mode="ellipsoid", spacing=1.0, r_para=0.4, r_perp=0.4)
        pts = ellipsoid_points(spec, [3.0, 1.0, 2.0], [1.0, 0.0, 0.0])
        assert pts.shape == (1, 3)
        assert np.array_equal(pts[0], [3.0, 1.0, 2.0])

    def test_sphere_count_matches_bruteforce(self):
        spec = SamplingSpec(mode="ellipsoid", spacing=1.0, r_para=5.0, r_perp=5.0)
        pts = ellipsoid_points(spec, [0.0, 0.0, 0.0], [0.3, -0.2, 0.9])
        assert len(pts) == brute_force_ellipsoid_count(5.0, 5.0, 1.0)

    def test_random_spec_counts_match_bruteforce(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            spacing = float(rng.uniform(0.2, 1.0))
            r_para = float(rng.uniform(1.0, 4.0)) * spacing
            r_perp = float(rng.uniform(1.0, 4.0)) * spacing
            spec = SamplingSpec(mode="ellipsoid", spacing=spacing, r_para=r_para, r_perp=r_perp)
            v_fc = rng.normal(size=3)
            pts = ellipsoid_points(spec, rng.normal(size=3), v_fc)
            assert len(pts) == brute_force_ellipsoid_count(r_para, r_perp, spacing)

    def test_acute_angle_filter(self):
        center = np.array([0.0, 0.0, 0.0])
        v_fc = np.array([1.0, 0.0, 0.0])
        v_nv = np.array([0.0, 0.0, 1.0])
        free = ellipsoid_points(
            SamplingSpec(mode="ellipsoid", spacing=1.0, r_para=3.0, r_perp=3.0), center, v_fc
        )
        filtered = ellipsoid_points(
            SamplingSpec(
                mode="ellipsoid", spacing=1.0, r_para=3.0, r_perp=3.0, normal_filter=tuple(v_nv)
            ),
            center,
            v_fc,
        )
        assert (filtered @ v_nv > 0).all()
        want = {tuple(np.round(p, 9)) for p in free if p @ v_nv > 0}
        got = {tuple(np.round(p, 9)) for p in filtered}
        assert got == want
        # the point diametrically opposite v_nv is excluded
        assert tuple(np.round(-v_nv, 9)) not in got

    def test_zero_direction_rejected(self):
        spec = SamplingSpec(mode="ellipsoid", spacing=1.0, r_para=1.0, r_perp=1.0)
        with pytest.raises(DatasetError, match="zero length"):
            ellipsoid_points(spec, [0, 0, 0], [0.0, 0.0, 0.0])

    def test_spec_validation(self):
        with pytest.raises(DatasetError, match="mode"):
            SamplingSpec(mode="banana", spacing=1.0)
        with pytest.raises(DatasetError, match="spacing"):
            SamplingSpec(mode="box", spacing=0.0, extents=(1, 1, 1))
        with pytest.raises(DatasetError, match="radii"):
            SamplingSpec(mode="ellipsoid", spacing=1.0, r_para=1.0)
        with pytest.raises(DatasetError, match="nonzero"):
            SamplingSpec(
                mode="ellipsoid", spacing=1.0, r_para=1.0, r_perp=1.0, normal_filter=(0, 0, 0)
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), True])
    @pytest.mark.parametrize("field", ["spacing", "extents", "r_para", "r_perp",
                                       "reference_length"])
    def test_lengths_must_be_finite_numbers(self, field, bad):
        # a bool would read as 1, and NaN or inf would reach the lattice count
        kwargs = ({"mode": "box", "spacing": 0.1, "extents": (0.2, 0.2, 0.0)}
                  if field == "extents" else
                  {"mode": "ellipsoid", "spacing": 0.1, "r_para": 0.2, "r_perp": 0.2,
                   "reference_length": 1.0})
        kwargs[field] = (0.2, bad, 0.0) if field == "extents" else bad
        message = "box mode needs 3 finite" if field == "extents" else f"{field} must be a finite"
        with pytest.raises(DatasetError, match=message):
            SamplingSpec(**kwargs)

    def test_lengths_of_any_number_type_accepted(self):
        spec = SamplingSpec(mode="box", spacing=np.float32(0.5), extents=np.array([1, 0.5, 0]))
        assert grid_points(np.zeros(3), spec.extents, spec.spacing).shape == (6, 3)
        SamplingSpec(mode="ellipsoid", spacing=1, r_para=np.int64(2), r_perp=2.0,
                     reference_length=np.float64(3.0))

    def test_unresolved_normal_filter_rejected(self):
        # only ellipsoid_spec_for_region resolves "auto"
        with pytest.raises(DatasetError, match="normal_filter must be None or a vector"):
            SamplingSpec(
                mode="ellipsoid", spacing=1.0, r_para=1.0, r_perp=1.0, normal_filter="auto"
            )

    @pytest.mark.parametrize("normal_filter", [
        [True, 0, 0], ["1", 0, 0], (1.0, None, 0.0), [float("nan"), 0, 1], [0, float("inf"), 1],
        [10**400, 0, 0], np.array([True, False, False]), [[1.0], [0.0], [0.0]],
    ])
    def test_filter_entries_must_be_finite_numbers(self, normal_filter):
        # np.asarray(..., dtype=float) would read a bool or a numeric string as a number
        with pytest.raises(DatasetError, match="normal_filter must be None or a vector of 3"):
            SamplingSpec(mode="ellipsoid", spacing=0.1, r_para=0.1, r_perp=0.1,
                         normal_filter=normal_filter)

    @pytest.mark.parametrize("normal_filter", [
        [2, 0, 0], (2.0, 0.0, 0.0), np.array([2.0, 0.0, 0.0]), (np.float32(2), np.int64(0), 0),
    ])
    def test_filter_of_numbers_is_normalized(self, normal_filter):
        spec = SamplingSpec(mode="ellipsoid", spacing=0.1, r_para=0.1, r_perp=0.1,
                            normal_filter=normal_filter)
        assert spec.normal_filter == (1.0, 0.0, 0.0)


class TestRegionGeometry:
    def test_fixed_to_contact_direction(self, paper_rpp):
        v, l = fixed_to_contact_direction(paper_rpp, "end")
        np.testing.assert_allclose(v, [1.0, 0.0, 0.0], atol=1e-12)
        assert abs(l - 1.0) <= 1e-12  # 256 mm in simulation units

    def test_region_surface_normal(self, paper_rpp):
        n = region_surface_normal(paper_rpp, "end")
        # the end face is dominated by its +x faces; corner/edge vertices tilt
        # the average but the direction must stay outward along +x
        assert n[0] > 0.5
        assert abs(np.linalg.norm(n) - 1.0) <= 1e-12

    def test_ellipsoid_spec_for_region(self, paper_rpp):
        spec = ellipsoid_spec_for_region(
            paper_rpp, "end", r_para_ratio=0.05, r_perp_ratio=0.2, spacing_ratio=0.01
        )
        l = spec.reference_length
        assert abs(spec.r_para - 0.05 * l) <= 1e-15
        assert abs(spec.r_perp - 0.2 * l) <= 1e-15
        assert abs(spec.spacing - 0.01 * l) <= 1e-15
        assert spec.normal_filter is not None

    @pytest.mark.parametrize("seed", range(3))
    def test_diameter_reference_length_matches_brute_force(self, seed):
        mesh = make_blob_mesh(seed=seed, n_points=200)
        spec = ellipsoid_spec_for_region(
            mesh, "grab", r_para_ratio=0.2, r_perp_ratio=0.3, spacing_ratio=0.05,
            reference_length="diameter", normal_filter=None,
        )
        diffs = mesh.vertices[:, None, :] - mesh.vertices[None, :, :]
        assert spec.reference_length == np.sqrt((diffs**2).sum(axis=2)).max()
        assert spec.r_para == 0.2 * spec.reference_length

    def test_direction_requires_fixed_vertices(self):
        mesh = generate_rpp(51.2, 25.6, 25.6, fixed_spec=[], observation_spec=[])
        with pytest.raises(DatasetError, match="no fixed vertices"):
            fixed_to_contact_direction(mesh, "end")


def small_bar():
    return generate_rpp(51.2, 25.6, 25.6)


class TestBuildDataset:
    def test_single_point_at_centroid_gives_zero_field(self):
        mesh = small_bar()
        spec = SamplingSpec(mode="box", spacing=1.0, extents=(0.0, 0.0, 0.0))
        ds = build_dataset(mesh, D, {"end": spec}, n_steps=1)
        assert ds.m == 1
        assert not ds.u.any()
        assert not ds.target.any()

    def test_contact_rows_echo_target(self):
        mesh = small_bar()
        spec = SamplingSpec(mode="box", spacing=0.02, extents=(0.04, 0.04, 0.0))
        ds = build_dataset(mesh, D, {"end": spec}, n_steps=2)
        assert ds.m == 9
        slots = np.searchsorted(ds.free_ids, mesh.contact_regions["end"])
        for u, target in zip(ds.u, ds.target):
            echo = u.reshape(-1, 3)[slots]
            assert np.abs(echo - target).max() <= 1e-9

    def test_contact_rows_that_miss_the_target_fail_the_sample(self, monkeypatch):
        mesh = small_bar()
        spec = SamplingSpec(mode="box", spacing=0.02, extents=(0.04, 0.0, 0.0))
        deform = fem._SolverPlan.deform

        def shifted(plan, lame, target, n_steps):
            result = deform(plan, lame, target, n_steps)
            if target[0] > 0:  # only the last of the three lattice points
                result.displacements[plan.contact_slots] += 1e-6
            return result

        monkeypatch.setattr(fem._SolverPlan, "deform", shifted)
        ds = build_dataset(mesh, D, {"end": spec}, n_steps=2)
        assert [(f.region, f.point_index) for f in ds.failures] == [("end", 2)]
        assert ds.failures[0].reason == "contact displacement echo off by 1.00e-06"
        assert ds.m == 2 and ds.regions == ["end"]
        assert np.allclose(ds.target[:, 0], [-0.02, 0.0])

    def test_mesh_serialized_once_per_mesh(self, monkeypatch):
        # the content hash is kept with the mesh; a pickled copy hashes once itself
        import hashlib
        import pickle

        from deformest import mesh as mesh_module

        serialized = []
        serialize = mesh_module.serialize_mesh
        monkeypatch.setattr(mesh_module, "serialize_mesh",
                            lambda m: serialized.append(m) or serialize(m))
        mesh = small_bar()
        want = hashlib.sha256(serialize(mesh).encode("utf-8")).hexdigest()
        spec = SamplingSpec(mode="box", spacing=0.02, extents=(0.02, 0.0, 0.0))
        hashes = [build_dataset(mesh, D, {"end": spec}, n_steps=1).mesh_hash for _ in range(2)]
        assert hashes + [mesh.content_hash()] == [want] * 3
        copy = pickle.loads(pickle.dumps(mesh))
        assert copy.content_hash() == copy.content_hash() == want
        assert serialized == [mesh, copy]

    def test_inputs_slice_matches_u_all(self):
        mesh = small_bar()
        spec = SamplingSpec(mode="box", spacing=0.02, extents=(0.04, 0.0, 0.0))
        ds = build_dataset(mesh, D, {"end": spec}, n_steps=2)
        flat = ds.observation_flat_indices()
        x = ds.inputs()
        for i, u in enumerate(ds.u):
            assert np.array_equal(x[i], u[flat])

    def test_failed_samples_recorded_and_skipped(self):
        mesh = small_bar()  # bar is 0.2 units long; -0.4 compression collapses it
        spec = SamplingSpec(mode="box", spacing=0.4, extents=(0.8, 0.0, 0.0))
        ds = build_dataset(mesh, D, {"end": spec}, n_steps=4)
        assert ds.m + len(ds.failures) == 3
        assert len(ds.failures) >= 1
        assert any("volume" in f.reason for f in ds.failures)
        assert all(f.region == "end" for f in ds.failures)

    def test_unknown_region_rejected(self):
        mesh = small_bar()
        spec = SamplingSpec(mode="box", spacing=1.0, extents=(0.0, 0.0, 0.0))
        with pytest.raises(DatasetError, match="unknown regions"):
            build_dataset(mesh, D, {"nope": spec}, n_steps=1)

    def test_deterministic_bytes(self, tmp_path):
        mesh = small_bar()
        spec = SamplingSpec(mode="box", spacing=0.02, extents=(0.04, 0.0, 0.0))
        paths = []
        for name in ("a.ds", "b.ds"):
            ds = build_dataset(mesh, D, {"end": spec}, n_steps=2)
            p = tmp_path / name
            save_dataset(ds, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_worker_count_does_not_change_results(self, tmp_path, monkeypatch):
        mesh = small_bar()
        for spec, n_steps, failed in (
            (SamplingSpec(mode="box", spacing=0.02, extents=(0.04, 0.02, 0.0)), 2, []),
            # the compressed bar of test_failed_samples_recorded_and_skipped
            (SamplingSpec(mode="box", spacing=0.4, extents=(0.8, 0.0, 0.0)), 4, [0]),
            # one step: each process solves the rest once, and two targets invert
            (SamplingSpec(mode="box", spacing=0.02, extents=(0.04, 0.02, 0.0)), 1, []),
            (SamplingSpec(mode="box", spacing=0.4, extents=(0.8, 0.0, 0.0)), 1, [0, 2]),
        ):
            blobs = []
            for runners in ((1, 1), (1, 2), (2, 1)):
                # the bar is too small for sampling_runners to choose two threads itself
                monkeypatch.setattr(sampling, "sampling_runners", lambda *args, r=runners: r)
                ds = build_dataset(mesh, D, {"end": spec}, n_steps=n_steps)
                assert ds.runners == runners
                assert [f.point_index for f in ds.failures] == failed
                save_dataset(ds, tmp_path / "dataset.ds")
                blobs.append((tmp_path / "dataset.ds").read_bytes())
            assert blobs[1] == blobs[0] and blobs[2] == blobs[0]

    def test_threads_sample_a_fine_mesh_as_one_thread_does(self, tmp_path, monkeypatch):
        # 1920 tetrahedra: sampling_runners runs two threads here
        mesh = generate_rpp(256.0, 51.2, 12.8)
        spec = SamplingSpec(mode="box", spacing=0.2, extents=(0.4, 0.2, 0.0))
        threaded = build_dataset(mesh, D, {"end": spec}, n_steps=2)
        monkeypatch.setattr(sampling, "sampling_runners", lambda *args: (1, 1))
        serial = build_dataset(mesh, D, {"end": spec}, n_steps=2)
        assert threaded.m == 6
        for ds, name in ((threaded, "threaded.ds"), (serial, "serial.ds")):
            save_dataset(ds, tmp_path / name)
        assert (tmp_path / "threaded.ds").read_bytes() == (tmp_path / "serial.ds").read_bytes()

    def test_a_pool_chosen_by_size_samples_as_one_thread_does(self, tmp_path, monkeypatch):
        # 27 targets x 40 steps x 240 tetrahedra: at least 250,000 tetrahedron-steps
        mesh = generate_rpp()
        spec = SamplingSpec(mode="box", spacing=0.1, extents=(0.2, 0.2, 0.2))
        pooled = build_dataset(mesh, D, {"end": spec}, n_steps=40)
        assert pooled.runners == (min(27, len(os.sched_getaffinity(0))), 1)
        monkeypatch.setattr(sampling, "sampling_runners", lambda *args: (1, 1))
        serial = build_dataset(mesh, D, {"end": spec}, n_steps=40)
        assert pooled.m == 27
        for ds, name in ((pooled, "pooled.ds"), (serial, "serial.ds")):
            save_dataset(ds, tmp_path / name)
        assert (tmp_path / "pooled.ds").read_bytes() == (tmp_path / "serial.ds").read_bytes()

    def test_a_helper_thread_records_the_failure_a_serial_run_does(self, monkeypatch):
        # lattice targets -0.7, -0.3 and 0.1 units: the bar, 0.2 units long,
        # inverts under the first two
        mesh = small_bar()
        centroid = mesh.vertices[mesh.contact_regions["end"]].mean(axis=0)
        spec = SamplingSpec(mode="box", spacing=0.4, extents=(0.8, 0.0, 0.0),
                            center=tuple(centroid - (0.3, 0.0, 0.0)))
        serial = build_dataset(mesh, D, {"end": spec}, n_steps=4)
        assert [f.point_index for f in serial.failures] == [0, 1]

        # each thread waits in its first sample until the other is in its own,
        # so that a helper thread runs sample 0 or 1
        barrier, first = threading.Barrier(2, timeout=30), {}
        run = sampling._run_sample

        def meeting(mesh, lame, n_steps, task):
            if threading.get_ident() not in first:
                first[threading.get_ident()] = task[1]
                barrier.wait()
            return run(mesh, lame, n_steps, task)

        monkeypatch.setattr(sampling, "_run_sample", meeting)
        monkeypatch.setattr(sampling, "sampling_runners", lambda *args: (1, 2))
        threaded = build_dataset(mesh, D, {"end": spec}, n_steps=4)
        helper = [i for ident, i in first.items() if ident != threading.get_ident()]
        assert len(first) == 2 and helper[0] in (0, 1)
        assert threaded.failures == serial.failures
        assert np.array_equal(threaded.u, serial.u)

    def test_calls_in_two_threads_each_give_their_serial_bytes(self, tmp_path):
        # two meshes, so that a context shared between calls would mix them;
        # the fine one samples in threads of its own
        spec = SamplingSpec(mode="box", spacing=0.2, extents=(0.2, 0.2, 0.0))
        meshes = [generate_rpp(256.0, 51.2, 25.6), generate_rpp(256.0, 51.2, 12.8)]

        def blob(ds):
            path = tmp_path / f"{threading.get_ident()}.ds"
            save_dataset(ds, path)
            return path.read_bytes()

        def call(mesh):
            return blob(build_dataset(mesh, D, {"end": spec}, n_steps=2))

        want = [call(mesh) for mesh in meshes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(2) as pool:
                for _ in range(3):
                    assert list(pool.map(call, meshes, timeout=60)) == want
        finally:
            sys.setswitchinterval(interval)

    def test_runner_count(self, monkeypatch):
        fine, coarse = generate_rpp(256.0, 51.2, 12.8), generate_rpp()  # 1920, 240 tetrahedra
        cores = len(os.sched_getaffinity(0))
        if _blas.threads("scipy") is not None:
            assert sampling_runners(fine, 50, 2, workers=1) == (1, min(2, cores))
            assert sampling_runners(fine, 5000, 100) == (1, min(2, cores))  # never a pool
            assert sampling_runners(fine, 1, 2) == (1, 1)
        assert sampling_runners(fine, 50, 1, workers=1) == (1, 1)  # one step factors nothing
        assert sampling_runners(fine, 5000, 1) == (1, 1)
        assert sampling_runners(fine, 50, 2, workers=2) == (2, 1)  # one thread a worker
        assert sampling_runners(fine, 1, 2, workers=2) == (1, 1)  # a process a sample at most
        assert sampling_runners(coarse, 50, 2, workers=1) == (1, 1)  # steps hold the GIL
        # a pool on the coarse mesh from 250,000 tetrahedron-steps: 12 x 100 x 240 and up
        assert sampling_runners(coarse, 12, 100) == (min(12, cores), 1)
        assert sampling_runners(coarse, 8, 100) == (1, 1)
        assert sampling_runners(coarse, 5000, 1) == (1, 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        if _blas.threads("scipy") is not None:
            assert sampling_runners(fine, 50, 2) == (1, 2)  # two threads at most
        assert sampling_runners(coarse, 12, 100) == (8, 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert sampling_runners(coarse, 12, 100) == (1, 1)
        monkeypatch.setattr(_blas, "threads", lambda package: None)
        assert sampling_runners(fine, 50, 2, workers=1) == (1, 1)  # no pin for the factor

    def test_runner_count_without_cpu_affinity(self, monkeypatch):
        # Python has no os.sched_getaffinity on macOS and Windows: the CPU count stands in
        coarse = generate_rpp()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _blas.cores() == 4
        assert sampling_runners(coarse, 12, 100) == (4, 1)
        if _blas.threads("numpy") is not None:
            assert _blas.runners("numpy", 50) == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # not determinable
        assert _blas.cores() == 1
        assert sampling_runners(coarse, 12, 100) == (1, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_factor_runs_on_one_thread(self, workers, factor_threads, lapack_threads):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the recording wrapper reaches pool workers only through fork")
        spec = SamplingSpec(mode="box", spacing=0.02, extents=(0.04, 0.02, 0.0))
        ds = build_dataset(small_bar(), D, {"end": spec}, n_steps=2, workers=workers)
        seen = factor_threads()
        pids = [pid for pid, _ in seen]
        # step 2 of each sample, and one rest solve, made by the calling process
        # before forked workers inherit it
        assert ds.m == 6 and len(seen) == ds.m + 1
        assert {threads for _, threads in seen} == {1}
        assert pids.count(os.getpid()) == (len(seen) if workers == 1 else 1)
        assert lapack_threads() == 2

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, workers):
        mesh = small_bar()
        spec = SamplingSpec(mode="box", spacing=1.0, extents=(0.0, 0.0, 0.0))
        with pytest.raises(DatasetError, match="workers must be >= 1"):
            build_dataset(mesh, D, {"end": spec}, n_steps=1, workers=workers)

    @pytest.mark.parametrize("workers", [True, 2.5])
    def test_non_integral_worker_count_rejected(self, workers):
        spec = SamplingSpec(mode="box", spacing=1.0, extents=(0.0, 0.0, 0.0))
        with pytest.raises(DatasetError, match=f"workers must be an integer, got {workers!r}"):
            build_dataset(small_bar(), D, {"end": spec}, n_steps=1, workers=workers)

    def test_non_isotropic_d_rejected_before_any_sample(self):
        d = D.copy()
        d[0, 0] *= 2.0
        spec = SamplingSpec(mode="box", spacing=0.02, extents=(0.02, 0.0, 0.0))
        with pytest.raises(DatasetError, match="isotropic"):
            build_dataset(small_bar(), d, {"end": spec}, n_steps=2)

    @pytest.mark.parametrize("extent, m, workers, pools", [(0.06, 4, 5000, [4]), (0.06, 4, 3, [3]),
                                                           (0.0, 1, 8, [])])
    def test_pool_holds_at_most_one_process_per_sample(self, extent, m, workers, pools,
                                                       monkeypatch, tmp_path):
        # A stand-in pool records its size and maps in this process, so that
        # no large pool is ever started; one sample runs serially.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                sampling._WORKER_CTX.clear()

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        mesh = small_bar()
        spec = SamplingSpec(mode="box", spacing=0.02, extents=(extent, 0.0, 0.0))
        serial = build_dataset(mesh, D, {"end": spec}, n_steps=2, workers=1)
        monkeypatch.setattr(sampling, "ProcessPoolExecutor", RecordingPool)
        capped = build_dataset(mesh, D, {"end": spec}, n_steps=2, workers=workers)
        assert sizes == pools and capped.m == serial.m == m
        a, b = tmp_path / "serial.ds", tmp_path / "capped.ds"
        save_dataset(serial, a)
        save_dataset(capped, b)
        assert a.read_bytes() == b.read_bytes()

    def test_region_that_fails_at_rest_is_dropped(self):
        # A vertex in no tetrahedron has zero stiffness rows: where it is free,
        # as in region a, the rest solve fails; region b holds it in contact.
        box = small_bar()
        orphan = box.n_vertices
        end = box.contact_regions["end"].tolist()
        mesh = TetMesh(vertices=np.vstack([box.vertices, [0.3, 0.05, 0.05]]), tets=box.tets,
                       fixed_ids=box.fixed_ids, contact_regions={"a": end, "b": end + [orphan]})
        spec = SamplingSpec(mode="box", spacing=0.05, extents=(0.05, 0.0, 0.0))
        ds = build_dataset(mesh, D, {"a": spec, "b": spec}, n_steps=2)
        assert ds.regions == ["b"] and ds.region_id.tolist() == [0, 0]
        assert [(f.region, f.point_index) for f in ds.failures] == [("a", 0), ("a", 1)]
        assert all("not positive definite" in f.reason for f in ds.failures)

    def test_multi_region_order(self):
        mesh = generate_rpp(
            51.2,
            25.6,
            25.6,
            contact_specs={"tip": [(2, 1, 1)], "side": [(1, 1, 0)]},
        )
        spec = SamplingSpec(mode="box", spacing=1.0, extents=(0.0, 0.0, 0.0))
        ds = build_dataset(mesh, D, {"tip": spec, "side": spec}, n_steps=1)
        assert ds.regions == ["tip", "side"]
        assert ds.region_id.tolist() == [0, 1]


class TestDatasetFile:
    def make_dataset(self):
        mesh = small_bar()
        spec = SamplingSpec(mode="box", spacing=0.02, extents=(0.04, 0.0, 0.0))
        return mesh, build_dataset(mesh, D, {"end": spec}, n_steps=2)

    def test_roundtrip(self, tmp_path):
        mesh, ds = self.make_dataset()
        path = tmp_path / "data.ds"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.mesh_hash == ds.mesh_hash
        assert loaded.mm_per_unit == ds.mm_per_unit
        assert np.array_equal(loaded.free_ids, ds.free_ids)
        assert np.array_equal(loaded.observation_ids, ds.observation_ids)
        assert loaded.m == ds.m
        assert loaded.regions == ds.regions
        assert np.array_equal(loaded.region_id, ds.region_id)
        assert np.array_equal(loaded.target, ds.target)
        assert np.array_equal(loaded.u, ds.u)
        loaded.require_mesh(mesh)

    @pytest.mark.parametrize("mm_per_unit", [float("nan"), -256.0, float("inf"), 0.0])
    def test_bad_mm_per_unit_rejected(self, tmp_path, mm_per_unit):
        _, ds = self.make_dataset()
        with pytest.raises(DatasetError, match="mm_per_unit must be positive and finite"):
            replace(ds, mm_per_unit=mm_per_unit)
        path = tmp_path / "data.ds"
        save_dataset(ds, path)
        rewrite_dataset_header(path, mm_per_unit=mm_per_unit)
        with pytest.raises(DatasetError, match="mm_per_unit must be positive and finite"):
            load_dataset(path)

    @pytest.mark.parametrize("key, value", [
        ("mm_per_unit", True),  # would read as 1.0 and rescale every mm metric
        ("mm_per_unit", "256"),
        ("observation_ids", [4.5, 7.5, 6.5]),  # would be truncated to [4, 7, 6]
        ("regions", "end"),  # would be the regions "e", "n" and "d"
        ("failures", [{"region": "end", "point_index": 0}]),
        ("failures", [{"region": "end", "reason": "inverted"}]),
    ])
    def test_wrong_typed_header_field_rejected(self, tmp_path, key, value):
        _, ds = self.make_dataset()
        path = tmp_path / "data.ds"
        save_dataset(ds, path)
        rewrite_dataset_header(path, **{key: value})
        with pytest.raises(DatasetFormatError, match=f"header field {key} is not "):
            load_dataset(path)

    @pytest.mark.parametrize("key, value", [
        ("format", "something-else"),
        ("version", 99),
        ("record_fields", ["region_id", "u_all", "target_disp"]),
        ("n_obs", 7),
    ])
    def test_other_format_or_layout_rejected(self, tmp_path, key, value):
        _, ds = self.make_dataset()
        path = tmp_path / "data.ds"
        save_dataset(ds, path)
        rewrite_dataset_header(path, **{key: value})
        with pytest.raises(DatasetFormatError, match=re.escape(f"header field {key} is {value!r}")):
            load_dataset(path)

    def test_bytes_after_the_last_record_rejected(self, tmp_path):
        _, ds = self.make_dataset()
        path = tmp_path / "data.ds"
        save_dataset(ds, path)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(bytes(8000))  # a damaged or concatenated file
        with pytest.raises(DatasetFormatError,
                           match=f"8000 bytes after the end of the {ds.m} records") as err:
            load_dataset(path)
        assert err.value.byte_offset == size

    def test_header_must_be_an_object(self, tmp_path):
        path = tmp_path / "data.ds"
        path.write_bytes(_MAGIC + struct.pack("<Q", 2) + b"[]")
        with pytest.raises(DatasetFormatError, match="header is not a JSON object"):
            load_dataset(path)

    def test_mesh_hash_mismatch(self, tmp_path):
        _, ds = self.make_dataset()
        other = generate_rpp(76.8, 25.6, 25.6)
        with pytest.raises(MeshHashMismatchError, match="mesh hash mismatch"):
            ds.require_mesh(other)

    def test_truncated_file_reports_offset(self, tmp_path):
        _, ds = self.make_dataset()
        path = tmp_path / "data.ds"
        save_dataset(ds, path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.ds"
        cut.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(DatasetFormatError, match="at byte") as err:
            load_dataset(cut)
        assert err.value.byte_offset == len(blob) - 40

    def test_record_bytes_match_per_record_writer(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = Dataset(
            mesh_hash="x",
            free_ids=[1, 4, 6],
            observation_ids=[4],
            mm_per_unit=256.0,
            regions=["tip", "side"],
            region_id=[1, 0, 0, 1, 1],
            target=rng.normal(size=(5, 3)),
            u=rng.normal(size=(5, 9)),
        )
        path = tmp_path / "data.ds"
        save_dataset(ds, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<Q", blob, 7)
        # the DEFDS1 layout written one record at a time
        reference = b"".join(
            np.concatenate([[float(ds.region_id[i])], ds.target[i], ds.u[i]]).astype("<f8").tobytes()
            for i in range(ds.m)
        )
        assert blob[7 + 8 + header_len :] == reference

    @pytest.mark.parametrize("bad_id", [np.nan, -1.0, 1.0, 0.7])
    def test_bad_region_id_reports_record_offset(self, tmp_path, bad_id):
        _, ds = self.make_dataset()  # one region, so id 1 is out of range
        path = tmp_path / "data.ds"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        record_len = 8 * (4 + 3 * ds.n_free)
        start = len(blob) - (ds.m - 1) * record_len  # record 1
        blob[start : start + 8] = struct.pack("<d", bad_id)
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="record 1 has bad region id") as err:
            load_dataset(path)
        assert err.value.byte_offset == start

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ds"
        path.write_bytes(b"not a dataset at all")
        with pytest.raises(DatasetFormatError, match="magic"):
            load_dataset(path)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError, match="at least one sample"):
            Dataset(
                mesh_hash="x",
                free_ids=[0, 1],
                observation_ids=[0],
                mm_per_unit=256.0,
                regions=["r"],
                region_id=np.zeros(0, dtype=np.int64),
                target=np.zeros((0, 3)),
                u=np.zeros((0, 6)),
            )

    def test_observation_must_be_free(self):
        with pytest.raises(DatasetError, match="free"):
            Dataset(
                mesh_hash="x",
                free_ids=[1, 2],
                observation_ids=[0],
                mm_per_unit=256.0,
                regions=["r"],
                region_id=[0],
                target=np.zeros((1, 3)),
                u=np.zeros((1, 6)),
            )

    def test_max_contact_displacement(self):
        ds = Dataset(
            mesh_hash="x",
            free_ids=[0],
            observation_ids=[0],
            mm_per_unit=256.0,
            regions=["r"],
            region_id=[0, 0],
            target=[[0.3, 0.4, 0.0], [0.1, 0.0, 0.0]],
            u=np.zeros((2, 3)),
        )
        assert abs(ds.max_contact_displacement() - 0.5) <= 1e-15
