import gc
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from deformest import _blas, fem
from deformest.fem import (
    DegenerateElementError,
    FemError,
    MaterialParams,
    SingularSystemError,
    StiffnessSystem,
    assemble,
    deform,
    elasticity_matrix,
    solve_forced_displacement,
    _checked_geometry,
    _reverse_cuthill_mckee,
)
from deformest.mesh import TetMesh, generate_rpp, load_mesh, rpp6_contact_specs, save_mesh
from deformest.sampling import SamplingSpec, build_dataset

from conftest import element_stiffness, make_blob_mesh

ROOT = Path(__file__).resolve().parent.parent

UNIT_TET = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def material_d(e=1.0e6, nu=0.40):
    return elasticity_matrix(MaterialParams(young_modulus=e, poisson_ratio=nu))


class TestElasticityMatrix:
    def test_zero_poisson(self):
        d = elasticity_matrix(MaterialParams(young_modulus=1.0, poisson_ratio=0.0))
        assert np.array_equal(d, np.diag([1, 1, 1, 0.5, 0.5, 0.5]))

    def test_paper_material_values(self):
        d = material_d(1.0e6, 0.40)
        assert np.allclose(np.diag(d)[:3], 2142857.142857143, rtol=1e-12)
        assert np.allclose(d[0, 1], 1428571.428571429, rtol=1e-12)
        assert np.allclose(np.diag(d)[3:], 357142.85714285716, rtol=1e-12)
        off = d[:3, :3].copy()
        np.fill_diagonal(off, 1428571.428571429)
        assert np.allclose(off, 1428571.428571429, rtol=1e-12)

    def test_positive_definite_over_parameter_grid(self):
        # eigen-decomposition oracle on sampled (E, nu)
        for e in (1e3, 1.0, 2.5e6):
            for nu in (0.0, 0.1, 0.3, 0.45, 0.499):
                eig = np.linalg.eigvalsh(material_d(e, nu))
                assert eig.min() > 0

    def test_symmetry(self):
        d = material_d()
        assert np.array_equal(d, d.T)

    def test_invalid_material_rejected(self):
        with pytest.raises(ValueError, match="poisson_ratio"):
            MaterialParams(poisson_ratio=0.5)
        with pytest.raises(ValueError, match="young_modulus"):
            MaterialParams(young_modulus=0.0)

    @pytest.mark.parametrize("kwargs", [{"young_modulus": float("inf")}, {"young_modulus": True},
                                        {"young_modulus": "1e6"}, {"poisson_ratio": "0.4"}])
    def test_non_finite_or_non_number_material_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):  # not a TypeError from >
            MaterialParams(**kwargs)

    def test_lame_parameters_of_every_material(self):
        for e in (1e3, 1.0, 2.5e6):
            for nu in (0.0, 0.1, 0.3, 0.45, 0.499):
                lam, mu = fem._lame(material_d(e, nu))
                assert lam == pytest.approx(e * nu / ((1 + nu) * (1 - 2 * nu)), rel=1e-14)
                assert mu == pytest.approx(e / (2 * (1 + nu)), rel=1e-14)

    @pytest.mark.parametrize("case", ["anisotropic", "3x3", "shear coupling", "unequal shear",
                                      "unequal normal", "diagonal off", "nan"])
    def test_deform_rejects_a_non_isotropic_d(self, case):
        d = material_d()
        if case == "anisotropic":  # a stiffer x axis
            d[0, 0] *= 2.0
        elif case == "3x3":
            d = d[:3, :3]
        elif case == "shear coupling":
            d[3, 4] = d[4, 3] = 1.0
        elif case == "unequal shear":
            d[5, 5] *= 1.5
        elif case == "unequal normal":
            d[1, 2] = d[2, 1] = 0.9 * d[1, 2]
        elif case == "diagonal off":  # by more than rounding
            d[:3, :3] += 1e-9 * d[0, 0] * np.eye(3)
        else:
            d[2, 0] = np.nan
        with pytest.raises(FemError, match="6x6|isotropic"):
            deform(generate_rpp(51.2, 25.6, 25.6), d, "end", (0.01, 0.0, 0.0), n_steps=1)


def shape_gradients(verts):
    """Independent shape-function gradients via the affine coefficient system."""
    a = np.hstack([np.ones((4, 1)), verts])
    coeffs = np.linalg.solve(a, np.eye(4))
    return coeffs[1:4, :].T  # (4, 3): gradient of N_a


def linear_strain_energy(verts, d, u):
    """Energy of the constant-strain tetrahedron under nodal displacements u (12,)."""
    grads = shape_gradients(verts)
    g = np.zeros((3, 3))
    for node in range(4):
        g += np.outer(u[3 * node : 3 * node + 3], grads[node])
    eps = np.array(
        [g[0, 0], g[1, 1], g[2, 2], g[0, 1] + g[1, 0], g[1, 2] + g[2, 1], g[2, 0] + g[0, 2]]
    )
    vol = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
    return 0.5 * eps @ d @ eps * vol


class TestElementStiffness:
    def test_rigid_translation_annihilated(self):
        ke = element_stiffness(UNIT_TET, material_d())
        scale = np.abs(ke).max()
        for t in np.vstack([np.eye(3), [[0.3, -1.2, 0.7]]]):
            force = ke @ np.tile(t, 4)
            assert np.abs(force).max() <= 1e-9 * scale * np.abs(t).max()

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            verts = UNIT_TET + 0.3 * rng.normal(size=(4, 3))
            if np.linalg.det(verts[1:] - verts[0]) <= 0:
                continue
            ke = element_stiffness(verts, material_d())
            assert np.abs(ke - ke.T).max() <= 1e-12 * np.abs(ke).max()

    def test_matches_finite_difference_hessian(self):
        # central-difference Hessian of the strain energy, h = 1e-6
        d = elasticity_matrix(MaterialParams(young_modulus=1.0, poisson_ratio=0.0))
        ke = element_stiffness(UNIT_TET, d)
        h = 1e-6
        hess = np.zeros((12, 12))
        for i in range(12):
            for j in range(12):
                u = np.zeros(12)

                def e_at(si, sj):
                    u[:] = 0
                    u[i] += si * h
                    u[j] += sj * h
                    return linear_strain_energy(UNIT_TET, d, u)

                hess[i, j] = (e_at(1, 1) - e_at(1, -1) - e_at(-1, 1) + e_at(-1, -1)) / (4 * h * h)
        assert np.abs(hess - ke).max() <= 1e-5 * max(1.0, np.abs(ke).max())

    def test_rank_deficiency_is_six(self):
        ke = element_stiffness(UNIT_TET, material_d())
        s = np.linalg.svd(ke, compute_uv=False)
        assert np.sum(s < 1e-9 * s[0]) == 6

    def test_geometry_bitwise_equals_np_cross(self):
        # the cofactor products are np.cross's, in the oracle and in the
        # plan's row-wise geometry alike
        mesh = generate_rpp(256.0, 51.2, 12.8)
        rng = np.random.default_rng(4)
        positions = mesh.vertices + rng.normal(scale=2e-3, size=mesh.vertices.shape)
        tv = positions[mesh.tets]
        edges = tv[:, 1:] - tv[:, :1]
        cof_ref = np.cross(edges[:, [1, 2, 0]], edges[:, [2, 0, 1]])
        det_ref = np.einsum("mi,mi->m", edges[:, 0], cof_ref[:, 0])
        cof, det, vols = _checked_geometry(tv)
        assert np.array_equal(cof, cof_ref)
        assert np.array_equal(det, det_ref) and np.array_equal(vols, det_ref / 6.0)
        work = fem._StepWork(mesh.n_tets)
        work.check(positions.reshape(-1), fem._SolverPlan(mesh, "end")._corners)
        assert np.array_equal(work.h[1:], cof_ref.transpose(1, 2, 0))
        assert np.allclose(work.det, det_ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("spacing, nu", [(25.6, 0.40), (12.8, 0.40), (25.6, 0.0),
                                             (25.6, 0.499)])
    def test_closed_form_lower_triangle_matches_b_t_d_b(self, spacing, nu):
        # deform's (78, M) kernel against the oracle's V B^T D B, entry for entry
        assert sorted(zip(fem._ROW_P, fem._ROW_Q)) == sorted(zip(*np.tril_indices(12)))
        mesh = generate_rpp(256.0, 51.2, spacing)
        rng = np.random.default_rng(11)
        positions = mesh.vertices + rng.normal(scale=2e-3, size=mesh.vertices.shape)
        d = material_d(nu=nu)
        work = fem._StepWork(mesh.n_tets)
        work.check(positions.reshape(-1), fem._SolverPlan(mesh, "end")._corners)
        got = work.stiffness(*fem._lame(d))
        want = fem._element_stiffness_batch(positions[mesh.tets], d)
        want = want[:, fem._ROW_P, fem._ROW_Q].T
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max(axis=0))

    def test_degenerate_rejected(self):
        flat = UNIT_TET.copy()
        flat[3] = [1, 1, 0]
        with pytest.raises(DegenerateElementError, match="non-positive volume"):
            element_stiffness(flat, material_d())


def single_tet_mesh():
    return TetMesh(vertices=UNIT_TET, tets=[[0, 1, 2, 3]])


def two_cube_bar():
    """2x1x1-cell bar, free-floating."""
    return generate_rpp(51.2, 25.6, 25.6, fixed_spec=[], contact_specs={}, observation_spec=[])


class TestAssemble:
    def test_single_tet_equals_element(self):
        mesh = single_tet_mesh()
        system = assemble(mesh, mesh.vertices, material_d())
        assert np.array_equal(system.K, element_stiffness(UNIT_TET, material_d()))

    def test_symmetry(self, paper_rpp):
        system = assemble(paper_rpp, paper_rpp.vertices, material_d())
        assert np.abs(system.K - system.K.T).max() <= 1e-10 * np.abs(system.K).max()

    def test_positive_definite_with_fixed_face(self, paper_rpp):
        system = assemble(paper_rpp, paper_rpp.vertices, material_d())
        scipy.linalg.cho_factor(system.K)  # raises if not PD

    def test_floating_mesh_nullspace_is_six(self):
        mesh = two_cube_bar()
        system = assemble(mesh, mesh.vertices, material_d())
        s = np.linalg.svd(system.K, compute_uv=False)
        assert np.sum(s < 1e-9 * s[0]) == 6

    def test_rigid_translation_annihilated_globally(self):
        mesh = two_cube_bar()
        k = assemble(mesh, mesh.vertices, material_d()).K
        for axis in range(3):
            t = np.zeros(3)
            t[axis] = 1.0
            force = k @ np.tile(t, mesh.n_free)
            assert np.abs(force).max() <= 1e-9 * np.abs(k).max()

    def test_inverted_element_reported(self, paper_rpp):
        positions = paper_rpp.vertices.copy()
        tet0 = paper_rpp.tets[0]
        # collapse the first tet through its opposite face
        positions[tet0[0]] = positions[tet0[1:]].mean(axis=0) - (
            positions[tet0[0]] - positions[tet0[1:]].mean(axis=0)
        )
        with pytest.raises(DegenerateElementError, match="non-positive volume") as err:
            assemble(paper_rpp, positions, material_d())
        assert err.value.tet_index is not None

    def test_position_shape_checked(self, paper_rpp):
        with pytest.raises(FemError, match="shape"):
            assemble(paper_rpp, paper_rpp.vertices[:-1], material_d())


def random_spd_system(rng, n=30):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def solve_via_explicit_inverse(k, contact_dofs, u_c):
    """Flexibility-form oracle: partition L = K^-1, then f_c = L_cc^-1 u_c, u_n = L_nc f_c."""
    l = np.linalg.inv(k)
    mask = np.ones(k.shape[0], dtype=bool)
    mask[contact_dofs] = False
    n_idx = np.flatnonzero(mask)
    l_cc = l[np.ix_(contact_dofs, contact_dofs)]
    l_nc = l[np.ix_(n_idx, contact_dofs)]
    f_c = np.linalg.solve(l_cc, u_c)
    return f_c, l_nc @ f_c


class TestSolveForcedDisplacement:
    def test_two_dof_hand_example(self):
        system = StiffnessSystem(K=np.array([[2.0, -1.0], [-1.0, 2.0]]))
        f_c, u_n = solve_forced_displacement(system, [0], [1.0])
        assert abs(u_n[0] - 0.5) <= 1e-12
        assert abs(f_c[0] - 1.5) <= 1e-12

    def test_zero_prescription(self, paper_rpp):
        system = assemble(paper_rpp, paper_rpp.vertices, material_d())
        dofs = system.vertex_dofs(paper_rpp.contact_regions["end"])
        f_c, u_n = solve_forced_displacement(system, dofs, np.zeros(dofs.size))
        assert not f_c.any()
        assert not u_n.any()

    def test_reconstructed_force_satisfies_stiffness_equation(self, paper_rpp):
        system = assemble(paper_rpp, paper_rpp.vertices, material_d())
        dofs = system.vertex_dofs(paper_rpp.contact_regions["end"])
        rng = np.random.default_rng(1)
        u_c = 0.01 * rng.normal(size=dofs.size)
        f_c, u_n = solve_forced_displacement(system, dofs, u_c)
        u = np.zeros(system.n_dofs)
        f = np.zeros(system.n_dofs)
        u[dofs] = u_c
        f[dofs] = f_c
        mask = np.ones(system.n_dofs, dtype=bool)
        mask[dofs] = False
        u[mask] = u_n
        assert np.linalg.norm(system.K @ u - f) <= 1e-9 * np.linalg.norm(f)

    def test_matches_explicit_inverse_form(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            k = random_spd_system(rng, n=30)
            n_contact = int(rng.integers(2, 10))
            contact = rng.choice(30, size=n_contact, replace=False)
            u_c = rng.normal(size=n_contact)
            f_c, u_n = solve_forced_displacement(StiffnessSystem(K=k), contact, u_c)
            f_ref, u_ref = solve_via_explicit_inverse(k, np.asarray(contact), u_c)
            assert np.abs(f_c - f_ref).max() <= 1e-10 * max(1.0, np.abs(f_ref).max())
            assert np.abs(u_n - u_ref).max() <= 1e-10 * max(1.0, np.abs(u_ref).max())

    def test_singular_system_detected(self):
        mesh = single_tet_mesh()  # floating: prescribing one vertex leaves rotations
        system = assemble(mesh, mesh.vertices, material_d())
        with pytest.raises(SingularSystemError):
            solve_forced_displacement(system, [0, 1, 2], [0.1, 0.0, 0.0])

    def test_input_validation(self):
        system = StiffnessSystem(K=np.eye(4))
        with pytest.raises(FemError, match="nonempty"):
            solve_forced_displacement(system, [], [])
        with pytest.raises(FemError, match="duplicates"):
            solve_forced_displacement(system, [1, 1], [0.0, 0.0])
        with pytest.raises(FemError, match="out of range"):
            solve_forced_displacement(system, [9], [0.0])
        with pytest.raises(FemError, match="non-finite"):
            solve_forced_displacement(system, [1], [np.nan])

    def test_vertex_dofs_requires_free_vertex(self, paper_rpp):
        system = assemble(paper_rpp, paper_rpp.vertices, material_d())
        with pytest.raises(FemError, match="not free"):
            system.vertex_dofs([int(paper_rpp.fixed_ids[0])])


def fixed_bar(cells_x=2):
    """Bar with one end face fixed and the other end as contact region."""
    return generate_rpp(25.6 * cells_x, 25.6, 25.6)


def dense_deform(mesh, d, region, target, n_steps):
    """deform's Euler loop on the dense oracle: assemble + solve_forced_displacement.

    An inverted element raises DegenerateElementError with the step that
    found it, the last step for the final configuration.
    """
    contact = mesh.contact_regions[region]
    positions = mesh.vertices.copy()
    start = positions[contact].copy()
    for step in range(1, n_steps + 2):
        try:
            if step > n_steps:
                _checked_geometry(positions[mesh.tets])
                break
            system = assemble(mesh, positions, d)
        except DegenerateElementError as exc:
            raise DegenerateElementError(str(exc), exc.tet_index, min(step, n_steps)) from exc
        dofs = system.vertex_dofs(contact)
        desired = start + np.asarray(target) * (step / n_steps)
        u_c = (desired - positions[contact]).reshape(-1)
        f_c, u_n = solve_forced_displacement(system, dofs, u_c)
        update = np.zeros(system.n_dofs)
        update[np.setdiff1d(np.arange(system.n_dofs), dofs)] = u_n
        positions[mesh.free_ids] += update.reshape(-1, 3)
        positions[contact] = desired
    return positions[mesh.free_ids] - mesh.vertices[mesh.free_ids], f_c.reshape(-1, 3)


def assert_rel_close(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestPatchTest:
    def test_affine_field_reproduced_at_interior(self):
        # 3x3x3-cell cube, all boundary vertices prescribed with an affine field
        mesh = generate_rpp(76.8, 76.8, 25.6, fixed_spec=[], contact_specs={}, observation_spec=[])
        system = assemble(mesh, mesh.vertices, material_d())
        coords = mesh.vertices
        eps = 1e-9
        interior = np.flatnonzero(
            (coords[:, 0] > eps) & (coords[:, 0] < 0.3 - eps)
            & (coords[:, 1] > eps) & (coords[:, 1] < 0.3 - eps)
            & (coords[:, 2] > eps) & (coords[:, 2] < 0.3 - eps)
        )
        boundary = np.setdiff1d(np.arange(mesh.n_vertices), interior)
        assert interior.size == 8

        a = np.array([[0.02, 0.01, 0.0], [0.005, -0.01, 0.015], [0.0, 0.02, -0.005]])
        b = np.array([0.001, -0.002, 0.003])
        affine = coords @ a.T + b

        dofs_b = system.vertex_dofs(boundary)
        f_c, u_n = solve_forced_displacement(system, dofs_b, affine[boundary].reshape(-1))
        got = u_n.reshape(-1, 3)
        want = affine[interior]
        assert np.abs(got - want).max() <= 1e-8


class TestDeform:
    def test_zero_target(self):
        mesh = fixed_bar()
        for n_steps in (1, 5):
            res = deform(mesh, material_d(), "end", (0.0, 0.0, 0.0), n_steps=n_steps)
            assert not res.displacements.any()
            assert not res.contact_forces.any()
            assert res.n_steps == n_steps

    def test_contact_vertices_reach_target(self):
        mesh = fixed_bar()
        target = np.array([0.01, 0.02, -0.005])
        res = deform(mesh, material_d(), "end", target, n_steps=4)
        idx = mesh.free_index_of()[mesh.contact_regions["end"]]
        assert np.abs(res.displacements[idx] - target).max() <= 1e-9

    def test_small_displacement_matches_single_linear_solve(self):
        # near-linear regime: 1 step vs 100 steps agree within 0.1 %
        mesh = fixed_bar()
        target = 1e-4 * np.array([0.3, 0.8, -0.5])  # ~1e-4 x object size
        one = deform(mesh, material_d(), "end", target, n_steps=1)
        many = deform(mesh, material_d(), "end", target, n_steps=100)
        scale = np.abs(one.displacements).max()
        assert np.abs(one.displacements - many.displacements).max() <= 1e-3 * scale

    def test_young_modulus_invariance(self):
        mesh = fixed_bar()
        target = np.array([0.02, 0.05, 0.01])
        soft = deform(mesh, material_d(1.0e6, 0.4), "end", target, n_steps=3)
        stiff = deform(mesh, material_d(1.0e7, 0.4), "end", target, n_steps=3)
        du = np.abs(soft.displacements - stiff.displacements).max()
        assert du <= 1e-9 * max(1.0, np.abs(soft.displacements).max())
        df = np.abs(10.0 * soft.contact_forces - stiff.contact_forces).max()
        assert df <= 1e-9 * np.abs(stiff.contact_forces).max()

    def test_deterministic(self):
        mesh = fixed_bar()
        target = np.array([0.01, 0.03, 0.0])
        a = deform(mesh, material_d(), "end", target, n_steps=5)
        b = deform(mesh, material_d(), "end", target, n_steps=5)
        assert np.array_equal(a.displacements, b.displacements)
        assert np.array_equal(a.contact_forces, b.contact_forces)

    def test_fixed_vertices_never_move(self):
        mesh = fixed_bar()
        res = deform(mesh, material_d(), "end", (0.0, 0.04, 0.02), n_steps=5)
        full = mesh.expand_free(res.displacements)
        assert not full[mesh.fixed_ids].any()

    @pytest.mark.parametrize("which", ["fixed_bar", "paper_rpp"])
    def test_one_step_equals_dense_oracle(self, which, paper_rpp):
        # the banded plan rounds differently from the dense Cholesky, so
        # equality holds to 1e-12 relative, not bit for bit
        mesh = fixed_bar() if which == "fixed_bar" else paper_rpp
        target = np.array([0.01, -0.02, 0.015])
        res = deform(mesh, material_d(), "end", target, n_steps=1)
        u, f_c = dense_deform(mesh, material_d(), "end", target, n_steps=1)
        assert_rel_close(res.displacements, u)
        assert_rel_close(res.contact_forces, f_c)

    @pytest.mark.parametrize("which, n_steps", [
        ("fixed_bar", 5),
        ("rpp-12.8mm", 3),
        ("all_free_in_contact", 2),  # empty n-partition: only the contact force is solved
    ])
    def test_multi_step_equals_dense_euler_loop(self, which, n_steps):
        if which == "fixed_bar":
            mesh = fixed_bar()
        elif which == "rpp-12.8mm":
            mesh = generate_rpp(256.0, 51.2, 12.8)
        else:
            mesh = TetMesh(vertices=UNIT_TET, tets=[[0, 1, 2, 3]], fixed_ids=[0],
                           contact_regions={"end": [1, 2, 3]})
        target = np.array([0.1, 0.15, -0.05])  # large enough to move the geometry
        res = deform(mesh, material_d(), "end", target, n_steps=n_steps)
        u, f_c = dense_deform(mesh, material_d(), "end", target, n_steps=n_steps)
        assert_rel_close(res.displacements, u)
        assert_rel_close(res.contact_forces, f_c)

    def test_floating_mesh_raises_singular(self):
        # one prescribed vertex leaves a floating tet free to rotate: K_nn is
        # singular, and a band Cholesky can still return tiny positive pivots
        mesh = TetMesh(vertices=UNIT_TET, tets=[[0, 1, 2, 3]], contact_regions={"a": [0]})
        with pytest.raises(SingularSystemError):
            deform(mesh, material_d(), "a", (0.1, 0.0, 0.0), n_steps=1)

    def test_nine_thousand_dof_step_in_bounded_memory(self):
        # the dense K of the 6.4 mm RPP alone would take 718 MB
        code = (
            "import resource\n"
            "from deformest.fem import MaterialParams, deform, elasticity_matrix\n"
            "from deformest.mesh import generate_rpp\n"
            "mesh = generate_rpp(256.0, 51.2, 6.4)\n"
            "assert 3 * mesh.n_free - 3 * mesh.contact_regions['end'].size == 9477\n"
            "deform(mesh, elasticity_matrix(MaterialParams()), 'end', (0.1, 0.1, 0.0), 1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        peak_mb = int(done.stdout.strip()) / 1024  # ru_maxrss is in KiB on Linux
        assert peak_mb < 400

    def test_build_dataset_reuses_plan_per_region(self):
        # one plan per region inside build_dataset gives the same bits as a
        # fresh plan per deform call
        mesh = generate_rpp(51.2, 25.6, 25.6, contact_specs={"tip": [(2, 1, 1)],
                                                             "side": [(1, 1, 0), (2, 1, 0)]})
        spec = SamplingSpec(mode="box", spacing=0.02, extents=(0.02, 0.02, 0.0))
        ds = build_dataset(mesh, material_d(), {"tip": spec, "side": spec}, n_steps=3)
        assert ds.m == 8 and not ds.failures
        for rid, target, u in zip(ds.region_id, ds.target, ds.u):
            res = deform(mesh, material_d(), ds.regions[rid], target, n_steps=3)
            assert np.array_equal(u, res.flat_displacements)

    @pytest.mark.parametrize("which", ["rpp-12.8mm", "blob0", "blob1", "blob2"])
    def test_rcm_bandwidth_matches_scipy(self, which):
        # the plan's own RCM against scipy's on the vertex graph of the n-partition
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        a, b, n = n_vertex_graph(*plan_mesh(which))
        order = _reverse_cuthill_mckee(a, b, n)
        assert np.array_equal(np.sort(order), np.arange(n))
        graph = csr_matrix((np.ones(a.size), (a, b)), shape=(n, n))
        assert bandwidth(order, a, b) <= bandwidth(
            reverse_cuthill_mckee(graph, symmetric_mode=True), a, b)

    def test_rcm_is_the_narrowest_of_the_first_lowest_degree_roots(self):
        # against a node-by-node search from each root: the first of the
        # narrowest; where every lowest-degree node is tried, scipy's root is
        # one of them and the order is never wider than scipy's
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        rng = np.random.default_rng(3)
        all_tried = 0
        for _ in range(100):
            n = int(rng.integers(2, 80))
            tree = [int(rng.integers(0, i)) for i in range(1, n)]
            extra = rng.integers(0, n, (2, int(rng.integers(0, 3 * n))))
            a, b = np.concatenate([np.arange(1, n), extra[0]]), np.concatenate([tree, extra[1]])
            a, b = a[a != b], b[a != b]
            a, b = np.concatenate([a, b]), np.concatenate([b, a])

            degree = np.bincount(np.unique(a * n + b) // n, minlength=n)
            lowest = np.flatnonzero(degree == degree.min())
            tries = [reference_rcm(a, b, n, root) for root in lowest[:fem._RCM_ROOTS]]
            order = _reverse_cuthill_mckee(a, b, n)
            assert np.array_equal(order, min(tries, key=lambda o: bandwidth(o, a, b)))
            if lowest.size <= fem._RCM_ROOTS:
                all_tried += 1
                matrix = csr_matrix((np.ones(a.size), (a, b)), shape=(n, n))
                assert bandwidth(order, a, b) <= bandwidth(
                    reverse_cuthill_mckee(matrix, symmetric_mode=True), a, b)
        assert all_tried > 20

    def test_rcm_of_no_nodes(self):
        empty = np.empty(0, dtype=np.int64)
        assert _reverse_cuthill_mckee(empty, empty, 0).size == 0

    @pytest.mark.parametrize("spacing, n, bw", [(25.6, 243, 32), (12.8, 1425, 80),
                                                (6.4, 9477, 248)])
    def test_plan_bandwidth_on_the_rpp(self, spacing, n, bw):
        # from the lowest-index root alone the band is 41, 104 and 320 wide
        mesh = generate_rpp(256.0, 51.2, spacing)
        plan = fem._SolverPlan(mesh, "end")
        assert (plan.n, plan.bw) == (n, bw)
        assert bw < first_root_order(mesh, "end")[0]

    @pytest.mark.parametrize("n_points", [40, 400])
    @pytest.mark.parametrize("seed", range(12))
    def test_plan_band_never_wider_than_the_first_root_order(self, seed, n_points):
        mesh = make_blob_mesh(seed=seed, n_points=n_points)
        plan = fem._SolverPlan(mesh, "grab")
        bw, n_flat = first_root_order(mesh, "grab")
        assert plan.bw <= bw
        if plan.bw == bw:
            assert np.array_equal(plan._n_flat, n_flat)

    @pytest.mark.parametrize("which", ["rpp-25.6mm", "rpp-12.8mm", "blob1"])
    def test_perturbed_entries_lie_inside_the_band(self, which):
        # off the rest configuration every entry of every element is nonzero;
        # the plan's band holds them all, and the plan sums them as assemble does
        mesh, region = plan_mesh(which)
        plan, d = fem._SolverPlan(mesh, region), material_d()
        rng = np.random.default_rng(23)
        positions = mesh.vertices + rng.normal(scale=1e-3, size=mesh.vertices.shape)
        k = assemble(mesh, positions, d).K
        free_slot = mesh.free_index_of()[plan._n_flat // 3]
        order = 3 * free_slot + plan._n_flat % 3  # reduced DOF of each plan position
        rows, cols = np.nonzero(k[np.ix_(order, order)])
        assert np.abs(rows - cols).max() == plan.bw

        work = fem._StepWork(mesh.n_tets)
        work.check(positions.reshape(-1), plan._corners)
        band = plan._summed(work.stiffness(*fem._lame(d)))[0]
        lower = np.tril(np.triu(k[np.ix_(order, order)], -plan.bw))
        want = np.zeros_like(band)
        for offset in range(plan.bw + 1):
            want[offset, :plan.n - offset] = np.diagonal(lower, -offset)
        scale = np.abs(k).max()
        np.testing.assert_allclose(band, want, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("which", ["rpp-12.8mm", "rpp6-desk", "blob2"])
    def test_reloaded_mesh_gets_the_same_order(self, which, tmp_path):
        if which == "rpp6-desk":
            mesh = generate_rpp(256.0, 51.2, 25.6, contact_specs=rpp6_contact_specs(11, 3, 3))
        else:
            mesh = plan_mesh(which)[0]
        save_mesh(mesh, tmp_path / "mesh.txt")
        reloaded = load_mesh(tmp_path / "mesh.txt")
        for region in mesh.contact_regions:
            plans = [fem._SolverPlan(m, region) for m in (mesh, reloaded)]
            assert plans[0].bw == plans[1].bw
            assert np.array_equal(plans[0]._n_flat, plans[1]._n_flat)

    def test_unknown_region(self):
        mesh = fixed_bar()
        with pytest.raises(FemError, match="unknown contact region"):
            deform(mesh, material_d(), "nope", (0, 0, 0), n_steps=1)

    def test_bad_step_count(self):
        mesh = fixed_bar()
        with pytest.raises(FemError, match="n_steps"):
            deform(mesh, material_d(), "end", (0, 0, 0), n_steps=0)

    @pytest.mark.parametrize("n_steps", [True, 2.5, "2"])
    def test_step_count_must_be_an_integer(self, n_steps):
        with pytest.raises(FemError, match=f"n_steps must be an integer, got {n_steps!r}"):
            deform(fixed_bar(), material_d(), "end", (0, 0, 0), n_steps=n_steps)

    def test_integral_float_step_count_counts(self):
        mesh = fixed_bar()
        a, b = (deform(mesh, material_d(), "end", (0.05, 0.0, 0.0), n_steps=n) for n in (3, 3.0))
        assert np.array_equal(a.displacements, b.displacements) and b.n_steps == 3

    def test_element_inversion_reports_step(self):
        mesh = fixed_bar()
        # drive the contact face through the fixed end; inversion is detected
        # at the reassembly of a later step
        with pytest.raises(DegenerateElementError) as err:
            deform(mesh, material_d(), "end", (-0.5, 0.0, 0.0), n_steps=4)
        assert err.value.step is not None and err.value.step >= 2
        assert "step" in str(err.value)

    @pytest.mark.parametrize("target, n_steps", [((-1.5, 0, 0), 1), ((-3.0, 0, 0), 1),
                                                 ((-1.5, 0, 0), 2), ((-1.5, 0, 0), 5)])
    def test_inverted_final_configuration_raises_at_last_step(self, paper_rpp, target, n_steps):
        # these pushes invert elements during the last step, which no later
        # reassembly would see
        with pytest.raises(DegenerateElementError, match="non-positive volume") as err:
            deform(paper_rpp, material_d(), "end", target, n_steps=n_steps)
        assert err.value.step == n_steps
        assert f"step {n_steps}/{n_steps}" in str(err.value)
        assert 0 <= err.value.tet_index < paper_rpp.n_tets

    @pytest.mark.parametrize("which, target, n_steps", [
        ("fixed_bar", (-0.5, 0.0, 0.0), 4),  # inverts at the reassembly of a later step
        ("paper_rpp", (-1.5, 0.0, 0.0), 2),  # inverts during the last step
        ("paper_rpp", (-3.0, 0.0, 0.0), 1),
        ("rpp-12.8mm", (-1.0, 0.3, 0.0), 8),  # at step 7 of 8
    ])
    def test_inversion_names_the_dense_loops_tet_and_step(self, which, target, n_steps,
                                                          paper_rpp):
        mesh = {"fixed_bar": fixed_bar, "paper_rpp": lambda: paper_rpp,
                "rpp-12.8mm": lambda: generate_rpp(256.0, 51.2, 12.8)}[which]()
        with pytest.raises(DegenerateElementError) as want:
            dense_deform(mesh, material_d(), "end", target, n_steps)
        with pytest.raises(DegenerateElementError) as got:
            deform(mesh, material_d(), "end", target, n_steps=n_steps)
        assert (got.value.tet_index, got.value.step) == (want.value.tet_index, want.value.step)
        assert str(got.value).startswith(f"step {want.value.step}/{n_steps}: tetrahedron "
                                         f"{want.value.tet_index} has non-positive volume")

    def test_contact_reaction_from_the_lower_triangle_of_k_cc(self):
        # The plan sums K_cc's lower triangle only and symmetrizes it for the
        # reaction. The 12.8 mm end face holds 25 contact vertices, so K_cc
        # couples neighbours, and a contact translation sums every coupling.
        mesh = generate_rpp(256.0, 51.2, 12.8)
        d = material_d()
        target = (0.05, -0.1, 0.02)
        res = deform(mesh, d, "end", target, n_steps=1)
        system = assemble(mesh, mesh.vertices, d)
        dofs = system.vertex_dofs(mesh.contact_regions["end"])
        f_c, _ = solve_forced_displacement(system, dofs, np.tile(target, dofs.size // 3))
        assert_rel_close(res.contact_forces.reshape(-1), f_c)

        plan = fem._SolverPlan(mesh, "end")
        rng = np.random.default_rng(5)
        positions = mesh.vertices + rng.normal(scale=2e-3, size=mesh.vertices.shape)
        t = rng.normal(scale=0.01, size=3)
        u_n, f_c = plan._rate(fem._StepWork(mesh.n_tets), positions.reshape(-1),
                              fem._lame(d), t, reaction=True)
        system = assemble(mesh, positions, d)
        f_ref, u_ref = solve_forced_displacement(system, dofs, np.tile(t, dofs.size // 3))
        assert_rel_close(f_c, f_ref)
        # the flat position index ascends with the n-partition's DOF index
        assert_rel_close(u_n[np.argsort(plan._n_flat)], u_ref)

    @pytest.mark.parametrize("which, rtol", [
        ("rpp-25.6mm", 1e-13),
        ("rpp-12.8mm", 1e-13),
        ("blob", 1e-12),  # its slivers amplify rounding: 1e-13 to 3e-13 measured
    ])
    def test_rate_is_linear_in_the_translation(self, which, rtol):
        if which == "blob":
            mesh, region = make_blob_mesh(seed=1, n_points=300), "grab"
        else:
            mesh, region = generate_rpp(256.0, 51.2, float(which[4:8])), "end"
        plan = fem._SolverPlan(mesh, region)
        rng = np.random.default_rng(11)
        positions = (mesh.vertices + rng.normal(scale=2e-3, size=mesh.vertices.shape)).reshape(-1)
        lame = fem._lame(material_d())

        def rate(t):
            return plan._rate(fem._StepWork(mesh.n_tets), positions, lame, t, reaction=True)

        w, f = rate(np.eye(3))
        assert w.shape == (plan.n, 3) and f.shape == (plan.c, 3)
        for t in (rng.normal(scale=0.01, size=3), np.array([0.0, 0.02, 0.0])):
            u_n, f_c = rate(t)
            assert_rel_close(u_n, w @ t, rtol)
            assert_rel_close(f_c, f @ t, rtol)
        ts = rng.normal(scale=0.01, size=(3, 2))
        u_n, f_c = rate(ts)
        assert u_n.shape == (plan.n, 2) and f_c.shape == (plan.c, 2)
        for k in range(2):
            want_u, want_f = rate(ts[:, k])
            assert_rel_close(u_n[:, k], want_u, rtol)
            assert_rel_close(f_c[:, k], want_f, rtol)

    def test_build_dataset_records_final_inversion(self, paper_rpp):
        # two targets: (-1.5, 0, 0) inverts at its only step; (0, 0, 0) stays at rest
        centroid = paper_rpp.vertices[paper_rpp.contact_regions["end"]].mean(axis=0)
        spec = SamplingSpec(mode="box", spacing=1.5, extents=(1.5, 0.0, 0.0),
                            center=tuple(centroid - (0.75, 0.0, 0.0)))
        ds = build_dataset(paper_rpp, material_d(), {"end": spec}, n_steps=1)
        assert ds.m == 1 and np.allclose(ds.target[0], (0.0, 0.0, 0.0))
        [failure] = ds.failures
        assert failure.region == "end" and failure.point_index == 0
        assert "step 1/1" in failure.reason and "non-positive volume" in failure.reason


class TestSolverPlanCache:
    """deform keeps one solver plan per (mesh, region), on the mesh."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The regions of the plans built from now on, in order."""
        regions = []

        class Counted(fem._SolverPlan):
            def __init__(self, mesh, region):
                regions.append(region)
                super().__init__(mesh, region)

        monkeypatch.setattr(fem, "_SolverPlan", Counted)
        return regions

    def test_one_plan_per_region_and_fresh_plan_bits(self, built):
        mesh = generate_rpp(51.2, 25.6, 25.6, contact_specs={"tip": [(2, 1, 1)],
                                                             "side": [(1, 1, 0), (2, 1, 0)]})
        target, d = (0.01, 0.02, -0.01), material_d()
        runs = [deform(mesh, d, region, target, n_steps=3)
                for region in ("tip", "side", "tip", "side", "tip")]
        assert built == ["tip", "side"]
        assert fem._plan(mesh, "tip") is fem._plan(mesh, "tip")
        for region, run in zip(("tip", "side", "tip", "side", "tip"), runs):
            fresh = fem._SolverPlan(mesh, region).deform(fem._lame(d), target, 3)
            assert np.array_equal(run.displacements, fresh.displacements)
            assert np.array_equal(run.contact_forces, fresh.contact_forces)

    def test_reused_plan_matches_a_fresh_one(self):
        # two calls in a row on one plan: nothing of the first may leak into
        # the second
        mesh = generate_rpp(256.0, 51.2, 25.6)
        plan, lame = fem._SolverPlan(mesh, "end"), fem._lame(material_d())
        for target in ((0.2, 0.1, 0.05), (-0.1, 0.3, 0.0)):
            reused = plan.deform(lame, target, 3)
            fresh = fem._SolverPlan(mesh, "end").deform(lame, target, 3)
            assert np.array_equal(reused.displacements, fresh.displacements)
            assert np.array_equal(reused.contact_forces, fresh.contact_forces)

    def test_build_dataset_uses_the_mesh_plan(self, built):
        mesh = fixed_bar()
        spec = SamplingSpec(mode="box", spacing=0.02, extents=(0.02, 0.0, 0.0))
        for _ in range(2):
            build_dataset(mesh, material_d(), {"end": spec}, n_steps=2)
        deform(mesh, material_d(), "end", (0.01, 0.0, 0.0), n_steps=2)
        assert built == ["end"]

    def test_dropping_the_mesh_frees_it_and_its_plan(self):
        gc.disable()  # only reference counting may free them
        try:
            mesh = fixed_bar()
            deform(mesh, material_d(), "end", (0.01, 0.02, 0.0), n_steps=2)
            mesh_ref, plan_ref = weakref.ref(mesh), weakref.ref(fem._plan(mesh, "end"))
            del mesh
            assert mesh_ref() is None and plan_ref() is None
        finally:
            gc.enable()

    def test_plans_stay_out_of_a_pickle(self):
        mesh = fixed_bar()
        size = len(pickle.dumps(mesh))
        first = deform(mesh, material_d(), "end", (0.01, 0.02, 0.0), n_steps=2)
        assert len(pickle.dumps(mesh)) == size
        copy = pickle.loads(pickle.dumps(mesh))
        again = deform(copy, material_d(), "end", (0.01, 0.02, 0.0), n_steps=2)
        assert fem._plan(copy, "end") is not fem._plan(mesh, "end")
        assert np.array_equal(again.displacements, first.displacements)

    def test_threads_share_a_mesh(self):
        # More threads than cores race to build the plan, each call with its
        # own workspace; the autouse fixture checks that the LAPACK thread
        # count they pin comes back.
        mesh = generate_rpp(256.0, 51.2, 25.6)
        targets = [(0.05 * i, 0.05, -0.02 * i) for i in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                threaded = list(pool.map(
                    lambda t: deform(mesh, material_d(), "end", t, n_steps=2), targets,
                    timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for target, res in zip(targets, threaded):
            serial = fem._SolverPlan(mesh, "end").deform(fem._lame(material_d()), target, 2)
            assert_rel_close(res.displacements, serial.displacements)

    def test_warm_deform_peak_memory(self):
        # A warm deform on the 12.8 mm RPP (1425 reduced DOFs) holds its
        # workspace (4.0 MB) and, from step 2 on, one step's K_nn band, K_nc's
        # coupled rows and K_cc (1.3 MB), however many steps it runs: a 5.3
        # MB peak. A one-step call sums no K: the plan keeps the rest solve,
        # and the call holds only the 63 workspace rows of its final volume
        # check (1.1 MB; all 271 rows peaked at 4.2 MB).
        # Element blocks formed as B^T D B and gathered for the scatter
        # peaked at 8.3 MB; building the plan on every call, with fresh
        # element arrays at every step, at 14.3 MB.
        mesh = generate_rpp(256.0, 51.2, 12.8)
        deform(mesh, material_d(), "end", (0.2, 0.1, 0.05), n_steps=1)  # builds the plan
        peaks = []
        for n_steps in (1, 2, 10):
            tracemalloc.start()
            try:
                deform(mesh, material_d(), "end", (0.2, 0.1, 0.05), n_steps=n_steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 1.5 * 2**20
        assert peaks[2] <= peaks[1] + 2**16
        assert peaks[2] < 9 * 2**20


def plan_mesh(which):
    """(mesh, region) of a test mesh named rpp-<spacing>mm or blob<seed>."""
    if which.startswith("rpp-"):
        return generate_rpp(256.0, 51.2, float(which[4:-2])), "end"
    return make_blob_mesh(seed=int(which[4:]), n_points=400), "grab"


def n_vertex_ids(mesh, region):
    """The ids of the n-partition's vertices, those neither fixed nor in contact."""
    n_vertex = np.ones(mesh.n_vertices, dtype=bool)
    n_vertex[mesh.fixed_ids] = False
    n_vertex[mesh.contact_regions[region]] = False
    return np.flatnonzero(n_vertex)


def n_vertex_graph(mesh, region):
    """(a, b, n): the n-partition's vertices, adjacent when they share a tet."""
    ids = n_vertex_ids(mesh, region)
    slot = np.full(mesh.n_vertices, -1)
    slot[ids] = np.arange(ids.size)
    tv = slot[mesh.tets]
    a, b = np.repeat(tv, 4, axis=1).ravel(), np.tile(tv, (1, 4)).ravel()
    edge = (a >= 0) & (b >= 0) & (a != b)
    return a[edge], b[edge], ids.size


def bandwidth(order, a, b):
    """The bandwidth of the graph with edges a[i] - b[i] in the node order order."""
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return np.abs(rank[a] - rank[b]).max(initial=0)


def reference_rcm(a, b, n, root):
    """Reverse Cuthill-McKee order of the n-node graph with edges a[i] - b[i],
    node by node: first from root, then from the lowest-degree unvisited node
    of each other component, neighbours by ascending degree, ties by index."""
    adjacent = [set() for _ in range(n)]
    for p, q in zip(a.tolist(), b.tolist()):
        adjacent[p].add(q)
    degree = [len(x) for x in adjacent]
    order, seen = [], [False] * n
    for start in [root] + sorted(range(n), key=lambda v: degree[v]):
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        head = len(order) - 1
        while head < len(order):
            for v in sorted(adjacent[order[head]], key=lambda v: (degree[v], v)):
                if not seen[v]:
                    seen[v] = True
                    order.append(v)
            head += 1
    return np.array(order[::-1], dtype=np.int64)


def first_root_order(mesh, region):
    """(bw, n_flat) of the n-partition in the RCM order of its vertices from
    the lowest-index lowest-degree vertex alone, each vertex's three DOFs
    adjacent: every tet spans 3 (max - min) + 2 plan positions from its
    vertices' ranks."""
    a, b, n = n_vertex_graph(mesh, region)
    degree = np.bincount(np.unique(a * n + b) // n, minlength=n)
    order = n_vertex_ids(mesh, region)[reference_rcm(a, b, n, int(np.argmin(degree)))]
    rank = np.full(mesh.n_vertices, -1)
    rank[order] = np.arange(order.size)
    tet_rank = rank[mesh.tets]
    hi = tet_rank.max(axis=1)
    lo = np.where(tet_rank >= 0, tet_rank, hi[:, None]).min(axis=1)
    bw = int((3 * (hi - lo) + 2)[hi >= 0].max())
    return bw, (3 * order[:, None] + np.arange(3)).ravel()


def unchecked_mesh(mesh, vertices):
    """mesh with the given vertex positions, past TetMesh's orientation check."""
    moved = TetMesh.__new__(TetMesh)
    moved.__setstate__({**mesh.__getstate__(), "vertices": vertices})
    return moved


class TestRestSolve:
    """Step 1 of every deform call starts at rest: the plan solves it once per
    material and scales the result by the call's first increment."""

    @pytest.mark.parametrize("which", ["rpp-25.6mm", "rpp-12.8mm", "blob"])
    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_cold_and_warm_plans_equal_dense_euler_loop(self, which, n_steps):
        if which == "blob":
            mesh, region, target = make_blob_mesh(seed=1, n_points=300), "grab", (0.05, -0.03, 0.02)
        else:
            mesh = generate_rpp(256.0, 51.2, float(which[4:8]))
            region, target = "end", (0.1, 0.15, -0.05)
        u, f_c = dense_deform(mesh, material_d(), region, target, n_steps)
        for _ in ("cold", "warm"):
            res = deform(mesh, material_d(), region, target, n_steps=n_steps)
            assert_rel_close(res.displacements, u)
            assert_rel_close(res.contact_forces, f_c)

    @pytest.mark.parametrize("which", ["rpp-12.8mm", "blob"])
    def test_one_step_is_the_rest_response_times_h(self, which):
        if which == "blob":
            mesh, region, target = make_blob_mesh(seed=1, n_points=300), "grab", (0.05, -0.03, 0.02)
        else:
            mesh, region, target = generate_rpp(256.0, 51.2, 12.8), "end", (0.1, 0.15, -0.05)
        res = deform(mesh, material_d(), region, target, n_steps=1)
        plan = fem._plan(mesh, region)
        w, f = plan.rest_response(fem._lame(material_d()))
        h = np.asarray(target)
        assert np.array_equal(res.contact_forces.reshape(-1), (f * h).sum(axis=1))
        # a vertex moves from x to x + W h; its displacement is that minus x
        x = mesh.vertices.reshape(-1)[plan._n_flat]
        full = np.zeros_like(mesh.vertices)
        full[mesh.free_ids] = res.displacements
        assert np.array_equal(full.reshape(-1)[plan._n_flat], (x + (w * h).sum(axis=1)) - x)
        x_c = mesh.vertices[plan.contact_ids]
        assert np.array_equal(full[plan.contact_ids], (x_c + h) - x_c)

    def test_alternating_materials_match_fresh_plans(self):
        mesh = generate_rpp(256.0, 51.2, 25.6)
        materials = [fem._lame(material_d(1.0e6, 0.40)), fem._lame(material_d(3.0e5, 0.25))]
        target = (0.1, -0.05, 0.08)
        for lame, n_steps in zip(materials * 3, (1, 1, 2, 2, 1, 2)):
            got = fem._plan(mesh, "end").deform(lame, target, n_steps)
            fresh = fem._SolverPlan(mesh, "end").deform(lame, target, n_steps)
            assert np.array_equal(got.displacements, fresh.displacements)
            assert np.array_equal(got.contact_forces, fresh.contact_forces)

    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_degenerate_rest_mesh_raises_at_step_one_on_every_call(self, n_steps):
        # the free middle vertex (0.1, 0, 0) of the bar moved past its contact end
        bar = fixed_bar()
        vertices = bar.vertices.copy()
        vertices[4, 0] = 0.35
        mesh = unchecked_mesh(bar, vertices)
        with pytest.raises(DegenerateElementError) as want:
            assemble(mesh, vertices, material_d())
        for _ in ("first", "second"):
            with pytest.raises(DegenerateElementError) as err:
                deform(mesh, material_d(), "end", (0.01, 0.0, 0.0), n_steps=n_steps)
            assert (err.value.step, err.value.tet_index) == (1, want.value.tet_index)
            assert str(err.value) == f"step 1/{n_steps}: {want.value}"

    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_floating_tet_raises_singular_on_every_call(self, n_steps):
        mesh = TetMesh(vertices=UNIT_TET, tets=[[0, 1, 2, 3]], contact_regions={"a": [0]})
        errors = []
        for _ in ("first", "second"):
            with pytest.raises(SingularSystemError) as err:
                deform(mesh, material_d(), "a", (0.1, 0.0, 0.0), n_steps=n_steps)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert fem._plan(mesh, "a")._rest is None

    def test_threads_race_on_a_cold_rest_solve(self):
        # six threads enter deform at once on a mesh that has no plan yet
        mesh = generate_rpp(256.0, 51.2, 12.8)
        targets = [(0.05 * i, 0.05, -0.02 * i) for i in range(6)]
        barrier = threading.Barrier(len(targets), timeout=60)

        def run(i):
            barrier.wait()
            return deform(mesh, material_d(), "end", targets[i], n_steps=1 + i % 2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(targets)) as pool:
                threaded = list(pool.map(run, range(len(targets)), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        lame = fem._lame(material_d())
        for i, res in enumerate(threaded):
            fresh = fem._SolverPlan(mesh, "end").deform(lame, targets[i], 1 + i % 2)
            assert np.array_equal(res.displacements, fresh.displacements)
            assert np.array_equal(res.contact_forces, fresh.contact_forces)


class TestLapackThreadPin:
    """deform factors on one LAPACK thread and gives the caller's count back."""

    def test_deform_factors_on_one_thread(self, factor_threads, lapack_threads):
        deform(fixed_bar(), material_d(), "end", (0.01, 0.02, 0.0), n_steps=3)
        assert [threads for _, threads in factor_threads()] == [1, 1, 1]
        assert lapack_threads() == 2

    @pytest.mark.parametrize("case", ["inverted", "floating"])
    def test_count_restored_when_deform_raises(self, case, factor_threads, lapack_threads):
        if case == "inverted":  # the last step inverts elements; a fresh mesh solves its rest
            mesh, region, target, error = generate_rpp(), "end", (-1.5, 0.0, 0.0), DegenerateElementError
        else:  # K_nn of a floating tet is singular
            mesh = TetMesh(vertices=UNIT_TET, tets=[[0, 1, 2, 3]], contact_regions={"a": [0]})
            region, target, error = "a", (0.1, 0.0, 0.0), SingularSystemError
        with pytest.raises(error):
            deform(mesh, material_d(), region, target, n_steps=1)
        assert [threads for _, threads in factor_threads()] == [1]
        assert lapack_threads() == 2

    def test_overlapping_pins_restore_the_count_once(self, lapack_threads):
        # two threads' deform calls, the first to enter leaving first
        first, second = _blas.one_thread("scipy"), _blas.one_thread("scipy")
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert lapack_threads() == 1
        second.__exit__(None, None, None)
        assert lapack_threads() == 2

    def test_same_fields_where_no_openblas_is_found(self, lapack_threads, monkeypatch):
        # the unpinned run factors on the caller's two threads
        mesh = generate_rpp(256.0, 51.2, 12.8)
        target = (0.2, 0.1, 0.05)
        pinned = deform(mesh, material_d(), "end", target, n_steps=2)
        monkeypatch.setattr(_blas, "threads", lambda package: None)
        unpinned = deform(mesh, material_d(), "end", target, n_steps=2)
        assert_rel_close(unpinned.displacements, pinned.displacements)
        assert_rel_close(unpinned.contact_forces, pinned.contact_forces)


def rpp_band(spacing):
    """The plan, K_nn's band (column-major) and the summed element entries of
    the RPP of this spacing, sheared at its contact end so that K is not the
    rest one."""
    mesh = generate_rpp(256.0, 51.2, spacing)
    plan = fem._SolverPlan(mesh, "end")
    positions = mesh.vertices.copy()
    positions[plan.contact_ids] += (0.01, 0.02, -0.01)
    work = fem._StepWork(mesh.n_tets)
    work.check(positions.reshape(-1), plan._corners)
    ke = work.stiffness(*fem._lame(material_d()))
    return plan, plan._summed(ke)[0], ke


class TestGilFreeKernels:
    """The band factor and solve and the scatter sum, which release the GIL,
    give the bits of the scipy and numpy calls they replace."""

    @pytest.mark.parametrize("spacing", [25.6, 12.8])
    def test_factor_and_solve_equal_scipy(self, spacing):
        _, band, _ = rpp_band(spacing)
        assert band.flags.f_contiguous
        want = scipy.linalg.cholesky_banded(band.copy(order="F"), lower=True)
        fem._band_cholesky(band)
        assert np.array_equal(band, want)
        rng = np.random.default_rng(3)
        for shape in ((band.shape[1],), (band.shape[1], 3)):
            rhs = rng.normal(size=shape)
            want_x = scipy.linalg.cho_solve_banded((want, True), rhs)
            got = fem._band_cho_solve(band, np.asfortranarray(rhs))
            assert np.array_equal(got, want_x)

    def test_indefinite_band_raises_scipy_text(self):
        band = np.asfortranarray([[1.0, 1.0], [2.0, 0.0]])  # [[1, 2], [2, 1]]
        with pytest.raises(scipy.linalg.LinAlgError) as want:
            scipy.linalg.cholesky_banded(band.copy(order="F"), lower=True)
        with pytest.raises(SingularSystemError) as got:
            fem._band_cholesky(band)
        assert str(got.value) == f"reduced stiffness is not positive definite: {want.value}"

    def test_floating_tet_fails_the_pivot_check_with_scipy_bits(self):
        # the semi-definite K_nn factors into a tiny pivot instead of failing;
        # the pivot check names the one cholesky_banded gives
        mesh = TetMesh(vertices=UNIT_TET, tets=[[0, 1, 2, 3]], contact_regions={"a": [0]})
        plan = fem._SolverPlan(mesh, "a")
        work = fem._StepWork(1)
        work.check(UNIT_TET.reshape(-1), plan._corners)
        band = plan._summed(work.stiffness(*fem._lame(material_d())))[0]
        pivots = scipy.linalg.cholesky_banded(band, lower=True)[0] ** 2
        i = int(np.argmax(pivots <= plan.n * np.finfo(np.float64).eps * band[0]))
        with pytest.raises(SingularSystemError) as exc:
            deform(mesh, material_d(), "a", (0.1, 0.0, 0.0), n_steps=2)
        assert str(exc.value) == ("reduced stiffness is not positive definite: "
                                  f"pivot {i} is {pivots[i]:.3e} against diagonal {band[0, i]:.3e}")

    def test_arrays_lapack_cannot_take_are_refused(self):
        band = np.ones((2, 3))  # C order: LAPACK would read its transpose
        with pytest.raises(ValueError, match="column-major"):
            fem._band_cholesky(band)
        with pytest.raises(ValueError, match="column-major"):
            fem._band_cho_solve(np.asfortranarray(band), np.ones((3, 2)))
        with pytest.raises(ValueError, match="2 rows for a factor of order 3"):
            fem._band_cho_solve(np.asfortranarray(band), np.ones(2))

    def test_sparse_sum_equals_bincount_with_signed_zeros(self):
        rng = np.random.default_rng(5)
        dst = rng.integers(0, 40, size=600)
        w = rng.normal(size=600)
        w[rng.random(600) < 0.3] = 0.0
        w[rng.random(600) < 0.3] = -0.0
        dst[:5], w[:5] = 45, -0.0  # a slot of negative zeros only; slots 40-44 and 46 empty
        dst[5:9] = 47  # past the end: dropped
        slots, matrix = fem._summing_matrix(dst, 47)
        got = np.zeros(47)
        got[slots] = matrix @ w
        want = np.bincount(dst, weights=w, minlength=48)[:47]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("spacing", [25.6, 12.8])
    def test_plan_sum_equals_bincount(self, spacing):
        plan, _, ke = rpp_band(spacing)
        rows = plan._scatter.tocoo()
        dst = np.full(ke.size, plan._ends[-1])  # the dropped entries, at fixed DOFs
        dst[rows.col] = plan._slots[rows.row]
        assert (dst == plan._ends[-1]).any()
        want = np.bincount(dst, weights=ke.reshape(-1), minlength=plan._ends[-1] + 1)
        got = np.concatenate([m.ravel(order="K") for m in plan._summed(ke)])  # memory order
        assert np.array_equal(got, want[:-1])
        assert np.array_equal(np.signbit(got), np.signbit(want[:-1]))
