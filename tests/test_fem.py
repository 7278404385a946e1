import numpy as np
import pytest
import scipy.linalg

from deformest.fem import (
    DegenerateElementError,
    FemError,
    MaterialParams,
    SingularSystemError,
    StiffnessSystem,
    assemble,
    deform,
    element_stiffness,
    elasticity_matrix,
    solve_forced_displacement,
)
from deformest.mesh import generate_rpp

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

    def test_degenerate_rejected(self):
        flat = UNIT_TET.copy()
        flat[3] = [1, 1, 0]
        with pytest.raises(DegenerateElementError, match="non-positive volume"):
            element_stiffness(flat, material_d())


def single_tet_mesh():
    from deformest.mesh import TetMesh

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
        # deform's internal solve path against the public assemble + solve
        mesh = fixed_bar() if which == "fixed_bar" else paper_rpp
        target = np.array([0.01, -0.02, 0.015])
        res = deform(mesh, material_d(), "end", target, n_steps=1)

        system = assemble(mesh, mesh.vertices, material_d())
        start = mesh.vertices[mesh.contact_regions["end"]]
        dofs = system.vertex_dofs(mesh.contact_regions["end"])
        u_c = ((start + target) - start).reshape(-1)  # deform's step-1 increment
        f_c, u_n = solve_forced_displacement(system, dofs, u_c)
        update = np.empty(system.n_dofs)
        update[dofs] = u_c
        update[np.setdiff1d(np.arange(system.n_dofs), dofs)] = u_n
        v = mesh.vertices[mesh.free_ids]
        assert np.array_equal(res.displacements, (v + update.reshape(-1, 3)) - v)
        assert np.array_equal(res.contact_forces.reshape(-1), f_c)

    def test_unknown_region(self):
        mesh = fixed_bar()
        with pytest.raises(FemError, match="unknown contact region"):
            deform(mesh, material_d(), "nope", (0, 0, 0), n_steps=1)

    def test_bad_step_count(self):
        mesh = fixed_bar()
        with pytest.raises(FemError, match="n_steps"):
            deform(mesh, material_d(), "end", (0, 0, 0), n_steps=0)

    def test_element_inversion_reports_step(self):
        mesh = fixed_bar()
        # drive the contact face through the fixed end; inversion is detected
        # at the reassembly of a later step
        with pytest.raises(DegenerateElementError) as err:
            deform(mesh, material_d(), "end", (-0.5, 0.0, 0.0), n_steps=4)
        assert err.value.step is not None and err.value.step >= 2
        assert "step" in str(err.value)
