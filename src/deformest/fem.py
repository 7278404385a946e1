"""Linear-tetrahedron elastic FEM with forced-displacement boundary conditions.

Large deformations are computed incrementally: the prescribed displacement is
applied in equal micro-steps and the stiffness matrix is reassembled from the
updated geometry after every step, while the constitutive matrix stays fixed.
Fixed vertices are removed from the system by row/column elimination; the
reduced system is solved by Cholesky factorization each step.

Voigt convention throughout: strain components ordered (xx, yy, zz, xy, yz, zx)
with engineering shear strains, matching the constitutive matrix from
:func:`elasticity_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .mesh import TetMesh

__all__ = [
    "FemError",
    "DegenerateElementError",
    "SingularSystemError",
    "MaterialParams",
    "StiffnessSystem",
    "DeformResult",
    "elasticity_matrix",
    "element_stiffness",
    "assemble",
    "solve_forced_displacement",
    "deform",
]


class FemError(RuntimeError):
    """Base class for solver failures."""


class DegenerateElementError(FemError):
    """A tetrahedron has zero or negative volume (inverted element)."""

    def __init__(self, message: str, tet_index: int, step: int | None = None):
        super().__init__(message)
        self.tet_index = tet_index
        self.step = step


class SingularSystemError(FemError):
    """The reduced stiffness system is not positive definite."""


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic linear-elastic material: Young's modulus (Pa) and Poisson's ratio."""

    young_modulus: float = 1.0e6
    poisson_ratio: float = 0.40

    def __post_init__(self):
        if not self.young_modulus > 0:
            raise ValueError(f"young_modulus must be positive, got {self.young_modulus}")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError(
                f"poisson_ratio must lie in [0, 0.5) for a non-singular material, "
                f"got {self.poisson_ratio}"
            )


def elasticity_matrix(mat: MaterialParams) -> np.ndarray:
    """6x6 isotropic constitutive matrix in Voigt notation (engineering shear)."""
    e, nu = mat.young_modulus, mat.poisson_ratio
    if nu >= 0.5:
        raise ValueError(f"poisson_ratio {nu} >= 0.5 gives a singular material")
    c = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
    d = np.zeros((6, 6))
    d[:3, :3] = c * nu
    np.fill_diagonal(d[:3, :3], c * (1.0 - nu))
    d[3, 3] = d[4, 4] = d[5, 5] = c * (1.0 - 2.0 * nu) / 2.0
    return d


def _element_matrices(tet_vertices: np.ndarray):
    """Strain-displacement matrices and volumes for a batch of tetrahedra.

    tet_vertices: (M, 4, 3). Returns (B, volumes) with B of shape (M, 6, 12),
    columns grouped per node as (ux, uy, uz). Volumes are signed.
    """
    edges = tet_vertices[:, 1:, :] - tet_vertices[:, :1, :]  # rows are edge vectors
    vols = np.linalg.det(edges) / 6.0
    bad = np.flatnonzero(vols <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise DegenerateElementError(
            f"tetrahedron {i} has non-positive volume ({vols[i]:.3e})", tet_index=i
        )
    # shape-function gradients: rows of inv(E) for nodes 1..3, node 0 = -sum
    grads = np.linalg.inv(np.transpose(edges, (0, 2, 1)))
    g = np.empty((tet_vertices.shape[0], 4, 3))
    g[:, 1:, :] = grads
    g[:, 0, :] = -grads.sum(axis=1)

    m = tet_vertices.shape[0]
    b = np.zeros((m, 6, 12))
    for node in range(4):
        gx, gy, gz = g[:, node, 0], g[:, node, 1], g[:, node, 2]
        col = 3 * node
        b[:, 0, col + 0] = gx
        b[:, 1, col + 1] = gy
        b[:, 2, col + 2] = gz
        b[:, 3, col + 0] = gy
        b[:, 3, col + 1] = gx
        b[:, 4, col + 1] = gz
        b[:, 4, col + 2] = gy
        b[:, 5, col + 0] = gz
        b[:, 5, col + 2] = gx
    return b, vols


def _element_stiffness_batch(tet_vertices: np.ndarray, d: np.ndarray):
    b, vols = _element_matrices(tet_vertices)
    db = np.einsum("jk,mkl->mjl", d, b)
    ke = np.einsum("mji,mjl->mil", b, db) * vols[:, None, None]
    return ke, vols


def element_stiffness(tet_vertices: np.ndarray, d: np.ndarray) -> np.ndarray:
    """12x12 stiffness of one tetrahedron: volume * B^T D B.

    Raises DegenerateElementError for zero or negative volume.
    """
    tet_vertices = np.asarray(tet_vertices, dtype=np.float64).reshape(1, 4, 3)
    ke, _ = _element_stiffness_batch(tet_vertices, np.asarray(d, dtype=np.float64))
    return ke[0]


@dataclass
class StiffnessSystem:
    """Reduced global stiffness over the free DOFs of a mesh.

    K is (3*n_free, 3*n_free); slot i of free_ids owns DOFs 3i, 3i+1, 3i+2.
    free_ids is None for systems built directly from a matrix.
    """

    K: np.ndarray
    free_ids: np.ndarray | None = None

    @property
    def n_dofs(self) -> int:
        return self.K.shape[0]

    def vertex_dofs(self, vertex_ids) -> np.ndarray:
        """Flat DOF indices (x, y, z per vertex) for the given free vertices."""
        if self.free_ids is None:
            raise FemError("system has no vertex map; pass DOF indices directly")
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        slots = np.searchsorted(self.free_ids, vertex_ids)
        ok = (slots < self.free_ids.size) & (self.free_ids[np.minimum(slots, self.free_ids.size - 1)] == vertex_ids)
        if not ok.all():
            raise FemError(f"vertices {vertex_ids[~ok].tolist()} are not free vertices of this system")
        return (3 * slots[:, None] + np.arange(3)).reshape(-1)


class _AssemblyPattern:
    """Precomputed scatter pattern from element blocks into the reduced K.

    The pattern depends only on topology and fixed-vertex elimination, so a
    single instance serves every reassembly along a deformation trajectory.
    """

    def __init__(self, mesh: TetMesh):
        self.mesh = mesh
        self.n_dofs = 3 * mesh.n_free
        slots = mesh.free_index_of()[mesh.tets]  # (M, 4), -1 for fixed
        elem_dofs = np.where(slots >= 0, 3 * slots, -3)[:, :, None] + np.arange(3)
        elem_dofs = np.where(slots[:, :, None] >= 0, elem_dofs, -1).reshape(-1, 12)
        rows = np.broadcast_to(elem_dofs[:, :, None], (len(elem_dofs), 12, 12))
        cols = np.broadcast_to(elem_dofs[:, None, :], (len(elem_dofs), 12, 12))
        self.valid = (rows >= 0) & (cols >= 0)
        self.flat = rows[self.valid] * self.n_dofs + cols[self.valid]

    def stiffness(self, positions: np.ndarray, d: np.ndarray) -> np.ndarray:
        ke, _ = _element_stiffness_batch(positions[self.mesh.tets], d)
        k = np.bincount(self.flat, weights=ke[self.valid], minlength=self.n_dofs**2)
        return k.reshape(self.n_dofs, self.n_dofs)


def assemble(mesh: TetMesh, current_positions: np.ndarray, d: np.ndarray) -> StiffnessSystem:
    """Global stiffness at the given vertex positions, fixed DOFs eliminated.

    Raises DegenerateElementError naming the first inverted tetrahedron.
    """
    positions = np.asarray(current_positions, dtype=np.float64)
    if positions.shape != mesh.vertices.shape:
        raise FemError(
            f"positions shape {positions.shape} does not match mesh ({mesh.vertices.shape})"
        )
    pattern = _AssemblyPattern(mesh)
    return StiffnessSystem(K=pattern.stiffness(positions, np.asarray(d, dtype=np.float64)), free_ids=mesh.free_ids)


def solve_forced_displacement(system: StiffnessSystem, contact_dofs, u_c):
    """Solve the reduced system with prescribed contact displacements.

    With DOFs partitioned into prescribed (c) and remaining free (n) and no
    external force on the n-partition, returns (f_c, u_n):

        u_n = -K_nn^-1 K_nc u_c
        f_c =  K_cc u_c + K_cn u_n

    u_n is ordered by ascending DOF index of the n-partition.
    """
    k = system.K
    contact_dofs = np.asarray(contact_dofs, dtype=np.int64)
    u_c = np.asarray(u_c, dtype=np.float64).reshape(-1)
    if contact_dofs.size == 0:
        raise FemError("contact_dofs must be nonempty")
    if contact_dofs.size != np.unique(contact_dofs).size:
        raise FemError("contact_dofs contains duplicates")
    if contact_dofs.min() < 0 or contact_dofs.max() >= k.shape[0]:
        raise FemError(f"contact DOF out of range (system has {k.shape[0]} DOFs)")
    if u_c.shape != contact_dofs.shape:
        raise FemError(f"u_c length {u_c.size} != number of contact DOFs {contact_dofs.size}")
    if not np.isfinite(u_c).all():
        raise FemError("u_c contains non-finite values")

    mask = np.ones(k.shape[0], dtype=bool)
    mask[contact_dofs] = False
    return _solve(k, contact_dofs, np.flatnonzero(mask), u_c)


def _solve(k: np.ndarray, contact_dofs: np.ndarray, n_idx: np.ndarray, u_c: np.ndarray):
    """(f_c, u_n) of :func:`solve_forced_displacement` for a checked partition."""
    k_cc = k[np.ix_(contact_dofs, contact_dofs)]
    if n_idx.size == 0:
        return k_cc @ u_c, np.empty(0)
    k_nn = k[np.ix_(n_idx, n_idx)]
    k_nc = k[np.ix_(n_idx, contact_dofs)]
    try:
        chol = scipy.linalg.cho_factor(k_nn, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError(f"reduced stiffness is not positive definite: {exc}") from exc
    u_n = scipy.linalg.cho_solve(chol, -(k_nc @ u_c), check_finite=False)
    f_c = k_cc @ u_c + k_nc.T @ u_n
    return f_c, u_n


@dataclass
class DeformResult:
    """Outcome of an incremental forced-displacement run.

    displacements: (n_free, 3) total displacement per free vertex, ordered by
    mesh.free_ids. contact_forces: (n_contact, 3) reaction at the contact
    vertices after the final step, ordered by ascending contact vertex id.
    """

    displacements: np.ndarray
    contact_forces: np.ndarray
    contact_ids: np.ndarray
    free_ids: np.ndarray
    n_steps: int

    @property
    def flat_displacements(self) -> np.ndarray:
        """(3*n_free,) vertex-major flattening, (x, y, z) within each vertex."""
        return self.displacements.reshape(-1)


def deform(
    mesh: TetMesh,
    d: np.ndarray,
    region: str,
    target_disp,
    n_steps: int = 1000,
) -> DeformResult:
    """Translate a contact region by target_disp through n_steps equal increments.

    Every vertex of the region receives the same displacement (rigid
    translation of the contact set). After each increment the stiffness is
    reassembled at the updated positions and the reduced system is solved
    with the contact DOFs prescribed.
    """
    if n_steps < 1:
        raise FemError(f"n_steps must be >= 1, got {n_steps}")
    if region not in mesh.contact_regions:
        raise FemError(f"unknown contact region {region!r}; have {list(mesh.contact_regions)}")
    target = np.asarray(target_disp, dtype=np.float64).reshape(3)
    if not np.isfinite(target).all():
        raise FemError("target_disp contains non-finite values")

    contact_ids = mesh.contact_regions[region]
    positions = mesh.vertices.copy()
    start = mesh.vertices[contact_ids].copy()
    d = np.asarray(d, dtype=np.float64)

    pattern = _AssemblyPattern(mesh)
    slots = mesh.free_index_of()[contact_ids]  # regions never contain fixed vertices
    contact_dofs = (3 * slots[:, None] + np.arange(3)).reshape(-1)
    mask = np.ones(pattern.n_dofs, dtype=bool)
    mask[contact_dofs] = False
    n_idx = np.flatnonzero(mask)
    update = np.zeros(pattern.n_dofs)  # contact rows stay 0: those positions are reset below

    for step in range(1, n_steps + 1):
        try:
            k = pattern.stiffness(positions, d)
        except DegenerateElementError as exc:
            raise DegenerateElementError(
                f"step {step}/{n_steps}: {exc}", tet_index=exc.tet_index, step=step
            ) from exc
        desired = start + target * (step / n_steps)
        u_c = (desired - positions[contact_ids]).reshape(-1)
        f_c, u_n = _solve(k, contact_dofs, n_idx, u_c)
        update[n_idx] = u_n
        positions[mesh.free_ids] += update.reshape(-1, 3)
        positions[contact_ids] = desired  # keep the prescribed path exact

    return DeformResult(
        displacements=positions[mesh.free_ids] - mesh.vertices[mesh.free_ids],
        contact_forces=f_c.reshape(-1, 3),
        contact_ids=contact_ids,
        free_ids=mesh.free_ids,
        n_steps=n_steps,
    )
