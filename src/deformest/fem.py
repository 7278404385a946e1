"""Linear-tetrahedron elastic FEM with forced-displacement boundary conditions.

Large deformations are computed incrementally: the prescribed displacement is
applied in equal micro-steps and the stiffness matrix is reassembled from the
updated geometry after every step, while the constitutive matrix stays fixed.
Fixed vertices are removed from the system by row/column elimination.

Two paths compute the same solve. :func:`assemble` and
:func:`solve_forced_displacement` build the dense reduced ``K`` and factor its
non-contact block with a dense Cholesky; they are the public oracle the tests
compare against. :func:`deform` instead uses one solver plan per (mesh,
region): a reverse Cuthill-McKee ordering of the non-contact DOFs (Cuthill &
McKee, 1969; George & Liu, 1981) and scatter indices that send element
stiffness entries straight into LAPACK lower-band storage of ``K_nn``. The
plan is built on the region's first solve and kept with the mesh object for
as long as that lives; it holds no reference to the mesh and stays out of a
pickled mesh. Each step then costs a banded Cholesky, O(n bw^2) for
half-bandwidth bw, and never forms an n^2 matrix. Each call runs its steps
in a workspace of its own, allocated once and overwritten step after step,
so calls on a shared mesh may run in threads. The steps run with scipy's
OpenBLAS on one thread: at these half-bandwidths a threaded band Cholesky is
slower than a serial one, and pool workers that each thread it oversubscribe
the cores. numpy's OpenBLAS, which runs the step's small products, keeps the
caller's count.

Voigt convention throughout: strain components ordered (xx, yy, zz, xy, yz, zx)
with engineering shear strains, matching the constitutive matrix from
:func:`elasticity_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import _blas
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


# Nonzeros of B for one node: (strain row, displacement component, gradient axis).
_B_PATTERN = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 0, 1), (3, 1, 0),
              (4, 1, 2), (4, 2, 1), (5, 0, 2), (5, 2, 0)]


# Cofactor row r is a x b for a = e_I[r], b = e_J[r]; its entry k is
# a_I[k] b_J[k] - a_J[k] b_I[k], the products np.cross forms, at a third of its
# cost. The four factors as columns of the flattened (M, 9) edge rows:
_I, _J = np.array([1, 2, 0]), np.array([2, 0, 1])
_COF_II, _COF_JJ, _COF_IJ, _COF_JI = ((3 * a[:, None] + b).ravel()
                                      for a, b in ((_I, _I), (_J, _J), (_I, _J), (_J, _I)))


class _StiffnessWork:
    """Buffers of :func:`_element_stiffness_batch` and :func:`_checked_geometry`
    for M tetrahedra, reusable call after call.

    B starts at zero and each call writes only its 36 non-zeros, so the
    zeros carry over from call to call.
    """

    def __init__(self, m: int):
        self.edges, self.cof, self.p, self.q = np.empty((4, m, 3, 3))
        self.det, self.vols = np.empty((2, m))
        self.g = np.empty((m, 4, 3))
        self.b = np.zeros((m, 6, 12))
        self.db = np.empty((m, 6, 12))
        self.ke = np.empty((m, 12, 12))


def _checked_geometry(tet_vertices: np.ndarray, work: _StiffnessWork | None = None):
    """Cofactor rows, determinants and signed volumes of tetrahedra (M, 4, 3).

    The arrays returned are work's, fresh ones when work is None. Raises
    DegenerateElementError naming the first non-positive volume.
    """
    work = _StiffnessWork(tet_vertices.shape[0]) if work is None else work
    # rows are edge vectors e1, e2, e3
    edges = np.subtract(tet_vertices[:, 1:, :], tet_vertices[:, :1, :], out=work.edges)
    # cofactors e2 x e3, e3 x e1, e1 x e2: over det(E) they are the
    # shape-function gradients of nodes 1..3 (the rows of inv(E)^T). C order,
    # as np.cross returns them, because einsum's summation order follows it.
    # mode="clip" lets np.take write straight into out; the indices are in range.
    flat, cof, p, q = (a.reshape(-1, 9) for a in (edges, work.cof, work.p, work.q))
    np.multiply(np.take(flat, _COF_II, axis=1, out=cof, mode="clip"),
                np.take(flat, _COF_JJ, axis=1, out=p, mode="clip"), out=cof)
    np.multiply(np.take(flat, _COF_IJ, axis=1, out=p, mode="clip"),
                np.take(flat, _COF_JI, axis=1, out=q, mode="clip"), out=p)
    np.subtract(cof, p, out=cof)
    det = np.einsum("mi,mi->m", edges[:, 0], work.cof[:, 0], out=work.det)
    vols = np.divide(det, 6.0, out=work.vols)
    if np.fmin.reduce(vols, initial=np.inf) <= 0.0:  # fmin skips NaN, as vols <= 0 does
        i = int(np.argmax(vols <= 0.0))
        raise DegenerateElementError(
            f"tetrahedron {i} has non-positive volume ({vols[i]:.3e})", tet_index=i
        )
    return work.cof, det, vols


def _element_stiffness_batch(tet_vertices: np.ndarray, d: np.ndarray,
                             work: _StiffnessWork | None = None) -> np.ndarray:
    """Stiffness volume * B^T D B of each tetrahedron in a batch (M, 4, 3).

    B (M, 6, 12) is the strain-displacement matrix, columns grouped per node
    as (ux, uy, uz). The (M, 12, 12) result is work's ke, valid until work's
    next use; work None computes it in a fresh workspace.
    """
    work = _StiffnessWork(tet_vertices.shape[0]) if work is None else work
    cof, det, vols = _checked_geometry(tet_vertices, work)
    g = work.g
    np.divide(cof, det[:, None, None], out=g[:, 1:, :])
    # the gradients sum to zero
    np.negative(np.sum(g[:, 1:, :], axis=1, out=g[:, 0, :]), out=g[:, 0, :])

    b = work.b.reshape(-1, 6, 4, 3)  # (tet, strain row, node, displacement component)
    for row, comp, axis in _B_PATTERN:
        b[:, row, :, comp] = g[:, :, axis]
    ke = np.matmul(np.transpose(work.b, (0, 2, 1)), np.matmul(d, work.b, out=work.db),
                   out=work.ke)
    return np.multiply(ke, vols[:, None, None], out=ke)


def element_stiffness(tet_vertices: np.ndarray, d: np.ndarray) -> np.ndarray:
    """12x12 stiffness of one tetrahedron: volume * B^T D B.

    Raises DegenerateElementError for zero or negative volume.
    """
    tet_vertices = np.asarray(tet_vertices, dtype=np.float64).reshape(1, 4, 3)
    ke = _element_stiffness_batch(tet_vertices, np.asarray(d, dtype=np.float64))
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


def _element_dofs(mesh: TetMesh) -> np.ndarray:
    """(M, 12) reduced DOF of each element node and axis, -1 at fixed vertices."""
    slots = mesh.free_index_of()[mesh.tets]
    dofs = 3 * slots[:, :, None] + np.arange(3)
    return np.where(slots[:, :, None] >= 0, dofs, -1).reshape(-1, 12)


def _block_pairs(index: np.ndarray):
    """Flat (row, column) index of every entry of the (M, k, k) per-element blocks.

    index is (M, k): the index of each element's k block rows; the entries
    come in the row-major order of the blocks.
    """
    m, k = index.shape
    return (np.broadcast_to(index[:, :, None], (m, k, k)).reshape(-1),
            np.broadcast_to(index[:, None, :], (m, k, k)).reshape(-1))


def assemble(mesh: TetMesh, current_positions: np.ndarray, d: np.ndarray) -> StiffnessSystem:
    """Global stiffness at the given vertex positions, fixed DOFs eliminated.

    Dense and rebuilt on every call: the reference that :func:`deform`'s
    banded plan is tested against. Raises DegenerateElementError naming the
    first inverted tetrahedron.
    """
    positions = np.asarray(current_positions, dtype=np.float64)
    if positions.shape != mesh.vertices.shape:
        raise FemError(
            f"positions shape {positions.shape} does not match mesh ({mesh.vertices.shape})"
        )
    n_dofs = 3 * mesh.n_free
    rows, cols = _block_pairs(_element_dofs(mesh))
    valid = (rows >= 0) & (cols >= 0)
    ke = _element_stiffness_batch(positions[mesh.tets], np.asarray(d, dtype=np.float64))
    k = np.bincount(rows[valid] * n_dofs + cols[valid], weights=ke.reshape(-1)[valid],
                    minlength=n_dofs**2)
    return StiffnessSystem(K=k.reshape(n_dofs, n_dofs), free_ids=mesh.free_ids)


def solve_forced_displacement(system: StiffnessSystem, contact_dofs, u_c):
    """Solve the reduced system with prescribed contact displacements.

    With DOFs partitioned into prescribed (c) and remaining free (n) and no
    external force on the n-partition, returns (f_c, u_n):

        u_n = -K_nn^-1 K_nc u_c
        f_c =  K_cc u_c + K_cn u_n

    u_n is ordered by ascending DOF index of the n-partition. Dense Cholesky
    of K_nn: the reference for :func:`deform`'s banded solve.
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
    n_idx = np.flatnonzero(mask)
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


def _reverse_cuthill_mckee(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Reverse Cuthill-McKee order of the n-vertex graph with edges a[i] - b[i].

    Both directions of every edge are listed; repeats are allowed. A
    breadth-first search starts from a lowest-degree unvisited vertex of each
    component and visits neighbours by ascending degree; the visit order is
    returned reversed. This is the algorithm of
    scipy.sparse.csgraph.reverse_cuthill_mckee, written here because
    importing scipy.sparse adds about 5 MB to every process that loads fem.
    """
    key = np.unique(a * n + b)
    a, b = key // n, key % n
    degree = np.bincount(a, minlength=n)
    first = np.concatenate([[0], np.cumsum(degree)])
    neighbours = b[np.lexsort((b, degree[b], a))]  # grouped by a, ascending degree
    order = np.empty(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    end = 0
    for root in np.argsort(degree, kind="stable"):
        if seen[root]:
            continue
        seen[root] = True
        order[end] = root
        head, end = end, end + 1
        while head < end:
            v = order[head]
            head += 1
            new = neighbours[first[v]:first[v + 1]]
            new = new[~seen[new]]
            seen[new] = True
            order[end:end + new.size] = new
            end += new.size
    return order[::-1]


class _SolverPlan:
    """Banded forced-displacement solver for one contact region of one mesh.

    Everything here depends on topology alone, so one plan serves every
    step of every sample of the region: the contact (c) / remaining free (n)
    DOF partition, a reverse Cuthill-McKee ordering of the n-partition (per
    vertex, so that a vertex's three DOFs stay adjacent), its half-bandwidth
    ``bw``, and one flat scatter of the element blocks into three matrices
    laid end to end: K_nn's lower band in LAPACK storage ``(bw + 1, n)``,
    column-major so that LAPACK factors it in place, a dense ``(n, c)`` K_nc
    and a dense ``(c, c)`` K_cc. The plan keeps the mesh's arrays, never the
    mesh, and is read-only once built: :func:`_plan` keeps one on the mesh,
    and threads may share it.
    """

    def __init__(self, mesh: TetMesh, region: str):
        self.vertices, self.tets, self.free_ids = mesh.vertices, mesh.tets, mesh.free_ids
        self.contact_ids = mesh.contact_regions[region]
        self.contact_slots = mesh.free_index_of()[self.contact_ids]  # their rows in a free field
        n_dofs = 3 * mesh.n_free
        contact_dofs = (3 * self.contact_slots[:, None] + np.arange(3)).reshape(-1)
        in_n = np.ones(n_dofs, dtype=bool)
        in_n[contact_dofs] = False
        self.n_idx = np.flatnonzero(in_n)
        self.n, self.c = self.n_idx.size, contact_dofs.size

        # RCM over the n-partition's vertices, adjacent when they share a tet
        n_vertices = self.n // 3
        vertex_slot = np.full(mesh.n_vertices, -1)
        vertex_slot[mesh.free_ids[in_n[::3]]] = np.arange(n_vertices)
        a, b = _block_pairs(vertex_slot[mesh.tets])
        edge = (a >= 0) & (b >= 0) & (a != b)
        rank = np.empty(n_vertices, dtype=np.int64)
        rank[_reverse_cuthill_mckee(a[edge], b[edge], n_vertices)] = np.arange(n_vertices)
        self.n_perm = (3 * rank[:, None] + np.arange(3)).reshape(-1)  # plan position of n_idx[k]

        # position of each reduced DOF in the plan's n and c orders, -1 outside
        # them; a fixed vertex's DOF is -1 and so reads the trailing -1
        n_pos = np.full(n_dofs + 1, -1)
        n_pos[self.n_idx] = self.n_perm
        c_pos = np.full(n_dofs + 1, -1)
        c_pos[contact_dofs] = np.arange(self.c)
        src, dst = self._scatter_index(_element_dofs(mesh), n_pos, c_pos)
        # Copied once the temporaries that made them are freed, so that the
        # copies fill the heap below them and the heap can shrink back; kept
        # above the freed temporaries, they held about 15 MB resident at 1425
        # reduced DOFs.
        self._src, self._dst = src.copy(), dst.copy()

    def _scatter_index(self, dofs: np.ndarray, n_pos: np.ndarray, c_pos: np.ndarray):
        """Sets bw and the slot ends; returns (src, dst), the element block
        entries that are summed, as flat indices of ke, and their flat slots
        in [band | K_nc | K_cc]."""
        ni, nj = _block_pairs(n_pos[dofs])
        ci, cj = _block_pairs(c_pos[dofs])
        lower = (nj >= 0) & (ni >= nj)
        self.bw = int((ni - nj)[lower].max(initial=0))
        self._ends = np.cumsum([(self.bw + 1) * self.n, self.n * self.c, self.c * self.c])
        slot = np.full(ni.size, -1)  # -1: an entry no matrix needs
        slot[lower] = (nj * (self.bw + 1) + ni - nj)[lower]
        nc = (ni >= 0) & (cj >= 0)
        slot[nc] = self._ends[0] + (ni * self.c + cj)[nc]
        cc = (ci >= 0) & (cj >= 0)
        slot[cc] = self._ends[1] + (ci * self.c + cj)[cc]
        src = np.flatnonzero(slot >= 0)
        return src, slot[src]

    def _solve(self, ke: np.ndarray, gathered: np.ndarray, u_c: np.ndarray, reaction: bool):
        """One step's u_n, in plan order, and the contact reaction when asked, else None.

        K_nn's band, K_nc and K_cc are summed from the element blocks ke into
        one array, which is freed on return, before the next step sums its
        own; gathered is scratch for the entries summed.
        """
        k = np.bincount(self._dst, weights=np.take(ke.reshape(-1), self._src, out=gathered,
                                                   mode="clip"),
                        minlength=self._ends[-1])
        band, k_nc, k_cc = np.split(k, self._ends[:-1])
        k_nc = k_nc.reshape(self.n, self.c)
        u_n = self._solve_nn(band.reshape(self.n, self.bw + 1).T, -(k_nc @ u_c))
        return u_n, (k_cc.reshape(self.c, self.c) @ u_c + k_nc.T @ u_n) if reaction else None

    def _solve_nn(self, band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """K_nn^-1 rhs, both in plan order; factors the band of K_nn in place."""
        if self.n == 0:
            return rhs
        k_diag = band[0].copy()
        try:
            chol = scipy.linalg.cholesky_banded(band, overwrite_ab=True, lower=True,
                                                check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystemError(f"reduced stiffness is not positive definite: {exc}") from exc
        # A semi-definite K_nn can factor into tiny positive pivots instead of
        # failing; a pivot this small against its diagonal is rounding noise.
        ok = chol[0] ** 2 > self.n * np.finfo(np.float64).eps * k_diag  # NaN fails too
        if not ok.all():
            i = int(np.argmin(ok))
            raise SingularSystemError(
                f"reduced stiffness is not positive definite: pivot {i} is "
                f"{chol[0, i] ** 2:.3e} against diagonal {k_diag[i]:.3e}"
            )
        return scipy.linalg.cho_solve_banded((chol, True), rhs, overwrite_b=True,
                                             check_finite=False)

    def deform(self, d: np.ndarray, target_disp, n_steps: int) -> DeformResult:
        """:func:`deform` of this plan's region."""
        if n_steps < 1:
            raise FemError(f"n_steps must be >= 1, got {n_steps}")
        target = np.asarray(target_disp, dtype=np.float64).reshape(3)
        if not np.isfinite(target).all():
            raise FemError("target_disp contains non-finite values")

        contact_ids, free_ids = self.contact_ids, self.free_ids
        d = np.asarray(d, dtype=np.float64)
        positions = self.vertices.copy()
        start = positions[contact_ids].copy()
        update = np.zeros(3 * free_ids.size)  # contact rows stay 0: those positions are reset below
        # The call's own workspace, reused by every step. mode="clip" lets
        # np.take write straight into its out; every index is in range.
        work = _StiffnessWork(self.tets.shape[0])
        tet_vertices = np.empty(self.tets.shape + (3,))
        gathered = np.empty(self._src.size)

        try:
            with _blas.one_thread("scipy"):
                for step in range(1, n_steps + 1):
                    np.take(positions, self.tets, axis=0, out=tet_vertices, mode="clip")
                    ke = _element_stiffness_batch(tet_vertices, d, work)
                    desired = start + target * (step / n_steps)
                    u_c = (desired - positions[contact_ids]).reshape(-1)
                    u_n, f_c = self._solve(ke, gathered, u_c, reaction=step == n_steps)
                    update[self.n_idx] = u_n[self.n_perm]
                    positions[free_ids] += update.reshape(-1, 3)
                    positions[contact_ids] = desired  # keep the prescribed path exact
                # each step checks the elements it starts from; this checks where the last ended
                _checked_geometry(np.take(positions, self.tets, axis=0, out=tet_vertices,
                                          mode="clip"), work)
        except DegenerateElementError as exc:
            raise DegenerateElementError(
                f"step {step}/{n_steps}: {exc}", tet_index=exc.tet_index, step=step
            ) from exc

        return DeformResult(
            displacements=positions[free_ids] - self.vertices[free_ids],
            contact_forces=f_c.reshape(-1, 3),
            contact_ids=contact_ids,
            free_ids=free_ids,
            n_steps=n_steps,
        )


def _plan(mesh: TetMesh, region: str) -> _SolverPlan:
    """The solver plan of (mesh, region): built on first use, then kept with the mesh."""
    return mesh._cached(("solver plan", region), lambda: _SolverPlan(mesh, region))


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

    The solve uses the banded plan of (mesh, region), built on first use and
    kept with the mesh: an RCM-ordered band Cholesky of K_nn, scattered from
    the element blocks without forming the dense K. It agrees with
    :func:`assemble` + :func:`solve_forced_displacement` to rounding. Raises
    SingularSystemError when K_nn is not numerically positive definite, and
    DegenerateElementError naming the step at which an element inverted.
    """
    if region not in mesh.contact_regions:
        raise FemError(f"unknown contact region {region!r}; have {list(mesh.contact_regions)}")
    return _plan(mesh, region).deform(d, target_disp, n_steps)
