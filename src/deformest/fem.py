"""Linear-tetrahedron elastic FEM with forced-displacement boundary conditions.

Large deformations are computed incrementally: the prescribed displacement is
applied in equal micro-steps and the stiffness matrix is reassembled from the
updated geometry after every step, while the constitutive matrix stays fixed.
Fixed vertices are removed from the system by row/column elimination.

Two paths compute the same solve. :func:`assemble` and
:func:`solve_forced_displacement` build the dense reduced ``K`` from element
blocks ``V B^T D B`` and factor its non-contact block with a dense Cholesky;
they are the public oracle the tests compare against. :func:`deform` instead
uses one solver plan per (mesh, region): a reverse Cuthill-McKee ordering of
the non-contact vertices, each vertex's three DOFs adjacent, searched from
several lowest-degree roots for the narrowest band (Cuthill & McKee, 1969;
George & Liu, 1981, ch. 4), and one sparse 0/1 matrix that sums each
element's 78 lower-triangle stiffness entries straight into LAPACK
lower-band storage of ``K_nn``, into ``K_nc`` and into the lower triangle of
``K_cc``, of which ``K_nc`` keeps only the rows that share a tetrahedron
with the contact set. The plan is built on
the region's first solve and kept with the mesh object for as long as that
lives; it holds no reference to the mesh and stays out of a pickled mesh.
Each step forms the entries in closed form for isotropic material, with the
element index last so that every operation runs over contiguous rows
(Cuvelier, Japhet & Scarella, 2016), sums them with one sparse product, and
factors the band, O(n bw^2) for half-bandwidth bw; it never forms B or an
n^2 matrix. Every step is one rate solve for a rigid translation of the
contact set by exactly t = target / n_steps; at the rest configuration it is
linear in t, so the plan solves the rest state once per material for t = I
and step 1 scales it. Each call runs its other steps in a workspace of its
own, allocated once and overwritten step after step; a one-step call
allocates only the rows of its final volume check.

Calls on a shared mesh may run in threads, and they overlap: the sparse
sum and the band factor and solve release the GIL, and so does numpy in
the element arithmetic once its rows are longer than 500 tetrahedra. The
factor and solve call LAPACK's dpbtrf and dpbtrs of scipy's OpenBLAS
through ctypes, which releases the GIL for the call, where scipy's own
wrappers hold it. They run with that OpenBLAS on one thread: at these
half-bandwidths a threaded band Cholesky is slower than a serial one, and
concurrent calls that each thread it oversubscribe the cores. numpy's
OpenBLAS, which runs the contact reaction's small product, keeps the
caller's count;
sampling.build_dataset pins it to one thread while its samples run.

Voigt convention throughout: strain components ordered (xx, yy, zz, xy, yz, zx)
with engineering shear strains, matching the constitutive matrix from
:func:`elasticity_matrix`.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg import cython_lapack

from . import _blas
from .mesh import TetMesh, _count, _finite_number

__all__ = [
    "FemError",
    "DegenerateElementError",
    "SingularSystemError",
    "MaterialParams",
    "StiffnessSystem",
    "DeformResult",
    "elasticity_matrix",
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
    """Isotropic linear-elastic material: Young's modulus (Pa) and Poisson's ratio.

    Both are finite numbers, not bools; ValueError otherwise.
    """

    young_modulus: float = 1.0e6
    poisson_ratio: float = 0.40

    def __post_init__(self):
        if not (_finite_number(self.young_modulus) and self.young_modulus > 0):
            raise ValueError(f"young_modulus must be positive and finite, got {self.young_modulus!r}")
        if not (_finite_number(self.poisson_ratio) and 0.0 <= self.poisson_ratio < 0.5):
            raise ValueError(
                f"poisson_ratio must lie in [0, 0.5) for a non-singular material, "
                f"got {self.poisson_ratio}"
            )


def elasticity_matrix(mat: MaterialParams) -> np.ndarray:
    """6x6 isotropic constitutive matrix in Voigt notation (engineering shear)."""
    e, nu = mat.young_modulus, mat.poisson_ratio
    c = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
    d = np.zeros((6, 6))
    d[:3, :3] = c * nu
    np.fill_diagonal(d[:3, :3], c * (1.0 - nu))
    d[3, 3] = d[4, 4] = d[5, 5] = c * (1.0 - 2.0 * nu) / 2.0
    return d


# Nonzeros of B for one node: (strain row, displacement component, gradient axis).
_B_PATTERN = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 0, 1), (3, 1, 0),
              (4, 1, 2), (4, 2, 1), (5, 0, 2), (5, 2, 0)]


def _check_volumes(vols: np.ndarray) -> None:
    """Raise DegenerateElementError naming the first non-positive volume."""
    if np.fmin.reduce(vols, initial=np.inf) <= 0.0:  # fmin skips NaN, as vols <= 0 does
        i = int(np.argmax(vols <= 0.0))
        raise DegenerateElementError(
            f"tetrahedron {i} has non-positive volume ({vols[i]:.3e})", tet_index=i
        )


def _checked_geometry(tet_vertices: np.ndarray):
    """Cofactor rows, determinants and signed volumes of tetrahedra (M, 4, 3).

    Raises DegenerateElementError naming the first non-positive volume.
    """
    # rows are edge vectors e1, e2, e3
    edges = tet_vertices[:, 1:, :] - tet_vertices[:, :1, :]
    # cofactors e2 x e3, e3 x e1, e1 x e2: over det(E) they are the
    # shape-function gradients of nodes 1..3 (the rows of inv(E)^T)
    cof = np.cross(edges[:, [1, 2, 0]], edges[:, [2, 0, 1]])
    det = np.einsum("mi,mi->m", edges[:, 0], cof[:, 0])
    vols = det / 6.0
    _check_volumes(vols)
    return cof, det, vols


def _element_stiffness_batch(tet_vertices: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Stiffness volume * B^T D B of each tetrahedron in a batch (M, 4, 3).

    B (M, 6, 12) is the strain-displacement matrix, columns grouped per node
    as (ux, uy, uz); the result is (M, 12, 12).
    """
    cof, det, vols = _checked_geometry(tet_vertices)
    g = np.empty(cof.shape[:1] + (4, 3))
    g[:, 1:, :] = cof / det[:, None, None]
    g[:, 0, :] = -np.sum(g[:, 1:, :], axis=1)  # the gradients sum to zero

    b = np.zeros((g.shape[0], 6, 4, 3))  # (tet, strain row, node, displacement component)
    for row, comp, axis in _B_PATTERN:
        b[:, row, :, comp] = g[:, :, axis]
    b = b.reshape(-1, 6, 12)
    return np.transpose(b, (0, 2, 1)) @ (d @ b) * vols[:, None, None]


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


# roots tried by _reverse_cuthill_mckee's first search: each try is one
# breadth-first search, and a mesh may have many lowest-degree vertices
_RCM_ROOTS = 8


def _reverse_cuthill_mckee(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Reverse Cuthill-McKee order of the n-node graph with edges a[i] - b[i].

    Both directions of every edge are listed; repeats are allowed. A
    breadth-first search starts from a lowest-degree unvisited node of each
    component, the one of lowest index, and visits neighbours by ascending
    degree, ties by index; the visit order is returned reversed. The first
    search is run from each of the first _RCM_ROOTS lowest-degree nodes in
    turn, by index, and the order of the narrowest bandwidth is kept, the
    first of equals, so it is never wider than the order from the lowest
    index alone and is that order on a tie.

    This is the algorithm of scipy.sparse.csgraph.reverse_cuthill_mckee but
    for the choice among lowest-degree roots, which scipy leaves to an
    unstable sort. On the vertex graph of the RPP at 25.6 / 12.8 / 6.4 mm
    spacing the bandwidth is 10 / 26 / 82, where the lowest-index root
    alone gives 13 / 34 / 106.
    """
    if n == 0:
        return np.empty(0, dtype=np.int64)
    key = np.sort(a * n + b)
    key = key[np.diff(key, prepend=-1) != 0]  # np.unique's result; its hash table is slower
    a, b = key // n, key % n
    degree = np.bincount(a, minlength=n)
    first = np.concatenate([[0], np.cumsum(degree)])
    by_degree = np.argsort(degree, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_degree] = np.arange(n)
    neighbours = by_degree[np.sort(a * n + rank[b]) % n]  # by a, then degree and index

    def visit(start_root):
        order = np.empty(n, dtype=np.int64)
        seen = np.zeros(n, dtype=bool)
        end = 0
        for root in itertools.chain([start_root], by_degree):
            if end == n:
                break
            if seen[root]:
                continue
            seen[root] = True
            order[end] = root
            start, end = end, end + 1
            while start < end:
                # one level at a time: the unseen neighbours of the level in
                # the order that visiting its nodes one by one appends them,
                # which is where each first appears in their neighbour
                # lists, laid end to end
                level = order[start:end]
                count = degree[level]
                at = np.repeat(first[level] - np.cumsum(count) + count, count)
                near = neighbours[at + np.arange(at.size)]
                near = near[~seen[near]]
                new = near[np.sort(np.unique(near, return_index=True)[1])]
                seen[new] = True
                order[end:end + new.size] = new
                start, end = end, end + new.size
        return order[::-1]

    def width(order):
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        return np.abs(position[a] - position[b]).max(initial=0)

    roots = by_degree[:min(_RCM_ROOTS, np.count_nonzero(degree == degree.min()))]
    return min((visit(root) for root in roots), key=width)


def _lame(d: np.ndarray) -> tuple[float, float]:
    """Lamé's (λ, μ) = (d[0, 1], d[3, 3]) of a constitutive matrix.

    Raises FemError unless d is a finite 6x6 matrix with the isotropic
    pattern of :func:`elasticity_matrix`: its zeros, equal off-diagonal normal
    entries, equal shear diagonal, and normal diagonal λ + 2μ within 1e-12
    relative.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (6, 6) or not np.isfinite(d).all():
        raise FemError(f"d must be a finite 6x6 constitutive matrix, got shape {d.shape}")
    lam, mu = float(d[0, 1]), float(d[3, 3])
    want = np.diag([lam + 2.0 * mu] * 3 + [mu] * 3)
    want[:3, :3] += lam * (1.0 - np.eye(3))
    exact = ~np.diag([True] * 3 + [False] * 3)
    if not (np.array_equal(d[exact], want[exact])
            and np.allclose(d.diagonal()[:3], lam + 2.0 * mu, rtol=1e-12, atol=0.0)):
        raise FemError("d is not an isotropic constitutive matrix laid out as "
                       "elasticity_matrix builds it")
    return lam, mu


def _lapack(name: str, n_args: int):
    """LAPACK routine ``name`` of scipy's OpenBLAS, from the function pointer
    that scipy.linalg.cython_lapack exports. Every argument is a pointer, as
    in Fortran; ctypes releases the GIL for the call."""
    capsule = cython_lapack.__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(
        pointer(capsule, capsule_name(capsule)))


_DPBTRF, _DPBTRS = _lapack("dpbtrf", 6), _lapack("dpbtrs", 9)


def _column_major(a: np.ndarray) -> ctypes.c_void_p:
    """A pointer to a, which LAPACK reads and overwrites as a column-major
    float64 array."""
    if a.dtype != np.float64 or not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("LAPACK needs a writeable column-major float64 array")
    return ctypes.c_void_p(a.ctypes.data)


def _lapack_call(routine, name: str, *args) -> int:
    """routine(*args, info) with each int argument passed by reference;
    returns info, raising ValueError where it names an illegal argument."""
    info = ctypes.c_int()
    routine(*(ctypes.byref(ctypes.c_int(a)) if isinstance(a, int) else a for a in args),
            ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of {name}")
    return info.value


def _band_cholesky(band: np.ndarray) -> None:
    """Overwrites the lower band (bw + 1, n) of a symmetric matrix, column-major,
    with its Cholesky factor: LAPACK dpbtrf, as scipy.linalg.cholesky_banded
    runs it, but without holding the GIL. Raises SingularSystemError at the
    first leading minor that is not positive definite."""
    info = _lapack_call(_DPBTRF, "dpbtrf", b"L", band.shape[1], band.shape[0] - 1,
                        _column_major(band), band.shape[0])
    if info > 0:
        raise SingularSystemError(f"reduced stiffness is not positive definite: "
                                  f"{info}-th leading minor not positive definite")


def _band_cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """chol's matrix^-1 rhs, written over rhs (n,) or (n, k), column-major, and
    returned: LAPACK dpbtrs on the factor of :func:`_band_cholesky`, as
    scipy.linalg.cho_solve_banded runs it, but without holding the GIL."""
    n = chol.shape[1]
    if rhs.shape[0] != n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows for a factor of order {n}")
    _lapack_call(_DPBTRS, "dpbtrs", b"L", n, chol.shape[0] - 1,
                 1 if rhs.ndim == 1 else rhs.shape[1], _column_major(chol), chol.shape[0],
                 _column_major(rhs), n)
    return rhs


def _summing_matrix(dst: np.ndarray, n_slots: int):
    """(slots, S) that sum weights w into n_slots slots as
    np.bincount(dst, weights=w, minlength=n_slots) does, bit for bit and
    negative zeros included: the result is zero but at the slots, ascending,
    where it is S @ w. Entries with dst >= n_slots are dropped.

    S is the 0/1 matrix of one row per slot that dst names. Each row lists
    its entries in ascending order, and the sparse product sums a row's
    products from 0.0 in that order, as bincount does. Unlike bincount, the
    product releases the GIL, and it skips the empty slots.
    """
    order = np.argsort(dst, kind="stable")
    order = order[dst[order] < n_slots]
    slots, counts = np.unique(dst[order], return_counts=True)
    index = np.int32 if dst.size <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(slots.size + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    return slots, scipy.sparse.csr_array((np.ones(order.size), order.astype(index), indptr),
                                         shape=(slots.size, dst.size))


# The plan sums each element's 78 lower-triangle stiffness entries K[p, q],
# p = 3a + i >= q = 3b + j for nodes a, b and axes i, j. With Lamé's λ, μ,
# volume V and shape-function gradients g_a of an isotropic element,
#
#     K[p, q] = V (λ g_ai g_bj + μ g_aj g_bi) + [i = j] μ V (g_a · g_b),
#
# the closed form of V B^T D B. Rows 0-29 of a (78, M) array hold the
# entries with i = j, as (node pair a >= b, i); there K is
# (λ + μ) V g_ai g_bi plus μ V times the sum of the pair's three products
# g_ai g_bi. Rows 30-77 hold the entries with i != j, (_P[r], _Q[r]), whose
# products read rows 3a + i, 3b + j, 3a + j and 3b + i of the (12, M)
# gradients. _ROW_P and _ROW_Q give (p, q) of all 78 rows.
_PAIR_A, _PAIR_B = np.tril_indices(4)
_P, _Q = np.tril_indices(12)
_OFF_AXIS = _P % 3 != _Q % 3
_P, _Q = _P[_OFF_AXIS], _Q[_OFF_AXIS]
_AJ, _BI = _P - _P % 3 + _Q % 3, _Q - _Q % 3 + _P % 3
_ROW_P, _ROW_Q = (np.concatenate([(3 * n[:, None] + np.arange(3)).ravel(), r])
                  for n, r in ((_PAIR_A, _P), (_PAIR_B, _Q)))


class _StepWork:
    """The arrays of one deform call's steps over M tetrahedra, overwritten
    step after step. Without ``stiffness`` it holds only those that
    :meth:`check` uses.

    The element index is last (Cuvelier, Japhet & Scarella, 2016): each
    array is a stack of length-M rows, and each operation below runs over
    whole contiguous rows. np.take writes straight into its out with
    mode="clip"; every index is in range.
    """

    # (name, shape per element); x: (node, axis); e: (edge r % 3, axis k % 3);
    # h: det * g, the cofactor rows and node 0's
    _SHAPES = (("x", (4, 3)), ("e", (5, 5)), ("h", (4, 3)), ("det", ()), ("vol", ()),
               ("g", (4, 3)), ("lam_h", (12,)), ("mu_h", (12,)), ("ke", (78,)),
               ("tmp", (48,)), ("tmp2", (48,)), ("pair_sum", (10,)))
    _ROWS = list(itertools.accumulate((math.prod(shape) for _, shape in _SHAPES), initial=0))
    _CHECKED = 6  # x, e, h, det, vol and g: the arrays check uses

    def __init__(self, m: int, stiffness: bool = True):
        # One block: glibc raises its mmap and trim thresholds to the largest
        # block freed, so a call's block comes back from the heap on the next
        # call. In separate arrays, the workspace of a 1425-DOF call faulted
        # about 1800 pages back in on every call.
        shapes = self._SHAPES if stiffness else self._SHAPES[:self._CHECKED]
        block = np.empty((self._ROWS[len(shapes)], m))
        for (name, shape), start, stop in zip(shapes, self._ROWS, self._ROWS[1:]):
            setattr(self, name, block[start:stop].reshape(shape + (m,)))

    def check(self, flat_positions: np.ndarray, corners: np.ndarray) -> None:
        """Gathers the tetrahedra, forms their cofactors, determinants and
        volumes, and raises DegenerateElementError at the first non-positive
        volume."""
        x, e, cof = self.x, self.e, self.h[1:]
        np.take(flat_positions, corners, out=x, mode="clip")
        np.subtract(x[1:], x[0], out=e[:3, :3])  # edge r is x_{r+1} - x_0
        e[3:, :3] = e[:2, :3]
        e[:, 3:] = e[:, :2]
        # cofactor row r is e_{r+1} x e_{r+2}, np.cross's products; over det
        # they are the gradients of nodes 1..3. g[1:] is scratch here.
        np.multiply(e[1:4, 1:4], e[2:5, 2:5], out=cof)
        np.subtract(cof, np.multiply(e[1:4, 2:5], e[2:5, 1:4], out=self.g[1:]), out=cof)
        det = np.multiply(e[0, 0], cof[0, 0], out=self.det)
        for k in (1, 2):
            det += np.multiply(e[0, k], cof[0, k], out=self.vol)
        _check_volumes(np.divide(det, 6.0, out=self.vol))

    def stiffness(self, lam: float, mu: float) -> np.ndarray:
        """The (78, M) lower-triangle stiffness entries of the tetrahedra
        that :meth:`check` passed, valid until the next call."""
        h, g = self.h, self.g
        np.add(h[1], h[2], out=h[0])
        np.add(h[0], h[3], out=h[0])
        np.negative(h[0], out=h[0])  # the gradients sum to zero
        np.divide(h, self.det, out=g)

        # V g = h / 6, so a row with i = j is (λ + μ)/6 h_ai g_bi plus μ/6 times
        # its node pair's sum of h_ai g_bi over i
        same = self.ke[:30].reshape(10, 3, -1)
        np.multiply(np.take(h, _PAIR_A, axis=0, out=same, mode="clip"),
                    np.take(g, _PAIR_B, axis=0, out=self.tmp[:30].reshape(10, 3, -1),
                            mode="clip"), out=same)
        pair_sum = np.add(same[:, 0], same[:, 1], out=self.pair_sum)
        np.add(pair_sum, same[:, 2], out=pair_sum)
        np.multiply(same, (lam + mu) / 6.0, out=same)
        np.multiply(pair_sum, mu / 6.0, out=pair_sum)
        np.add(same, pair_sum[:, None], out=same)

        # rows with i != j
        h, g, lam_h, mu_h = h.reshape(12, -1), g.reshape(12, -1), self.lam_h, self.mu_h
        np.multiply(h, lam / 6.0, out=lam_h)
        np.multiply(h, mu / 6.0, out=mu_h)
        off, tmp, tmp2 = self.ke[30:], self.tmp, self.tmp2
        np.multiply(np.take(lam_h, _P, axis=0, out=off, mode="clip"),
                    np.take(g, _Q, axis=0, out=tmp, mode="clip"), out=off)
        np.multiply(np.take(mu_h, _AJ, axis=0, out=tmp, mode="clip"),
                    np.take(g, _BI, axis=0, out=tmp2, mode="clip"), out=tmp)
        np.add(off, tmp, out=off)
        return self.ke


def _translated(k: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(K E) t for contact columns K (r, c) and t (3,) or (3, k), E mapping a
    translation to the contact DOFs; unlike a BLAS product, numpy's sums and
    einsum do not depend on numpy's thread count, and t = I is exact."""
    return np.einsum("ri,i...->r...", k.reshape(k.shape[0], k.shape[1] // 3, 3).sum(axis=1), t)


class _SolverPlan:
    """Banded forced-displacement solver for one contact region of one mesh.

    Everything here but the rest solve depends on topology alone, so one
    plan serves every step of every sample of the region: the contact (c) /
    remaining free (n) DOF partition, a reverse Cuthill-McKee ordering of
    the n-partition's vertices (see :func:`_reverse_cuthill_mckee`), which
    gives each vertex three adjacent DOFs, its half-bandwidth ``bw``,
    counted over every entry of every element, zero at rest or not, so that
    no deformation leaves the band, the flat position of each
    tetrahedron corner coordinate and of each plan-order n DOF, and one
    sparse 0/1 matrix that sums the elements' lower-triangle stiffness
    entries into three matrices laid end to end: K_nn's lower band in
    LAPACK storage ``(bw + 1, n)``,
    column-major so that LAPACK factors it in place, a dense K_nc of the
    ``coupled`` rows, those that share a tetrahedron with a contact DOF,
    and the lower triangle of a dense ``(c, c)`` K_cc. It also keeps the
    rest solve of the last material it was asked for (see
    :meth:`rest_response`), its one mutable part. The plan keeps the mesh's
    arrays, never the mesh: :func:`_plan` keeps one on the mesh, and threads
    may share it.
    """

    def __init__(self, mesh: TetMesh, region: str):
        self.vertices, self.free_ids = mesh.vertices, mesh.free_ids
        self.contact_ids = mesh.contact_regions[region]
        self.contact_slots = mesh.free_index_of()[self.contact_ids]  # their rows in a free field
        n_dofs = 3 * mesh.n_free
        contact_dofs = (3 * self.contact_slots[:, None] + np.arange(3)).reshape(-1)
        in_n = np.ones(n_dofs, dtype=bool)
        in_n[contact_dofs] = False
        n_idx = np.flatnonzero(in_n)
        self.n, self.c = n_idx.size, contact_dofs.size
        # flat index in the (n_vertices, 3) positions of (corner, axis, tet)
        self._corners = 3 * mesh.tets.T[:, None, :] + np.arange(3)[:, None]

        # RCM over the n-partition's vertices, adjacent when they share a tet
        n_vertices = self.n // 3
        vertex_slot = np.full(mesh.n_vertices, -1)
        vertex_slot[mesh.free_ids[in_n[::3]]] = np.arange(n_vertices)
        a, b = _block_pairs(vertex_slot[mesh.tets])
        edge = (a >= 0) & (b >= 0) & (a != b)
        rank = np.empty(n_vertices, dtype=np.int64)
        rank[_reverse_cuthill_mckee(a[edge], b[edge], n_vertices)] = np.arange(n_vertices)
        n_perm = (3 * rank[:, None] + np.arange(3)).reshape(-1)  # plan position of n_idx[k]
        self._n_flat = np.empty(self.n, dtype=np.int64)  # flat position of plan-order u_n
        self._n_flat[n_perm] = (3 * mesh.free_ids[:, None] + np.arange(3)).reshape(-1)[n_idx]

        # position of each reduced DOF in the plan's n and c orders, -1 outside
        # them; a fixed vertex's DOF is -1 and so reads the trailing -1
        n_pos = np.full(n_dofs + 1, -1)
        n_pos[n_idx] = n_perm
        c_pos = np.full(n_dofs + 1, -1)
        c_pos[contact_dofs] = np.arange(self.c)
        dst = self._scatter_index(_element_dofs(mesh).T, n_pos, c_pos)
        self._slots, self._scatter = _summing_matrix(dst, self._ends[-1])
        self._rest = None  # ((λ, μ), W, F) of the material last solved at rest
        self._rest_lock = threading.Lock()

    def _scatter_index(self, dofs: np.ndarray, n_pos: np.ndarray, c_pos: np.ndarray):
        """Sets bw, the coupled rows and the slot ends; returns the flat slot
        in [band | K_nc | K_cc] of each lower-triangle entry of the (78, M)
        element stiffness, flattened. dofs is (12, M).

        An entry K[p, q] stands for K[q, p] as well: it goes to the band at
        (max, min) of its plan positions, to K_nc in whichever orientation
        has its n position first, and to K_cc's lower triangle. K_nc keeps
        only its coupled rows, the n positions that share a tetrahedron
        with a contact DOF, ascending. The entries no matrix needs, those at
        fixed DOFs, get the slot past the end.
        """
        n_p, n_q = n_pos[dofs[_ROW_P]], n_pos[dofs[_ROW_Q]]
        c_p, c_q = c_pos[dofs[_ROW_P]], c_pos[dofs[_ROW_Q]]
        hi, lo = np.maximum(n_p, n_q), np.minimum(n_p, n_q)
        nn = lo >= 0
        self.bw = int((hi - lo)[nn].max(initial=0))
        nc_pairs = [(n, c, (n >= 0) & (c >= 0)) for n, c in ((n_p, c_q), (n_q, c_p))]
        self.coupled = np.unique(np.concatenate([n[nc] for n, _, nc in nc_pairs]))
        self._ends = np.cumsum([(self.bw + 1) * self.n, self.coupled.size * self.c,
                                self.c * self.c])
        slot = np.full(n_p.shape, self._ends[-1])
        slot[nn] = (lo * (self.bw + 1) + hi - lo)[nn]
        for n, c, nc in nc_pairs:
            slot[nc] = self._ends[0] + np.searchsorted(self.coupled, n[nc]) * self.c + c[nc]
        cc = (c_p >= 0) & (c_q >= 0)
        slot[cc] = self._ends[1] + (np.maximum(c_p, c_q) * self.c + np.minimum(c_p, c_q))[cc]
        return slot.reshape(-1)

    def _summed(self, ke: np.ndarray):
        """K_nn's band (bw + 1, n), K_nc's coupled rows and K_cc's lower
        triangle, summed from the element entries ke (78, M) into one array."""
        k = np.zeros(self._ends[-1])
        k[self._slots] = self._scatter @ ke.reshape(-1)
        band, k_nc, k_cc = np.split(k, self._ends[:-1])
        return (band.reshape(self.n, self.bw + 1).T, k_nc.reshape(-1, self.c),
                k_cc.reshape(self.c, self.c))

    def _rate(self, work: _StepWork, flat_positions: np.ndarray, lame: tuple[float, float],
              t: np.ndarray, reaction: bool):
        """u_n = -K_nn^-1 (K_nc E) t in plan order, (n,) or (n, k), for a rigid
        translation t, (3,) or (3, k), of the contact set from the flat
        positions, and the reaction (K_cc E) t + K_cn u_n when asked, else
        None. The summed K blocks are freed on return, before the next step
        sums its own."""
        work.check(flat_positions, self._corners)
        band, k_nc, low = self._summed(work.stiffness(*lame))
        u_n = np.zeros((self.n,) + t.shape[1:], order="F")
        u_n[self.coupled] = -_translated(k_nc, t)
        if self.n:
            k_diag = band[0].copy()
            _band_cholesky(band)
            # A semi-definite K_nn can factor into tiny positive pivots instead of
            # failing; a pivot this small against its diagonal is rounding noise.
            ok = band[0] ** 2 > self.n * np.finfo(np.float64).eps * k_diag  # NaN fails too
            if not ok.all():
                i = int(np.argmin(ok))
                raise SingularSystemError(
                    f"reduced stiffness is not positive definite: pivot {i} is "
                    f"{band[0, i] ** 2:.3e} against diagonal {k_diag[i]:.3e}"
                )
            _band_cho_solve(band, u_n)
        if not reaction:
            return u_n, None
        k_cc = low + low.T
        np.fill_diagonal(k_cc, low.diagonal())
        return u_n, _translated(k_cc, t) + k_nc.T @ u_n[self.coupled]

    def rest_response(self, lame: tuple[float, float]):
        """(W, F) of the material lame = (λ, μ): :meth:`_rate` at rest for
        t = I, the u_n (n, 3) and the contact reaction (c, 3) of a unit
        translation of the contact set along each axis.

        Computed on the first call for the material and kept until another
        material is solved; threads that race on it each compute it, and
        all get the first result. A failure is raised, never kept.
        """
        rest = self._rest
        if rest is not None and rest[0] == lame:
            return rest[1:]
        with _blas.one_thread("scipy"):
            w, f = self._rate(_StepWork(self._corners.shape[-1]), self.vertices.reshape(-1),
                              lame, np.eye(3), reaction=True)
        with self._rest_lock:
            if self._rest is None or self._rest[0] != lame:
                self._rest = (lame, w, f)
            return self._rest[1:]

    def deform(self, lame: tuple[float, float], target_disp, n_steps: int) -> DeformResult:
        """:func:`deform` of this plan's region, for Lamé's lame = (λ, μ)."""
        n_steps = _count(n_steps, 1, "n_steps", FemError)
        target = np.asarray(target_disp, dtype=np.float64).reshape(3)
        if not np.isfinite(target).all():
            raise FemError("target_disp contains non-finite values")

        contact_ids, free_ids = self.contact_ids, self.free_ids
        positions = self.vertices.copy()
        flat_positions = positions.reshape(-1)
        start = positions[contact_ids].copy()
        h = target * (1 / n_steps)  # every step translates the contact set by h

        step = 1
        try:
            # step 1 starts at rest, where u_n and f_c are linear in h: W h and F h
            w, f = self.rest_response(lame)
            u_n, f_c = (w * h).sum(axis=1), (f * h).sum(axis=1)
            # the call's own, reused by every step
            work = _StepWork(self._corners.shape[-1], stiffness=n_steps > 1)
            with _blas.one_thread("scipy"):
                for step in range(1, n_steps + 1):
                    if step > 1:
                        u_n, f_c = self._rate(work, flat_positions, lame, h,
                                              reaction=step == n_steps)
                    flat_positions[self._n_flat] += u_n
                    positions[contact_ids] = start + target * (step / n_steps)  # exact path
                # each step checks the elements it starts from; this checks where the last ended
                work.check(flat_positions, self._corners)
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
    vertices to the last increment h = target / n_steps alone, ordered by
    ascending contact vertex id. It is not the total force at the target:
    it shrinks about as 1 / n_steps (ROADMAP item 2, which will make it the
    sum of every step's reaction).
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

    n_steps is an integer >= 1, not a bool; an integral float counts as one.
    FemError otherwise.

    Every vertex of the region receives the same displacement (rigid
    translation of the contact set). After each increment the stiffness is
    reassembled at the updated positions and the reduced system is solved
    with the contact DOFs prescribed.

    The solve uses the banded plan of (mesh, region), built on first use and
    kept with the mesh: a band Cholesky of K_nn in the narrowest reverse
    Cuthill-McKee vertex order of several roots, scattered from
    closed-form element entries without forming the dense K. Step 1 scales
    the plan's rest solve for the material, computed on the first call with
    d and kept until a call with another d, so a warm one-step call factors
    nothing. d must be an isotropic matrix as :func:`elasticity_matrix`
    builds it, checked on every call; FemError otherwise. The result agrees
    with :func:`assemble` + :func:`solve_forced_displacement` to rounding.
    Raises SingularSystemError when K_nn is not numerically positive
    definite, and DegenerateElementError naming the step at which an element
    inverted; a rest configuration that fails raises at step 1 on every
    call.
    """
    if region not in mesh.contact_regions:
        raise FemError(f"unknown contact region {region!r}; have {list(mesh.contact_regions)}")
    return _plan(mesh, region).deform(_lame(d), target_disp, n_steps)
