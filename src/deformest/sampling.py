"""Contact-displacement sampling protocols and dataset generation.

For each contact region, target displacements are laid out on a lattice (an
axis-aligned box grid around the contact centroid, or a spheroid oriented
along the fixed-to-contact direction with an optional surface-normal filter).
Each target is pushed through the incremental FEM solver and the resulting
full displacement field is stored as one sample. A call samples in threads
of this process where they overlap, and in a pool of processes where they
cannot and the call is large enough to pay for the pool.
"""

from __future__ import annotations

import json
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import _blas
from .fem import FemError, _lame, _plan
from .mesh import ScaleConvention, TetMesh, _count, _finite_number, vertex_normals

__all__ = [
    "DatasetError",
    "DatasetFormatError",
    "MeshHashMismatchError",
    "SamplingSpec",
    "SampleFailure",
    "Dataset",
    "grid_points",
    "ellipsoid_points",
    "fixed_to_contact_direction",
    "region_surface_normal",
    "ellipsoid_spec_for_region",
    "sample_points_for_region",
    "build_dataset",
    "sampling_runners",
    "save_dataset",
    "load_dataset",
]

_MAGIC = b"DEFDS1\n"


class DatasetError(ValueError):
    """Invalid sampling specification or dataset content."""


class DatasetFormatError(DatasetError):
    """Malformed dataset file; byte_offset locates the problem."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (at byte {byte_offset})")
        self.byte_offset = byte_offset


class MeshHashMismatchError(DatasetError):
    """Dataset was generated from a different mesh than the one supplied."""


@dataclass(frozen=True)
class SamplingSpec:
    """Where to place target displacements for one contact region.

    Box mode: axis-aligned lattice of the given full extents around `center`
    (contact centroid when None). Ellipsoid mode: cubic lattice inside a
    spheroid with radius r_para along the fixed-to-contact direction and
    r_perp orthogonal to it; when normal_filter is a vector, only offsets at
    a strictly acute angle to it survive. normal_filter is None or a vector,
    never "auto": :func:`ellipsoid_spec_for_region` resolves that. All
    lengths in simulation units.
    """

    mode: str
    spacing: float
    extents: tuple | None = None
    r_para: float | None = None
    r_perp: float | None = None
    center: tuple | None = None
    normal_filter: object = None  # None or a 3-vector
    reference_length: float | None = None

    def __post_init__(self):
        if self.mode not in ("box", "ellipsoid"):
            raise DatasetError(f"mode must be 'box' or 'ellipsoid', got {self.mode!r}")
        for name in ("spacing", "r_para", "r_perp", "reference_length"):
            value = getattr(self, name)
            if not (_finite_number(value) or (value is None and name != "spacing")):
                raise DatasetError(f"{name} must be a finite number, got {value!r}")
        if not self.spacing > 0:
            raise DatasetError(f"spacing must be positive, got {self.spacing}")
        if self.mode == "box":
            if not (self.extents is not None and len(self.extents) == 3
                    and all(_finite_number(e) and e >= 0 for e in self.extents)):
                raise DatasetError(
                    f"box mode needs 3 finite non-negative extents, got {self.extents}")
        else:
            if not (self.r_para and self.r_para > 0 and self.r_perp and self.r_perp > 0):
                raise DatasetError(
                    f"ellipsoid mode needs positive radii, got r_para={self.r_para} r_perp={self.r_perp}"
                )
        if self.normal_filter is not None:
            v = self.normal_filter
            v = v.tolist() if isinstance(v, np.ndarray) else v
            # finite numbers only: np.asarray would take "1" or True for one
            if not (isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_finite_number, v))):
                raise DatasetError(
                    f"normal_filter must be None or a vector of 3 numbers, got {self.normal_filter!r}")
            v = np.asarray(v, dtype=float)
            norm = np.linalg.norm(v)
            if not norm > 0:
                raise DatasetError("normal_filter vector must be nonzero")
            object.__setattr__(self, "normal_filter", tuple(v / norm))
        if self.reference_length is not None and not self.reference_length > 0:
            raise DatasetError(f"reference_length must be positive, got {self.reference_length}")


def _axis_count(extent: float, spacing: float, axis: int) -> int:
    ratio = extent / spacing
    cells = round(ratio)
    if abs(ratio - cells) > 1e-9 * max(1.0, abs(cells)):
        raise DatasetError(
            f"extent {extent} on axis {axis} is not an integer multiple of spacing {spacing}"
        )
    return cells + 1


def grid_points(center, extents, spacing: float) -> np.ndarray:
    """Axis-aligned lattice centered at `center`, boundary included.

    extents are full edge lengths; each must be an integer multiple of
    spacing. Points are ordered lexicographically by lattice coordinate.
    """
    center = np.asarray(center, dtype=float).reshape(3)
    counts = [_axis_count(e, spacing, i) for i, e in enumerate(extents)]
    axes = [(np.arange(c) - (c - 1) / 2.0) * spacing for c in counts]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return center + np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)


def _orthonormal_frame(v_fc) -> np.ndarray:
    """Rows: unit v_fc, then two orthogonal directions chosen deterministically."""
    v = np.asarray(v_fc, dtype=float).reshape(3)
    norm = np.linalg.norm(v)
    if not norm > 0:
        raise DatasetError("fixed-to-contact direction has zero length")
    e1 = v / norm
    pivot = np.zeros(3)
    pivot[np.argmin(np.abs(e1))] = 1.0  # global axis least parallel to e1
    e2 = pivot - np.dot(pivot, e1) * e1
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(e1, e2)
    return np.vstack([e1, e2, e3])


def ellipsoid_points(spec: SamplingSpec, contact_centroid, v_fc) -> np.ndarray:
    """Cubic lattice points inside the sampling spheroid around the centroid.

    The lattice is aligned to the frame spanned by v_fc; points satisfy
    (d_para/r_para)^2 + (d_perp/r_perp)^2 <= 1 (boundary inclusive). With a
    normal filter, the offset must form a strictly acute angle with it.
    Ordered lexicographically by lattice coordinate.
    """
    if spec.mode != "ellipsoid":
        raise DatasetError(f"expected ellipsoid spec, got mode {spec.mode!r}")
    centroid = np.asarray(contact_centroid, dtype=float).reshape(3)
    frame = _orthonormal_frame(v_fc)
    h = spec.spacing
    ni = int(np.floor(spec.r_para / h * (1 + 1e-12)))
    nj = int(np.floor(spec.r_perp / h * (1 + 1e-12)))
    ii, jj, kk = np.meshgrid(
        np.arange(-ni, ni + 1), np.arange(-nj, nj + 1), np.arange(-nj, nj + 1), indexing="ij"
    )
    ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()
    d_para = ii * h
    d_perp_sq = (jj * h) ** 2 + (kk * h) ** 2
    inside = (d_para / spec.r_para) ** 2 + d_perp_sq / spec.r_perp**2 <= 1.0
    offsets = (
        ii[inside, None] * h * frame[0]
        + jj[inside, None] * h * frame[1]
        + kk[inside, None] * h * frame[2]
    )
    if spec.normal_filter is not None:
        v_nv = np.asarray(spec.normal_filter, dtype=float)
        offsets = offsets[offsets @ v_nv > 0.0]
    return centroid + offsets


def fixed_to_contact_direction(mesh: TetMesh, region: str):
    """(unit direction, distance) from the fixed-vertex centroid to the region centroid."""
    if region not in mesh.contact_regions:
        raise DatasetError(f"unknown contact region {region!r}")
    if mesh.fixed_ids.size == 0:
        raise DatasetError("mesh has no fixed vertices; fixed-to-contact direction undefined")
    v = mesh.vertices[mesh.contact_regions[region]].mean(axis=0) - mesh.vertices[
        mesh.fixed_ids
    ].mean(axis=0)
    length = float(np.linalg.norm(v))
    if not length > 0:
        raise DatasetError(f"region {region!r} centroid coincides with the fixed centroid")
    return v / length, length


def region_surface_normal(mesh: TetMesh, region: str) -> np.ndarray:
    """Unit mean of the boundary-vertex normals over a contact region.

    The mesh's normals are computed on its first region and kept with it.
    """
    tol = 1e-14
    normals = mesh._cached(("vertex normals", tol), lambda: vertex_normals(mesh, tol))
    ids = mesh.contact_regions[region]
    missing = [int(v) for v in ids if int(v) not in normals]
    if missing:
        raise DatasetError(f"region {region!r} vertices {missing} are not on the boundary surface")
    mean = np.mean([normals[int(v)] for v in ids], axis=0)
    norm = np.linalg.norm(mean)
    if not norm > 0:
        raise DatasetError(f"region {region!r} normals average to zero")
    return mean / norm


def ellipsoid_spec_for_region(
    mesh: TetMesh,
    region: str,
    r_para_ratio: float,
    r_perp_ratio: float,
    spacing_ratio: float = 0.01,
    reference_length: float | str | None = None,
    normal_filter="auto",
) -> SamplingSpec:
    """Ellipsoid spec with radii and spacing given as ratios of the reference length.

    The reference length defaults to the fixed-to-contact distance; a length
    overrides it, and "diameter" takes the largest vertex-pair distance of
    the mesh. normal_filter "auto" averages the surface normals of the
    region's vertices; a vector overrides the direction; None disables the
    filter. Any other value is :class:`SamplingSpec`'s to reject.
    """
    _, l = fixed_to_contact_direction(mesh, region)
    if reference_length == "diameter":
        # imported here: scipy.spatial adds ~9 MB and ~0.1 s to every command
        from scipy.spatial import ConvexHull
        from scipy.spatial.distance import pdist

        # the farthest vertex pair lies on the convex hull
        l = float(pdist(mesh.vertices[ConvexHull(mesh.vertices).vertices]).max())
    elif reference_length is not None:
        l = reference_length
    if isinstance(normal_filter, str) and normal_filter == "auto":
        normal_filter = tuple(region_surface_normal(mesh, region))
    return SamplingSpec(
        mode="ellipsoid",
        spacing=spacing_ratio * l,
        r_para=r_para_ratio * l,
        r_perp=r_perp_ratio * l,
        normal_filter=normal_filter,
        reference_length=l,
    )


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

@dataclass
class SampleFailure:
    region: str
    point_index: int
    reason: str


@dataclass
class Dataset:
    """Deformation samples tied to one mesh (by content hash) and one observation list.

    Sample i pushed region regions[region_id[i]] by the contact translation
    target[i] and produced the field u[i]: free-vertex displacements,
    vertex-major (x, y, z), free vertices sorted by id.
    """

    mesh_hash: str
    free_ids: np.ndarray
    observation_ids: np.ndarray
    mm_per_unit: float
    regions: list          # region names, indexed by region_id
    region_id: np.ndarray  # (m,)
    target: np.ndarray     # (m, 3)
    u: np.ndarray          # (m, 3 * n_free)
    failures: list = field(default_factory=list)
    # (processes, threads per process) build_dataset sampled in; not saved
    runners: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        self.free_ids = np.asarray(self.free_ids, dtype=np.int64)
        self.observation_ids = np.asarray(self.observation_ids, dtype=np.int64)
        self.regions = list(self.regions)
        self.region_id = np.asarray(self.region_id, dtype=np.int64)
        self.target = np.ascontiguousarray(self.target, dtype=np.float64)
        self.u = np.ascontiguousarray(self.u, dtype=np.float64)
        m = self.region_id.size
        if m < 1:
            raise DatasetError("dataset needs at least one sample")
        if self.region_id.shape != (m,) or self.target.shape != (m, 3):
            raise DatasetError(
                f"region_id {self.region_id.shape} and target {self.target.shape} "
                f"must have shapes ({m},) and ({m}, 3)"
            )
        width = 3 * self.free_ids.size
        if self.u.shape != (m, width):
            raise DatasetError(
                f"field matrix shape {self.u.shape} != (m, 3 * n_free) = ({m}, {width})"
            )
        if not ((self.region_id >= 0) & (self.region_id < len(self.regions))).all():
            raise DatasetError(f"region ids must index the {len(self.regions)} region names")
        if not np.isin(self.observation_ids, self.free_ids).all():
            raise DatasetError("observation vertices must be free vertices")
        if not (_finite_number(self.mm_per_unit) and self.mm_per_unit > 0):
            raise DatasetError(f"mm_per_unit must be positive and finite, got {self.mm_per_unit}")

    @property
    def m(self) -> int:
        return self.region_id.size

    @property
    def n_free(self) -> int:
        return self.free_ids.size

    @property
    def n_obs(self) -> int:
        return self.observation_ids.size

    def observation_flat_indices(self) -> np.ndarray:
        """Indices into a flat field selecting the observation components."""
        slots = np.searchsorted(self.free_ids, self.observation_ids)
        return (3 * slots[:, None] + np.arange(3)).reshape(-1)

    def targets(self) -> np.ndarray:
        """(m, 3*n_free) matrix of full displacement fields; the stored array, not a copy."""
        return self.u

    def inputs(self) -> np.ndarray:
        """(m, 3*n_obs) observation slices of the fields; the network input."""
        return self.u[:, self.observation_flat_indices()]

    def target_displacements(self) -> np.ndarray:
        """(m, 3) prescribed contact translations; the stored array, not a copy."""
        return self.target

    def max_contact_displacement(self) -> float:
        """Largest prescribed contact translation, simulation units."""
        return float(np.linalg.norm(self.target_displacements(), axis=1).max())

    def require_mesh(self, mesh: TetMesh):
        got = mesh.content_hash()
        if got != self.mesh_hash:
            raise MeshHashMismatchError(
                f"mesh hash mismatch: dataset was built from {self.mesh_hash[:12]}..., "
                f"got mesh {got[:12]}..."
            )


# --- generation -------------------------------------------------------------

_WORKER_CTX: dict = {}  # a pool worker's mesh, (λ, μ) and n_steps, set by _worker_init


def _worker_init(mesh, lame, n_steps):
    _WORKER_CTX.update(mesh=mesh, lame=lame, n_steps=n_steps)


def _worker_sample(task):
    """:func:`_run_sample` in a pool worker; a forked worker's mesh brings the caller's plans."""
    return _run_sample(_WORKER_CTX["mesh"], _WORKER_CTX["lame"], _WORKER_CTX["n_steps"], task)


def _run_sample(mesh, lame, n_steps, task):
    """The sample's flat field, or the SampleFailure that says why there is none.

    lame is Lamé's (λ, μ), checked once per dataset.
    """
    region, point_index, target = task
    plan = _plan(mesh, region)
    try:
        u = plan.deform(lame, target, n_steps).flat_displacements
    except FemError as exc:
        return SampleFailure(region, point_index, str(exc))
    miss = np.abs(u.reshape(-1, 3)[plan.contact_slots] - target).max()
    if miss > 1e-9:
        return SampleFailure(region, point_index, f"contact displacement echo off by {miss:.2e}")
    return u


# numpy releases the GIL only in an operation over more than 500 elements,
# and most of a load step's operations run over one row per tetrahedron. On
# smaller meshes two threads mostly wait for each other: at n_steps = 20,
# two threads sampled at 0.65x one thread's rate on 240 tetrahedra, 1.04x on
# 480, 1.30x on 960 and 1.54x on 1920.
_THREADED_MIN_TETS = 500

# About 30 % of a 1920-tetrahedron load step still holds the GIL, so threads
# beyond two may only wait for it; no more than two were measured.
_MAX_THREADS = 2

# On a mesh too small for threads to overlap, a pool of processes pays for
# its start (forking, sending fields back; about 0.1 s for two workers) once
# a call has about 250,000 tetrahedron-steps, samples x steps x tets. On 240
# tetrahedra at 100 steps, two processes sampled 12 targets at 30-36/s
# against one thread's 19-25/s, and 8 targets at 16-21/s against 18-25/s.
# A pool did not beat this process elsewhere: 726 one-step targets took two
# processes 0.10-0.17 s and one thread 0.07-0.11 s on 240 tetrahedra, and
# 0.28-0.48 s against 0.27-0.34 s on 1920; at 1920 tetrahedra and 10 steps,
# 18, 50 and 75 targets sampled at 51-69, 57-72 and 58-71/s in two threads
# against 44-57, 56-58 and 57-69/s in two processes.
_POOL_MIN_TET_STEPS = 250_000


def sampling_runners(mesh: TetMesh, n_samples: int, n_steps: int,
                     workers: int | None = None) -> tuple:
    """(processes, threads per process) that :func:`build_dataset` runs
    n_samples samples of mesh in.

    Threads overlap for samples of more than one step on meshes of more
    than 500 tetrahedra: a one-step sample only scales the plan's stored
    rest solve and factors nothing, and on a smaller mesh most of a step
    holds the GIL. workers=None chooses the processes: one per core this
    process may use for samples of more than one step on a mesh of at most
    500 tetrahedra, when the call has at least 250,000 tetrahedron-steps;
    otherwise this process alone. Never more processes than samples. A pool
    worker runs one thread; this process runs one thread per core where
    threads overlap, at most two and at most one per sample, and one where
    they do not or where scipy's OpenBLAS is not found, so that its band
    factor cannot be pinned to one thread.
    """
    small = mesh.n_tets <= _THREADED_MIN_TETS
    if workers is None:
        pays = n_samples * n_steps * mesh.n_tets >= _POOL_MIN_TET_STEPS
        workers = _blas.cores() if n_steps > 1 and small and pays else 1
    workers = max(1, min(workers, n_samples))
    if workers > 1 or n_steps == 1 or small:
        return workers, 1
    return 1, min(_MAX_THREADS, _blas.runners("scipy", n_samples))


def sample_points_for_region(mesh: TetMesh, region: str, spec: SamplingSpec) -> np.ndarray:
    """Lattice of absolute sample positions for one region."""
    centroid = mesh.vertices[mesh.contact_regions[region]].mean(axis=0)
    if spec.mode == "box":
        center = centroid if spec.center is None else np.asarray(spec.center, dtype=float)
        return grid_points(center, spec.extents, spec.spacing)
    v_fc, _ = fixed_to_contact_direction(mesh, region)
    return ellipsoid_points(spec, centroid, v_fc)


def build_dataset(
    mesh: TetMesh,
    d: np.ndarray,
    specs: Mapping[str, SamplingSpec],
    n_steps: int = 1000,
    scale: ScaleConvention = ScaleConvention(),
    workers: int | None = None,
) -> Dataset:
    """Run the FEM once per (region, sample point) and collect the fields.

    Targets are point - contact centroid, generated region by region in spec
    order, lattice points in lexicographic order. A sample fails when the FEM
    raises or its contact rows miss the target by more than 1e-9; failures
    are recorded and skipped.

    workers is the number of sampling processes: 1 samples in this process,
    on the threads :func:`sampling_runners` gives, which share the mesh's
    solver plans; N > 1 runs a pool of N processes, one thread each; None
    lets :func:`sampling_runners` choose from the call's size. Results do
    not depend on the worker or thread count, and the returned dataset's
    ``runners`` records both. Calls may run in threads of their own.
    """
    if workers is not None:
        workers = _count(workers, 1, "workers", DatasetError)
    try:
        lame = _lame(d)  # a d the FEM cannot take would fail every sample
    except FemError as exc:
        raise DatasetError(str(exc)) from exc
    unknown = [r for r in specs if r not in mesh.contact_regions]
    if unknown:
        raise DatasetError(f"specs reference unknown regions {unknown}; have {list(mesh.contact_regions)}")

    tasks = []  # (region, lattice index, target)
    for region, spec in specs.items():
        centroid = mesh.vertices[mesh.contact_regions[region]].mean(axis=0)
        for index, point in enumerate(sample_points_for_region(mesh, region, spec)):
            tasks.append((region, index, point - centroid))

    # Each region's plan and rest solve, made here: no two threads make them,
    # and forked pool workers inherit them with the mesh.
    for region in dict.fromkeys(region for region, _, _ in tasks):
        try:
            _plan(mesh, region).rest_response(lame)
        except FemError:
            pass  # then each sample of the region fails with this error
    runners = sampling_runners(mesh, len(tasks), n_steps, workers)
    processes, threads = runners
    if processes > 1:
        chunk = max(1, len(tasks) // (processes * 8))
        with ProcessPoolExecutor(
            max_workers=processes, initializer=_worker_init, initargs=(mesh, lame, n_steps)
        ) as pool:
            outcomes = list(pool.map(_worker_sample, tasks, chunksize=chunk))
    else:
        # numpy's products on one thread: the sampling threads have the cores
        with _blas.one_thread("numpy"):
            outcomes = _blas.in_threads(lambda i: _run_sample(mesh, lame, n_steps, tasks[i]),
                                        len(tasks), threads)

    region_slot: dict = {}  # region -> id, in order of the first successful sample
    region_id, targets, fields, failures = [], [], [], []
    for (region, _, target), outcome in zip(tasks, outcomes):
        if isinstance(outcome, SampleFailure):
            failures.append(outcome)
            continue
        region_id.append(region_slot.setdefault(region, len(region_slot)))
        targets.append(target)
        fields.append(outcome)

    return Dataset(
        mesh_hash=mesh.content_hash(),
        free_ids=mesh.free_ids,
        observation_ids=mesh.observation_ids,
        mm_per_unit=scale.mm_per_unit,
        regions=list(region_slot),
        region_id=np.array(region_id, dtype=np.int64),
        target=np.array(targets, dtype=np.float64).reshape(-1, 3),
        u=np.array(fields, dtype=np.float64).reshape(-1, 3 * mesh.free_ids.size),
        failures=failures,
        runners=runners,
    )


# --- file format -------------------------------------------------------------
# binary container:
#   magic "DEFDS1\n"
#   u64 little-endian header length
#   UTF-8 JSON header (sorted keys)
#   m records of little-endian float64: [region id, target(3), u_all(3*n_free)]

# The header fields load_dataset reads and their JSON types: [t] is a list of
# t's, a dict an object with exactly its keys. No bool is an int or a float.
_HEADER_FIELDS = {"format": "str", "version": "int", "record_fields": ["str"],
                  "n_free": "int", "sample_count": "int", "mesh_hash": "str",
                  "regions": ["str"], "free_ids": ["int"], "observation_ids": ["int"],
                  "n_obs": "int", "mm_per_unit": "float",
                  "failures": [{"region": "str", "point_index": "int", "reason": "str"}]}
# The fields that name this format and its record layout: a file with other
# values is another format or a later version of this one.
_HEADER_VALUES = {"format": "deformest-dataset", "version": 1,
                  "record_fields": ["region_id", "target_disp", "u_all"]}


def _is_json(value, kind) -> bool:
    """value is of the JSON type kind; an int is a float, and neither is a bool."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(_is_json(v, kind[0]) for v in value)
    if isinstance(kind, dict):
        return (isinstance(value, dict) and value.keys() == kind.keys()
                and all(_is_json(value[k], t) for k, t in kind.items()))
    types = {"int": int, "float": (int, float), "str": str}[kind]
    return isinstance(value, types) and not isinstance(value, bool)


def save_dataset(dataset: Dataset, path):
    header = {
        **_HEADER_VALUES,
        "mesh_hash": dataset.mesh_hash,
        "free_ids": dataset.free_ids.tolist(),
        "observation_ids": dataset.observation_ids.tolist(),
        "mm_per_unit": dataset.mm_per_unit,
        "n_free": dataset.n_free,
        "n_obs": dataset.n_obs,
        "sample_count": dataset.m,
        "regions": dataset.regions,
        "failures": [
            {"region": f.region, "point_index": f.point_index, "reason": f.reason}
            for f in dataset.failures
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        records = np.column_stack([dataset.region_id, dataset.target, dataset.u])
        fh.write(records.astype("<f8", copy=False).data)  # the buffer itself, not a copy


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(_MAGIC)] != _MAGIC:
        raise DatasetFormatError("bad magic; not a dataset file", byte_offset=0)
    off = len(_MAGIC)
    if len(data) < off + 8:
        raise DatasetFormatError("truncated header length", byte_offset=len(data))
    (header_len,) = struct.unpack_from("<Q", data, off)
    off += 8
    if len(data) < off + header_len:
        raise DatasetFormatError("truncated header", byte_offset=len(data))
    try:
        header = json.loads(data[off : off + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetFormatError(f"unparseable header: {exc}", byte_offset=off) from None
    off += header_len

    if not isinstance(header, dict):
        raise DatasetFormatError("header is not a JSON object", byte_offset=off)
    header.setdefault("failures", [])
    for key, kind in _HEADER_FIELDS.items():
        if not _is_json(header.get(key), kind):
            problem = f"is not {kind}: {header[key]!r}" if key in header else "is missing"
            raise DatasetFormatError(f"header field {key} {problem}", byte_offset=off)
        if key in _HEADER_VALUES and header[key] != _HEADER_VALUES[key]:
            raise DatasetFormatError(
                f"header field {key} is {header[key]!r}, expected {_HEADER_VALUES[key]!r}",
                byte_offset=off)
    if header["n_obs"] != len(header["observation_ids"]):
        raise DatasetFormatError(
            f"header field n_obs is {header['n_obs']}, but observation_ids has "
            f"{len(header['observation_ids'])} entries", byte_offset=off)
    n_free, m = header["n_free"], header["sample_count"]

    if m < 0 or n_free < 0:
        raise DatasetFormatError(
            f"negative sample_count {m} or n_free {n_free}", byte_offset=off
        )
    width = 4 + 3 * n_free
    record_len = 8 * width
    end = off + m * record_len
    if len(data) < end:
        i = (len(data) - off) // record_len
        raise DatasetFormatError(f"truncated record {i} of {m}", byte_offset=len(data))
    if len(data) > end:
        raise DatasetFormatError(f"{len(data) - end} bytes after the end of the {m} records",
                                 byte_offset=end)
    records = np.frombuffer(data, dtype="<f8", count=m * width, offset=off).reshape(m, width)
    rid = records[:, 0]
    bad = ~((rid >= 0) & (rid < len(header["regions"])) & (rid == np.floor(rid)))  # NaN is bad too
    if bad.any():
        i = int(np.argmax(bad))
        raise DatasetFormatError(
            f"record {i} has bad region id {float(rid[i])!r}", byte_offset=off + i * record_len
        )
    return Dataset(
        mesh_hash=header["mesh_hash"],
        free_ids=header["free_ids"],
        observation_ids=header["observation_ids"],
        mm_per_unit=float(header["mm_per_unit"]),
        regions=header["regions"],
        region_id=rid.astype(np.int64),
        target=records[:, 1:4],
        u=records[:, 4:],
        failures=[SampleFailure(**f) for f in header["failures"]],
    )
