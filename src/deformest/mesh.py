"""Tetrahedral meshes with vertex roles: fixed anchors, contact regions, observation points.

Coordinates are stored in normalized simulation units; :class:`ScaleConvention`
maps them to millimeters at I/O and reporting boundaries (default: 256 mm of
real space per simulation unit).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "MeshError",
    "ScaleConvention",
    "TetMesh",
    "signed_tet_volumes",
    "generate_rpp",
    "default_rpp_roles",
    "rpp6_contact_specs",
    "vertex_normals",
    "serialize_mesh",
    "save_mesh",
    "load_mesh",
]


class MeshError(ValueError):
    """Invalid mesh topology, geometry, role assignment, or file content."""


@dataclass(frozen=True)
class ScaleConvention:
    """Millimeters of real space per simulation unit."""

    mm_per_unit: float = 256.0

    def __post_init__(self):
        if not self.mm_per_unit > 0:
            raise MeshError(f"mm_per_unit must be positive, got {self.mm_per_unit}")

    def to_units(self, mm):
        return np.asarray(mm, dtype=float) / self.mm_per_unit


def signed_tet_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Signed volume of each tetrahedron (a, b, c, d).

    Positive when (b-a) . ((c-a) x (d-a)) > 0; the mesh orientation
    convention requires strictly positive volumes.
    """
    v = vertices[tets]
    e = v[:, 1:, :] - v[:, :1, :]
    return np.linalg.det(e) / 6.0


def _as_index_array(ids, name: str) -> np.ndarray:
    arr = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.int64)
    if arr.ndim != 1:
        raise MeshError(f"{name} must be a flat list of vertex indices")
    return arr


@dataclass(frozen=True)
class TetMesh:
    """Immutable tetrahedral mesh with vertex-role annotations.

    vertices          (N_a, 3) float positions in simulation units
    tets              (M, 4) vertex indices, positively oriented
    fixed_ids         anchored vertices (all DOFs pinned), sorted
    contact_regions   named vertex groups whose displacement can be prescribed
    observation_ids   ordered free vertices assumed observable
    """

    vertices: np.ndarray
    tets: np.ndarray
    fixed_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    contact_regions: Mapping[str, np.ndarray] = field(default_factory=dict)
    observation_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        tets = np.ascontiguousarray(np.asarray(self.tets, dtype=np.int64))
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError(f"vertices must have shape (N_a, 3), got {vertices.shape}")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise MeshError(f"tets must have shape (M, 4), got {tets.shape}")
        fixed = np.unique(_as_index_array(self.fixed_ids, "fixed_ids"))
        obs = _as_index_array(self.observation_ids, "observation_ids")
        regions = {
            str(name): np.unique(_as_index_array(ids, f"region {name!r}"))
            for name, ids in self.contact_regions.items()
        }

        n = vertices.shape[0]
        self._check_range(tets.ravel(), n, "tetrahedron vertex")
        self._check_range(fixed, n, "fixed vertex")
        self._check_range(obs, n, "observation vertex")
        for name, ids in regions.items():
            if ids.size == 0:
                raise MeshError(f"contact region {name!r} has no vertices")
            self._check_range(ids, n, f"contact region {name!r} vertex")
            if not name or any(c.isspace() for c in name):
                raise MeshError(f"region name {name!r} must be non-empty without whitespace")

        for i, tet in enumerate(tets):
            if len(set(tet.tolist())) != 4:
                raise MeshError(f"tetrahedron {i} has repeated vertices: {tet.tolist()}")
        vols = signed_tet_volumes(vertices, tets)
        bad = np.flatnonzero(vols <= 0.0)
        if bad.size:
            raise MeshError(
                f"tetrahedron {bad[0]} has non-positive volume ({vols[bad[0]]:.3e}); "
                "expected positive orientation"
            )

        fixed_set = set(fixed.tolist())
        for name, ids in regions.items():
            overlap = fixed_set.intersection(ids.tolist())
            if overlap:
                raise MeshError(f"contact region {name!r} overlaps fixed vertices: {sorted(overlap)}")
        obs_list = obs.tolist()
        if len(set(obs_list)) != len(obs_list):
            raise MeshError("observation_ids contains duplicates")
        overlap = fixed_set.intersection(obs_list)
        if overlap:
            raise MeshError(f"observation points overlap fixed vertices: {sorted(overlap)}")

        free = np.setdiff1d(np.arange(n, dtype=np.int64), fixed)
        for arr in (vertices, tets, fixed, obs, *regions.values(), free):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "tets", tets)
        object.__setattr__(self, "fixed_ids", fixed)
        object.__setattr__(self, "observation_ids", obs)
        object.__setattr__(self, "contact_regions", dict(regions))
        object.__setattr__(self, "_free_ids", free)

    @staticmethod
    def _check_range(ids: np.ndarray, n: int, what: str):
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            bad = ids[(ids < 0) | (ids >= n)][0]
            raise MeshError(f"{what} index out of range: {bad} (vertex count {n})")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    @property
    def free_ids(self) -> np.ndarray:
        """Non-fixed vertices, sorted ascending; this order defines field layout."""
        return self._free_ids

    @property
    def n_free(self) -> int:
        return self._free_ids.size

    def free_index_of(self) -> np.ndarray:
        """(N_a,) map vertex id -> index into free_ids, -1 for fixed vertices."""
        idx = np.full(self.n_vertices, -1, dtype=np.int64)
        idx[self._free_ids] = np.arange(self.n_free, dtype=np.int64)
        return idx

    def expand_free(self, free_field: np.ndarray) -> np.ndarray:
        """Scatter an (n_free, 3) field to (N_a, 3), zeros at fixed vertices."""
        free_field = np.asarray(free_field, dtype=np.float64)
        if free_field.shape != (self.n_free, 3):
            raise MeshError(f"expected shape ({self.n_free}, 3), got {free_field.shape}")
        full = np.zeros((self.n_vertices, 3))
        full[self._free_ids] = free_field
        return full

    def content_hash(self) -> str:
        """SHA-256 of the canonical text serialization."""
        return hashlib.sha256(serialize_mesh(self).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Rectangular-parallelepiped generator
# ---------------------------------------------------------------------------

# Each lattice cube is split into the six tetrahedra that follow a monotone
# vertex path from corner (0,0,0) to corner (1,1,1), one per axis permutation.
# Adjacent cubes triangulate shared faces identically, so the mesh is
# crack-free, and each tetrahedron has exactly 1/6 of the cube volume.
_CUBE_TET_PATHS = []
for _perm in itertools.permutations((0, 1, 2)):
    _corner = [0, 0, 0]
    _path = [tuple(_corner)]
    for _axis in _perm:
        _corner[_axis] = 1
        _path.append(tuple(_corner))
    # odd permutations yield negative orientation; swap two vertices to fix
    _parity = sum(1 for i in range(3) for j in range(i + 1, 3) if _perm[i] > _perm[j]) % 2
    if _parity:
        _path[1], _path[2] = _path[2], _path[1]
    _CUBE_TET_PATHS.append(tuple(_path))
_CUBE_TET_PATHS = tuple(_CUBE_TET_PATHS)


def _lattice_count(length_mm: float, spacing_mm: float, name: str) -> int:
    if not spacing_mm > 0:
        raise MeshError(f"spacing must be positive, got {spacing_mm}")
    ratio = length_mm / spacing_mm
    cells = round(ratio)
    if cells < 1 or abs(ratio - cells) > 1e-9 * max(1.0, abs(cells)):
        raise MeshError(
            f"{name} ({length_mm}) is not a positive integer multiple of spacing ({spacing_mm})"
        )
    return cells


def default_rpp_roles(nx: int, ny: int, nz: int):
    """Shipped default role assignment for the box model, in lattice coordinates.

    Fixed: the full x=0 end face. Contact: one region, the full far end face.
    Observation: three edge vertices away from both end faces. These mirror
    the usual experimental setup (anchored end, manipulated end, trackable
    edge features) but are a documented choice; pass explicit specs to
    override.
    """
    fixed = [(0, iy, iz) for iy in range(ny) for iz in range(nz)]
    contact = {"end": [(nx - 1, iy, iz) for iy in range(ny) for iz in range(nz)]}
    obs_candidates = [
        (max(1, nx // 2), 0, 0),
        (max(1, nx // 2), ny - 1, nz - 1),
        (max(1, 3 * (nx - 1) // 4), ny - 1, 0),
    ]
    obs = list(dict.fromkeys(obs_candidates))
    return fixed, contact, obs


def rpp6_contact_specs(nx: int, ny: int, nz: int):
    """Six single-vertex contact regions spread over the free end and side faces."""
    cy, cz = (ny - 1) // 2, (nz - 1) // 2
    coords = [
        (nx - 1, cy, cz),
        (nx - 1, 0, 0),
        (nx - 1, ny - 1, nz - 1),
        (max(1, 2 * (nx - 1) // 3), ny - 1, cz),
        (max(1, 2 * (nx - 1) // 3), 0, cz),
        (max(1, (nx - 1) // 3), cy, nz - 1),
    ]
    return {f"c{i}": [c] for i, c in enumerate(dict.fromkeys(coords))}


def generate_rpp(
    long_side_mm: float = 256.0,
    short_side_mm: float = 51.2,
    spacing_mm: float = 25.6,
    fixed_spec: Iterable[tuple] | None = None,
    contact_specs: Mapping[str, Iterable[tuple]] | None = None,
    observation_spec: Sequence[tuple] | None = None,
    scale: ScaleConvention = ScaleConvention(),
) -> TetMesh:
    """Regular tetrahedral mesh of a rectangular parallelepiped.

    The box spans [0, long] x [0, short] x [0, short] (mm), sampled on a
    regular lattice with the given spacing; both sides must be integer
    multiples of the spacing. Each lattice cube is split into 6 tetrahedra
    (see _CUBE_TET_PATHS). Vertex order: index = (ix*ny + iy)*nz + iz.

    Role specs are given in lattice coordinates (ix, iy, iz); None selects
    the defaults from :func:`default_rpp_roles`.
    """
    cx = _lattice_count(long_side_mm, spacing_mm, "long_side")
    cy = _lattice_count(short_side_mm, spacing_mm, "short_side")
    nx, ny, nz = cx + 1, cy + 1, cy + 1

    spacing_units = scale.to_units(spacing_mm)
    ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    vertices = np.stack([ix, iy, iz], axis=-1).reshape(-1, 3).astype(np.float64) * spacing_units

    def vid(c):
        x, y, z = c
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            raise MeshError(f"lattice coordinate {tuple(int(v) for v in c)} outside {nx}x{ny}x{nz} grid")
        return (x * ny + y) * nz + z

    tets = []
    for x in range(nx - 1):
        for y in range(ny - 1):
            for z in range(nz - 1):
                for path in _CUBE_TET_PATHS:
                    tets.append([vid((x + dx, y + dy, z + dz)) for dx, dy, dz in path])

    d_fixed, d_contacts, d_obs = default_rpp_roles(nx, ny, nz)
    fixed_spec = d_fixed if fixed_spec is None else fixed_spec
    contact_specs = d_contacts if contact_specs is None else contact_specs
    observation_spec = d_obs if observation_spec is None else observation_spec

    return TetMesh(
        vertices=vertices,
        tets=np.asarray(tets, dtype=np.int64),
        fixed_ids=[vid(c) for c in fixed_spec],
        contact_regions={name: [vid(c) for c in ids] for name, ids in contact_specs.items()},
        observation_ids=[vid(c) for c in observation_spec],
    )


# ---------------------------------------------------------------------------
# Surface normals
# ---------------------------------------------------------------------------

def _boundary_faces(mesh: TetMesh):
    """Boundary faces (in exactly one tet) with the opposing tet vertex.

    Returned sorted by canonical face key so results do not depend on tet
    ordering.
    """
    seen: dict[tuple, tuple | None] = {}
    for tet in mesh.tets:
        a, b, c, d = (int(v) for v in tet)
        for face, opp in (((b, c, d), a), ((a, c, d), b), ((a, b, d), c), ((a, b, c), d)):
            key = tuple(sorted(face))
            if key in seen:
                seen[key] = None
            else:
                seen[key] = (key, opp)
    return sorted(entry for entry in seen.values() if entry is not None)


def vertex_normals(mesh: TetMesh, zero_area_tol: float = 1e-14) -> dict[int, np.ndarray]:
    """Outward unit normal per boundary vertex.

    Each boundary vertex gets the area-weighted average of its incident
    boundary-face outward normals, normalized to unit length. Interior
    vertices are absent from the result. Face orientation is resolved
    against the opposing vertex of the owning tetrahedron.
    """
    accum: dict[int, np.ndarray] = {}
    pos = mesh.vertices
    for (i, j, k), opp in _boundary_faces(mesh):
        p0, p1, p2 = pos[i], pos[j], pos[k]
        weighted = 0.5 * np.cross(p1 - p0, p2 - p0)  # magnitude = face area
        area = np.linalg.norm(weighted)
        if area <= zero_area_tol:
            raise MeshError(f"degenerate boundary face ({i}, {j}, {k}) has zero area")
        centroid = (p0 + p1 + p2) / 3.0
        if np.dot(weighted, pos[opp] - centroid) > 0:
            weighted = -weighted
        for v in (i, j, k):
            accum[v] = accum.get(v, 0.0) + weighted
    normals = {}
    for v in sorted(accum):
        n = accum[v]
        length = np.linalg.norm(n)
        if length <= zero_area_tol:
            raise MeshError(f"boundary vertex {v} has vanishing accumulated normal")
        normals[v] = n / length
    return normals


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
# UTF-8 text, one item per line:
#   tetmesh <vertex count> <tet count>
#   v <x> <y> <z>            (full-precision decimal, round-trips exactly)
#   t <i> <j> <k> <l>        (0-based)
#   fixed <i> ...            (single line, sorted; present even when empty)
#   region <name> <i> ...    (one line per region, declaration order)
#   obs <i> ...              (observation order is meaningful)

def serialize_mesh(mesh: TetMesh) -> str:
    lines = [f"tetmesh {mesh.n_vertices} {mesh.n_tets}"]
    for v in mesh.vertices:
        lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for t in mesh.tets:
        lines.append("t " + " ".join(str(int(i)) for i in t))
    lines.append(("fixed " + " ".join(str(int(i)) for i in mesh.fixed_ids)).rstrip())
    for name, ids in mesh.contact_regions.items():
        lines.append(f"region {name} " + " ".join(str(int(i)) for i in ids))
    lines.append(("obs " + " ".join(str(int(i)) for i in mesh.observation_ids)).rstrip())
    return "\n".join(lines) + "\n"


def save_mesh(mesh: TetMesh, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_mesh(mesh))


def load_mesh(path) -> TetMesh:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].startswith("tetmesh "):
        raise MeshError(f"{path}: missing 'tetmesh' header line")
    head = lines[0].split()
    if len(head) != 3:
        raise MeshError(f"{path}: malformed header {lines[0]!r}")
    try:
        n_vertices, n_tets = int(head[1]), int(head[2])
    except ValueError:
        raise MeshError(f"{path}: non-integer counts in header {lines[0]!r}") from None

    vertices, tets, fixed, obs = [], [], [], []
    regions: dict[str, list[int]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        tag, rest = parts[0], parts[1:]
        try:
            if tag == "v":
                if len(rest) != 3:
                    raise MeshError(f"{path}:{lineno}: vertex line needs 3 coordinates")
                vertices.append([float(x) for x in rest])
            elif tag == "t":
                if len(rest) != 4:
                    raise MeshError(f"{path}:{lineno}: tet line needs 4 indices")
                tets.append([int(x) for x in rest])
            elif tag == "fixed":
                fixed = [int(x) for x in rest]
            elif tag == "region":
                if not rest:
                    raise MeshError(f"{path}:{lineno}: region line needs a name")
                regions[rest[0]] = [int(x) for x in rest[1:]]
            elif tag == "obs":
                obs = [int(x) for x in rest]
            else:
                raise MeshError(f"{path}:{lineno}: unknown line tag {tag!r}")
        except ValueError:
            raise MeshError(f"{path}:{lineno}: malformed number in {line!r}") from None

    if len(vertices) != n_vertices:
        raise MeshError(f"{path}: header declares {n_vertices} vertices, found {len(vertices)}")
    if len(tets) != n_tets:
        raise MeshError(f"{path}: header declares {n_tets} tets, found {len(tets)}")
    try:
        return TetMesh(
            vertices=np.asarray(vertices, dtype=np.float64),
            tets=np.asarray(tets, dtype=np.int64) if tets else np.empty((0, 4), dtype=np.int64),
            fixed_ids=fixed,
            contact_regions=regions,
            observation_ids=obs,
        )
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None
