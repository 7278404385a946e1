import numpy as np
import pytest
from scipy.spatial import Delaunay

from deformest.mesh import TetMesh, generate_rpp
from deformest.sampling import Dataset


def make_synthetic_dataset(m=30, n_free=4, seed=0, mm_per_unit=256.0) -> Dataset:
    """Random fields, no physics; enough structure for training-loop tests."""
    rng = np.random.default_rng(seed)
    draws = rng.normal(size=(m, 3 + 3 * n_free))  # per sample: target, then field
    return Dataset(
        mesh_hash="synthetic",
        free_ids=np.arange(n_free),
        observation_ids=np.array([0, n_free - 1]),
        mm_per_unit=mm_per_unit,
        regions=["r"],
        region_id=np.zeros(m, dtype=np.int64),
        target=draws[:, :3],
        u=draws[:, 3:],
    )


def make_blob_mesh(seed=0, n_points=40, n_fixed=4, n_contact=3, n_obs=4) -> TetMesh:
    """Irregular tetrahedral mesh from a Delaunay triangulation of random points.

    Deterministic per seed; orientation fixed by swapping vertices of
    negatively oriented simplices.
    """
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_points, 3))
    pts *= 0.5 + 0.5 * rng.random((n_points, 1))
    tri = Delaunay(pts)
    tets = tri.simplices.astype(np.int64)
    v = pts[tets]
    vols = np.linalg.det(v[:, 1:, :] - v[:, :1, :])
    flip = vols < 0
    tets[flip, 0], tets[flip, 1] = tets[flip, 1].copy(), tets[flip, 0].copy()

    order = np.argsort(pts[:, 0])
    fixed = order[:n_fixed]
    contact = order[-n_contact:]
    obs = [int(i) for i in order[n_fixed:] if i not in set(contact.tolist())][:n_obs]
    return TetMesh(
        vertices=pts,
        tets=tets,
        fixed_ids=fixed,
        contact_regions={"grab": contact},
        observation_ids=obs,
    )


@pytest.fixture(scope="session")
def paper_rpp() -> TetMesh:
    """The 99-vertex box model with default roles."""
    return generate_rpp()


@pytest.fixture(scope="session")
def unit_cube() -> TetMesh:
    """Single lattice cell: 8 vertices, 6 tetrahedra, no roles."""
    return generate_rpp(25.6, 25.6, 25.6, fixed_spec=[], contact_specs={}, observation_spec=[])


@pytest.fixture(scope="session")
def blob_mesh() -> TetMesh:
    return make_blob_mesh(seed=7)
