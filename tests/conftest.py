import json
import os
import struct

import numpy as np
import pytest
from scipy.spatial import Delaunay

from deformest import _blas, fem
from deformest.mesh import TetMesh, generate_rpp
from deformest.sampling import _MAGIC, Dataset


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


def element_stiffness(tet_vertices, d) -> np.ndarray:
    """12x12 stiffness volume * B^T D B of one tetrahedron: the tests' one-element oracle.

    Raises DegenerateElementError for zero or negative volume.
    """
    tet_vertices = np.asarray(tet_vertices, dtype=np.float64).reshape(1, 4, 3)
    return fem._element_stiffness_batch(tet_vertices, np.asarray(d, dtype=np.float64))[0]


def rewrite_dataset_header(path, **entries):
    """Sets entries of the JSON header of the dataset file at path; the records stay."""
    blob = path.read_bytes()
    (size,) = struct.unpack_from("<Q", blob, len(_MAGIC))
    start = len(_MAGIC) + 8
    header = {**json.loads(blob[start:start + size]), **entries}
    new = json.dumps(header).encode("utf-8")  # NaN and Infinity as JSON literals
    path.write_bytes(blob[:len(_MAGIC)] + struct.pack("<Q", len(new)) + new + blob[start + size:])


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


@pytest.fixture(autouse=True)
def blas_thread_counts_kept():
    """Fail any test that leaves numpy's or scipy's OpenBLAS on another thread count than it found.

    fem.deform pins scipy's copy to one thread for its steps, and nn.train and
    evaluation.run_session pin numpy's; this keeps the pins from leaking into
    the code that calls them.
    """
    pins = {package: _blas.threads(package) for package in ("numpy", "scipy")}
    before = {package: pin.get() for package, pin in pins.items() if pin}
    yield
    after = {package: pins[package].get() for package in before}
    assert after == before, f"the test left the OpenBLAS thread counts at {after}, not {before}"


def _two_threads(package):
    pin = _blas.threads(package)
    if pin is None:
        pytest.skip(f"no OpenBLAS found for {package}")
    before = pin.get()
    pin.put(2)
    yield pin.get
    pin.put(before)


@pytest.fixture
def lapack_threads():
    """The thread-count getter of scipy's OpenBLAS, with the count set to 2 for the test.

    2 stands for a caller's own setting that deform must give back. Skips
    where no OpenBLAS is found.
    """
    yield from _two_threads("scipy")


@pytest.fixture
def numpy_threads():
    """The thread-count getter of numpy's OpenBLAS, with the count set to 2 for the test.

    2 stands for a caller's own setting that train and run_session must give
    back. Skips where numpy's OpenBLAS is not found.
    """
    yield from _two_threads("numpy")


@pytest.fixture
def factor_threads(lapack_threads, monkeypatch, tmp_path):
    """A function listing (process id, thread count) as seen by each band factor.

    The calls append to a file, so forked pool workers report theirs too.
    """
    log = tmp_path / "factor-threads.txt"
    factor = fem._band_cholesky

    def recording(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {lapack_threads()}\n")
        return factor(*args, **kwargs)

    monkeypatch.setattr(fem, "_band_cholesky", recording)
    return lambda: [tuple(map(int, line.split())) for line in
                    (log.read_text().splitlines() if log.exists() else [])]
