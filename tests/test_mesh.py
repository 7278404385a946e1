import numpy as np
import pytest

from deformest.mesh import (
    MeshError,
    ScaleConvention,
    TetMesh,
    generate_rpp,
    load_mesh,
    save_mesh,
    serialize_mesh,
    signed_tet_volumes,
    vertex_normals,
)
from conftest import make_blob_mesh


class TestGenerateRpp:
    def test_paper_box_has_99_vertices(self, paper_rpp):
        assert paper_rpp.n_vertices == 11 * 3 * 3 == 99

    def test_paper_box_tet_count(self, paper_rpp):
        # 10 x 2 x 2 lattice cells, 6 tets per cell
        assert paper_rpp.n_tets == 10 * 2 * 2 * 6 == 240

    def test_single_cube(self, unit_cube):
        assert unit_cube.n_vertices == 8
        assert unit_cube.n_tets == 6

    def test_volume_sum_matches_box(self, paper_rpp):
        vols = signed_tet_volumes(paper_rpp.vertices, paper_rpp.tets)
        expected = 1.0 * 0.2 * 0.2  # simulation units: 256 x 51.2 x 51.2 mm / 256
        assert abs(vols.sum() - expected) <= 1e-12 * expected

    def test_volume_sum_unit_cube(self, unit_cube):
        vols = signed_tet_volumes(unit_cube.vertices, unit_cube.tets)
        assert abs(vols.sum() - 0.1**3) <= 1e-12 * 0.1**3

    def test_all_volumes_positive(self, paper_rpp):
        assert (signed_tet_volumes(paper_rpp.vertices, paper_rpp.tets) > 0).all()

    def test_no_cracks(self, paper_rpp):
        # every face belongs to one tet (boundary) or exactly two (interior)
        counts = {}
        for tet in paper_rpp.tets:
            a, b, c, d = (int(v) for v in tet)
            for face in ((b, c, d), (a, c, d), (a, b, d), (a, b, c)):
                key = tuple(sorted(face))
                counts[key] = counts.get(key, 0) + 1
        assert set(counts.values()) <= {1, 2}
        n_boundary = sum(1 for v in counts.values() if v == 1)
        # surface of the 10x2x2 cell box: 2*(10*2 + 10*2 + 2*2) squares, 2 triangles each
        assert n_boundary == 2 * (10 * 2 + 10 * 2 + 2 * 2) * 2 == 176

    def test_default_roles(self, paper_rpp):
        assert paper_rpp.fixed_ids.size == 9
        assert (paper_rpp.vertices[paper_rpp.fixed_ids][:, 0] == 0).all()
        assert list(paper_rpp.contact_regions) == ["end"]
        assert paper_rpp.contact_regions["end"].size == 9
        assert paper_rpp.observation_ids.size == 3
        assert paper_rpp.n_free == 90

    def test_non_divisible_dimensions_rejected(self):
        with pytest.raises(MeshError, match="multiple of spacing"):
            generate_rpp(250.0, 51.2, 25.6)

    def test_out_of_range_role_spec_rejected(self):
        with pytest.raises(MeshError, match="outside"):
            generate_rpp(fixed_spec=[(99, 0, 0)])

    def test_scale_convention(self):
        mesh = generate_rpp(scale=ScaleConvention(mm_per_unit=1.0))
        assert mesh.vertices[:, 0].max() == 256.0

    @pytest.mark.parametrize("mm_per_unit", [float("inf"), float("nan"), True, "256"])
    def test_scale_must_be_a_finite_positive_number(self, mm_per_unit):
        with pytest.raises(MeshError, match="mm_per_unit must be positive and finite"):
            ScaleConvention(mm_per_unit)

    def test_scale_overflows_to_inf_without_a_warning(self):
        assert ScaleConvention(1e-320).to_units([1.0, 0.0]).tolist() == [float("inf"), 0.0]

    @pytest.mark.parametrize("kwargs", [
        {"long_side_mm": float("inf")},
        {"short_side_mm": float("nan")},
        {"spacing_mm": 1e-320},
        {"long_side_mm": 1e308, "spacing_mm": 1e-300},
        {"scale": ScaleConvention(1e-320)},
    ])
    def test_non_finite_lattice_rejected(self, kwargs):
        with pytest.raises(MeshError, match="not finite"):
            generate_rpp(**kwargs)


class TestTetMeshInvariants:
    def test_tet_index_out_of_range(self):
        with pytest.raises(MeshError, match="index out of range"):
            TetMesh(vertices=np.eye(4, 3), tets=[[0, 1, 2, 4]])

    def test_inverted_tet_rejected(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(MeshError, match="non-positive volume"):
            TetMesh(vertices=verts, tets=[[0, 2, 1, 3]])

    def test_degenerate_tet_rejected(self):
        verts = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]]
        with pytest.raises(MeshError, match="non-positive volume"):
            TetMesh(vertices=verts, tets=[[0, 1, 2, 3]])

    def test_repeated_vertex_tet_rejected(self):
        # the first bad tet is named, also when its repeats are not neighbours
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        tets = [[0, 1, 2, 3], [2, 0, 1, 2], [0, 1, 1, 2]]
        with pytest.raises(MeshError, match=r"tetrahedron 1 has repeated vertices: \[2, 0, 1, 2\]"):
            TetMesh(verts, tets)
        with pytest.raises(MeshError, match=r"tetrahedron 0 has repeated vertices: \[0, 1, 1, 2\]"):
            TetMesh(verts, [[0, 1, 1, 2]])

    def test_fixed_overlap_with_region(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(MeshError, match="overlaps fixed"):
            TetMesh(verts, [[0, 1, 2, 3]], fixed_ids=[0], contact_regions={"r": [0]})

    def test_empty_region_rejected(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(MeshError, match="contact region 'r' has no vertices"):
            TetMesh(verts, [[0, 1, 2, 3]], contact_regions={"r": []})

    def test_fixed_overlap_with_observation(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(MeshError, match="overlap fixed"):
            TetMesh(verts, [[0, 1, 2, 3]], fixed_ids=[1], observation_ids=[1])

    def test_duplicate_observation_rejected(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(MeshError, match="duplicates"):
            TetMesh(verts, [[0, 1, 2, 3]], observation_ids=[1, 1])

    def test_free_ids_complement_fixed(self, paper_rpp):
        free = set(paper_rpp.free_ids.tolist())
        fixed = set(paper_rpp.fixed_ids.tolist())
        assert free | fixed == set(range(99))
        assert not free & fixed

    def test_expand_free(self, paper_rpp):
        field = np.arange(paper_rpp.n_free * 3, dtype=float).reshape(-1, 3)
        full = paper_rpp.expand_free(field)
        assert (full[paper_rpp.fixed_ids] == 0).all()
        assert (full[paper_rpp.free_ids] == field).all()

    def test_immutable_arrays(self, paper_rpp):
        with pytest.raises(ValueError):
            paper_rpp.vertices[0, 0] = 1.0


def oracle_vertex_normals(mesh):
    """Independent recomputation: plain loops over every tet face, summed
    into each vertex in ascending face order."""
    face_count = {}
    face_info = {}
    for ti, tet in enumerate(mesh.tets):
        tet = [int(v) for v in tet]
        for omit in range(4):
            face = [tet[i] for i in range(4) if i != omit]
            key = tuple(sorted(face))
            face_count[key] = face_count.get(key, 0) + 1
            face_info[key] = tet[omit]
    sums = {}
    for key, cnt in sorted(face_count.items()):
        if cnt != 1:
            continue
        i, j, k = key
        opp = face_info[key]
        p0, p1, p2 = mesh.vertices[i], mesh.vertices[j], mesh.vertices[k]
        n = 0.5 * np.cross(p1 - p0, p2 - p0)
        if np.dot(n, mesh.vertices[opp] - (p0 + p1 + p2) / 3.0) > 0:
            n = -n
        for v in key:
            sums[v] = sums.get(v, np.zeros(3)) + n
    return {v: s / np.linalg.norm(s) for v, s in sums.items()}


class TestVertexNormals:
    def test_flat_face_normal_exact(self, paper_rpp):
        normals = vertex_normals(paper_rpp)
        vid = (5 * 3 + 0) * 3 + 1  # lattice (5, 0, 1): interior of the y=0 face
        assert np.array_equal(normals[vid], np.array([0.0, -1.0, 0.0]))

    def test_cube_corner_normals(self, unit_cube):
        normals = vertex_normals(unit_cube)
        expected = np.ones(3) / np.sqrt(3.0)
        np.testing.assert_allclose(normals[0], -expected, atol=1e-12)
        np.testing.assert_allclose(normals[7], expected, atol=1e-12)

    def test_unit_length(self, paper_rpp, blob_mesh):
        for mesh in (paper_rpp, blob_mesh):
            for n in vertex_normals(mesh).values():
                assert abs(np.linalg.norm(n) - 1.0) <= 1e-12

    def test_interior_vertices_absent(self, paper_rpp):
        normals = vertex_normals(paper_rpp)
        vid = (5 * 3 + 1) * 3 + 1  # lattice (5, 1, 1): interior vertex
        assert vid not in normals

    def test_irregular_mesh_matches_bruteforce_oracle(self, blob_mesh):
        got = vertex_normals(blob_mesh)
        want = oracle_vertex_normals(blob_mesh)
        assert set(got) == set(want)
        for v in want:
            assert np.array_equal(got[v], want[v])

    @pytest.mark.parametrize("which", [25.6, 12.8, (3, 300), (5, 300)])
    def test_bitwise_equal_to_bruteforce_oracle(self, which):
        # same face order, same sums, same per-vertex norm: the same bits
        mesh = generate_rpp(256.0, 51.2, which) if isinstance(which, float) \
            else make_blob_mesh(*which)
        got = vertex_normals(mesh)
        want = oracle_vertex_normals(mesh)
        assert list(got) == sorted(want)
        for v in want:
            assert np.array_equal(got[v], want[v])

    def test_invariant_under_tet_reordering(self, blob_mesh):
        perm = np.random.default_rng(3).permutation(blob_mesh.n_tets)
        reordered = TetMesh(
            vertices=blob_mesh.vertices,
            tets=blob_mesh.tets[perm],
            fixed_ids=blob_mesh.fixed_ids,
            contact_regions=blob_mesh.contact_regions,
            observation_ids=blob_mesh.observation_ids,
        )
        a = vertex_normals(blob_mesh)
        b = vertex_normals(reordered)
        assert set(a) == set(b)
        for v in a:
            assert np.array_equal(a[v], b[v])

    def test_zero_area_face_reported(self, unit_cube):
        with pytest.raises(MeshError, match="degenerate boundary face"):
            vertex_normals(unit_cube, zero_area_tol=1.0)

    def test_vanishing_vertex_normal_reported(self):
        # two mirrored tetrahedra meet only at vertex 0, whose face normals cancel
        top = np.array([[1.0, 0.0, 1.0], [-0.5, 0.8, 1.0], [-0.5, -0.8, 1.0]])
        mesh = TetMesh(vertices=np.vstack([[0.0, 0.0, 0.0], top, -top]),
                       tets=[[0, 1, 2, 3], [0, 4, 6, 5]])
        with pytest.raises(MeshError, match="boundary vertex 0 has vanishing accumulated normal"):
            vertex_normals(mesh)


class TestMeshFile:
    def test_roundtrip_exact(self, paper_rpp, tmp_path):
        path = tmp_path / "box.mesh"
        save_mesh(paper_rpp, path)
        loaded = load_mesh(path)
        assert np.array_equal(loaded.vertices, paper_rpp.vertices)
        assert np.array_equal(loaded.tets, paper_rpp.tets)
        assert np.array_equal(loaded.fixed_ids, paper_rpp.fixed_ids)
        assert np.array_equal(loaded.observation_ids, paper_rpp.observation_ids)
        assert list(loaded.contact_regions) == list(paper_rpp.contact_regions)
        for name in loaded.contact_regions:
            assert np.array_equal(loaded.contact_regions[name], paper_rpp.contact_regions[name])
        assert loaded.content_hash() == paper_rpp.content_hash()

    def test_roundtrip_blob(self, blob_mesh, tmp_path):
        path = tmp_path / "blob.mesh"
        save_mesh(blob_mesh, path)
        assert load_mesh(path).content_hash() == blob_mesh.content_hash()

    def test_hash_changes_with_content(self, paper_rpp, unit_cube):
        assert paper_rpp.content_hash() != unit_cube.content_hash()

    def test_load_index_out_of_range(self, tmp_path):
        text = "tetmesh 4 1\nv 0.0 0.0 0.0\nv 1.0 0.0 0.0\nv 0.0 1.0 0.0\nv 0.0 0.0 1.0\nt 0 1 2 4\nfixed\nobs\n"
        path = tmp_path / "bad.mesh"
        path.write_text(text)
        with pytest.raises(MeshError, match="index out of range"):
            load_mesh(path)

    def test_load_inverted_tet(self, tmp_path):
        text = "tetmesh 4 1\nv 0.0 0.0 0.0\nv 1.0 0.0 0.0\nv 0.0 1.0 0.0\nv 0.0 0.0 1.0\nt 0 2 1 3\nfixed\nobs\n"
        path = tmp_path / "bad.mesh"
        path.write_text(text)
        with pytest.raises(MeshError, match="non-positive volume"):
            load_mesh(path)

    def test_load_empty_region(self, tmp_path):
        text = "tetmesh 4 1\nv 0.0 0.0 0.0\nv 1.0 0.0 0.0\nv 0.0 1.0 0.0\nv 0.0 0.0 1.0\nt 0 1 2 3\nfixed\nregion a\nobs\n"
        path = tmp_path / "bad.mesh"
        path.write_text(text)
        with pytest.raises(MeshError, match="contact region 'a' has no vertices") as err:
            load_mesh(path)
        assert str(path) in str(err.value)

    def test_load_malformed_header(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("vertices 3\n")
        with pytest.raises(MeshError, match="header"):
            load_mesh(path)

    def test_load_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("tetmesh 5 0\nv 0.0 0.0 0.0\nfixed\nobs\n")
        with pytest.raises(MeshError, match="declares 5 vertices"):
            load_mesh(path)

    def test_load_malformed_number(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("tetmesh 1 0\nv 0.0 zero 0.0\nfixed\nobs\n")
        with pytest.raises(MeshError, match="malformed number"):
            load_mesh(path)

    def test_serialization_stable(self, blob_mesh):
        assert serialize_mesh(blob_mesh) == serialize_mesh(blob_mesh)

    @pytest.mark.parametrize("which", [25.6, 12.8, 6.4, "blob", "no-roles"])
    def test_serialization_matches_per_index_writer(self, which, blob_mesh, unit_cube):
        if which == "blob":
            mesh = blob_mesh
        elif which == "no-roles":
            mesh = unit_cube
        else:  # the RPP at this spacing in mm
            mesh = generate_rpp(256.0, 51.2, which)
        assert serialize_mesh(mesh) == per_index_serialize_mesh(mesh)

    def test_paper_box_hash_is_pinned(self, paper_rpp):
        # the SHA-256 that datasets and models built from the paper box record
        assert paper_rpp.content_hash() == (
            "ac3994f485137ae7edb2f57a85892ef251c00b25423db552aa1a2481e927da70")

    @pytest.mark.parametrize("spacing_mm, n_tets, digest", [
        (12.8, 1920, "a22af449bd035ffc3ca7b739d8a820f8986cf0476c894ec6debb57ca8c31042d"),
        (6.4, 15360, "3faa10accb445c31b194399c0fc762eacd4724d838a072902c55a1084f245954"),
    ])
    def test_finer_box_hashes_are_pinned(self, spacing_mm, n_tets, digest):
        # the benchmark's reference fields are computed on the 12.8 mm box
        mesh = generate_rpp(256.0, 51.2, spacing_mm)
        assert mesh.n_tets == n_tets and mesh.content_hash() == digest


def per_index_serialize_mesh(mesh: TetMesh) -> str:
    """The mesh file text, one number at a time: the reference for serialize_mesh."""
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


def test_blob_helper_is_deterministic():
    a = make_blob_mesh(seed=11)
    b = make_blob_mesh(seed=11)
    assert a.content_hash() == b.content_hash()
