import hashlib
import json
import os
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformest import _blas, sampling
from deformest.cli import (PROFILES, ConfigError, PipelineConfig, build_mesh, main,
                           resolve_sampling_specs)
from deformest.mesh import load_mesh
from deformest.nn import MlpModel, save_model
from deformest.sampling import load_dataset

from conftest import make_blob_mesh, rewrite_dataset_header

SMALL_CONFIG = {
    "mesh": {
        "generator": {"kind": "rpp", "long_mm": 51.2, "short_mm": 25.6,
                      "spacing_mm": 25.6, "roles": "single"}
    },
    "material": {"young_modulus_pa": 1.0e6, "poisson_ratio": 0.40},
    "scale": {"mm_per_unit": 256.0},
    "fem": {"n_steps": 2},
    "sampling": {"regions": {"end": {"mode": "box",
                                     "extents_mm": [10.24, 10.24, 0.0],
                                     "spacing_mm": 5.12}}},
    "train": {"epochs": 2, "batch_size": 4, "inner_iters": 2, "gamma": 50.0,
              "lambdas": [0.1, 0.1, 0.1], "seed": 5, "log_every": 2,
              "hidden": [8, 8]},
    "eval": {"k": 2, "repeats": 1},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def run(args):
    return main([str(a) for a in args])


def changed(path, value, base=SMALL_CONFIG):
    """A copy of base with the entry at the key path set to value."""
    if not path:
        return value
    raw = json.loads(json.dumps(base))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


class TestConfig:
    def test_valid_config_parses(self):
        cfg = PipelineConfig.from_dict(SMALL_CONFIG)
        assert cfg.n_steps == 2
        assert cfg.train.hidden == (8, 8)
        assert cfg.eval_k == 2

    def test_problems_are_collected(self):
        broken = json.loads(json.dumps(SMALL_CONFIG))
        broken["material"]["poisson_ratio"] = 0.7
        broken["eval"]["k"] = 1
        broken["scale"]["mm_per_unit"] = 0.0
        del broken["sampling"]["regions"]["end"]["spacing_mm"]
        with pytest.raises(ConfigError) as err:
            PipelineConfig.from_dict(broken)
        message = str(err.value)
        assert "poisson_ratio" in message
        assert "eval.k" in message
        assert "mm_per_unit must be positive" in message
        assert "spacing_mm" in message

    def test_mesh_source_required(self):
        broken = json.loads(json.dumps(SMALL_CONFIG))
        broken["mesh"] = {}
        with pytest.raises(ConfigError, match="mesh section"):
            PipelineConfig.from_dict(broken)

    @pytest.mark.parametrize("path, value, message", [
        ((), [SMALL_CONFIG], "config must be a JSON object"),
        (("sampling", "regions"), ["end"], "sampling.regions must be a JSON object"),
        (("scale",), 5, "scale must be a JSON object"),
        (("sampling", "regions", "end"), "box", "sampling.regions.end must be a JSON object"),
        (("material", "young_modulus_pa"), None, "material.young_modulus_pa must be a number"),
        (("mesh", "generator", "roles"), {"fixed": 5},
         "mesh.generator.roles.fixed must be a list of [ix, iy, iz] integer triples"),
        (("mesh", "generator", "roles"), {"contacts": [[0, 0, 0]]},
         "mesh.generator.roles.contacts must be a JSON object"),
        (("mesh", "generator", "long_mm"), "256", "mesh.generator.long_mm must be a number"),
        (("mesh", "generator"), {"kind": "rpp", "long_mm": 51.2, "short_mm": 25.6,
                                 "spacing_mm": 0, "roles": "six"},
         "mesh.generator: spacing must be positive"),
        (("sampling", "regions", "end", "spacing_mm"), "102.4",
         "sampling.regions.end.spacing_mm must be a number"),
        (("sampling", "regions", "end"), {"mode": "ellipsoid", "r_para_ratio": "0.05",
                                          "r_perp_ratio": 0.2, "spacing_ratio": 0.04},
         "sampling.regions.end.r_para_ratio must be a number"),
        (("sampling", "regions", "end", "extents_mm"), [True, 204.8, 102.4],
         "sampling.regions.end.extents_mm must be three numbers"),
        (("sampling", "regions", "end", "mode"), [], "region 'end': unknown mode []"),
        (("sampling", "regions", "end", "mode"), {}, "region 'end': unknown mode {}"),
        (("sampling", "regions", "end"), {"mode": "ellipsoid", "r_para_ratio": 0.05,
                                          "r_perp_ratio": 0.2, "spacing_ratio": 0.04,
                                          "normal_filter": [0, "1", 0]},
         "sampling.regions.end: normal_filter must be None or a vector of 3 numbers"),
        (("sampling", "regions", "end"), {"mode": "ellipsoid", "r_para_ratio": 0.05,
                                          "r_perp_ratio": 0.2, "spacing_ratio": 0.04,
                                          "normal_filter": [True, 0, 0]},
         "sampling.regions.end: normal_filter must be None or a vector of 3 numbers"),
        (("mesh", "generator", "spacing_mm"), 1e-320,
         "mesh.generator: long_mm (51.2) over spacing (1e-320) is not finite"),
        (("mesh", "generator"), {"kind": "rpp", "long_mm": 1e308, "short_mm": 25.6,
                                 "spacing_mm": 1e-300},
         "mesh.generator: long_mm (1e+308) over spacing (1e-300) is not finite"),
    ])
    def test_wrong_json_type_exits_1(self, tmp_path, capsys, path, value, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(changed(path, value)))
        assert run(["mesh", "--config", cfg_path, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and message in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("profile, path, value, message", [
        ("rpp1-desk", ("mesh", "generator", "roles"), {"fixd": []},
         "unknown key mesh.generator.roles.fixd"),
        ("rpp1-desk", ("fem",), {"nsteps": 5}, "unknown key fem.nsteps"),
        ("rpp1-desk", ("trian",), {}, "unknown key trian"),
        ("rpp1-desk", ("sampling", "regions", "end", "spacing"), 20.48,
         "unknown key sampling.regions.end.spacing"),
        ("rpp6-desk", ("sampling", "regions", "c0", "r_para_ratio"), 0,
         "sampling.regions.c0: ellipsoid mode needs positive radii"),
        ("rpp6-desk", ("sampling", "regions", "c0", "r_para_ratio"), -0.05,
         "sampling.regions.c0: ellipsoid mode needs positive radii"),
        ("rpp6-desk", ("sampling", "regions", "c0", "normal_filter"), "up",
         "sampling.regions.c0: normal_filter must be None or a vector"),
        ("rpp6-desk", ("sampling", "regions", "c0", "normal_filter"), [0, 0, 0],
         "sampling.regions.c0: normal_filter vector must be nonzero"),
        ("rpp6-desk", ("sampling", "regions", "c0", "normal_filter"), [1, 2],
         "sampling.regions.c0: normal_filter must be None or a vector"),
        ("rpp6-desk", ("sampling", "regions", "c0", "reference_length"), -10,
         "sampling.regions.c0: reference_length must be positive, got -10"),
        ("rpp6-desk", ("sampling", "regions", "c0", "normal_filter"), [[1], [1, 2]],
         "sampling.regions.c0: normal_filter must be None or a vector"),
    ])
    def test_unknown_key_or_bad_ellipsoid_exits_1(self, tmp_path, capsys, profile, path, value,
                                                  message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(changed(path, value, PROFILES[profile])))
        assert run(["mesh", "--config", cfg_path, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and message in err
        assert len(err.splitlines()) == 1 and "; " not in err
        assert not (tmp_path / "mesh.txt").exists()

    @pytest.mark.parametrize("ratio", ["0.05", "missing"])
    def test_bad_ellipsoid_ratio_is_one_problem(self, ratio):
        raw = changed(("sampling", "regions", "c0", "r_para_ratio"), ratio, PROFILES["rpp6-desk"])
        if ratio == "missing":
            del raw["sampling"]["regions"]["c0"]["r_para_ratio"]
        with pytest.raises(ConfigError) as err:
            PipelineConfig.from_dict(raw)
        assert "sampling.regions.c0.r_para_ratio" in str(err.value) and "; " not in str(err.value)

    @pytest.mark.parametrize("hidden", [[90], [0, 5], "ab"])
    def test_bad_hidden_is_a_train_problem(self, hidden):
        with pytest.raises(ConfigError, match="train: "):
            PipelineConfig.from_dict(changed(("train", "hidden"), hidden))

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", 2.7, "epochs must be an integer"),
        ("batch_size", 4.5, "batch_size must be an integer"),
        ("inner_iters", "2", "inner_iters must be an integer"),
        ("seed", 5.5, "seed must be an integer"),
        ("log_every", True, "log_every must be an integer"),
        ("hidden", "12", "hidden must be two integers"),
        ("hidden", [8.5, 8], "hidden must be two integers"),
        ("lambdas", [0.1, float("nan"), 0.1], "lambdas must be three finite"),
        ("lambdas", [0.1, 0.1, float("inf")], "lambdas must be three finite"),
        ("gamma", float("inf"), "gamma must be positive and finite"),
        ("gamma", float("nan"), "gamma must be positive and finite"),
        pytest.param("lambdas", [10**400, 0, 0], "lambdas must be three finite",
                     id="lambdas-10**400-lambdas must be three finite"),
        pytest.param("gamma", 10**400, "gamma must be positive and finite",
                     id="gamma-10**400-gamma must be positive and finite"),
    ])
    def test_bad_train_field_exits_1(self, tmp_path, capsys, key, value, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(changed(("train", key), value)))  # NaN/Infinity literals
        assert run(["train", "--config", cfg_path, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: train: ") and message in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("path, value", [
        (("fem", "n_steps"), 2.7),
        (("eval", "k"), 2.5),
        (("eval", "repeats"), 1.5),
        (("eval", "k"), "3"),
        (("fem", "n_steps"), True),
    ])
    def test_non_integral_count_exits_1(self, tmp_path, capsys, path, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(changed(path, value)))
        assert run(["mesh", "--config", cfg_path, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert f"{'.'.join(path)} must be an integer, got {value!r}" in err

    def test_integral_floats_are_counts(self):
        raw = changed(("fem", "n_steps"), 3.0)
        raw["eval"] = {"k": 4.0, "repeats": 2.0}
        raw["train"].update(epochs=3.0, batch_size=4.0, hidden=[8.0, 6])
        cfg = PipelineConfig.from_dict(raw)
        assert (cfg.n_steps, cfg.eval_k, cfg.eval_repeats) == (3, 4, 2)
        assert all(type(v) is int for v in (cfg.n_steps, cfg.eval_k, cfg.eval_repeats))
        assert (cfg.train.epochs, cfg.train.batch_size, cfg.train.hidden) == (3, 4, (8, 6))
        assert type(cfg.train.epochs) is int and cfg.train.to_dict()["epochs"] == 3

    def test_adam_constants_are_not_config_keys(self):
        with pytest.raises(ConfigError, match="train: .*beta1"):
            PipelineConfig.from_dict(changed(("train", "beta1"), 0.9))

    def test_profiles_parse(self):
        for name, raw in PROFILES.items():
            if raw["mesh"].get("generator") is None:
                continue  # needs an external mesh file
            PipelineConfig.from_dict(json.loads(json.dumps(raw)))

    @pytest.mark.parametrize("seed", range(5))
    def test_diameter_reference_length_matches_brute_force(self, seed):
        mesh = make_blob_mesh(seed=seed, n_points=200)
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["sampling"]["regions"] = {"grab": {
            "mode": "ellipsoid", "r_para_ratio": 0.2, "r_perp_ratio": 0.3,
            "spacing_ratio": 0.05, "normal_filter": None, "reference_length": "diameter"}}
        spec = resolve_sampling_specs(PipelineConfig.from_dict(raw), mesh)["grab"]
        diffs = mesh.vertices[:, None, :] - mesh.vertices[None, :, :]
        assert spec.reference_length == np.sqrt((diffs**2).sum(axis=2)).max()


def key_paths(node, path=()):
    """The key path of node and of every object entry and list item below it."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from key_paths(child, path + (key,))


# Each path into the two desk profiles, the root included; rpp6-desk's
# regions c1 to c5 are copies of c0 and are left out.
DESK_PATHS = [(name, path) for name in ("rpp1-desk", "rpp6-desk")
              for path in key_paths(PROFILES[name]) if path[2:3] not in [(f"c{i}",) for i in range(1, 6)]]
# What a JSON reader can return, with weight on the numbers at the edges of
# the float range, integers beyond it, NaN and infinities (Python's json reads
# NaN and Infinity), and on the strings and object keys the profiles use.
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(), st.text(max_size=3),
    st.sampled_from([0, -1, 10**400, -10**400, float("nan"), float("inf"), float("-inf"),
                     1e-320, -1e-320, 1e308, -1e308]),
    st.sampled_from(["auto", "diameter", "rpp", "box", "ellipsoid", "single", "six"]))
JSON_KEYS = st.text(max_size=3) | st.sampled_from(sorted({str(p[-1]) for _, p in DESK_PATHS if p}))
JSON_VALUES = JSON_LEAVES | st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=10)


class TestConfigFuzz:
    """from_dict on a desk profile with one subtree replaced by generated JSON."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_returns_a_config_or_raises_config_error(self, value):
        for name, path in DESK_PATHS:  # the value in place of each subtree in turn
            raw = json.loads(json.dumps(changed(path, value, PROFILES[name])))  # as _read_json reads it
            try:  # a warning fails too: pyproject makes RuntimeWarning an error
                assert isinstance(PipelineConfig.from_dict(raw), PipelineConfig)
            except ConfigError:
                pass
            except Exception as exc:
                raise AssertionError(f"{name} {'.'.join(map(str, path))}: {exc!r}") from exc


class TestMeshCommand:
    def test_writes_mesh_and_manifest(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["mesh", "--config", config_path, "--out", out]) == 0
        mesh = load_mesh(out / "mesh.txt")
        assert mesh.n_vertices == 3 * 2 * 2
        manifest = json.loads((out / "mesh.manifest.json").read_text())
        assert manifest["command"] == "mesh"
        assert "mesh" in manifest["outputs"]
        assert str(out / "mesh.txt") in capsys.readouterr().out

    def test_paper_profile_mesh_has_99_vertices(self, tmp_path):
        cfg = json.loads(json.dumps(PROFILES["rpp1-desk"]))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run(["mesh", "--config", path, "--out", out]) == 0
        assert load_mesh(out / "mesh.txt").n_vertices == 99

    @pytest.mark.parametrize("roles, fixed", [({"fixed": []}, []), ({}, [0, 1, 2, 3])])
    def test_only_a_missing_role_takes_the_default(self, tmp_path, roles, fixed):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(changed(("mesh", "generator", "roles"), roles)))
        assert run(["mesh", "--config", path, "--out", tmp_path]) == 0
        assert load_mesh(tmp_path / "mesh.txt").fixed_ids.tolist() == fixed

    def test_mesh_flag_is_the_recorded_input(self, config_path, tmp_path):
        source = tmp_path / "src"
        assert run(["mesh", "--config", config_path, "--out", source]) == 0
        out = tmp_path / "run"
        assert run(["mesh", "--config", config_path, "--mesh", source / "mesh.txt",
                    "--out", out]) == 0
        manifest = json.loads((out / "mesh.manifest.json").read_text())
        digest = hashlib.sha256((source / "mesh.txt").read_bytes()).hexdigest()
        assert manifest["inputs"] == {"mesh": digest}
        assert manifest["config"]["mesh"] == {"path": str(source / "mesh.txt")}
        assert (out / "mesh.txt").read_bytes() == (source / "mesh.txt").read_bytes()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_vertex_exits_1(self, config_path, tmp_path, capsys, bad):
        source = tmp_path / "src"
        assert run(["mesh", "--config", config_path, "--out", source]) == 0
        lines = (source / "mesh.txt").read_text().splitlines()
        lines[[i for i, line in enumerate(lines) if line.startswith("v ")][5]] = f"v {bad} 0.1 0.2"
        mesh_path = tmp_path / "bad.txt"
        mesh_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["sample", "--config", config_path, "--mesh", mesh_path,
                        "--out", tmp_path / "run"]) == 1
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("error: MeshError: ") and len(err.splitlines()) == 1
        assert f"vertex 5 has non-finite coordinates [{float(bad)!r}, 0.1, 0.2]" in err

    @pytest.mark.parametrize("profile, line", [
        ("small", "error: ConfigError: sampling.regions.end: spacing must be a finite number, got inf"),
        ("rpp6-desk", "error: MeshError: spacing (25.6 mm) is not finite at 1e-320 mm per unit"),
    ])
    def test_overflowing_scale_prints_only_the_error_line(self, tmp_path, capsys, profile, line):
        base = SMALL_CONFIG if profile == "small" else PROFILES[profile]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(changed(("scale", "mm_per_unit"), 1e-320, base)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # outside pytest, each prints two lines to stderr
            assert run(["mesh", "--config", cfg_path, "--out", tmp_path]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [line]

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{\"mesh\": {}}")
        assert run(["mesh", "--config", path, "--out", tmp_path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unreadable_config_exits_1(self, tmp_path):
        assert run(["mesh", "--config", tmp_path / "missing.json", "--out", tmp_path]) == 1


class TestPipelineCommands:
    def test_sample_train_eval_chain(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["mesh", "--config", config_path, "--out", out]) == 0
        assert run(["sample", "--config", config_path, "--out", out]) == 0
        ds = load_dataset(out / "dataset.ds")
        assert ds.m == 9
        assert run(["train", "--config", config_path, "--out", out]) == 0
        assert (out / "model.json").exists()
        assert run(["eval", "--config", config_path, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["trials"]) == 2
        assert (out / "report.csv").exists()
        assert (out / "curves.csv").exists()
        err = capsys.readouterr()
        assert "mean RMSE" in err.out
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("0,0,0\n" * 3)
        assert run(["predict", "--model", out / "model.json", "--observations", obs_path,
                    "--out", out]) == 0
        # every manifest keeps the seed, worker and thread keys; workers and
        # sampling_threads are null where no sampling runs
        seed = SMALL_CONFIG["train"]["seed"]
        processes, threads = sampling.sampling_runners(load_mesh(out / "mesh.txt"), 9, 2)
        for command, manifest_seed, workers, sampled, inputs, outputs in (
            ("mesh", seed, None, None, [], ["mesh"]),
            ("sample", seed, processes, threads, ["mesh"], ["dataset"]),
            ("train", seed, None, None, ["dataset"], ["model"]),
            ("eval", seed, None, None, ["dataset"], ["curves_csv", "report_csv", "report_json"]),
            ("predict", None, None, None, ["model", "observations"], ["field_csv"]),
        ):
            manifest = json.loads((out / f"{command}.manifest.json").read_text())
            assert manifest["command"] == command
            assert (manifest["seed"], manifest["workers"], manifest["sampling_threads"]) == \
                (manifest_seed, workers, sampled)
            assert sorted(manifest["inputs"]) == inputs
            assert sorted(manifest["outputs"]) == outputs

    @pytest.mark.parametrize("mm_per_unit", [float("nan"), -256.0, float("inf")])
    def test_bad_dataset_scale_fails_before_training(self, config_path, tmp_path, capsys,
                                                     monkeypatch, mm_per_unit):
        out = tmp_path / "run"
        assert run(["mesh", "--config", config_path, "--out", out]) == 0
        assert run(["sample", "--config", config_path, "--out", out]) == 0
        rewrite_dataset_header(out / "dataset.ds", mm_per_unit=mm_per_unit)
        capsys.readouterr()

        def train(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("deformest.nn.train", train)
        assert run(["train", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DatasetError: mm_per_unit must be positive and finite")
        assert len(err.splitlines()) == 1
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_dataset_scale_beyond_the_float_range_exits_1(self, config_path, tmp_path, capsys,
                                                          command):
        # a JSON integer is a number to the header check, but not a float
        out = tmp_path / "run"
        assert run(["mesh", "--config", config_path, "--out", out]) == 0
        assert run(["sample", "--config", config_path, "--out", out]) == 0
        rewrite_dataset_header(out / "dataset.ds", mm_per_unit=10**400)
        capsys.readouterr()
        assert run([command, "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DatasetError: mm_per_unit must be positive and finite")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_sample_manifest_records_threads_per_process(self, tmp_path, workers):
        # the 12.8 mm RPP (1920 tetrahedra) samples in threads in one process
        raw = changed(("mesh", "generator"), {"kind": "rpp", "long_mm": 256.0, "short_mm": 51.2,
                                              "spacing_mm": 12.8, "roles": "single"})
        raw["sampling"]["regions"]["end"]["extents_mm"] = [5.12, 0.0, 0.0]
        path, out = tmp_path / "config.json", tmp_path / "run"
        path.write_text(json.dumps(raw))
        assert run(["mesh", "--config", path, "--out", out]) == 0
        flag = [] if workers is None else ["--workers", workers]
        assert run(["sample", "--config", path, "--out", out, *flag]) == 0
        manifest = json.loads((out / "sample.manifest.json").read_text())
        want = sampling.sampling_runners(load_mesh(out / "mesh.txt"), 2, 2, workers)
        assert (manifest["workers"], manifest["sampling_threads"]) == want
        if workers != 2 and _blas.threads("scipy") is not None:
            assert want == (1, min(2, len(os.sched_getaffinity(0))))
        elif workers == 2:
            assert want == (2, 1)

    @pytest.mark.parametrize("argv", [
        ["mesh", "--config", "c.json", "--seed", "1"],
        ["mesh", "--config", "c.json", "--workers", "2"],
        ["sample", "--config", "c.json", "--seed", "1"],
        ["train", "--config", "c.json", "--workers", "2"],
        ["eval", "--config", "c.json", "--workers", "2"],
        ["predict", "--model", "m", "--observations", "o", "--seed", "1"],
        ["predict", "--model", "m", "--observations", "o", "--workers", "2"],
    ])
    def test_flags_without_effect_are_rejected(self, argv):
        assert run(argv) == 1

    @pytest.mark.parametrize("argv, code", [
        (["sample", "--config", "c.json", "--workers", "abc"], 1),
        (["--help"], 0),
        (["sample", "--help"], 0),
    ])
    def test_usage_error_exits_1_and_help_exits_0(self, capsys, argv, code):
        assert run(argv) == code
        assert "usage: deformest" in capsys.readouterr()[code]  # help on stdout, errors on stderr

    def test_failed_samples_are_noted_and_recorded(self, tmp_path, capsys):
        # the bar is 51.2 mm long, so pushing its end 51.2 mm inwards inverts a tetrahedron
        path, out = tmp_path / "config.json", tmp_path / "run"
        path.write_text(json.dumps(changed(("sampling", "regions", "end"), {
            "mode": "box", "extents_mm": [102.4, 0.0, 0.0], "spacing_mm": 51.2})))
        assert run(["mesh", "--config", path, "--out", out]) == 0
        capsys.readouterr()
        assert run(["sample", "--config", path, "--out", out]) == 0
        assert capsys.readouterr().err.splitlines() == \
            ["note: 1 of 3 samples failed and were skipped"]
        failures = load_dataset(out / "dataset.ds").failures
        assert [(f.region, f.point_index) for f in failures] == [("end", 0)]
        assert "non-positive volume" in failures[0].reason
        assert (out / "sample.manifest.json").exists()

    def test_malformed_failure_entry_exits_1(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["mesh", "--config", config_path, "--out", out]) == 0
        assert run(["sample", "--config", config_path, "--out", out]) == 0
        rewrite_dataset_header(out / "dataset.ds", failures=[{"region": "end", "reason": "x"}])
        capsys.readouterr()
        assert run(["train", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DatasetFormatError: ") and len(err.splitlines()) == 1
        assert not (out / "model.json").exists()

    def test_bytes_after_the_last_record_exit_1(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["mesh", "--config", config_path, "--out", out]) == 0
        assert run(["sample", "--config", config_path, "--out", out]) == 0
        size = (out / "dataset.ds").stat().st_size
        with open(out / "dataset.ds", "ab") as fh:
            fh.write(bytes(8000))
        capsys.readouterr()
        assert run(["train", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DatasetFormatError: 8000 bytes after the end of the ")
        assert f"(at byte {size})" in err and len(err.splitlines()) == 1
        assert not (out / "model.json").exists()

    def test_dataset_of_another_version_exits_1(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["mesh", "--config", config_path, "--out", out]) == 0
        assert run(["sample", "--config", config_path, "--out", out]) == 0
        rewrite_dataset_header(out / "dataset.ds", version=99)
        capsys.readouterr()
        assert run(["train", "--config", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DatasetFormatError: header field version is 99, expected 1")
        assert len(err.splitlines()) == 1
        assert not (out / "model.json").exists()

    def test_six_ellipsoid_regions_sampled_at_acute_angles(self, tmp_path):
        # 411 targets x 2 steps x 240 tetrahedra: sampled in this process
        raw = changed(("fem", "n_steps"), 2, base=PROFILES["rpp6-desk"])
        path, out = tmp_path / "config.json", tmp_path / "run"
        path.write_text(json.dumps(raw))
        assert run(["mesh", "--config", path, "--out", out]) == 0
        assert run(["sample", "--config", path, "--out", out]) == 0
        assert json.loads((out / "sample.manifest.json").read_text())["workers"] == 1
        mesh, ds = load_mesh(out / "mesh.txt"), load_dataset(out / "dataset.ds")
        specs = resolve_sampling_specs(PipelineConfig.from_dict(raw), mesh)
        assert ds.regions == list(specs) == [f"c{i}" for i in range(6)] and not ds.failures
        offsets = [sampling.sample_points_for_region(mesh, name, spec)
                   - mesh.vertices[mesh.contact_regions[name]].mean(axis=0)
                   for name, spec in specs.items()]
        assert ds.m == 411 and np.array_equal(ds.target, np.concatenate(offsets))
        assert ds.region_id.tolist() == [i for i, o in enumerate(offsets) for _ in o]
        # a lattice offset in the plane perpendicular to the normal passes the
        # filter by its last bits, which point - centroid may round to zero
        for i, spec in enumerate(specs.values()):
            assert (ds.target[ds.region_id == i] @ spec.normal_filter > -1e-12).all()

    def test_six_regions_compute_the_normals_once(self, monkeypatch):
        calls = []
        normals = sampling.vertex_normals

        def counting(mesh, *args):
            calls.append(args)
            return normals(mesh, *args)

        monkeypatch.setattr(sampling, "vertex_normals", counting)
        cfg = PipelineConfig.from_dict(PROFILES["rpp6-desk"])
        mesh = build_mesh(cfg)
        specs = resolve_sampling_specs(cfg, mesh)
        assert list(specs) == [f"c{i}" for i in range(6)] and len(calls) == 1
        assert resolve_sampling_specs(cfg, mesh) == specs and len(calls) == 1
        # another mesh computes its own, to the same specs
        assert resolve_sampling_specs(cfg, build_mesh(cfg)) == specs and len(calls) == 2

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_worker_count_below_one_exits_1(self, config_path, tmp_path, capsys, workers):
        out = tmp_path / "run"
        assert run(["mesh", "--config", config_path, "--out", out]) == 0
        assert run(["sample", "--config", config_path, "--out", out, "--workers", workers]) == 1
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not (out / "dataset.ds").exists()

    @pytest.mark.parametrize("exc", [BrokenProcessPool("a worker died"),
                                     MemoryError("cannot allocate")])
    def test_pool_or_memory_failure_exits_2(self, config_path, tmp_path, capsys, monkeypatch,
                                            exc):
        out = tmp_path / "run"
        assert run(["mesh", "--config", config_path, "--out", out]) == 0

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(sampling, "build_dataset", fail)
        assert run(["sample", "--config", config_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: {type(exc).__name__}: {exc}" in err
        assert "Traceback" not in err

    def test_eval_refuses_foreign_mesh(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        run(["mesh", "--config", config_path, "--out", out])
        run(["sample", "--config", config_path, "--out", out])
        # build a different mesh to provoke the mismatch
        other_cfg = json.loads(json.dumps(SMALL_CONFIG))
        other_cfg["mesh"]["generator"]["long_mm"] = 76.8
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other_cfg))
        out2 = tmp_path / "other"
        run(["mesh", "--config", other_path, "--out", out2])
        code = run(["eval", "--config", config_path, "--out", out,
                    "--mesh", out2 / "mesh.txt"])
        assert code == 1
        assert "mesh hash mismatch" in capsys.readouterr().err

    def test_hidden_null_sizes_layers_by_free_vertices(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(changed(("train", "hidden"), None)))
        out = tmp_path / "run"
        for stage in ("mesh", "sample", "train"):
            assert run([stage, "--config", path, "--out", out]) == 0
        n_free = load_dataset(out / "dataset.ds").n_free
        model = json.loads((out / "model.json").read_text())
        assert model["layer_sizes"][1:3] == [n_free, n_free]
        assert model["train_config"]["hidden"] is None

    def test_diverging_training_exits_1_without_model(self, tmp_path, capsys):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["train"]["gamma"] = 1e-300
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        run(["mesh", "--config", path, "--out", out])
        run(["sample", "--config", path, "--out", out])
        with np.errstate(all="ignore"):
            assert run(["train", "--config", path, "--out", out]) == 1
        assert not (out / "model.json").exists()
        assert "epoch 1" in capsys.readouterr().err

    @pytest.mark.parametrize("runners", [1, 2])
    def test_diverging_eval_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                        runners):
        monkeypatch.setattr(_blas, "runners", lambda package, n: runners)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(changed(("train", "gamma"), 1e-300)))
        out = tmp_path / "run"
        run(["mesh", "--config", path, "--out", out])
        run(["sample", "--config", path, "--out", out])
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert run(["eval", "--config", path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == \
            err.splitlines()
        assert len(err.splitlines()) == 1 and "epoch 1" in err
        assert not (out / "report.json").exists()

    def test_seed_override_changes_model(self, config_path, tmp_path):
        out = tmp_path / "run"
        run(["mesh", "--config", config_path, "--out", out])
        run(["sample", "--config", config_path, "--out", out])
        run(["train", "--config", config_path, "--out", out])
        first = (out / "model.json").read_bytes()
        run(["train", "--config", config_path, "--out", out, "--seed", "99"])
        second = (out / "model.json").read_bytes()
        assert first != second
        meta = json.loads(second)
        assert meta["train_config"]["seed"] == 99

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        blobs = []
        for name in ("one", "two"):
            out = tmp_path / name
            run(["mesh", "--config", config_path, "--out", out])
            run(["sample", "--config", config_path, "--out", out])
            run(["train", "--config", config_path, "--out", out])
            run(["eval", "--config", config_path, "--out", out])
            blobs.append(
                tuple(
                    (out / f).read_bytes()
                    for f in ("mesh.txt", "dataset.ds", "model.json",
                              "report.json", "report.csv", "curves.csv")
                )
            )
        assert blobs[0] == blobs[1]


class TestPredictCommand:
    def test_zero_model_zero_field(self, tmp_path, capsys):
        model = MlpModel(
            w_hidden1=np.zeros((4, 7)), w_hidden2=np.zeros((4, 5)), w_out=np.zeros((9, 5))
        )
        model_path = tmp_path / "model.json"
        save_model(model, model_path, mm_per_unit=256.0)
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("dx_mm,dy_mm,dz_mm\n0,0,0\n0,0,0\n")
        out = tmp_path / "run"
        assert run(["predict", "--model", model_path, "--observations", obs_path,
                    "--out", out]) == 0
        lines = (out / "field.csv").read_text().splitlines()
        assert lines[0] == "vertex,dx_mm,dy_mm,dz_mm"
        assert len(lines) == 1 + 3  # 9 outputs = 3 vertices
        for line in lines[1:]:
            assert [float(v) for v in line.split(",")[1:]] == [0.0, 0.0, 0.0]

    def test_wrong_observation_count_exits_1(self, tmp_path, capsys):
        model = MlpModel(
            w_hidden1=np.zeros((4, 7)), w_hidden2=np.zeros((4, 5)), w_out=np.zeros((9, 5))
        )
        model_path = tmp_path / "model.json"
        save_model(model, model_path, mm_per_unit=256.0)
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("0,0,0\n")
        assert run(["predict", "--model", model_path, "--observations", obs_path,
                    "--out", tmp_path]) == 1
        assert "observation CSV" in capsys.readouterr().err

    def test_unparseable_row_exits_1(self, tmp_path, capsys):
        model = MlpModel(
            w_hidden1=np.zeros((4, 7)), w_hidden2=np.zeros((4, 5)), w_out=np.zeros((9, 5))
        )
        model_path = tmp_path / "model.json"
        save_model(model, model_path, mm_per_unit=256.0)
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("1,2,3\n1,2,oops\n4,5,6\n")
        assert run(["predict", "--model", model_path, "--observations", obs_path,
                    "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and f"{obs_path}:2" in err
        assert not (tmp_path / "field.csv").exists()

    def test_short_row_exits_1(self, tmp_path, capsys):
        model = MlpModel(
            w_hidden1=np.zeros((4, 7)), w_hidden2=np.zeros((4, 5)), w_out=np.zeros((9, 5))
        )
        model_path = tmp_path / "model.json"
        save_model(model, model_path, mm_per_unit=256.0)
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("dx_mm,dy_mm,dz_mm\n1,2,3\n1,2\n")
        assert run(["predict", "--model", model_path, "--observations", obs_path,
                    "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and f"{obs_path}:3" in err and "dx_mm,dy_mm,dz_mm" in err
        assert not (tmp_path / "field.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: {k: v for k, v in d.items() if k != "w_out"}, "lacks w_out"),
        (lambda d: {**d, "w_out": [0.0] * 5}, "inconsistent layer shapes"),
        (lambda d: {**d, "w_out": [[0.0] * 5, [0.0] * 4]}, "inhomogeneous"),
        (lambda d: [d], "not a model file"),
        (lambda d: {**d, "w_out": [{"": "x"}]}, "not 'dict'"),
        (lambda d: {**d, "layer_sizes": None}, "layer_sizes do not match"),
    ], ids=["missing", "vector", "ragged", "not-object", "object-row", "null-layer-sizes"])
    def test_malformed_model_file_exits_1(self, tmp_path, capsys, edit, message):
        model = MlpModel(
            w_hidden1=np.zeros((4, 7)), w_hidden2=np.zeros((4, 5)), w_out=np.zeros((9, 5))
        )
        model_path = tmp_path / "model.json"
        save_model(model, model_path, mm_per_unit=256.0)
        model_path.write_text(json.dumps(edit(json.loads(model_path.read_text()))))
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("0,0,0\n0,0,0\n")
        assert run(["predict", "--model", model_path, "--observations", obs_path,
                    "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {model_path}: ") and message in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "field.csv").exists()

    @pytest.mark.parametrize("mm_per_unit",
                             [-256.0, 0.0, float("inf"), float("nan"), [256.0], True])
    def test_bad_mm_per_unit_exits_1(self, tmp_path, capsys, mm_per_unit):
        model = MlpModel(
            w_hidden1=np.zeros((4, 7)), w_hidden2=np.zeros((4, 5)), w_out=np.zeros((9, 5))
        )
        model_path = tmp_path / "model.json"
        save_model(model, model_path, mm_per_unit=mm_per_unit)
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("0,0,0\n0,0,0\n")
        assert run(["predict", "--model", model_path, "--observations", obs_path,
                    "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError") and "mm_per_unit must be positive" in err
        assert not (tmp_path / "field.csv").exists()

    def test_predict_with_mesh_writes_vtk(self, config_path, tmp_path):
        out = tmp_path / "run"
        run(["mesh", "--config", config_path, "--out", out])
        run(["sample", "--config", config_path, "--out", out])
        run(["train", "--config", config_path, "--out", out])
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("\n".join(["1.0,0.5,-0.25"] * 3) + "\n")
        assert run(["predict", "--model", out / "model.json",
                    "--observations", obs_path, "--mesh", out / "mesh.txt",
                    "--out", out]) == 0
        vtk = (out / "field.vtk").read_text()
        assert "UNSTRUCTURED_GRID" in vtk
        assert "estimated_disp_mm" in vtk

    def test_predict_refuses_wrong_mesh(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        run(["mesh", "--config", config_path, "--out", out])
        run(["sample", "--config", config_path, "--out", out])
        run(["train", "--config", config_path, "--out", out])
        other_cfg = json.loads(json.dumps(SMALL_CONFIG))
        other_cfg["mesh"]["generator"]["long_mm"] = 76.8
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other_cfg))
        out2 = tmp_path / "other"
        run(["mesh", "--config", other_path, "--out", out2])
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("\n".join(["0,0,0"] * 3) + "\n")
        assert run(["predict", "--model", out / "model.json",
                    "--observations", obs_path, "--mesh", out2 / "mesh.txt",
                    "--out", out]) == 1
        assert "mesh hash mismatch" in capsys.readouterr().err


class TestReproCommand:
    def test_unknown_profile_rejected_by_parser(self, tmp_path):
        assert run(["repro", "--profile", "nope", "--out", tmp_path]) == 1

    def test_liver_profile_requires_mesh(self, tmp_path, capsys):
        assert run(["repro", "--profile", "liver1-paper", "--out", tmp_path]) == 1
        assert "needs a mesh file" in capsys.readouterr().err

    def test_env_var_out_dir(self, config_path, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("DEFORMEST_OUT", str(target))
        assert run(["mesh", "--config", config_path]) == 0
        assert (target / "mesh.txt").exists()
