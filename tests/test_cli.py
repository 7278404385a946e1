import json

import numpy as np
import pytest

from deformest.cli import PROFILES, ConfigError, PipelineConfig, main, resolve_sampling_specs
from deformest.mesh import load_mesh
from deformest.nn import MlpModel, save_model
from deformest.sampling import load_dataset

from conftest import make_blob_mesh

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


class TestConfig:
    def test_valid_config_parses(self):
        cfg = PipelineConfig.from_dict(SMALL_CONFIG)
        assert cfg.n_steps == 2
        assert cfg.hidden == (8, 8)
        assert cfg.eval_k == 2

    def test_problems_are_collected(self):
        broken = json.loads(json.dumps(SMALL_CONFIG))
        broken["material"]["poisson_ratio"] = 0.7
        broken["eval"]["k"] = 1
        del broken["sampling"]["regions"]["end"]["spacing_mm"]
        with pytest.raises(ConfigError) as err:
            PipelineConfig.from_dict(broken)
        message = str(err.value)
        assert "poisson_ratio" in message
        assert "eval.k" in message
        assert "spacing_mm" in message

    def test_mesh_source_required(self):
        broken = json.loads(json.dumps(SMALL_CONFIG))
        broken["mesh"] = {}
        with pytest.raises(ConfigError, match="mesh section"):
            PipelineConfig.from_dict(broken)

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
        # every manifest keeps both keys; workers is null where the flag is absent
        for command, workers in (("mesh", None), ("sample", 1), ("train", None), ("eval", None)):
            manifest = json.loads((out / f"{command}.manifest.json").read_text())
            assert manifest["workers"] == workers
            assert manifest["seed"] == SMALL_CONFIG["train"]["seed"]

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
        with pytest.raises(SystemExit):
            run(argv)

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
        with pytest.raises(SystemExit):
            run(["repro", "--profile", "nope", "--out", tmp_path])

    def test_liver_profile_requires_mesh(self, tmp_path, capsys):
        assert run(["repro", "--profile", "liver1-paper", "--out", tmp_path]) == 1
        assert "needs a mesh file" in capsys.readouterr().err

    def test_env_var_out_dir(self, config_path, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("DEFORMEST_OUT", str(target))
        assert run(["mesh", "--config", config_path]) == 0
        assert (target / "mesh.txt").exists()
