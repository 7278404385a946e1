"""Command-line pipeline: mesh, sample, train, eval, predict, repro.

``main`` reads each subcommand's JSON config once (``--config``; ``repro``
takes a named profile, ``predict`` none), applies ``--mesh`` and ``--seed``,
and writes the Record the command returns as ``<command>.manifest.json``
next to its artifacts: the config snapshot, seed, input/output content
hashes, timing, and the sampling worker and thread counts. Artifacts
themselves contain no timestamps, so identical config + seed reproduce
byte-identical files.

Output directory precedence: ``--out`` flag, then the config's ``out_dir``,
then the ``DEFORMEST_OUT`` environment variable, then the working directory.

Exit codes: 0 success, 1 invalid config/input or usage, 2 solver or runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import evaluation, nn, sampling
from .fem import FemError, MaterialParams, elasticity_matrix
from .mesh import (
    MeshError,
    ScaleConvention,
    TetMesh,
    _count,
    _finite_number,
    _is_integer,
    _lattice_count,
    generate_rpp,
    load_mesh,
    rpp6_contact_specs,
    save_mesh,
)
from .sampling import SamplingSpec

ENV_OUT = "DEFORMEST_OUT"

__all__ = ["main", "PipelineConfig", "ConfigError", "PROFILES"]


class ConfigError(ValueError):
    """Invalid pipeline configuration; message lists every problem found."""


# ---------------------------------------------------------------------------
# Reproduction profiles
# ---------------------------------------------------------------------------
# "-paper" profiles carry the original full-scale study settings (hours of
# sampling); "-desk" profiles shrink sampling density, step count, and epochs
# to minutes while keeping the same pipeline. The liver profile needs an
# externally supplied mesh file (patient meshes are not distributable).

PROFILES: dict = {
    "rpp1-desk": {
        "mesh": {"generator": {"kind": "rpp", "long_mm": 256.0, "short_mm": 51.2,
                               "spacing_mm": 25.6, "roles": "single"}},
        "material": {"young_modulus_pa": 1.0e6, "poisson_ratio": 0.40},
        "scale": {"mm_per_unit": 256.0},
        "fem": {"n_steps": 100},
        "sampling": {"regions": {"end": {"mode": "box",
                                         "extents_mm": [204.8, 204.8, 102.4],
                                         "spacing_mm": 20.48}}},
        "train": {"epochs": 20, "batch_size": 100, "inner_iters": 10, "gamma": 50.0,
                  "lambdas": [0.1, 0.1, 0.1], "seed": 0, "log_every": 100,
                  "hidden": [90, 90]},
        "eval": {"k": 5, "repeats": 1},
    },
    "rpp1-paper": {
        "mesh": {"generator": {"kind": "rpp", "long_mm": 256.0, "short_mm": 51.2,
                               "spacing_mm": 25.6, "roles": "single"}},
        "material": {"young_modulus_pa": 1.0e6, "poisson_ratio": 0.40},
        "scale": {"mm_per_unit": 256.0},
        "fem": {"n_steps": 1000},
        "sampling": {"regions": {"end": {"mode": "box",
                                         "extents_mm": [204.8, 204.8, 102.4],
                                         "spacing_mm": 5.12}}},
        "train": {"epochs": 100, "batch_size": 1000, "inner_iters": 10, "gamma": 50.0,
                  "lambdas": [0.1, 0.1, 0.1], "seed": 0, "log_every": 100,
                  "hidden": [90, 90]},
        "eval": {"k": 5, "repeats": 10},
        # full-scale reference results for this setup, for comparison only
        "reference": {"mean_rmse_mm": 0.114, "mean_rmse_pct": 0.074,
                      "mean_max_lpe_mm": 0.332, "max_displacement_mm": 153.6},
    },
    "rpp6-desk": {
        "mesh": {"generator": {"kind": "rpp", "long_mm": 256.0, "short_mm": 51.2,
                               "spacing_mm": 25.6, "roles": "six"}},
        "material": {"young_modulus_pa": 1.0e6, "poisson_ratio": 0.40},
        "scale": {"mm_per_unit": 256.0},
        "fem": {"n_steps": 100},
        "sampling": {"regions": {
            name: {"mode": "ellipsoid", "r_para_ratio": 0.05, "r_perp_ratio": 0.2,
                   "spacing_ratio": 0.04, "normal_filter": "auto"}
            for name in ("c0", "c1", "c2", "c3", "c4", "c5")
        }},
        "train": {"epochs": 20, "batch_size": 100, "inner_iters": 10, "gamma": 50.0,
                  "lambdas": [0.1, 0.1, 0.1], "seed": 0, "log_every": 100,
                  "hidden": [90, 90]},
        "eval": {"k": 5, "repeats": 1},
    },
    "liver1-paper": {
        "mesh": {"path": None},  # supply a mesh file via config or --mesh
        "material": {"young_modulus_pa": 1.0e6, "poisson_ratio": 0.40},
        "scale": {"mm_per_unit": 256.0},
        "fem": {"n_steps": 1000},
        "sampling": {"regions": {"grab": {"mode": "ellipsoid", "r_para_ratio": 0.2,
                                          "r_perp_ratio": 0.3, "spacing_ratio": 0.01,
                                          "normal_filter": "auto",
                                          "reference_length": "diameter"}}},
        "train": {"epochs": 100, "batch_size": 500, "inner_iters": 40, "gamma": 50.0,
                  "lambdas": [0.1, 0.1, 0.1], "seed": 0, "log_every": 100,
                  "hidden": None},  # None: use the free-vertex count
        "eval": {"k": 5, "repeats": 10},
        # full-scale reference results for this setup, for comparison only
        "reference": {"mean_rmse_mm": 0.041, "mean_rmse_pct": 0.062,
                      "mean_max_lpe_mm": 0.166, "max_displacement_mm": 66.4},
    },
}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# The keys each config object may hold; train's are TrainConfig's to check.
_SECTION_KEYS = {"scale": {"mm_per_unit"}, "material": {"young_modulus_pa", "poisson_ratio"},
                 "fem": {"n_steps"}, "sampling": {"regions"}, "train": None,
                 "eval": {"k", "repeats"}, "mesh": {"generator", "path"}}
_TOP_KEYS = {*_SECTION_KEYS, "out_dir", "reference"}  # the paper profiles carry a reference
_REGION_KEYS = {"box": {"mode", "extents_mm", "spacing_mm"},
                "ellipsoid": {"mode", "r_para_ratio", "r_perp_ratio", "spacing_ratio",
                              "normal_filter", "reference_length"}}
_GENERATOR_KEYS = {"kind", "long_mm", "short_mm", "spacing_mm", "roles"}
_ROLE_KEYS = {"fixed", "observations", "contacts"}


@dataclass
class PipelineConfig:
    """A checked pipeline config; from_dict is the only code that reads the raw JSON."""

    raw: dict
    scale: ScaleConvention
    material: MaterialParams
    n_steps: int
    region_specs: dict          # region name -> box SamplingSpec, or ellipsoid_spec_for_region kwargs
    train: nn.TrainConfig
    eval_k: int
    eval_repeats: int
    mesh_generator: dict | None  # generate_rpp keyword arguments but scale; lengths in mm
    mesh_path: str | None
    out_dir: str | None

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {raw!r}")
        problems = [f"unknown key {key}" for key in raw if key not in _TOP_KEYS]

        def obj(value, where, keys=None):
            """value when it is a JSON object; otherwise a problem, and {}.

            Each key of the object outside keys, when given, is a problem too.
            """
            if not isinstance(value, dict):
                problems.append(f"{where} must be a JSON object, got {value!r}")
                return {}
            problems.extend(f"unknown key {where}.{key}" for key in value
                            if keys is not None and key not in keys)
            return value

        def number(parent, where, key, default=None, least=None):
            """parent[key], a finite JSON number, as a float; default when absent or wrong.

            A default of None makes the key required. With least, the value is
            a count of at least least, as mesh._count takes it, and an int.
            """
            value = parent.get(key, default)
            try:
                if least is not None:
                    return _count(value, least, f"{where}.{key}")
                if _finite_number(value):
                    return float(value)
                raise ValueError(f"{where}.{key} must be a number, got {value!r}")
            except ValueError as exc:
                problems.append(str(exc) if key in parent else f"missing {where}.{key}")
                return default

        def triples(value, where):
            """value as a list of (ix, iy, iz) tuples; otherwise a problem, and []."""
            if isinstance(value, list) and all(isinstance(c, list) and len(c) == 3
                                               and all(map(_is_integer, c)) for c in value):
                return [tuple(map(int, c)) for c in value]
            problems.append(f"{where} must be a list of [ix, iy, iz] integer triples, got {value!r}")
            return []

        def build(where, make, *args, **kwargs):
            """make(*args, **kwargs), or None and a problem when it rejects them."""
            try:
                return make(*args, **kwargs)
            except (TypeError, ValueError) as exc:
                problems.append(f"{where}: {exc}")
                return None

        sec = {name: obj(raw.get(name, {}), name, keys) for name, keys in _SECTION_KEYS.items()}
        scale = build("scale", ScaleConvention, number(sec["scale"], "scale", "mm_per_unit", 256.0))
        # a wrong scale is already a problem; any scale then serves to check the rest
        to_units = (scale or ScaleConvention()).to_units
        material = build("material", MaterialParams,
                         young_modulus=number(sec["material"], "material", "young_modulus_pa", 1.0e6),
                         poisson_ratio=number(sec["material"], "material", "poisson_ratio", 0.40))

        n_steps = number(sec["fem"], "fem", "n_steps", 1000, least=1)

        regions = {}
        if not sec["sampling"].get("regions"):
            problems.append("missing sampling.regions")
        for name, spec in obj(sec["sampling"].get("regions", {}), "sampling.regions").items():
            where = f"sampling.regions.{name}"
            mode = spec.get("mode") if isinstance(spec, dict) else None
            obj(spec, where, _REGION_KEYS.get(mode) if isinstance(mode, str) else None)
            if mode == "box":
                spacing = number(spec, where, "spacing_mm")
                extents = spec.get("extents_mm")
                if not (isinstance(extents, list) and len(extents) == 3
                        and all(map(_finite_number, extents))):
                    problems.append(f"{where}.extents_mm must be three numbers, got {extents!r}")
                elif spacing is not None:
                    regions[name] = build(where, SamplingSpec, mode="box",
                                          extents=tuple(to_units(extents).tolist()),
                                          spacing=float(to_units(spacing)))
            elif mode == "ellipsoid":
                # ellipsoid_spec_for_region resolves "auto" and "diameter" on the mesh
                ratios = {key: number(spec, where, key)
                          for key in ("r_para_ratio", "r_perp_ratio", "spacing_ratio")}
                ref = spec.get("reference_length")
                if ref not in (None, "diameter"):
                    ref = number(spec, where, "reference_length", 1.0)  # mm; 1.0 after a problem
                normal_filter = spec.get("normal_filter", "auto")
                regions[name] = {**ratios, "normal_filter": normal_filter, "reference_length":
                                 float(to_units(ref)) if isinstance(ref, float) else ref}
                if None not in ratios.values():  # the spec at a unit reference length
                    build(where, SamplingSpec, mode="ellipsoid", spacing=ratios["spacing_ratio"],
                          r_para=ratios["r_para_ratio"], r_perp=ratios["r_perp_ratio"],
                          normal_filter=None if normal_filter == "auto" else normal_filter,
                          reference_length=ref if isinstance(ref, float) else None)
            elif isinstance(spec, dict):
                problems.append(f"region {name!r}: unknown mode {mode!r}")

        train = build("train", nn.TrainConfig.from_dict, sec["train"])

        eval_k = number(sec["eval"], "eval", "k", 5, least=2)
        eval_repeats = number(sec["eval"], "eval", "repeats", 1, least=1)

        generator = None
        gen = sec["mesh"].get("generator")
        mesh_path = sec["mesh"].get("path")
        if gen is None and not mesh_path:
            problems.append("mesh section needs either a generator or a path")
        if gen is not None:
            kind = obj(gen, "mesh.generator", _GENERATOR_KEYS).get("kind")
            if kind == "rpp":
                size = {key: number(gen, "mesh.generator", key)
                        for key in ("long_mm", "short_mm", "spacing_mm")}
                generator = dict(zip(("long_side_mm", "short_side_mm", "spacing_mm"), size.values()))
                # the lattice counts check the lengths now, not when the mesh is built
                cells = None not in size.values() and build("mesh.generator", lambda: [
                    _lattice_count(size[key], size["spacing_mm"], key) for key in ("long_mm", "short_mm")])
                roles = gen.get("roles", "single")
                if roles == "six":
                    if cells:
                        nx, ny = (c + 1 for c in cells)
                        generator["contact_specs"] = rpp6_contact_specs(nx, ny, ny)
                elif isinstance(roles, dict):
                    # a missing role keeps the default_rpp_roles choice; an empty list means none
                    where = "mesh.generator.roles"
                    obj(roles, where, _ROLE_KEYS)
                    for key, arg in (("fixed", "fixed_spec"), ("observations", "observation_spec")):
                        if key in roles:
                            generator[arg] = triples(roles[key], f"{where}.{key}")
                    if "contacts" in roles:
                        generator["contact_specs"] = {
                            region: triples(ids, f"{where}.contacts.{region}")
                            for region, ids in obj(roles["contacts"], f"{where}.contacts").items()}
                elif roles != "single":
                    problems.append(f"mesh.generator.roles must be 'single', 'six', or a mapping, got {roles!r}")
            elif isinstance(gen, dict):
                problems.append(f"unknown mesh generator kind {kind!r}")
        for where, value in (("mesh.path", mesh_path), ("out_dir", raw.get("out_dir"))):
            if value is not None and not isinstance(value, str):
                problems.append(f"{where} must be a string, got {value!r}")

        if problems:
            raise ConfigError("; ".join(problems))
        return cls(
            raw=raw,
            scale=scale,
            material=material,
            n_steps=n_steps,
            region_specs=regions,
            train=train,
            eval_k=eval_k,
            eval_repeats=eval_repeats,
            mesh_generator=generator,
            mesh_path=mesh_path,
            out_dir=raw.get("out_dir"),
        )


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None


def build_mesh(cfg: PipelineConfig) -> TetMesh:
    """The mesh file at mesh.path, or else the generated RPP mesh."""
    if cfg.mesh_path:
        return load_mesh(cfg.mesh_path)
    return generate_rpp(**cfg.mesh_generator, scale=cfg.scale)


def resolve_sampling_specs(cfg: PipelineConfig, mesh: TetMesh) -> dict:
    """The config's regions as simulation-unit SamplingSpecs on this mesh."""
    return {name: spec if isinstance(spec, SamplingSpec)
            else sampling.ellipsoid_spec_for_region(mesh, name, **spec)
            for name, spec in cfg.region_specs.items()}


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Record:
    """What a command returns for its manifest; inputs and outputs are {name: file}."""

    config: dict
    seed: int | None
    inputs: dict
    outputs: dict
    workers: int | None = None
    sampling_threads: int | None = None


def write_manifest(out_dir: Path, command: str, record: Record, elapsed: float) -> Path:
    doc = {
        **vars(record),
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_s": round(elapsed, 3),
        "inputs": {str(k): _sha256(v) for k, v in record.inputs.items()},
        "outputs": {str(k): _sha256(v) for k, v in record.outputs.items()},
    }
    path = out_dir / f"{command}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _command_config(args) -> PipelineConfig | None:
    """--config's (repro: --profile's) config with --mesh and --seed applied; None for predict."""
    if args.command == "predict":
        return None
    if args.command == "repro":
        raw = PROFILES[args.profile]
        if not (args.mesh or raw["mesh"].get("generator")):
            raise ConfigError(f"profile {args.profile!r} needs a mesh file: pass --mesh")
    else:
        raw = _read_json(args.config)
    if args.command in ("mesh", "repro") and args.mesh and isinstance(raw, dict):
        raw = {**raw, "mesh": {"path": str(args.mesh)}}
    cfg = PipelineConfig.from_dict(raw)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    return cfg


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def mesh_stage(cfg: PipelineConfig, out: Path):
    """Build (or load) the mesh and write <out>/mesh.txt; returns (mesh, path)."""
    mesh = build_mesh(cfg)
    path = out / "mesh.txt"
    save_mesh(mesh, path)
    return mesh, path


def sample_stage(cfg: PipelineConfig, mesh: TetMesh, out: Path, workers: int | None):
    """Run the FEM over the sampling lattice and write <out>/dataset.ds; returns (dataset, path)."""
    dataset = sampling.build_dataset(
        mesh,
        elasticity_matrix(cfg.material),
        resolve_sampling_specs(cfg, mesh),
        n_steps=cfg.n_steps,
        scale=cfg.scale,
        workers=workers,
    )
    if dataset.failures:
        print(f"note: {len(dataset.failures)} of {dataset.m + len(dataset.failures)} "
              "samples failed and were skipped", file=sys.stderr)
    path = out / "dataset.ds"
    sampling.save_dataset(dataset, path)
    return dataset, path


def train_stage(cfg: PipelineConfig, dataset, out: Path) -> Path:
    """Train one estimator on the whole dataset and write <out>/model.json."""
    model, log = nn.train(dataset, np.arange(dataset.m), cfg.train)
    train_rmse = evaluation.rmse(
        nn.forward_batch(model, dataset.inputs()).outputs,
        dataset.targets(),
        ScaleConvention(mm_per_unit=dataset.mm_per_unit),
    )
    path = out / "model.json"
    nn.save_model(
        model,
        path,
        observation_ids=dataset.observation_ids,
        mesh_hash=dataset.mesh_hash,
        mm_per_unit=dataset.mm_per_unit,
        train_config=cfg.train,
        metrics={"train_rmse_mm": train_rmse, "final_cost": log.epoch_mean_cost[-1]},
    )
    return path


def eval_stage(cfg: PipelineConfig, dataset, out: Path) -> dict:
    """Cross-validate, then write and summarize the report files; returns {name: path}."""
    report = evaluation.run_session(dataset, cfg.train, k=cfg.eval_k, n_repeats=cfg.eval_repeats)
    outputs = {}
    for name, writer in (
        ("report.json", evaluation.report_to_json),
        ("report.csv", evaluation.report_to_csv),
        ("curves.csv", evaluation.curves_to_csv),
    ):
        path = out / name
        writer(report, path)
        outputs[name.replace(".", "_")] = path
    print(out / "report.json")
    print(f"mean RMSE: {report.mean_rmse_mm:.4f} mm ({report.mean_rmse_pct:.4f} % "
          f"of {report.max_displacement_mm:.1f} mm max displacement)")
    return outputs


# Each cmd_* takes the parsed flags, the config main read for it (None for
# predict) and the output directory, and returns the Record its manifest keeps.

def cmd_mesh(args, cfg, out):
    _, path = mesh_stage(cfg, out)
    print(path)
    inputs = {"mesh": cfg.mesh_path} if cfg.mesh_path else {}
    return Record(cfg.raw, cfg.train.seed, inputs, {"mesh": path})


def cmd_sample(args, cfg, out):
    mesh_path = args.mesh or (out / "mesh.txt")
    dataset, path = sample_stage(cfg, load_mesh(mesh_path), out, args.workers)
    print(path)
    return Record(cfg.raw, cfg.train.seed, {"mesh": mesh_path}, {"dataset": path},
                  *dataset.runners)


def cmd_train(args, cfg, out):
    dataset_path = args.dataset or (out / "dataset.ds")
    path = train_stage(cfg, sampling.load_dataset(dataset_path), out)
    print(path)
    return Record(cfg.raw, cfg.train.seed, {"dataset": dataset_path}, {"model": path})


def cmd_eval(args, cfg, out):
    dataset_path = args.dataset or (out / "dataset.ds")
    dataset = sampling.load_dataset(dataset_path)
    if args.mesh:
        dataset.require_mesh(load_mesh(args.mesh))
    return Record(cfg.raw, cfg.train.seed, {"dataset": dataset_path},
                  eval_stage(cfg, dataset, out))


def _read_observation_csv(path, n_obs: int) -> np.ndarray:
    """Rows of dx_mm,dy_mm,dz_mm; only the first nonblank line may be a header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    rows = []
    for i, (lineno, line) in enumerate(lines):
        try:
            row = [float(p) for p in line.split(",")]
        except ValueError:
            if i > 0:
                raise ConfigError(
                    f"observation CSV {path}:{lineno}: not a row of numbers: {line!r}"
                ) from None
            continue
        if len(row) != 3:
            raise ConfigError(
                f"observation CSV {path}:{lineno}: {len(row)} values, expected 3 "
                f"(dx_mm,dy_mm,dz_mm): {line!r}"
            )
        rows.append(row)
    arr = np.asarray(rows, dtype=float)
    if arr.shape != (n_obs, 3):
        raise ConfigError(
            f"observation CSV {path} must contain {n_obs} rows of dx_mm,dy_mm,dz_mm; "
            f"got shape {arr.shape}"
        )
    return arr


def cmd_predict(args, cfg, out):
    model, meta = nn.load_model(args.model)
    try:
        scale = ScaleConvention(256.0 if meta["mm_per_unit"] is None else meta["mm_per_unit"])
    except MeshError as exc:
        raise ConfigError(f"{args.model}: {exc}") from None
    mm_per_unit = scale.mm_per_unit
    n_obs = model.layer_sizes[0] // 3
    obs_mm = _read_observation_csv(args.observations, n_obs)
    field_units = nn.predict(model, scale.to_units(obs_mm))
    field_mm = field_units * mm_per_unit

    csv_path = out / "field.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("vertex,dx_mm,dy_mm,dz_mm\n")
        for i, row in enumerate(field_mm):
            fh.write(f"{i},{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}\n")
    outputs = {"field_csv": csv_path}

    if args.mesh:
        mesh = load_mesh(args.mesh)
        if meta.get("mesh_hash") and mesh.content_hash() != meta["mesh_hash"]:
            raise ConfigError(
                "mesh hash mismatch: the model was trained on a different mesh"
            )
        full = mesh.expand_free(field_units)
        vtk_path = out / "field.vtk"
        evaluation.export_vtk(
            vtk_path,
            mesh,
            point_scalars={"estimated_disp_mm": np.linalg.norm(full, axis=1) * mm_per_unit},
            displacements=full,
            title="estimated deformation",
        )
        outputs["field_vtk"] = vtk_path

    print(csv_path)
    return Record({"model": str(args.model)}, None,
                  {"model": args.model, "observations": args.observations}, outputs)


def cmd_repro(args, cfg, out):
    mesh, mesh_path = mesh_stage(cfg, out)
    dataset, dataset_path = sample_stage(cfg, mesh, out, args.workers)
    model_path = train_stage(cfg, dataset, out)
    report_paths = eval_stage(cfg, dataset, out)
    return Record(cfg.raw, cfg.train.seed, {"mesh": cfg.mesh_path} if cfg.mesh_path else {},
                  {"mesh": mesh_path, "dataset": dataset_path, "model": model_path,
                   **report_paths}, *dataset.runners)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deformest",
        description="FEM deformation datasets and neural field estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate or convert the mesh")
    p.add_argument("--mesh", default=None, help="load this mesh file instead of generating")
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("sample", help="run the FEM over the sampling lattice")
    p.add_argument("--mesh", default=None, help="mesh file (default: <out>/mesh.txt)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("train", help="train one estimator on the full dataset")
    p.add_argument("--dataset", default=None, help="dataset file (default: <out>/dataset.ds)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="cross-validated evaluation session")
    p.add_argument("--dataset", default=None, help="dataset file (default: <out>/dataset.ds)")
    p.add_argument("--mesh", default=None, help="verify the dataset against this mesh")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="estimate a field from observation displacements")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--observations", required=True,
                   help="CSV of dx_mm,dy_mm,dz_mm rows, one per observation point")
    p.add_argument("--mesh", default=None, help="also write a VTK of the deformed mesh")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("repro", help="full pipeline from a named profile")
    p.add_argument("--profile", required=True, choices=sorted(PROFILES))
    p.add_argument("--mesh", default=None, help="mesh file for profiles that need one")
    p.set_defaults(fn=cmd_repro)

    for name, p in sub.choices.items():
        if name not in ("predict", "repro"):  # main reads the config of every other command
            p.add_argument("--config", required=True, help="pipeline config (JSON)")
        p.add_argument("--out", default=None, help=f"output directory (or ${ENV_OUT})")
    for name in ("train", "eval", "repro"):
        sub.choices[name].add_argument("--seed", type=int, default=None,
                                       help="override the training seed")
    for name in ("sample", "repro"):
        sub.choices[name].add_argument("--workers", type=int, default=None,
                                       help="sampling processes: 1 samples in this process, "
                                            "on up to two threads; N > 1 runs N "
                                            "processes of one thread each; by default chosen "
                                            "from the lattice and mesh size")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error is invalid input; --help exits 0
        return 1 if exc.code else 0
    t0 = time.time()
    try:
        cfg = _command_config(args)
        out = Path(args.out or (cfg.out_dir if cfg else None) or os.environ.get(ENV_OUT) or ".")
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(out, args.command, args.fn(args, cfg, out), time.time() - t0)
        return 0
    except (ValueError, OSError) as exc:  # ConfigError, MeshError and DatasetError too
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (FemError, BrokenProcessPool, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
