"""Command-line pipeline: mesh, sample, train, eval, predict, repro.

Each subcommand reads a declarative JSON config (``--config``), writes its
artifact(s) into the output directory, and drops a ``*.manifest.json`` next
to them recording the config snapshot, seeds, input/output content hashes,
and timing. Artifacts themselves contain no timestamps, so identical
config + seed reproduce byte-identical files.

Output directory precedence: ``--out`` flag, then the config's ``out_dir``,
then the ``DEFORMEST_OUT`` environment variable, then the working directory.

Exit codes: 0 success, 1 invalid config/input, 2 solver or runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import evaluation, nn, sampling
from .fem import FemError, MaterialParams, elasticity_matrix
from .mesh import (
    MeshError,
    ScaleConvention,
    TetMesh,
    generate_rpp,
    load_mesh,
    rpp6_contact_specs,
    save_mesh,
)
from .sampling import DatasetError, SamplingSpec

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

@dataclass
class PipelineConfig:
    raw: dict
    scale: ScaleConvention
    material: MaterialParams
    n_steps: int
    region_specs: dict          # region name -> raw spec dict (resolved per mesh)
    train: nn.TrainConfig
    hidden: tuple | None        # None: size both hidden layers as n_free
    eval_k: int
    eval_repeats: int
    mesh_generator: dict | None
    mesh_path: str | None
    out_dir: str | None

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        problems: list = []

        def need(section, key, default=None):
            value = raw.get(section, {}).get(key, default)
            if value is None and default is None:
                problems.append(f"missing {section}.{key}")
            return value

        scale = ScaleConvention(mm_per_unit=float(raw.get("scale", {}).get("mm_per_unit", 256.0)))

        material = None
        try:
            material = MaterialParams(
                young_modulus=float(need("material", "young_modulus_pa", 1.0e6)),
                poisson_ratio=float(need("material", "poisson_ratio", 0.40)),
            )
        except ValueError as exc:
            problems.append(str(exc))

        n_steps = int(raw.get("fem", {}).get("n_steps", 1000))
        if n_steps < 1:
            problems.append(f"fem.n_steps must be >= 1, got {n_steps}")

        regions = raw.get("sampling", {}).get("regions", {})
        if not regions:
            problems.append("missing sampling.regions")
        for name, spec in regions.items():
            mode = spec.get("mode")
            if mode == "box":
                if "extents_mm" not in spec or "spacing_mm" not in spec:
                    problems.append(f"region {name!r}: box mode needs extents_mm and spacing_mm")
            elif mode == "ellipsoid":
                for k in ("r_para_ratio", "r_perp_ratio", "spacing_ratio"):
                    if k not in spec:
                        problems.append(f"region {name!r}: ellipsoid mode needs {k}")
            else:
                problems.append(f"region {name!r}: unknown mode {mode!r}")

        train_raw = dict(raw.get("train", {}))
        hidden = train_raw.pop("hidden", [90, 90])
        if hidden is not None:
            hidden = tuple(int(h) for h in hidden)
            if len(hidden) != 2 or min(hidden) < 1:
                problems.append(f"train.hidden must be two positive sizes, got {hidden}")
        train = None
        try:
            train = nn.TrainConfig.from_dict(train_raw)
        except (TypeError, ValueError) as exc:
            problems.append(f"train: {exc}")

        eval_raw = raw.get("eval", {})
        eval_k = int(eval_raw.get("k", 5))
        eval_repeats = int(eval_raw.get("repeats", 1))
        if eval_k < 2:
            problems.append(f"eval.k must be >= 2, got {eval_k}")
        if eval_repeats < 1:
            problems.append(f"eval.repeats must be >= 1, got {eval_repeats}")

        mesh_section = raw.get("mesh", {})
        generator = mesh_section.get("generator")
        mesh_path = mesh_section.get("path")
        if generator is None and mesh_path is None:
            problems.append("mesh section needs either a generator or a path")
        if generator is not None and generator.get("kind") != "rpp":
            problems.append(f"unknown mesh generator kind {generator.get('kind')!r}")

        if problems:
            raise ConfigError("; ".join(problems))
        return cls(
            raw=raw,
            scale=scale,
            material=material,
            n_steps=n_steps,
            region_specs=regions,
            train=train,
            hidden=hidden,
            eval_k=eval_k,
            eval_repeats=eval_repeats,
            mesh_generator=generator,
            mesh_path=mesh_path,
            out_dir=raw.get("out_dir"),
        )


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return PipelineConfig.from_dict(raw)


def build_mesh(cfg: PipelineConfig, mesh_override: str | None = None) -> TetMesh:
    if mesh_override:
        return load_mesh(mesh_override)
    if cfg.mesh_path:
        return load_mesh(cfg.mesh_path)
    gen = cfg.mesh_generator
    if gen is None:
        raise ConfigError("no mesh source: supply mesh.generator, mesh.path, or --mesh")
    roles = gen.get("roles", "single")
    kwargs = {}
    if roles == "six":
        nx = round(gen["long_mm"] / gen["spacing_mm"]) + 1
        ny = nz = round(gen["short_mm"] / gen["spacing_mm"]) + 1
        kwargs["contact_specs"] = rpp6_contact_specs(nx, ny, nz)
    elif isinstance(roles, dict):
        kwargs["fixed_spec"] = [tuple(c) for c in roles.get("fixed", [])] or None
        contacts = roles.get("contacts")
        if contacts:
            kwargs["contact_specs"] = {k: [tuple(c) for c in v] for k, v in contacts.items()}
        obs = roles.get("observations")
        if obs:
            kwargs["observation_spec"] = [tuple(c) for c in obs]
    elif roles != "single":
        raise ConfigError(f"mesh.generator.roles must be 'single', 'six', or a mapping, got {roles!r}")
    return generate_rpp(
        gen["long_mm"], gen["short_mm"], gen["spacing_mm"], scale=cfg.scale, **kwargs
    )


def resolve_sampling_specs(cfg: PipelineConfig, mesh: TetMesh) -> dict:
    """Convert config units (mm, ratios) into simulation-unit SamplingSpecs."""
    specs = {}
    for name, spec in cfg.region_specs.items():
        if name not in mesh.contact_regions:
            raise ConfigError(
                f"sampling region {name!r} not in mesh regions {list(mesh.contact_regions)}"
            )
        if spec["mode"] == "box":
            specs[name] = SamplingSpec(
                mode="box",
                extents=tuple(cfg.scale.to_units(e) for e in spec["extents_mm"]),
                spacing=float(cfg.scale.to_units(spec["spacing_mm"])),
            )
        else:
            ref = spec.get("reference_length")
            if ref == "diameter":
                # imported here: scipy.spatial adds ~9 MB and ~0.1 s to every command
                from scipy.spatial import ConvexHull
                from scipy.spatial.distance import pdist

                # the farthest vertex pair lies on the convex hull
                ref = float(pdist(mesh.vertices[ConvexHull(mesh.vertices).vertices]).max())
            elif ref is not None:
                ref = float(cfg.scale.to_units(ref))
            specs[name] = sampling.ellipsoid_spec_for_region(
                mesh,
                name,
                r_para_ratio=float(spec["r_para_ratio"]),
                r_perp_ratio=float(spec["r_perp_ratio"]),
                spacing_ratio=float(spec["spacing_ratio"]),
                reference_length=ref,
                normal_filter=spec.get("normal_filter", "auto"),
            )
    return specs


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, config_snapshot, seed, workers,
                   inputs: dict, outputs: dict, elapsed: float) -> Path:
    doc = {
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_s": round(elapsed, 3),
        "config": config_snapshot,
        "seed": seed,
        "workers": workers,
        "inputs": {str(k): _sha256(v) for k, v in inputs.items()},
        "outputs": {str(k): _sha256(v) for k, v in outputs.items()},
    }
    path = out_dir / f"{command}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _resolve_out(args, cfg: PipelineConfig | None) -> Path:
    out = args.out or (cfg.out_dir if cfg else None) or os.environ.get(ENV_OUT) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _apply_seed(cfg: PipelineConfig, seed: int | None):
    if seed is not None:
        cfg.train = nn.TrainConfig.from_dict({**cfg.train.to_dict(), "seed": int(seed)})


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def mesh_stage(cfg: PipelineConfig, out: Path, mesh_override: str | None):
    """Build (or load) the mesh and write <out>/mesh.txt; returns (mesh, path)."""
    mesh = build_mesh(cfg, mesh_override)
    path = out / "mesh.txt"
    save_mesh(mesh, path)
    return mesh, path


def sample_stage(cfg: PipelineConfig, mesh: TetMesh, out: Path, workers: int):
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


def _hidden_sizes(cfg: PipelineConfig, dataset) -> tuple:
    if cfg.hidden is not None:
        return cfg.hidden
    return dataset.n_free, dataset.n_free


def train_stage(cfg: PipelineConfig, dataset, out: Path) -> Path:
    """Train one estimator on the whole dataset and write <out>/model.json."""
    h1, h2 = _hidden_sizes(cfg, dataset)
    model, log = nn.train(dataset, np.arange(dataset.m), cfg.train, h1, h2)
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
    h1, h2 = _hidden_sizes(cfg, dataset)
    report = evaluation.run_session(
        dataset, cfg.train, h1, h2, k=cfg.eval_k, n_repeats=cfg.eval_repeats
    )
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


def cmd_mesh(args) -> int:
    t0 = time.time()
    cfg = load_config(args.config)
    out = _resolve_out(args, cfg)
    _, path = mesh_stage(cfg, out, args.mesh)
    write_manifest(out, "mesh", cfg.raw, cfg.train.seed, None,
                   inputs={}, outputs={"mesh": path}, elapsed=time.time() - t0)
    print(path)
    return 0


def cmd_sample(args) -> int:
    t0 = time.time()
    cfg = load_config(args.config)
    out = _resolve_out(args, cfg)
    mesh_path = args.mesh or (out / "mesh.txt")
    _, path = sample_stage(cfg, load_mesh(mesh_path), out, args.workers)
    write_manifest(out, "sample", cfg.raw, cfg.train.seed, args.workers,
                   inputs={"mesh": mesh_path}, outputs={"dataset": path},
                   elapsed=time.time() - t0)
    print(path)
    return 0


def cmd_train(args) -> int:
    t0 = time.time()
    cfg = load_config(args.config)
    _apply_seed(cfg, args.seed)
    out = _resolve_out(args, cfg)
    dataset_path = args.dataset or (out / "dataset.ds")
    path = train_stage(cfg, sampling.load_dataset(dataset_path), out)
    write_manifest(out, "train", cfg.raw, cfg.train.seed, None,
                   inputs={"dataset": dataset_path}, outputs={"model": path},
                   elapsed=time.time() - t0)
    print(path)
    return 0


def cmd_eval(args) -> int:
    t0 = time.time()
    cfg = load_config(args.config)
    _apply_seed(cfg, args.seed)
    out = _resolve_out(args, cfg)
    dataset_path = args.dataset or (out / "dataset.ds")
    dataset = sampling.load_dataset(dataset_path)
    if args.mesh:
        dataset.require_mesh(load_mesh(args.mesh))
    outputs = eval_stage(cfg, dataset, out)
    write_manifest(out, "eval", cfg.raw, cfg.train.seed, None,
                   inputs={"dataset": dataset_path}, outputs=outputs,
                   elapsed=time.time() - t0)
    return 0


def _read_observation_csv(path, n_obs: int) -> np.ndarray:
    """Rows of dx_mm,dy_mm,dz_mm; only the first nonblank line may be a header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    rows = []
    for i, (lineno, line) in enumerate(lines):
        try:
            rows.append([float(p) for p in line.split(",")])
        except ValueError:
            if i > 0:
                raise ConfigError(
                    f"observation CSV {path}:{lineno}: not a row of numbers: {line!r}"
                ) from None
    arr = np.asarray(rows, dtype=float)
    if arr.shape != (n_obs, 3):
        raise ConfigError(
            f"observation CSV {path} must contain {n_obs} rows of dx_mm,dy_mm,dz_mm; "
            f"got shape {arr.shape}"
        )
    return arr


def cmd_predict(args) -> int:
    t0 = time.time()
    out = _resolve_out(args, None)
    model, meta = nn.load_model(args.model)
    mm_per_unit = float(meta.get("mm_per_unit") or 256.0)
    n_obs = model.layer_sizes[0] // 3
    obs_mm = _read_observation_csv(args.observations, n_obs)
    field_units = nn.predict(model, obs_mm / mm_per_unit)
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

    write_manifest(out, "predict", {"model": str(args.model)}, None, None,
                   inputs={"model": args.model, "observations": args.observations},
                   outputs=outputs, elapsed=time.time() - t0)
    print(csv_path)
    return 0


def cmd_repro(args) -> int:
    t0 = time.time()
    if args.profile not in PROFILES:
        raise ConfigError(f"unknown profile {args.profile!r}; have {sorted(PROFILES)}")
    raw = json.loads(json.dumps(PROFILES[args.profile]))  # deep copy
    if args.mesh:
        raw["mesh"] = {"path": str(args.mesh)}
    if raw["mesh"].get("generator") is None and not raw["mesh"].get("path"):
        raise ConfigError(f"profile {args.profile!r} needs a mesh file: pass --mesh")
    cfg = PipelineConfig.from_dict(raw)
    _apply_seed(cfg, args.seed)
    out = _resolve_out(args, cfg)

    mesh, mesh_path = mesh_stage(cfg, out, args.mesh)
    dataset, dataset_path = sample_stage(cfg, mesh, out, args.workers)
    model_path = train_stage(cfg, dataset, out)
    report_paths = eval_stage(cfg, dataset, out)
    write_manifest(
        out, "repro", cfg.raw, cfg.train.seed, args.workers,
        inputs={},
        outputs={"mesh": mesh_path, "dataset": dataset_path, "model": model_path,
                 **report_paths},
        elapsed=time.time() - t0,
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deformest",
        description="FEM deformation datasets and neural field estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="pipeline config (JSON)")
        p.add_argument("--out", default=None, help=f"output directory (or ${ENV_OUT})")

    p = sub.add_parser("mesh", help="generate or convert the mesh")
    common(p)
    p.add_argument("--mesh", default=None, help="load this mesh file instead of generating")
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("sample", help="run the FEM over the sampling lattice")
    common(p)
    p.add_argument("--mesh", default=None, help="mesh file (default: <out>/mesh.txt)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("train", help="train one estimator on the full dataset")
    common(p)
    p.add_argument("--dataset", default=None, help="dataset file (default: <out>/dataset.ds)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="cross-validated evaluation session")
    common(p)
    p.add_argument("--dataset", default=None, help="dataset file (default: <out>/dataset.ds)")
    p.add_argument("--mesh", default=None, help="verify the dataset against this mesh")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="estimate a field from observation displacements")
    common(p, config_required=False)
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--observations", required=True,
                   help="CSV of dx_mm,dy_mm,dz_mm rows, one per observation point")
    p.add_argument("--mesh", default=None, help="also write a VTK of the deformed mesh")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("repro", help="full pipeline from a named profile")
    common(p, config_required=False)
    p.add_argument("--profile", required=True, choices=sorted(PROFILES))
    p.add_argument("--mesh", default=None, help="mesh file for profiles that need one")
    p.set_defaults(fn=cmd_repro)

    for name in ("train", "eval", "repro"):
        sub.choices[name].add_argument("--seed", type=int, default=None,
                                       help="override the training seed")
    for name in ("sample", "repro"):
        sub.choices[name].add_argument("--workers", type=int, default=1,
                                       help="parallel sampling workers")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, MeshError, DatasetError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FemError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
