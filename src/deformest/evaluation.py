"""Cross-validated evaluation of field estimators, in physical units.

A session runs k train/test trials per repeat (each fold serving once as the
test set) and aggregates root-mean-square error plus per-vertex positional
error, reported in millimeters and as percentages of the largest contact
displacement in the dataset.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .mesh import ScaleConvention, TetMesh
from .nn import MlpModel, TrainConfig, forward_batch, train

__all__ = [
    "FoldPlan",
    "LpeResult",
    "TrialResult",
    "SessionReport",
    "kfold",
    "rmse",
    "local_positional_error",
    "run_session",
    "report_to_json",
    "report_to_csv",
    "curves_to_csv",
    "export_vtk",
]


@dataclass(frozen=True)
class FoldPlan:
    """Partition of sample indices into k test folds from a seeded shuffle."""

    k: int
    seed: int
    folds: tuple

    def __post_init__(self):
        n = sum(len(f) for f in self.folds)
        union = np.concatenate(self.folds)
        if np.unique(union).size != n:
            raise ValueError("folds overlap or repeat indices")
        sizes = [len(f) for f in self.folds]
        if max(sizes) - min(sizes) > 1:
            raise ValueError(f"fold sizes differ by more than one: {sizes}")

    @property
    def n(self) -> int:
        return sum(len(f) for f in self.folds)

    def test_indices(self, fold: int) -> np.ndarray:
        return self.folds[fold]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.concatenate([f for i, f in enumerate(self.folds) if i != fold])


def kfold(n: int, k: int = 5, seed: int = 0) -> FoldPlan:
    """Seeded shuffle then contiguous chunking into k nearly equal folds."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return FoldPlan(k=k, seed=seed, folds=tuple(np.array_split(perm, k)))


def rmse(pred: np.ndarray, target: np.ndarray, scale: ScaleConvention = ScaleConvention()) -> float:
    """Root-mean-square displacement error in millimeters.

    The mean runs over every scalar component of every vertex of every sample.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.sqrt(np.mean((pred - target) ** 2)) * scale.mm_per_unit)


@dataclass
class LpeResult:
    """Per-vertex positional error of one sample, millimeters."""

    per_vertex_mm: np.ndarray
    mean_mm: float
    max_mm: float
    argmax_vertex: int          # slot into the field's vertex ordering
    argmax_true_disp_mm: float  # true displacement magnitude of that vertex


def local_positional_error(
    pred_sample: np.ndarray,
    target_sample: np.ndarray,
    scale: ScaleConvention = ScaleConvention(),
) -> LpeResult:
    """Euclidean coordinate error per vertex for one sample."""
    pred = np.asarray(pred_sample, dtype=float).reshape(-1, 3)
    target = np.asarray(target_sample, dtype=float).reshape(-1, 3)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    per_vertex = np.linalg.norm(pred - target, axis=1) * scale.mm_per_unit
    worst = int(np.argmax(per_vertex))
    return LpeResult(
        per_vertex_mm=per_vertex,
        mean_mm=float(per_vertex.mean()),
        max_mm=float(per_vertex[worst]),
        argmax_vertex=worst,
        argmax_true_disp_mm=float(np.linalg.norm(target[worst]) * scale.mm_per_unit),
    )


@dataclass
class TrialResult:
    repeat: int
    fold: int
    seed: int
    n_train: int
    n_test: int
    rmse_mm: float
    rmse_pct: float
    mean_lpe_mm: float
    mean_lpe_pct: float
    mean_max_lpe_mm: float
    mean_max_lpe_pct: float
    curve: list = field(default_factory=list)  # (iteration, test RMSE mm)
    sample_max_lpe_mm: list = field(default_factory=list)
    sample_max_vertex_disp_mm: list = field(default_factory=list)


@dataclass
class SessionReport:
    """Aggregated cross-validation metrics plus dataset metadata."""

    k: int
    n_repeats: int
    session_seed: int
    n_hidden1: int
    n_hidden2: int
    sample_count: int
    n_free: int
    n_obs: int
    observation_pct: float
    max_displacement_mm: float
    max_displacement_units: float
    mean_rmse_mm: float
    mean_rmse_pct: float
    mean_lpe_mm: float
    mean_lpe_pct: float
    mean_max_lpe_mm: float
    mean_max_lpe_pct: float
    trials: list = field(default_factory=list)


def _trial_metrics(model: MlpModel, dataset, test_idx, max_disp_mm: float):
    scale = ScaleConvention(mm_per_unit=dataset.mm_per_unit)
    x = dataset.inputs()[test_idx]
    y = dataset.targets()[test_idx]
    pred = forward_batch(model, x).outputs
    overall = rmse(pred, y, scale)
    lpes = [local_positional_error(pred[i], y[i], scale) for i in range(len(test_idx))]
    pct = 100.0 / max_disp_mm
    return {
        "rmse_mm": overall,
        "rmse_pct": overall * pct,
        "mean_lpe_mm": float(np.mean([l.mean_mm for l in lpes])),
        "mean_max_lpe_mm": float(np.mean([l.max_mm for l in lpes])),
        "sample_max_lpe_mm": [l.max_mm for l in lpes],
        "sample_max_vertex_disp_mm": [l.argmax_true_disp_mm for l in lpes],
    }


def run_session(
    dataset,
    config: TrainConfig,
    n_hidden1: int,
    n_hidden2: int,
    k: int = 5,
    n_repeats: int = 1,
) -> SessionReport:
    """k-fold cross-validation, repeated with fresh fold plans.

    Repeat r shuffles with seed config.seed + r; the trial for fold f trains
    with seed (config.seed + r) * 1000 + f so every trial draws fresh weights.
    Metrics are averaged over all trials of all repeats.
    """
    max_disp_units = dataset.max_contact_displacement()
    max_disp_mm = max_disp_units * dataset.mm_per_unit
    if not max_disp_mm > 0:
        raise ValueError("dataset has no nonzero contact displacement to normalize against")

    trials = []
    for repeat in range(n_repeats):
        plan = kfold(dataset.m, k=k, seed=config.seed + repeat)
        for fold in range(k):
            trial_seed = (config.seed + repeat) * 1000 + fold
            trial_cfg = replace(config, seed=trial_seed)
            train_idx = plan.train_indices(fold)
            test_idx = plan.test_indices(fold)
            model, log = train(
                dataset, train_idx, trial_cfg, n_hidden1, n_hidden2, test_idx=test_idx
            )
            metrics = _trial_metrics(model, dataset, test_idx, max_disp_mm)
            pct = 100.0 / max_disp_mm
            trials.append(
                TrialResult(
                    repeat=repeat,
                    fold=fold,
                    seed=trial_seed,
                    n_train=len(train_idx),
                    n_test=len(test_idx),
                    rmse_mm=metrics["rmse_mm"],
                    rmse_pct=metrics["rmse_pct"],
                    mean_lpe_mm=metrics["mean_lpe_mm"],
                    mean_lpe_pct=metrics["mean_lpe_mm"] * pct,
                    mean_max_lpe_mm=metrics["mean_max_lpe_mm"],
                    mean_max_lpe_pct=metrics["mean_max_lpe_mm"] * pct,
                    curve=log.curve(),
                    sample_max_lpe_mm=metrics["sample_max_lpe_mm"],
                    sample_max_vertex_disp_mm=metrics["sample_max_vertex_disp_mm"],
                )
            )

    pct = 100.0 / max_disp_mm
    mean_rmse = float(np.mean([t.rmse_mm for t in trials]))
    # sample-weighted means over every test sample of every trial
    all_mean_lpe = float(
        np.mean(np.concatenate([[t.mean_lpe_mm] * t.n_test for t in trials]))
    )
    all_max_lpe = float(np.mean(np.concatenate([t.sample_max_lpe_mm for t in trials])))
    return SessionReport(
        k=k,
        n_repeats=n_repeats,
        session_seed=config.seed,
        n_hidden1=n_hidden1,
        n_hidden2=n_hidden2,
        sample_count=dataset.m,
        n_free=dataset.n_free,
        n_obs=dataset.n_obs,
        observation_pct=100.0 * dataset.n_obs / dataset.n_free,
        max_displacement_mm=max_disp_mm,
        max_displacement_units=max_disp_units,
        mean_rmse_mm=mean_rmse,
        mean_rmse_pct=mean_rmse * pct,
        mean_lpe_mm=all_mean_lpe,
        mean_lpe_pct=all_mean_lpe * pct,
        mean_max_lpe_mm=all_max_lpe,
        mean_max_lpe_pct=all_max_lpe * pct,
        trials=trials,
    )


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def report_to_json(report: SessionReport, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


_CSV_COLUMNS = [
    "repeat",
    "fold",
    "seed",
    "n_train",
    "n_test",
    "rmse_mm",
    "rmse_pct",
    "mean_lpe_mm",
    "mean_lpe_pct",
    "mean_max_lpe_mm",
    "mean_max_lpe_pct",
    "max_displacement_mm",
    "observation_pct",
    "n_obs",
    "n_free",
    "sample_count",
]


def report_to_csv(report: SessionReport, path):
    """One row per trial; shared dataset metadata repeated on each row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        for t in report.trials:
            row = [
                t.repeat, t.fold, t.seed, t.n_train, t.n_test,
                t.rmse_mm, t.rmse_pct, t.mean_lpe_mm, t.mean_lpe_pct,
                t.mean_max_lpe_mm, t.mean_max_lpe_pct,
                report.max_displacement_mm, report.observation_pct,
                report.n_obs, report.n_free, report.sample_count,
            ]
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def curves_to_csv(report: SessionReport, path):
    """Test RMSE against optimizer iteration, one row per logged point."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("repeat,fold,iteration,test_rmse_mm\n")
        for t in report.trials:
            for it, value in t.curve:
                fh.write(f"{t.repeat},{t.fold},{it},{value!r}\n")


def export_vtk(
    path,
    mesh: TetMesh,
    point_scalars: dict | None = None,
    displacements: np.ndarray | None = None,
    title: str = "deformest field",
):
    """Legacy ASCII VTK unstructured grid of the (optionally deformed) mesh.

    point_scalars maps names to per-vertex arrays (N_a,); displacements
    (N_a, 3) move the written points and are also stored as a vector field.
    """
    points = mesh.vertices if displacements is None else mesh.vertices + displacements
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title.replace("\n", " ") + "\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for p in points:
            fh.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")
        fh.write(f"CELLS {mesh.n_tets} {5 * mesh.n_tets}\n")
        for t in mesh.tets:
            fh.write("4 " + " ".join(str(int(v)) for v in t) + "\n")
        fh.write(f"CELL_TYPES {mesh.n_tets}\n")
        fh.write("\n".join(["10"] * mesh.n_tets) + "\n")

        wrote_header = False
        if point_scalars:
            for name, values in point_scalars.items():
                values = np.asarray(values, dtype=float).reshape(-1)
                if values.size != mesh.n_vertices:
                    raise ValueError(
                        f"scalar {name!r} has {values.size} values, mesh has {mesh.n_vertices}"
                    )
                if not wrote_header:
                    fh.write(f"POINT_DATA {mesh.n_vertices}\n")
                    wrote_header = True
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                fh.write("\n".join(repr(float(v)) for v in values) + "\n")
        if displacements is not None:
            if not wrote_header:
                fh.write(f"POINT_DATA {mesh.n_vertices}\n")
                wrote_header = True
            fh.write("VECTORS displacement double\n")
            for v in np.asarray(displacements, dtype=float):
                fh.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
