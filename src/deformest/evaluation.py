"""Cross-validated evaluation of field estimators, in physical units.

A session runs k train/test trials per repeat (each fold serving once as the
test set) and aggregates root-mean-square error plus per-vertex positional
error, reported in millimeters and as percentages of the largest contact
displacement in the dataset.

The trials of a session run concurrently in threads: numpy releases the GIL
in its BLAS calls and ufunc loops, and threads share the dataset instead of
copying it. numpy's OpenBLAS runs on one thread throughout a session, so
that every trial computes the same bits however many trials run at once.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import _blas
from .mesh import ScaleConvention, TetMesh, _count
from .nn import TrainConfig, forward_batch, train

__all__ = [
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


def kfold(n: int, k: int = 5, seed: int = 0) -> tuple:
    """The k test folds of ``range(n)``: a seeded shuffle cut into k contiguous chunks.

    Returns a tuple of k index arrays whose sizes differ by at most one; they
    partition ``range(n)``, and fold f trains on the concatenation of the others.
    k is an integer >= 2, not a bool; an integral float counts as one.
    """
    k = _count(k, 2, "k")
    if n < k:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    return tuple(np.array_split(np.random.default_rng(seed).permutation(n), k))


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
    """Per-vertex positional error, millimeters, of m samples; each field has m rows."""

    per_vertex_mm: np.ndarray        # (m, n_free)
    mean_mm: np.ndarray              # (m,)
    max_mm: np.ndarray               # (m,)
    argmax_vertex: np.ndarray        # (m,) slot into the field's vertex ordering
    argmax_true_disp_mm: np.ndarray  # (m,) true displacement magnitude of that vertex


def local_positional_error(
    pred: np.ndarray,
    target: np.ndarray,
    scale: ScaleConvention = ScaleConvention(),
) -> LpeResult:
    """Euclidean coordinate error per vertex of m fields stacked as (m, n_free, 3)."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape or pred.ndim != 3 or pred.shape[-1] != 3:
        raise ValueError(
            f"expected (m, n_free, 3) fields of one shape, got {pred.shape} vs {target.shape}"
        )
    per_vertex = np.linalg.norm(pred - target, axis=2) * scale.mm_per_unit
    worst = np.argmax(per_vertex, axis=1)
    v = np.take_along_axis(target, worst[:, None, None], axis=1)  # (m, 1, 3)
    # v @ v.T is the dot product np.linalg.norm takes of one vector; an axis
    # norm sums the squares in another order and can differ by an ulp
    true_disp = np.sqrt(v @ v.transpose(0, 2, 1))[:, 0, 0]
    return LpeResult(
        per_vertex_mm=per_vertex,
        mean_mm=per_vertex.mean(axis=1),
        max_mm=per_vertex.max(axis=1),
        argmax_vertex=worst,
        argmax_true_disp_mm=true_disp * scale.mm_per_unit,
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


def run_session(
    dataset,
    config: TrainConfig,
    k: int = 5,
    n_repeats: int = 1,
) -> SessionReport:
    """k-fold cross-validation, repeated with freshly shuffled folds.

    Repeat r shuffles with seed config.seed + r; the trial for fold f trains
    with seed (config.seed + r) * 1000 + f so every trial draws fresh weights.
    Metrics are averaged over all trials of all repeats.

    The trials run in threads, one per core this process may use, with numpy's
    OpenBLAS on one thread for the whole session; each running trial holds
    its own model, optimizer state and batch workspace. The results are
    collected in trial order, so the report does not depend on the thread
    count. If trials fail, the error of the first failing one in trial order
    is raised. k and n_repeats are integers, at least 2 and 1, not bools; an
    integral float counts as one. ValueError otherwise, before any training.
    """
    n_repeats = _count(n_repeats, 1, "n_repeats")
    max_disp_units = dataset.max_contact_displacement()
    max_disp_mm = max_disp_units * dataset.mm_per_unit
    if not max_disp_mm > 0:
        raise ValueError("dataset has no nonzero contact displacement to normalize against")

    scale = ScaleConvention(mm_per_unit=dataset.mm_per_unit)
    pct = 100.0 / max_disp_mm
    x_all, y_all = dataset.inputs(), dataset.targets()
    repeat_folds = [kfold(dataset.m, k=k, seed=config.seed + r) for r in range(n_repeats)]
    k = len(repeat_folds[0])  # an int, as kfold checked it

    def trial(index: int) -> TrialResult:
        repeat, fold = divmod(index, k)
        folds = repeat_folds[repeat]
        test_idx = folds[fold]
        trial_seed = (config.seed + repeat) * 1000 + fold
        train_idx = np.concatenate(folds[:fold] + folds[fold + 1 :])
        model, log = train(dataset, train_idx, replace(config, seed=trial_seed), test_idx=test_idx)
        y = y_all[test_idx]
        pred = forward_batch(model, x_all[test_idx]).outputs
        rmse_mm = rmse(pred, y, scale)
        shape = (len(test_idx), -1, 3)
        lpe = local_positional_error(pred.reshape(shape), y.reshape(shape), scale)
        mean_lpe, mean_max_lpe = float(lpe.mean_mm.mean()), float(lpe.max_mm.mean())
        return TrialResult(
            repeat=repeat,
            fold=fold,
            seed=trial_seed,
            n_train=len(train_idx),
            n_test=len(test_idx),
            rmse_mm=rmse_mm,
            rmse_pct=rmse_mm * pct,
            mean_lpe_mm=mean_lpe,
            mean_lpe_pct=mean_lpe * pct,
            mean_max_lpe_mm=mean_max_lpe,
            mean_max_lpe_pct=mean_max_lpe * pct,
            curve=log.curve,
            sample_max_lpe_mm=lpe.max_mm.tolist(),
            sample_max_vertex_disp_mm=lpe.argmax_true_disp_mm.tolist(),
        )

    n_trials = n_repeats * k
    with _blas.one_thread("numpy"):
        trials = _blas.in_threads(trial, n_trials, _blas.runners("numpy", n_trials))

    mean_rmse = float(np.mean([t.rmse_mm for t in trials]))
    # sample-weighted means over every test sample of every trial
    all_mean_lpe = float(
        np.mean(np.concatenate([[t.mean_lpe_mm] * t.n_test for t in trials]))
    )
    all_max_lpe = float(np.mean(np.concatenate([t.sample_max_lpe_mm for t in trials])))
    n_hidden1, n_hidden2 = (dataset.n_free,) * 2 if config.hidden is None else config.hidden
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
    # json.dumps runs the C encoder; json.dump streams through the Python one
    text = json.dumps(asdict(report), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# report.csv's columns: each trial's own fields, then the report's dataset metadata
_CSV_TRIAL_COLUMNS = [
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
]
_CSV_REPORT_COLUMNS = [
    "max_displacement_mm",
    "observation_pct",
    "n_obs",
    "n_free",
    "sample_count",
]


def report_to_csv(report: SessionReport, path):
    """One row per trial; shared dataset metadata repeated on each row."""
    shared = [getattr(report, name) for name in _CSV_REPORT_COLUMNS]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_CSV_TRIAL_COLUMNS + _CSV_REPORT_COLUMNS) + "\n")
        for t in report.trials:
            row = [getattr(t, name) for name in _CSV_TRIAL_COLUMNS] + shared
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
