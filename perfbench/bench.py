"""Stages of one benchmark run and the correctness gate.

Every stage calls deformest's public functions (``cli.main`` for the
commands a user types, library functions otherwise) and times them from
outside. ``Run.execute`` returns the end-to-end metrics and, when traced,
the per-layer metrics; ``Run.out`` holds what the gate checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from deformest import cli, evaluation, fem, mesh, nn, sampling
from deformest.sampling import SamplingSpec

import workloads as wl
from spans import Tracer, duration

FEM_REPEATS = 5      # direct fem and dataset-file calls per traced run
PREDICT_RTOL = 1e-9  # predict() against forward_batch(): same arithmetic, other BLAS kernel

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# (owner, attribute, span name): the public functions wrapped in a traced run.
TRACE_TARGETS = [
    (sampling, "build_dataset", "sampling.build_dataset"),
    (nn, "train", "nn.train"),
    (nn, "gradients", "nn.gradients"),
    (nn, "adam_step", "nn.adam_step"),
    (nn, "forward_batch", "nn.forward_batch"),
    (evaluation, "forward_batch", "nn.forward_batch"),
    (evaluation, "run_session", "evaluation.run_session"),
    (evaluation, "train", "evaluation.trial_train"),
    (evaluation, "rmse", "evaluation.metrics"),
    (evaluation, "local_positional_error", "evaluation.metrics"),
    (cli, "generate_rpp", "mesh.generate"),
    (mesh.TetMesh, "content_hash", "mesh.content_hash"),
]
# the library call each stage command wraps, for cli.overhead_frac
CLI_LIBRARY = {"cli.sample": "sampling.build_dataset", "cli.train": "nn.train",
               "cli.eval": "evaluation.run_session"}


class BenchError(RuntimeError):
    """A stage could not run; the run fails without a result."""


@dataclass
class Outputs:
    """What the correctness gate checks."""

    field_bound_mm: float
    cv_tolerance: float
    check_fields: np.ndarray = None       # (targets, 3 n_free), simulation units
    check_targets: np.ndarray = None
    reference_fields: np.ndarray = None
    reference_targets: np.ndarray = None
    nonfinite_fields: int = 0             # over every sample of every sampling call
    attempted: int = 0
    completed: int = 0
    cv_rmse_mm: list = field(default_factory=list)
    cv_recorded_mm: float = None
    predict_calls: int = 0
    predict_mismatches: int = 0           # predict outputs unequal to their forward_batch row

    def field_err_mm(self) -> float:
        diff = (self.check_fields - self.reference_fields).reshape(len(self.check_fields), -1, 3)
        return float(np.linalg.norm(diff, axis=2).max() * wl.MM_PER_UNIT)


def gate_failures(out: Outputs) -> list:
    """Every violated correctness condition, as a message; empty when the gate passes."""
    problems = []
    if out.attempted < 1:
        problems.append("no sample was attempted")
    if out.nonfinite_fields:
        problems.append(f"{out.nonfinite_fields} sampled fields hold non-finite values")
    if out.check_fields is None or not np.isfinite(out.check_fields).all():
        problems.append("check fields missing or non-finite")
    elif out.check_targets.shape != out.reference_targets.shape or not np.allclose(
            out.check_targets, out.reference_targets, rtol=0, atol=1e-12):
        problems.append("check targets differ from the stored reference targets")
    else:
        err = out.field_err_mm()
        if not err <= out.field_bound_mm:
            problems.append(f"field_err_mm {err:.4g} exceeds the bound {out.field_bound_mm} mm")
    if not out.cv_rmse_mm or not all(np.isfinite(out.cv_rmse_mm)):
        problems.append("cv_rmse_mm missing or non-finite")
    elif out.cv_recorded_mm is None:
        problems.append("no recorded cv_rmse_mm for this workload in reference.json")
    else:
        cv = statistics.median(out.cv_rmse_mm)
        off = abs(cv - out.cv_recorded_mm) / out.cv_recorded_mm
        if off > out.cv_tolerance:
            problems.append(f"cv_rmse_mm {cv:.4g} is {off:.1%} from the recorded "
                            f"{out.cv_recorded_mm:.4g} mm (tolerance {out.cv_tolerance:.0%})")
    if out.predict_calls < 1:
        problems.append("no predict call")
    if out.predict_mismatches:
        problems.append(f"{out.predict_mismatches} of {out.predict_calls} nn.predict outputs "
                        "differ from their nn.forward_batch row")
    return problems


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown"  # not a git checkout (the benchmark may run from an export)
    return lines[1]


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


class Run:
    """State of one benchmark run: its directory, tracer and measurements."""

    def __init__(self, w: wl.Workload, seed: int, seconds: float, traced: bool, workdir: Path):
        self.w, self.seed, self.seconds, self.traced = w, seed, seconds, traced
        self.dir = workdir
        self.tracer = Tracer(traced, TRACE_TARGETS)
        self.out = Outputs(field_bound_mm=w.field_bound_mm, cv_tolerance=w.cv_tolerance)
        self.sample_rates: list = []    # completed samples / s, one per sampling call
        self.train_s: list = []
        self.session_s: list = []
        self.predict_p50: list = []     # seconds, one per predict block
        self.predict_p99: list = []
        self.rng = np.random.default_rng(seed)  # order of predict inputs
        self.round_s = {False: [], True: []}  # by traced-or-not, for trace.overhead_s
        self.traced_builds: list = []   # (build_dataset seconds, completed, attempted)

    def cli(self, command: str, *args) -> float:
        """Run one ``deformest`` command in-process; returns its wall time."""
        with self.tracer.span(f"cli.{command}"), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main([command, *map(str, args)])
            elapsed = time.perf_counter() - t0
        if code != 0:
            raise BenchError(f"deformest {command} {' '.join(map(str, args))} exited {code}")
        return elapsed

    def record_dataset(self, ds) -> None:
        """Count one measured sampling call; in a traced run, pair it with its build span."""
        fields = ds.targets()
        self.out.nonfinite_fields += int((~np.isfinite(fields)).any(axis=1).sum())
        self.out.attempted += ds.m + len(ds.failures)
        self.out.completed += ds.m
        if self.tracer.installed:
            build = self.tracer.find("sampling.build_dataset")[-1]
            self.traced_builds.append((duration(build), ds.m, ds.m + len(ds.failures)))

    # --- set-up ----------------------------------------------------------------

    def setup_once(self, index: int) -> Path:
        """What a user does before the timed stage; returns the directory it filled."""
        d = self.dir / f"setup{index}"
        d.mkdir()
        if self.w.primary == "learn":
            cfg = _write_json(d / "config.json", wl.learn_config(self.w))
            self.cli("mesh", "--config", cfg, "--out", d)
            self.cli("sample", "--config", cfg, "--out", d, "--workers", 1)
        else:
            cfg = _write_json(d / "config.json", wl.check_config(self.w))
            self.cli("mesh", "--config", cfg, "--out", d)
            mesh.load_mesh(d / "mesh.txt").content_hash()
        return d

    def setup(self) -> float:
        times = []
        for i in range(self.w.setup_repeats):
            t0 = time.perf_counter()
            self.setup_dir = self.setup_once(i)
            times.append(time.perf_counter() - t0)
        self.mesh = mesh.load_mesh(self.setup_dir / "mesh.txt")
        self.d = fem.elasticity_matrix(fem.MaterialParams())
        return statistics.median(times)

    # --- sampling --------------------------------------------------------------

    def check_sample(self) -> None:
        """`deformest sample` on the fixed check targets; its fields go to the gate."""
        d = self.dir / f"check{len(self.sample_rates)}"
        d.mkdir()
        cfg = _write_json(d / "config.json", wl.check_config(self.w))
        elapsed = self.cli("sample", "--config", cfg, "--out", d,
                           "--mesh", self.setup_dir / "mesh.txt", "--workers", 1)
        ds = sampling.load_dataset(d / "dataset.ds")
        self.record_dataset(ds)
        self.sample_rates.append(ds.m / elapsed)
        self.out.check_fields = ds.targets()
        self.out.check_targets = ds.target_displacements()
        self.check_dir = d

    def sample_column(self, index: int) -> None:
        """build_dataset on one seeded 2-target column of the 3 x 3 x 2 lattice."""
        centroid = self.mesh.vertices[self.mesh.contact_regions["end"]].mean(axis=0)
        offset = wl.seeded_lattice_offset(self.seed, wl.FINE_SPACING)
        x, y = wl.FINE_COLUMNS[index % len(wl.FINE_COLUMNS)]
        spec = SamplingSpec(mode="box", extents=(0.0, 0.0, wl.FINE_Z_EXTENT),
                            spacing=wl.FINE_SPACING,
                            center=tuple(centroid + np.array([x, y, 0.0]) + offset))
        t0 = time.perf_counter()
        ds = sampling.build_dataset(self.mesh, self.d, {"end": spec}, n_steps=self.w.n_steps,
                                    scale=mesh.ScaleConvention(mm_per_unit=wl.MM_PER_UNIT),
                                    workers=1)
        elapsed = time.perf_counter() - t0
        self.record_dataset(ds)
        self.sample_rates.append(ds.m / elapsed)

    # --- learning --------------------------------------------------------------

    def learn_once(self, data_dir: Path, seed: int) -> float:
        """train, predict, eval, predict again; returns the wall time.

        Two predict stages per iteration spread the latency samples over the
        run, so that p50 and p99 do not hang on one moment of machine load.
        """
        t0 = time.perf_counter()
        cfg = data_dir / "config.json"
        ds = sampling.load_dataset(data_dir / "dataset.ds")
        self.train_s.append(self.cli("train", "--config", cfg, "--out", data_dir, "--seed", seed))
        model, _ = nn.load_model(data_dir / "model.json")
        self.predict_blocks(model, ds)
        self.session_s.append(self.cli("eval", "--config", cfg, "--out", data_dir, "--seed", seed))
        report = json.loads((data_dir / "report.json").read_text())
        self.out.cv_rmse_mm.append(float(report["mean_rmse_mm"]))
        self.predict_blocks(model, ds)
        return time.perf_counter() - t0

    def predict_blocks(self, model, ds) -> None:
        """Closed loops of nn.predict calls, one caller, on seeded dataset rows."""
        calls = self.w.predict_calls
        clock = time.perf_counter
        for _ in range(self.w.predict_blocks):
            rows = ds.inputs()[self.rng.integers(0, ds.m, size=calls)]
            obs = rows.reshape(calls, -1, 3)
            got = np.empty((calls, model.layer_sizes[-1]))
            lat = np.empty(calls)
            for j in range(calls):
                t0 = clock()
                field_ = nn.predict(model, obs[j])
                lat[j] = clock() - t0
                got[j] = field_.reshape(-1)
            self.predict_p50.append(np.percentile(lat, 50))
            self.predict_p99.append(np.percentile(lat, 99))
            batch = nn.forward_batch(model, rows).outputs
            close = np.isclose(got, batch, rtol=PREDICT_RTOL,
                               atol=PREDICT_RTOL * np.abs(batch).max())
            self.out.predict_calls += calls
            self.out.predict_mismatches += int((~close.all(axis=1)).sum())

    def round(self, index: int) -> float:
        """One round of every stage, primary stage first; returns its wall time.

        Rounds repeat until --seconds are up, so each metric is a median over
        samples spread across the run rather than taken at one moment of
        machine load.
        """
        t0 = time.perf_counter()
        if self.w.primary == "sample":
            self.sample_column(index)
            self.learn_once(self.check_dir, 0)  # fixed seed: the seed moves the lattice
        else:
            # a fresh training and fold seed per session, derived from the run's seed
            self.learn_once(self.setup_dir, self.seed * 1000 + index)
            self.check_sample()
        return time.perf_counter() - t0

    def rounds(self, seconds: float, traced: bool) -> None:
        done = self.round_s[traced]
        t_start = time.perf_counter()
        while not done or time.perf_counter() - t_start < seconds:
            done.append(self.round(len(self.round_s[False]) + len(self.round_s[True])))

    def execute(self) -> tuple:
        """Run every stage; returns (end-to-end metrics, per-layer metrics or None)."""
        self.tracer.install()
        try:
            setup_s = self.setup()
            self.check_sample()
            if self.traced:
                # half the window untraced, half traced: the difference is the overhead
                with self.tracer.paused():
                    self.rounds(self.seconds / 2, traced=False)
                self.rounds(self.seconds / 2, traced=True)
            else:
                self.rounds(self.seconds, traced=False)
            layers = self.layer_metrics() if self.traced else None
        finally:
            self.tracer.remove()
        self.out.reference_targets, self.out.reference_fields = reference_fields(self.w)
        self.out.cv_recorded_mm = recorded_cv(self.w)
        return self.end_to_end(setup_s), layers

    def end_to_end(self, setup_s: float) -> dict:
        return {
            "samples_per_s": (statistics.median(self.sample_rates), "1/s"),
            "ok_frac": (self.out.completed / self.out.attempted, "frac"),
            "field_err_mm": (self.out.field_err_mm(), "mm"),
            "train_s": (statistics.median(self.train_s), "s"),
            "session_s": (statistics.median(self.session_s), "s"),
            "cv_rmse_mm": (statistics.median(self.out.cv_rmse_mm), "mm"),
            # mean over blocks: it moves smoothly with the share of the host's fast bursts
            # (see README, Noise); p99 is a per-layer metric, nn.predict_p99_us
            "predict_p50_us": (statistics.fmean(self.predict_p50) * 1e6, "us"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (setup_s, "s"),
        }

    # --- per-layer metrics (traced run) ------------------------------------------

    def fem_direct(self) -> dict:
        """fem calls made here, in the main process, on the workload's mesh and target."""
        target = self.out.check_targets[0]
        contact = self.mesh.contact_regions["end"]
        times = {"assemble": [], "solve": []}
        for _ in range(FEM_REPEATS):
            with self.tracer.span("fem.assemble") as s:
                system = fem.assemble(self.mesh, self.mesh.vertices, self.d)
            times["assemble"].append(duration(s))
            dofs = system.vertex_dofs(contact)
            u_c = np.tile(target / self.w.n_steps, contact.size)
            with self.tracer.span("fem.solve") as s:
                fem.solve_forced_displacement(system, dofs, u_c)
            times["solve"].append(duration(s))
        with self.tracer.span("fem.deform") as s:
            fem.deform(self.mesh, self.d, "end", target, self.w.n_steps)
        n = system.n_dofs - dofs.size  # order of the factored K_nn block
        return {
            "assemble_ms": statistics.median(times["assemble"]) * 1e3,
            "solve_ms": statistics.median(times["solve"]) * 1e3,
            "deform_s": duration(s),
            "n_dofs": n,
        }

    def layer_metrics(self) -> dict:
        t = self.tracer
        f = self.fem_direct()
        ms = lambda spans: statistics.median(duration(s) for s in spans) * 1e3  # noqa: E731
        us = lambda spans: ms(spans) * 1e3  # noqa: E731

        build_s = [b[0] for b in self.traced_builds]
        traced_samples = sum(b[1] for b in self.traced_builds)
        n_steps = self.w.n_steps

        learn_ds_path = (self.setup_dir if self.w.primary == "learn" else self.check_dir) / "dataset.ds"
        data = {"save": [], "load": [], "arrays": []}
        for _ in range(FEM_REPEATS):
            with t.span("sampling.load") as s:
                ds = sampling.load_dataset(learn_ds_path)
            data["load"].append(s)
            with t.span("sampling.save") as s:
                sampling.save_dataset(ds, self.dir / "copy.ds")
            data["save"].append(s)
            with t.span("sampling.arrays") as s:
                ds.inputs(), ds.targets()
            data["arrays"].append(s)

        train_cli = t.find("cli.train")
        eval_cli = t.find("cli.eval")
        nn_train = t.find("nn.train", under=train_cli)
        updates = len(t.find("nn.gradients", under=train_cli[:1]))
        trials = t.find("evaluation.trial_train", under=eval_cli)
        metrics = t.find("evaluation.metrics", under=eval_cli)
        trial_metrics = _assign_to_trials(trials, metrics)

        cli_total = lib_total = 0.0
        for name, lib in CLI_LIBRARY.items():
            calls = t.find(name)
            cli_total += sum(duration(s) for s in calls)
            lib_total += sum(duration(s) for s in t.find(lib, under=calls))

        return {
            "fem.assemble_ms": (f["assemble_ms"], "ms"),
            "fem.solve_ms": (f["solve_ms"], "ms"),
            "fem.step_ms": (f["deform_s"] / n_steps * 1e3, "ms"),
            "fem.deform_s": (f["deform_s"], "s"),
            "fem.n_dofs": (f["n_dofs"], "count"),
            "fem.K_bytes": (8 * f["n_dofs"] ** 2, "B"),
            "fem.chol_flops": (f["n_dofs"] ** 3 / 3, "flop"),
            "fem.steps": (traced_samples * n_steps, "count"),
            "sampling.build_s": (statistics.median(build_s), "s"),
            "sampling.samples": (traced_samples, "count"),
            "sampling.attempted": (sum(b[2] for b in self.traced_builds), "count"),
            # serial deform cost of the samples over workers x wall time (one worker here)
            "sampling.pool_eff": (f["deform_s"] * traced_samples / sum(build_s), "frac"),
            "sampling.save_ms": (ms(data["save"]), "ms"),
            "sampling.load_ms": (ms(data["load"]), "ms"),
            "sampling.file_bytes": (os.path.getsize(learn_ds_path), "B"),
            "sampling.arrays_ms": (ms(data["arrays"]), "ms"),
            "nn.gradients_us": (us(t.find("nn.gradients")), "us"),
            "nn.adam_step_us": (us(t.find("nn.adam_step")), "us"),
            "nn.update_us": (duration(nn_train[0]) / updates * 1e6, "us"),
            "nn.updates": (updates, "count"),
            "nn.train_s": (ms(nn_train) / 1e3, "s"),
            "nn.forward_batch_us": (us(t.find("nn.forward_batch")), "us"),
            "nn.predict_p99_us": (statistics.median(self.predict_p99) * 1e6, "us"),
            "evaluation.trial_s": (statistics.median(
                duration(tr) + m for tr, m in zip(trials, trial_metrics)), "s"),
            "evaluation.metrics_ms": (statistics.median(trial_metrics) * 1e3, "ms"),
            "evaluation.trials": (len(trials) / len(eval_cli), "count"),
            "cli.sample_s": (ms(t.find("cli.sample")) / 1e3, "s"),
            "cli.train_s": (ms(train_cli) / 1e3, "s"),
            "cli.eval_s": (ms(eval_cli) / 1e3, "s"),
            "cli.overhead_frac": ((cli_total - lib_total) / cli_total, "frac"),
            "mesh.generate_ms": (ms(t.find("mesh.generate")), "ms"),
            "mesh.content_hash_ms": (ms(t.find("mesh.content_hash")), "ms"),
            "trace.overhead_s": (statistics.median(self.round_s[True])
                                 - statistics.median(self.round_s[False]), "s"),
        }


def _assign_to_trials(trials, metric_spans) -> list:
    """Seconds of metric calls that follow each trial's training, per trial."""
    totals = [0.0] * len(trials)
    for m in metric_spans:
        owner = [i for i, tr in enumerate(trials) if tr["end"] <= m["start"]]
        if owner:
            totals[owner[-1]] += duration(m)
    return totals


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _reference() -> dict:
    return json.loads(REFERENCE.read_text())


def reference_fields(w: wl.Workload) -> tuple:
    ref = _reference()["fields"][wl.mesh_key(w.spacing_mm)]
    return np.asarray(ref["targets"]), np.asarray(ref["u"])


def recorded_cv(w: wl.Workload):
    return _reference().get("recorded_cv_rmse_mm", {}).get(w.name)
