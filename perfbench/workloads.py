"""Workload definitions: meshes, sampling lattices, training settings.

Every size here is fixed by the benchmark; the run's ``--seed`` moves only
the sample-fine lattice centre (``seeded_lattice_offset``), the learn-desk
training and fold seed, and the order of predict inputs. README.md in this
directory explains why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MM_PER_UNIT = 256.0

# Train settings of the rpp1-desk profile.
DESK_TRAIN = {"epochs": 20, "batch_size": 100, "inner_iters": 10, "gamma": 50.0,
              "lambdas": [0.1, 0.1, 0.1], "log_every": 100, "hidden": [90, 90]}
# The same settings on the four-sample check dataset, where a batch must fit
# a fold.
CHECK_TRAIN = {**DESK_TRAIN, "batch_size": 2}

# Fixed check targets: the four corners (+-0.4, +-0.4, 0) units of the desk
# extents' mid plane, 145 mm from rest. A box of full extents
# (204.8, 204.8, 0) mm at 204.8 mm spacing yields exactly these, so the CLI
# samples them from a plain config; the seed never moves them.
CHECK_REGION = {"mode": "box", "extents_mm": [204.8, 204.8, 0.0], "spacing_mm": 204.8}
# The full rpp1-desk lattice, 11 x 11 x 6 = 726 targets.
DESK_REGION = {"mode": "box", "extents_mm": [204.8, 204.8, 102.4], "spacing_mm": 20.48}

CHECK_K = 2  # CV folds on the four check samples
# learn-desk samples its training lattice at one load step: set-up runs three
# times a run, and each extra step costs about 3 s of set-up on 726 targets.
LEARN_STEPS = 1

# sample-fine: the 3 x 3 x 2 lattice over the desk extents (0.8, 0.8, 0.4),
# one (x, y) column of two z targets per build_dataset call, so that one call
# takes seconds and a run holds several.
FINE_COLUMNS = [(x, y) for x in (-0.4, 0.0, 0.4) for y in (-0.4, 0.0, 0.4)]
FINE_Z_EXTENT = 0.4
FINE_SPACING = 0.4


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str              # "sample" or "learn": the stage a round is built around
    spacing_mm: float         # RPP mesh spacing: 25.6 -> 243 reduced DOFs, 12.8 -> 1425
    n_steps: int              # Euler load steps of every measured sampling call
    field_bound_mm: float     # gate: largest check-field error against the reference
    cv_tolerance: float       # gate: largest share cv_rmse_mm may differ from the recorded value
    setup_repeats: int        # set-ups per run; setup_s is their median
    predict_calls: int        # per predict block
    predict_blocks: int       # blocks after each train and each eval
    check_train: dict = None  # "sample" workloads train on the check dataset
    learn_region: dict = None  # "learn" workloads train on this lattice
    learn_train: dict = None
    learn_k: int = 5


WORKLOADS = {
    w.name: w for w in (
        Workload("sample-fine", "sample", spacing_mm=12.8, n_steps=10, field_bound_mm=2.5,
                 cv_tolerance=0.25, setup_repeats=15, predict_calls=1000, predict_blocks=5,
                 check_train=CHECK_TRAIN),
        Workload("learn-desk", "learn", spacing_mm=25.6, n_steps=100, field_bound_mm=0.25,
                 cv_tolerance=0.25, setup_repeats=3, predict_calls=1000, predict_blocks=10,
                 learn_region=DESK_REGION, learn_train=DESK_TRAIN),
        # Seconds-long variants for the benchmark's own tests. Their two-epoch
        # training spreads cv_rmse_mm across seeds by up to a third.
        Workload("tiny-sample-fine", "sample", spacing_mm=25.6, n_steps=5, field_bound_mm=5.0,
                 cv_tolerance=0.5, setup_repeats=2, predict_calls=200, predict_blocks=2,
                 check_train={**CHECK_TRAIN, "epochs": 2}),
        Workload("tiny-learn-desk", "learn", spacing_mm=25.6, n_steps=5, field_bound_mm=5.0,
                 cv_tolerance=0.5, setup_repeats=2, predict_calls=200, predict_blocks=2,
                 learn_region={**DESK_REGION, "spacing_mm": 102.4},
                 learn_train={**DESK_TRAIN, "epochs": 2, "batch_size": 5}, learn_k=3),
    )
}


def mesh_key(spacing_mm: float) -> str:
    return f"rpp-{spacing_mm:g}mm"


def pipeline_config(spacing_mm: float, n_steps: int, region: dict, train: dict,
                    k: int) -> dict:
    """A ``deformest`` JSON config for one mesh, lattice and training setup."""
    return {
        "mesh": {"generator": {"kind": "rpp", "long_mm": 256.0, "short_mm": 51.2,
                               "spacing_mm": spacing_mm, "roles": "single"}},
        "material": {"young_modulus_pa": 1.0e6, "poisson_ratio": 0.40},
        "scale": {"mm_per_unit": MM_PER_UNIT},
        "fem": {"n_steps": n_steps},
        "sampling": {"regions": {"end": dict(region)}},
        "train": {**train, "seed": 0},
        "eval": {"k": k, "repeats": 1},
    }


def check_config(w: Workload) -> dict:
    return pipeline_config(w.spacing_mm, w.n_steps, CHECK_REGION,
                           w.check_train or DESK_TRAIN, CHECK_K)


def learn_config(w: Workload) -> dict:
    return pipeline_config(w.spacing_mm, LEARN_STEPS, w.learn_region, w.learn_train, w.learn_k)


def seeded_lattice_offset(seed: int, spacing: float) -> np.ndarray:
    """Sub-spacing shift of the lattice centre: uniform in +-spacing/8 per axis."""
    return np.random.default_rng(seed).uniform(-spacing / 8, spacing / 8, size=3)
