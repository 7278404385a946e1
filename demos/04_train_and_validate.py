"""Train the field estimator and cross-validate it.

Loads the dataset written by 03_dataset_generation.py (run that first), then
trains the two-hidden-layer network and reports 5-fold cross-validated RMSE
and local positional error, in millimeters and as percentages of the largest
contact displacement.
"""

import numpy as np

from deformest import TrainConfig, load_dataset, predict, run_session, train
from deformest.evaluation import curves_to_csv, report_to_csv

ds = load_dataset("box_dataset.ds")
print(f"dataset: {ds.m} samples, {ds.n_obs} observation points, {ds.n_free} free vertices")

config = TrainConfig(
    epochs=50,
    batch_size=15,
    inner_iters=10,
    gamma=50.0,
    lambdas=(0.1, 0.1, 0.1),
    seed=0,
    log_every=25,
    hidden=(90, 90),  # hidden layer widths; None would use the free-vertex count
)

report = run_session(ds, config, k=5, n_repeats=1)
print(f"\nmean test RMSE: {report.mean_rmse_mm:.4f} mm "
      f"({report.mean_rmse_pct:.3f}% of {report.max_displacement_mm:.1f} mm)")
print(f"mean of per-sample max positional error: {report.mean_max_lpe_mm:.4f} mm")
for t in report.trials:
    print(f"  fold {t.fold}: RMSE {t.rmse_mm:.4f} mm on {t.n_test} held-out samples")

report_to_csv(report, "cv_report.csv")
curves_to_csv(report, "cv_curves.csv")
print("wrote cv_report.csv, cv_curves.csv")

# a deployable model is trained on everything
model, _ = train(ds, np.arange(ds.m), config)
obs = ds.inputs()[0].reshape(-1, 3)  # pretend these were tracked by a camera
field = predict(model, obs)
truth = ds.targets()[0].reshape(-1, 3)
err_mm = np.linalg.norm(field - truth, axis=1).max() * ds.mm_per_unit
print(f"\nworst-vertex error reconstructing sample 0: {err_mm:.4f} mm")
