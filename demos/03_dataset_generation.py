"""Generate a small deformation dataset with both sampling protocols.

Box sampling lays an axis-aligned grid of target positions around the
contact centroid. Ellipsoid sampling orients a spheroid along the
fixed-to-contact direction and keeps only targets pulling away from the
surface (acute angle with the mean contact normal) -- the regime where
an instrument plausibly drags tissue.
"""

import numpy as np

from deformest import MaterialParams, build_dataset, elasticity_matrix, generate_rpp
from deformest.sampling import (
    SamplingSpec,
    ellipsoid_spec_for_region,
    sample_points_for_region,
    save_dataset,
)

mesh = generate_rpp()
d = elasticity_matrix(MaterialParams())

# a coarse box grid: 5 x 5 x 3 targets around the contact centroid
box = SamplingSpec(mode="box", extents=(0.4, 0.4, 0.2), spacing=0.1)
print(f"box lattice: {len(sample_points_for_region(mesh, 'end', box))} targets")

# the ellipsoid protocol, radii and spacing as fractions of the
# fixed-to-contact distance
ell = ellipsoid_spec_for_region(
    mesh, "end", r_para_ratio=0.05, r_perp_ratio=0.2, spacing_ratio=0.04
)
pts = sample_points_for_region(mesh, "end", ell)
print(f"ellipsoid lattice (normal-filtered): {len(pts)} targets, "
      f"reference length {ell.reference_length:.3f} units")

# run the FEM for every target; 20 steps keeps this demo quick, use
# 100-1000 for production datasets
ds = build_dataset(mesh, d, {"end": box}, n_steps=20, workers=1)
print(f"\ndataset: {ds.m} samples, {len(ds.failures)} failures")
print(f"max contact displacement: {ds.max_contact_displacement():.3f} units "
      f"({ds.max_contact_displacement() * ds.mm_per_unit:.1f} mm)")
print(f"network input width: {3 * ds.n_obs}, output width: {3 * ds.n_free}")

save_dataset(ds, "box_dataset.ds")
print("wrote box_dataset.ds")

# inputs are exact slices of the stored fields at the observation vertices
x = ds.inputs()
flat = ds.observation_flat_indices()
assert np.array_equal(x[0], ds.u[0][flat])
print("observation slicing verified")
