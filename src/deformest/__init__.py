"""deformest: elastic deformation datasets by incremental tetrahedral FEM,
and neural estimation of full displacement fields from sparse observations.

Typical flow: build or load a :class:`~deformest.mesh.TetMesh`, generate a
:class:`~deformest.sampling.Dataset` of forced-displacement deformations,
train the two-hidden-layer estimator from :mod:`deformest.nn`, and score it
with :func:`deformest.evaluation.run_session`. The ``deformest`` command
exposes the same pipeline as subcommands.
"""

from .mesh import (
    MeshError,
    ScaleConvention,
    TetMesh,
    generate_rpp,
    load_mesh,
    save_mesh,
    vertex_normals,
)
from .fem import (
    DegenerateElementError,
    DeformResult,
    FemError,
    MaterialParams,
    SingularSystemError,
    StiffnessSystem,
    assemble,
    deform,
    elasticity_matrix,
    solve_forced_displacement,
)
from .sampling import (
    Dataset,
    DatasetError,
    MeshHashMismatchError,
    SamplingSpec,
    build_dataset,
    ellipsoid_points,
    ellipsoid_spec_for_region,
    grid_points,
    load_dataset,
    save_dataset,
)
from .nn import (
    AdamState,
    MlpModel,
    TrainConfig,
    adam_step,
    alpha_schedule,
    cost,
    gradients,
    init_model,
    load_model,
    predict,
    save_model,
    train,
)
from .evaluation import (
    SessionReport,
    export_vtk,
    kfold,
    local_positional_error,
    rmse,
    run_session,
)

__version__ = "0.1.0"
