"""trajcf: functional anomaly detection via Christoffel-Darboux scores.

Curves are embedded as orthonormal Chebyshev coefficient vectors; a
reference database induces an empirical moment matrix over the monomials
of bounded algebraic and harmonic degree; a probe's anomaly score is the
quadratic form of its monomial vector against the (regularized) inverse
moment matrix.  On the reference population that score averages exactly
the basis dimension — far away it explodes, which is the detection signal.
"""

from .basis import (
    BasisEnumeration,
    basis_size,
    enumerate_basis,
    eval_monomial_matrix,
)
from .errors import InputError, MismatchError, NumericalError, TrajcfError
from .model import (
    ChristoffelModel,
    TrajectoryDataset,
    cd_value,
    cd_value_after_update,
    cd_values,
    christoffel_value,
    downdate,
    extremal_polynomial,
    fit,
    kernel,
    load,
    save,
    update,
)
from .projection import (
    SampledTrajectory,
    chebyshev_quadrature_nodes,
    project,
    reconstruct_batch,
    values_on_nodes,
)
from .scoring import (
    PointwiseChristoffel,
    Threshold,
    calibrate,
    classify,
    nearest_distances,
    nearest_trajectory_score,
)
from .synth import SyntheticExperiment, generate_example1, generate_example2, sample_ball

__version__ = "0.1.0"

__all__ = [
    "BasisEnumeration", "basis_size", "enumerate_basis", "eval_monomial_matrix",
    "InputError", "MismatchError", "NumericalError", "TrajcfError",
    "ChristoffelModel", "TrajectoryDataset", "cd_value", "cd_value_after_update",
    "cd_values", "christoffel_value", "downdate", "extremal_polynomial",
    "fit", "kernel", "load", "save", "update",
    "SampledTrajectory", "chebyshev_quadrature_nodes",
    "project", "reconstruct_batch", "values_on_nodes",
    "PointwiseChristoffel", "Threshold", "calibrate", "classify",
    "nearest_distances", "nearest_trajectory_score",
    "SyntheticExperiment", "generate_example1", "generate_example2", "sample_ball",
    "__version__",
]
