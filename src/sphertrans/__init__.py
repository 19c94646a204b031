"""Spherical operator transforms, joint norms and numerical radii for
finite-dimensional matrix tuples, plus a randomized verification harness
for the inequality chains relating them."""

from .ensembles import (
    random_commuting_tuple,
    random_normal_tuple,
    random_psd,
    random_tuple,
)
from .norms import (
    euclidean_norm,
    hypo_norm,
    joint_numerical_radius,
    numerical_radius,
    schatten_hypo_norm,
    schatten_hypo_norm_gram,
    schatten_numerical_radius,
    schatten_spherical_norm,
    spherical_norm,
)
from .optimize import (
    BallPoint,
    OptimizerConfig,
    SupremumEstimate,
    grid_supremum,
    sphere_optimize,
)
from .predicates import (
    Classification,
    classify,
    is_hyponormal_single,
    is_jointly_hyponormal,
    is_normal_tuple,
    is_quasinormal_single,
    is_spherically_quasinormal,
    is_square_zero,
    taylor_invertibility_proxy,
)
from .reports import InequalityRecord, SuiteReport, write_report
from .suites import (
    INEQUALITIES,
    SuiteConfig,
    fuzz_inequality,
    run_suite,
    sharp_column_pair,
    sharp_diag_pair,
)
from .transforms import (
    aluthge,
    duggal,
    generalized_aluthge,
    heinz,
    lambda_mean,
    mean_transform,
)
from .tupledoc import TupleDocument, read_tuple, write_tuple
from .tuples import (
    BlockEmbedding,
    OperatorTuple,
    SphericalPolar,
    block_embedding,
    defect_operator,
    spherical_polar,
    tuple_from,
)

__version__ = "0.1.0"
