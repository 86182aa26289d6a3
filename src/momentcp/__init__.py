"""Symmetric CP decomposition of empirical moment tensors, matrix-free.

The d-th empirical moment of p observations of an n-vector is a symmetric
d-way tensor with n**d entries.  This package fits low-rank symmetric CP
models to such tensors while only ever touching the n x p observation
matrix: function and gradient evaluations cost O(pnr) instead of O(r n**d).
A dense implementation of every operation is included as the verification
oracle, along with L-BFGS and stochastic (Adam) drivers, mixture-model data
generators, and a CLI.
"""

__version__ = "0.1.0"

from momentcp.dense import (
    CapExceededError,
    DenseSymTensor,
    ObservationSet,
    build_moment,
    element_cap,
    inner,
    kruskal_to_dense,
    outer_power,
    ttsv_all,
    ttsv_all_but_one,
)
from momentcp.gmm import (
    ScoreResult,
    correlated_means,
    gaussian_init,
    rrf_init,
    sample_gmm,
    similarity_score,
)
from momentcp.implicit import (
    SymKruskal,
    data_norm_sq,
    kruskal_norm_sq,
    model_data_inner,
    ttsv_batch,
)
from momentcp.io import (
    ParseError,
    SolutionRecord,
    read_observations,
    read_observations_binary,
    read_observations_csv,
    write_observations_binary,
    write_observations_csv,
)
from momentcp.objective import (
    FgResult,
    fg_explicit,
    fg_implicit,
    pack,
    packed_fg,
    packed_fg_implicit,
    sample_observations,
    unpack,
)
from momentcp.optimize import (
    AdamConfig, OptConfig, RunReport, adam_minimize, lbfgs_minimize, multistart,
)

__all__ = [
    "AdamConfig",
    "CapExceededError",
    "DenseSymTensor",
    "FgResult",
    "ObservationSet",
    "OptConfig",
    "ParseError",
    "RunReport",
    "ScoreResult",
    "SolutionRecord",
    "SymKruskal",
    "adam_minimize",
    "build_moment",
    "correlated_means",
    "data_norm_sq",
    "element_cap",
    "fg_explicit",
    "fg_implicit",
    "gaussian_init",
    "inner",
    "kruskal_norm_sq",
    "kruskal_to_dense",
    "lbfgs_minimize",
    "model_data_inner",
    "multistart",
    "outer_power",
    "pack",
    "packed_fg",
    "packed_fg_implicit",
    "read_observations",
    "read_observations_binary",
    "read_observations_csv",
    "rrf_init",
    "sample_gmm",
    "sample_observations",
    "similarity_score",
    "ttsv_all",
    "ttsv_all_but_one",
    "ttsv_batch",
    "unpack",
    "write_observations_binary",
    "write_observations_csv",
]
