"""Argument checks across the package: each bad argument raises
``ValueError`` with a message that says what is wrong."""

import numpy as np
import pytest

from momentcp import (
    AdamConfig,
    OptConfig,
    DenseSymTensor,
    ObservationSet,
    SymKruskal,
    adam_minimize,
    build_moment,
    data_norm_sq,
    gaussian_init,
    multistart,
    outer_power,
    rrf_init,
    sample_gmm,
    similarity_score,
    ttsv_batch,
)
from momentcp.cli import BenchScenario, fit, run_gmm_sweep
from momentcp.implicit import moment_unfolding

OBS = ObservationSet(np.arange(12.0).reshape(3, 4))


def _rng():
    return np.random.default_rng(0)


CASES = {
    "BenchScenario": (lambda: BenchScenario(d=3, n=0, p=5, r=1),
                      "need positive dimensions and order >= 2"),
    "run_gmm_sweep-ranks": (lambda: run_gmm_sweep(3, 2, 0.1, 3, 2, 1, 1, 0),
                            r"bad rank range \[2, 1\]"),
    "fit-init": (lambda: fit(OBS, 3, 1, OptConfig(), 1, 0, init="rff"),
                 "init must be 'rrf' or 'gaussian', got 'rff'"),
    "adam_minimize-x0": (lambda: adam_minimize(OBS, 3, 2, np.zeros(3), AdamConfig(), _rng()),
                         "x0 has length 3, expected 8"),
    "multistart-k": (lambda: multistart(0, None, None, 0),
                     "number of starts must be >= 1, got 0"),
    "sample_gmm-p": (lambda: sample_gmm(np.eye(2), 0.1, 0, _rng()), "need p >= 1, got 0"),
    "rrf_init-r_hat": (lambda: rrf_init(OBS, 0, _rng()), "r_hat must be >= 1, got 0"),
    "gaussian_init-r_hat": (lambda: gaussian_init(3, 0, _rng()), "r_hat must be >= 1, got 0"),
    "similarity_score-rows": (lambda: similarity_score(np.eye(3), np.eye(2)),
                              "factor matrices must share their row dimension"),
    "SymKruskal-lam": (lambda: SymKruskal(3, np.ones((1, 1)), np.eye(1)),
                       "lam must be a nonempty 1-D vector"),
    "SymKruskal-A": (lambda: SymKruskal(3, np.ones(1), np.ones(1)),
                     "A must be a 2-D matrix with at least one row"),
    "ttsv_batch-d": (lambda: ttsv_batch(OBS, np.eye(3), 1), "order must be >= 2, got 1"),
    "moment_unfolding-d": (lambda: moment_unfolding(OBS, 1), "order must be >= 2, got 1"),
    "data_norm_sq-d": (lambda: data_norm_sq(OBS, 1), "order must be >= 2, got 1"),
    "ObservationSet-ndim": (lambda: ObservationSet(np.ones(3)),
                            "V must be a 2-D matrix, got ndim=1"),
    "DenseSymTensor-dim": (lambda: DenseSymTensor(2, 0, np.ones((0, 0))),
                           "dim must be >= 1, got 0"),
    "outer_power-a": (lambda: outer_power(np.ones((2, 2)), 3), "a must be a nonempty 1-D vector"),
    "build_moment-d": (lambda: build_moment(OBS, 1), "order must be >= 2, got 1"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_bad_argument_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
