"""The benchmark's workloads and the inputs it makes for them.

Inputs are generated here with the benchmark's own numpy code, not with
momentcp's generators, so that a change to ``momentcp.gmm`` cannot change
what the benchmark measures.  Every input is a spherical Gaussian mixture
with unit-norm means whose pairwise inner products all equal
``CONGRUENCE``; it is written to a file that the measured process reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

# noise level of every mixture: at 0.1 the L-BFGS evaluation count of a start
# is too heavy-tailed for a steady run (perfbench/README.md)
SIGMA = 0.01
# pairwise inner product of the unit-norm means: correlated, as in the paper
CONGRUENCE = 0.5
# L-BFGS evaluations one start may use in the library workloads, a fifth of
# the library default: a rare runaway start would otherwise cost a whole run
MAX_EVALS = 10_000
# observations in one Adam mini-batch; small, so per-batch overhead shows
ADAM_BATCH = 100


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str  # "lbfgs" or "adam" through the library, "cli" through `momentcp decompose`
    n: int
    p: int
    r: int
    d: int
    fmt: str  # "momv" (binary) or "csv"
    starts: int  # starts of the multistart in one round
    round_s: float  # seconds one round takes on the reference machine
    threshold: float  # least recovery score a fitted model must reach
    pgtol: float = 1e-4
    steps: int = 0  # when > 0, the L-BFGS step cap, with a pgtol never reached
    dense_check: bool = False  # also check f against dense n^d tensors
    fresh_input: bool = True  # each round draws its own mixture

    def rounds(self, seconds: int) -> int:
        """Rounds in one run: as many as fit in ``seconds`` on the reference
        machine, and at least three so that medians mean something.  The
        count depends only on ``seconds``, never on how fast this machine is,
        so the work of a run is the same on every commit."""
        return max(3, round(seconds / self.round_s))


WORKLOADS = {
    w.name: w
    for w in [
        # criterion-7 shape; the two GEMMs of the batched TTSV dominate
        Workload("tall-lbfgs", "lbfgs", n=100, p=5000, r=10, d=3, fmt="momv",
                 starts=6, round_s=4.8, threshold=0.99),
        # same mixture at p=50k, many tiny batches: sampling and bookkeeping dominate
        Workload("tall-adam", "adam", n=100, p=50_000, r=10, d=3, fmt="momv",
                 starts=8, round_s=4.0, threshold=0.97),
        # criterion-5 shape: 0.3 ms evaluations, half of them Python overhead
        Workload("small-d4", "lbfgs", n=40, p=2000, r=5, d=4, fmt="momv",
                 starts=50, round_s=2.7, threshold=0.99, dense_check=True),
        # The CLI on a CSV file with the exact data norm: CLI, io and data_norm_sq
        # layers.  At this shape one start in about twenty needs 5-10 times the
        # evaluations of the others, and a start costs a second, so no run
        # of this length makes "to pgtol" steady.  Instead every start stops at
        # 200 steps or earlier, when rounding stalls the line search near a
        # gradient of 1e-8 (pgtol 1e-12 is not reached).  Rounds share one
        # input, whose CSV file and reference data norm cost as much as a round.
        Workload("wide-cli", "cli", n=500, p=5000, r=5, d=3, fmt="csv",
                 starts=3, round_s=9.0, threshold=0.99, fresh_input=False,
                 pgtol=1e-12, steps=200),
    ]
}


@dataclass
class Inputs:
    means: np.ndarray  # n x r true means
    V: np.ndarray  # n x p observations
    weights: np.ndarray  # r mixture weights of the sample (component counts / p)


def make_inputs(w: Workload, seed: int, round_index: int) -> Inputs:
    """The mixture sample of one round of workload ``w``; same arguments, same arrays."""
    ss_means, ss_data = np.random.SeedSequence([seed, round_index]).spawn(2)
    rng = np.random.default_rng(ss_means)
    gram = np.full((w.r, w.r), CONGRUENCE)
    np.fill_diagonal(gram, 1.0)
    basis, _ = np.linalg.qr(rng.standard_normal((w.n, w.r)))
    means = basis @ np.linalg.cholesky(gram).T
    counts = np.full(w.r, w.p // w.r)
    counts[: w.p % w.r] += 1
    labels = np.repeat(np.arange(w.r), counts)
    noise = np.random.default_rng(ss_data).standard_normal((w.n, w.p))
    V = means[:, labels] + SIGMA * noise
    if w.fmt == "csv":
        # nine decimals, so the file is short and "%.9f" round-trips exactly
        V = np.rint(V * 1e9) / 1e9
    return Inputs(means=means, V=V, weights=counts / w.p)


def write_input(path: str, w: Workload, V: np.ndarray) -> None:
    """Write ``V`` in the workload's file format (MOMV binary or CSV)."""
    if w.fmt == "momv":
        with open(path, "wb") as fh:
            fh.write(b"MOMV" + struct.pack("<IQQ", 1, V.shape[0], V.shape[1]))
            fh.write(np.asarray(V, dtype="<f8").tobytes(order="F"))
    else:
        # one observation per row; V holds multiples of 1e-9, which "%.9f"
        # prints exactly and a reader parses back to the same doubles
        np.savetxt(path, V.T, fmt="%.9f", delimiter=",")
