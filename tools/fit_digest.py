"""Print one sha256 per ``perfbench`` workload over every start of its fit,
so that two checkouts can be shown to fit bit for bit alike.

For each workload the tool makes the round-0 input that ``perfbench/run.py
--seed N`` makes (``workloads.make_inputs`` and ``write_input``), fits it
with ``perfbench/child.py``'s own ``fit_library`` or ``fit_cli`` (so ``V``
is read back through ``momentcp.io.read_observations`` in the benchmark's
layout, and the multistart seed is ``1000 N``), and hashes, start by start,
``lam``, ``A``, ``f``, ``grad_inf_norm``, ``n_fg``, ``n_steps`` and the
trace's ``f`` column.  A fifth line, ``gmm``, hashes the rows of a small
``momentcp gmm`` sweep (:func:`gmm_digest`), which no workload reaches.
Nothing under ``perfbench/`` is changed.  Each line is computed in a fresh
interpreter on one BLAS thread, with the ``momentcp`` of ``--side SRC``
(this checkout's ``src`` by default)::

    git archive PARENT | tar -x -C /tmp/parent
    python tools/fit_digest.py --seed 1 --side /tmp/parent/src > parent.txt
    python tools/fit_digest.py --seed 1 > change.txt
    diff parent.txt change.txt

The five lines take about 5 s together on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD = ("import sys, fit_digest, workloads; "
         "print(sys.argv[1], fit_digest.digest(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2])))")
GMM_CHILD = "import fit_digest; print('gmm', fit_digest.gmm_digest())"
# the sweep gmm_digest hashes: small enough to add little to the four workloads
GMM_SWEEP = dict(n=12, r=2, sigma=0.01, d=3, rank_min=1, rank_max=3, starts=3, seed=5)


def digest(w, seed: int) -> str:
    """The sha256 of workload ``w``'s round-0 fit at ``seed``, by the
    ``momentcp`` and ``perfbench`` on ``sys.path``."""
    import child
    import momentcp
    import momentcp.cli as cli
    from momentcp import gmm, io, optimize
    from workloads import make_inputs, write_input

    module = cli if w.solver == "cli" else optimize
    saved = module.multistart, cli.OptConfig  # fit_cli rebinds both in cli
    kept = []

    def recorded(*args, **kwargs):
        kept.append(saved[0](*args, **kwargs))
        return kept[-1]

    module.multistart = recorded
    try:
        # the CLI's summary line would interleave with the digests
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(None):
            spec = {"input": os.path.join(tmp, f"input.{w.fmt}"),
                    "solution": os.path.join(tmp, "solution.json"),
                    "start_seed": 1000 * seed, "tool_version": momentcp.__version__}
            write_input(spec["input"], w, make_inputs(w, seed, 0).V)
            if w.solver == "cli":
                child.fit_cli(w, spec, cli)
            else:
                child.fit_library(w, spec, optimize, gmm, io)
    finally:
        module.multistart, cli.OptConfig = saved
    bits = hashlib.sha256()
    for rep in kept[0].runs:
        bits.update(np.array([rep.f, rep.grad_inf_norm, rep.n_fg, rep.n_steps,
                              *(f for f, _ in rep.trace)]).tobytes())
        bits.update(rep.lam.tobytes() + rep.A.tobytes())
    return bits.hexdigest()


def gmm_digest() -> str:
    """The sha256 of ``cli.run_gmm_sweep(**GMM_SWEEP)``'s rows, each row's
    values but its ``total_time_s``, by the ``momentcp`` on ``sys.path``."""
    from momentcp import cli

    bits = hashlib.sha256()
    for row in cli.run_gmm_sweep(**GMM_SWEEP):
        bits.update(np.array([v for k, v in row.items() if k != "total_time_s"]).tobytes())
    return bits.hexdigest()


def main(argv=None) -> int:
    sys.path.insert(0, PERFBENCH)
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="perfbench seed of the inputs")
    ap.add_argument("--side", default=os.path.join(ROOT, "src"),
                    help="source directory of the checkout to fit with")
    args = ap.parse_args(argv)
    path = [os.path.abspath(args.side), PERFBENCH, os.path.join(ROOT, "tools")]
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": os.pathsep.join(path)}
    for name in WORKLOADS:
        # a fresh interpreter per workload, as perfbench runs each round
        subprocess.run([sys.executable, "-c", CHILD, name, str(args.seed)], env=env, check=True)
    subprocess.run([sys.executable, "-c", GMM_CHILD], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
