"""The benchmark's call surface: perfbench/ reaches momentcp through public
names, module globals it patches and call signatures.  These tests run the
benchmark's own self-tests and one tiny round of each fit path, each in a
fresh interpreter, so that a change which breaks that surface fails here."""

import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(args, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")] + [env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_selftest_passes(tmp_path):
    proc = _run([str(ROOT / "perfbench" / "selftest.py")], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all benchmark self-tests pass" in proc.stdout


ROUNDS = textwrap.dedent(
    """
    import json, os
    import child, checks
    import momentcp.cli as cli
    from momentcp import gmm, io, optimize
    from workloads import Workload, make_inputs, write_input

    tiny = [
        Workload("tiny-lbfgs", "lbfgs", n=6, p=300, r=2, d=3, fmt="momv",
                 starts=2, round_s=1.0, threshold=0.99),
        Workload("tiny-adam", "adam", n=6, p=300, r=2, d=3, fmt="momv",
                 starts=3, round_s=1.0, threshold=0.99),
        Workload("tiny-cli", "cli", n=6, p=300, r=2, d=3, fmt="csv",
                 starts=2, round_s=1.0, threshold=0.99, fresh_input=False,
                 pgtol=1e-12, steps=200),
    ]
    for w in tiny:
        inputs = make_inputs(w, 1, 0)
        spec = {"input": w.name + "." + w.fmt, "solution": w.name + ".json",
                "start_seed": 1, "tool_version": "test"}
        write_input(spec["input"], w, inputs.V)
        if w.solver == "cli":
            setup_s, fit_s = child.fit_cli(w, spec, cli)
        else:
            setup_s, fit_s = child.fit_library(w, spec, optimize, gmm, io)
        rec = io.SolutionRecord.load(spec["solution"])
        ok, message, _ = checks.check_recovery(inputs.means, rec.factor_matrix(), w.threshold)
        assert ok, (w.name, message)
        assert setup_s >= 0 and fit_s > 0
        print(w.name, "ok")
    """
)


def test_library_and_cli_rounds(tmp_path):
    proc = _run(["-c", ROUNDS], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("tiny-lbfgs", "tiny-adam", "tiny-cli"):
        assert f"{name} ok" in proc.stdout


# the three targets that no longer exist in src/ (ROADMAP item 9), whose
# traced metrics read 0 until the tracer is changed with a benchmark change
STALE_TARGETS = {
    "momentcp.objective.build_gram_cache",
    "momentcp.optimize.fg_implicit",
    "momentcp.optimize.sample_observations",
}


def test_tracer_targets_resolve():
    # the tracer skips a target it cannot find, so a rename in src/ would
    # zero that layer's metric without an error
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = set()
    for _, module, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(module)
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.add(f"{module}.{attr}")
    assert missing == STALE_TARGETS
