"""The scripts under tools/: each starts and answers ``--help``, the names
they import from momentcp (inside functions too) exist, and
``fit_digest.py`` gives the same digest for the same fit, and for the same
``gmm`` sweep, each in a fresh interpreter."""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def _run(args, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
        + [env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )


def _momentcp_imports(path: Path) -> list[str]:
    """Every ``import momentcp...`` and ``from momentcp... import ...``
    statement of ``path``, wherever it stands, as source text."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("momentcp"):
            out.append(f"from {node.module} import "
                       + ", ".join(alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            out += [f"import {alias.name}" for alias in node.names
                    if alias.name.startswith("momentcp")]
    return out


@pytest.mark.parametrize("tool", TOOLS, ids=lambda p: p.name)
def test_help_exits_zero(tool, tmp_path):
    proc = _run([str(tool), "--help"], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "usage:" in proc.stdout


@pytest.mark.parametrize("tool", TOOLS, ids=lambda p: p.name)
def test_momentcp_names_it_imports_exist(tool, tmp_path):
    statements = _momentcp_imports(tool)
    assert statements, f"{tool.name} imports nothing from momentcp"
    proc = _run(["-c", "\n".join(statements)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


DIGEST = textwrap.dedent(
    """
    import sys
    import fit_digest
    from workloads import Workload

    tiny = {
        "lbfgs": Workload("tiny-lbfgs", "lbfgs", n=6, p=300, r=2, d=3, fmt="momv",
                          starts=2, round_s=1.0, threshold=0.99),
        "adam": Workload("tiny-adam", "adam", n=6, p=300, r=2, d=3, fmt="momv",
                         starts=2, round_s=1.0, threshold=0.99),
        "cli": Workload("tiny-cli", "cli", n=6, p=300, r=2, d=3, fmt="csv",
                        starts=2, round_s=1.0, threshold=0.99, fresh_input=False,
                        pgtol=1e-12, steps=50),
    }
    print(fit_digest.digest(tiny[sys.argv[1]], int(sys.argv[2])))
    """
)


@pytest.mark.parametrize("solver", ["lbfgs", "adam", "cli"])
def test_fit_digest_repeats(solver, tmp_path):
    digests = []
    for seed in (1, 1, 2):
        proc = _run(["-c", DIGEST, solver, str(seed)], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert re.fullmatch(r"[0-9a-f]{64}\n", proc.stdout), proc.stdout
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]  # another input, another fit
    assert not list(tmp_path.iterdir())  # the input and solution went with their directory


def test_gmm_digest_repeats(tmp_path):
    lines = []
    for _ in range(2):
        proc = _run(["-c", "import fit_digest; print(fit_digest.gmm_digest())"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert re.fullmatch(r"[0-9a-f]{64}\n", proc.stdout), proc.stdout
        lines.append(proc.stdout)
    assert lines[0] == lines[1]
