import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_import_leaves_slow_scipy_modules_unloaded():
    # scipy.signal and scipy.stats are imported where they are used, so
    # a process that only decodes never pays for them
    probe = (
        "import sys\n"
        "import cvepdecode, cvepdecode.cli, cvepdecode.evaluate\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


def _run_module(*args):
    return subprocess.run(
        [sys.executable, "-m", "cvepdecode", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_module_runs_the_command_line_from_a_checkout():
    out = _run_module("codes", "--n", "3")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 3
    assert all(len(line) == 126 and set(line) <= {"0", "1"} for line in lines)


def test_module_without_a_subcommand_is_a_usage_error():
    out = _run_module()
    assert out.returncode == 1
    assert "usage error" in out.stderr
