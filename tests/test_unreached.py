import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "unreached.py"


def _line_of(module: str, text: str) -> str:
    """module:line of the first line of the package module holding text."""
    lines = (ROOT / "src" / "cvepdecode" / f"{module}.py").read_text().splitlines()
    return f"{module}:{next(i for i, line in enumerate(lines, 1) if text in line)}"


def test_lists_the_raises_a_run_never_executes():
    test_file = ROOT / "tests" / "test_outcome.py"
    run = subprocess.run(
        [sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider", str(test_file)],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    listed = set(run.stdout.splitlines())
    # test_outcome.py runs no command line code, but does score a NaN
    assert _line_of("cli", 'raise DataError("curves share no (duration, seed) points")') in listed
    scored = _line_of("outcome", 'raise NumericalFailure("non-finite hypothesis scores")')
    assert scored not in listed
