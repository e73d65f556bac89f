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
