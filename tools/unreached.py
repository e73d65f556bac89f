"""List the package's raise statements that a test run never executes.

Runs pytest in this process with the given arguments, tracing with
``sys.settrace`` only the code of the files under ``src/cvepdecode/``.
Then prints each ``raise`` statement of those files that the run never
executed, one per line as ``module:line``, and exits with pytest's exit
code. A raise counts as executed when any line of it ran. Code that the
tests run in a child process is not traced.

    python tools/unreached.py [PYTEST_ARGS...]

Tracing slows the run by about a third.
"""
from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cvepdecode"


def raise_spans(source: str) -> list[tuple[int, int]]:
    """The first and last line of every raise statement, in source order."""
    nodes = (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise))
    return sorted((n.lineno, n.end_lineno) for n in nodes)


def main(argv: list[str]) -> int:
    import pytest

    prefix = f"{PACKAGE}/"
    executed: dict[str, set[int]] = defaultdict(set)

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed[str(path)]
        for first, last in raise_spans(path.read_text()):
            if ran.isdisjoint(range(first, last + 1)):
                print(f"{path.stem}:{first}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
