import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
two lines."""

# a comment
import os  # a trailing comment counts as code


class A:
    """Class docstring."""

    x = (
        1,
    )

    def f(self):
        """One line."""
        return """a string
that is not a docstring"""
'''


def test_counts_code_lines_only():
    # import, class, the three lines of x, def, and the two of the return
    assert code_lines.code_lines(FIXTURE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("\n\nx = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines]
    assert rows == [["8", "pkg/a.py"], ["1", "pkg/b.py"], ["9", "total"]]
