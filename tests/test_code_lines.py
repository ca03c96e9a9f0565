"""tools/code_lines.py counts code lines: docstrings, comments and blank
lines are free, and a statement counts each line it spans."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def _count(tmp_path, source):
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    return code_lines.code_lines(path)


def test_docstrings_count_nothing(tmp_path):
    source = (
        '"""Module docstring,\n'
        'over two lines."""\n'
        "class C:\n"
        '    """Class docstring."""\n'
        "    def f(self):\n"
        '        """Function\n'
        '        docstring."""\n'
        "        return 1\n"
    )
    assert _count(tmp_path, source) == 3  # class, def, return


def test_comments_and_blank_lines_count_nothing(tmp_path):
    source = "# a comment\n\nx = 1  # a trailing comment\n\n    \n# another\ny = 2\n"
    assert _count(tmp_path, source) == 2


def test_a_statement_over_three_lines_counts_three(tmp_path):
    assert _count(tmp_path, "x = (\n    1,\n)\n") == 3


def test_a_string_that_is_not_a_docstring_counts(tmp_path):
    assert _count(tmp_path, 'x = 1\n"""not a docstring"""\n') == 2


def test_main_prints_one_line_per_module_and_a_total(capsys):
    assert code_lines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    modules = sorted(p.name for p in (ROOT / "src" / "streamseq").glob("*.py"))
    assert [line.split()[1] for line in lines] == [*modules, "total"]
    counts = [int(line.split()[0]) for line in lines]
    assert counts[-1] == sum(counts[:-1])
