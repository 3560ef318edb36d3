"""tools/src_lines.py: each line is counted once, under the kind it holds."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("src_lines", _ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

_SOURCES = sorted((_ROOT / "src" / "simplexcut").glob("*.py"))

_SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
x = 1  # code with a comment


class A:
    """One line."""

    def f(self):
        """Two

        paragraphs."""
        return """not a docstring,
        but a string spanning code lines"""
'''


def test_sample_counts_each_kind():
    assert src_lines.count_lines(_SAMPLE) == {
        "code": 5,
        "docstring": 6,
        "comment": 1,
        "blank": 4,
    }


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_kinds_sum_to_the_line_count(path):
    text = path.read_text()
    assert sum(src_lines.count_lines(text).values()) == len(text.splitlines())


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_editing_a_docstring_moves_no_code_line(path):
    # the module docstring gains two lines: only the docstring count moves
    text = path.read_text()
    assert text.startswith('"""')
    edited = '"""One more line,\nand another.\n' + text[3:]
    before, after = src_lines.count_lines(text), src_lines.count_lines(edited)
    assert after == {**before, "docstring": before["docstring"] + 2}
