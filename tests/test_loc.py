"""``tools/loc.py`` counts raw lines, and code lines outside comments, blank lines and docstrings."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import loc  # noqa: E402

SNIPPET = '''"""A module docstring
over two lines."""

# A comment on a line of its own.
import os


def f(x):
    """A function docstring."""
    return (x +
            1)  # a comment after code


class C:
    """A class docstring."""

    y = """a string that is
    no docstring"""
'''


def test_counts_code_lines_outside_comments_blank_lines_and_docstrings():
    # Code: the import, the def, the two lines of the return, the class
    # and the two lines of the assignment.
    assert loc.count(SNIPPET) == (18, 7)

