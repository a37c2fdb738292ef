"""The README's Library block, run as a doctest: every value it shows is
the one the package computes."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs():
    result = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert result.attempted > 0 and result.failed == 0
