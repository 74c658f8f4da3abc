"""The line counter in tools/src_lines.py."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _TOOL)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

# Lines 1-2 docstring, 3 blank, 4 comment, 9 docstring; a string that is no
# docstring counts on every line it spans (10-11).
MODULE = '''"""Module docstring,
over two lines."""

# a comment
x = 1  # trailing comment


def f():
    """Docstring."""
    return """a
b"""
'''


def test_src_lines_counts_code_lines_only(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(MODULE, encoding="utf-8")
    assert src_lines.count(module) == (11, 4)
    r = subprocess.run([sys.executable, str(_TOOL), str(tmp_path)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == f"{module}: 11 lines, 4 code\n{tmp_path}: 11 lines, 4 code\n"
