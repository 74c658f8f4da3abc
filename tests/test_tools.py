"""The tools: the line counter in tools/src_lines.py, the K-group timing
harness in tools/kgroup_times.py, the skew K-group memory harness in
tools/skew_memory.py, the table timing harness in tools/table_times.py and
the start-up timing harness in tools/import_times.py."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from repcorr.graphs import SkewSpec, ktheory_graph, skew_product

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
_TOOL = _TOOLS / "src_lines.py"
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


def test_kgroup_times_prints_one_json_line_per_input():
    r = subprocess.run([sys.executable, str(_TOOLS / "kgroup_times.py"), "--windows", "3", "8"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lines = [json.loads(line) for line in r.stdout.splitlines()]
    names = ["skew_z2_w3", "skew_z2_w8", "rank29_30x30", "rank39_40x40"]
    assert [line["name"] for line in lines] == names
    assert all(line["seconds"] >= 0 and line["peak_mib"] > 0 and line["build_mib"] > 0
               for line in lines)
    spec = importlib.util.spec_from_file_location("kgroup_times", _TOOLS / "kgroup_times.py")
    times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(times)
    for line, (_, build, kgroups) in zip(lines, times.inputs([3, 8])):
        k = kgroups(build())
        assert (line["k0"], line["k1"]) == (k.k0_pretty(), k.k1_pretty())
    assert [line["k1"] for line in lines] == ["Z", "0", "Z", "Z"]
    keys = {"name", "build_mib", "seconds", "peak_mib", "k0", "k1", "remainder", "d_bits",
            "n_bits"}
    assert all(set(line) == keys for line in lines)
    # What the reduction did: window 8 runs the loop modulo a 5-bit N; the
    # other remainders are singular, so their loop runs exactly.
    reduced = [(line["remainder"], line["d_bits"], line["n_bits"]) for line in lines]
    assert reduced == [([7, 7], 0, 0), ([22, 22], 152, 5), ([26, 26], 0, 0), ([38, 38], 0, 0)]


def test_skew_memory_prints_one_json_line():
    r = subprocess.run([sys.executable, str(_TOOLS / "skew_memory.py"), "3"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    [line] = [json.loads(line) for line in r.stdout.splitlines()]
    calls = ("skew_product", "ktheory_graph", "simplicity_check")
    assert set(line) == {"window", "vertices", "k0", "k1", *calls}
    assert (line["window"], line["vertices"]) == (3, 49)
    k = ktheory_graph(skew_product(SkewSpec(cocycle=((1, 0), (0, 1), (-1, -1)), rank=2, window=3)))
    assert (line["k0"], line["k1"]) == (k.k0_pretty(), k.k1_pretty())
    for call in calls:
        assert set(line[call]) == {"seconds", "vmhwm_mib"} and line[call]["seconds"] >= 0
        assert line[call]["vmhwm_mib"] is None or line[call]["vmhwm_mib"] > 0
    peaks = [line[call]["vmhwm_mib"] for call in calls]
    assert None in peaks or peaks == sorted(peaks)  # the peak never falls


def test_table_times_prints_one_json_line_per_group():
    r = subprocess.run([sys.executable, str(_TOOLS / "table_times.py"), "--groups", "symmetric:3",
                        "cyclic:4", "--repeat", "2"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lines = [json.loads(line) for line in r.stdout.splitlines()]
    assert [(line["group"], line["classes"]) for line in lines] == [("symmetric:3", 3), ("cyclic:4", 4)]
    calls = ("construct_group", "conjugacy", "character_table", "verify_table", "format_table",
             "load_table", "regular_character", "tensor_regular")
    assert all(set(line) == {"group", "classes", *calls} for line in lines)
    assert all(line[call] >= 0 for line in lines for call in calls)


def test_import_times_prints_one_json_line():
    r = subprocess.run([sys.executable, str(_TOOLS / "import_times.py"), "--repeat", "2"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    [line] = [json.loads(line) for line in r.stdout.splitlines()]
    assert set(line) == {
        "bare_s", "import_cli_s", "self_us", "compile_us", "pycache", "repeat", "PYTHONDONTWRITEBYTECODE"
    }
    for key in ("bare_s", "import_cli_s"):
        assert set(line[key]) == {"median", "q1", "q3"}
        assert all(value > 0 for value in line[key].values())
    assert {"repcorr", "repcorr.cli", "repcorr.record"} <= set(line["self_us"])
    assert all(us > 0 for us in line["self_us"].values())
    assert line["repeat"] == 2
    assert set(line["compile_us"]) >= {"repcorr", "repcorr.cli", "repcorr.record"}
    assert all(us > 0 for us in line["compile_us"].values())
    assert isinstance(line["pycache"], int) and line["pycache"] >= 0
