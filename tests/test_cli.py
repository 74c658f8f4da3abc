import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repcorr import chartable, cli, graphs
from repcorr.chartable import character_table, load_table, tables_equal_up_to_row_order
from repcorr.errors import VerificationError
from repcorr.graphs import MAX_EDGE_COPIES
from repcorr.groups import MAX_PERM_POINTS, construct_group

SYM3_REP = "rho=perm:[(1 2), (1 2 3)]"


def run_in_process(argv):
    """(exit code, stdout, stderr) of cli.run(argv), argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Child interpreters import repcorr from this checkout, as the tests do
# through pytest's `pythonpath` setting.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child_env(extra=None):
    env = dict(os.environ, **(extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    return env


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "repcorr.cli", *args],
        capture_output=True,
        text=True,
        env=_child_env(env_extra),
    )


def test_egraph_and_ktheory_json():
    r = run_cli(
        "--group", "symmetric:3",
        "--rep", SYM3_REP,
        "--task", "egraph,ktheory",
        "--format", "json",
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["group"] == "symmetric:3"
    egraph = next(p for p in doc["results"] if p["task"] == "egraph")
    assert egraph["B"] == [[1, 1, 1], [0, 0, 0], [1, 1, 2]]
    assert egraph["vertices"] == [
        {"index": 0, "algebra_dim": 1},
        {"index": 1, "algebra_dim": 1},
        {"index": 2, "algebra_dim": 2},
    ]
    assert len(egraph["edges"]) == sum(sum(row) for row in egraph["B"])
    kt = next(p for p in doc["results"] if p["task"] == "ktheory")
    assert kt["graph_path"]["k0"] == "Z"
    assert kt["graph_path"]["k1"] == "0"
    assert kt["bimodule_path"]["k0"] == "Z"
    assert kt["agree"] is True
    assert kt["sources"] == [1]
    assert kt["simplicity"]["simple"] is False


def test_output_is_deterministic():
    args = (
        "--group", "symmetric:4",
        "--rep", "a=regular",
        "--rep", "b=tensor(mult:[0,1,0,0,1], mult:[0,0,1,0,0])",
        "--task", "table,decompose,egraph,dgraph,ktheory",
        "--format", "json",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_table_text_roundtrips_through_loader():
    r = run_cli("--group", "dihedral:5", "--task", "table")
    assert r.returncode == 0
    loaded = load_table(r.stdout)
    direct = character_table(construct_group("dihedral:5"))
    assert tables_equal_up_to_row_order(loaded, direct)


def test_module_count_convention_flag():
    r = run_cli(
        "--group", "symmetric:3",
        "--rep", SYM3_REP,
        "--task", "egraph",
        "--convention", "module-count",
        "--format", "json",
    )
    doc = json.loads(r.stdout)
    assert doc["results"][0]["B"] == [[1, 1, 2], [0, 0, 0], [1, 1, 2]]


def test_default_rep_names():
    r = run_cli(
        "--group", "symmetric:3",
        "--rep", "regular",
        "--task", "decompose",
        "--format", "json",
    )
    doc = json.loads(r.stdout)
    assert doc["results"][0]["rep"] == "rep1"
    assert doc["results"][0]["mults"] == [1, 1, 2]


def test_skew_task_free_dual():
    r = run_cli(
        "--rep", "c=zcocycle:[1,1]",
        "--task", "skew",
        "--window", "2",
        "--format", "json",
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)["results"][0]
    assert payload["dual_group"] == "Z^1 (window 2)"
    assert payload["edges_per_vertex"] == 2
    names = [v["name"] for v in payload["vertices"]]
    assert names == ["(-2)", "(-1)", "(0)", "(1)", "(2)"]
    # both edges out of each lattice point move one step up
    for t in range(4):
        assert payload["A"][t + 1][t] == 2
    assert payload["stubs"] == [{"src": 4, "target": "(3)", "count": 2}]
    assert payload["sources"] == [0]


def test_skew_task_finite_dual():
    r = run_cli(
        "--group", "cyclic:2",
        "--rep", "c=cocycle:[1,1]",
        "--task", "skew",
        "--format", "json",
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)["results"][0]
    assert payload["dual_group"] == "Z/2"
    assert payload["A"] == [[0, 2], [2, 0]]
    assert payload["stubs"] == []


def test_skew_task_rejects_character_outside_dual():
    r = run_cli(
        "--group", "cyclic:2",
        "--rep", "c=cocycle:[1,2]",
        "--task", "skew",
    )
    assert r.returncode == 2
    assert "outside dual group" in r.stderr


def test_circle_task_angles_and_freqs():
    r = run_cli(
        "--rep", "a=angles:[1/2, 1/3]",
        "--rep", "f=freqs:[1/2, -theta]",
        "--task", "circle",
        "--format", "json",
    )
    assert r.returncode == 0, r.stderr
    results = json.loads(r.stdout)["results"]
    angles = next(p for p in results if p["kind"] == "angles")
    assert (angles["orbit_group_order"], angles["dense"]) == (6, False)
    freqs = next(p for p in results if p["kind"] == "freqs")
    assert freqs["fills_line"] is True


def test_circle_task_without_group():
    r = run_cli("--rep", "a=angles:[theta]", "--task", "circle", "--format", "json")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)["results"][0]
    assert payload["orbit_group_order"] == "infinite"
    assert payload["dense"] is True


def test_dot_format_for_egraph():
    r = run_cli(
        "--group", "symmetric:3",
        "--rep", SYM3_REP,
        "--task", "egraph",
        "--format", "dot",
    )
    assert r.returncode == 0
    assert r.stdout.startswith("digraph egraph {")
    assert 'label="M_2x2"' in r.stdout


def test_dot_format_rejected_for_tableonly():
    r = run_cli("--group", "symmetric:3", "--task", "table", "--format", "dot")
    assert r.returncode == 2
    assert "no dot rendering" in r.stderr


def test_out_directory(tmp_path):
    out = tmp_path / "artifacts"
    r = run_cli(
        "--group", "symmetric:3",
        "--rep", SYM3_REP,
        "--task", "ktheory",
        "--format", "json",
        "--out", str(out),
    )
    assert r.returncode == 0
    path = out / "ktheory_rho.json"
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["bimodule_path"]["k0"] == "Z"


def test_export_bundle(tmp_path):
    out = tmp_path / "bundle"
    r = run_cli(
        "--group", "symmetric:3",
        "--rep", SYM3_REP,
        "--task", "export",
        "--out", str(out),
    )
    assert r.returncode == 0
    assert (out / "table.txt").exists()
    assert (out / "egraph_rho.json").exists()
    assert (out / "egraph_rho.dot").exists()
    loaded = load_table((out / "table.txt").read_text())
    assert loaded.group.spec == "symmetric:3"


def test_export_requires_out():
    r = run_cli("--group", "symmetric:3", "--rep", SYM3_REP, "--task", "export")
    assert r.returncode == 2


def test_job_file(tmp_path):
    job = tmp_path / "run.job"
    job.write_text(
        "# sample job\n"
        "group = symmetric:3\n"
        f"rep.rho = {SYM3_REP.split('=', 1)[1]}\n"
        "tasks = ktheory\n"
        "convention = module-count\n"
        "format = json\n"
    )
    r = run_cli("--job", str(job))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["convention"] == "module-count"
    assert doc["results"][0]["rep"] == "rho"
    # explicit flags win over the job file
    r2 = run_cli("--job", str(job), "--convention", "paper-min")
    assert json.loads(r2.stdout)["convention"] == "paper-min"


def test_job_file_rejects_unknown_keys(tmp_path):
    job = tmp_path / "bad.job"
    job.write_text("group = symmetric:3\nbogus = 1\n")
    r = run_cli("--job", str(job))
    assert r.returncode == 2
    assert "unknown key" in r.stderr


def test_missing_job_file_is_io_error():
    r = run_cli("--job", "/nonexistent/path.job")
    assert r.returncode == 4


def test_bad_specs_exit_2():
    cases = [
        ("--group", "bogus:1", "--task", "table"),
        ("--group", "symmetric:3", "--task", "nonsense"),
        ("--group", "symmetric:3", "--rep", "x=blah", "--task", "decompose"),
        ("--group", "symmetric:3", "--task", "decompose"),  # no reps
        ("--group", "symmetric:3", "--rep", SYM3_REP, "--task", "skew"),  # no cocycle
        # finite duals need a cyclic-factor presentation of the group
        ("--group", "symmetric:3", "--rep", "c=cocycle:[1]", "--task", "skew"),
        ("--rep", "c=zcocycle:[1]", "--task", "skew", "--window", "0"),
        ("--group", "symmetric:3", "--task", "circle"),
        ("--rep", "f=angles:[1/0]", "--task", "circle"),
        ("--rep", "f=freqs:[1/0]", "--task", "circle"),
        ("--group", "cyclic:2", "--rep", "char:[1/0,1]", "--task", "decompose"),
    ]
    for case in cases:
        r = run_cli(*case)
        assert r.returncode == 2, (case, r.stderr)


def test_skew_vertex_cap_exits_2_in_process(capsys):
    from repcorr.cli import run

    rank40 = "c=zcocycle:[(" + ",".join(["1"] * 40) + ")]"
    cases = [
        ["--rep", "c=zcocycle:[1]", "--task", "skew", "--window", "1000000000"],
        ["--group", "cyclic:1000000000", "--rep", "c=cocycle:[1]", "--task", "skew"],
        ["--rep", rank40, "--task", "skew"],
    ]
    for argv in cases:
        assert run(argv) == 2, argv
        assert "more than 2500 vertices" in capsys.readouterr().err


def test_huge_multiplicities_exit_2():
    nines = "9" * 4000
    code, out, err = run_in_process(["--group", "symmetric:3", "--rep",
                                     f"r=mult:[{nines},{nines},{nines}]", "--task", "ktheory"])
    assert (code, out) == (2, "")
    assert "dimension exceeds the cap" in err and "Traceback" not in err


def test_edge_copy_cap_exits_2_before_listing(tmp_path):
    # 3 * 10^12 edge copies: under the dimension cap, far over the listing cap.
    huge = "r=mult:[1000000000000,0,0]"
    for task, fmt in (("egraph", "json"), ("dgraph", "json"), ("egraph", "dot"), ("dgraph", "dot")):
        code, out, err = run_in_process(["--group", "symmetric:3", "--rep", huge,
                                         "--task", task, "--format", fmt])
        assert (code, out) == (2, ""), (task, fmt)
        assert "edge copies" in err and "Traceback" not in err
    code, _, err = run_in_process(["--group", "symmetric:3", "--rep", huge, "--task", "export",
                                   "--out", str(tmp_path / "out")])
    assert code == 2 and "edge copies" in err
    # The text lists one line per edge with its count, not one per copy.
    code, out, _ = run_in_process(["--group", "symmetric:3", "--rep", huge, "--task", "egraph"])
    assert code == 0 and ": 1000000000000 x M_" in out
    # K-theory lists no edges, so the same representation goes through.
    code, out, _ = run_in_process(["--group", "symmetric:3", "--rep", huge, "--task", "ktheory"])
    assert code == 0 and "K0" in out
    assert MAX_EDGE_COPIES == 10**6


def test_edge_copy_cap_boundary(monkeypatch):
    # The cap is read when a graph is listed: at the cap every copy is listed,
    # one more is refused.
    monkeypatch.setattr(graphs, "MAX_EDGE_COPIES", 10)
    for task in ("egraph", "dgraph"):
        argv = ["--group", "cyclic:1", "--task", task, "--format", "dot", "--rep"]
        code, out, _ = run_in_process([*argv, "mult:[10]"])
        assert code == 0 and out.count(" -> ") == 10
        code, out, err = run_in_process([*argv, "mult:[11]"])
        assert (code, out) == (2, "") and "capped at 10" in err


def test_class_cap_exits_2(monkeypatch):
    # One class above the cap exits 2 for every task that needs the table.
    r = run_cli("--group", "cyclic:257", "--task", "table")
    assert (r.returncode, r.stdout) == (2, "")
    assert "257 conjugacy classes; character tables are capped at 256" in r.stderr
    for argv in (["--group", "cyclic:5040", "--task", "table"],
                 ["--group", "dihedral:508", "--rep", "r=regular", "--task", "decompose"]):
        code, out, err = run_in_process(argv)
        assert (code, out) == (2, "") and "capped at 256" in err, argv
    # At the cap the run goes past the check, to the first class matrix.

    def reached(*args):
        raise VerificationError("reached the split")

    monkeypatch.setattr(chartable, "_omega_vectors", reached)
    code, _, err = run_in_process(["--group", "cyclic:256", "--task", "table"])
    assert code == 3 and "reached the split" in err


def test_class_cap_boundary(monkeypatch):
    monkeypatch.setattr(chartable, "MAX_TABLE_CLASSES", 4)
    code, out, _ = run_in_process(["--group", "cyclic:4", "--task", "table"])
    assert code == 0 and out.count("irrep") == 4
    code, out, err = run_in_process(["--group", "cyclic:5", "--task", "table"])
    assert (code, out) == (2, "") and "5 conjugacy classes; character tables are capped at 4" in err


def test_runs_build_only_the_renderings_they_emit(monkeypatch):
    # Each case names the renderers its run must not call: text never builds
    # a dot listing, and only JSON lists sources and sinks. The output stays
    # byte-identical.
    zskew = ["--rep", "c=zcocycle:[(1,0),(0,1),(-1,-1)]", "--task", "skew", "--window", "3"]
    cskew = ["--group", "cyclic:12", "--rep", "c=cocycle:[1,5,7]", "--task", "skew"]
    both = ("dot_export", "sources_sinks")
    cases = [
        (["--group", "symmetric:3", "--rep", SYM3_REP, "--task", "egraph,dgraph,ktheory"], both),
        (["--group", "symmetric:3", "--rep", SYM3_REP, "--task", "egraph", "--format", "json"],
         ("dot_export",)),
        (zskew + ["--format", "text"], both),
        (cskew + ["--format", "text"], both),
        (cskew + ["--format", "dot"], ("sources_sinks",)),
    ]

    def refuse(*args):
        raise AssertionError("built a rendering the run does not emit")

    for argv, unused in cases:
        expected = run_in_process(argv)
        assert expected[0] == 0, argv
        with monkeypatch.context() as m:
            for name in unused:
                m.setattr(graphs, name, refuse)
            assert run_in_process(argv) == expected, argv


def test_text_of_many_edge_copies_lists_no_copy():
    # 3 * 10^5 edge copies per graph: the text prints one line per edge, so
    # no per-copy JSON or dot listing may be built.
    argv = ["--group", "symmetric:3", "--rep", "r=mult:[100000,0,0]", "--task", "egraph,dgraph",
            "--format", "text"]
    tracemalloc.start()
    try:
        code, out, _ = run_in_process(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and "pi0 -> pi0: 100000 x M_1x1" in out
    assert peak < 5 * 2**20, peak


def test_repeated_input_names_exit_2(tmp_path):
    # Each input names its output files, so a repeated name is refused before
    # anything is written; a bare spec's default name counts too.
    out = tmp_path / "D"
    for reps, name in (
        (["a=regular", "a=trivial"], "a"),
        (["rep2=trivial", "regular"], "rep2"),
        (["c=regular", "c=cocycle:[1]"], "c"),
    ):
        argv = ["--group", "cyclic:3", "--task", "decompose", "--format", "json", "--out", str(out)]
        for rep in reps:
            argv += ["--rep", rep]
        assert run_in_process(argv) == (2, "", f"error: input name {name!r} is given more than once\n")
        assert not out.exists()
    job = tmp_path / "dup.job"
    job.write_text("group = cyclic:3\nrep.a = regular\nrep.b = trivial\nrep.a = trivial\n"
                   "tasks = decompose\n")
    assert run_in_process(["--job", str(job)]) == (
        2, "", "error: input name 'a' is given more than once\n")
    # --rep flags replace the job file's inputs
    code, out_text, _ = run_in_process(["--job", str(job), "--rep", "a=regular"])
    assert code == 0 and out_text.startswith("decompose a: dim 3")


def test_deeply_nested_specs_exit_2(tmp_path):
    # Nesting far past reps.MAX_SPEC_DEPTH used to end in a RecursionError.
    for head in ("dsum", "tensor"):
        spec = f"{head}(trivial, " * 500 + "regular" + ")" * 500
        err = "error: representation spec nests deeper than 100 levels\n"
        argv = ["--group", "cyclic:2", "--rep", spec, "--task", "decompose"]
        assert run_in_process(argv) == (2, "", err)
        job = tmp_path / f"{head}.job"
        job.write_text(f"group = cyclic:2\nrep.r = {spec}\ntasks = decompose\n")
        assert run_in_process(["--job", str(job)]) == (2, "", err)


def test_cli_import_leaves_numpy_unloaded():
    r = subprocess.run(
        [sys.executable, "-c", "import sys, repcorr.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_argparse_errors_exit_2():
    r = run_cli("--group", "symmetric:3", "--task", "table", "--format", "yaml")
    assert r.returncode == 2


def test_noncharacter_values_exit_3():
    r = run_cli(
        "--group", "symmetric:3",
        "--rep", "f=char:[0, 1, 0]",
        "--task", "decompose",
    )
    assert r.returncode == 3
    assert "verification failed" in r.stderr


def test_order_cap_env_is_respected():
    r = run_cli(
        "--group", "symmetric:4",
        "--task", "table",
        env_extra={"REPCORR_ORDER_CAP": "10"},
    )
    assert r.returncode == 2
    assert "cap" in r.stderr


def test_missing_task_flag_exits_2():
    r = run_cli("--group", "symmetric:3")
    assert r.returncode == 2
    assert "no tasks" in r.stderr


def test_non_utf8_job_file_exits_2(tmp_path):
    job = tmp_path / "latin1.job"
    job.write_bytes("group = cyclic:2\n# caf\u00e9\ntasks = table\n".encode("latin-1"))
    code, out, err = run_in_process(["--job", str(job)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {job}: job file is not valid UTF-8")


def test_nul_byte_in_job_file_exits_2(tmp_path):
    job = tmp_path / "nul.job"
    job.write_text(f"group=cyclic:2\ntasks=table\nout={tmp_path / 'a'}\0b\n", encoding="utf-8")
    code, out, err = run_in_process(["--job", str(job)])
    assert (code, out) == (2, "")
    assert err == f"error: {job}:3: NUL byte in job file\n"


def test_malformed_inputs_exit_2_in_process():
    far = f"(1 {MAX_PERM_POINTS + 1})"
    cases = [
        # auxiliary heads without a list
        ["--rep", "cocycle", "--task", "skew"],
        ["--rep", "c=zcocycle", "--task", "skew"],
        ["--rep", "angles", "--task", "circle"],
        ["--rep", "f=freqs", "--task", "circle"],
        # permutation points beyond the cap, as a group and as a rep
        ["--group", f"perm:[{far}]", "--task", "table"],
        ["--group", "symmetric:3", "--rep", f"perm:[(1 2), {far}]", "--task", "decompose"],
        # integer literals beyond Python's 4,300-digit int string limit
        ["--group", "cyclic:2", "--rep", f"char:[{'9' * 5000},1]", "--task", "decompose"],
        ["--rep", f"f=freqs:[{'9' * 5000}]", "--task", "circle"],
        # an empty list item, a trailing comma included
        ["--group", "cyclic:2", "--rep", "char:[1,,1]", "--task", "decompose"],
        ["--group", "cyclic:2", "--rep", "char:[1,1,]", "--task", "decompose"],
        ["--rep", "c=zcocycle:[1,,1]", "--task", "skew"],
        ["--rep", "c=zcocycle:[(1,,0)]", "--task", "skew"],
        ["--rep", "c=zcocycle:[(1,0,)]", "--task", "skew"],
        ["--group", "cyclic:2", "--rep", "c=cocycle:[1,]", "--task", "skew"],
        ["--rep", "a=angles:[1/2,,1/3]", "--task", "circle"],
        ["--rep", "f=freqs:[,1/2]", "--task", "circle"],
        ["--group", "perm:[(1 2),,(1 2 3)]", "--task", "table"],
        ["--group", "symmetric:3", "--rep", "perm:[(1 2),,(1 2 3)]", "--task", "decompose"],
        ["--group", "symmetric:3", "--rep", "tensor(regular,,trivial)", "--task", "decompose"],
        ["--group", "symmetric:3", "--rep", "dsum(regular, )", "--task", "decompose"],
    ]
    for argv in cases:
        code, out, err = run_in_process(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


# A bounded argv grammar for the fuzz test below: groups of order at most 24,
# well-formed and malformed specs of every head, every task and format.
def _mostly(good, bad):
    """Draw mostly from good and sometimes from bad, so that many runs get far."""
    return st.integers(0, 4).flatmap(lambda k: bad if k == 4 else good)


_GROUPS = st.sampled_from([
    "cyclic:1", "cyclic:2", "cyclic:5", "cyclic:12", "dihedral:3", "dihedral:12",
    "symmetric:2", "symmetric:3", "symmetric:4", "product:[2,2]", "product:[2,3]",
    "product:[2,2,2]", "perm:[(1 2 3), (1 2)(3 4)]", "perm:[()]", " cyclic : 4 ",
])
_BAD_GROUPS = st.sampled_from([
    None, "cyclic:0", "cyclic:x", "cyclic:", "product:[]", "product:[2,0]", "product:[2,,3]",
    "dihedral:1", "symmetric:7", "perm:(1 2)", "perm:[]", "perm:[(1 2]", "perm:[(0 1)]",
    f"perm:[(1 {MAX_PERM_POINTS + 1})]", "bogus:1", "",
])
_INTS = st.lists(st.integers(-1, 2), max_size=5).map(lambda xs: ",".join(map(str, xs)))
# Multiplicities near and past the edge-copy and dimension caps.
_HUGE_INTS = st.lists(
    st.sampled_from([0, 1, 3, 10**5, 333_334, 10**6, 10**12, 10**13]), min_size=1, max_size=5
).map(lambda xs: ",".join(map(str, xs)))
_CYCLES = st.lists(
    st.lists(st.integers(0, 5), max_size=4).map(lambda xs: "(" + " ".join(map(str, xs)) + ")"),
    max_size=2,
).map("".join)
_NUMBERS = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(0, 6)),
    st.sampled_from(["1", "theta", "-theta", "2*phi", "x", "1/", "z+z^2"]),
)
_GOOD_SPECS = st.sampled_from([
    "trivial", "regular", "tensor(regular, trivial)", "dsum(trivial, trivial)",
    "cocycle:[1]", "zcocycle:[1,-1]", "angles:[1/2, theta]", "freqs:[1, -theta]",
])
_LEAVES = st.one_of(
    _GOOD_SPECS,
    st.sampled_from(["cocycle", "mult", "perm:", "char:[", "dsum(", "[]", "tensor()"]),
    _INTS.map("mult:[{}]".format),
    _INTS.map("mult:{}".format),
    _HUGE_INTS.map("mult:[{}]".format),
    st.lists(_CYCLES, max_size=3).map(lambda cs: "perm:[" + ", ".join(cs) + "]"),
    st.lists(_NUMBERS, max_size=4).map(lambda vs: "char:[" + ",".join(vs) + "]"),
    st.tuples(
        st.sampled_from(["cocycle", "zcocycle"]),
        st.lists(st.one_of(st.integers(-2, 3).map(str), _INTS.map("({})".format)), max_size=3),
    ).map(lambda hv: f"{hv[0]}:[{','.join(hv[1])}]"),
    st.tuples(st.sampled_from(["angles", "freqs"]), st.lists(_NUMBERS, max_size=3)).map(
        lambda hv: f"{hv[0]}:[{','.join(hv[1])}]"
    ),
)
def _combined(operands):
    return st.tuples(st.sampled_from(["tensor", "dsum"]), st.lists(operands, max_size=3)).map(
        lambda ho: f"{ho[0]}({', '.join(ho[1])})"
    )


_SPECS = _mostly(
    _GOOD_SPECS,
    st.one_of(
        _LEAVES,
        _combined(_LEAVES),
        _combined(st.one_of(_GOOD_SPECS, _HUGE_INTS.map("mult:[{}]".format), _combined(_LEAVES))),
    ),
)
_NAMES = _mostly(st.sampled_from(["", "a=", "b="]), st.sampled_from(["1x=", "=", "a b="]))
_TASK_LISTS = _mostly(
    st.tuples(st.permutations(cli.TASKS), st.integers(1, 2)).map(lambda pk: ",".join(pk[0][: pk[1]])),
    st.one_of(st.none(), st.lists(st.sampled_from([*cli.TASKS, "bogus", ""]), max_size=3).map(",".join)),
)


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    group=_mostly(_GROUPS, _BAD_GROUPS),
    reps=_mostly(st.lists(st.tuples(_NAMES, _SPECS).map("".join), min_size=1, max_size=2), st.just([])),
    tasks=_TASK_LISTS,
    fmt=st.sampled_from([None, None, "text", "json", "dot", "yaml"]),
    convention=st.sampled_from([None, "paper-min", "module-count"]),
    window=st.one_of(st.none(), st.integers(-1, 3)),
    out=st.sampled_from([None, "out"]),
)
def test_cli_fuzz_exits_cleanly(tmp_path, group, reps, tasks, fmt, convention, window, out):
    argv = []
    for flag, value in (("--group", group), ("--task", tasks), ("--format", fmt),
                        ("--convention", convention), ("--window", window)):
        if value is not None:
            argv += [flag, str(value)]
    for rep in reps:
        argv += ["--rep", rep]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    code, _, _ = run_in_process(argv)
    assert code in (0, 2, 3, 4), argv


# A job-file grammar for the fuzz test below: each settings key at most once
# with a good value, named representations, and now and then broken lines
# (bad values, which override the good ones, bad rep names, comments,
# malformed lines and NUL bytes), so that many runs get as far as writing
# their output.
_JOB_VALUES = {
    "group": _GROUPS,
    "tasks": st.tuples(st.permutations(cli.TASKS), st.integers(1, 2)).map(lambda pk: ",".join(pk[0][: pk[1]])),
    "convention": st.sampled_from([None, "paper-min", "module-count"]),
    "seed": st.one_of(st.none(), st.integers(0, 3)),
    "window": st.one_of(st.none(), st.integers(0, 2)),
    "format": st.sampled_from([None, "text", "json", "dot"]),
    "out": st.sampled_from([None, "out", "out/sub", "a\0b"]),
}
assert set(_JOB_VALUES) == set(cli._SETTINGS)
_REP_LINES = st.tuples(st.sampled_from(["a", "b"]), _SPECS).map("rep.{0[0]} = {0[1]}".format)
_BROKEN_LINES = st.one_of(
    _BAD_GROUPS.map("group={}".format),
    st.sampled_from([
        "tasks=", "tasks=bogus", "convention=bogus", "seed=x", "seed=1.5", "window=two",
        "window=2.0", "window=-1", "format=yaml", "out=", "rep. = trivial", "rep.1x = trivial",
        "rep.a b = trivial", "# a comment", "", "   ", "#\0", "no equals sign", "=", "bogus=1",
        "group=cyclic:2\0", "\0",
    ]),
)


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    values=st.fixed_dictionaries(_JOB_VALUES),
    reps=_mostly(st.lists(_REP_LINES, min_size=1, max_size=2), st.just([])),
    broken=_mostly(st.just([]), st.lists(_BROKEN_LINES, min_size=1, max_size=2)),
)
def test_cli_job_file_fuzz_exits_cleanly(tmp_path, values, reps, broken):
    lines = [f"{key}={value}" for key, value in values.items() if value is not None]
    job = tmp_path / "fuzz.job"
    job.write_text("\n".join(lines + reps + broken) + "\n", encoding="utf-8")
    with contextlib.chdir(tmp_path):
        code, _, _ = run_in_process(["--job", str(job)])
    assert code in (0, 2, 3, 4), job.read_text(encoding="utf-8")
