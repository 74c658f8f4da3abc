"""Golden corpus for the command line.

Each case runs `repcorr.cli.run` in-process inside a fresh working
directory, so `--out` directories and job files use relative paths. The
expected results in `cli_golden.json` hold the sha256 of stdout, the exact
stderr, the exit code (argparse's `SystemExit` included) and the sha256 of
every file the run wrote.

Regenerate the expected results, after a deliberate output change only:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import functools
import hashlib
import json
import os
from pathlib import Path

import pytest
from test_cli import run_in_process

GOLDEN = Path(__file__).with_name("cli_golden.json")

OUT = "out"
JOB = "run.job"
S3_PERM = "rho=perm:[(1 2), (1 2 3)]"
A4 = "perm:[(1 2 3), (1 2)(3 4)]"
Q8 = "perm:[(1 2 3 4)(5 6 7 8), (1 5 3 7)(2 8 4 6)]"

# The 36 cli_small benchmark jobs.
BENCH_CASES = {
    "readme_table": ["--group", "symmetric:3", "--task", "table"],
    "readme_egraph_ktheory": ["--group", "symmetric:3", "--rep", S3_PERM, "--task", "egraph,ktheory"],
    "readme_decompose_dgraph": ["--group", "symmetric:3", "--rep", "s=mult:[0,0,1]",
                                "--task", "decompose,dgraph", "--format", "json"],
    "readme_zskew": ["--rep", "c=zcocycle:[0,1,-1]", "--task", "skew", "--window", "2"],
    "readme_cskew": ["--group", "cyclic:2", "--rep", "c=cocycle:[1,1]", "--task", "skew"],
    "readme_freqs": ["--rep", "f=freqs:[1/2,-theta]", "--task", "circle"],
    "readme_export": ["--group", "symmetric:3", "--rep", S3_PERM, "--task", "export", "--out", OUT],
    "s3_ktheory_module_json": ["--group", "symmetric:3", "--rep", "mult:[1,1,1]", "--task", "ktheory",
                               "--convention", "module-count", "--format", "json"],
    "s3_out_json": ["--group", "symmetric:3", "--rep", "regular", "--task", "table,decompose",
                    "--format", "json", "--out", OUT],
    "s4_table_json": ["--group", "symmetric:4", "--task", "table", "--format", "json"],
    "s4_regular_text": ["--group", "symmetric:4", "--rep", "regular", "--task", "decompose,egraph,ktheory"],
    "s4_perm_dot": ["--group", "symmetric:4", "--rep", "perm:[(1 2), (1 2 3 4)]",
                    "--task", "egraph,dgraph", "--format", "dot"],
    "s4_export_module": ["--group", "symmetric:4", "--rep", "regular", "--rep", "t=trivial",
                         "--task", "export", "--convention", "module-count", "--out", OUT],
    "d4_table": ["--group", "dihedral:4", "--task", "table"],
    "d5_dgraph_dot": ["--group", "dihedral:5", "--rep", "regular", "--task", "dgraph", "--format", "dot"],
    "d6_tensor_json": ["--group", "dihedral:6", "--rep", "tensor(regular, trivial)",
                       "--task", "decompose", "--format", "json"],
    "d7_ktheory_module_json": ["--group", "dihedral:7", "--rep", "regular", "--task", "ktheory",
                               "--convention", "module-count", "--format", "json"],
    "d8_dsum_text": ["--group", "dihedral:8", "--rep", "dsum(trivial, regular)",
                     "--task", "table,decompose,egraph"],
    "c2_table": ["--group", "cyclic:2", "--task", "table"],
    "c3_ktheory": ["--group", "cyclic:3", "--rep", "regular", "--task", "ktheory"],
    "c4_decompose_json": ["--group", "cyclic:4", "--rep", "char:[4,0,0,0]", "--task", "decompose",
                          "--format", "json"],
    "c5_egraph_dot": ["--group", "cyclic:5", "--rep", "mult:[1,0,2,0,1]", "--task", "egraph",
                      "--format", "dot"],
    "c6_table_json": ["--group", "cyclic:6", "--task", "table", "--format", "json"],
    "c8_dgraph": ["--group", "cyclic:8", "--rep", "mult:[0,1,0,0,0,0,0,0]", "--task", "dgraph"],
    "c10_ktheory_json": ["--group", "cyclic:10", "--rep", "regular", "--task", "ktheory", "--format", "json"],
    "c12_table": ["--group", "cyclic:12", "--task", "table"],
    "c12_skew_dot": ["--group", "cyclic:12", "--rep", "c=cocycle:[1,5,7]", "--task", "skew", "--format", "dot"],
    "p23_skew_json": ["--group", "product:[2,3]", "--rep", "c=cocycle:[(1,0),(0,1),(1,2)]",
                      "--task", "skew", "--format", "json"],
    "a4_table_json": ["--group", A4, "--task", "table", "--format", "json"],
    "a4_ktheory": ["--group", A4, "--rep", "regular", "--task", "ktheory,decompose"],
    "q8_table": ["--group", Q8, "--task", "table"],
    "q8_regular_json": ["--group", Q8, "--rep", "regular", "--task", "egraph,dgraph,ktheory",
                        "--format", "json"],
    "q8_export": ["--group", Q8, "--rep", "regular", "--task", "export", "--out", OUT],
    "zskew_w3_json": ["--rep", "c=zcocycle:[(1,0),(0,1),(-1,-1)]", "--task", "skew", "--window", "3",
                      "--format", "json"],
    "angles_text": ["--rep", "a=angles:[1/3,1/2,5/6]", "--task", "circle"],
    "angles_freqs_json": ["--rep", "a=angles:[1/4,theta]", "--rep", "f=freqs:[1,2*theta]",
                          "--task", "circle", "--format", "json"],
}

# The inputs of tests/test_cli.py.
TEST_CLI_CASES = {
    "egraph_ktheory_json": ["--group", "symmetric:3", "--rep", S3_PERM, "--task", "egraph,ktheory",
                            "--format", "json"],
    "s4_every_table_task_json": ["--group", "symmetric:4", "--rep", "a=regular",
                                 "--rep", "b=tensor(mult:[0,1,0,0,1], mult:[0,0,1,0,0])",
                                 "--task", "table,decompose,egraph,dgraph,ktheory", "--format", "json"],
    "d5_table": ["--group", "dihedral:5", "--task", "table"],
    "module_count_egraph_json": ["--group", "symmetric:3", "--rep", S3_PERM, "--task", "egraph",
                                 "--convention", "module-count", "--format", "json"],
    "default_rep_name": ["--group", "symmetric:3", "--rep", "regular", "--task", "decompose",
                         "--format", "json"],
    "zskew_w2_json": ["--rep", "c=zcocycle:[1,1]", "--task", "skew", "--window", "2", "--format", "json"],
    "c2_skew_json": ["--group", "cyclic:2", "--rep", "c=cocycle:[1,1]", "--task", "skew", "--format", "json"],
    "skew_outside_dual": ["--group", "cyclic:2", "--rep", "c=cocycle:[1,2]", "--task", "skew"],
    "circle_json": ["--rep", "a=angles:[1/2, 1/3]", "--rep", "f=freqs:[1/2, -theta]", "--task", "circle",
                    "--format", "json"],
    "circle_dense_json": ["--rep", "a=angles:[theta]", "--task", "circle", "--format", "json"],
    "egraph_dot": ["--group", "symmetric:3", "--rep", S3_PERM, "--task", "egraph", "--format", "dot"],
    "table_dot": ["--group", "symmetric:3", "--task", "table", "--format", "dot"],
    "ktheory_out_json": ["--group", "symmetric:3", "--rep", S3_PERM, "--task", "ktheory", "--format", "json",
                         "--out", OUT],
    "export_without_out": ["--group", "symmetric:3", "--rep", S3_PERM, "--task", "export"],
    "missing_job_file": ["--job", "/nonexistent/path.job"],
    "bad_group_head": ["--group", "bogus:1", "--task", "table"],
    "unknown_task": ["--group", "symmetric:3", "--task", "nonsense"],
    "bad_rep_spec": ["--group", "symmetric:3", "--rep", "x=blah", "--task", "decompose"],
    "decompose_without_rep": ["--group", "symmetric:3", "--task", "decompose"],
    "skew_without_cocycle": ["--group", "symmetric:3", "--rep", S3_PERM, "--task", "skew"],
    "finite_dual_of_symmetric": ["--group", "symmetric:3", "--rep", "c=cocycle:[1]", "--task", "skew"],
    "zskew_window_0": ["--rep", "c=zcocycle:[1]", "--task", "skew", "--window", "0"],
    "circle_without_input": ["--group", "symmetric:3", "--task", "circle"],
    "angles_zero_denominator": ["--rep", "f=angles:[1/0]", "--task", "circle"],
    "freqs_zero_denominator": ["--rep", "f=freqs:[1/0]", "--task", "circle"],
    "char_zero_denominator": ["--group", "cyclic:2", "--rep", "char:[1/0,1]", "--task", "decompose"],
    "zskew_window_cap": ["--rep", "c=zcocycle:[1]", "--task", "skew", "--window", "1000000000"],
    "cskew_order_cap": ["--group", "cyclic:1000000000", "--rep", "c=cocycle:[1]", "--task", "skew"],
    "zskew_rank_cap": ["--rep", "c=zcocycle:[(" + ",".join(["1"] * 40) + ")]", "--task", "skew"],
    "bad_format_choice": ["--group", "symmetric:3", "--task", "table", "--format", "yaml"],
    "noncharacter": ["--group", "symmetric:3", "--rep", "f=char:[0, 1, 0]", "--task", "decompose"],
    "missing_task": ["--group", "symmetric:3"],
}

# Error paths and option mixes the two lists above do not reach.
EXTRA_CASES = {
    "help": ["--help"],
    "no_arguments": [],
    "unknown_flag": ["--bogus"],
    "bad_seed_flag": ["--group", "cyclic:3", "--task", "table", "--seed", "x"],
    "bad_convention_choice": ["--group", "cyclic:3", "--task", "table", "--convention", "nope"],
    "seeded_table": ["--group", "dihedral:6", "--task", "table", "--seed", "7"],
    "tasks_deduplicated": ["--group", "cyclic:3", "--task", " table , table,,decompose", "--rep", "regular"],
    "empty_task_list": ["--group", "cyclic:3", "--task", " , "],
    "table_without_group": ["--task", "table"],
    "egraph_without_group": ["--rep", "regular", "--task", "egraph"],
    "dgraph_without_rep": ["--group", "cyclic:3", "--task", "dgraph"],
    "ktheory_without_rep": ["--group", "cyclic:3", "--task", "ktheory"],
    "export_without_rep": ["--group", "cyclic:3", "--task", "export", "--out", OUT],
    "export_without_group": ["--rep", "regular", "--task", "export", "--out", OUT],
    "export_without_group_or_out": ["--rep", "c=zcocycle:[1]", "--task", "export"],
    "decompose_without_group_or_rep": ["--task", "decompose"],
    "ktheory_without_group_or_rep": ["--rep", "c=zcocycle:[1]", "--task", "ktheory"],
    "rep_default_names": ["--group", "cyclic:3", "--rep", "regular", "--rep", "t=trivial", "--rep", "mult:[1,1,1]",
                          "--task", "decompose"],
    "rep_name_not_identifier": ["--group", "cyclic:3", "--rep", "x-y=trivial", "--task", "decompose"],
    "rep_named_dot": ["--group", "cyclic:4", "--rep", "r=regular", "--task", "ktheory", "--format", "dot"],
    "table_export": ["--group", "symmetric:3", "--rep", S3_PERM, "--task", "table,export", "--out", OUT],
    "export_json": ["--group", "symmetric:3", "--rep", S3_PERM, "--task", "export", "--format", "json",
                    "--out", OUT],
    "export_dot": ["--group", "cyclic:3", "--rep", "regular", "--task", "export,decompose", "--format", "dot",
                   "--out", OUT],
    "export_with_ktheory": ["--group", "cyclic:3", "--rep", "regular", "--task", "ktheory,export,skew",
                            "--rep", "c=zcocycle:[1]", "--out", OUT],
    "table_dot_out": ["--group", "symmetric:3", "--task", "table", "--format", "dot", "--out", OUT],
    "skew_dot_out": ["--group", "cyclic:4", "--rep", "c=cocycle:[1,3]", "--task", "skew", "--format", "dot",
                     "--out", OUT],
    "text_out": ["--group", "cyclic:4", "--rep", "r=regular", "--task", "table,decompose,dgraph", "--out", OUT],
    "circle_out_json": ["--rep", "a=angles:[1/4]", "--rep", "f=freqs:[1,-1]", "--task", "circle",
                        "--format", "json", "--out", OUT],
    "finite_dual_cyclic_0": ["--group", "cyclic:0", "--rep", "c=cocycle:[1]", "--task", "skew"],
    "finite_dual_cyclic_x": ["--group", "cyclic:x", "--rep", "c=cocycle:[1]", "--task", "skew"],
    "finite_dual_product_empty": ["--group", "product:[]", "--rep", "c=cocycle:[1]", "--task", "skew"],
    "finite_dual_product_zero": ["--group", "product:[2,0]", "--rep", "c=cocycle:[(1,0)]", "--task", "skew"],
    "finite_dual_cyclic_empty": ["--group", "cyclic:", "--rep", "c=cocycle:[1]", "--task", "skew"],
    "finite_dual_bad_head": ["--group", "bogus:1", "--rep", "c=cocycle:[1]", "--task", "skew"],
    "finite_dual_without_group": ["--rep", "c=cocycle:[1]", "--task", "skew"],
    "finite_dual_spaced": ["--group", " product: [ 2 , 2 ] ", "--rep", "c=cocycle:[(1,0),(0,1)]",
                           "--task", "skew"],
    "two_cocycles": ["--rep", "c=zcocycle:[1]", "--rep", "d=zcocycle:[2]", "--task", "skew"],
    "cocycle_not_bracketed": ["--rep", "c=zcocycle:1", "--task", "skew"],
    "cocycle_empty": ["--rep", "c=zcocycle:[]", "--task", "skew"],
    "cocycle_ragged": ["--rep", "c=zcocycle:[(1,0),1]", "--task", "skew"],
    "cocycle_bad_value": ["--rep", "c=zcocycle:[x]", "--task", "skew"],
    "zskew_negative_window": ["--rep", "c=zcocycle:[1]", "--task", "skew", "--window", "-1"],
    "angles_empty": ["--rep", "a=angles:[]", "--task", "circle"],
    "angles_not_bracketed": ["--rep", "a=angles:1/2", "--task", "circle"],
    "freqs_bad": ["--rep", "f=freqs:[1/2, 2**theta]", "--task", "circle"],
    "perm_group_not_bracketed": ["--group", "perm:(1 2)", "--task", "table"],
    "perm_group_empty": ["--group", "perm:[]", "--task", "table"],
    "perm_group_identity": ["--group", "perm:[()]", "--task", "table"],
    "perm_group_bad_cycle": ["--group", "perm:[(1 2]", "--task", "table"],
    "perm_group_zero_point": ["--group", "perm:[(0 1)]", "--task", "table"],
    "perm_group_repeated_point": ["--group", "perm:[(1 2 1)]", "--task", "table"],
    "product_bad_integer": ["--group", "product:[2,x]", "--task", "table"],
    "product_empty_item": ["--group", "product:[2,,3]", "--task", "table"],
    "dihedral_1": ["--group", "dihedral:1", "--task", "table"],
    "symmetric_7": ["--group", "symmetric:7", "--task", "table"],
    "perm_rep_not_bracketed": ["--group", "symmetric:3", "--rep", "perm:(1 2)", "--task", "decompose"],
    "perm_rep_empty": ["--group", "symmetric:3", "--rep", "perm:[]", "--task", "decompose"],
    "perm_rep_not_a_homomorphism": ["--group", "symmetric:3", "--rep", "perm:[(1 2 3), (1 2)]",
                                    "--task", "decompose"],
    "mult_bad_integer": ["--group", "cyclic:3", "--rep", "mult:[1,a,1]", "--task", "decompose"],
    "mult_empty": ["--group", "cyclic:3", "--rep", "mult:[]", "--task", "decompose"],
    "mult_empty_item": ["--group", "cyclic:3", "--rep", "mult:[1,,1]", "--task", "decompose"],
    "mult_negative": ["--group", "cyclic:3", "--rep", "mult:[1,-1,1]", "--task", "decompose"],
    "mult_not_bracketed": ["--group", "cyclic:3", "--rep", "mult:1,1,1", "--task", "decompose"],
    "char_empty": ["--group", "cyclic:3", "--rep", "char:[]", "--task", "decompose"],
    "char_cyclotomic_json": ["--group", "cyclic:3", "--rep", "char:[2, z+z^2, z+z^2]", "--task", "decompose",
                             "--format", "json"],
    "tensor_one_operand": ["--group", "cyclic:3", "--rep", "tensor(regular)", "--task", "decompose"],
    "dsum_nested": ["--group", "symmetric:3", "--rep", "dsum(trivial, tensor(regular, mult:[0,0,1]))",
                    "--task", "decompose,ktheory"],
}

# Job files: (job file text, extra argv).
EVERY_KEY_JOB = """\
# every key once
group = cyclic:4
tasks = table, decompose, skew
convention = module-count
seed = 3
window = 2
format = json
out = out
rep.r = regular
rep.c = zcocycle:[1,-1]
"""

JOB_CASES = {
    "job_every_key": (EVERY_KEY_JOB, []),
    "job_flags_win": (EVERY_KEY_JOB, ["--task", "decompose", "--rep", "s=trivial", "--format", "text",
                                      "--convention", "paper-min", "--out", "flagged"]),
    "job_sample": ("# sample job\ngroup = symmetric:3\nrep.rho = perm:[(1 2), (1 2 3)]\n"
                   "tasks = ktheory\nconvention = module-count\nformat = json\n", []),
    "job_sample_flag_convention": ("group = symmetric:3\nrep.rho = perm:[(1 2), (1 2 3)]\n"
                                   "tasks = ktheory\nconvention = module-count\nformat = json\n",
                                   ["--convention", "paper-min"]),
    "job_unknown_key": ("group = symmetric:3\nbogus = 1\n", []),
    "job_missing_equals": ("group = symmetric:3\ntasks table\n", []),
    "job_bad_rep_name": ("group = symmetric:3\nrep.1x = regular\ntasks = decompose\n", []),
    "job_bad_seed": ("group = symmetric:3\ntasks = table\nseed = x\n", []),
    "job_bad_window": ("rep.c = zcocycle:[1]\ntasks = skew\nwindow = 1.5\n", []),
    "job_bad_convention": ("group = symmetric:3\ntasks = table\nconvention = nope\n", []),
    "job_bad_format": ("group = symmetric:3\ntasks = table\nformat = yaml\n", []),
    "job_empty": ("", []),
    "job_comments_only_with_flags": ("# nothing\n\n   \n", ["--group", "cyclic:2", "--task", "table"]),
    "job_empty_tasks": ("group = cyclic:2\ntasks =\n", []),
    "job_reps_kept_without_rep_flag": ("group = cyclic:3\nrep.r = regular\n", ["--task", "decompose"]),
    "job_window_flag": ("rep.c = zcocycle:[1]\ntasks = skew\nwindow = 3\n", ["--window", "1"]),
    "job_window_flag_zero": ("rep.c = zcocycle:[1]\ntasks = skew\nwindow = 3\n", ["--window", "0"]),
    "job_out_is_a_file": ("group = cyclic:3\ntasks = table\nout = run.job\n", []),
    "job_value_with_equals": ("group = cyclic:2\ntasks = decompose\nrep.r = mult:[1,1]\nrep.s=trivial\n", []),
}

ENV_CASES = {
    "order_cap_env": (["--group", "symmetric:4", "--task", "table"], {"REPCORR_ORDER_CAP": "10"}),
    "order_cap_env_bad": (["--group", "cyclic:3", "--task", "table"], {"REPCORR_ORDER_CAP": "ten"}),
}


def _cases() -> dict:
    cases = {}
    for name, argv in {**BENCH_CASES, **TEST_CLI_CASES, **EXTRA_CASES}.items():
        cases[name] = {"argv": argv}
    for name, (text, argv) in JOB_CASES.items():
        cases[name] = {"argv": ["--job", JOB, *argv], "job": text}
    for name, (argv, env) in ENV_CASES.items():
        cases[name] = {"argv": argv, "env": env}
    return cases


CASES = _cases()


def run_case(case: dict, workdir: Path) -> dict:
    """Run one case in workdir (which must be the current directory) and
    record stdout's hash, stderr, the exit code and the written files."""
    if "job" in case:
        (workdir / JOB).write_text(case["job"], encoding="utf-8")
    code, out, err = run_in_process(case["argv"])
    files = {}
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir).as_posix()
        if path.is_file() and rel != JOB:
            files[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": err,
        "exit": code,
        "files": files,
    }


@contextlib.contextmanager
def _fixed_environment(env: dict):
    """argparse wraps to COLUMNS; the order cap reads REPCORR_ORDER_CAP."""
    saved = {k: os.environ.get(k) for k in ("COLUMNS", "REPCORR_ORDER_CAP", *env)}
    os.environ["COLUMNS"] = "80"
    os.environ.pop("REPCORR_ORDER_CAP", None)
    os.environ.update(env)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


@functools.cache
def _expected() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert set(_expected()) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, tmp_path, monkeypatch):
    case = CASES[name]
    monkeypatch.chdir(tmp_path)
    with _fixed_environment(case.get("env", {})):
        got = run_case(case, tmp_path)
    assert got == _expected()[name]


def freeze() -> None:
    import tempfile

    records = {}
    cwd = os.getcwd()
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                with _fixed_environment(CASES[name].get("env", {})):
                    records[name] = run_case(CASES[name], Path(tmp))
            finally:
                os.chdir(cwd)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}")


if __name__ == "__main__":
    freeze()
