"""The package runs each module on first use.

`import repcorr` registers every module with `importlib.util.LazyLoader`, so
each is in `sys.modules` at once; a module's class goes back to the plain
module type when it runs. Each case runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

from repcorr import cli, corrgraph

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = ("chartable", "corrgraph", "cyclo", "errors", "graphs", "groups", "intlinalg", "reps")

# Prints the repcorr modules in sys.modules, and those of them that have run.
_REPORT = """
import json, sys, types
names = [n for n in sys.modules if n.startswith("repcorr.")]
print(json.dumps([names, [n for n in names if type(sys.modules[n]) is types.ModuleType]]))
"""


def loaded_and_run(code: str) -> tuple[set, set]:
    """The repcorr submodules in sys.modules after code, and those that ran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    r = subprocess.run([sys.executable, "-c", code + _REPORT], env=env, capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    loaded, ran = json.loads(r.stdout.splitlines()[-1])
    return {n.split(".", 1)[1] for n in loaded}, {n.split(".", 1)[1] for n in ran}


def test_the_cli_runs_only_the_modules_its_task_calls():
    assert loaded_and_run("import repcorr.cli")[1] == {"cli", "errors"}
    _, ran = loaded_and_run(
        "import repcorr.cli\nrepcorr.cli.main(['--group', 'symmetric:3', '--task', 'table'])"
    )
    assert {"chartable", "cyclo", "groups"} <= ran
    assert not ran & {"intlinalg", "graphs", "corrgraph", "reps"}
    _, ran = loaded_and_run(
        "import repcorr.cli\nrepcorr.cli.main(['--rep', 'c=zcocycle:[0,1,-1]', '--task', 'skew'])"
    )
    assert "graphs" in ran and not ran & {"chartable", "corrgraph", "cyclo", "reps", "intlinalg"}


def test_package_names_from_the_matrix_and_graph_layers_run_no_table_layer():
    _, ran = loaded_and_run("import repcorr\nrepcorr.coker_ker, repcorr.skew_product")
    assert {"intlinalg", "graphs"} <= ran
    assert not ran & {"chartable", "cyclo", "groups", "reps"}


def test_every_module_is_registered_and_reading_its_namespace_runs_it():
    # A tracer that wraps each module's functions reads vars() of every
    # module in sys.modules after `import repcorr`, and must find them run.
    loaded, ran = loaded_and_run("import repcorr")
    assert loaded >= set(MODULES) and not ran & set(MODULES)
    loaded, ran = loaded_and_run("import sys, repcorr\nvars(sys.modules['repcorr.intlinalg'])")
    assert loaded >= set(MODULES) and "intlinalg" in ran


def test_the_cli_conventions_are_the_graph_layers():
    assert cli._CONVENTIONS == corrgraph.CONVENTIONS


def test_a_skew_kgroup_run_loads_no_fraction_module():
    # `fractions` (with `decimal` and `numbers`) serves the circle parser
    # alone, so building a skew product and reading its K-groups and
    # simplicity leave it unloaded.
    loaded_and_run(
        "import sys\n"
        "from repcorr.graphs import SkewSpec, ktheory_graph, simplicity_check, skew_product\n"
        "g = skew_product(SkewSpec(cocycle=((1, 0), (0, 1), (-1, -1)), rank=2, window=3))\n"
        "ktheory_graph(g), simplicity_check(g)\n"
        "assert 'fractions' not in sys.modules, sorted(sys.modules)\n"
    )
