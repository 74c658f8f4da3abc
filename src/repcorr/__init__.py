"""Character tables of finite groups, the labelled graphs carried by their
representations, and the K-theory and structure of the associated algebras.

Each module's `__all__` declares its public names; the package exports them
all, so a name is declared in one place.

Each module runs on first use. Importing the package puts every module in
`sys.modules` through `importlib.util.LazyLoader`, and a module is compiled
and run when one of its attributes is first read. A package name is looked
up in the modules' `__all__` when it is first read, so `import repcorr.cli`
runs the command line alone, and each task runs only the modules it calls.
Inside the package, a module that needs a sibling only in some functions
imports the module, `from . import intlinalg`, and qualifies the names;
`import repcorr.intlinalg` would run it at once.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# The modules whose names the package exports, in the order in which a name
# is looked up: each module after the ones it runs when it loads, with the
# matrix and graph layers before the table layers. A lookup runs every module
# before the one that holds the name, so a job on integer matrices and skew
# products runs no table layer. `__all__` lists the names by module name.
_MODULES = ("errors", "matrix", "intlinalg", "graphs", "corrgraph", "cyclo", "groups", "chartable",
            "reps")


def _register(name: str):
    """Put the module in sys.modules, to run when an attribute is first read."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((name, _register(name)) for name in _MODULES)


def __getattr__(name: str):
    if name == "__all__":
        return [n for m in sorted(_MODULES) for n in globals()[m].__all__] + ["__version__"]
    if not name.startswith("_"):  # no module exports a private name
        for m in _MODULES:
            module = globals()[m]
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
