"""The package surface, and which modules each command loads."""

import importlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from helpers import readme_examples

import magdirac

# each public name -> (the module that defines it, its name there; None for the module)
DIRECT = {
    "bounds": ("magdirac.bounds", None),
    "clifford": ("magdirac.clifford", None),
    "oracle": ("magdirac.oracle", None),
    "sphere": ("magdirac.sphere", None),
    "torus": ("magdirac.torus", None),
    "Lattice": ("magdirac.lattice", "Lattice"),
    "Spectrum": ("magdirac.spectrum", "Spectrum"),
    "SpinCData": ("magdirac.torus", "SpinCData"),
    "merge_tolerance": ("magdirac.spectrum", "merge_tolerance"),
}


def test_every_public_name_is_its_direct_import():
    assert magdirac.__all__ == [*DIRECT, "__version__"]
    for name, (module, attribute) in DIRECT.items():
        home = importlib.import_module(module)
        assert getattr(magdirac, name) is (home if attribute is None else getattr(home, attribute))


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from magdirac import *", namespace)
    assert set(magdirac.__all__) <= set(namespace)
    assert set(magdirac.__all__) <= set(dir(magdirac))
    assert namespace["Lattice"] is magdirac.lattice.Lattice


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        magdirac.no_such_name
    assert not hasattr(magdirac, "no_such_name")
    assert hasattr(magdirac, "Spectrum") and hasattr(magdirac, "__version__")


# what `python -m magdirac argv` loads: runs it and prints its exit code and
# the magdirac modules loaded at the end
_PROBE = """
import contextlib, io, runpy, sys
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("magdirac", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        code = exit.code
print(code, *sorted(m for m in sys.modules if m.startswith("magdirac")))
"""
_BARE = "import sys, magdirac; print(0, *sorted(m for m in sys.modules if m.startswith('magdirac')))"

_CLI = {"magdirac", "magdirac.cli", "magdirac.spectrum"}
_SPHERE = _CLI | {"magdirac.sphere"}
_TORUS = _CLI | {"magdirac.lattice", "magdirac.torus"}
_ORACLE = _SPHERE | _TORUS | {"magdirac.clifford", "magdirac.oracle"}

# request -> the exact set of magdirac modules it loads in a fresh interpreter
LOADS = {
    "": {"magdirac"},  # import magdirac alone
    "sphere --t 0.3 --cutoff 3": _SPHERE,
    "sphere-curve --k-max 2 --t-range -1:1:3": _SPHERE,
    "collisions --k-max 3": _SPHERE,
    # the sphere's basic reference is solved from the oracle's level matrices
    "bounds --model sphere --t 0.5": _ORACLE | {"magdirac.bounds"},
    "bounds --model sphere --t 0.5 --which diamagnetic": _ORACLE | {"magdirac.bounds"},
    "torus --basis [[1,0],[0,1]] --cutoff 3": _TORUS,
    "bounds --model torus": _TORUS | {"magdirac.bounds"},
    "bounds --model torus --which friedrich": _TORUS | {"magdirac.bounds"},
    "verify sphere-blocks --k-max 3 --t-grid -1:1:3": _ORACLE,
    "verify torus-modes --n 2 --samples 3": _ORACLE,
    "verify gauge --basis [[1,0],[0,1]] --f-terms [[[1,0],0.1,0]] --cutoffs 2,3": _ORACLE,
    # help builds every command's parser, and no options function loads a model,
    # nor does the table of runs that is built at import
    "-h": _CLI,
    "verify -h": _CLI,
    "bounds -h": _CLI,
    "torus -h": _CLI,
    "verify gauge -h": _CLI,
}


def _package_env() -> dict:
    """The environment of an interpreter that imports this package."""
    package_root = str(Path(magdirac.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [package_root, *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.fixture(scope="module")
def loaded():
    """request -> (exit code, modules loaded), each from a fresh interpreter."""
    env = _package_env()

    def probe(request_line):
        code = _PROBE if request_line else _BARE
        proc = subprocess.run([sys.executable, "-c", code, *request_line.split()],
                              capture_output=True, env=env, check=True, timeout=60)
        exit_code, *modules = proc.stdout.decode().split()
        return exit_code, set(modules)

    with ThreadPoolExecutor(max_workers=2) as pool:  # two interpreters at a time
        return dict(zip(LOADS, pool.map(probe, LOADS)))


@pytest.mark.parametrize("request_line", LOADS)
def test_a_command_loads_only_the_modules_it_runs(loaded, request_line):
    assert loaded[request_line] == ("0", LOADS[request_line])


# runs the requests of argv[1] (a JSON list of argv) through cli.main under
# sys.setprofile; prints their exit codes and every code object entered, as
# (file, qualified name, first line)
_REACH_PROBE = """
import contextlib, io, json, sys
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_qualname,
                     frame.f_code.co_firstlineno))
sys.setprofile(profile)
from magdirac import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps([codes, sorted(entered)]))
"""

# the README examples, the output formats they leave out, one help request and
# one usage error, with the exit code of each
REACH_REQUESTS = [(argv, 0) for argv in readme_examples()] + [
    ("sphere --t 0.5 --cutoff 3".split(), 0),
    ("sphere --t 0.5 --cutoff 3 --csv".split(), 0),
    ("collisions --k-max 3 --json".split(), 0),
    ("torus --basis [[1]] --cutoff 5 --csv".split(), 0),
    (["-h"], 0),
    ("sphere --cutoff 3".split(), 1),
]

# (module file, qualified name) -> why no command enters the function, or which
# ROADMAP item will; an entry covers the functions nested in it.  The list only
# shrinks: a function that a command reaches must leave it.
UNREACHED = {
    ("__init__.py", "__dir__"): "dir(magdirac), the package surface; no command lists it",
    ("clifford.py", "two_form_action"): "item 21: only identity_checks uses it",
    ("oracle.py", "FourierPotential.bandwidth"): "item 21: only identity_checks uses it",
    ("oracle.py", "FourierPotential.evaluate"): "item 2: the sup norm of a genuine field",
    ("oracle.py", "FourierPotential.is_closed"): "item 2: the co-exact check of a field",
    ("oracle.py", "HermitianMatrix.__init__"): "the dense constructor of the tests' operators",
    ("oracle.py", "_identity_terms"): "item 21: only identity_checks uses it",
    ("oracle.py", "_pairs"): "item 21: only identity_checks uses it",
    ("oracle.py", "_summed"): "item 21: only identity_checks uses it",
    ("oracle.py", "identity_checks"): "item 21: the verify identity target",
    ("oracle.py", "sphere_level_matrix"): "item 7: the eigenvectors of the bounds' references",
    ("sphere.py", "member_labels"): "failure reports, which no correct build prints",
}


def _defined(code):
    """Every function and lambda whose code ``code`` holds, nested ones too;
    comprehensions and generator expressions are left out, since whether
    they have code objects of their own depends on the Python version."""
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            if not const.co_name.startswith("<") or const.co_name == "<lambda>":
                yield const
            yield from _defined(const)


def test_every_function_is_reached_by_a_command():
    package = Path(magdirac.__file__).resolve().parent
    argvs, expected = zip(*REACH_REQUESTS)
    proc = subprocess.run([sys.executable, "-c", _REACH_PROBE, json.dumps(argvs)],
                          capture_output=True, env=_package_env(), check=True, timeout=60)
    codes, entered = json.loads(proc.stdout)
    assert codes == list(expected)
    entered = {(Path(f).name, q, line) for f, q, line in entered if Path(f).parent == package}
    defined = {(path.name, code.co_qualname, code.co_firstlineno)
               for path in package.glob("*.py")
               for code in _defined(compile(path.read_text(), str(path), "exec"))}
    unreached = {(f, q.split(".<locals>.")[0]) for f, q, _ in defined - entered}
    assert unreached == set(UNREACHED)
