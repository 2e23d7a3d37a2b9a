"""The package surface, and which modules each command loads."""

import importlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

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
    "bounds --model sphere --t 0.5": _SPHERE | {"magdirac.bounds"},
    "bounds --model sphere --t 0.5 --which diamagnetic": _SPHERE | {"magdirac.bounds"},
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


@pytest.fixture(scope="module")
def loaded():
    """request -> (exit code, modules loaded), each from a fresh interpreter."""
    package_root = str(Path(magdirac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [package_root, *filter(None, [os.environ.get("PYTHONPATH")])])}

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
