"""What each import loads, checked in a fresh interpreter: the library
itself needs no numpy; only the oracle, and the CLI through it, do.  And
what the package root re-exports: exactly the public names of core and
solvers."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def loaded_after(code: str) -> set[str]:
    """Run ``code`` in a fresh interpreter; return the names in sys.modules."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nprint('\\n'.join(sys.modules))"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_package_import_leaves_oracle_and_numpy_out():
    loaded = loaded_after("import sys, coshroots")
    assert "coshroots.solvers" in loaded
    assert "numpy" not in loaded
    assert "coshroots.oracle" not in loaded


def test_oracle_does_not_import_solvers():
    # An empty stand-in for the package keeps its __init__ (which imports
    # solvers) from running, so only the oracle's own imports load.
    loaded = loaded_after(
        "import sys, types\n"
        "pkg = types.ModuleType('coshroots')\n"
        f"pkg.__path__ = [{str(SRC / 'coshroots')!r}]\n"
        "sys.modules['coshroots'] = pkg\n"
        "import coshroots.oracle"
    )
    assert "coshroots.oracle" in loaded and "coshroots.core" in loaded
    assert "coshroots.solvers" not in loaded


def test_cli_import_loads_numpy():
    loaded = loaded_after("import sys, coshroots.cli")
    assert "numpy" in loaded
    assert "coshroots.oracle" in loaded


def test_package_root_reexports_core_and_solvers():
    import coshroots
    from coshroots import core, solvers

    names = coshroots.__all__
    assert len(names) == len(set(names))
    assert set(names) == {*core.__all__, *solvers.__all__, "__version__"}
    for module in (core, solvers):
        for name in module.__all__:
            assert getattr(coshroots, name) is getattr(module, name), name
    star = {}
    exec("from coshroots import *", star)
    assert set(star) - {"__builtins__"} == set(names)
