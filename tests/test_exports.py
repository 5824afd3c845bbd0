"""Package exports: every public name resolves, lazily or eagerly, and none is shadowed.

Most package ``__init__`` modules resolve their names on first use
(:mod:`repro._exports`).  A lazy export that shares its name with a submodule
would be replaced by the module object once that submodule is imported, so
the checks below import every submodule first.
"""

from __future__ import annotations

import importlib
import json
import os
from pathlib import Path
import pkgutil
import subprocess
import sys
import textwrap
import types

import pytest

import repro

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    for info in pkgutil.iter_modules(package.__path__, name + "."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    listed = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert not isinstance(value, types.ModuleType), f"{name}.{export} is shadowed by a submodule"
        assert export in listed, (name, export)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_export")


FRESH_SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    import repro

    bare = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
    if SUBMODULE_FIRST:
        import repro.runner.grid
    from repro.runner import grid
    import repro.runner.grid
    from repro.runner import grid as again
    from repro import Rect, build_udg_sens
    from repro.core import coverage

    print(json.dumps({
        "bare": bare,
        "grid": [type(grid).__name__, again is grid],
        "exports": [Rect.__module__, build_udg_sens.__module__, coverage.__name__],
    }))
    """
)


@pytest.mark.parametrize("submodule_first", [False, True])
def test_exports_in_a_fresh_interpreter(submodule_first):
    proc = subprocess.run(
        [sys.executable, "-c", f"SUBMODULE_FIRST = {submodule_first}\n" + FRESH_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": REPO_SRC},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["bare"] == ["repro", "repro._exports"]  # importing the package loads nothing else
    # ``grid`` is both a function and a submodule: it stays the function,
    # whether or not the submodule was imported first.
    assert report["grid"] == ["function", True]
    assert report["exports"] == [
        "repro.geometry.primitives",
        "repro.core.udg_sens",
        "repro.core.coverage",
    ]
