"""Lazy package exports: a package's public names are imported on first use.

A package ``__init__`` declares which module defines each of its public
names instead of importing them::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.goodness": ("TileClassification", "classify_tiles"),
        "repro.core.overlay": ("OverlayGraph", "build_overlay"),
    })

``from repro.core import classify_tiles`` then imports
:mod:`repro.core.goodness` when the name is first asked for (PEP 562 module
``__getattr__``) and stores the object in the package namespace, so every
later lookup is a plain attribute read.  Importing a package therefore costs
only the package itself, and a process — the serving daemon above all —
loads the modules it runs and no others.

Two kinds of name stay eager imports in their ``__init__``:

* a name equal to one of the package's submodules (``repro.runner.grid``):
  importing that submodule binds the module object to the same package
  attribute, which would shadow the lazy export;
* a name whose import has a side effect its users rely on (a registry
  filled at import time).
"""

from __future__ import annotations

from importlib import import_module
import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package`` for ``{module: names}``."""
    origin: Dict[str, str] = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
