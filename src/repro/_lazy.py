"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every one of them, and everything *they* import, before its first
caller runs a line.  :func:`lazy_exports` instead gives the package a
module ``__getattr__`` that imports a name's defining module the first
time the name is read, then stores the object as a plain module
attribute, so later reads (and ``setattr`` by tracers) never reach the
hook again.  ``__dir__`` lists the unresolved names too, and
``from package import *`` resolves each ``__all__`` name through the
hook, so the import surface is the same as with eager imports.

A lazy name must not equal a submodule name of its package: the import
system reads a submodule as a package attribute, and the two would
shadow each other (``tests/test_imports.py`` checks this).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, sources: Dict[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` for ``package``, which
    re-exports ``sources`` (defining module -> names)."""
    module = sys.modules[package]
    where = {name: source for source, names in sources.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        source = where.get(name)
        if source is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source), name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(where))

    return __getattr__, __dir__
