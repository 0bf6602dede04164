"""Public names that a package imports on first use (PEP 562).

A package that re-exports a heavy layer binds ``__getattr__ =
lazy_exports(__name__, {...})``: importing the package then loads none
of those layers, and the first access of a name (an attribute read,
``from package import name``, or ``from package import *``) imports it
and binds it in the package, so later reads are plain lookups.

Only reads from outside go through a module's ``__getattr__``; the
package's own functions must import what they use locally.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, names: dict[str, str | None]):
    """A module ``__getattr__`` for ``package`` serving ``names``.

    ``names`` maps each public name to the module, relative to
    ``package``, that defines it (``".sim.trace"``; ``"..attacks:run_all"``
    when the module calls it by another name), or to None for a
    subpackage of that name.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            source = names[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        if source is None:
            value = importlib.import_module(f".{name}", package)
        else:
            module, _, attr = source.partition(":")
            value = getattr(importlib.import_module(module, package), attr or name)
        namespace[name] = value
        return value

    return __getattr__
