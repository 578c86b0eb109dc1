"""RPL010 fixture: a package re-exporting from its submodules.

A re-export is not a use: ``only_tested`` stays unreferenced although this
file imports from it.
"""

from repro.pkg.reexported import helper
from repro.pkg.only_tested import orphan

__all__ = ["helper", "orphan"]
