"""Exact arithmetic of even lattices, discriminant forms, and cusp counts."""

from . import cusps, exact, fqf, glue, lattice  # noqa: F401  for tools that wrap every layer

__version__ = "0.1.0"
