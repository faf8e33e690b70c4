"""Euclidean-geometric invariants of 3->3 Pachner moves on 4-manifolds.

The library is used through its modules (pachner33.invariants,
pachner33.complexes, ...); the package itself holds only __version__, so
importing one module loads only what that module imports.
"""

__version__ = "0.1.0"
