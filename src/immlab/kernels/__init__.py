"""The bitset kernels: transitive closure, composition and cycle detection
over int rows, in pure Python (pure.py)."""

from .pure import compose, has_cycle, transitive_closure

BACKEND = "pure"
