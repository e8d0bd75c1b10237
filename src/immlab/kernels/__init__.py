"""The relation kernels: transitive closure, composition and cycle detection
over relations stored as one int each, in pure Python (pure.py)."""

from .pure import compose, has_cycle, masks, transitive_closure, transpose

BACKEND = "pure"
