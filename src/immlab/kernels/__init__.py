"""Kernel backend selection: compiled extension if built, else pure Python."""

try:
    from . import _bitrel as backend  # type: ignore[attr-defined]
except ImportError:
    from . import pure as backend

transitive_closure = backend.transitive_closure
compose = backend.compose
has_cycle = backend.has_cycle
BACKEND = backend.NAME
