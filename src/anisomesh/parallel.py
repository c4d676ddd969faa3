"""A plain per-item map that no anisomesh code calls.

It stays only because the benchmark's tracer (``bench/tracing.py``) patches
``pmap`` by name; it goes with that benchmark change (ROADMAP item 1).
"""

from __future__ import annotations

__all__ = ["pmap"]


def pmap(fn, items):
    """``[fn(x) for x in items]``, in order."""
    return [fn(x) for x in items]
