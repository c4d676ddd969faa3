"""The per-element map that interpolation routes its work through."""

from __future__ import annotations

__all__ = ["pmap"]


def pmap(fn, items):
    """``[fn(x) for x in items]``, in order."""
    return [fn(x) for x in items]
