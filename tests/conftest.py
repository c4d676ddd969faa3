"""Shared generators for randomized polygon and mesh tests."""

import math

import numpy as np
import pytest

from anisomesh.geometry import Polygon
from anisomesh.quadrature import CHUNK


def _spread_angles(rng, n):
    """n angles covering the full circle with bounded gaps (origin stays inside)."""
    gaps = rng.uniform(0.5, 1.5, n)
    ang = 2.0 * math.pi * np.cumsum(gaps) / gaps.sum()
    return ang + rng.uniform(0.0, 2.0 * math.pi)


def random_convex_polygon(rng, n_vertices=None, ratio=1.0, rotate=True, translate=True):
    """Random convex CCW polygon, stretched to roughly the given ratio."""
    n = n_vertices or int(rng.integers(3, 13))
    ang = _spread_angles(rng, n)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    pts[:, 0] *= math.sqrt(ratio)
    if rotate:
        theta = rng.uniform(0.0, math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        pts = pts @ rot.T
    if translate:
        pts = pts + rng.uniform(-2.0, 2.0, 2)
    return Polygon(pts)


def random_star_polygon(rng, n_vertices=None, ratio=1.0):
    """Random star-shaped (generally non-convex) CCW polygon."""
    n = n_vertices or int(rng.integers(5, 13))
    ang = _spread_angles(rng, n)
    r = rng.uniform(0.35, 1.0, n)
    pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    pts[:, 0] *= math.sqrt(ratio)
    return Polygon(pts)


def random_polygon(rng, n_vertices=None, ratio=1.0):
    if rng.random() < 0.5:
        return random_convex_polygon(rng, n_vertices, ratio)
    return random_star_polygon(rng, n_vertices, ratio)


def slice_sums(x):
    """The sum of a polygon's weighted values ``x`` (..., M) as ``quadrature.integrals``
    takes it: one ``reduceat`` segment per slice of ``CHUNK`` points, slices added in order."""
    x = np.asarray(x)
    parts = [np.add.reduceat(np.ascontiguousarray(x[..., a:a + CHUNK]), [0], axis=-1)[..., 0]
             for a in range(0, x.shape[-1], CHUNK)]
    return sum(parts[1:], parts[0])


def monte_carlo_moments(poly, n_samples, rng, n_chunks=10):
    """Rejection-sampling oracle for area, centroid, and covariance.

    Draws the samples in equal chunks and reports each quantity as the mean
    of the per-chunk estimates with the empirical standard error across
    chunks, so the 3-sigma comparisons need no distributional assumptions.
    Returns ((area, se), (centroid (2,), se), (cov as xx,xy,yy, se)).
    """
    lo = poly.vertices.min(axis=0)
    hi = poly.vertices.max(axis=0)
    box = float(np.prod(hi - lo))
    v = poly.vertices
    x0, y0 = v[:, 0], v[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    m = n_samples // n_chunks
    areas = np.empty(n_chunks)
    cents = np.empty((n_chunks, 2))
    covs = np.empty((n_chunks, 3))
    for k in range(n_chunks):
        pts = rng.uniform(lo, hi, size=(m, 2))
        px, py = pts[:, 0], pts[:, 1]
        inside = np.zeros(m, dtype=bool)
        for i in range(len(v)):
            cond = (y0[i] > py) != (y1[i] > py)
            xs = x0[i] + (py - y0[i]) / (y1[i] - y0[i]) * (x1[i] - x0[i])
            inside ^= cond & (px < xs)
        acc = pts[inside]
        areas[k] = box * inside.mean()
        c = acc.mean(axis=0)
        cents[k] = c
        d = acc - c
        covs[k] = [
            float(d[:, 0] @ d[:, 0]) / len(acc),
            float(d[:, 0] @ d[:, 1]) / len(acc),
            float(d[:, 1] @ d[:, 1]) / len(acc),
        ]
    sqrt_n = math.sqrt(n_chunks)
    return (
        (areas.mean(), areas.std(ddof=1) / sqrt_n),
        (cents.mean(axis=0), cents.std(axis=0, ddof=1) / sqrt_n),
        (covs.mean(axis=0), covs.std(axis=0, ddof=1) / sqrt_n),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
