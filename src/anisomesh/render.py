"""Deterministic SVG rendering of polygonal meshes.

One closed path per element, optional per-element fill from a scalar via an
8-stop viridis-like ramp.  Output bytes are identical for identical input;
the timestamp comment is optional for that reason.
"""

from __future__ import annotations

import datetime

import numpy as np

__all__ = ["render_svg", "color_ramp"]

_RAMP = [
    (68, 1, 84),
    (70, 50, 127),
    (54, 92, 141),
    (39, 127, 142),
    (31, 161, 135),
    (74, 194, 109),
    (159, 218, 58),
    (253, 231, 37),
]


def color_ramp(t):
    """Map t in [0, 1] to an rgb hex string via the 8-stop ramp."""
    t = min(max(float(t), 0.0), 1.0)
    x = t * (len(_RAMP) - 1)
    i = min(int(x), len(_RAMP) - 2)
    f = x - i
    rgb = [round((1.0 - f) * a + f * b) for a, b in zip(_RAMP[i], _RAMP[i + 1])]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_svg(mesh, element_values=None, size=640, viewport=None, timestamp=True):
    """Render the mesh as an SVG string.

    ``element_values`` (optional) fills each element by its scalar value;
    ``viewport`` = (x0, y0, x1, y1) crops to a zoom box.
    """
    pts = mesh.points
    if viewport is None:
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
    else:
        lo = np.array(viewport[:2], dtype=float)
        hi = np.array(viewport[2:], dtype=float)
    span = np.maximum(hi - lo, 1e-12)
    sc = size / span.max()
    width = span[0] * sc
    height = span[1] * sc
    margin = 0.01 * size

    if element_values is not None:
        vals = np.asarray(element_values, dtype=float)
        vmin, vmax = float(vals.min()), float(vals.max())
        vspan = vmax - vmin if vmax > vmin else 1.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
    ]
    if timestamp:
        lines.append(f"<!-- rendered {datetime.datetime.now().isoformat()} -->")
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width + 2 * margin:.2f}" '
        f'height="{height + 2 * margin:.2f}" '
        f'viewBox="0 0 {width + 2 * margin:.2f} {height + 2 * margin:.2f}">'
    )
    stroke_w = max(0.4, size / 3200.0)
    # Pixel coordinates of every loop vertex; y flipped for SVG.
    px = (pts[mesh.loop_nodes] - lo) * sc
    coords = list(zip((px[:, 0] + margin).tolist(), (height - px[:, 1] + margin).tolist()))
    g = mesh.geometry
    for k, (a, n) in enumerate(zip(g.starts.tolist(), g.sizes.tolist())):
        d = "M " + " L ".join(f"{x:.3f} {y:.3f}" for x, y in coords[a:a + n]) + " Z"
        if element_values is not None:
            fill = color_ramp((vals[k] - vmin) / vspan)
        else:
            fill = "none"
        lines.append(f'<path d="{d}" fill="{fill}" stroke="#000000" stroke-width="{stroke_w:.3f}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
