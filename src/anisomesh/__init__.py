"""Anisotropic polygonal mesh adaptation toolkit.

Submodules: geometry (polygon primitives and covariance spectra), mesh
(polytopal topology with hanging nodes), regularity (mesh audits), fields
(analytic test functions), quadrature, indicator (error measure), refine
(bisection strategies), interp (harmonic-coordinate interpolation), verify
(inequality stability checks), render and cli.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    CovarianceSpectrum,
    Polygon,
    ReferenceMap,
    covariance_spectrum,
    map_polygon,
    reference_map,
)
from .mesh import PolyMesh, build_mesh, generate_grid, load_mesh, save_mesh  # noqa: F401
from .fields import ScalarField, expression_field, get_field, tanh_layer  # noqa: F401
from .refine import ANISOTROPIC, ISOTROPIC, UNIFORM, RefineConfig, adaptive_loop  # noqa: F401
