"""Exception hierarchy shared by all anisomesh modules."""


class AnisomeshError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateElement(AnisomeshError):
    """Polygon with (numerically) vanishing area or rank-deficient covariance."""


class CutMissesPolygon(AnisomeshError):
    """Requested cut line produces no usable chord through the polygon."""


class NonSimpleResult(AnisomeshError):
    """A constructed polygon is self-intersecting or degenerate."""


class InvalidTopology(AnisomeshError):
    """Mesh connectivity violates the mesh invariants."""


class ParseError(AnisomeshError):
    """Malformed mesh file, config file, or field expression."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TriangulationFailed(AnisomeshError):
    """Could not build a conforming sub-triangulation of an element."""


class SolveFailed(AnisomeshError):
    """Local Laplace system could not be factorized."""


class NoAdmissibleEdge(AnisomeshError):
    """Edge-average interpolation found no admissible edge for a node."""


class ZeroGram(AnisomeshError):
    """Gradient Gram matrix carries no directional information."""


class SandwichViolated(AnisomeshError):
    """Two-sided norm-mapping bound failed; indicates a quadrature/mapping bug."""
