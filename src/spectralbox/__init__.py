"""spectralbox: numerics for exponential bases and boundary unitaries on boxes.

A frequency set is an ExplicitSpectrum (a listed point set) or a Tower,
the one staircase type: coordinate j is levels[j](k_0, ..., k_{j-1}) + k_j
on output axis axis_order[j].  The config families translated-lattice,
class-a, class-b and tower3d are spellings of one Tower: alpha + Z^d as
the constant levels alpha_j mod 1, the planar column- and row-shifted
towers and the 3-D tower with a zero level 0.  IntFunction is also the
one phase-table type of the boundary data: the 2-D pair (a, b), a
DiagonalBoundary and a Tower's levels hold phase fractions p in [0, 1),
each lifted to exp(i*2*pi*p) by one function.

Submodules:
  model         domain/spectrum value types and family enumeration
  exponentials  box transforms, Gram matrices, completeness, root scans
  cocycles      cocycle identities, the seam twist, classification
  extensions    boundary unitaries and the fractional linear transform
  grid          periodic grid geometry and twisted Fourier transforms
  groups        induced one-parameter groups, grid and spectral realizations
  tiling        torus tiling multiplicity checks and figures
  diffraction   quasi-periodic shift models and point-mass expansions
  config        strict YAML config parsing
  reporting     deterministic plain-text reports
  cli           config-driven batch runner
"""

from .model import (
    Domain,
    ExplicitSpectrum,
    IntervalUnion,
    IntFunction,
    LatticeWindow,
    SpectralBoxError,
    Tower,
    UnitCube,
    enumerate_spectrum,
    spectrum_difference_set,
)

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "ExplicitSpectrum",
    "IntervalUnion",
    "IntFunction",
    "LatticeWindow",
    "SpectralBoxError",
    "Tower",
    "UnitCube",
    "enumerate_spectrum",
    "spectrum_difference_set",
    "__version__",
]
