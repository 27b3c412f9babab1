"""spectralbox: numerics for exponential bases and boundary unitaries on boxes.

Spectrum families are TranslatedLattice (alpha + Z^d), ExplicitSpectrum
(a listed point set) and Tower, the one staircase type: coordinate j is
levels[j](k_0, ..., k_{j-1}) + k_j on output axis axis_order[j].
ClassA2D, ClassB2D and Tower3D are constructor functions returning the
planar column- and row-shifted towers and the 3-D tower with a zero
level 0.

Submodules:
  model         domain/spectrum value types and family enumeration
  exponentials  box transforms, Gram matrices, completeness, root scans
  cocycles      cocycle identities, classification, quasi-commutativity
  extensions    boundary unitaries and the fractional linear transform
  groups        induced one-parameter groups, grid and spectral realizations
  tiling        torus tiling multiplicity checks and figures
  diffraction   quasi-periodic shift models and point-mass expansions
  cli           config-driven batch runner
"""

from .model import (
    ClassA2D,
    ClassB2D,
    Domain,
    ExplicitSpectrum,
    IntervalUnion,
    IntFunction,
    LatticeWindow,
    SpectralBoxError,
    ToleranceConfig,
    Tower,
    Tower3D,
    TranslatedLattice,
    UnitCube,
    enumerate_spectrum,
    spectrum_difference_set,
)

__version__ = "0.1.0"

__all__ = [
    "ClassA2D",
    "ClassB2D",
    "Domain",
    "ExplicitSpectrum",
    "IntervalUnion",
    "IntFunction",
    "LatticeWindow",
    "SpectralBoxError",
    "ToleranceConfig",
    "Tower",
    "Tower3D",
    "TranslatedLattice",
    "UnitCube",
    "enumerate_spectrum",
    "spectrum_difference_set",
    "__version__",
]
