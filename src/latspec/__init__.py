"""latspec: exact integer-lattice dynamics at desk scale.

Subpackages cover lattice normal forms, haystack families of primitive
vectors, simplex volume spectra of finite point sets, finite and Kronecker
model systems with exact measures, spectral measures with their expansion
and intersection checks, and a config-driven CLI.
"""

from .haystack import HaystackVerdict, make_haystack, verify_haystack_sample
from .lattice import (
    QuotientStructure,
    SubLattice,
    det_exact,
    hnf,
    is_primitive,
    scale_lattice,
    simplex_det,
    snf,
    sublattice,
)
from .spectral import (
    SpectralMeasure,
    annihilator_mass,
    directional_expansion_theorem_check,
    expansion_bound_check,
    intersection_theorem_search,
    rational_mass_excluding_trivial,
    shrink_rational_spectrum,
    small_intersection_bound,
    spectral_measure,
    spectral_measure_kronecker,
    verify_bochner,
)
from .systems import (
    BoxUnion,
    ErgodicSetSpec,
    FiniteSystem,
    KroneckerSystem,
    ergodic_components,
    finite_system,
    kronecker_system,
    max_directional_expansion,
    orbit_saturation,
)
from .volume import (
    PatternWitness,
    PointSet,
    SimplexRecord,
    ap_certificate,
    build_point_set,
    pattern_search,
    upper_density_estimate,
    volume_spectrum,
)

__version__ = "0.1.0"
