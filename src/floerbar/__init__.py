"""floerbar: exact-arithmetic toolkit for filtered Floer-type persistence.

Submodules
----------

``novikov``
    Reduced rationals and finite F2 scalars over one graded quantum variable,
    with the non-Archimedean valuation convention ``nu(variable) =
    -action_step``.
``persistence``
    Barcodes (kept as rows of int or int-pair keys over one least scale);
    bottleneck/interleaving distance (exact, a threshold search over
    windows of near bar pairs, two one-sided cover tests a probe); the
    shift-quotient metric (a sorted-matrix search over the optimum, one
    sweep of the candidate shifts a probe); boundary depth and bar lengths.
``complexes``
    Filtered chain complexes over a Novikov field, validated at construction;
    orthogonalising reduction, barcodes, spectral invariants and the
    spectral norm read off a barcode.
``diagrams``
    Combinatorial two-curve diagrams on the sphere or annulus; lune
    enumeration (one winding solve per diagram, candidates priced by prefix
    sums) and the induced filtered complex.
``radial``
    Generator spectra of piecewise linear radial Hamiltonian profiles;
    feasible-barcode enumeration (over runs of twin orbits, each barcode
    reached once and built from bars interned by canonical rank), certified
    boundary-depth bounds read on keys, and continuity pruning along
    profile families.
``seidel``
    One-generator quantum ring arithmetic, power-hypothesis verification,
    the exact averaging bound and its symbolic telescoping certificate.
``oracles``
    The independent exhaustive routes the fast code is checked against: the
    rank-function barcode, the Fraction-sorted unroll, the exhaustive
    matchers, Hopcroft-Karp, the per-shift scan, the per-candidate lune solve
    and the per-matching feasible enumerator; and ``PROPERTIES``, the one
    table of properties that compare the fast code with them, which
    ``floerbar check`` and the tests both run.  Not imported here; only
    tests, ``floerbar check`` and ``--oracle`` load it.
"""

from .exactpi import PiRational
from .novikov import (LagrangianParams, NovikovScalar, NovikovSpec, Rational,
                      format_rational, nov_add, nov_mul, nov_valuation,
                      parse_rational)
from .persistence import (Bar, Barcode, INF, NEG_INF, bar_length_spectrum,
                          bottleneck_distance, boundary_depth,
                          interleaving_distance, shift_barcode,
                          shifted_bottleneck)
from .complexes import (FilteredComplex, Generator, barcode,
                        complex_from_json, complex_to_json, gamma,
                        spectral_invariant, uz_reduce)
from .diagrams import (TwoCurveDiagram, build_complex, diagram_beta,
                       diagram_gamma, enumerate_lunes, equator_pair_annulus,
                       equator_pair_diagram, two_circle_diagram,
                       validate_diagram)
from .radial import (GeneratorSpectrum, RadialProfile, degree_actions,
                     degree_class_actions, feasible_barcodes, fold_profile,
                     forced_bar_bound, generators, homotopy_filter)
from .seidel import (QHPresentation, RingElement, SeidelData, averaging_bound,
                     example_case, qh_mul, quasimorphism_defect_bound,
                     telescoping_check, verify_hypotheses)

__version__ = "0.1.0"
