"""floerbar: exact-arithmetic toolkit for filtered Floer-type persistence.

The package root re-exports nothing: import each name from its submodule,
as in ``from floerbar.persistence import Barcode``.  A submodule
loads on first use, so a command loads only the layers it runs.

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
    reached once and built from the slots of one bar table per spectrum,
    which every pass on it reads), certified boundary-depth bounds read on
    keys, and continuity pruning along profile families.
``seidel``
    One-generator quantum ring arithmetic, power-hypothesis verification,
    the exact averaging bound and its symbolic telescoping certificate.
``oracles``
    The independent exhaustive routes the fast code is checked against: the
    rank-function barcode, the Fraction-sorted unroll, the exhaustive
    matchers, Hopcroft-Karp, the per-shift scan, the per-candidate lune solve
    and the per-matching feasible enumerator; and ``PROPERTIES``, the one
    table of properties that compare the fast code with them, which
    ``floerbar check`` and the tests both run.  Only tests, ``floerbar
    check`` and ``--oracle`` load it.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule ``floerbar.<name>`` on its first access, so that
    ``floerbar.persistence`` works after a bare ``import floerbar`` (PEP 562)."""
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
