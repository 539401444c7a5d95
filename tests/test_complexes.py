import random
from fractions import Fraction as F

import pytest

from floerbar import complexes
from floerbar.complexes import (ComplexValidationError, FilteredComplex,
                                GammaUndefinedError, Generator, WindowSizeError,
                                barcode, complex_from_json, complex_to_json,
                                gamma, spectral_invariant, uz_reduce)
from floerbar.novikov import NovikovScalar, NovikovSpec
from floerbar.oracles import brute_force_barcode
from floerbar.persistence import (Bar, Barcode, INF, NEG_INF,
                                  bar_length_spectrum, bottleneck_distance,
                                  boundary_depth)
from floerbar.sampling import perturb_actions, random_complex

SPEC = NovikovSpec("q", 2, F(1, 2))
ONE = NovikovScalar.one(SPEC)


def sphere_example() -> FilteredComplex:
    gens = [Generator("a1", 0, F(0)), Generator("a2", 1, F(1, 5)),
            Generator("a3", 0, F(0)), Generator("a4", 1, F(1, 5))]
    diff = {"a2": [(ONE, "a1"), (ONE, "a3")], "a4": [(ONE, "a1"), (ONE, "a3")]}
    return FilteredComplex(SPEC, gens, diff)


def test_validate_passes_on_zero_differential():
    cx = FilteredComplex(SPEC, [Generator("x", 0, F(3)), Generator("y", 5, F(-1))], {})
    cx.validate()


def test_validate_catches_action_non_decrease():
    with pytest.raises(ComplexValidationError, match="action"):
        FilteredComplex(SPEC, [Generator("y", 1, F(0)), Generator("z", 0, F(0))],
                        {"y": [(ONE, "z")]})


def test_validate_catches_degree_mismatch():
    with pytest.raises(ComplexValidationError, match="degree"):
        FilteredComplex(SPEC, [Generator("y", 2, F(1)), Generator("z", 0, F(0))],
                        {"y": [(ONE, "z")]})


def test_validate_catches_d_squared():
    gens = [Generator("x", 2, F(2)), Generator("y", 1, F(1)), Generator("z", 0, F(0))]
    with pytest.raises(ComplexValidationError, match="squared"):
        FilteredComplex(SPEC, gens, {"x": [(ONE, "y")], "y": [(ONE, "z")]})


def test_sphere_example_validates():
    sphere_example().validate()


def test_unroll_counts_and_q_shift():
    cx = sphere_example()
    copies = cx.unroll(action_window=(F(0), F(1)))
    assert len(copies) == 8
    for gid, j, deg, act in copies:
        g = cx.by_id[gid]
        assert deg == g.degree + j * SPEC.degree_step
        assert act == g.action + j * SPEC.action_step
    with pytest.raises(ValueError):
        cx.unroll()
    with pytest.raises(ValueError):
        cx.unroll(action_window=(F(1), F(0)))


def test_unroll_complex_is_valid_quotient():
    cx = sphere_example()
    plain = cx.unroll_complex(action_window=(F(0), F(1)))
    plain.validate()
    assert len(plain.generators) == 8
    assert plain.spec is None
    # barcodes of the window quotient agree between both computation routes
    assert barcode(plain) == brute_force_barcode(plain)
    # degree-window unrolling over a full fundamental strip reproduces the
    # compact complex's per-degree bars
    strip = cx.unroll_complex(degree_window=(-1, 3))
    strip.validate()
    full = barcode(strip, (0, 2))
    assert full == barcode(cx)


def test_uz_reduce_documented_output():
    basis = uz_reduce(sphere_example())
    assert len(basis.pairs) == 1
    pair = basis.pairs[0]
    assert pair.beta == F(1, 5)
    assert sorted(gid for _c, gid in pair.z) == ["a1", "a3"]
    assert [gid for _c, gid in pair.y] == ["a2"]
    singular_ids = sorted(tuple(g for _c, g in combo) for combo, _d, _a in basis.singular)
    assert singular_ids == [("a1",), ("a2", "a4")]
    assert basis.torsion_exponents() == (F(1, 5),)


def test_uz_reduce_zero_differential():
    cx = FilteredComplex(SPEC, [Generator("x", 0, F(3))], {})
    basis = uz_reduce(cx)
    assert basis.pairs == ()
    assert len(basis.singular) == 1


def test_barcode_examples():
    expected = Barcode([Bar(F(0), INF, 0), Bar(F(0), F(1, 5), 0), Bar(F(1, 5), INF, 1)])
    assert barcode(sphere_example()) == expected
    cx = FilteredComplex(SPEC, [Generator("x", 0, F(3))], {})
    assert barcode(cx) == Barcode([Bar(F(3), INF, 0)])


def test_brute_force_matches_on_examples():
    for cx in (sphere_example(),
               FilteredComplex(SPEC, [Generator("x", 0, F(3))], {})):
        assert brute_force_barcode(cx) == barcode(cx)


def test_oracle_size_cap():
    gens = [Generator(f"g{i}", i % 3, F(i, 7)) for i in range(40)]
    cx = FilteredComplex(SPEC, gens, {})
    with pytest.raises(ValueError, match="cap"):
        brute_force_barcode(cx, max_unrolled=10)


def test_spectral_invariants():
    cx = sphere_example()
    assert spectral_invariant(cx, ["a1"]) == 0
    assert spectral_invariant(cx, ["a2", "a4"]) == F(1, 5)
    assert spectral_invariant(cx, ["a1", "a3"]) is NEG_INF
    with pytest.raises(ComplexValidationError, match="cycle"):
        spectral_invariant(cx, ["a2"])
    lam = NovikovScalar.monomial(SPEC, 1)
    # q-scaling shifts the level by the action step
    assert spectral_invariant(cx, [(lam, "a1")]) == F(1, 2)


def test_gamma():
    cx = sphere_example()
    assert gamma(barcode(cx), 1, 0) == F(1, 5)
    flat = FilteredComplex(SPEC, [Generator("p", 0, F(2)), Generator("f", 1, F(5))], {})
    assert gamma(barcode(flat), 1, 0) == 3
    doubled = FilteredComplex(SPEC, [Generator("p", 0, F(2)),
                                     Generator("p2", 0, F(1)),
                                     Generator("f", 1, F(5))], {})
    with pytest.raises(GammaUndefinedError):
        gamma(barcode(doubled), 1, 0)


def test_gamma_invariant_under_global_shift():
    cx = sphere_example()
    shifted = FilteredComplex(SPEC, [Generator(g.gid, g.degree, g.action + F(7, 3))
                                     for g in cx.generators], cx.differential)
    assert gamma(barcode(shifted), 1, 0) == gamma(barcode(cx), 1, 0)


def test_tower_shift_of_one_generator():
    # re-choosing the fundamental-domain representative of a2 (degree +2,
    # action +1/2, differential scaled by q) preserves lengths and depth
    cx = sphere_example()
    lam = NovikovScalar.monomial(SPEC, 1)
    gens = [Generator("a1", 0, F(0)), Generator("a2", 3, F(7, 10)),
            Generator("a3", 0, F(0)), Generator("a4", 1, F(1, 5))]
    diff = {"a2": [(lam, "a1"), (lam, "a3")], "a4": [(ONE, "a1"), (ONE, "a3")]}
    moved = FilteredComplex(SPEC, gens, diff)
    moved.validate()
    assert bar_length_spectrum(barcode(moved)) == bar_length_spectrum(barcode(cx))
    assert boundary_depth(barcode(moved)) == boundary_depth(barcode(cx))
    assert brute_force_barcode(moved) == barcode(moved)


def test_bars_longer_than_the_recap_area():
    # a pair whose action drop spans many fundamental domains
    lam = NovikovScalar.monomial(SPEC, 1)
    cx = FilteredComplex(SPEC, [Generator("y", 3, F(10)), Generator("z", 0, F(0))],
                         {"y": [(lam, "z")]})
    cx.validate()
    bc = barcode(cx)
    assert bc == Barcode([Bar(F(0), F(19, 2), 0)])
    assert brute_force_barcode(cx) == bc
    assert boundary_depth(bc) == F(19, 2)


def _boundary(cx: FilteredComplex, combo):
    """``d`` of a Novikov combo, as a combo sorted by generator id."""
    acc = {}
    for coeff, gid in combo:
        for coeff2, target in cx.d(gid):
            term = coeff * coeff2
            acc[target] = acc[target] + term if target in acc else term
    return tuple(sorted(((c, t) for t, c in acc.items() if not c.is_zero()),
                        key=lambda item: item[1]))


def test_barcode_matches_the_eagerly_decoded_reduction():
    rng = random.Random(41)
    cases = []
    for _ in range(40):
        cx, _planted = random_complex(rng, rng.randint(2, 12))
        lo = rng.randint(-3, 2)
        window = (lo, lo + rng.randint(1, 4))
        # a spec-less complex too: the copies of the window as generators
        cases += [(cx, window), (cx.unroll_complex(degree_window=window), None)]
    for cx, window in cases:
        basis = uz_reduce(cx, window)
        eager = [Bar(p.z_action, p.y_action, p.degree) for p in basis.pairs]
        eager.extend(Bar(action, INF, deg) for _c, deg, action in basis.singular)
        assert barcode(cx, window) == Barcode(eager)
        for p in basis.pairs:
            assert _boundary(cx, p.y) == p.z
        for cycle, _deg, _action in basis.singular:
            assert _boundary(cx, cycle) == ()


def test_window_size_cap(monkeypatch):
    cx = sphere_example()  # two copies per generator in a window of degrees [-1, 3)
    with pytest.raises(WindowSizeError, match="window size cap exceeded"):
        barcode(cx, (-10**9, 10**9))
    with pytest.raises(WindowSizeError):
        uz_reduce(cx, (0, 10**9))
    monkeypatch.setattr(complexes, "MAX_WINDOW_COPIES", 8)
    assert barcode(cx, (0, 2)) == barcode(sphere_example())
    with pytest.raises(WindowSizeError, match="unroll to 10 copies, more than 8"):
        barcode(cx, (0, 3))


def test_plain_f2_complex_without_spec():
    one = NovikovScalar.one(None)
    gens = [Generator("a", 1, F(1)), Generator("b", 0, F(0)), Generator("c", 5, F(0))]
    cx = FilteredComplex(None, gens, {"a": [(one, "b")]})
    cx.validate()
    bc = barcode(cx)
    assert bc == Barcode([Bar(F(0), F(1), 0), Bar(F(0), INF, 5)])
    assert brute_force_barcode(cx) == bc


def test_stability_under_action_perturbation():
    rng = random.Random(29)
    for _ in range(25):
        cx, _ = random_complex(rng, rng.randint(2, 8))
        pert, used = perturb_actions(rng, cx, F(1, 19))
        moved = bottleneck_distance(barcode(cx), barcode(pert))
        assert not (moved > used)


def test_json_round_trip():
    cx = sphere_example()
    again = complex_from_json(complex_to_json(cx))
    assert barcode(again) == barcode(cx)
    assert complex_to_json(again) == complex_to_json(cx)


def _valuation_flip(cx: FilteredComplex) -> FilteredComplex:
    """The complex under the opposite valuation sign: actions and degrees
    reflect, the differential transposes (each arrow keeps its coefficient)."""
    gens = [Generator(g.gid, -g.degree, -g.action) for g in cx.generators]
    transposed = {}
    for gid, terms in cx.differential.items():
        for coeff, target in terms:
            transposed.setdefault(target, []).append((coeff, gid))
    return FilteredComplex(cx.spec, gens, transposed)


def test_valuation_sign_flip_preserves_lengths():
    # the opposite sign convention reflects every per-degree barcode; bar
    # lengths and the boundary depth are unchanged
    rng = random.Random(31)
    cases = [sphere_example()]
    for _ in range(15):
        cases.append(random_complex(rng, rng.randint(2, 8))[0])
    for cx in cases:
        flipped = _valuation_flip(cx)
        flipped.validate()
        lo, hi = cx.default_degree_window()
        original = barcode(cx, (lo, hi))
        mirrored = barcode(flipped, (-hi + 1, -lo + 1))
        assert sorted(b.length for b in original.finite_bars()) == \
            sorted(b.length for b in mirrored.finite_bars())
        assert len(original.infinite_bars()) == len(mirrored.infinite_bars())
        assert boundary_depth(original) == boundary_depth(mirrored)


def test_wider_window_keeps_the_bars_of_degrees_0_and_1():
    # the barcode command reads gamma off its own barcode whenever its window
    # holds degrees 0 and 1, so a wider window must not change their bars
    rng = random.Random(37)
    for _ in range(60):
        spec = NovikovSpec("q", rng.randint(1, 3), F(rng.randint(1, 4), rng.randint(1, 5)))
        cx, _ = random_complex(rng, rng.randint(2, 12), spec)
        lo, hi = -rng.randint(0, 3), 2 + rng.randint(0, 3)
        wide = barcode(cx, (lo, hi))
        assert Barcode(b for b in wide if b.degree in (0, 1)) == barcode(cx, (0, 2))
