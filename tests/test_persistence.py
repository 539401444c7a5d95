import dataclasses
import random
from fractions import Fraction as F

import pytest

from floerbar.exactpi import PLAIN, PiRational
from floerbar.oracles import (_same, all_pairs_bottleneck, brute_force_bottleneck,
                              brute_force_shifted_bottleneck)
from floerbar.persistence import (Bar, Barcode, INF, NEG_INF, _PiInt, bar_length_spectrum,
                                  bottleneck_distance, boundary_depth,
                                  interleaving_distance, least_depth, shift_barcode,
                                  shifted_bottleneck)
from floerbar.sampling import random_barcode


def bc(*bars):
    return Barcode(bars)


def bar(left, right, degree=0, mult=1):
    right = INF if right == "inf" else F(right)
    return Bar(F(left), right, degree, mult)


def test_bar_invariants():
    with pytest.raises(ValueError):
        Bar(F(1), F(1))
    with pytest.raises(ValueError):
        Bar(F(2), F(1))
    with pytest.raises(ValueError):
        Bar(F(0), F(1), 0, 0)
    assert bar(0, "inf").length is INF


@pytest.mark.parametrize("x", [0, -7, 10 ** 30, F(-5, 3), PiRational(F(1, 2), F(-2)),
                               PiRational.pi(F(10 ** 9))])
def test_infinities_bound_every_exact_value_in_both_orders(x):
    # the reflected orders (x on the left) reach INF's and NEG_INF's own
    # comparisons, since int, Fraction and PiRational return NotImplemented
    assert NEG_INF < x < INF and NEG_INF <= x <= INF
    assert INF > x > NEG_INF and INF >= x >= NEG_INF
    assert not (INF < x or INF <= x or x > INF or x >= INF)
    assert not (NEG_INF > x or NEG_INF >= x or x < NEG_INF or x <= NEG_INF)
    assert INF != x and x != INF and NEG_INF != x and x != NEG_INF


def test_infinities_compare_with_each_other_and_take_no_arithmetic():
    assert NEG_INF < INF and NEG_INF <= INF and INF > NEG_INF and INF >= NEG_INF
    assert not (INF < NEG_INF or INF <= NEG_INF or NEG_INF > INF or NEG_INF >= INF)
    for inf in (INF, NEG_INF):
        assert inf <= inf and inf >= inf and inf == inf
        assert not (inf < inf or inf > inf or inf != inf)
    assert INF != NEG_INF
    for op in (lambda: -INF, lambda: INF + 1, lambda: 1 + INF, lambda: INF - F(1),
               lambda: F(1) - NEG_INF):
        with pytest.raises(TypeError):
            op()


def test_canonical_form_merges_multiplicities():
    b = bc(bar(0, 1), bar(0, 1), bar(0, 1, 1))
    assert len(b) == 3
    assert [x.multiplicity for x in b.bars] == [2, 1]


def test_boundary_depth_examples():
    assert boundary_depth(bc(bar(0, 1, 0), bar(2, "inf", 1))) == 1
    assert boundary_depth(bc()) == 0


def test_bar_length_spectrum_examples():
    assert bar_length_spectrum(bc(bar(0, 3), bar(1, 2), bar(5, "inf"))) == (1, 3, INF)
    assert bar_length_spectrum(bc()) == ()
    sphere = bc(bar(0, F(1, 5), 0), bar(0, "inf", 0), bar(F(1, 5), "inf", 1))
    assert bar_length_spectrum(sphere) == (F(1, 5), INF, INF)


def test_expand_keeps_single_bars():
    single, double = bar(0, 1), bar(2, 3, mult=2)
    expanded = bc(single, double).expand()
    assert expanded[0] is single
    assert expanded[1:] == [bar(2, 3)] * 2


def test_shift_examples():
    b = bc(bar(0, 1))
    assert shift_barcode(b, F(1)) == bc(Bar(F(-1), F(0)))
    assert shift_barcode(b, F(0)) == b
    rng = random.Random(3)
    for _ in range(20):
        x = random_barcode(rng)
        c = F(rng.randint(-7, 7), rng.randint(1, 5))
        assert shift_barcode(shift_barcode(x, c), -c) == x
        assert boundary_depth(shift_barcode(x, c)) == boundary_depth(x)
        assert bar_length_spectrum(shift_barcode(x, c)) == bar_length_spectrum(x)


def test_bottleneck_examples():
    b = bc(bar(0, 1), bar(3, "inf", 1))
    assert bottleneck_distance(b, b) == 0
    assert bottleneck_distance(bc(bar(0, 1)), bc()) == F(1, 2)
    assert bottleneck_distance(bc(bar(0, 2)), bc(bar(0, 3))) == 1
    assert interleaving_distance(b, b) == 0
    assert interleaving_distance(bc(bar(0, 1)), bc(bar(0, 1), bar(0, 1))) == F(1, 2)
    assert interleaving_distance(bc(bar(0, 2)), bc(bar(0, 3))) == 1


def test_degree_sensitivity_and_infinite_bars():
    a, b = bc(bar(0, 1, 0)), bc(bar(0, 1, 1))
    assert bottleneck_distance(a, b) == F(1, 2)
    assert bottleneck_distance(a, b, degree_sensitive=False) == 0
    assert bottleneck_distance(bc(bar(0, "inf")), bc()) is INF
    assert bottleneck_distance(bc(bar(0, "inf")), bc(bar(3, "inf"))) == 3


def test_containment_formulation_matches_endpoint_sup():
    # matched bars must contain each other's delta-shrinkings; for half-open
    # bars that is exactly the sup distance of endpoints
    def contained(i, j, delta):
        if i.is_infinite != j.is_infinite:
            return False
        if not i.left >= j.left - delta:
            return False
        if not i.is_infinite and not (i.right <= j.right + delta):
            return False
        return True

    rng = random.Random(5)
    for _ in range(300):
        def rand_bar():
            left = F(rng.randint(-6, 6), rng.randint(1, 4))
            if rng.random() < 0.3:
                return Bar(left, INF)
            return Bar(left, left + F(rng.randint(1, 9), rng.randint(1, 4)))
        i, j = rand_bar(), rand_bar()
        delta = F(rng.randint(0, 8), rng.randint(1, 4))
        both = contained(i, j, delta) and contained(j, i, delta)
        from floerbar.persistence import _bar_matching_cost
        assert both == (not (_bar_matching_cost(i, j) > delta))


def test_shifted_bottleneck_examples():
    b = bc(bar(0, 1), bar(2, "inf", 1))
    d, c = shifted_bottleneck(b, shift_barcode(b, F(5)))
    assert (d, c) == (0, -5)
    d, c = shifted_bottleneck(bc(bar(0, 1)), bc(bar(10, 11)))
    assert (d, c) == (0, 10)
    d, c = shifted_bottleneck(bc(bar(0, 1), bar(0, 2)), bc(bar(0, 1), bar(0, 4)))
    assert (d, c) == (1, 1)


def test_shifted_bottleneck_properties():
    rng = random.Random(17)
    for _ in range(25):
        a = random_barcode(rng, max_bars=3)
        b = random_barcode(rng, max_bars=3)
        d_plain = bottleneck_distance(a, b)
        d_shift, _c = shifted_bottleneck(a, b)
        assert not (d_shift > d_plain)
        c = F(rng.randint(-9, 9), rng.randint(1, 4))
        if len(a) > 0:
            d0, c0 = shifted_bottleneck(a, shift_barcode(a, c))
            assert d0 == 0
            assert c0 == -c or bottleneck_distance(a, shift_barcode(shift_barcode(a, c), c0)) == 0


def test_collapse_degrees_and_debug_slope_check():
    from floerbar.oracles import brute_force_shifted_bottleneck
    from floerbar.persistence import collapse_degrees
    b = bc(bar(0, 1, 0), bar(2, 3, 5), bar(4, "inf", 2))
    collapsed = collapse_degrees(b, 2)
    assert collapsed.degrees() == (0, 1)
    # degree-blind shift quotient of collapsed domains matches direct blind
    a = bc(bar(0, 1, 0), bar(5, 6, 3))
    d1, _ = shifted_bottleneck(collapse_degrees(a, 2), collapse_degrees(a, 2))
    assert d1 == 0
    # the fast search agrees with the exhaustive scan, whose slope check
    # re-asserts the piecewise-linear slope bound by sampling
    a, b = bc(bar(0, 1), bar(0, 2)), bc(bar(0, 1), bar(0, 4))
    assert shifted_bottleneck(a, b) == \
        brute_force_shifted_bottleneck(a, b, check_slopes=True) == (1, 1)


def test_shift_rigid_instances():
    # duplicated bar forces a deletion whatever the shift: equality holds
    a = bc(bar(0, 1), bar(0, 1))
    b = bc(bar(0, 1))
    d_plain = bottleneck_distance(a, b)
    d_shift, c = shifted_bottleneck(a, b)
    assert d_plain == d_shift == F(1, 2)
    # a pure translate is maximally non-rigid
    d_shift, c = shifted_bottleneck(bc(bar(0, 2)), bc(bar(10, 12)))
    assert (d_shift, c) == (0, 10)


# ---------------------------------------------------------------------------
# the window search against the all-pairs oracle
# ---------------------------------------------------------------------------


def test_priced_search_matches_reference_on_planted_pairs():
    from floerbar.complexes import barcode
    from floerbar.sampling import perturb_actions, random_complex
    rng = random.Random(41)
    for n in (20, 40, 80, 160):
        cx, _planted = random_complex(rng, n)
        pert, _used = perturb_actions(rng, cx, F(1, 10))
        a, b = barcode(cx), barcode(pert)
        for sensitive in (True, False):
            assert _same(bottleneck_distance(a, b, sensitive),
                         all_pairs_bottleneck(a.bars, b.bars, sensitive)), (n, sensitive)


def test_priced_search_matches_reference_on_pi_fold_barcodes():
    from floerbar.exactpi import PiRational
    from floerbar.novikov import LagrangianParams
    from floerbar.radial import feasible_barcodes, fold_profile, generators
    barcodes = []
    for area in (PiRational.pi(F(1, 7)), PiRational(F(1, 4), F(1, 13))):
        lp = LagrangianParams(dim=1, maslov=2, disk_area=area)
        for a in (F(3, 10), F(1, 2), F(7, 10), F(9, 10)):
            barcodes.extend(feasible_barcodes(generators(fold_profile(a), lp),
                                              {0: 1, 1: 1}))
    barcodes.sort(key=repr)
    assert any(not (bar.is_infinite or bar.right.is_rational)
               for x in barcodes for bar in x)
    for x in barcodes:
        for y in barcodes:
            for sensitive in (True, False):
                d = bottleneck_distance(x, y, sensitive)
                assert _same(d, all_pairs_bottleneck(x.bars, y.bars, sensitive))
                assert d == brute_force_bottleneck(x, y, sensitive)


def test_priced_search_matches_reference_on_random_pairs():
    from floerbar.exactpi import PiRational
    rng = random.Random(43)
    for trial in range(300):
        a = random_barcode(rng, max_bars=5)
        b = random_barcode(rng, max_bars=5)
        if trial % 3 == 0:
            # rational-plus-pi endpoints, equal values of two types included
            def to_pi(x):
                return Barcode(Bar(PiRational(bar.left, F(trial % 2, 7)),
                                   bar.right if bar.is_infinite
                                   else PiRational(bar.right, F(trial % 2, 7)),
                                   bar.degree, bar.multiplicity) for bar in x.bars)
            a = to_pi(a)
        for sensitive in (True, False):
            assert _same(bottleneck_distance(a, b, sensitive),
                         all_pairs_bottleneck(a.bars, b.bars, sensitive)), (a, b, sensitive)


def test_bottleneck_edge_cases():
    # a degree present on one side only is deleted on its own
    a = bc(bar(0, 1, 0), bar(0, 3, 1))
    b = bc(bar(0, 1, 0))
    assert bottleneck_distance(a, b) == F(3, 2)
    assert bottleneck_distance(b, a) == F(3, 2)
    assert bottleneck_distance(a, b, degree_sensitive=False) == F(3, 2) == \
        brute_force_bottleneck(a, b, degree_sensitive=False)
    # infinite-bar counts agree overall but not in degree 1
    a = bc(bar(0, "inf", 0), bar(0, "inf", 1), bar(0, 1, 2))
    b = bc(bar(0, "inf", 0), bar(5, "inf", 0), bar(0, 1, 2))
    assert bottleneck_distance(a, b) is INF
    assert bottleneck_distance(a, b, degree_sensitive=False) == 5
    assert shifted_bottleneck(a, b)[0] is INF
    # empty barcodes
    assert _same(bottleneck_distance(bc(), bc()), F(0))
    assert _same(bottleneck_distance(bc(), bc(), degree_sensitive=False), F(0))
    assert shifted_bottleneck(bc(), bc()) == (0, 0)
    assert shifted_bottleneck(bc(bar(0, 2)), bc()) == (1, 0)


# ---------------------------------------------------------------------------
# the delta search over shifts against the candidate scan it replaced
# ---------------------------------------------------------------------------


def test_shift_search_ties_report_the_smallest_shift():
    from floerbar.oracles import brute_force_shifted_bottleneck
    # the short bar must go, so every shift in [5/2, 7/2] is optimal; the
    # least candidate shift there is the endpoint difference 3
    a = bc(bar(0, 4), bar(10, 11))
    b = bc(bar(3, 7))
    assert shifted_bottleneck(a, b) == brute_force_shifted_bottleneck(a, b) == (F(1, 2), 3)
    # everything is deletable at the optimum: the least candidate is reported
    a = bc(bar(0, 1), bar(10, 11))
    b = bc(bar(3, 4))
    assert shifted_bottleneck(a, b) == brute_force_shifted_bottleneck(a, b) == (F(1, 2), -8)


def test_shift_candidate_zero_reads_back_as_the_first_endpoint():
    # every endpoint difference is positive and no shift matches the lone
    # infinite bar, so the reported shift is the candidate 0, which reads
    # back as the first endpoint of the first barcode does
    from floerbar.oracles import scan_shifted_bottleneck
    b = bc(bar(1, 2))
    for left in (F(1, 7), PiRational(F(0), F(1, 7))):
        a = Barcode([Bar(left, INF)])
        for d, c in (shifted_bottleneck(a, b), scan_shifted_bottleneck(a, b)):
            assert d is INF and c == 0 and type(c) is type(left)


def test_shift_distance_reads_back_as_its_cost_at_the_shift():
    # the shift 7/2 is first the difference 3 - (-1/2) of two degree-0
    # endpoints, the second a PiRational; the distance 1/2 is first the
    # degree-1 cost |0 - (3 - 7/2)|, of two Fraction endpoints, the second
    # moved by that shift, so both read back as PiRationals
    a = Barcode([Bar(F(-1, 2), F(35, 2), 0), Bar(F(0), F(10), 1)])
    b = Barcode([Bar(PiRational(F(3)), PiRational(F(21)), 0), Bar(F(3), F(14), 1)])
    d, c = shifted_bottleneck(a, b)
    assert (d, c) == (F(1, 2), F(7, 2))
    assert type(d) is type(c) is PiRational


def test_shift_search_returns_the_distance_at_its_shift():
    """On int keys the search returns its own optimum instead of re-running
    ``bottleneck_distance`` at the reported shift.  On 520 ``random_barcode``
    pairs in both degree modes, on 40 barcodes against a shifted copy and on
    planted complexes against a shifted, perturbed copy, that optimum is the
    distance at the shift, in value and in type."""
    from floerbar.complexes import barcode
    from floerbar.sampling import perturb_actions, random_complex
    rng = random.Random(59)
    pairs = [(random_barcode(rng, 8), random_barcode(rng, 8), trial % 2 == 0)
             for trial in range(520)]
    for trial in range(40):
        a = random_barcode(rng, 8)
        pairs.append((a, shift_barcode(a, F(rng.randint(-9, 9), 4)), trial % 2 == 0))
    for n in (10, 20, 40, 80):
        cx, _planted = random_complex(rng, n)
        pert, _used = perturb_actions(rng, cx, F(1, 10))
        moved = shift_barcode(barcode(pert), F(rng.randint(-40, 40), rng.randint(1, 6)))
        pairs += [(barcode(cx), moved, sensitive) for sensitive in (True, False)]
    finite = zero = 0
    for a, b, sensitive in pairs:
        d, c = shifted_bottleneck(a, b, sensitive)
        assert _same(d, bottleneck_distance(a, shift_barcode(b, c), sensitive)), \
            (a, b, sensitive)
        finite += d is not INF and d > 0
        zero += d == 0
    assert finite >= 100 and zero >= 40


def _slot_coverable(rows, deletable1, deletable2):
    """The diagonal-slot test: each side gets one slot per bar of the other
    side, a deletable bar may take its own diagonal copy's slot, and the
    slots of the two sides pair off freely; yes iff the matching is
    perfect."""
    from floerbar.oracles import max_bipartite_matching
    n1, n2 = len(deletable1), len(deletable2)
    pool = list(range(n2, n2 + n1))
    adjacency = [row + [n2 + i] if deletable1[i] else row for i, row in enumerate(rows)]
    adjacency += [[j] + pool if ok else pool for j, ok in enumerate(deletable2)]
    return -1 not in max_bipartite_matching(n1 + n2, n2 + n1, adjacency)


def test_two_sided_cover_matches_the_diagonal_slot_graph():
    from floerbar.persistence import _coverable
    rng = random.Random(59)
    seen = set()
    for trial in range(800):
        n1, n2 = rng.randint(0, 7), rng.randint(0, 7)
        density = rng.random()
        rows = [[j for j in range(n2) if rng.random() < density] for _ in range(n1)]
        rng.shuffle(rows)
        # random deletable sets, every bar of one side deletable, or none
        kind = trial % 4
        share = rng.random()
        d1 = [kind == 1 or (kind == 0 and rng.random() < share) for _ in range(n1)]
        d2 = [kind == 2 or (kind == 0 and rng.random() < share) for _ in range(n2)]
        got = _coverable(rows, d1, d2)
        assert got == _slot_coverable(rows, d1, d2), (rows, d1, d2)
        seen.update({("covered", got), ("empty side", 0 in (n1, n2)),
                     ("all deletable", bool(d1) and all(d1))})
    assert all((key, value) in seen for key in ("covered", "empty side", "all deletable")
               for value in (True, False))


def test_cached_bar_length_keeps_equality_hash_and_json():
    left, right = PiRational(F(1), F(-1, 4)), PiRational.pi(F(1, 2))
    b, twin = Bar(left, right, 1), Bar(left, right, 1)
    json_before, hash_before = b.to_json(), hash(b)
    assert b.length == PiRational(F(-1), F(3, 4))
    assert "length" in vars(b) and "length" not in vars(twin)
    assert b == twin and hash(b) == hash_before == hash(twin)
    assert b.to_json() == json_before == twin.to_json()
    assert [f.name for f in dataclasses.fields(Bar)] == [
        "left", "right", "degree", "multiplicity"]
    # a bar made from another computes its own length
    shifted = b.shifted(PiRational.pi())
    assert "length" not in vars(shifted)
    assert shifted.left == left - PiRational.pi() and shifted.length == b.length
    longer = dataclasses.replace(b, right=right + 1)
    assert longer.length == b.length + 1
    assert bar(0, "inf").length is INF


def test_bar_count_cap(monkeypatch):
    from floerbar import persistence

    monkeypatch.setattr(persistence, "MAX_EXPANDED_BARS", 3)
    # multiplicities count: three bars at the cap, four past it
    at_cap, past = bc(bar(0, 1, mult=2), bar(0, "inf")), bc(bar(0, 2, mult=4))
    assert bottleneck_distance(at_cap, at_cap) == 0
    assert shifted_bottleneck(at_cap, at_cap) == (0, 0)
    for b1, b2 in ((past, at_cap), (at_cap, past)):
        with pytest.raises(persistence.BarCountError, match="4 bars, at most 3"):
            bottleneck_distance(b1, b2)
        with pytest.raises(persistence.BarCountError):
            shifted_bottleneck(b1, b2, degree_sensitive=False)
    # the cap is the metrics' own: the barcode itself still expands
    assert bar_length_spectrum(past) == (2, 2, 2, 2)
    huge = bc(bar(0, 1, mult=10**12))
    with pytest.raises(persistence.BarCountError):
        bottleneck_distance(huge, at_cap)


def test_from_json_refuses_what_bar_refuses():
    # rational items are checked on int cross products, pi ones as Bars:
    # the same errors with the same messages, in item order
    def value(x):
        return PiRational.from_json(x) if isinstance(x, list) else F(x)

    for left, right, mult in (("1/2", "1/2", 1), ("2/4", "1/2", 1), ("1", "1/3", 1),
                              ("0", "1", 0), ("3", "2", 0), (["0", "1"], ["0", "1"], 1),
                              ("0", ["0", "-1"], 1), (["1", "0"], "1", 0)):
        with pytest.raises(ValueError) as from_json:
            Barcode.from_json({"bars": [{"left": "0", "right": "1"},
                                        {"left": left, "right": right, "mult": mult},
                                        {"left": "1", "right": "0"}]})
        with pytest.raises(ValueError) as bar:
            Bar(value(left), value(right), 0, mult)
        assert str(from_json.value) == str(bar.value)


def test_equal_int_and_pi_key_endpoints_hash_alike():
    # a barcode hashes its rows: a key of zero pi part is the plain int of
    # its value in every code, the key of a PiRational of the int subclass
    # that reads back as one, so the Fraction and the PiRational barcode of
    # the same bars are equal with equal hashes
    fractions = Barcode([Bar(F(1, 2), F(3, 2), 0), Bar(F(-1, 3), INF, 1)])
    pis = Barcode([Bar(PiRational.of(F(1, 2)), PiRational.of(F(3, 2)), 0),
                   Bar(PiRational.of(F(-1, 3)), INF, 1)])
    assert fractions.rows[0][1] == 3 and type(fractions.rows[0][1]) is int
    assert type(pis.rows[0][1]) is _PiInt and pis.rows[0][1] == 3
    assert pis.rows == fractions.rows and pis.code is fractions.code is PLAIN
    assert fractions == pis and hash(fractions) == hash(pis)
    assert len({fractions, pis}) == 1


def test_pi_keys_compare_across_scales_far_apart():
    # a pi barcode over scale 6 against Fraction bars over 10**40: keys
    # brought up by a factor past HEAD // SPREAD are read off and keyed in
    # a code whose bound holds their pi parts, for the distance, the shift
    # and the least depth alike
    tiny = F(1, 10 ** 40)
    pis = Barcode([Bar(PiRational(F(1, 2), F(1, 3)), PiRational(F(5, 2), F(1, 3)), 0),
                   Bar(PiRational(F(-1), F(1, 6)), INF, 1)])
    near = Barcode([Bar(F(1, 2) + F(355, 339) - tiny, F(5, 2) + F(355, 339) + tiny, 0),
                    Bar(F(-1) + F(355, 678), INF, 1)])
    assert pis.scale == 6 and near.scale == 339 * 10 ** 40
    for sensitive in (True, False):
        d = bottleneck_distance(pis, near, sensitive)
        assert _same(d, all_pairs_bottleneck(pis.bars, near.bars, sensitive))
        assert d == brute_force_bottleneck(pis, near, sensitive)
        moved, shift = shifted_bottleneck(pis, near, sensitive)
        assert _same((moved, shift), brute_force_shifted_bottleneck(pis, near, sensitive))
    depths = [boundary_depth(x) for x in (pis, near)]
    assert _same(least_depth([near, pis]), min(depths)) and depths[0] < depths[1]


def test_from_ranks_picks_take_their_canonical_code():
    # a table whose pi parts need the second code, over scale 2: a pick of
    # small pi parts takes the first code, one without pi parts plain ints,
    # and each equals, with an equal hash, the barcode of its bars
    big = F(2 ** 30 + 1, 2)
    bars = [Bar(PiRational(F(0), big), PiRational(F(1), big), 0),
            Bar(PiRational(F(0), F(1, 2)), PiRational(F(1), F(1, 2)), 0),
            Bar(PiRational.of(F(1, 2)), PiRational.of(3), 1),
            Bar(PiRational.of(F(-1)), INF, 1),
            Bar(PiRational(F(2), F(-3)), INF, 0)]
    ranked = Barcode(bars)
    assert ranked.code.bound == 2 ** 48 and all(row[3] == 1 for row in ranked.rows)
    picks = [(0, 1, 2), (1, 2, 3), (2, 3), (2, 2, 3), (3,), (1, 1, 4), (0, 4, 4)]
    for ranks, pick in zip(picks, Barcode.from_ranks(ranked, picks)):
        built = Barcode(pick.bars)
        assert pick == built and hash(pick) == hash(built), ranks
        assert (pick.scale, pick.code, pick.rows) == (built.scale, built.code, built.rows), ranks
        assert _same(boundary_depth(pick), boundary_depth(built))
        assert pick.to_json() == built.to_json()
    codes = {pick.code.bound for pick in Barcode.from_ranks(ranked, picks)}
    assert codes == {0, 2 ** 24, 2 ** 48}
