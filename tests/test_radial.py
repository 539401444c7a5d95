import gc
import itertools
import random
from fractions import Fraction as F

import pytest

from floerbar.exactpi import PiRational
from floerbar.novikov import LagrangianParams
from floerbar.oracles import (_TWIN_TENTS, _feasible_agrees, _twin_tent,
                              brute_force_feasible_barcodes, rank_prescriptions)
from floerbar.persistence import Barcode, Bar, INF, boundary_depth
from floerbar.radial import (FeasibleCountError, GeneratorSpectrum, InfeasibleRanksError,
                             RadialProfile, SlopeDegeneracyError,
                             SpectrumEntry, degree_actions,
                             degree_class_actions, feasible_barcodes,
                             fold_profile, forced_bar_bound, generators,
                             _pairable, _slope_less, homotopy_filter, rank_quotas,
                             sup_difference)
from floerbar.sampling import random_tent_spectrum

LP = LagrangianParams(dim=1, maslov=2, disk_area=F(1, 2))


def pv(x):
    return PiRational.of(F(x) if not isinstance(x, tuple) else F(*x))


def test_profile_validation():
    with pytest.raises(ValueError):
        RadialProfile(breakpoints=((pv(1), pv(0)), (pv(2), pv(0))))
    with pytest.raises(ValueError):
        RadialProfile(breakpoints=((pv(0), pv(0)),))


def test_fold_spectrum_counts_and_actions():
    s = generators(fold_profile(F(9, 10)), LP, k_range=(0, 1))
    by_degree = {}
    for e in s.entries:
        by_degree.setdefault(e.degree, []).append(e)
    assert {d: len(v) for d, v in by_degree.items()} == {0: 2, 1: 2, 2: 2, 3: 2}
    assert degree_actions(s, 1) == (pv(0), pv(0))
    assert degree_actions(s, 0) == (pv((-9, 40)), pv((-9, 40)))
    assert degree_class_actions(s, 1) == (pv(0), pv((1, 2)))
    assert degree_actions(s, 7) == ()


def test_slope_degeneracy_detected():
    prof = RadialProfile(breakpoints=(
        (pv(0), pv(0)), (PiRational.pi(F(1, 4)), PiRational.pi(F(1, 4)))))
    with pytest.raises(SlopeDegeneracyError):
        generators(prof, LP)


def test_slope_less_on_pure_pi_runs_matches_pi_arithmetic():
    # segments (df, df_pi, drho, drho_pi) with runs drho_pi * pi > 0: the
    # slopes compare as df_a * drho_pi_b < df_b * drho_pi_a
    rng = random.Random(207)
    for _ in range(500):
        seg_a, seg_b = ((rng.randint(-9, 9), rng.randint(-9, 9), 0, rng.randint(1, 9))
                        for _ in range(2))
        expected = (PiRational(F(seg_a[0]), F(seg_a[1])) * seg_b[3]
                    < PiRational(F(seg_b[0]), F(seg_b[1])) * seg_a[3])
        assert _slope_less(seg_a, seg_b) is expected, (seg_a, seg_b)
    # equal slopes are not less
    assert not _slope_less((2, -4, 0, 2), (3, -6, 0, 3))


def test_slope_less_refuses_runs_not_rationally_proportional():
    for seg_a, seg_b in (((1, 0, 1, 0), (1, 0, 0, 1)), ((1, 0, 0, 1), (1, 0, 1, 0)),
                         ((1, 0, 1, 1), (1, 0, 1, 2))):
        with pytest.raises(ValueError, match="not rationally proportional"):
            _slope_less(seg_a, seg_b)


def test_fold_feasible_families():
    s = generators(fold_profile(F(9, 10)), LP)
    feas = feasible_barcodes(s, {0: 1, 1: 1})
    assert len(feas) == 2
    depths = sorted(boundary_depth(bc) for bc in feas)
    assert depths == [pv((9, 40)), pv((11, 40))]
    assert forced_bar_bound(s, {0: 1, 1: 1}) == pv((9, 40))


def test_forced_bound_grid_and_monotonicity():
    # the grid values themselves are the property radial-fold-bound
    bounds = [forced_bar_bound(generators(fold_profile(F(num, 10)), LP), {0: 1, 1: 1})
              for num in range(1, 10)]
    assert all(x <= y for x, y in zip(bounds, bounds[1:]))
    # limit value: half the recap area
    assert bounds[-1] < PiRational.of(F(1, 4))


def test_all_forced_spectrum():
    prof = RadialProfile(breakpoints=((pv(0), pv(0)), (pv((1, 2)), pv((1, 10)))),
                         exterior=(0, 1))
    s = generators(prof, LP)
    feas = feasible_barcodes(s, {0: 2, 1: 1})
    assert len(feas) == 1
    assert all(b.is_infinite for b in next(iter(feas)).expand())
    assert forced_bar_bound(s, {0: 2, 1: 1}) == PiRational.of(0)


def test_infeasible_ranks():
    s = generators(fold_profile(F(1, 2)), LP)
    with pytest.raises(InfeasibleRanksError):
        feasible_barcodes(s, {0: 5})


def test_forced_bound_is_minimum():
    s = generators(fold_profile(F(3, 10)), LP)
    bound = forced_bar_bound(s, {0: 1, 1: 1})
    for bc in feasible_barcodes(s, {0: 1, 1: 1}):
        assert not (boundary_depth(bc) < bound)


def test_recap_shift_leaves_bound_alone():
    base = generators(fold_profile(F(7, 10)), LP)
    shifted_entries = []
    for e in base.entries:
        if e.source[0] == "origin":
            shifted_entries.append(SpectrumEntry(
                e.degree + LP.maslov, e.action + PiRational.of(LP.disk_area),
                e.source, e.k + 1))
        else:
            shifted_entries.append(e)
    shifted = GeneratorSpectrum(tuple(shifted_entries), LP)
    assert forced_bar_bound(shifted, {0: 1, 1: 1}) == \
        forced_bar_bound(base, {0: 1, 1: 1})


def test_true_barcode_is_feasible_for_sphere_complex_spectrum():
    # cross-module check: the equator-pair complex's (degree, action) data
    # admits its true barcode among the feasible ones
    entries = (
        SpectrumEntry(0, pv(0), ("gen", "a1")),
        SpectrumEntry(0, pv(0), ("gen", "a3")),
        SpectrumEntry(1, pv((1, 5)), ("gen", "a2")),
        SpectrumEntry(1, pv((1, 5)), ("gen", "a4")),
    )
    s = GeneratorSpectrum(entries, LP)
    feas = feasible_barcodes(s, {0: 1, 1: 1})
    truth = Barcode([Bar(pv(0), INF, 0), Bar(pv(0), pv((1, 5)), 0),
                     Bar(pv((1, 5)), INF, 1)])
    assert truth in feas


def test_sup_difference_and_homotopy():
    p1 = fold_profile(F(1, 2))
    p2 = fold_profile(F(9, 10))
    assert sup_difference(p1, p2) == PiRational.of(F(1, 10))
    assert sup_difference(p1, p1) == PiRational.of(0)

    family = [fold_profile(F(a, 20)) for a in range(10, 19)]
    trace = homotopy_filter(family, LP, {0: 1, 1: 1}, F(2))
    assert len(trace.kept) == len(family)
    assert all(len(k) == 2 for k in trace.kept)
    # the short-bar family survives to the end with its endpoint tracking a/4
    last = trace.kept[-1]
    depths = {boundary_depth(bc) for bc in last}
    assert PiRational.of(F(18, 20) / 4) in depths

    single = homotopy_filter([p1], LP, {0: 1, 1: 1}, F(2))
    assert len(single.kept) == 1

    with pytest.raises(ValueError):
        homotopy_filter([p1, p2], LP, {0: 1, 1: 1}, F(1, 2))


def test_mismatched_domains_rejected():
    p1 = fold_profile(F(1, 2))
    p3 = fold_profile(F(1, 2), capacity=F(2, 3))
    with pytest.raises(ValueError, match="domain"):
        sup_difference(p1, p3)


def test_profile_json_round_trip():
    prof = fold_profile(F(9, 10))
    again = RadialProfile.from_json(prof.to_json())
    assert again == prof


def _steep_profile(t: F) -> RadialProfile:
    """Deep-fold family in capacity coordinates: a valley corner slides from
    the wall foot at 3/4 toward 5/9 while its floor rises with the capacity
    (height = t times the capacity 1); the wall climbs back to full height at
    6/7 and drifts gently to the boundary.  All slopes stay non-integer."""
    rho_t = (1 - t) * F(3, 4) + t * F(5, 9)
    height = t  # capacity * t with capacity 1
    sigma0 = F(-1, 10)
    pts = [(pv(0), pv(-sigma0 * rho_t + height)), (pv(rho_t), pv(height))]
    if t > 0:
        pts.append((pv((3, 4)), pv(0)))
    pts += [(pv((6, 7)), pv(1)), (pv(1), pv(1) + pv((1, 80)))]
    return RadialProfile(breakpoints=tuple(pts), exterior=(0, 2))


def test_steep_profile_degree_formulas():
    # dimension 2, Maslov 4, recap area 2 (capacity = disk_area * dim/maslov);
    # levels and degrees read off the corners
    lp = LagrangianParams(dim=2, maslov=4, disk_area=F(2))
    prof = _steep_profile(F(1))
    s = generators(prof, lp, k_range=range(0, 5))
    # the inner concave-down corner carries the level -1 entry of degree
    # n + 1 = 3 with unrecapped action capacity * t + rho(t) = 1 + 5/9
    down = [e for e in s.entries
            if e.source[:3] == ("kink", 1, -1) and e.k == 0 and e.degree == 3]
    assert len(down) == 1
    assert down[0].action == pv((14, 9))
    # every degree-3 entry sourced at the wall corner or outside exceeds
    # twice the capacity, so only the sliding corner owns low degree-3 actions
    for e in s.entries:
        if e.degree != 3:
            continue
        if e.source[0] == "exterior" or (e.source[0] == "kink" and e.source[1] == 3):
            assert e.action > pv(2), e
    # the gcd exclusion: with dim and Maslov sharing a factor 2, the wall
    # corner's second slot cannot reach degree 3 at all
    wall_second = [e for e in s.entries
                   if e.source[0] == "kink" and e.source[1] == 3
                   and e.source[4] == 1 and e.degree == 3]
    assert wall_second == []


def test_steep_profile_zero_time_low_degree3_only_from_convex_corner():
    # before the valley opens, every degree-3 action below twice the capacity
    # comes from the second slot of the (convex) merged corner -- the slot
    # that can only start bars; wall and exterior entries all sit above
    lp = LagrangianParams(dim=2, maslov=4, disk_area=F(2))
    s = generators(_steep_profile(F(0)), lp, k_range=range(0, 5))
    for e in s.entries:
        if e.degree == 3 and not e.action > pv(2):
            assert e.source[0] == "kink" and e.source[3] == "up" and e.source[4] == 1, e


def test_the_oracle_budget_counts_distinct_barcodes():
    s = generators(fold_profile(F(9, 10)), LP)
    for search in (feasible_barcodes, brute_force_feasible_barcodes):
        assert len(search(s, {0: 1, 1: 1}, limit=2)) == 2
        with pytest.raises(ValueError, match="exceeded the limit"):
            search(s, {0: 1, 1: 1}, limit=1)


def test_twin_orbits_collapse_without_losing_barcodes():
    # slope 21/10 on both sides of a tent: five kink levels, each with two
    # dimension-1 slots of equal degree and action; all ten partners of a
    # twin pair give the same bars, and the bound is the steepest kink bar
    prof = RadialProfile(breakpoints=((pv(0), pv(0)), (pv((1, 4)), pv((21, 40))),
                                      (pv((1, 2)), pv(0))), exterior=(0,))
    s = generators(prof, LP)
    assert len(s.entries) == 12
    feas = feasible_barcodes(s, {0: 0, 1: 0})
    assert len(feas) == 10
    assert forced_bar_bound(s, {0: 0, 1: 0}) == pv((21, 40))
    with pytest.raises(FeasibleCountError, match="exceeded the limit of 9 barcodes"):
        feasible_barcodes(s, {0: 0, 1: 0}, limit=9)


def test_feasible_search_leaves_no_garbage_cycle():
    # the nested search functions of the search and of its oracle refer to
    # themselves; unless each call breaks that cycle, its whole search state
    # waits for the cyclic collector
    rng = random.Random(5)
    spectra = [random_tent_spectrum(rng) for _ in range(6)]
    gc.collect()
    gc.disable()
    try:
        for spectrum in spectra:
            for ranks in itertools.islice(rank_prescriptions(spectrum), 2):
                for search in (feasible_barcodes, brute_force_feasible_barcodes):
                    try:
                        search(spectrum, ranks)
                    except InfeasibleRanksError:
                        pass
                    assert gc.collect() == 0, search
    finally:
        gc.enable()


def test_each_feasible_barcode_is_reached_once(monkeypatch):
    # the search over runs of twins ends at one leaf per barcode: it hands
    # Barcode.from_ranks exactly as many rank tuples as barcodes come back
    leaves = []
    from_ranks = Barcode.from_ranks.__func__

    def counted(cls, ranked, picks):
        picks = list(picks)
        leaves.append(len(picks))
        return from_ranks(cls, ranked, picks)

    monkeypatch.setattr(Barcode, "from_ranks", classmethod(counted))
    rng = random.Random(19)
    spectra = [_twin_tent(*tent) for tent in _TWIN_TENTS]
    spectra += [random_tent_spectrum(rng) for _ in range(60)]
    reached = 0
    for spectrum in spectra:
        for ranks in rank_prescriptions(spectrum):
            try:
                result = feasible_barcodes(spectrum, ranks)
            except InfeasibleRanksError:
                continue
            assert leaves[-1] == len(result), (spectrum, ranks)
            reached += 1
    assert reached > 200


def test_picks_read_out_as_the_barcodes_of_their_bars(monkeypatch):
    # the keyed route of from_ranks against Barcode(bars), the slower route:
    # every feasible barcode of 200 drawn tents under every rank
    # prescription equals the barcode of its bars, with the same hash,
    # boundary depth (value and type), JSON and repr
    tables = []
    from_ranks = Barcode.from_ranks.__func__

    def recorded(cls, ranked, picks):
        tables.append(ranked.scale)
        return from_ranks(cls, ranked, picks)

    monkeypatch.setattr(Barcode, "from_ranks", classmethod(recorded))
    rng = random.Random(29)
    kinds, repeated, below, bare = set(), 0, 0, 0
    for _ in range(200):
        spectrum = random_tent_spectrum(rng)
        area = spectrum.params.disk_area
        kinds.add((spectrum.params.maslov, area.rational != 0, area.pi_coeff != 0))
        for ranks in rank_prescriptions(spectrum):
            try:
                result = feasible_barcodes(spectrum, ranks)
            except InfeasibleRanksError:
                continue
            for bc in result:
                depth = boundary_depth(bc)  # the key from_ranks handed over
                slow = Barcode(list(bc.bars))
                assert slow == bc and hash(slow) == hash(bc), (spectrum, ranks, bc)
                assert type(boundary_depth(slow)) is type(depth)
                assert boundary_depth(slow) == depth
                assert slow.to_json() == bc.to_json() and repr(slow) == repr(bc)
                repeated += any(m > 1 for _d, _l, _r, m in bc.rows)
                below += bc.scale < tables[-1]
                bare += all(r is None for _d, _l, r, _m in bc.rows)
    # both Maslov numbers with rational, pi and mixed areas
    assert kinds == {(m, q, p) for m in (2, 4) for q, p in ((1, 0), (0, 1), (1, 1))}
    assert repeated and below and bare, (repeated, below, bare)


def test_rank_keys_of_one_degree_class_are_refused():
    # keys 0 and 2 are one class mod 2, in either order; every search and
    # the pruning refuse them before searching, naming the class
    s = generators(fold_profile(F(9, 10)), LP)
    fam = [fold_profile(F(k, 10)) for k in (3, 5)]
    for ranks in ({0: 2, 1: 2, 2: 1}, {2: 1, 1: 2, 0: 2}):
        with pytest.raises(ValueError, match="one degree class 0 mod 2"):
            rank_quotas(ranks, 2)
        for search in (feasible_barcodes, brute_force_feasible_barcodes):
            with pytest.raises(ValueError, match="one degree class 0 mod 2"):
                search(s, ranks)
        with pytest.raises(ValueError, match="one degree class 0 mod 2"):
            homotopy_filter(fam, LP, ranks, 2)
    # distinct classes keep their counts, zero counts drop out
    assert rank_quotas({-2: 1, 3: 0}, 2) == {0: 1}
    assert rank_quotas({5: 2, 2: 1}, 4) == {1: 2, 2: 1}


def test_negative_rank_counts_are_refused():
    # a negative count is malformed: every search and the pruning refuse it
    # before searching, naming its degree
    s = generators(fold_profile(F(9, 10)), LP)
    fam = [fold_profile(F(k, 10)) for k in (3, 5)]
    ranks = {0: 1, 3: -1}
    with pytest.raises(ValueError, match="degree 3 has a negative infinite-bar count -1"):
        rank_quotas(ranks, 2)
    for search in (feasible_barcodes, brute_force_feasible_barcodes):
        with pytest.raises(ValueError, match="degree 3 has a negative") as info:
            search(s, ranks)
        assert not isinstance(info.value, InfeasibleRanksError)
    with pytest.raises(ValueError, match="degree 3 has a negative"):
        homotopy_filter(fam, LP, ranks, 2)


def test_orbit_counts_pairable_exactly_when_some_pair_counts_fit():
    # p[d] pairs join the classes d and d + 1 round a cycle of length m; the
    # closed form of _pairable against every small vector of pair counts
    for m, values, pairs in ((2, range(-1, 5), range(5)), (3, range(-1, 5), range(5)),
                             (4, range(-1, 4), range(4)), (5, range(3), range(3))):
        for to_pair in itertools.product(values, repeat=m):
            fits = any(all(to_pair[d] == p[d] + p[d - 1] for d in range(m))
                       for p in itertools.product(pairs, repeat=m))
            assert _pairable(to_pair) == fits, (m, to_pair)


def test_odd_maslov_numbers_agree_with_the_oracle():
    # the property table draws Maslov numbers 2 and 4; the count pruning
    # treats an odd cycle of classes differently, so the table's predicate
    # (barcodes, budget and bound) runs here on odd ones
    rng = random.Random(3)
    checked = 0
    while checked < 12:
        dim, maslov = rng.choice(((1, 3), (2, 3), (1, 5)))
        mid = F(rng.randint(2, 3), 10)
        top = F(rng.randint(1, 29), 10) * rng.choice((1, -1)) * mid
        prof = RadialProfile(breakpoints=((pv(0), pv(0)), (pv(mid), pv(top)),
                                          (pv((1, 2)), pv(top - F(rng.randint(1, 29), 10)
                                                            * (F(1, 2) - mid)))),
                             exterior=tuple(rng.sample(range(2 * dim), rng.randint(0, 2))))
        try:
            s = generators(prof, LagrangianParams(dim, maslov, rng.choice((F(1, 2), F(3, 5)))))
        except SlopeDegeneracyError:
            continue
        if len(s.entries) > 8:
            continue
        checked += 1
        assert _feasible_agrees(s), s


def test_slope_floors_match_the_oracle_on_rational_and_pi_runs():
    # floor(df/drho) on int parts, by the key over M for a rational run and
    # by bisection for a run with a pi part, against the Machin oracle
    from floerbar.oracles import pi_rational_cmp
    from floerbar.radial import _slope_floor
    rng = random.Random(5)
    degenerate = 0
    for trial in range(2000):
        df = (rng.randint(-400, 400), rng.randint(-40, 40) if trial % 4 else 0)
        drho = (rng.randint(1, 60), 0) if trial % 2 else (rng.randint(-5, 5), rng.randint(1, 9))
        if trial % 7 == 0:
            l = rng.randint(-9, 9)  # an exact integer slope
            df = (l * drho[0], l * drho[1])
        run, value = PiRational(F(drho[0]), F(drho[1])), PiRational(F(df[0]), F(df[1]))
        if pi_rational_cmp(run, 0) <= 0:
            continue
        # df = l * drho for an int l: the slope is an integer
        l = F(df[1], drho[1]) if drho[1] else F(df[0], drho[0])
        if l.denominator == 1 and (df[0], df[1]) == (l * drho[0], l * drho[1]):
            degenerate += 1
            with pytest.raises(SlopeDegeneracyError):
                _slope_floor(*df, *drho)
            continue
        l = _slope_floor(*df, *drho)
        assert pi_rational_cmp(run * l, value) < 0 < pi_rational_cmp(run * (l + 1), value), \
            (df, drho, l)
    assert degenerate > 100
