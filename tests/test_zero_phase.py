"""Closed-form zero-phase crossings against the grid search they replaced,
and their Newton polish against the Brent polish it replaced."""

import contextlib
import math
import random
import statistics
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsosc import (
    CompensationNetwork,
    NoResonanceError,
    Resonator,
    find_operating_point,
    motional_mode_capacitance_margin,
    phase_slope_q,
    series_resonance,
    shunt_inductor_for,
    tank_impedance,
    tank_resonance,
    window_fraction,
)
from memsosc import compensation, design
from memsosc.bvd import TWO_PI, motional_admittance
from memsosc.compensation import (_admittance_and_slope, _crossing, _real_cubic_roots,
                                  _rtsafe, _tank_admittance, _zero_phase_roots)
from memsosc.fixtures import BUILTIN_RESONATORS, get_resonator

from conftest import bare_c0_network, tank_of
from brent_reference import _brent, brent_polish
from roots_reference import reference_roots
from grid_oracle import (
    grid_lc_crossings,
    grid_motional_crossings,
    lc_window,
    motional_window,
)


def polish_each(res, comp):
    """Every root estimate of the tank polished, ascending (None when
    tangential)."""
    tank = tank_of(res, comp)
    roots = _zero_phase_roots(tank)
    return [_crossing(tank, roots, i) for i in range(len(roots[0]))]


def every_crossing(res, comp):
    """Every zero-phase crossing the root solve finds, polished, ascending."""
    return [f for f in polish_each(res, comp) if f is not None]


def swept_networks(res, q_l0):
    """Networks aligned at f_s with c_fix = 2*c_0, then shifted by -3..+3
    motional-mode margins (c_fix clipped at zero)."""
    fs = series_resonance(res)
    c_fix = 2.0 * res.c_0
    l_0 = shunt_inductor_for(res.c_0 + c_fix, fs)
    margin = motional_mode_capacitance_margin(res)
    for dc in sorted({max(k * margin, -c_fix) for k in range(-3, 4)}):
        yield CompensationNetwork(l_0=l_0, q_l0=q_l0, f_ref=fs, c_fix=c_fix + dc)


@pytest.mark.parametrize("q_l0", [2.0, 8.0, 20.0])
@pytest.mark.parametrize("name", sorted(BUILTIN_RESONATORS))
def test_cubic_finds_every_grid_crossing(name, q_l0):
    res = get_resonator(name)
    seen = 0
    for comp in swept_networks(res, q_l0):
        roots = np.array(every_crossing(res, comp))
        for f in grid_motional_crossings(res, comp) + grid_lc_crossings(res, comp):
            seen += 1
            assert roots.size, f"no roots, grid found {f}"
            assert np.min(np.abs(roots - f)) <= 1e-10 * f
    assert seen > 0


def test_lc_root_beside_the_motional_notch():
    # Three crossings: one low LC crossing, the motional notch and a higher-
    # impedance crossing 1.2 kHz above it.  The last two share one 10 kHz
    # cell of the LC grid, which therefore saw only the 7.1 MHz point.
    res = get_resonator("quartz45m")
    comp = CompensationNetwork(l_0=0.7e-6, q_l0=2.0, f_ref=series_resonance(res),
                               c_fix=62e-12)
    roots = every_crossing(res, comp)
    assert roots == pytest.approx([7.1491e6, 44.59333e6, 44.59450e6], rel=1e-5)
    mags = [abs(tank_impedance(res, comp, f)) for f in roots]
    assert mags == pytest.approx([108.1, 12.39, 213.6], rel=1e-3)
    assert grid_lc_crossings(res, comp) == pytest.approx([roots[0]], rel=1e-10)
    # the motional notch governs, though a crossing of higher |Z| exists
    assert find_operating_point(res, comp)[::2] == (roots[1], "motional")


def test_brent_polishes_to_float_resolution():
    root = _brent(lambda x: x * x - 2.0, 1.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= 1e-15 * math.sqrt(2.0)
    assert _brent(lambda x: x - 3.0, 3.0, 5.0) == 3.0
    with pytest.raises(ValueError):
        _brent(lambda x: x * x + 1.0, 0.0, 1.0)


def test_rtsafe_polishes_to_float_resolution():
    def square(x):
        return x * x - 2.0, 2.0 * x

    root = _rtsafe(square, 1.0, 2.0, -1.0, 1.9)
    assert abs(root - math.sqrt(2.0)) <= 1e-15 * math.sqrt(2.0)
    assert _rtsafe(lambda x: (x - 3.0, 1.0), 2.0, 5.0, -1.0, 3.0) == 3.0
    # where the slope is zero, or a Newton step would leave the bracket or
    # not shrink, a bisection step takes its place, and the root is found
    calls = []

    def bisected(fn, x):
        calls.clear()
        root = _rtsafe(lambda x: calls.append(x) or fn(x), 2.0, 5.0, -1.0, x)
        assert root == pytest.approx(3.0, rel=2e-15)
        return len(calls)

    assert bisected(lambda x: (x - 3.0, 0.0), 4.0) <= 54
    assert bisected(lambda x: (math.atan(x - 3.0), 1.0 / (1.0 + (x - 3.0) ** 2)), 4.9) <= 8

    def cube_root(x):  # each Newton step overshoots to twice the distance
        d = x - 3.0
        slope = abs(d) ** (-2.0 / 3.0) / 3.0 if d else math.inf
        return math.copysign(abs(d) ** (1.0 / 3.0), d), slope

    assert bisected(cube_root, 3.1) <= 64


def test_rtsafe_refuses_past_its_iteration_cap(monkeypatch):
    # sqrt(2) from 1.9 takes six iterations, each from above the root: a cap
    # of six polishes it, and a cap of two raises, naming the bracket it had
    # narrowed to, instead of returning an unconverged value
    def square(x):
        return x * x - 2.0, 2.0 * x

    root = _rtsafe(square, 1.0, 2.0, -1.0, 1.9)
    monkeypatch.setattr(compensation, "_RTSAFE_CAP", 6)
    assert _rtsafe(square, 1.0, 2.0, -1.0, 1.9) == root
    monkeypatch.setattr(compensation, "_RTSAFE_CAP", 5)
    with pytest.raises(ValueError, match="^root polish did not converge in 5 iterations"):
        _rtsafe(square, 1.0, 2.0, -1.0, 1.9)
    monkeypatch.setattr(compensation, "_RTSAFE_CAP", 2)
    with pytest.raises(ValueError) as refusal:
        _rtsafe(square, 1.0, 2.0, -1.0, 1.9)
    assert str(refusal.value) == ("root polish did not converge in 2 iterations; "
                                  "bracket [1.0, 1.4763157894736842]")


def design_space_network(res, rng):
    """A tank drawn as the design_space benchmark draws its sweeps: c_fix
    0.5-8 c_0 and q_l0 2-20 (both log-uniform), then shifted by up to +-3
    motional-mode margins (c_fix clipped at zero)."""
    fs = series_resonance(res)
    c_fix = res.c_0 * 0.5 * 16.0 ** rng.random()
    return CompensationNetwork(
        l_0=shunt_inductor_for(res.c_0 + c_fix, fs), q_l0=2.0 * 10.0 ** rng.random(),
        f_ref=fs, c_fix=max(c_fix + rng.uniform(-3.0, 3.0)
                            * motional_mode_capacitance_margin(res), 0.0))


def polished(res, comp):
    """Every root estimate polished (None when tangential), and the
    governing mode or the refusal's message."""
    try:
        mode = find_operating_point(res, comp)[2]
    except NoResonanceError as exc:
        mode = str(exc)
    return polish_each(res, comp), mode


def on_a_sign_change(res, comp, f, ulps=4):
    """Im Y is zero at f, or is <= 0 and >= 0 within ulps units in the last
    place of f."""
    def susceptance(x):
        return _tank_admittance(tank_of(res, comp), x).imag

    values = [susceptance(f)]
    lo = hi = f
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        values += [susceptance(lo), susceptance(hi)]
    return values[0] == 0 or min(values) <= 0.0 <= max(values)


@pytest.mark.parametrize("name", sorted(BUILTIN_RESONATORS))
def test_newton_polish_against_brent(name):
    # Same crossings, tangential decisions, modes and refusals as the Brent
    # polish; each root on a sign change of Im Y.  The roots themselves may
    # differ where Im Y is flat to rounding over several ulp.
    res = get_resonator(name)
    rng = random.Random(name)
    roots = 0
    for _ in range(1000):
        comp = design_space_network(res, rng)
        newton, mode = polished(res, comp)
        with mock.patch.object(compensation, "_rtsafe", brent_polish):
            brent, brent_mode = polished(res, comp)
        assert [f is None for f in newton] == [f is None for f in brent], comp
        assert mode == brent_mode, comp
        for f in filter(None, newton):
            roots += 1
            assert on_a_sign_change(res, comp, f), (comp, f)
    assert roots > 1000


def test_float_kernel_has_the_bits_of_the_network_wrappers():
    # operating_point on (c_branch, l_0, r_l0) gives find_operating_point's
    # crossing and mode and phase_slope_q's loaded Q there, or the same
    # refusal, with bank codes in the branch capacitance
    outcomes = set()
    for name in sorted(BUILTIN_RESONATORS):
        rng = random.Random(name)
        res = get_resonator(name)
        for _ in range(300):
            comp = design_space_network(res, rng)
            comp = replace(comp, bank_unit=1e-3 * comp.c_fix, bank_size=8,
                           bank_code=rng.randrange(9))
            try:
                f, _, mode = find_operating_point(res, comp)
                want = (f, mode, phase_slope_q(res, comp, f))
            except NoResonanceError as exc:
                want = str(exc)
            try:
                got = compensation.operating_point(res, comp.branch_capacitance(res),
                                                   comp.l_0, comp.r_l0)
            except NoResonanceError as exc:
                got = str(exc)
            assert repr(got) == repr(want), comp
            outcomes.add(want[1] if isinstance(want, tuple) else "refused")
    assert outcomes == {"motional", "lc_tank", "refused"}


def design_space_spec(res, rng):
    """A design spec drawn as the design_space benchmark draws them."""
    fs = series_resonance(res)
    parasitic = res.c_0 * 0.5 * 16.0 ** rng.random()
    c_base = res.c_0 + parasitic + 10e-15
    grid_frac = 10.0 ** (-1.0 - 3.0 * rng.random())
    level = 13.0 * rng.random() - 1.0
    bank_size = 0 if level < 0 else round(2.0 ** level)
    return design.DesignSpec(
        resonator=res, target_f0=fs * rng.uniform(0.99, 1.01), v_osc_target=0.3,
        parasitic_c=parasitic, q_l0_available=2.0 * 10.0 ** rng.random(),
        bank_unit=c_base * grid_frac * 0.3 * (4.0 / 0.3) ** rng.random()
        / max(bank_size, 1),
        bank_size=bank_size, l0_grid_step=grid_frac / ((TWO_PI * fs) ** 2 * c_base))


def design_outcome(spec):
    try:
        return design.run_design(spec).bank_code
    except design.DesignError as exc:
        return str(exc)


def test_newton_polish_refuses_the_designs_brent_refused():
    # With L0 and the bank code picked on the lossy window centre, every
    # draw is answered; both polishes must still give the same design
    answered = 0
    for name in sorted(BUILTIN_RESONATORS):
        rng = random.Random(name)
        res = get_resonator(name)
        for _ in range(300):
            spec = design_space_spec(res, rng)
            got = design_outcome(spec)
            with mock.patch.object(compensation, "_rtsafe", brent_polish):
                assert got == design_outcome(spec), spec
            answered += isinstance(got, int)
    assert answered == 1200
    # A 1 nH grid is too coarse for the 30 GHz tank: its one candidate
    # leaves the window before any operating point is sought.
    rft = get_resonator("rft30g")
    spec = design.DesignSpec(
        resonator=rft, target_f0=30e9, v_osc_target=0.3, parasitic_c=86.58e-15,
        q_l0_available=8.0, bank_unit=1e-15, bank_size=2, l0_grid_step=1e-9)
    refusal = ("no bank code keeps the tank within the high-Q operating window: "
               "code 0 leaves it at window fraction +10.62")
    assert design_outcome(spec) == refusal
    with mock.patch.object(compensation, "_rtsafe", brent_polish):
        assert design_outcome(spec) == refusal
    # Only a tank at the window's edge reaches the refusal that depends on
    # the polish.  The bankless grid's first point puts this one at window
    # fraction +0.9997, where the motional crossing is already gone.
    ws = TWO_PI * series_resonance(rft)
    kappa = ws * ws + (TWO_PI * 30e9 / 8.0) ** 2
    c_edge = rft.c_0 + 96.58e-15 - 0.9997 * motional_mode_capacitance_margin(rft)
    spec = replace(spec, bank_unit=0.0, bank_size=0, l0_grid_step=1.0 / (kappa * c_edge))
    comp = design._choose_inductor(spec)
    assert comp.l_0 == spec.l0_grid_step
    assert compensation.window_fraction(rft, comp) == pytest.approx(0.9997, abs=1e-9)
    refusal = "high-Q motional operating point not found after tuning"
    assert design_outcome(spec) == refusal
    with mock.patch.object(compensation, "_rtsafe", brent_polish):
        assert design_outcome(spec) == refusal


# The most evaluations one polished crossing took on the draws below: two
# or four for the sign tests, the rest Newton or bisection steps (Brent's
# polish took up to 11).
MAX_EVALUATIONS_PER_CROSSING = 7


def test_polish_work_is_bounded(monkeypatch):
    # Admittance evaluations (Y alone, or Y with Y') per operating point and
    # per polished crossing.  Brent's polish took 7.9 per operating point on
    # these draws, Newton 4.3: from the cubic estimate it mostly needs one Y
    # and Y' after the two sign tests.
    calls = []
    for helper in ("_tank_admittance", "_admittance_and_slope"):
        wrapped = getattr(compensation, helper)
        monkeypatch.setattr(compensation, helper,
                            lambda *args, wrapped=wrapped: calls.append(1) or wrapped(*args))
    per_point, per_crossing = [], []
    for name in sorted(BUILTIN_RESONATORS):
        rng = random.Random(name)
        res = get_resonator(name)
        for _ in range(250):
            comp = design_space_network(res, rng)
            calls.clear()
            with contextlib.suppress(NoResonanceError):
                find_operating_point(res, comp)
            per_point.append(len(calls))
            tank = tank_of(res, comp)
            roots = _zero_phase_roots(tank)
            for i in range(len(roots[0])):
                calls.clear()
                _crossing(tank, roots, i)
                per_crossing.append(len(calls))
    assert statistics.mean(per_point) <= 6.0
    assert max(per_crossing) <= MAX_EVALUATIONS_PER_CROSSING


def test_admittance_kernel_has_the_bits_of_the_helpers():
    # The kernel reads the fields directly; the helper chain it replaced,
    # motional admittance + branch susceptance + lossy inductor, is the
    # reference, at the estimates, the polished crossings and off them.
    for name in sorted(BUILTIN_RESONATORS):
        rng = random.Random(name)
        res = get_resonator(name)
        fs = series_resonance(res)
        for _ in range(50):
            comp = design_space_network(res, rng)
            comp = replace(comp, bank_unit=1e-3 * comp.c_fix, bank_size=8,
                           bank_code=rng.randrange(9))
            tank = tank_of(res, comp)
            f_est = _zero_phase_roots(tank)[0]
            for f in [*f_est, *every_crossing(res, comp), fs, fs * rng.uniform(0.5, 1.5)]:
                w = TWO_PI * f
                want = (motional_admittance(res, f) + 1j * w * comp.branch_capacitance(res)
                        + 1.0 / (comp.r_l0 + 1j * w * comp.l_0))
                assert _tank_admittance(tank, f) == want
                assert _admittance_and_slope(tank, f)[0] == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_RESONATORS)),
       st.floats(min_value=2.0, max_value=50.0),
       st.floats(min_value=0.5, max_value=8.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_property_roots_have_zero_phase(name, q_l0, parasitic, shift):
    res = get_resonator(name)
    fs = series_resonance(res)
    c_fix = parasitic * res.c_0
    comp = CompensationNetwork(
        l_0=shunt_inductor_for(res.c_0 + c_fix, fs), q_l0=q_l0, f_ref=fs,
        c_fix=max(c_fix + shift * motional_mode_capacitance_margin(res), 0.0))
    roots = every_crossing(res, comp)
    assert roots == sorted(roots)
    for f in roots:
        assert abs(np.angle(tank_impedance(res, comp, f))) < 1e-9


def windowed_operating_point(res, comp):
    """The rule before every crossing counted: motional crossings inside
    motional_window, else the largest-|Z| crossing inside lc_window, else
    None (a refusal).  A crossing counted when its estimate and its
    polished value both lay inside the window."""
    tank = tank_of(res, comp)
    roots = _zero_phase_roots(tank)

    def inside(lo, hi):
        return [f for i, est in enumerate(roots[0]) if lo <= est <= hi
                and (f := _crossing(tank, roots, i)) is not None and lo <= f <= hi]

    fs = series_resonance(res)
    motional = inside(*motional_window(res))
    if motional:
        f = min(motional, key=lambda x: abs(x - fs))
        return f, tank_impedance(res, comp, f), "motional"
    lc = inside(*lc_window(res, comp))
    if not lc:
        return None
    f, z = max(((f, tank_impedance(res, comp, f)) for f in lc),
               key=lambda point: abs(point[1]))
    return f, z, "lc_tank"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_RESONATORS)),
       st.floats(min_value=2.0, max_value=50.0),
       st.floats(min_value=0.5, max_value=8.0),
       st.floats(min_value=-30.0, max_value=30.0))
def test_property_same_answer_wherever_the_windows_answered(name, q_l0, parasitic,
                                                             shift):
    res = get_resonator(name)
    fs = series_resonance(res)
    c_fix = parasitic * res.c_0
    comp = CompensationNetwork(
        l_0=shunt_inductor_for(res.c_0 + c_fix, fs), q_l0=q_l0, f_ref=fs,
        c_fix=max(c_fix + shift * motional_mode_capacitance_margin(res), 0.0))
    old = windowed_operating_point(res, comp)
    try:
        new = find_operating_point(res, comp)
    except NoResonanceError:
        assert old is None
        assert every_crossing(res, comp) == []
        return
    if old is not None:
        assert repr(new) == repr(old)
    assert new[0] in every_crossing(res, comp)


@pytest.mark.parametrize("c_fix, ratio, refused_before", [
    (120e-15, 0.235, False), (160e-15, 0.169, False), (200e-15, 0.108, True)])
def test_lc_crossing_beyond_the_old_window(c_fix, ratio, refused_before):
    # The default network at q_l0 = 4 with c_fix added.  As c_fix grows the
    # one crossing falls from 0.68 to 0.40 f_tank; from 180 fF on it lies
    # below 0.5 f_tank, the LC window's lower edge at this q_l0, and the
    # windowed rule refused the tank.
    res = get_resonator("rft30g")
    comp = replace(bare_c0_network(res, q_l0=4.0), c_fix=c_fix)
    f, z, mode = find_operating_point(res, comp)
    old = windowed_operating_point(res, comp)
    assert (old is None) == refused_before
    assert refused_before or repr(old) == repr((f, z, mode))
    assert mode == "lc_tank"
    assert f / series_resonance(res) == pytest.approx(ratio, abs=5e-4)
    assert every_crossing(res, comp) == [f]
    assert abs(np.angle(z)) < 1e-9
    assert phase_slope_q(res, comp, f) > 0


def test_lc_rule_picks_the_largest_impedance():
    # The crossing's type, not a window around f_s, names the motional one.
    # A motional Q of 0.3 and an inductor of Q 0.01 with l_0/r_l0^2 = C -
    # 0.05 c_m keep the rest of Im Y / w nearly flat, and the motional
    # branch pulls it below zero between 1.6 and 2.8 f_s.  The lower
    # crossing, outside the old window's octave cap, is series-type
    # (d(Im Y)/dw < 0), so it governs as the motional one.
    fs = 1e9
    ws = TWO_PI * fs
    c_m = 1e-12
    l_m = 1.0 / (ws * ws * c_m)
    res = Resonator(r_m=ws * l_m / 0.3, l_m=l_m, c_m=c_m, c_0=2.0 * c_m)
    comp = CompensationNetwork(l_0=0.01 * 0.01 / (ws * ws * (res.c_0 - 0.05 * c_m)),
                               q_l0=0.01, f_ref=fs)
    roots = every_crossing(res, comp)
    assert [f / fs for f in roots] == pytest.approx([1.5992, 2.7635], rel=1e-4)
    slopes = [_admittance_and_slope(tank_of(res, comp), f)[1].imag for f in roots]
    assert slopes[0] < 0 < slopes[1]
    f, z, mode = find_operating_point(res, comp)
    assert (f, mode) == (roots[0], "motional")
    assert abs(z) == pytest.approx(0.8152, rel=1e-4)
    # A tank whose one crossing, 2.4% below f_s, is parallel-type: the old
    # window (+-2 bandwidths at Q_m 61) held it and called it motional,
    # though its window fraction is +0.78.  The LC rule governs it, the
    # largest |Z| among the crossings; a scan of Im Y over six decades
    # finds no other.
    res = Resonator(r_m=332.0, l_m=1.0705e-7, c_m=2.629e-16, c_0=16e-15)
    fs = series_resonance(res)
    comp = CompensationNetwork(l_0=125.83e-12, q_l0=106.7, f_ref=fs, c_fix=213.9e-15)
    assert window_fraction(res, comp) == pytest.approx(0.7832, rel=1e-4)
    (root,) = every_crossing(res, comp)
    tank = tank_of(res, comp)
    assert _admittance_and_slope(tank, root)[1].imag > 0
    freqs = np.geomspace(1e-3 * fs, 1e3 * fs, 100_001)
    susceptance = [_tank_admittance(tank, float(f)).imag for f in freqs]
    assert np.count_nonzero(np.diff(np.sign(susceptance))) == 1
    f, z, mode = find_operating_point(res, comp)
    assert (f, mode) == (root, "lc_tank")
    assert f / fs == pytest.approx(1.0 - 0.02415, abs=1e-5)
    assert abs(z) == max(abs(tank_impedance(res, comp, r)) for r in every_crossing(res, comp))


def test_no_crossing_at_any_frequency():
    res = get_resonator("quartz45m")
    fs = series_resonance(res)
    comp = CompensationNetwork(
        l_0=shunt_inductor_for(1.5 * res.c_0, fs), q_l0=2.0, f_ref=fs,
        c_fix=0.5 * res.c_0 + 3.0 * motional_mode_capacitance_margin(res))
    assert every_crossing(res, comp) == []
    message = (f"no zero-phase crossing at any frequency "
               f"(f_tank = {tank_resonance(res, comp)!r} Hz)")
    with pytest.raises(NoResonanceError) as info:
        find_operating_point(res, comp)
    assert str(info.value) == message


def susceptance_cubic(res, comp):
    """Coefficients of the susceptance cubic the operating-point search solves."""
    seen = []
    solve = compensation._real_cubic_roots
    with mock.patch.object(compensation, "_real_cubic_roots",
                           lambda *c: seen.append(c) or solve(*c)):
        _zero_phase_roots(tank_of(res, comp))
    (coeffs,) = seen
    return coeffs


def random_network(res, rng):
    """A compensation network near alignment: q_l0 2-50 (log-uniform),
    c_fix 0.5-8 c_0 and a shift of +-3 motional-mode margins."""
    fs = series_resonance(res)
    c_fix = rng.uniform(0.5, 8.0) * res.c_0
    return CompensationNetwork(
        l_0=shunt_inductor_for(res.c_0 + c_fix, fs), q_l0=math.exp(rng.uniform(0.7, 3.9)),
        f_ref=fs, c_fix=max(c_fix + rng.uniform(-3.0, 3.0)
                            * motional_mode_capacitance_margin(res), 0.0))


def assert_same_roots(coeffs, rel=1e-12):
    """The in-house solve gives np.roots' crossing count, each estimate and
    the largest |root| to rel."""
    roots, size = _real_cubic_roots(*coeffs)
    x = [v for v in roots if v > -1.0]
    want, want_size = reference_roots(coeffs)
    assert len(x) == len(want), (coeffs, x, want)
    assert x == pytest.approx(want, rel=rel, abs=rel * want_size)
    assert size == pytest.approx(want_size, rel=rel)


@pytest.mark.parametrize("name", sorted(BUILTIN_RESONATORS))
def test_cubic_solve_matches_np_roots(name):
    res = get_resonator(name)
    fs = series_resonance(res)
    rng = random.Random(name)
    counts = set()
    for _ in range(250):
        comp = random_network(res, rng)
        coeffs = susceptance_cubic(res, comp)
        assert_same_roots(coeffs)
        # the crossing estimates, as frequencies
        want = [fs * math.sqrt(1.0 + v) for v in reference_roots(coeffs)[0]]
        assert _zero_phase_roots(tank_of(res, comp))[0] == pytest.approx(want, rel=1e-12)
        counts.add(len(_real_cubic_roots(*coeffs)[0]))
    assert counts == {1, 3}  # the draws reach both branches of the closed form


@pytest.mark.parametrize("scale", [1e150, 1e-150])
@pytest.mark.parametrize("name", sorted(BUILTIN_RESONATORS))
def test_cubic_solve_ignores_coefficient_scale(name, scale):
    rng = random.Random(name)
    res = get_resonator(name)
    for _ in range(20):
        coeffs = susceptance_cubic(res, random_network(res, rng))
        scaled = [scale * c for c in coeffs]
        roots, size = _real_cubic_roots(*scaled)
        assert all(math.isfinite(v) for v in [*roots, size])
        assert roots == pytest.approx(_real_cubic_roots(*coeffs)[0], rel=1e-14)
        assert_same_roots(scaled)


@pytest.mark.parametrize("k", [-300, -100, 100, 300])
def test_cubic_roots_scale_exactly_by_powers_of_two(k):
    # roots 0.5, 1e-4, -3 and 2^k times them: every coefficient scales exactly
    coeffs = np.poly([0.5, 1e-4, -3.0]).tolist()
    roots, size = _real_cubic_roots(*coeffs)
    scaled = [math.ldexp(c, n * k) for n, c in enumerate(coeffs)]
    assert _real_cubic_roots(*scaled) == ([math.ldexp(v, k) for v in roots],
                                          math.ldexp(size, k))
    assert roots == pytest.approx([-3.0, 1e-4, 0.5], rel=1e-15)


def test_cubic_with_one_real_root():
    # x^3 + x + 1: one real root and a complex pair of modulus sqrt(1/root)
    roots, size = _real_cubic_roots(1.0, 0.0, 1.0, 1.0)
    assert roots == pytest.approx([-0.6823278038280193], rel=1e-15)
    assert size == pytest.approx(math.sqrt(1.0 / 0.6823278038280193), rel=1e-15)
    assert_same_roots((1.0, 0.0, 1.0, 1.0))
    assert_same_roots((2.0, -3.0, 4.0, 5.0))


@pytest.mark.parametrize("coeffs, simple, double", [
    ((1.0, -1.5, 0.0, 0.5), -0.5, 1.0),  # (x - 1)^2 (x + 0.5)
    ((3.0, -1.5, -0.75, 0.375), 0.5, -0.5),  # 3 (x + 0.5)^2 (x - 0.5)
    ((1.0, 0.0, 0.0, 0.0), 0.0, 0.0),  # x^3
    ((1.0, -0.75, 0.1875, -0.015625), 0.25, 0.25),  # (x - 0.25)^3
])
def test_cubic_with_a_repeated_root(coeffs, simple, double):
    # a tangential root: rounding may split it into two close real roots or a
    # complex pair, but nothing is lost, invented far away or NaN
    roots, size = _real_cubic_roots(*coeffs)
    assert 1 <= len(roots) <= 3
    assert all(math.isfinite(v) for v in [*roots, size])
    assert min(abs(v - simple) for v in roots) <= 1e-7
    assert all(min(abs(v - simple), abs(v - double)) <= 1e-5 for v in roots)
    assert size == pytest.approx(max(abs(simple), abs(double)), abs=1e-5)


def test_cubic_keeps_two_small_roots_beside_a_large_one():
    # quartz45m's bare-c_0 network at q_l0 = 1e-3: a root at -1e6 beside
    # two tiny positive ones, which deflating by a + y would cancel away
    res = get_resonator("quartz45m")
    coeffs = susceptance_cubic(res, bare_c0_network(res, q_l0=1e-3))
    roots, size = _real_cubic_roots(*coeffs)
    assert len(roots) == 3 and roots[0] < -1e5 < 0 < roots[1] < roots[2] < 1e-2
    assert size == -roots[0]
    c3, c2, c1, c0 = coeffs
    for x in roots:
        terms = (c3 * x ** 3, c2 * x * x, c1 * x, c0)
        assert abs(math.fsum(terms)) <= 1e-15 * max(map(abs, terms))


@pytest.mark.parametrize("name", ["quartz45m", "saw400m", "fbar2g4"])
def test_very_lossy_inductor_keeps_its_crossing_pair(name):
    # q_l0 from 1e-4 to 1e-2 on the CLI's default network: the cubic's two
    # small roots give two crossings, each a sign change of Im Z sampled
    # beside and between them; the tank is not refused
    res = get_resonator(name)
    for k in range(200):
        comp = bare_c0_network(res, q_l0=10.0 ** (-4.0 + 2.0 * k / 199))
        crossings = every_crossing(res, comp)
        assert len(crossings) == 2, (name, comp.q_l0)
        f1, f2 = crossings
        signs = [tank_impedance(res, comp, f).imag > 0
                 for f in (2.0 * f1 - f2, 0.5 * (f1 + f2), 2.0 * f2 - f1)]
        assert signs[0] != signs[1] != signs[2], (name, comp.q_l0)
        assert find_operating_point(res, comp)[0] in crossings


@pytest.mark.parametrize("coeffs", [
    (1.0, -1.191370664987243, 0.013527238565631337, -3.858321509428623e-05),
    (1.0, -0.6316117196968745, -0.8456732903728568, 0.5693506336015273),
])
def test_cubic_with_a_close_pair_past_the_acos_domain(coeffs):
    # a close pair: the three-root test passes, yet -q/(2 r^3) rounds to
    # just beyond +-1, which math.acos would refuse
    roots, size = _real_cubic_roots(*coeffs)
    want = sorted(np.roots(coeffs).real)
    assert len(roots) == 3
    assert roots == pytest.approx(want, abs=1e-7)
    assert size == pytest.approx(max(map(abs, want)), rel=1e-12)


@pytest.mark.parametrize("shift, mode", [(0.0, "motional"), (3.0, "lc_tank")])
def test_one_root_solve_per_operating_point(monkeypatch, shift, mode):
    res = get_resonator("rft30g")
    comp = replace(bare_c0_network(res, q_l0=8.0),
                   c_fix=shift * motional_mode_capacitance_margin(res))
    calls = []
    solve = compensation._real_cubic_roots
    monkeypatch.setattr(compensation, "_real_cubic_roots",
                        lambda *coeffs: calls.append(1) or solve(*coeffs))
    assert find_operating_point(res, comp)[2] == mode
    assert len(calls) == 1
