import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsosc import (
    ComplexResponse,
    Resonator,
    coupling_coefficient,
    impedance,
    motional_bandwidth,
    parallel_resonance,
    phase,
    quality_factor,
    series_resonance,
    static_reactance,
)
from memsosc.bvd import (
    check_frequency,
    grid,
    motional_admittance,
    motional_detuning,
    sweep,
)
from memsosc.fixtures import (
    BUILTIN_RESONATORS,
    PUBLISHED_FREQUENCY,
    PUBLISHED_Q,
    get_resonator,
)


class TestResonatorType:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Resonator(r_m=0, l_m=1e-6, c_m=1e-15, c_0=1e-12)
        with pytest.raises(ValueError):
            Resonator(r_m=1, l_m=-1e-6, c_m=1e-15, c_0=1e-12)

    @pytest.mark.parametrize("field", ["r_m", "l_m", "c_m", "c_0"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        values = dict(r_m=1.0, l_m=1e-6, c_m=1e-15, c_0=1e-12)
        values[field] = value
        with pytest.raises(ValueError):
            Resonator(**values)

    def test_rejects_overcoupled(self):
        with pytest.raises(ValueError):
            Resonator(r_m=1, l_m=1e-6, c_m=2e-12, c_0=1e-12)

    def test_frozen(self, rft):
        with pytest.raises(AttributeError):
            rft.r_m = 1.0

    def test_rejects_underflowing_lc_product(self):
        with pytest.raises(ValueError, match="l_m\\*c_m"):
            Resonator(r_m=1.0, l_m=1e-200, c_m=1e-200, c_0=1.0)

    @pytest.mark.parametrize("name", sorted(BUILTIN_RESONATORS))
    def test_series_resonance_keeps_its_bits(self, name):
        # f_s is computed once per resonator, by the same expression
        res = get_resonator(name)
        for r in (res, replace(res, l_m=0.7 * res.l_m), replace(res, c_m=1.3 * res.c_m)):
            assert series_resonance(r) == 1.0 / (2.0 * math.pi * math.sqrt(r.l_m * r.c_m))


class TestComplexResponse:
    def test_requires_increasing_grid(self):
        with pytest.raises(ValueError):
            ComplexResponse(np.array([2.0, 1.0]), np.array([1j, 2j]))

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            ComplexResponse(np.array([1.0, 2.0]), np.array([1j]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ComplexResponse(np.array([]), np.array([]))


class TestResonances:
    def test_rft_series_resonance(self, rft):
        assert series_resonance(rft) == pytest.approx(30e9, rel=1e-3)

    def test_unit_values(self):
        res = Resonator(r_m=1e-3, l_m=1.0, c_m=1.0, c_0=2.0)
        assert series_resonance(res) == pytest.approx(1.0 / (2.0 * math.pi))

    def test_fbar_series_resonance(self, fbar):
        # direct evaluation of the Lm/Cm values
        assert series_resonance(fbar) == pytest.approx(2.4617e9, rel=1e-4)

    def test_rft_parallel_offset(self, rft):
        fs = series_resonance(rft)
        # c_m/c_0 = 1e-4, so f_p sits 5e-5 above f_s fractionally
        assert parallel_resonance(rft) / fs == pytest.approx(1.00005, abs=1e-7)

    def test_fbar_parallel(self, fbar):
        assert parallel_resonance(fbar) == pytest.approx(2.4989e9, rel=1e-4)

    def test_parallel_above_series(self):
        for res in BUILTIN_RESONATORS.values():
            assert parallel_resonance(res) >= series_resonance(res)

    def test_vanishing_coupling_limit(self, rft):
        tiny = replace(rft, c_m=rft.c_m * 1e-6)
        ratio = parallel_resonance(tiny) / series_resonance(tiny)
        assert ratio == pytest.approx(1.0, abs=1e-9)


class TestQualityFactor:
    @pytest.mark.parametrize("name,rel", [
        ("rft30g", 0.01), ("fbar2g4", 0.01),
    ])
    def test_published(self, name, rel):
        assert quality_factor(get_resonator(name)) == pytest.approx(
            PUBLISHED_Q[name], rel=rel)

    def test_definitional_unity(self):
        res = Resonator(r_m=2.0 * math.pi * 1e6 * 1e-3, l_m=1e-3,
                        c_m=1.0 / ((2.0 * math.pi * 1e6) ** 2 * 1e-3), c_0=1e-9)
        assert quality_factor(res) == pytest.approx(1.0, rel=1e-9)

    def test_two_forms_agree(self):
        # omega_s*l_m/r_m vs 1/(omega_s*c_m*r_m)
        for res in BUILTIN_RESONATORS.values():
            ws = 2.0 * math.pi * series_resonance(res)
            alt = 1.0 / (ws * res.c_m * res.r_m)
            assert quality_factor(res) == pytest.approx(alt, rel=1e-9)


class TestCoupling:
    def test_rft(self, rft):
        assert coupling_coefficient(rft) == pytest.approx(1e-4, rel=1e-3)

    def test_quartz(self, quartz):
        assert coupling_coefficient(quartz) == pytest.approx(7.24e-4, rel=1e-3)


class TestImpedance:
    def test_capacitive_at_30g(self, rft):
        z = impedance(rft, 30.0e9)
        assert z.imag < 0

    def test_low_frequency_open(self, rft):
        assert abs(impedance(rft, 1.0)) > 1e9

    def test_series_branch_at_resonance(self, rft):
        # C0 shunting removed: motional branch alone reads r_m at f_s
        ym = motional_admittance(rft, series_resonance(rft))
        assert 1.0 / ym == pytest.approx(rft.r_m, abs=1e-9)

    def test_one_frequency_has_the_bits_of_the_array(self, rft):
        # one Python float and the matching entry of a grid through f_s
        fs = series_resonance(rft)
        grid = np.linspace(0.99 * fs, 1.01 * fs, 2001)
        zs = impedance(rft, grid)
        singles = [impedance(rft, float(f)) for f in grid]
        assert all(type(z) is complex for z in singles)
        assert sum(z != zs[i] for i, z in enumerate(singles)) == 0

    def test_rejects_nonpositive_frequency(self, rft):
        with pytest.raises(ValueError):
            impedance(rft, 0.0)
        with pytest.raises(ValueError):
            impedance(rft, -1e9)

    @pytest.mark.parametrize("f", [math.nan, math.inf])
    def test_rejects_non_finite_frequency(self, rft, f):
        with pytest.raises(ValueError, match="positive and finite"):
            impedance(rft, f)
        with pytest.raises(ValueError, match="positive and finite"):
            impedance(rft, np.array([29e9, f, 31e9]))
        with pytest.raises(ValueError, match="positive and finite"):
            static_reactance(rft, f)
        with pytest.raises(ValueError, match="positive and finite"):
            check_frequency([1.0, f])

    def test_detuning_cancellation_safe(self, rft):
        fs = series_resonance(rft)
        # one millihertz off a 30 GHz carrier still resolves
        d = float(motional_detuning(rft, fs + 1e-3))
        assert d == pytest.approx(2e-3 / fs, rel=1e-6)
        assert float(motional_detuning(rft, fs)) == 0.0

    def test_vector_matches_scalar(self, rft):
        grid = np.array([29.9e9, 30.0e9, 30.1e9])
        zs = impedance(rft, grid)
        for f, z in zip(grid, zs):
            assert z == impedance(rft, float(f))


class TestPhase:
    def test_rft_never_crosses_zero(self, rft):
        grid = np.linspace(29.5e9, 30.5e9, 20001)
        p = phase(rft, grid)
        assert np.all(p < 0)
        assert np.median(p) < -80  # mostly hugging -90 degrees

    def test_quartz_crosses_twice(self, quartz):
        lo = 0.999 * series_resonance(quartz)
        hi = 1.001 * parallel_resonance(quartz)
        p = phase(quartz, np.linspace(lo, hi, 20001))
        crossings = np.count_nonzero(np.sign(p[:-1]) != np.sign(p[1:]))
        assert crossings == 2

    def test_dc_limit_capacitive(self, rft):
        assert phase(rft, 1e3) == pytest.approx(-90.0, abs=1e-3)

    def test_equals_arg_of_impedance(self, rft):
        grid = np.linspace(29.9e9, 30.1e9, 101)
        expected = np.degrees(np.angle(impedance(rft, grid)))
        assert np.allclose(phase(rft, grid), expected, atol=0)

    def test_wrapped_range(self, quartz):
        p = phase(quartz, np.linspace(1e6, 100e6, 999))
        assert np.all(p > -180.0) and np.all(p <= 180.0)


class TestStaticReactance:
    def test_rft_table_value(self, rft):
        assert static_reactance(rft, 30e9) == pytest.approx(331.0, rel=0.01)

    def test_quartz_table_value(self, quartz):
        assert static_reactance(quartz, 45e6) == pytest.approx(884.0, rel=0.01)

    def test_unit(self):
        f = 1e6
        res = Resonator(r_m=1, l_m=1e-3, c_m=1e-18,
                        c_0=1.0 / (2.0 * math.pi * f))
        assert static_reactance(res, f) == pytest.approx(1.0, rel=1e-12)

    def test_strictly_decreasing_in_f(self, rft):
        grid = np.linspace(1e9, 60e9, 200)
        x = static_reactance(rft, grid)
        assert np.all(np.diff(x) < 0)


class TestSweep:
    def test_linear_grid(self, rft):
        resp = sweep(rft, 29e9, 31e9, 5)
        assert len(resp) == 5
        assert resp.frequencies[0] == 29e9
        assert resp.frequencies[-1] == 31e9

    def test_log_grid(self, rft):
        resp = sweep(rft, 1e9, 100e9, 3, log=True)
        assert resp.frequencies[1] == pytest.approx(10e9, rel=1e-9)

    def test_rejects_bad_window(self, rft):
        with pytest.raises(ValueError):
            sweep(rft, 2e9, 1e9, 10)
        with pytest.raises(ValueError):
            sweep(rft, 1e9, 2e9, 1)

    @pytest.mark.parametrize("log", [False, True])
    def test_points_are_the_grid_and_impedance_bits(self, rft, log):
        resp = sweep(rft, 29.9e9, 30.1e9, 201, log=log)
        freqs = grid(29.9e9, 30.1e9, 201, log)
        assert resp.frequencies.tolist() == freqs
        assert resp.values.tolist() == [impedance(rft, f) for f in freqs]

    def test_rejects_a_grid_beyond_the_float_range(self, rft):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows the float range"):
                sweep(rft, 1.7976931348623155e308, 1.7976931348623157e308, 5, log=True)


def _hex(values):
    return [float(v).hex() for v in values]


class TestGrid:
    """`grid` against numpy, which serves here only as the reference."""

    def test_linear_has_the_bits_of_linspace(self):
        rng = random.Random(2024)
        cases = [(1.0, 2.0, 1), (-3.0, 3.0, 2), (5.0, -5.0, 7), (0.0, 0.0, 4),
                 (-0.0, 0.0, 3), (1e-3, 1e-3, 5),
                 # steps that underflow to 0 take numpy's i/div*span fallback
                 (0.0, 5e-324, 3), (0.0, 1e-322, 1000), (-2e-323, 3e-323, 77),
                 (1e-310, 1.00000000001e-310, 5000)]
        for _ in range(3000):
            sign = rng.choice((-1.0, 1.0))
            start = sign * 10.0 ** rng.uniform(-300, 300)
            stop = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)
            if rng.random() < 0.2:          # a narrow window around start
                stop = start * (1 + rng.uniform(-1e-12, 1e-12))
            cases.append((start, stop, rng.choice((1, 2, 3, rng.randint(1, 400)))))
        assert sum(1 for a, b, n in cases if n > 1 and (b - a) / (n - 1) == 0
                   and a != b) >= 4
        for start, stop, points in cases:
            values = grid(start, stop, points)
            assert {type(v) for v in values} == {float}
            assert _hex(values) == _hex(np.linspace(start, stop, points)), (start, stop,
                                                                            points)

    def test_log_keeps_its_endpoints_and_tracks_geomspace(self):
        rng = random.Random(2025)
        worst = 0.0
        for _ in range(3000):
            start = 10.0 ** rng.uniform(-300, 300)
            stop = start * 10.0 ** rng.uniform(-8, 8)          # reversed when below
            if not 0 < stop < math.inf:
                continue
            points = rng.choice((1, 2, 3, rng.randint(1, 400)))
            values = grid(start, stop, points, log=True)
            assert values[0] == start and values[-1] == (stop if points > 1 else start)
            reference = np.geomspace(start, stop, points).tolist()
            # numpy's log10 and power each round their own way: a unit in
            # the last place of the log10 endpoints is ln(10)*eps*|log10|
            scale = math.log(10) * 2**-52 * max(abs(math.log10(start)),
                                                abs(math.log10(stop)), 1)
            worst = max(worst, max(abs(v - r) / r for v, r in zip(values, reference))
                        / scale)
        assert worst <= 2

    def test_log_frequency_grids_lie_within_1e_14_of_geomspace(self):
        rng = random.Random(2026)
        for _ in range(2000):
            start = 10.0 ** rng.uniform(0, 11)
            stop = start * 10.0 ** rng.uniform(-1, 1)
            points = rng.randint(3, 400)
            values = grid(start, stop, points, log=True)
            reference = np.geomspace(start, stop, points)
            assert max(abs(v - r) / r for v, r in zip(values, reference)) <= 1e-14

    @pytest.mark.parametrize("start, stop, points, log", [
        (1.7976931348623155e308, 1.7976931348623157e308, 5, True),  # 10**y overflows
        (-1.7e308, 1.7e308, 3, False),                               # stop - start does
        (1.0, math.inf, 3, True),
        (math.nan, 1.0, 3, False),
        (math.inf, math.inf, 1, False),
        (10**400, 10**401, 2, False),                                # beyond float()
    ])
    def test_beyond_the_float_range_is_a_value_error(self, start, stop, points, log):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"a grid of {points} points from .* "
                                                 "overflows the float range"):
                grid(start, stop, points, log)

    @pytest.mark.parametrize("start, stop, points", [(-1.0, 1.0, 3), (0.0, 0.0, 1),
                                                     (1.0, 0.0, 2), (math.nan, 1.0, 3)])
    def test_log_needs_positive_endpoints(self, start, stop, points):
        with pytest.raises(ValueError, match=f"^a log grid of {points} points from .* "
                                             "needs positive and finite endpoints$"):
            grid(start, stop, points, log=True)

    def test_edges_of_the_float_range_that_fit(self):
        tiny = 5e-324
        assert grid(tiny, 1.7976931348623157e308, 2, log=True) == [
            tiny, 1.7976931348623157e308]
        assert grid(-1e308, 1e308, 1) == [-1e308]
        assert grid(-8e307, 8e307, 3) == [-8e307, 0.0, 8e307]


@st.composite
def resonators(draw):
    r_m = draw(st.floats(min_value=0.1, max_value=1e4))
    l_m = draw(st.floats(min_value=1e-9, max_value=1e-2))
    c_m = draw(st.floats(min_value=1e-18, max_value=1e-13))
    c_0 = draw(st.floats(min_value=1e-15, max_value=1e-10))
    if not c_m / c_0 < 1:
        c_0 = c_m * draw(st.floats(min_value=10.0, max_value=1e4))
    return Resonator(r_m=r_m, l_m=l_m, c_m=c_m, c_0=c_0)


@settings(max_examples=200, deadline=None)
@given(resonators(), st.floats(min_value=0.5, max_value=1.5))
def test_property_parallel_at_least_series(res, scale):
    assert parallel_resonance(res) >= series_resonance(res)
    f = scale * series_resonance(res)
    z = impedance(res, f)
    assert math.isfinite(z.real) and math.isfinite(z.imag)
    # passivity of the analytic form
    assert z.real >= -1e-9


def test_bandwidth_is_fs_over_q(rft):
    assert motional_bandwidth(rft) == pytest.approx(
        series_resonance(rft) / quality_factor(rft), rel=1e-12)
