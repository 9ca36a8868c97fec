import cmath
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memsosc import (
    Netlist,
    NetlistError,
    ac_sweep,
    driving_point_impedance,
    format_netlist,
    impedance,
    lint_netlist,
    parse_netlist,
)
from memsosc.fixtures import get_resonator
from memsosc.mna import (
    E_ARITY,
    E_DANGLING,
    E_DIRECTIVE,
    E_DUP_NAME,
    E_KIND,
    E_NO_GROUND,
    E_NONPOSITIVE,
    E_NOT_CONNECTED,
    E_VALUE,
    MAX_AC_POINTS,
    Element,
    SingularCircuitError,
    _ac_grid,
    stamp,
)

from conftest import NETLIST_DIR
from mna_reference import build_system, reference_solution, reference_sweep, rounding_bound


def load(name: str) -> str:
    return (NETLIST_DIR / name).read_text()


GOOD_FILES = [
    "good_resistor.cir",
    "good_bvd_rft.cir",
    "good_series_lc.cir",
    "good_shunt_tank.cir",
    "good_divider.cir",
    "good_suffixes.cir",
]

BAD_FILES = {
    "bad_kind.cir": {E_KIND},
    "bad_value.cir": {E_VALUE},
    "bad_nonpositive.cir": {E_NONPOSITIVE},
    "bad_arity.cir": {E_ARITY},
    "bad_dup_name.cir": {E_DUP_NAME},
    "bad_directive.cir": {E_DIRECTIVE},
    "bad_dangling.cir": {E_DANGLING},
    "bad_no_ground.cir": {E_NO_GROUND},
    "bad_not_connected.cir": {E_NOT_CONNECTED},
}


class TestGoldenFiles:
    @pytest.mark.parametrize("name", GOOD_FILES)
    def test_good_files_lint_clean(self, name):
        assert lint_netlist(load(name)) == []

    @pytest.mark.parametrize("name,codes", sorted(BAD_FILES.items()))
    def test_bad_files_report_expected_codes(self, name, codes):
        diags = lint_netlist(load(name))
        assert codes <= {d.code for d in diags}

    def test_every_diagnostic_code_covered(self):
        seen = set()
        for name in BAD_FILES:
            seen |= {d.code for d in lint_netlist(load(name))}
        assert seen == {E_KIND, E_VALUE, E_NONPOSITIVE, E_ARITY, E_DUP_NAME,
                        E_DIRECTIVE, E_DANGLING, E_NO_GROUND, E_NOT_CONNECTED}

    def test_diagnostics_carry_position(self):
        diags = lint_netlist(load("bad_dup_name.cir"))
        dup = next(d for d in diags if d.code == E_DUP_NAME)
        assert dup.line == 2
        assert dup.column == 1


class TestParsing:
    def test_single_resistor(self):
        nl = parse_netlist("R1 1 0 332\n.probe 1 0\n")
        assert nl.elements == (Element("R", "R1", "1", "0", 332.0),)
        assert nl.probe == ("1", "0")

    def test_suffix_value(self):
        nl = parse_netlist("C1 1 0 16f\n.probe 1 0\n")
        assert nl.elements[0].value == pytest.approx(16e-15)

    def test_bvd_fixture_values(self):
        nl = parse_netlist(load("good_bvd_rft.cir"))
        by_name = {el.name: el for el in nl.elements}
        assert by_name["Rm"].value == 332.0
        assert by_name["Lm"].value == pytest.approx(17.59e-6)
        assert by_name["C0"].value == pytest.approx(16e-15)
        assert nl.ac == (5, 29.9e9, 30.1e9, "lin")

    def test_out_of_range_value_is_diagnosed(self):
        diags = lint_netlist("R1 1 0 1e999\n.ac lin 5 1 1e999\n.probe 1 0\n")
        assert {d.code for d in diags} == {E_VALUE, E_DIRECTIVE}

    def test_parse_raises_with_diagnostics(self):
        with pytest.raises(NetlistError) as err:
            parse_netlist("X1 1 0 5\n.probe 1 0\n")
        assert any(d.code == E_KIND for d in err.value.diagnostics)

    def test_comments_and_blanks_ignored(self):
        nl = parse_netlist("* header\n\nR1 1 0 5\n.probe 1 0\n")
        assert len(nl.elements) == 1


class TestRoundTrip:
    @pytest.mark.parametrize("name", GOOD_FILES)
    def test_golden_roundtrip(self, name):
        nl = parse_netlist(load(name))
        assert parse_netlist(format_netlist(nl)) == nl


KINDS = st.sampled_from("RLC")
NODE = st.integers(min_value=0, max_value=6).map(str)


def _grid_builds(ac) -> bool:
    try:
        _ac_grid(ac)
    except ValueError:
        return False
    return True


@st.composite
def netlists(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    elements = []
    prev = "0"
    for i in range(n):
        kind = draw(KINDS)
        # chain guarantees ground connectivity without dangling nodes
        node = draw(NODE) if draw(st.booleans()) else str(i + 1)
        value = draw(st.floats(min_value=1e-15, max_value=1e6,
                               allow_nan=False, allow_infinity=False))
        elements.append(Element(kind, f"{kind}{i}", prev, node, value))
        prev = node
    elements.append(Element("R", "Rterm", prev, "0", 50.0))
    ac = None
    if draw(st.booleans()):
        # fstart < fstop; endpoints too close to separate N > 1 floats
        # (fstart = 999999999.9999999, fstop = 1e9) are diagnosed errors
        ac = (draw(st.integers(min_value=1, max_value=50)),
              draw(st.floats(min_value=1.0, max_value=1e9, exclude_max=True)),
              draw(st.floats(min_value=1e9, max_value=1e12)),
              draw(st.sampled_from(["lin", "log"])))
        assume(_grid_builds(ac))
    probe = ("0", elements[0].node_b)
    return Netlist(tuple(elements), ac, probe)


@settings(max_examples=500, deadline=None)
@given(netlists())
def test_property_roundtrip(nl):
    assert parse_netlist(format_netlist(nl)) == nl


class TestSolving:
    def test_resistor_flat(self):
        nl = parse_netlist(load("good_resistor.cir"))
        for f in (1e3, 1e6, 1e9):
            assert driving_point_impedance(nl, f) == pytest.approx(332.0)

    def test_lossless_series_lc_short_at_resonance(self):
        nl = parse_netlist(load("good_series_lc.cir"))
        fs = 1.0 / (2.0 * math.pi * math.sqrt(17.59e-6 * 1.6e-18))
        assert abs(driving_point_impedance(nl, fs)) < 1e-6

    def test_divider_dc_limit(self):
        nl = parse_netlist(load("good_divider.cir"))
        # at low f the capacitor opens: R1 dangles, R2 alone remains
        z = driving_point_impedance(nl, 1e-2)
        assert z.real == pytest.approx(2000.0, rel=1e-6)

    def test_bvd_matches_analytic(self, rft):
        nl = parse_netlist(load("good_bvd_rft.cir"))
        for f in (29.9e9, 30.0e9, 30.1e9):
            oracle = driving_point_impedance(nl, f)
            analytic = impedance(rft, f)
            assert cmath.isclose(oracle, analytic, rel_tol=1e-9)

    def test_parallel_rlc_closed_form(self):
        text = ("R1 t 0 100\nL1 t 0 10n\nC1 t 0 1p\n.probe t 0\n")
        nl = parse_netlist(text)
        f = 3.7e9
        w = 2.0 * math.pi * f
        y = 1.0 / 100.0 + 1.0 / (1j * w * 10e-9) + 1j * w * 1e-12
        assert cmath.isclose(driving_point_impedance(nl, f), 1.0 / y,
                             rel_tol=1e-12)

    # Exactly singular systems need the admittance cancellation to land on
    # a float zero: a 1 H || 1 F trap at f = 1/(2*pi) gives w == 1.0 and
    # wC - 1/(wL) == 0.0 bit-exactly.
    TRAP_F = 1.0 / (2.0 * math.pi)

    def test_singular_raises(self):
        trap = parse_netlist("L1 a 0 1\nC1 a 0 1\n.probe a 0\n")
        assert 2.0 * math.pi * self.TRAP_F == 1.0  # construction premise
        with pytest.raises(SingularCircuitError):
            driving_point_impedance(trap, self.TRAP_F)

    def test_sweep_gap_markers(self):
        text = (f"L1 a 0 1\nC1 a 0 1\n"
                f".ac lin 1 {self.TRAP_F!r} {self.TRAP_F!r}\n"
                f".probe a 0\n")
        resp = ac_sweep(parse_netlist(text))
        assert np.all(np.isnan(resp.values.real))

    # Powers of two keep the cancellation exact away from w = 1: a 2**-20 H
    # || 2**-20 F trap resonates at w = 2**20, and TWO_PI * (2**20 / TWO_PI)
    # == 2**20 whenever TWO_PI * (1 / TWO_PI) == 1.
    POW2_TRAP = "L1 a 0 9.5367431640625e-07\nC1 a 0 9.5367431640625e-07\n"
    POW2_F = 2.0 ** 20 / (2.0 * math.pi)

    def test_sweep_gap_only_at_singular_point(self):
        text = self.POW2_TRAP + f".ac lin 7 {self.POW2_F / 4!r} {self.POW2_F!r}\n.probe a 0\n"
        nl = parse_netlist(text)
        assert 2.0 * math.pi * nl.ac[2] == 2.0 ** 20   # construction premise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resp = ac_sweep(nl)
            with pytest.raises(SingularCircuitError):
                driving_point_impedance(nl, nl.ac[2])
        assert np.isnan(resp.values).tolist() == [False] * 6 + [True]
        w = 2.0 * math.pi * resp.frequencies[:-1]
        expected = 1.0 / (1j * w * 2.0 ** -20 + 1.0 / (1j * w * 2.0 ** -20))
        assert np.allclose(resp.values[:-1], expected, rtol=1e-12, atol=0)

    def test_singular_pivot_ahead_of_other_nodes(self):
        # node "a" sorts first and floats at resonance: the zero pivot comes
        # at the first step, with the well-posed b-c network still to go
        text = ("L1 a 0 1\nC1 a 0 1\nR1 b 0 50\nR2 b c 10\nC2 c 0 1\n"
                f".ac log 3 {self.TRAP_F / 4!r} {self.TRAP_F!r}\n.probe b 0\n")
        nl = parse_netlist(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resp = ac_sweep(nl)
            with pytest.raises(SingularCircuitError):
                driving_point_impedance(nl, self.TRAP_F)
        assert np.isnan(resp.values).tolist() == [False, False, True]
        assert np.allclose(resp.values[:2], reference_sweep(nl, resp.frequencies[:2]),
                           rtol=1e-12, atol=0)

    def test_sweep_grids(self):
        nl = parse_netlist("R1 1 0 50\n.ac log 3 1meg 100meg\n.probe 1 0\n")
        resp = ac_sweep(nl)
        assert resp.frequencies[1] == pytest.approx(10e6, rel=1e-9)
        assert np.allclose(resp.values, 50.0)

    def test_matrix_symmetric(self):
        nl = parse_netlist(load("good_shunt_tank.cir"))
        st = stamp(nl)
        n = len(st.index)
        assert st.planes.shape == (3, n + 1, n + 1)
        for plane in st.planes:          # G, C and Gamma, probe-bordered
            assert np.array_equal(plane, plane.T)
        # the stamped planes rebuild the per-frequency admittance matrix
        y, rhs, index = build_system(nl, 30e9)
        jw = 2j * math.pi * 30e9
        g, c, gamma = st.planes[:, :n, :n]
        scale = np.abs(g) + np.abs(jw * c) + np.abs(gamma / jw)
        assert np.all(np.abs(g + jw * c + gamma / jw - y) <= 4e-16 * scale)
        assert np.array_equal(st.planes[0, :n, n], rhs.real)
        assert st.index == index

    def test_aligned_tank_sweep_single_dominant_region(self):
        nl = parse_netlist(load("good_shunt_tank.cir"))
        resp = ac_sweep(nl)
        mags = resp.magnitude()
        # aligned: one merged resonance region, no separated second peak
        peak = int(np.argmax(mags))
        assert 29.5e9 < resp.frequencies[peak] < 30.5e9


@st.composite
def random_rlc(draw):
    kinds = draw(st.lists(KINDS, min_size=1, max_size=6))
    elements = []
    for i, kind in enumerate(kinds):
        lo, hi = {"R": (0.1, 1e5), "L": (1e-12, 1e-3),
                  "C": (1e-16, 1e-6)}[kind]
        value = draw(st.floats(min_value=lo, max_value=hi))
        a = str(draw(st.integers(min_value=0, max_value=3)))
        b = str(draw(st.integers(min_value=0, max_value=3)))
        if a == b:
            b = str((int(a) + 1) % 4)
        elements.append(Element(kind, f"{kind}{i}", a, b, value))
    elements.append(Element("R", "Rg", "1", "0", 1e3))
    return Netlist(tuple(elements), None, ("1", "0"))


@settings(max_examples=300, deadline=None)
@given(random_rlc(), st.floats(min_value=1e3, max_value=1e11))
def test_property_passivity(nl, f):
    try:
        z = driving_point_impedance(nl, f)
    except SingularCircuitError:
        return
    assert z.real >= -1e-9


def _grids():
    return st.tuples(st.integers(min_value=1, max_value=40),
                     st.floats(min_value=1e3, max_value=1e9),
                     st.floats(min_value=1.01, max_value=1e2),
                     st.sampled_from(["lin", "log"])).map(
        lambda t: (t[0], t[1], t[1] * t[2], t[3]))


def _agrees(z, f, nl):
    """z matches the per-frequency reference at f: to 1e-10 relative, or
    within the reference's own rounding bound where Y is ill-conditioned."""
    ref, y, v = reference_solution(nl, f)
    return abs(z - ref) <= max(1e-10 * abs(ref), rounding_bound(y, v))


@settings(max_examples=300, deadline=None)
@given(random_rlc(), _grids())
def test_property_sweep_matches_reference(nl, ac):
    """The batched solve finds the per-frequency solver's singular points
    and agrees with it on every other point."""
    nl = replace(nl, ac=ac)
    resp = ac_sweep(nl)
    ref = reference_sweep(nl, resp.frequencies)
    assert np.array_equal(np.isnan(resp.values), np.isnan(ref))
    for f, z in zip(resp.frequencies[~np.isnan(ref)], resp.values[~np.isnan(ref)]):
        assert _agrees(z, f, nl)


@settings(max_examples=300, deadline=None)
@given(random_rlc(), st.floats(min_value=1e3, max_value=1e11))
def test_property_point_matches_reference(nl, f):
    try:
        reference_solution(nl, f)
    except SingularCircuitError:
        with pytest.raises(SingularCircuitError):
            driving_point_impedance(nl, f)
        return
    assert _agrees(driving_point_impedance(nl, f), f, nl)


class TestBounds:
    def test_huge_ac_grid_is_diagnosed(self):
        text = "R1 1 0 50\n.ac lin 1000000000 1 2\n.probe 1 0\n"
        diags = lint_netlist(text)
        assert [d.code for d in diags] == [E_DIRECTIVE]
        assert "1000000000" in diags[0].message
        with pytest.raises(NetlistError):
            parse_netlist(text)

    def test_largest_ac_grid_parses(self):
        text = f"R1 1 0 50\n.ac log {MAX_AC_POINTS} 1 2\n.probe 1 0\n"
        assert parse_netlist(text).ac[0] == MAX_AC_POINTS

    @pytest.mark.parametrize("spacing", ["lin", "log"])
    def test_equal_endpoints_need_a_single_point(self, spacing):
        # three points from 1k to 1k would make a grid that is not increasing
        text = f"R1 1 0 50\n.ac {spacing} 3 1k 1k\n.probe 1 0\n"
        diags = lint_netlist(text)
        assert [(d.code, d.line) for d in diags] == [(E_DIRECTIVE, 2)]
        with pytest.raises(NetlistError):
            parse_netlist(text)
        nl = parse_netlist(f"R1 1 0 50\n.ac {spacing} 1 1k 1k\n.probe 1 0\n")
        assert nl.ac == (1, 1e3, 1e3, spacing)
        resp = ac_sweep(nl)
        assert resp.frequencies.tolist() == [1e3]
        assert resp.values.tolist() == [50.0]

    @pytest.mark.parametrize("spacing", ["lin", "log"])
    def test_unresolvable_grid_is_diagnosed(self, spacing):
        # 1000 points between adjacent floats repeat values
        text = f"R1 a 0 1\n.ac {spacing} 1000 1 1.0000000000000002\n.probe a 0\n"
        diags = lint_netlist(text)
        assert [(d.code, d.line) for d in diags] == [(E_DIRECTIVE, 2)]
        assert "not strictly increasing" in diags[0].message
        with pytest.raises(NetlistError):
            parse_netlist(text)
        nl = parse_netlist(f"R1 a 0 1\n.ac {spacing} 2 1 1.0000000000000002\n.probe a 0\n")
        assert ac_sweep(nl).frequencies.tolist() == [1.0, 1.0000000000000002]
        with pytest.raises(ValueError, match="not strictly increasing"):
            ac_sweep(replace(nl, ac=(1000, 1.0, 1.0000000000000002, spacing)))

    def test_sweep_refuses_huge_grid_built_directly(self):
        nl = parse_netlist("R1 1 0 50\n.probe 1 0\n")
        with pytest.raises(ValueError):
            ac_sweep(replace(nl, ac=(10 ** 9, 1.0, 2.0, "lin")))

    @pytest.mark.parametrize("f", [0.0, -1.0, math.inf, math.nan])
    def test_point_rejects_bad_frequency(self, f):
        nl = parse_netlist("R1 1 0 50\n.probe 1 0\n")
        with pytest.raises(ValueError):
            driving_point_impedance(nl, f)

    def test_long_sweep_memory_is_bounded(self):
        lines = []
        for k in range(1, 21):
            lines.append(f"C{k} {k} 0 1p")
            lines.append(f"R{k} {k} {k + 1} 100" if k < 20 else f"R{k} {k} 0 1k")
        lines += [".ac log 20000 1meg 10g", ".probe 1 0"]
        nl = parse_netlist("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            resp = ac_sweep(nl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(resp) == 20000 and not np.isnan(resp.values).any()
        assert peak < 64 * 2 ** 20
