import cmath
import math
import random
import time
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
from memsosc import mna
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

import mna_reference
from conftest import NETLIST_DIR
from mna_reference import (
    build_system,
    frequency_major_solve,
    reference_order,
    reference_solution,
    reference_sweep,
    rounding_bound,
)


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
        planes = st.dense()
        assert planes.shape == (3, n + 1, n + 1)
        for plane in planes:             # G, C and Gamma, probe-bordered
            assert np.array_equal(plane, plane.T)
        # the stamped planes rebuild the per-frequency admittance matrix
        # that the reference builds element by element
        y, rhs, index = build_system(nl, 30e9)
        assert st.index.keys() == index.keys()
        rows = [st.index[node] for node in index]
        jw = 2j * math.pi * 30e9
        g, c, gamma = planes[:, rows][:, :, rows]
        scale = np.abs(g) + np.abs(jw * c) + np.abs(gamma / jw)
        assert np.all(np.abs(g + jw * c + gamma / jw - y) <= 4e-16 * scale)
        assert np.array_equal(planes[0, rows, n], rhs.real)

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

    @pytest.mark.parametrize("ac", [
        (3, -1.0, 1.0, "lin"), (3, 0.0, 1.0, "lin"), (1, -1.0, -1.0, "lin"),
        (1, 0.0, 0.0, "lin"), (3, math.nan, 1.0, "lin"), (3, 1.0, math.inf, "log"),
        (3, -1.0, 1.0, "log"), (1, 0.0, 0.0, "log"),
        # 2*pi*f overflows, or 1/(2*pi*f) does
        (3, 1.0, 1e308, "lin"), (1, 1e308, 1e308, "lin"), (3, 5e-324, 1.0, "log")])
    def test_sweep_refuses_bad_grid_built_directly(self, ac):
        nl = parse_netlist("R1 1 0 50\n.probe 1 0\n")
        with pytest.raises(ValueError, match="positive and finite|float range"):
            ac_sweep(replace(nl, ac=ac))

    @pytest.mark.parametrize("ac", ["lin 3 1 1e308", "lin 1 1e308 1e308", "log 3 5e-324 1"])
    def test_frequency_beyond_the_float_range_is_diagnosed(self, ac):
        text = f"R1 1 0 50\n.ac {ac}\n.probe 1 0\n"
        diags = lint_netlist(text)
        assert [(d.code, d.line) for d in diags] == [(E_DIRECTIVE, 2)]
        assert "1/(2*pi*f) beyond the float range" in diags[0].message
        with pytest.raises(NetlistError):
            parse_netlist(text)

    def test_sweep_refuses_huge_grid_built_directly(self):
        nl = parse_netlist("R1 1 0 50\n.probe 1 0\n")
        with pytest.raises(ValueError):
            ac_sweep(replace(nl, ac=(10 ** 9, 1.0, 2.0, "lin")))

    @pytest.mark.parametrize("f", [0.0, -1.0, math.inf, math.nan, 1e308, 5e-324])
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


def ladder(nodes: int, ac: str, *, rlc: bool = True, seed: int = 0) -> str:
    """Series R (RC) or L (RLC) between nodes "1".."nodes", shunt C (and R)
    to ground at each, probed at "1".  The names sort out of order ("1",
    "10", "11", ..., "2"), so sorted rows would give a bandwidth near n."""
    rng = random.Random(seed)
    lines = []
    for k in range(1, nodes + 1):
        lines.append(f"C{k} {k} 0 {10 ** rng.uniform(-13, -11)!r}")
        if rlc or k == nodes:
            lines.append(f"RS{k} {k} 0 {10 ** rng.uniform(2, 4)!r}")
        if k < nodes:
            value = 10 ** rng.uniform(-9, -7) if rlc else 10 ** rng.uniform(1, 3)
            lines.append(f"{'L' if rlc else 'R'}{k} {k} {k + 1} {value!r}")
    return "\n".join(lines + [ac, ".probe 1 0"]) + "\n"


def wide_band_netlist() -> Netlist:
    """Every node joined to every other: bandwidth 5, past the Python
    route, so one frequency goes through the batched LU."""
    lines = [f"R{i} {i} 0 {10 * i}" for i in range(1, 7)]
    lines += [f"C{i}{j} {i} {j} {i * j}p" for i in range(1, 7) for j in range(i + 1, 7)]
    return parse_netlist("\n".join(lines) + "\n.probe 1 0\n")


def overflowing_rows_netlist() -> tuple[Netlist, float]:
    """A narrow netlist and a frequency whose row sums are NaN.

    At w = 2**20 node b's trap cancels to an exact zero pivot, and at node
    a w C overflows against an infinite 1/L, so a's row sum and the
    threshold are NaN: no point is singular by the rule and the batched LU
    runs on into NaN.  One frequency stays with it instead of dividing by
    the zero pivot in Python.
    """
    w = 2.0 ** 20
    f = w / (2.0 * math.pi)
    assert 2.0 * math.pi * f == w   # construction premise
    nl = parse_netlist(f"C1 a 0 1e305\nL1 a 0 1e-320\nL2 b 0 {2.0 ** -20!r}\n"
                       f"C2 b 0 {2.0 ** -20!r}\n.ac lin 2 {f!r} {2 * f!r}\n.probe a 0\n")
    return nl, f


# a lossless 2**-34 H || 2**-34 F trap on its own node: at w = 2**34 its
# admittance cancels to an exact zero and the system is singular
TRAP_W = 2.0 ** 34
TRAP = "LT x 0 5.820766091346741e-11\nCT x 0 5.820766091346741e-11\n"


class TestBanded:
    def test_reverse_cuthill_mckee_order(self):
        nl = parse_netlist(ladder(12, ".ac log 5 1meg 1g"))
        stamped = stamp(nl)
        # the search runs border, "1", "2", ..., "12"; reversed, "12" leads
        assert list(stamped.index) == [str(k) for k in range(12, 0, -1)]
        assert stamped.bandwidth == 1
        # a node with no path to the border goes first
        text = "L1 a 0 1\nC1 a 0 1\nR1 b 0 50\nR2 b c 10\nC2 c 0 1\n.probe b 0\n"
        stamped = stamp(parse_netlist(text))
        assert list(stamped.index) == ["a", "c", "b"]
        assert stamped.bandwidth == 1

    @pytest.mark.parametrize("nodes", [12, 25])
    @pytest.mark.parametrize("rlc", [False, True])
    def test_out_of_order_ladder_matches_reference(self, nodes, rlc):
        f_trap = TRAP_W / (2.0 * math.pi)
        assert 2.0 * math.pi * f_trap == TRAP_W   # construction premise
        ac = f".ac lin 40 {f_trap / 100!r} {f_trap!r}"
        nl = parse_netlist(ladder(nodes, ac, rlc=rlc, seed=nodes) + TRAP)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resp = ac_sweep(nl)
        ref = reference_sweep(nl, resp.frequencies)
        assert np.isnan(resp.values).tolist() == [False] * 39 + [True]
        assert np.array_equal(np.isnan(resp.values), np.isnan(ref))
        for f, z in zip(resp.frequencies[:-1], resp.values[:-1]):
            assert _agrees(z, f, nl)
        assert stamp(nl).bandwidth == 1

    def test_long_ladder_sweeps_in_bounded_time(self):
        # the dense LU took about 3 s for this
        nl = parse_netlist(ladder(200, ".ac log 200 10meg 10g"))
        start = time.perf_counter()
        resp = ac_sweep(nl)
        assert time.perf_counter() - start < 1.0
        assert not np.isnan(resp.values).any()
        for i in (0, 100, 199):
            assert _agrees(resp.values[i], resp.frequencies[i], nl)

    def test_long_ladder_memory_is_bounded(self):
        nl = parse_netlist(ladder(200, ".ac log 20000 1meg 10g", rlc=False))
        tracemalloc.start()
        try:
            resp = ac_sweep(nl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(resp) == 20000 and not np.isnan(resp.values).any()
        assert peak < 64 * 2 ** 20

    def test_over_budget_netlist_is_diagnosed(self):
        text = ladder(1000, f".ac log {MAX_AC_POINTS} 1meg 1g")
        ac_line = text.splitlines().index(f".ac log {MAX_AC_POINTS} 1meg 1g") + 1
        # 1000 nodes * (10**6 points * (1 + 1)**2 + 62,500 blocks of 16 points
        # * 300 per step) = 2.275e10
        message = ("1000000 points on 1000 nodes of bandwidth 1 need 2.28e+10 "
                   "band operations, over the limit of 1e+09")
        diags = lint_netlist(text)
        assert [(d.code, d.line, d.column, d.message) for d in diags] == [
            (E_DIRECTIVE, ac_line, 1, message)]
        with pytest.raises(NetlistError):
            parse_netlist(text)
        # built by hand, the same netlist is refused before any solving
        nl = parse_netlist(ladder(1000, ".ac log 200 1meg 1g"))
        with pytest.raises(ValueError) as err:
            ac_sweep(replace(nl, ac=(MAX_AC_POINTS, 1e6, 1e9, "log")))
        assert str(err.value) == message

    def test_work_limit_without_ac_is_reported_at_the_probe(self, monkeypatch):
        text = "R1 1 0 50\nR2 1 2 50\nR3 2 0 50\n  .probe 1 0\n"
        nl = parse_netlist(text)
        monkeypatch.setattr(mna, "MAX_SOLVE_WORK", 600)
        message = ("1 points on 2 nodes of bandwidth 1 need 608 band operations, "
                   "over the limit of 600")
        assert [(d.code, d.line, d.column, d.message) for d in lint_netlist(text)] == [
            (E_DIRECTIVE, 4, 3, message)]
        with pytest.raises(ValueError) as err:
            driving_point_impedance(nl, 1e3)
        assert str(err.value) == message

    def test_large_ladders_are_inside_the_limit(self):
        assert lint_netlist(ladder(1000, ".ac log 200 1meg 1g")) == []
        assert lint_netlist(ladder(200, ".ac log 20000 1meg 10g")) == []

    def test_grid_and_ordering_are_built_once(self, monkeypatch):
        counts = {"grid": 0, "ordering": 0}
        real_grid, real_ordering = mna._ac_grid, mna._Ordering

        def grid(ac):
            counts["grid"] += 1
            return real_grid(ac)

        def ordering(*args):
            counts["ordering"] += 1
            return real_ordering(*args)

        monkeypatch.setattr(mna, "_ac_grid", grid)
        monkeypatch.setattr(mna, "_Ordering", ordering)
        nl = parse_netlist(ladder(5, ".ac log 20 1meg 1g"))
        first = ac_sweep(nl)
        driving_point_impedance(nl, 1e8)
        again = ac_sweep(nl)
        assert counts == {"grid": 1, "ordering": 1}
        assert np.array_equal(first.values, again.values)
        # the response owns its grid: writing to it leaves the netlist's alone
        first.frequencies[0] = 1.0
        assert ac_sweep(nl).frequencies[0] == 1e6
        # replace() derives afresh, and equality and hashing ignore the caches
        moved = replace(nl, ac=(3, 1e3, 1e4, "lin"))
        assert ac_sweep(moved).frequencies.tolist() == [1e3, 5.5e3, 1e4]
        assert counts == {"grid": 2, "ordering": 2}
        assert parse_netlist(format_netlist(nl)) == nl
        assert hash(parse_netlist(format_netlist(nl))) == hash(nl)

    def test_wide_band_point_matches_reference(self):
        nl = wide_band_netlist()
        assert stamp(nl).bandwidth > mna._POINT_BANDWIDTH
        for f in (1e6, 1e8, 1e10):
            assert _agrees(driving_point_impedance(nl, f), f, nl)

    def test_point_with_overflowing_rows_matches_sweep(self):
        nl, f = overflowing_rows_netlist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(ac_sweep(nl).values).all()
            assert cmath.isnan(driving_point_impedance(nl, f))


@settings(max_examples=300, deadline=None)
@given(random_rlc(), st.floats(min_value=1e3, max_value=1e11))
def test_property_point_route_matches_batched(nl, f):
    """One frequency of a narrow band is eliminated in Python complex
    arithmetic: it finds the batched LU's singular points and agrees with
    it to rounding elsewhere."""
    stamped = stamp(nl)
    assert stamped.bandwidth <= mna._POINT_BANDWIDTH
    w = 2.0 * math.pi * f
    one = mna._solve_point(nl, w)
    one_singular = one is None
    batched, singular = mna._solve(stamped, np.array([w, w]))
    assert one_singular == singular[0]
    if not one_singular:
        _, y, v = reference_solution(nl, f)
        assert abs(one - batched[0]) <= max(1e-12 * abs(batched[0]), rounding_bound(y, v))


class _BlockedNumpy:
    """Stands in for numpy in `mna`: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


class TestPointRoute:
    """One frequency of a narrow band (b <= 3) is solved in Python floats
    from stamp to corner; a wider band, or row sums that overflow, go to
    the batched LU."""

    @staticmethod
    def count_eliminations(monkeypatch) -> list:
        calls = []
        real = mna._eliminate

        def counting(a, b):
            calls.append(a.shape[-1])     # frequencies lie along the last axis
            return real(a, b)

        monkeypatch.setattr(mna, "_eliminate", counting)
        return calls

    def test_narrow_point_calls_no_numpy(self, monkeypatch):
        calls = self.count_eliminations(monkeypatch)
        points = [(parse_netlist(load(name)), f) for name, f in
                  [("good_bvd_rft.cir", 30e9), ("good_shunt_tank.cir", 30e9),
                   ("good_resistor.cir", 1e6), ("good_divider.cir", 1e-2)]]
        points.append((parse_netlist(ladder(12, ".ac log 5 1meg 1g")), 1e8))
        trap = parse_netlist("L1 a 0 1\nC1 a 0 1\n.probe a 0\n")
        expected = [driving_point_impedance(nl, f) for nl, f in points]
        assert all(stamp(nl).bandwidth <= mna._POINT_BANDWIDTH for nl, _ in points)
        monkeypatch.setattr(mna, "np", _BlockedNumpy())
        assert [driving_point_impedance(nl, f) for nl, f in points] == expected
        with pytest.raises(SingularCircuitError):
            driving_point_impedance(trap, TestSolving.TRAP_F)
        assert calls == []

    def test_wide_and_overflowing_points_reach_the_batched_lu(self, monkeypatch):
        calls = self.count_eliminations(monkeypatch)
        driving_point_impedance(wide_band_netlist(), 1e8)
        assert calls == [1]
        nl, f = overflowing_rows_netlist()
        assert stamp(nl).bandwidth <= mna._POINT_BANDWIDTH
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cmath.isnan(driving_point_impedance(nl, f))
        assert calls == [1, 1]


def _one_point_sweep_is_the_point(nl: Netlist, f: float) -> None:
    """A `.ac lin 1 f f` sweep holds the bits driving_point_impedance
    returns at f, or NaN exactly where it raises SingularCircuitError."""
    values = ac_sweep(replace(nl, ac=(1, f, f, "lin"))).values
    try:
        z = driving_point_impedance(nl, f)
    except SingularCircuitError:
        assert np.isnan(values.real).all() and np.isnan(values.imag).all()
        return
    assert values.view(np.uint64).tolist() == np.array([z]).view(np.uint64).tolist()


@pytest.mark.parametrize("text, f", [
    (load("good_bvd_rft.cir"), 30e9),
    (load("good_shunt_tank.cir"), 29.97e9),
    ("L1 a 0 1\nC1 a 0 1\n.probe a 0\n", TestSolving.TRAP_F),
    ("L1 a 0 1\nC1 a 0 1\nR1 b 0 50\nR2 b c 10\nC2 c 0 1\n.probe b 0\n", TestSolving.TRAP_F),
    (TestSolving.POW2_TRAP + ".probe a 0\n", TestSolving.POW2_F),
    (ladder(12, ".ac log 5 1meg 1g", seed=12) + TRAP, TRAP_W / (2.0 * math.pi)),
    (ladder(12, ".ac log 5 1meg 1g", seed=12) + TRAP, 1e8),
], ids=["bvd", "tank", "trap", "trap-and-island", "pow2-trap", "ladder-at-trap", "ladder"])
def test_one_point_grid_takes_the_point_route(text, f):
    nl = parse_netlist(text)
    assert stamp(nl).bandwidth <= mna._POINT_BANDWIDTH
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _one_point_sweep_is_the_point(nl, f)


@settings(max_examples=200, deadline=None)
@given(random_rlc(), st.floats(min_value=1e3, max_value=1e11))
def test_property_one_point_grid_takes_the_point_route(nl, f):
    _one_point_sweep_is_the_point(nl, f)


def _random_graph(rng: random.Random) -> Netlist:
    """Elements between random nodes, ground, self-loops and islands with
    no path to the probe included; names that sort out of order."""
    names = rng.sample(["a", "b", "c", "m1", "m10", "m2", "x", "y", "gl", "9"],
                       rng.randint(1, 9))
    nodes = ["0"] + names
    elements = tuple(Element(rng.choice("RLC"), f"E{k}", rng.choice(nodes),
                             rng.choice(nodes), 1.0)
                     for k in range(rng.randint(1, 16)))
    return Netlist(elements, None, (rng.choice(nodes), rng.choice(nodes)))


def test_order_matches_the_plain_rule():
    """`_order` skips the sort of one-node frontiers and never puts ground
    or the node itself in a neighbour set; the rows and bandwidth are the
    plain rule's."""
    texts = [load(name) for name in GOOD_FILES]
    texts += ["L1 a 0 1\nC1 a 0 1\nR1 b 0 50\nR2 b c 10\nC2 c 0 1\n.probe b 0\n"]
    for seed in range(20):
        nodes = 1 + 3 * seed
        texts.append(ladder(nodes, ".ac log 5 1meg 1g", rlc=seed % 2 == 0, seed=seed))
        texts.append(ladder(nodes, ".ac log 5 1meg 1g", seed=seed) + TRAP)
        texts.append(ladder(nodes, ".ac log 5 1meg 1g", seed=seed) + "R9 p q 1\nR7 p 0 1\nR8 q 0 1\n")
    netlists = [Netlist(nl.elements, nl.ac, nl.probe)       # no cached ordering
                for nl in map(parse_netlist, texts)]
    rng = random.Random(20261018)
    netlists += [_random_graph(rng) for _ in range(400)]
    for nl in netlists:
        index, bandwidth = reference_order(nl)
        ordering = mna._order(nl)
        assert (list(ordering.index.items()), ordering.bandwidth) == (
            list(index.items()), bandwidth), format_netlist(nl)


class _RecordingNumpy:
    """numpy for one module: records the largest row sum of every block
    (each np.maximum.reduce) and counts masked row swaps (np.copyto with
    where=)."""

    def __init__(self):
        self.row_maxima = []
        self.masked_copies = 0
        record = self.row_maxima.append

        class Maximum:
            @staticmethod
            def reduce(*args, **kwargs):
                out = np.maximum.reduce(*args, **kwargs)
                record(out)
                return out

        self.maximum = Maximum()

    def copyto(self, *args, **kwargs):
        if "where" in kwargs:
            self.masked_copies += 1
        return np.copyto(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def _bits(values) -> list:
    return np.ascontiguousarray(values).view(np.uint64).tolist()


def _layouts_agree(monkeypatch, nl: Netlist, omega: np.ndarray) -> _RecordingNumpy:
    """`mna._solve`, frequency last, gives the frequency-major reference's
    corners, singular mask and threshold row maxima to the bit."""
    stamped = stamp(nl)
    new, old = _RecordingNumpy(), _RecordingNumpy()
    with monkeypatch.context() as patch:
        patch.setattr(mna, "np", new)
        patch.setattr(mna_reference, "np", old)
        corner, singular = mna._solve(stamped, omega)
        ref_corner, ref_singular = frequency_major_solve(stamped, omega)
    assert singular.tolist() == ref_singular.tolist(), format_netlist(nl)
    assert _bits(corner) == _bits(ref_corner), format_netlist(nl)
    assert _bits(np.concatenate(new.row_maxima)) == _bits(np.concatenate(old.row_maxima))
    return new


def _dense(rng: random.Random, nodes: int, ac: str) -> Netlist:
    """Every node joined to every other by a capacitor, each to ground by
    a resistor: bandwidth nodes - 1, so row segments are long."""
    lines = [f"R{i} {i} 0 {10 ** rng.uniform(1, 3)!r}" for i in range(1, nodes + 1)]
    lines += [f"C{i}_{j} {i} {j} {10 ** rng.uniform(-13, -11)!r}"
              for i in range(1, nodes + 1) for j in range(i + 1, nodes + 1)]
    return parse_netlist("\n".join(lines + [ac, ".probe 1 0"]) + "\n")


def _tank(rng: random.Random) -> Netlist:
    """A fixture resonator beside a branch capacitor and a lossy shunt
    inductor tuned near its series resonance, swept across it."""
    res = get_resonator(rng.choice(["rft30g", "fbar2g4", "saw400m", "quartz45m"]))
    fs = 1.0 / (2.0 * math.pi * math.sqrt(res.l_m * res.c_m))
    c_branch = res.c_0 * 10 ** rng.uniform(-0.3, 0.9)
    l_0 = 1.0 / ((2.0 * math.pi * fs * rng.uniform(0.995, 1.005)) ** 2 * (res.c_0 + c_branch))
    r_l0 = 2.0 * math.pi * fs * l_0 / 10 ** rng.uniform(0.3, 1.3)
    half = fs / (2.0 * math.pi * fs * res.l_m / res.r_m) * 10 ** rng.uniform(0.3, 1.7)
    ac = (f".ac lin {rng.randint(180, 220)} {fs - half!r} {fs + half!r}" if rng.random() < 0.5
          else f".ac log {rng.randint(180, 220)} {0.5 * fs!r} {1.5 * fs!r}")
    return parse_netlist("\n".join([
        f"Rm a m1 {res.r_m!r}", f"Lm m1 m2 {res.l_m!r}", f"Cm m2 0 {res.c_m!r}",
        f"C0 a 0 {res.c_0!r}", f"Cb a 0 {c_branch!r}", f"L0 a gl {l_0!r}",
        f"Rl0 gl 0 {r_l0!r}", ac, ".probe a 0"]) + "\n")


def test_frequency_last_blocks_match_the_frequency_major_reference(monkeypatch):
    """Each block of the batched LU is stored frequency last; the same
    operations on the same entries give the earlier frequency-major
    layout's values, NaN masks and thresholds to the bit."""
    rng = random.Random(20261019)
    trap_f = TRAP_W / (2.0 * math.pi)
    cases = []
    for k in range(12):
        nodes = rng.randint(5, 50)
        f_lo = 10 ** rng.uniform(6.5, 7.5)
        cases.append(parse_netlist(ladder(nodes, f".ac log {rng.randint(180, 220)} "
                                          f"{f_lo!r} {f_lo * 1e3!r}",
                                          rlc=k % 2 == 0, seed=rng.randrange(2 ** 32))))
        # a lossless trap at its exact resonance, the grid's last point
        cases.append(parse_netlist(ladder(nodes, f".ac lin 40 {trap_f / 100!r} {trap_f!r}",
                                          rlc=k % 2 == 1, seed=rng.randrange(2 ** 32)) + TRAP))
    cases += [_tank(rng) for _ in range(12)]
    cases.append(parse_netlist(TestSolving.POW2_TRAP + f".ac lin 7 {TestSolving.POW2_F / 4!r} "
                               f"{TestSolving.POW2_F!r}\n.probe a 0\n"))
    # row segments of 9 entries and more, which numpy sums pairwise
    cases += [_dense(rng, nodes, ".ac log 200 1meg 10g") for nodes in (9, 12, 20)]
    cases.append(replace(wide_band_netlist(), ac=(200, 1e6, 1e10, "log")))
    singular = masked = 0
    for nl in cases:
        recorded = _layouts_agree(monkeypatch, nl, 2.0 * math.pi * _ac_grid(nl.ac))
        singular += int(np.isnan(ac_sweep(nl).values).sum())
        masked += recorded.masked_copies
    assert max(stamp(nl).bandwidth for nl in cases) >= 4
    assert singular >= 13      # every trap's resonance is a gap
    assert masked > 0          # some blocks chose different pivot rows
    _layouts_agree(monkeypatch, wide_band_netlist(), np.array([2.0 * math.pi * 1e8]))
    nl, _ = overflowing_rows_netlist()
    _layouts_agree(monkeypatch, nl, np.array([2.0 ** 20, 2.0 ** 21]))
    # a grid spanning several blocks, the last one partial
    nl = parse_netlist(ladder(50, ".ac log 1000 1meg 10g", seed=50))
    points = mna._block_points(50, stamp(nl).bandwidth)
    assert 2 * points < 1000 and 1000 % points
    _layouts_agree(monkeypatch, nl, 2.0 * math.pi * _ac_grid(nl.ac))
