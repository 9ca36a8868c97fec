"""The three benchmark workloads: seeded inputs, one closed-loop client,
and a correctness check on every operation.

Each workload turns a seeded generator into whole blocks of operations
(a block holds the workload's fixed mix, so every run has the same mix),
runs one operation at a time (the next starts only after the previous
returns) and checks every output outside the timed region.  An
operation's outcome is

* ``ok``       - returned, and its output passed the check;
* ``declined`` - raised one of the library's documented refusals
  (`DesignError`, `NoResonanceError`, `SingularCircuitError`); it counts
  as failed but is not a wrong answer;
* ``wrong``    - raised anything else, exited with an unexpected code, or
  failed its check.

Operations read memsosc through module attributes at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from memsosc import bvd, cli, compensation, design, fixtures, mna, noise

FIXTURES = ("quartz45m", "saw400m", "fbar2g4", "rft30g")
TWO_PI = 2.0 * math.pi

# Oracle agreement, as acceptance criterion 7 requires of the library.
ORACLE_RTOL = 1e-9
# Residual phase at a reported oscillation frequency.  brentq stops within
# 1e-12 relative in frequency; on the steepest fixture (Q ~ 1e5) that leaves
# about 2e-7 rad.
PHASE_TOL = 1e-5


@dataclass
class Result:
    """One operation: its canonical output and how it ended."""

    kind: str
    output: str = ""
    status: str = "ok"          # ok | declined | wrong
    problem: str = ""
    samples: dict[str, list[float]] = field(default_factory=dict)
    work: dict[str, int] = field(default_factory=dict)
    value: object = None        # raw return value, for the check
    reference: "Result | None" = None   # in-process twin of a cold CLI call

    def sample(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def mark_wrong(self, problem: str) -> None:
        self.status = "wrong"
        self.problem = self.problem or problem


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [0, 1), shuffled.

    Sizes that set an operation's cost are stratified this way so that
    every run, whatever its seed, holds the same spread of cheap and
    expensive operations.
    """
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


def tank_netlist(res, comp, ac: str = "") -> str:
    """Compensated tank as an MNA netlist: BVD || C branch || lossy L0."""
    c_branch = comp.c_fix + comp.bank_code * comp.bank_unit
    lines = [f"Rm a m1 {res.r_m!r}", f"Lm m1 m2 {res.l_m!r}",
             f"Cm m2 0 {res.c_m!r}", f"C0 a 0 {res.c_0!r}"]
    if c_branch > 0:
        lines.append(f"Cb a 0 {c_branch!r}")
    lines += [f"L0 a gl {comp.l_0!r}", f"Rl0 gl 0 {comp.r_l0!r}"]
    if ac:
        lines.append(ac)
    lines.append(".probe a 0")
    return "\n".join(lines) + "\n"


def bvd_netlist(res) -> str:
    return (f"Rm a m1 {res.r_m!r}\nLm m1 m2 {res.l_m!r}\nCm m2 0 {res.c_m!r}\n"
            f"C0 a 0 {res.c_0!r}\n.probe a 0\n")


def _declined(exc: BaseException) -> bool:
    """The library's documented refusals.  SingularCircuitError also comes
    from non-singular but badly scaled systems: the pivot threshold is
    relative to the largest row of the whole matrix (about one
    acceptance-7-style single-point call in 25,000 when this was written)."""
    return isinstance(exc, (design.DesignError, compensation.NoResonanceError,
                            mna.SingularCircuitError))


# --- design_space ------------------------------------------------------------

@dataclass(frozen=True)
class DesignOp:
    spec: design.DesignSpec


@dataclass(frozen=True)
class SweepOp:
    res: bvd.Resonator
    comp: compensation.CompensationNetwork
    op: noise.OscillatorOperatingPoint
    deltas: tuple[float, ...]


class DesignSpace:
    """`run_design` over seeded specs, alternating with `sensitivity_sweep`.

    Specs cover all four fixtures, Q_L0 2-20, parasitic C 0.5-8 x c_0, bank
    sizes 0-4096 (log-spread) and L0 grids from 1e-1 to 1e-4 of the needed
    inductance.  Sweeps span +-3 x the motional-mode capacitance margin, so
    both the motional and the LC mode govern.  Specs that raise
    `DesignError` and sweeps that raise `NoResonanceError` stay in.
    """

    name = "design_space"
    ops_per_second = 200     # one design + one sweep took ~10 ms when calibrated
    block = 32               # 16 designs interleaved with 16 sweeps

    def plan(self, rng: random.Random, blocks: int) -> list:
        ops = []
        pairs = self.block // 2
        for _ in range(blocks):
            names = [FIXTURES[k % 4] for k in range(pairs)]
            rng.shuffle(names)
            bank_u, grid_u, sweep_u = (_strata(rng, pairs) for _ in range(3))
            for k in range(pairs):
                res = fixtures.get_resonator(names[k])
                ops.append(DesignOp(self._spec(rng, res, bank_u[k], grid_u[k])))
                ops.append(SweepOp(*self._sweep(rng, fixtures.get_resonator(
                    FIXTURES[(k + 1) % 4]), sweep_u[k])))
        return ops

    @staticmethod
    def _spec(rng, res, bank_u, grid_u) -> design.DesignSpec:
        fs = bvd.series_resonance(res)
        parasitic = res.c_0 * _logu(rng, 0.5, 8.0)
        c_base = res.c_0 + parasitic + 10e-15
        l_needed = 1.0 / ((TWO_PI * fs) ** 2 * c_base)
        grid_frac = 10.0 ** (-1.0 - 3.0 * grid_u)            # 1e-1 .. 1e-4
        level = 13.0 * bank_u - 1.0                           # 0 or 1 .. 4096
        bank_size = 0 if level < 0 else int(round(2.0 ** level))
        # the bank span covers the grid's capacitance step x a factor 0.3-4
        bank_unit = c_base * grid_frac * _logu(rng, 0.3, 4.0) / max(bank_size, 1)
        return design.DesignSpec(
            resonator=res, target_f0=fs * rng.uniform(0.99, 1.01),
            v_osc_target=rng.uniform(0.1, 0.5), parasitic_c=parasitic,
            q_l0_available=_logu(rng, 2.0, 20.0), bank_unit=bank_unit,
            bank_size=bank_size, supply=rng.uniform(0.6, 1.2),
            gamma=rng.uniform(0.67, 2.0), pn_offset=_logu(rng, 1e4, 1e6),
            l0_grid_step=l_needed * grid_frac)

    @staticmethod
    def _sweep(rng, res, size_u):
        fs = bvd.series_resonance(res)
        c_fix = res.c_0 * _logu(rng, 0.5, 8.0)
        comp = compensation.CompensationNetwork(
            l_0=compensation.shunt_inductor_for(res.c_0 + c_fix, fs),
            q_l0=_logu(rng, 2.0, 20.0), f_ref=fs, c_fix=c_fix)
        margin = compensation.motional_mode_capacitance_margin(res)
        lo = max(-3.0 * margin, -c_fix)     # c_fix + delta must stay >= 0
        points = 5 + int(5 * size_u)
        deltas = tuple(sorted(rng.uniform(lo, 3.0 * margin) for _ in range(points)))
        op = noise.OscillatorOperatingPoint(
            v_osc=rng.uniform(0.1, 0.5), f_0=fs, delta_f=_logu(rng, 1e4, 1e6),
            gamma=rng.uniform(0.67, 2.0))
        return res, comp, op, deltas

    def run(self, op) -> Result:
        if isinstance(op, DesignOp):
            r = Result("design")
            out = _timed(r, "design", design.run_design, op.spec)
            if r.status == "ok":
                r.output, r.value = repr(astuple(out)), out
                r.work["designs"] = 1
            return r
        r = Result("sweep")
        out = _timed(r, "sweep", noise.sensitivity_sweep, op.res, op.comp, op.op, op.deltas)
        if r.status == "ok":
            r.output, r.value = repr(out), out
            r.work["sweep_points"] = len(out)
        return r

    def check(self, op, r: Result) -> None:
        if r.status != "ok":
            return
        if isinstance(op, DesignOp):
            self._check_design(op.spec, r.value, r)
        else:
            rows = r.value
            if [dc for dc, _ in rows] != list(op.deltas):
                r.mark_wrong("sweep rows do not echo the requested deltas")
            elif not all(math.isfinite(pn) for _, pn in rows):
                r.mark_wrong("non-finite phase noise in sweep")

    @staticmethod
    def _check_design(spec, rep, r: Result) -> None:
        floats = [v for v in astuple(rep) if isinstance(v, float)]
        if not all(math.isfinite(v) for v in floats):
            r.mark_wrong("non-finite report field")
            return
        res = spec.resonator
        comp = compensation.CompensationNetwork(
            l_0=rep.l_0, q_l0=rep.q_l0, f_ref=spec.target_f0, c_fix=rep.c_fix,
            bank_unit=spec.bank_unit, bank_size=rep.bank_size,
            bank_code=rep.bank_code)
        z = compensation.tank_impedance(res, comp, rep.f_osc)
        if abs(math.atan2(z.imag, z.real)) > PHASE_TOL:
            r.mark_wrong(f"phase at f_osc is {math.atan2(z.imag, z.real):.3g} rad")
            return
        z_mna = mna.driving_point_impedance(
            mna.parse_netlist(tank_netlist(res, comp)), rep.f_osc)
        if abs(z_mna - z) > ORACLE_RTOL * abs(z):
            r.mark_wrong(f"MNA oracle disagrees at f_osc: {z_mna} vs {z}")


def _timed(r: Result, series: str, fn, *args):
    """Call fn, adding its wall time to `series`; a raised exception ends
    the operation as declined (documented refusal) or wrong."""
    t = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:                 # every failure is recorded
        r.output = f"{type(exc).__name__}: {exc}"
        if _declined(exc):
            r.status = "declined"
        else:
            r.mark_wrong(f"unexpected {r.output}")
        return None
    finally:
        r.sample(series, time.perf_counter() - t)


# --- mna_oracle --------------------------------------------------------------

@dataclass(frozen=True)
class NetlistOp:
    kind: str                     # ladder | tank | lossless
    text: str
    reference: tuple              # kind-specific data for the check
    points: tuple                 # single-point calls: (netlist text, f, reference)


class MnaOracle:
    """Seeded netlists through `parse_netlist` + `ac_sweep`, plus
    single-frequency `driving_point_impedance` calls.

    Netlists cycle through RC/RLC ladders of 5-50 nodes, compensated tanks
    built from the fixtures, and lossless LC chains whose grid has a point
    exactly at a trap resonance (a NaN gap).  Each netlist is followed by
    single-point calls in the style of acceptance criterion 7: a random BVD
    one-port or tank at a random frequency within 0.5-1.5 f_s.
    """

    name = "mna_oracle"
    ops_per_second = 9
    block = 12               # 4 ladders, 4 tanks, 4 lossless chains
    points_per_op = 6

    def plan(self, rng: random.Random, blocks: int) -> list:
        ops = []
        for _ in range(blocks):
            ladder_u = _strata(rng, self.block // 3)
            for k in range(self.block):
                kind = ("ladder", "tank", "lossless")[k % 3]
                if kind == "ladder":
                    text, ref = self._ladder(rng, 5 + int(46 * ladder_u[k // 3]))
                elif kind == "tank":
                    text, ref = self._tank(rng)
                else:
                    text, ref = self._lossless(rng)
                points = tuple(self._point(rng, j) for j in range(self.points_per_op))
                ops.append(NetlistOp(kind, text, ref, points))
        return ops

    @staticmethod
    def _ac(rng, f_lo, f_hi, log: bool) -> str:
        return f".ac {'log' if log else 'lin'} {rng.randint(180, 220)} {f_lo!r} {f_hi!r}"

    @staticmethod
    def _ladder(rng, nodes: int):
        """Series R (RC) or L (RLC) between nodes 1..n, shunt C (and R) to
        ground at each node, terminated in R; probed at node 1."""
        rlc = rng.random() < 0.5
        series, shunt = [], []
        lines = []
        for k in range(1, nodes + 1):
            c = _logu(rng, 1e-13, 1e-11)
            r_sh = _logu(rng, 1e2, 1e4) if rlc or k == nodes else None
            lines.append(f"C{k} {k} 0 {c!r}")
            if r_sh is not None:
                lines.append(f"RS{k} {k} 0 {r_sh!r}")
            shunt.append((c, r_sh))
            if k < nodes:
                v = _logu(rng, 1e-9, 1e-7) if rlc else _logu(rng, 10.0, 1e3)
                lines.append(f"{'L' if rlc else 'R'}{k} {k} {k + 1} {v!r}")
                series.append(("L" if rlc else "R", v))
        # corners sit near 1/(2 pi 100 ohm 1 pF) and 1/(2 pi sqrt(10 nH 1 pF)),
        # both ~1.6 GHz; three decades around them
        f_lo = _logu(rng, 5e6, 2e7)
        lines.append(MnaOracle._ac(rng, f_lo, f_lo * 1e3, log=True))
        lines.append(".probe 1 0")
        return "\n".join(lines) + "\n", (tuple(series), tuple(shunt))

    @staticmethod
    def _tank(rng):
        res = fixtures.get_resonator(rng.choice(FIXTURES))
        fs = bvd.series_resonance(res)
        code = rng.randint(0, 8)
        unit = res.c_0 * _logu(rng, 1e-3, 1e-1)
        c_fix = res.c_0 * _logu(rng, 0.5, 8.0)
        c_branch = res.c_0 + c_fix + code * unit
        comp = compensation.CompensationNetwork(
            l_0=compensation.shunt_inductor_for(c_branch, fs * rng.uniform(0.995, 1.005)),
            q_l0=_logu(rng, 2.0, 20.0), f_ref=fs, c_fix=c_fix, bank_unit=unit,
            bank_size=8, bank_code=code)
        if rng.random() < 0.5:
            half = bvd.motional_bandwidth(res) * _logu(rng, 2.0, 50.0)
            ac = MnaOracle._ac(rng, fs - half, fs + half, log=False)
        else:
            ac = MnaOracle._ac(rng, 0.5 * fs, 1.5 * fs, log=True)
        return tank_netlist(res, comp, ac), (res, comp)

    @staticmethod
    def _lossless(rng):
        """Series C1-L1 chain into an L2 || C2 trap, all lossless.

        Values are powers of two and the trap resonates at w = 2**k, so at
        f = 2**k / (2 pi) the trap admittance cancels to an exact zero and
        the MNA system is singular; that grid end must come back as NaN.
        """
        k = rng.randint(20, 34)
        a = rng.randint(-30, -17)
        l2, c2 = 2.0 ** a, 2.0 ** (-2 * k - a)
        f_res = 2.0 ** k / TWO_PI
        # series parts on the trap's own scale: the chain stays well
        # conditioned away from the singular point
        l1 = l2 * _logu(rng, 0.3, 3.0)
        c1 = c2 * _logu(rng, 0.3, 3.0)
        log = rng.random() < 0.5
        span = _logu(rng, 1.5, 10.0)
        at_start = rng.random() < 0.5
        lo, hi = (f_res, f_res * span) if at_start else (f_res / span, f_res)
        text = "\n".join([
            f"C1 p y {c1!r}", f"L1 y x {l1!r}", f"L2 x 0 {l2!r}", f"C2 x 0 {c2!r}",
            MnaOracle._ac(rng, lo, hi, log), ".probe p 0"]) + "\n"
        return text, (l1, c1, l2, c2, 0 if at_start else -1)

    @staticmethod
    def _point(rng, j: int):
        c_0 = 10.0 ** rng.uniform(-15, -11)
        res = bvd.Resonator(r_m=rng.uniform(1.0, 1e3), l_m=10.0 ** rng.uniform(-9, -3),
                            c_m=c_0 * 10.0 ** rng.uniform(-4, -0.5), c_0=c_0)
        fs = bvd.series_resonance(res)
        f = fs * rng.uniform(0.5, 1.5)
        # one BVD one-port per two tanks: the two take different times, and
        # an even mix would put the median on the edge between them
        if j % 3 == 0:
            return bvd_netlist(res), f, (res, None)
        comp = compensation.CompensationNetwork(
            l_0=10.0 ** rng.uniform(-12, -8), q_l0=rng.uniform(2.0, 50.0), f_ref=fs,
            c_fix=10.0 ** rng.uniform(-16, -13))
        return tank_netlist(res, comp), f, (res, comp)

    def run(self, op: NetlistOp) -> Result:
        r = Result(op.kind)
        resp = _timed(r, "ac", lambda text: mna.ac_sweep(mna.parse_netlist(text)), op.text)
        if r.status != "ok":
            return r
        r.work["ac_points"] = len(resp)
        r.work["singular_points"] = int(np.count_nonzero(np.isnan(resp.values)))
        outputs = [resp.frequencies.tobytes() + resp.values.tobytes()]
        point_values = []
        r.value = (resp, point_values)
        for text, f, _ in op.points:
            z = _timed(r, "point", mna.driving_point_impedance, mna.parse_netlist(text), f)
            if r.status != "ok":
                return r
            point_values.append(z)
            outputs.append(repr(z).encode())
        r.output = repr(outputs)
        return r

    def check(self, op: NetlistOp, r: Result) -> None:
        if r.value is None:                  # the sweep itself raised
            return
        resp, point_values = r.value        # points up to any that raised
        f, z = resp.frequencies, resp.values
        w = TWO_PI * f
        nan = np.isnan(z.real) | np.isnan(z.imag)
        if op.kind == "ladder":
            series, shunt = op.reference
            ref, scale = _ladder_impedance(series, shunt, w), None
        elif op.kind == "tank":
            res, comp = op.reference
            ref, scale = compensation.tank_impedance(res, comp, f), None
        else:
            l1, c1, l2, c2, gap = op.reference
            z_c1, z_l1 = 1.0 / (1j * w * c1), 1j * w * l1
            with np.errstate(divide="ignore", invalid="ignore"):
                z_trap = 1.0 / (1j * w * c2 + 1.0 / (1j * w * l2))
            ref = z_c1 + z_l1 + z_trap
            scale = np.abs(z_c1) + np.abs(z_l1) + np.abs(z_trap)
            expected = np.zeros(len(f), dtype=bool)
            expected[gap] = True
            if not np.array_equal(nan, expected):
                r.mark_wrong(f"NaN gaps at {np.nonzero(nan)[0].tolist()}, "
                             f"expected only at index {gap % len(f)}")
                return
        ok = ~nan
        if op.kind != "lossless" and nan.any():
            r.mark_wrong(f"unexpected NaN gaps at {np.nonzero(nan)[0].tolist()}")
            return
        err = np.abs(z[ok] - ref[ok]) / (np.abs(ref[ok]) if scale is None else scale[ok])
        if err.size and float(err.max()) > ORACLE_RTOL:
            r.mark_wrong(f"{op.kind} sweep off its reference by {float(err.max()):.3g}")
            return
        for (_, fp, (res, comp)), zp in zip(op.points, point_values):
            zref = (bvd.impedance(res, fp) if comp is None
                    else compensation.tank_impedance(res, comp, fp))
            if abs(zp - zref) > ORACLE_RTOL * abs(zref):
                r.mark_wrong(f"single-point oracle off by {abs(zp - zref) / abs(zref):.3g}")
                return


def _ladder_impedance(series, shunt, w):
    """Driving-point impedance of a ladder as a continued fraction, from
    the far end back to node 1."""
    def shunt_y(c, r_sh):
        y = 1j * w * c
        return y if r_sh is None else y + 1.0 / r_sh

    y = shunt_y(*shunt[-1])
    for (kind, v), sh in zip(reversed(series), reversed(shunt[:-1])):
        z_series = v if kind == "R" else 1j * w * v
        y = shunt_y(*sh) + 1.0 / (z_series + 1.0 / y)
    return 1.0 / y


# --- cli_cold ----------------------------------------------------------------

@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    expected_code: int
    files: tuple[tuple[str, str], ...] = ()   # (name, text) written before the run


class CliCold:
    """Every subcommand as a fresh `python -m memsosc.cli` process.

    Each block of seven calls holds one call of each of the six subcommands
    and one invocation that must fail with exit code 1 or 2.  Spec files,
    netlists and device/network documents are generated into a work
    directory; some are named through $MEMSOSC_FIXTURE_DIR.
    """

    name = "cli_cold"
    ops_per_second = 0.9
    block = 7
    in_process_blocks = 10
    kinds = ("resonator", "compensate", "noise", "design", "ac", "sweep", "error")
    errors = ("unknown_fixture", "bad_netlist", "missing_key", "infeasible_design",
              "bad_choice", "missing_network")

    def __init__(self, workdir: Path | None = None):
        self.workdir = workdir
        self.env = None          # set by prepare()

    def plan(self, rng: random.Random, blocks: int) -> list:
        ops = []
        first_error = rng.randrange(len(self.errors))
        for block in range(blocks):
            kinds = list(self.kinds)
            rng.shuffle(kinds)
            for kind in kinds:
                tag = f"op{len(ops)}"
                if kind == "error":
                    error = self.errors[(first_error + block) % len(self.errors)]
                    ops.append(self._error(rng, tag, error))
                else:
                    ops.append(getattr(self, f"_{kind}")(rng, tag))
        return ops

    # Paths in argv that start with "@/" are relative to the work directory.

    @staticmethod
    def _device(rng, tag, files):
        """A fixture by name, or a perturbed copy as a document (by path or
        by name through $MEMSOSC_FIXTURE_DIR)."""
        name = rng.choice(FIXTURES)
        res = fixtures.get_resonator(name)
        mode = rng.randrange(3)
        if mode == 0:
            return name, res
        res = bvd.Resonator(r_m=res.r_m * rng.uniform(0.8, 1.2), l_m=res.l_m,
                            c_m=res.c_m, c_0=res.c_0 * rng.uniform(0.8, 1.2),
                            label=f"{tag}_dev")
        files.append((f"{tag}_dev.dev",
                      f"# generated device\nrm = {res.r_m!r}\nlm = {res.l_m!r}\n"
                      f"cm = {res.c_m!r}\nc0 = {res.c_0!r}\nlabel = {res.label}\n"))
        return (f"{tag}_dev" if mode == 1 else f"@/{tag}_dev.dev"), res

    @staticmethod
    def _network(rng, tag, res, files):
        """(argv, network) for an aligned shunt network: a generated
        document, the built-in networks for rft30g, or the CLI default."""
        mode = rng.randrange(3)
        fs = bvd.series_resonance(res)
        if mode == 0:
            q = _logu(rng, 2.0, 20.0)
            return ["--q-l0", f"{q!r}"], compensation.CompensationNetwork(
                l_0=compensation.shunt_inductor_for(res.c_0, fs), q_l0=q, f_ref=fs)
        if mode == 1 and res.label == "rft30g":
            name = rng.choice(sorted(fixtures.BUILTIN_NETWORKS))
            return ["--network", name], fixtures.get_network(name)
        c_fix = res.c_0 * _logu(rng, 0.5, 8.0)
        unit = res.c_0 * _logu(rng, 1e-3, 1e-2)
        code = rng.randint(0, 8)
        comp = compensation.CompensationNetwork(
            l_0=compensation.shunt_inductor_for(res.c_0 + c_fix + code * unit, fs),
            q_l0=_logu(rng, 2.0, 20.0), f_ref=fs, c_fix=c_fix, bank_unit=unit,
            bank_size=8, bank_code=code)
        files.append((f"{tag}_net.net",
                      f"l0 = {comp.l_0!r}\nq_l0 = {comp.q_l0!r}\nf_ref = {fs!r}\n"
                      f"c_fix = {c_fix!r}\nbank_unit = {unit!r}\nbank_size = 8\n"
                      f"bank_code = {code}\n"))
        return ["--network", f"@/{tag}_net.net"], comp

    def _resonator(self, rng, tag):
        files = []
        ref, res = self._device(rng, tag, files)
        argv = ["resonator", ref]
        if rng.random() < 0.5:
            fs = bvd.series_resonance(res)
            argv += [f"--from={fs * rng.uniform(0.9, 0.999)!r}",
                     f"--to={fs * rng.uniform(1.001, 1.1)!r}",
                     "--points", str(rng.randint(51, 201)), "--out", "-"]
            if rng.random() < 0.5:
                argv.append("--log")
        return CliOp(tuple(argv), 0, tuple(files))

    def _compensate(self, rng, tag):
        files = []
        ref, res = self._device(rng, tag, files)
        net_argv, _ = self._network(rng, tag, res, files)
        argv = ["compensate", ref, *net_argv]
        if rng.random() < 0.5:
            argv.append(f"--f0={bvd.series_resonance(res) * rng.uniform(0.99, 1.01)!r}")
        return CliOp(tuple(argv), 0, tuple(files))

    def _noise(self, rng, tag):
        files = []
        ref, res = self._device(rng, tag, files)
        net_argv, _ = self._network(rng, tag, res, files)
        argv = ["noise", ref, *net_argv, "--vosc", f"{rng.uniform(0.1, 0.5)!r}"]
        for _ in range(rng.randint(0, 3)):
            argv += ["--offset", f"{_logu(rng, 1e4, 1e6)!r}"]
        if rng.random() < 0.5:
            argv += ["--gamma", f"{rng.uniform(0.67, 2.0)!r}"]
        return CliOp(tuple(argv), 0, tuple(files))

    def _design(self, rng, tag):
        """A spec from a family that designs succeed on: the documented
        rft30g spec with jitter, or a lower-frequency fixture on a fine L0
        grid with a bank spanning two to four grid steps."""
        name = rng.choice(FIXTURES)
        res = fixtures.get_resonator(name)
        fs = bvd.series_resonance(res)
        if name == "rft30g":
            # above 86.58f the 250p grid point falls out of the bank's reach
            keys = {"target_f0": "30g", "parasitic_c": f"{86.58e-15 * rng.uniform(0.95, 1.0)!r}",
                    "q_l0": f"{rng.uniform(6.0, 10.0)!r}", "bank_unit": "1f",
                    "bank_size": "8"}
        else:
            parasitic = res.c_0 * _logu(rng, 0.5, 8.0)
            c_base = res.c_0 + parasitic + 10e-15
            grid_frac = 10.0 ** rng.uniform(-3.0, -2.0)
            bank = rng.randint(4, 64)
            keys = {"target_f0": f"{fs!r}", "parasitic_c": f"{parasitic!r}",
                    "q_l0": f"{_logu(rng, 2.0, 20.0)!r}",
                    "bank_unit": f"{c_base * grid_frac * rng.uniform(2.0, 4.0) / bank!r}",
                    "bank_size": str(bank),
                    "l0_grid": f"{grid_frac / ((TWO_PI * fs) ** 2 * c_base)!r}"}
        keys = {"resonator": name, "v_osc": f"{rng.uniform(0.1, 0.5)!r}", **keys}
        text = "".join(f"{k} = {v}\n" for k, v in keys.items())
        argv = ["design", "--in", f"@/{tag}_spec.txt"]
        if rng.random() < 0.3:
            argv += ["--format", "doc"]
        if rng.random() < 0.5:
            argv += ["--out", "-"]
        return CliOp(tuple(argv), 0, ((f"{tag}_spec.txt", text),))

    def _ac(self, rng, tag):
        if rng.random() < 0.5:
            text, _ = MnaOracle._ladder(rng, rng.randint(4, 6))
        else:
            text, _ = MnaOracle._tank(rng)
        argv = ["ac", "--in", f"@/{tag}.cir"]
        if rng.random() < 0.5:
            argv += ["--out", "-"]
        return CliOp(tuple(argv), 0, ((f"{tag}.cir", text),))

    def _sweep(self, rng, tag):
        files = []
        ref, res = self._device(rng, tag, files)
        net_argv, comp = self._network(rng, tag, res, files)
        var = rng.choice(("delta_c", "q_l0", "l_0", "q_rft"))
        if var == "delta_c":
            # inside the motional mode: +-0.8 margin, c_fix + delta >= 0
            m = 0.8 * compensation.motional_mode_capacitance_margin(res)
            lo, hi = max(-m, -0.9 * comp.c_fix), m
        elif var == "q_l0":
            lo, hi = 2.0, 20.0
        elif var == "l_0":
            lo, hi = comp.l_0 * 0.995, comp.l_0 * 1.005
        else:
            q = bvd.quality_factor(res)
            lo, hi = 0.5 * q, 2.0 * q
        argv = ["sweep", ref, *net_argv, "--var", var, f"--from={lo!r}", f"--to={hi!r}",
                "--points", str(rng.randint(21, 31)), "--out", "-"]
        return CliOp(tuple(argv), 0, tuple(files))

    def _error(self, rng, tag, kind):
        if kind == "unknown_fixture":
            return CliOp(("resonator", f"no_such_device_{rng.randrange(10**6)}"), 1)
        if kind == "bad_netlist":
            text = rng.choice(("X1 1 0 5\n.probe 1 0\n", "R1 1 0 12q\n.probe 1 0\n",
                               "R1 1 0 5\nR2 2 3 5\n.probe 1 0\n"))
            return CliOp(("ac", "--in", f"@/{tag}.cir"), 1, ((f"{tag}.cir", text),))
        if kind == "missing_key":
            return CliOp(("design", "--in", f"@/{tag}_spec.txt"), 1,
                         ((f"{tag}_spec.txt", "resonator = rft30g\ntarget_f0 = 30g\n"),))
        if kind == "infeasible_design":
            # a 1 nH grid with a 2-unit bank cannot align the 30 GHz tank
            text = ("resonator = rft30g\ntarget_f0 = 30g\nv_osc = 300m\n"
                    f"parasitic_c = {86.58e-15 * rng.uniform(0.9, 1.1)!r}\nq_l0 = 8\n"
                    "bank_unit = 1f\nbank_size = 2\nl0_grid = 1n\n")
            return CliOp(("design", "--in", f"@/{tag}_spec.txt"), 2,
                         ((f"{tag}_spec.txt", text),))
        if kind == "bad_choice":
            return CliOp(("sweep", "rft30g", "--var", "no_such_var",
                          "--from=1", "--to=2"), 2)
        return CliOp(("compensate", rng.choice(FIXTURES), "--network",
                      f"@/{tag}_missing.net"), 1)

    # --- running

    def prepare(self, ops, env: dict[str, str]) -> None:
        """Write the operations' input files; children run with `env`."""
        for op in ops:
            for name, text in op.files:
                (self.workdir / name).write_text(text)
        self.env = dict(env, MEMSOSC_FIXTURE_DIR=str(self.workdir))

    def _argv(self, op) -> list[str]:
        prefix = f"{self.workdir}/"
        return [a.replace("@/", prefix) for a in op.argv]

    def run(self, op: CliOp) -> Result:
        r = Result("cli")
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "memsosc.cli", *self._argv(op)],
                              env=self.env, stdin=subprocess.DEVNULL,
                              capture_output=True, check=False)
        r.sample("cli", time.perf_counter() - t)
        r.value = (proc.returncode, proc.stdout, proc.stderr)
        r.output = repr(r.value[:2])
        return r

    def run_in_process(self, op: CliOp) -> Result:
        """The same argv through `cli.main` in this interpreter."""
        r = Result("cli_in_process")
        out, err = io.StringIO(), io.StringIO()
        saved = os.environ.get("MEMSOSC_FIXTURE_DIR")
        os.environ["MEMSOSC_FIXTURE_DIR"] = str(self.workdir)
        try:
            t = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(self._argv(op))
                except SystemExit as exc:         # argparse usage errors
                    code = exc.code
            r.sample("cli_in_process", time.perf_counter() - t)
        finally:
            if saved is None:
                del os.environ["MEMSOSC_FIXTURE_DIR"]
            else:
                os.environ["MEMSOSC_FIXTURE_DIR"] = saved
        r.value = (code, out.getvalue().encode(), err.getvalue().encode())
        r.output = repr(r.value[:2])
        return r

    def check(self, op: CliOp, r: Result) -> None:
        code, stdout, stderr = r.value
        if code != op.expected_code:
            r.mark_wrong(f"exit code {code}, expected {op.expected_code}: "
                         f"{stderr.decode(errors='replace')[-300:]}")
            return
        if code != 0 and not stderr:
            r.mark_wrong("failing invocation printed no diagnosis")
            return
        if r.reference is not None and r.reference.value[:2] != (code, stdout):
            r.mark_wrong("stdout or exit code differs from in-process cli.main")
