"""Command-line surface.

Subcommands: resonator, compensate, noise, design, ac, sweep.  Every
report prints the defaults it used so any quoted number is reproducible.
Exit codes: 0 success, 1 input error (an OS error reading an input or
writing `--out` included), 2 design failure or argparse usage error.
`main` is the one place where an error becomes an exit code and a line,
and the one place that writes stdout: each subcommand returns its text
(empty when it wrote `--out PATH`), so a report reaches stdout only after
its command succeeds, and a refused command prints nothing there.

numpy is imported only by the subcommands that return arrays: `ac` and
`resonator --out`.  Every subcommand but `ac` evaluates one frequency at
a time in Python floats; `sweep` spaces its values with `bvd.grid`, as
Python floats, so each row has the bits `noise` and `compensate` print
for the same parameters, and it runs without numpy.  `--points` is
bounded by `bvd.MAX_AC_POINTS`.  `noise` and `sweep` build their
operating point without a carrier: `noise.evaluate` runs it at the
governing crossing, and a crossing at or below the offset ends either
with exit 1 and one rule's error line.  `noise` checks every `--offset`
before the search and the crossing against the largest; `sweep` prints
one phase-noise column, so it takes one `--offset` and refuses a second
before it evaluates anything.  `sweep` only parses and formats:
`noise.parameter_sweep` evaluates each `--var` value (a `delta_c` sweep
after its first point on floats, with the same bits and refusals).

The argparse tree is built once per process and reused: parsing reads
it and does not change it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from . import bvd, compensation, design, iodoc, noise
from .engnotation import EngNotationError, format_eng, parse_eng

DEFAULT_OFFSETS = (100e3, 1e6, 10e6)


class UserError(Exception):
    """Bad input at the CLI level; reported on stderr, exit 1."""


def _eng(text: str) -> float:
    try:
        return parse_eng(text)
    except EngNotationError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _emit(path: str | None, text: str) -> str:
    """Write text to path and return ""; None or "-" returns text for stdout."""
    if path is None or path == "-":
        return text
    iodoc.atomic_write_text(path, text)
    return ""


def _check_points(args, least: int) -> None:
    if not least <= args.points <= bvd.MAX_AC_POINTS:
        raise UserError(f"--points must lie between {least} and {bvd.MAX_AC_POINTS}, "
                        f"got {args.points}")


def _defaults_header(op: noise.OscillatorOperatingPoint | None = None) -> str:
    lines = [f"# defaults: T = {noise.DEFAULT_TEMPERATURE:g} K, gamma = {noise.DEFAULT_GAMMA:g}, "
             f"offsets = {' / '.join(map(format_eng, DEFAULT_OFFSETS))} Hz"]
    if op is not None:
        lines.append(f"# operating point: v_osc = {format_eng(op.v_osc)}V, "
                     f"f_0 = {format_eng(op.f_0)}Hz, T = {op.temperature:g} K, "
                     f"gamma = {op.gamma:g}")
    return "\n".join(lines)


def _load_network(args, res: bvd.Resonator) -> compensation.CompensationNetwork:
    if args.network is not None:
        return iodoc.resolve_network(args.network)
    # default: lossy inductor resonating the bare static capacitance at f_s
    fs = bvd.series_resonance(res)
    l_0 = compensation.shunt_inductor_for(res.c_0, fs)
    return compensation.CompensationNetwork(l_0=l_0, q_l0=args.q_l0, f_ref=fs)


def _operating_point(args, offset: float) -> noise.OscillatorOperatingPoint:
    """The oscillator biased as the options say, at the governing crossing."""
    return noise.OscillatorOperatingPoint(
        v_osc=args.vosc, f_0=None, delta_f=offset, temperature=args.temp,
        gamma=args.gamma, g_mbias=args.gmbias, supply=args.supply)


# --- subcommands ---------------------------------------------------------

def cmd_resonator(args) -> str:
    res = iodoc.resolve_resonator(args.resonator)
    csv = ""
    if args.out is not None:
        if args.f_from is None or args.f_to is None:
            raise UserError("--out needs a frequency range (--from/--to)")
        _check_points(args, bvd.MIN_SWEEP_POINTS)
        csv = _emit(args.out, iodoc.response_csv(bvd.sweep(res, args.f_from, args.f_to,
                                                           args.points, log=args.log)))
    fs = bvd.series_resonance(res)
    xc0 = bvd.static_reactance(res, fs)
    lines = [_defaults_header(),
             f"resonator      : {res.label or args.resonator}",
             f"f_s            : {fs!r} Hz",
             f"f_p            : {bvd.parallel_resonance(res)!r} Hz",
             f"Q              : {bvd.quality_factor(res)!r}",
             f"kt^2 (cm/c0)   : {bvd.coupling_coefficient(res)!r}",
             f"|X_C0| at f_s  : {xc0!r} ohm",
             f"|X_C0| / R_m   : {xc0 / res.r_m!r}"]
    return "\n".join(lines) + "\n" + csv


def cmd_compensate(args) -> str:
    res = iodoc.resolve_resonator(args.resonator)
    f_0 = args.f0 if args.f0 is not None else bvd.series_resonance(res)
    try:
        c0_zero = f"{compensation.zero_phase_c0(res, f_0)!r} F"
    except compensation.NoSolutionError as exc:
        c0_zero = str(exc)
    lines = [_defaults_header(),
             f"zero-phase C0 at {format_eng(f_0)}Hz : {c0_zero}",
             f"suggested L0 for bare c_0     : "
             f"{compensation.shunt_inductor_for(res.c_0, f_0)!r} H"]
    comp = _load_network(args, res)
    f_op, _, mode = compensation.find_operating_point(res, comp)
    tank = compensation.effective_resistance(res, comp)
    q_loaded = compensation.phase_slope_q(res, comp, f_op)
    lines += [f"r_res          : {tank.r_res!r} ohm",
              f"beta           : {tank.beta!r}",
              f"Q_L (phase slope): {q_loaded!r}",
              f"f_tank         : {compensation.tank_resonance(res, comp)!r} Hz",
              f"window         : {compensation.window_fraction(res, comp)!r}",
              f"dominant mode  : {mode}"]
    return "\n".join(lines) + "\n"


def cmd_noise(args) -> str:
    res = iodoc.resolve_resonator(args.resonator)
    comp = _load_network(args, res)
    # each offset is checked before the search, the largest against the crossing
    ops = [_operating_point(args, off) for off in args.offsets or DEFAULT_OFFSETS]
    ev = noise.evaluate(res, comp, max(ops, key=lambda op: op.delta_f))
    ops = [replace(op, f_0=ev.f_osc) for op in ops]
    budget = ev.budget
    pns = [noise.leeson_phase_noise(res, ev.q_loaded, op, budget.f_min) for op in ops]
    lines = [_defaults_header(ops[0]),
             f"f_osc          : {ev.f_osc!r} Hz",
             f"Q_L            : {ev.q_loaded!r}",
             f"beta           : {ev.tank.beta!r}",
             f"F_RL0          : {budget.f_rl0!r}",
             f"F_active       : {budget.f_active!r}",
             f"F_min          : {budget.f_min!r}"]
    lines += [f"PN @ {format_eng(op.delta_f)}Hz : {pn!r} dBc/Hz" for op, pn in zip(ops, pns)]
    lines += [f"FoM (physical) : {ev.fom!r} dBc/Hz  [p_dc = {ev.p_dc!r} W, eta = {ev.eta!r}]",
              f"FoM (from PN)  : "
              f"{noise.fom_from_measurement(pns[0], ev.f_osc, ops[0].delta_f, ev.p_dc)!r}"
              f" dBc/Hz",
              f"FoM (maximum)  : {noise.fom_max(ev.q_loaded, ev.tank.beta)!r} dBc/Hz"]
    return "\n".join(lines) + "\n"


def cmd_design(args) -> str:
    spec = iodoc.designspec_from_document(iodoc.load_document(args.infile))
    report = design.run_design(spec)
    if args.format == "doc":
        return _emit(args.out, iodoc.report_document(report))
    lines = [_defaults_header()]
    lines.append(f"L0             : {format_eng(report.l_0)}H "
                 f"(Q_L0 = {report.q_l0:g}, R_L0 = {report.r_l0:.4g} ohm)")
    lines.append(f"c_fix + parasitics : {format_eng(report.c_fix)}F")
    lines.append(f"bank code      : {report.bank_code} / {report.bank_size}")
    lines.append(f"f_s / f_tank   : {report.f_s!r} / {report.f_tank!r} Hz")
    lines.append(f"f_osc          : {report.f_osc!r} Hz")
    lines.append(f"r_res / beta   : {report.r_res:.6g} ohm / {report.beta:.6g}")
    lines.append(f"Q_L / Q_reso   : {report.q_loaded:.6g} / {report.q_resonator:.6g}")
    lines.append(f"noise factor   : {report.noise_factor:.6g}")
    lines.append(f"g_m / I_bias   : {report.g_m:.6g} S / {report.i_bias:.6g} A")
    lines.append(f"W/L            : {report.w_over_l:.6g}")
    lines.append(f"P_DC estimate  : {report.p_dc_estimate:.6g} W "
                 f"(eta = {report.eta:.4g})")
    lines.append(f"predicted PN   : {report.predicted_pn:.6g} dBc/Hz "
                 f"@ {format_eng(report.pn_offset)}Hz")
    lines.append(f"predicted FoM  : {report.predicted_fom:.6g} dBc/Hz")
    for w in report.warnings:
        lines.append(f"warning        : {w}")
    return _emit(args.out, "\n".join(lines) + "\n")


def cmd_ac(args) -> str:
    from . import mna

    text = Path(args.infile).read_text()
    try:
        netlist = mna.parse_netlist(text)
    except mna.NetlistError as exc:
        raise UserError("netlist errors:\n" + "\n".join(str(d) for d in exc.diagnostics))
    return _emit(args.out, iodoc.response_csv(mna.ac_sweep(netlist)))


def cmd_sweep(args) -> str:
    _check_points(args, 1)
    res = iodoc.resolve_resonator(args.resonator)
    comp = _load_network(args, res)
    if args.offsets and len(args.offsets) > 1:
        raise UserError(f"sweep prints one phase-noise column: give at most one --offset, "
                        f"got {len(args.offsets)}")
    values = bvd.grid(args.f_from, args.f_to, args.points, log=args.log)
    op = _operating_point(args, args.offsets[0] if args.offsets else 1e6)
    lines = [f"{args.var},q_l,beta,pn_dbchz,fom_dbchz"]
    for row in noise.parameter_sweep(res, comp, op, args.var, values):
        lines.append(",".join(repr(float(x)) for x in row))
    return _emit(args.out, "\n".join(lines) + "\n")


# --- wiring --------------------------------------------------------------

def _add_resonator_arg(p):
    p.add_argument("resonator", help="built-in fixture name or document path")


def _add_network_args(p):
    p.add_argument("--network", help="network fixture name or document path")
    p.add_argument("--q-l0", dest="q_l0", type=_eng, default=10.0,
                   help="inductor Q for the default bare-c_0 network")


def _add_op_args(p):
    p.add_argument("--vosc", type=_eng, default=0.3, help="oscillation amplitude, V")
    p.add_argument("--offset", dest="offsets", type=_eng, action="append",
                   help="phase-noise offset(s), Hz (repeatable)")
    p.add_argument("--gamma", type=_eng, default=noise.DEFAULT_GAMMA)
    p.add_argument("--temp", type=_eng, default=noise.DEFAULT_TEMPERATURE)
    p.add_argument("--gmbias", type=_eng, default=None,
                   help="tail-source transconductance, S (default: 2/r_res)")
    p.add_argument("--supply", type=_eng, default=0.8)


def _add_window_args(p, required=False):
    p.add_argument("--from", dest="f_from", type=_eng, required=required)
    p.add_argument("--to", dest="f_to", type=_eng, required=required)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--log", action="store_true", help="geometric spacing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memsosc",
        description="MEMS-resonator oscillator design toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resonator", help="one-port figures and impedance sweep")
    _add_resonator_arg(p)
    _add_window_args(p)
    p.add_argument("--out", help="sweep CSV path ('-' for stdout)")
    p.set_defaults(func=cmd_resonator)

    p = sub.add_parser("compensate", help="zero-phase condition and tank analysis")
    _add_resonator_arg(p)
    _add_network_args(p)
    p.add_argument("--f0", type=_eng, default=None,
                   help="target frequency (default: f_s)")
    p.set_defaults(func=cmd_compensate)

    p = sub.add_parser("noise", help="noise budget, phase noise and FoM")
    _add_resonator_arg(p)
    _add_network_args(p)
    _add_op_args(p)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("design", help="run the full design procedure")
    p.add_argument("--in", dest="infile", required=True, help="design spec document")
    p.add_argument("--out", help="report path ('-' for stdout)")
    p.add_argument("--format", choices=("text", "doc"), default="text")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("ac", help="AC sweep of a netlist via the MNA engine")
    p.add_argument("--in", dest="infile", required=True, help="netlist path")
    p.add_argument("--out", help="CSV path ('-' for stdout)")
    p.set_defaults(func=cmd_ac)

    p = sub.add_parser("sweep", help="parameter sweep with derived metrics")
    _add_resonator_arg(p)
    _add_network_args(p)
    _add_op_args(p)
    p.add_argument("--var", required=True, choices=noise.SWEEP_VARIABLES)
    _add_window_args(p, required=True)
    p.add_argument("--out", help="CSV path ('-' for stdout)")
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps defaults, appended lists and help width per call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        sys.stdout.write(args.func(args))
        return 0
    except design.DesignError as exc:
        print(f"design failed: {exc}", file=sys.stderr)
        return 2
    except (UserError, ValueError, OSError, compensation.NoResonanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
