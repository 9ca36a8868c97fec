"""Command-line surface.

Subcommands: resonator, compensate, noise, design, ac, sweep.  Every
report prints the defaults it used so any quoted number is reproducible.
Exit codes: 0 success, 1 input error (an OS error reading an input or
writing `--out` included), 2 design failure or argparse usage error.
`main` is the one place where an error becomes an exit code and a line.

numpy is imported only by the subcommands that return arrays: `ac` and
`resonator --out`.  Every subcommand but `ac` evaluates one frequency at
a time in Python floats; `sweep` spaces its values with `bvd.grid`, as
Python floats, so each row has the bits `noise` and `compensate` print
for the same parameters, and it runs without numpy.  `--points` is
bounded by `bvd.MAX_AC_POINTS`, and a count outside the bounds is
refused before anything is printed.  `sweep` only parses and formats:
`noise.parameter_sweep` rebuilds the records for each `--var` value and
evaluates the point, and a crossing at or below the offset ends the
sweep with exit 1.  `resonator --out PATH` writes the file before it
prints the report, so a failed write prints none.

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


def _emit(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        iodoc.atomic_write_text(path, text)


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


def _operating_point(args, f_0: float, offset: float) -> noise.OscillatorOperatingPoint:
    """The oscillator biased as the options say, at carrier f_0."""
    return noise.OscillatorOperatingPoint(
        v_osc=args.vosc, f_0=f_0, delta_f=offset, temperature=args.temp,
        gamma=args.gamma, g_mbias=args.gmbias, supply=args.supply)


# --- subcommands ---------------------------------------------------------

def cmd_resonator(args) -> int:
    res = iodoc.resolve_resonator(args.resonator)
    if args.out is not None:
        # the whole sweep is checked and computed, and a path written,
        # before the report prints: a failed write prints no report
        if args.f_from is None or args.f_to is None:
            raise UserError("--out needs a frequency range (--from/--to)")
        _check_points(args, bvd.MIN_SWEEP_POINTS)
        csv = iodoc.response_csv(bvd.sweep(res, args.f_from, args.f_to, args.points,
                                           log=args.log))
        if args.out != "-":
            _emit(args.out, csv)
    fs = bvd.series_resonance(res)
    fp = bvd.parallel_resonance(res)
    q = bvd.quality_factor(res)
    kt2 = bvd.coupling_coefficient(res)
    xc0 = bvd.static_reactance(res, fs)
    print(_defaults_header())
    print(f"resonator      : {res.label or args.resonator}")
    print(f"f_s            : {fs!r} Hz")
    print(f"f_p            : {fp!r} Hz")
    print(f"Q              : {q!r}")
    print(f"kt^2 (cm/c0)   : {kt2!r}")
    print(f"|X_C0| at f_s  : {xc0!r} ohm")
    print(f"|X_C0| / R_m   : {xc0 / res.r_m!r}")
    if args.out == "-":
        _emit(args.out, csv)
    return 0


def cmd_compensate(args) -> int:
    res = iodoc.resolve_resonator(args.resonator)
    f_0 = args.f0 if args.f0 is not None else bvd.series_resonance(res)
    print(_defaults_header())
    try:
        c0_zero = compensation.zero_phase_c0(res, f_0)
        print(f"zero-phase C0 at {format_eng(f_0)}Hz : {c0_zero!r} F")
    except compensation.NoSolutionError as exc:
        print(f"zero-phase C0 at {format_eng(f_0)}Hz : {exc}")
    print(f"suggested L0 for bare c_0     : "
          f"{compensation.shunt_inductor_for(res.c_0, f_0)!r} H")
    comp = _load_network(args, res)
    f_op, _, mode = compensation.find_operating_point(res, comp)
    tank = compensation.effective_resistance(res, comp)
    q_loaded = compensation.phase_slope_q(res, comp, f_op)
    print(f"r_res          : {tank.r_res!r} ohm")
    print(f"beta           : {tank.beta!r}")
    print(f"Q_L (phase slope): {q_loaded!r}")
    print(f"f_tank         : {compensation.tank_resonance(res, comp)!r} Hz")
    print(f"window         : {compensation.window_fraction(res, comp)!r}")
    print(f"dominant mode  : {mode}")
    return 0


def cmd_noise(args) -> int:
    res = iodoc.resolve_resonator(args.resonator)
    comp = _load_network(args, res)
    offsets = args.offsets or list(DEFAULT_OFFSETS)
    f_op, _, _ = compensation.find_operating_point(res, comp)
    ev = noise.evaluate(res, comp, _operating_point(args, f_op, offsets[0]))
    op, budget = ev.op, ev.budget
    print(_defaults_header(op))
    print(f"f_osc          : {op.f_0!r} Hz")
    print(f"Q_L            : {ev.q_loaded!r}")
    print(f"beta           : {ev.tank.beta!r}")
    print(f"F_RL0          : {budget.f_rl0!r}")
    print(f"F_active       : {budget.f_active!r}")
    print(f"F_min          : {budget.f_min!r}")
    for off in offsets:
        pn = noise.leeson_phase_noise(res, ev.q_loaded, replace(op, delta_f=off),
                                      budget.f_min)
        print(f"PN @ {format_eng(off)}Hz : {pn!r} dBc/Hz")
    print(f"FoM (physical) : {ev.fom!r} dBc/Hz  "
          f"[p_dc = {ev.p_dc!r} W, eta = {ev.eta!r}]")
    print(f"FoM (from PN)  : "
          f"{noise.fom_from_measurement(ev.pn, op.f_0, op.delta_f, ev.p_dc)!r}"
          f" dBc/Hz")
    print(f"FoM (maximum)  : {noise.fom_max(ev.q_loaded, ev.tank.beta)!r} dBc/Hz")
    return 0


def cmd_design(args) -> int:
    spec = iodoc.designspec_from_document(iodoc.load_document(args.infile))
    report = design.run_design(spec)
    if args.format == "doc":
        _emit(args.out, iodoc.report_document(report))
        return 0
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
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_ac(args) -> int:
    from . import mna

    text = Path(args.infile).read_text()
    try:
        netlist = mna.parse_netlist(text)
    except mna.NetlistError as exc:
        raise UserError("netlist errors:\n" + "\n".join(str(d) for d in exc.diagnostics))
    _emit(args.out, iodoc.response_csv(mna.ac_sweep(netlist)))
    return 0


def cmd_sweep(args) -> int:
    _check_points(args, 1)
    res = iodoc.resolve_resonator(args.resonator)
    comp = _load_network(args, res)
    values = bvd.grid(args.f_from, args.f_to, args.points, log=args.log)
    # the sweep finds each point's carrier; the largest float keeps every
    # finite offset below this placeholder, so the sweep alone refuses one
    op = _operating_point(args, sys.float_info.max, args.offsets[0] if args.offsets else 1e6)
    lines = [f"{args.var},q_l,beta,pn_dbchz,fom_dbchz"]
    for row in noise.parameter_sweep(res, comp, op, args.var, values):
        lines.append(",".join(repr(float(x)) for x in row))
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


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
        return args.func(args)
    except design.DesignError as exc:
        print(f"design failed: {exc}", file=sys.stderr)
        return 2
    except (UserError, ValueError, OSError, compensation.NoResonanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
