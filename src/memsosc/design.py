"""End-to-end oscillator design automation.

From a resonator model plus implementation constraints to a complete
report: shunt inductor and bank code, loaded-Q and noise-factor
evaluation, active-device sizing and predicted phase noise / figure of
merit.  The inductor and the code are picked together on the lossy
window centre (see `_choose_inductor`), and the window fraction of that
choice is the one alignment rule: beyond +-1 the design is refused.
`noise.evaluate` reduces the tank once and derives P_DC from the supply;
the report's sizing reads r_res from that evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bvd import (
    TWO_PI,
    Resonator,
    check_fields,
    check_positive,
    quality_factor,
    series_resonance,
)
from .compensation import (
    CompensationNetwork,
    NoResonanceError,
    bank_alignment,
    find_operating_point,
    loss_resistance,
    motional_mode_capacitance_margin,
    tank_resonance,
    window_fraction,
)
from .noise import DEFAULT_GAMMA, DEFAULT_TEMPERATURE, OscillatorOperatingPoint, evaluate

# |window fraction| beyond which a design reports its capacitance tolerance.
WINDOW_WARNING = 0.5


class DesignError(RuntimeError):
    """The requested design cannot be completed; message carries the diagnosis."""


@dataclass(frozen=True)
class DesignSpec:
    """Inputs of a design run."""

    resonator: Resonator
    target_f0: float
    v_osc_target: float
    parasitic_c: float
    q_l0_available: float
    bank_unit: float
    bank_size: int
    c_fix: float = 10e-15
    mu_cox: float = 200e-6
    gamma: float = DEFAULT_GAMMA
    temperature: float = DEFAULT_TEMPERATURE
    supply: float = 0.8
    pn_offset: float = 1e6
    l0_grid_step: float = 25e-12

    def __post_init__(self):
        check_fields(self, positive=("target_f0", "v_osc_target", "q_l0_available",
                                     "mu_cox", "gamma", "temperature", "supply",
                                     "pn_offset", "l0_grid_step"),
                     nonnegative=("parasitic_c", "bank_unit", "c_fix"), counts=("bank_size",))
        fs = series_resonance(self.resonator)
        if not 0.5 * fs <= self.target_f0 <= 1.5 * fs:
            raise ValueError("target_f0 must lie within [0.5, 1.5] of the "
                             "resonator series resonance")


@dataclass(frozen=True)
class DesignReport:
    """Complete record of one design run."""

    l_0: float
    r_l0: float
    q_l0: float
    c_fix: float
    bank_code: int
    bank_size: int
    f_s: float
    f_tank: float
    f_osc: float
    r_res: float
    beta: float
    q_loaded: float
    q_resonator: float
    noise_factor: float
    g_m: float
    i_bias: float
    w_over_l: float
    p_dc_estimate: float
    eta: float
    predicted_pn: float
    pn_offset: float
    predicted_fom: float
    warnings: tuple[str, ...] = ()


def size_active(r_res: float, v_osc: float, mu_cox: float):
    """Initial cross-coupled pair sizing: (g_m, i_bias, w_over_l).

    g_m = 2/r_res, i_bias = v_osc/r_res, w_over_l = g_m^2/(2*i_bias*mu_cox).
    ValueError naming the first argument that is not positive and finite,
    or naming mu_cox when w_over_l leaves the float range.
    """
    return _sizing(check_positive("r_res", r_res), check_positive("v_osc", v_osc),
                   check_positive("mu_cox", mu_cox))


def _sizing(r_res: float, v_osc: float, mu_cox: float):
    """`size_active` for checked positive, finite Python floats."""
    g_m = 2.0 / r_res
    i_bias = v_osc / r_res
    drive = 2.0 * i_bias * mu_cox
    w_over_l = g_m * g_m / drive if drive else math.inf
    if not w_over_l < math.inf:
        raise ValueError(f"mu_cox = {mu_cox!r} puts W/L out of floating-point range "
                         f"for r_res = {r_res!r} ohm and v_osc = {v_osc!r} V")
    return g_m, i_bias, w_over_l


def _choose_inductor(spec: DesignSpec) -> CompensationNetwork:
    """Smallest grid inductor whose bank reaches the high-Q window centre,
    with its bank tuned.

    The lossy inductor cancels the branch capacitance at w_s when that is
    the window centre 1/(L0*kappa), kappa = w_s^2 + (w_ref/q_l0)^2 with
    q_l0 given at w_ref = 2*pi*target_f0, which falls as L0 rises.  The
    top code reaches c_base + (bank_size + 1/2) bank units (c_base alone
    without a bank), so the first grid index k whose centre lies within
    reach comes in closed form, ceil(1/(kappa*reach*step)), corrected by
    one step for rounding.  When even code 0 at k leaves the tank above
    the centre, the grid point below, tuned, is taken if it lies strictly
    nearer.  Each candidate is weighed in Python floats, r_l0 by
    `loss_resistance` and its code and window fraction by
    `bank_alignment`, so only the chosen network is built, and it refuses
    what a network refuses.  Whether the choice lies inside the window is
    `run_design`'s one refusal.
    """
    res = spec.resonator
    ws = TWO_PI * series_resonance(res)
    loss = TWO_PI * spec.target_f0 / spec.q_l0_available
    kappa = ws * ws + loss * loss
    reach = res.c_0 + spec.parasitic_c + spec.c_fix
    if spec.bank_size:
        reach += (spec.bank_size + 0.5) * spec.bank_unit
    step = spec.l0_grid_step
    guess = 1.0 / (kappa * reach * step)
    if not guess < math.inf:
        raise DesignError(f"l0_grid_step {step!r} H is too fine to index the "
                          f"inductor grid")
    k = max(math.ceil(guess), 1)
    # grid point k is the first whose window centre, 1/(kappa*L0), is in reach
    if k > 1 and 1.0 / (kappa * ((k - 1) * step)) <= reach:
        k -= 1
    elif not 1.0 / (kappa * (k * step)) <= reach:
        k += 1

    q_l0, f_ref, unit, size = (spec.q_l0_available, spec.target_f0, spec.bank_unit,
                               spec.bank_size)
    c_fix = spec.parasitic_c + spec.c_fix
    c_base = res.c_0 + c_fix
    l_0 = k * step
    r_l0 = loss_resistance(l_0, q_l0, f_ref)
    code = 0
    # a grid point whose l_0, c_fix or r_l0 is not finite goes straight to
    # the network build, which refuses it
    if r_l0 < math.inf and c_fix < math.inf:
        code, fraction = bank_alignment(res, l_0, r_l0, c_base, unit, size)
        if k > 1 and code == 0 and fraction > 0:
            l_below = (k - 1) * step
            code_below, below = bank_alignment(
                res, l_below, loss_resistance(l_below, q_l0, f_ref), c_base, unit, size)
            if abs(below) < abs(fraction):  # strictly nearer
                l_0, code = l_below, code_below
    return CompensationNetwork(l_0=l_0, q_l0=q_l0, f_ref=f_ref, c_fix=c_fix, bank_unit=unit,
                               bank_size=size, bank_code=code)


def run_design(spec: DesignSpec) -> DesignReport:
    """Execute the full design procedure; deterministic for identical specs."""
    res = spec.resonator
    fs = series_resonance(res)
    q_rft = quality_factor(res)
    report_warnings: list[str] = []

    comp = _choose_inductor(spec)
    code = comp.bank_code
    window = window_fraction(res, comp)
    if abs(window) > 1.0:
        raise DesignError(
            f"no bank code keeps the tank within the high-Q operating window: "
            f"code {code} leaves it at window fraction {window:+.4g}")
    if abs(window) > WINDOW_WARNING:
        margin_c = motional_mode_capacitance_margin(res)
        report_warnings.append(
            f"bank code {code} sits at window fraction {window:+.2f}; "
            f"the motional mode survives {(1.0 - window) * margin_c:.3g} F more or "
            f"{(1.0 + window) * margin_c:.3g} F less branch capacitance")

    try:
        f_osc, _, mode = find_operating_point(res, comp)
    except NoResonanceError:  # no crossing at all, so no motional one either
        mode = None
    if mode != "motional":
        raise DesignError("high-Q motional operating point not found after tuning")

    ev = evaluate(res, comp, OscillatorOperatingPoint(
        v_osc=spec.v_osc_target, f_0=f_osc, delta_f=spec.pn_offset,
        temperature=spec.temperature, gamma=spec.gamma, supply=spec.supply))
    # the tank reduction checked r_res, and the spec its v_osc and mu_cox
    g_m, i_bias, w_over_l = _sizing(ev.tank.r_res, spec.v_osc_target, spec.mu_cox)
    if ev.q_loaded / q_rft < 0.8:
        report_warnings.append(
            f"loaded Q is {ev.q_loaded / q_rft:.2f} of the resonator Q; "
            f"compensation loading is significant")

    return DesignReport(
        l_0=comp.l_0, r_l0=comp.r_l0, q_l0=comp.q_l0, c_fix=comp.c_fix,
        bank_code=code, bank_size=spec.bank_size,
        f_s=fs, f_tank=tank_resonance(res, comp), f_osc=ev.op.f_0,
        r_res=ev.tank.r_res, beta=ev.tank.beta,
        q_loaded=ev.q_loaded, q_resonator=q_rft,
        noise_factor=ev.budget.f_min,
        g_m=g_m, i_bias=i_bias, w_over_l=w_over_l,
        p_dc_estimate=ev.p_dc, eta=ev.eta,
        predicted_pn=ev.pn, pn_offset=spec.pn_offset, predicted_fom=ev.fom,
        warnings=tuple(report_warnings))
