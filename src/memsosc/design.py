"""End-to-end oscillator design automation.

From a resonator model plus implementation constraints to a complete
report: shunt inductor selection on a realizable grid, bank tuning,
loaded-Q and noise-factor evaluation, active-device sizing and predicted
phase noise / figure of merit.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, replace

from .bvd import (
    Resonator,
    motional_bandwidth,
    quality_factor,
    series_resonance,
)
from .compensation import (
    AlignmentWarning,
    CompensationNetwork,
    effective_resistance,
    find_motional_operating_point,
    first_true,
    motional_mode_capacitance_margin,
    tank_resonance,
    tune_bank,
)
from .noise import DEFAULT_GAMMA, DEFAULT_TEMPERATURE, OscillatorOperatingPoint, evaluate

# Both differential branches of the cross-coupled pair draw the tail
# current through the supply.
SUPPLY_BRANCH_FACTOR = 2.0

# Conventional startup margin over the theoretical minimum g_m*r_res = 2.
STARTUP_MARGIN = 2.5


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
        for name in ("target_f0", "v_osc_target", "q_l0_available", "mu_cox",
                     "gamma", "temperature", "supply", "pn_offset",
                     "l0_grid_step"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        for name in ("parasitic_c", "bank_unit", "c_fix", "bank_size"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, "
                                 f"got {getattr(self, name)}")
        if isinstance(self.bank_size, bool) or not isinstance(self.bank_size,
                                                               numbers.Integral):
            raise ValueError(f"bank_size must be an integer, got {self.bank_size!r}")
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
    """
    if not r_res > 0 or not v_osc > 0 or not mu_cox > 0:
        raise ValueError("inputs must be positive")
    g_m = 2.0 / r_res
    i_bias = v_osc / r_res
    w_over_l = g_m * g_m / (2.0 * i_bias * mu_cox)
    return g_m, i_bias, w_over_l


def _choose_inductor(spec: DesignSpec) -> float:
    """Smallest grid inductor whose bank range can align the tank to f_s.

    Feasibility: the capacitance 1/(w_s^2*L0) required for alignment must
    fall inside [c_base, c_base + bank span] with half a bank unit of
    slack on both sides (midscale centering maximizes margin both ways).
    The required capacitance falls as L0 rises, so only the first grid
    point at or below the top of that window can be feasible.  Its index
    comes in closed form, ceil(L_lo/step) with L_lo = 1/(w_s^2*c_top),
    corrected for rounding by `first_true`; the point is then checked
    against the bottom of the window and the largest sensible inductor.
    """
    res = spec.resonator
    ws = 2.0 * math.pi * series_resonance(res)
    c_base = res.c_0 + spec.parasitic_c + spec.c_fix
    c_span = spec.bank_size * spec.bank_unit
    # floor keeps bankless specs solvable: 0.1% capacitance = 0.05% in
    # frequency, well inside the later mode-margin check for any high-Q part
    slack = max(0.5 * spec.bank_unit, 1e-3 * c_base)
    c_top = c_base + c_span + slack
    # Upper bound: inductor resonating the bare base capacitance.
    l_max = 1.0 / (ws * ws * c_base) * 1.25
    step = spec.l0_grid_step

    def c_needed(k):
        return 1.0 / (ws * ws * (k * step))

    guess = math.ceil(min(1.0 / (ws * ws * c_top) / step, sys.float_info.max))
    k = first_true(lambda k: c_needed(k) <= c_top, 1, math.inf, guess)
    if k * step <= l_max and c_base - slack <= c_needed(k):
        return k * step
    raise DesignError(
        f"no inductor on the {step:.3g} H grid can align the tank: base "
        f"capacitance {c_base:.4g} F, bank span {c_span:.4g} F")


def run_design(spec: DesignSpec) -> DesignReport:
    """Execute the full design procedure; deterministic for identical specs."""
    res = spec.resonator
    fs = series_resonance(res)
    q_rft = quality_factor(res)
    report_warnings: list[str] = []

    l_0 = _choose_inductor(spec)
    comp = CompensationNetwork(
        l_0=l_0, q_l0=spec.q_l0_available, f_ref=spec.target_f0,
        c_fix=spec.parasitic_c + spec.c_fix,
        bank_unit=spec.bank_unit, bank_size=spec.bank_size,
        bank_code=spec.bank_size // 2)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AlignmentWarning)
        code = tune_bank(res, comp)
    comp = replace(comp, bank_code=code)

    f_tank = tank_resonance(res, comp)
    ws = 2.0 * math.pi * fs
    residual_c = abs(comp.branch_capacitance(res) - 1.0 / (ws * ws * l_0))
    margin_c = motional_mode_capacitance_margin(res)
    if residual_c > margin_c:
        raise DesignError(
            f"no bank code keeps the tank within the high-Q operating window: "
            f"residual {residual_c:.4g} F exceeds the {margin_c:.4g} F margin")
    if abs(f_tank - fs) > motional_bandwidth(res):
        report_warnings.append(
            f"residual tank offset {abs(f_tank - fs):.4g} Hz exceeds the "
            f"motional bandwidth; bank unit is coarse relative to the "
            f"resonator linewidth")

    point = find_motional_operating_point(res, comp)
    if point is None:
        raise DesignError("high-Q motional operating point not found after tuning")

    r_res = effective_resistance(res, comp).r_res
    g_m, i_bias, w_over_l = size_active(r_res, spec.v_osc_target, spec.mu_cox)
    ev = evaluate(res, comp, OscillatorOperatingPoint(
        v_osc=spec.v_osc_target, f_0=point[0], delta_f=spec.pn_offset,
        temperature=spec.temperature, gamma=spec.gamma, g_mbias=g_m,
        p_dc=SUPPLY_BRANCH_FACTOR * spec.supply * i_bias))
    q_loaded = ev.q_loaded

    if q_loaded / q_rft < 0.8:
        report_warnings.append(
            f"loaded Q is {q_loaded / q_rft:.2f} of the resonator Q; "
            f"compensation loading is significant")
    if g_m * r_res < STARTUP_MARGIN:
        report_warnings.append(
            f"startup margin g_m*r_res = {g_m * r_res:.2f} is below "
            f"{STARTUP_MARGIN}; size the pair up from the minimum g_m")

    return DesignReport(
        l_0=l_0, r_l0=comp.r_l0, q_l0=comp.q_l0, c_fix=comp.c_fix,
        bank_code=code, bank_size=spec.bank_size,
        f_s=fs, f_tank=f_tank, f_osc=ev.op.f_0,
        r_res=r_res, beta=ev.tank.beta,
        q_loaded=q_loaded, q_resonator=q_rft,
        noise_factor=ev.budget.f_min,
        g_m=g_m, i_bias=i_bias, w_over_l=w_over_l,
        p_dc_estimate=ev.op.p_dc, eta=ev.eta,
        predicted_pn=ev.pn, pn_offset=spec.pn_offset, predicted_fom=ev.fom,
        warnings=tuple(report_warnings))
