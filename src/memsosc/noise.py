"""Leeson phase noise, oscillator noise-factor decomposition and figures of merit.

All dB-domain quantities are computed directly in dB algebra; the linear
forms span ~25 orders of magnitude and are never round-tripped.

`evaluate` is the one place where an operating point becomes numbers:
loaded Q from the phase slope at f_0, the noise budget, the Leeson phase
noise (Leeson, Proc. IEEE 54(2), 1966) and, given the DC power, the
efficiency and the physical FoM.  The design flow, the misalignment sweep
and the CLI all read its record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bvd import Resonator
from .compensation import (
    CompensationNetwork,
    NoResonanceError,
    TankAnalysis,
    effective_resistance,
    find_operating_point,
    phase_slope_q,
)

BOLTZMANN = 1.380649e-23

# Literal constant of the maximum-FoM formula; 10*log10(2e-3/kT) at 300 K
# evaluates to 176.84, the quotable rounded form uses 176.8.
FOM_MAX_CONSTANT_DB = 176.8

DEFAULT_TEMPERATURE = 300.0
DEFAULT_GAMMA = 1.0


@dataclass(frozen=True)
class OscillatorOperatingPoint:
    """Bias and signal conditions of the oscillator core."""

    v_osc: float
    f_0: float
    delta_f: float
    temperature: float = DEFAULT_TEMPERATURE
    gamma: float = DEFAULT_GAMMA
    g_mbias: float | None = None  # None: use the sizing rule 2/r_res
    p_dc: float | None = None  # None: no efficiency or FoM

    def __post_init__(self):
        for name in ("v_osc", "f_0", "delta_f", "temperature"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be non-negative and finite, got {self.gamma}")
        if self.g_mbias is not None and not math.isfinite(self.g_mbias):
            raise ValueError(f"g_mbias must be finite, got {self.g_mbias}")
        if self.p_dc is not None and not 0 < self.p_dc < math.inf:
            raise ValueError(f"p_dc must be positive and finite, got {self.p_dc}")
        if not self.delta_f < self.f_0:
            raise ValueError(f"offset {self.delta_f!r} Hz must be below the "
                             f"carrier {self.f_0!r} Hz")


@dataclass(frozen=True)
class NoiseBudget:
    """Noise factor split into resonator-loss, inductor-loss and active parts."""

    f_unity: float
    f_rl0: float
    f_active: float
    f_min: float
    beta: float


def leeson_phase_noise(res: Resonator, q_loaded: float,
                       op: OscillatorOperatingPoint,
                       noise_factor: float = 1.0) -> float:
    """White-noise region Leeson prediction in dBc/Hz.

    10*log10[F * 4kT*r_m/v_osc^2 * (f_0/(2*Q_L*delta_f))^2]; there is no
    flicker term in this model.
    """
    if not q_loaded > 0:
        raise ValueError("q_loaded must be positive")
    if not noise_factor > 0:
        raise ValueError("noise_factor must be positive")
    ratio = op.f_0 / (2.0 * q_loaded * op.delta_f)
    lin = (noise_factor * 4.0 * BOLTZMANN * op.temperature * res.r_m
           / (op.v_osc * op.v_osc))
    return 10.0 * math.log10(lin) + 20.0 * math.log10(ratio)


def noise_factor_from(beta: float, r_l0: float, r_m: float,
                      gamma: float, g_mbias: float) -> NoiseBudget:
    """Noise budget from already-reduced quantities.

    f_min = 1 + r_l0/r_m + gamma*beta + gamma*(4/9)*g_mbias*r_m*beta^2.
    """
    f_rl0 = r_l0 / r_m
    f_active = gamma * beta + gamma * (4.0 / 9.0) * g_mbias * r_m * beta * beta
    return NoiseBudget(f_unity=1.0, f_rl0=f_rl0, f_active=f_active,
                       f_min=1.0 + f_rl0 + f_active, beta=beta)


def noise_factor_components(res: Resonator, comp: CompensationNetwork,
                            op: OscillatorOperatingPoint) -> NoiseBudget:
    """Noise budget of the compensated oscillator at its operating point."""
    tank = effective_resistance(res, comp)
    g_mbias = op.g_mbias
    if g_mbias is None:
        g_mbias = 2.0 / tank.r_res  # minimum-g_m sizing rule
    return noise_factor_from(tank.beta, comp.r_l0, res.r_m, op.gamma, g_mbias)


def fom_from_measurement(phase_noise_dbchz: float, f_0: float,
                         delta_f: float, p_dc: float) -> float:
    """Figure of merit from a measured/predicted phase-noise number.

    -PN + 20*log10(f_0/delta_f) - 10*log10(p_dc/1 mW), in dBc/Hz.
    """
    if not p_dc > 0:
        raise ValueError("p_dc must be positive")
    return (-phase_noise_dbchz
            + 20.0 * math.log10(f_0 / delta_f)
            - 10.0 * math.log10(p_dc / 1e-3))


def fom_physical(q_loaded: float, beta: float, eta: float,
                 noise_factor: float, temperature: float = DEFAULT_TEMPERATURE) -> float:
    """FoM from tank and efficiency physics: 10*log10[2*beta*eta*Q_L^2/(kTF)*1e-3]."""
    for name, v in (("q_loaded", q_loaded), ("beta", beta), ("eta", eta),
                    ("noise_factor", noise_factor), ("temperature", temperature)):
        if not v > 0:
            raise ValueError(f"{name} must be positive")
    if eta > 1:
        raise ValueError("eta cannot exceed 1")
    lin = (2.0 * beta * eta * q_loaded * q_loaded
           / (BOLTZMANN * temperature * noise_factor) * 1e-3)
    return 10.0 * math.log10(lin)


def fom_max(q_loaded: float, beta: float) -> float:
    """Upper FoM bound for a lossless-drive, 100%-efficient oscillator."""
    if not q_loaded > 0 or not beta > 0:
        raise ValueError("q_loaded and beta must be positive")
    return (FOM_MAX_CONSTANT_DB + 20.0 * math.log10(q_loaded)
            + 10.0 * math.log10(beta))


@dataclass(frozen=True)
class Evaluation:
    """The oscillator's figures at one operating point."""

    op: OscillatorOperatingPoint
    tank: TankAnalysis
    q_loaded: float
    budget: NoiseBudget
    pn: float  # dBc/Hz at op.delta_f
    eta: float | None = None  # None unless op.p_dc is given
    fom: float | None = None


def evaluate(res: Resonator, comp: CompensationNetwork,
             op: OscillatorOperatingPoint) -> Evaluation:
    """Loaded Q, noise budget, phase noise and (given op.p_dc) FoM at op.f_0.

    op.f_0 is the operating frequency: the caller picks the zero-phase point
    (find_operating_point, find_motional_operating_point) once.
    """
    tank = effective_resistance(res, comp)
    q_loaded = phase_slope_q(res, comp, op.f_0)
    budget = noise_factor_components(res, comp, op)
    pn = leeson_phase_noise(res, q_loaded, op, budget.f_min)
    if op.p_dc is None:
        return Evaluation(op, tank, q_loaded, budget, pn)
    eta = op.v_osc ** 2 / (2.0 * tank.r_res) / op.p_dc
    fom = fom_physical(q_loaded, tank.beta, eta, budget.f_min, op.temperature)
    return Evaluation(op, tank, q_loaded, budget, pn, eta, fom)


def sensitivity_sweep(res: Resonator, comp: CompensationNetwork,
                      op: OscillatorOperatingPoint,
                      delta_c_range) -> list[tuple[float, float]]:
    """Phase-noise penalty of tank misalignment.

    Each delta-C is added to the capacitive branch and the oscillator is
    assumed to hold the tuned high-Q motional mode while that mode exists
    (the bank tuning targets it); once it vanishes only the low-Q LC-branch
    operating point remains and the prediction collapses accordingly.
    NoResonanceError when a point has no crossing, or its governing one is
    not above op.delta_f.  Returns (delta_c, phase_noise_dbchz) pairs in
    input order.
    """
    out = []
    for dc in map(float, delta_c_range):
        shifted = replace(comp, c_fix=comp.c_fix + dc)
        f_op, _, _ = find_operating_point(res, shifted)
        if not f_op > op.delta_f:
            raise NoResonanceError(f"the governing crossing at {f_op!r} Hz is not "
                                   f"above the {op.delta_f!r} Hz offset")
        out.append((dc, evaluate(res, shifted, replace(op, f_0=f_op)).pn))
    return out
