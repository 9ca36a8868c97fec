"""Leeson phase noise, oscillator noise-factor decomposition and figures of merit.

All dB-domain quantities are computed directly in dB algebra: a figure is
the sum of the logs of its factors, so the linear forms, which span ~25
orders of magnitude, are never formed and nothing over- or underflows on
the way.  A factor that is not positive and finite, an input's or one
derived from the inputs, raises ValueError naming it.

`evaluate` is the one place where an operating point becomes numbers:
loaded Q from the phase slope at the carrier, the noise budget, the
Leeson phase noise (Leeson, Proc. IEEE 54(2), 1966) and, given the
supply, the DC power, efficiency and physical FoM, all from one
reduction of the tank.  An operating point without a carrier (f_0 =
None) runs at the tank's governing crossing, which `evaluate` finds
itself and refuses, as NoResonanceError, unless it lies above the
offset; its record carries the carrier as f_osc.  The design flow and
the CLI read that record.  `parameter_sweep` is the one sweep route, the
CLI's `sweep` and `sensitivity_sweep` both: it evaluates every point of
a sweep that changes r_res, and a misalignment sweep's first point only,
whose reduction and noise budget a capacitance shift leaves unchanged at
every later one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bvd import (TWO_PI, Resonator, as_float, check_fields, check_positive,
                  series_resonance)
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

# Both differential branches of the cross-coupled pair draw the tail
# current through the supply.
SUPPLY_BRANCH_FACTOR = 2.0

_LOG10_4K = math.log10(4.0 * BOLTZMANN)
_LOG10_2 = math.log10(2.0)


# the positive fields of an operating point, in the order they are checked,
# indexed by [f_0 is None][supply is None]
_OP_POSITIVE = ((("v_osc", "f_0", "delta_f", "temperature", "supply"),
                 ("v_osc", "f_0", "delta_f", "temperature")),
                (("v_osc", "delta_f", "temperature", "supply"),
                 ("v_osc", "delta_f", "temperature")))


@dataclass(frozen=True)
class OscillatorOperatingPoint:
    """Bias and signal conditions of the oscillator core.

    f_0 is the carrier; None runs at the tank's governing crossing (see
    `evaluate`), so the offset is checked against it there.
    """

    v_osc: float
    f_0: float | None
    delta_f: float
    temperature: float = DEFAULT_TEMPERATURE
    gamma: float = DEFAULT_GAMMA
    g_mbias: float | None = None  # None: use the sizing rule 2/r_res
    supply: float | None = None  # volts; None: no DC power, efficiency or FoM

    def __post_init__(self):
        check_fields(self, _OP_POSITIVE[self.f_0 is None][self.supply is None],
                     nonnegative=("gamma",))
        if self.g_mbias is not None:
            object.__setattr__(self, "g_mbias", as_float("g_mbias", self.g_mbias))
            if not math.isfinite(self.g_mbias):
                raise ValueError(f"g_mbias must be finite, got {self.g_mbias}")
        if self.f_0 is not None and not self.delta_f < self.f_0:
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
    flicker term in this model.  ValueError when op gives no carrier f_0.
    """
    if op.f_0 is None:
        raise ValueError("the Leeson prediction needs a carrier: op.f_0 is None")
    check_positive("q_loaded", q_loaded)
    check_positive("noise_factor", noise_factor)
    return _leeson_db(res, q_loaded, op, op.f_0, noise_factor)


def _leeson_db(res: Resonator, q_loaded: float, op: OscillatorOperatingPoint,
               f_0: float, noise_factor: float) -> float:
    """The Leeson dB sum of `leeson_phase_noise` at carrier f_0, for a
    checked q_loaded and noise_factor; op gives the rest."""
    return (10.0 * (math.log10(noise_factor) + _LOG10_4K
                    + math.log10(op.temperature) + math.log10(res.r_m))
            + 20.0 * (math.log10(f_0) - _LOG10_2 - math.log10(q_loaded)
                      - math.log10(op.delta_f) - math.log10(op.v_osc)))


def noise_factor_from(beta: float, r_l0: float, r_m: float,
                      gamma: float, g_mbias: float) -> NoiseBudget:
    """Noise budget from already-reduced quantities.

    f_min = 1 + r_l0/r_m + gamma*beta + gamma*(4/9)*g_mbias*r_m*beta^2.
    ValueError when f_min is not finite.
    """
    f_rl0 = r_l0 / r_m
    f_active = gamma * beta + gamma * (4.0 / 9.0) * g_mbias * r_m * beta * beta
    f_min = 1.0 + f_rl0 + f_active
    if not abs(f_min) < math.inf:
        raise ValueError(f"the noise factor is not finite for gamma = {gamma!r} "
                         f"and g_mbias = {g_mbias!r} S")
    return NoiseBudget(f_unity=1.0, f_rl0=f_rl0, f_active=f_active,
                       f_min=f_min, beta=beta)


def fom_from_measurement(phase_noise_dbchz: float, f_0: float,
                         delta_f: float, p_dc: float) -> float:
    """Figure of merit from a measured/predicted phase-noise number.

    -PN + 20*log10(f_0/delta_f) - 10*log10(p_dc/1 mW), in dBc/Hz.
    """
    for name, value in (("f_0", f_0), ("delta_f", delta_f), ("p_dc", p_dc)):
        check_positive(name, value)
    return (-phase_noise_dbchz + 20.0 * (math.log10(f_0) - math.log10(delta_f))
            - 10.0 * math.log10(p_dc) - 30.0)  # p_dc in dBm


def fom_physical(q_loaded: float, beta: float, eta: float,
                 noise_factor: float, temperature: float = DEFAULT_TEMPERATURE) -> float:
    """FoM from tank and efficiency physics: 10*log10[2*beta*eta*Q_L^2/(kTF)*1e-3]."""
    for name, value in (("q_loaded", q_loaded), ("beta", beta), ("eta", eta),
                        ("noise_factor", noise_factor), ("temperature", temperature)):
        check_positive(name, value)
    return _fom_db(q_loaded, beta, eta, noise_factor, temperature)


def _fom_db(q_loaded: float, beta: float, eta: float, noise_factor: float,
            temperature: float) -> float:
    """The dB sum of `fom_physical` for checked positive, finite factors;
    ValueError when eta exceeds 1."""
    if eta > 1:
        raise ValueError("eta cannot exceed 1")
    return 10.0 * (math.log10(2e-3 / BOLTZMANN) + math.log10(beta) + math.log10(eta)
                   + 2.0 * math.log10(q_loaded) - math.log10(temperature)
                   - math.log10(noise_factor))


def fom_max(q_loaded: float, beta: float) -> float:
    """Upper FoM bound for a lossless-drive, 100%-efficient oscillator."""
    check_positive("q_loaded", q_loaded)
    check_positive("beta", beta)
    return FOM_MAX_CONSTANT_DB + 20.0 * math.log10(q_loaded) + 10.0 * math.log10(beta)


@dataclass(frozen=True)
class Evaluation:
    """The oscillator's figures at one operating point."""

    op: OscillatorOperatingPoint
    f_osc: float  # Hz: op.f_0, or the governing crossing when op.f_0 is None
    tank: TankAnalysis
    q_loaded: float
    budget: NoiseBudget
    pn: float  # dBc/Hz at op.delta_f
    p_dc: float | None = None  # W; None unless op.supply is given
    eta: float | None = None
    fom: float | None = None


def _governing_carrier(res: Resonator, comp: CompensationNetwork, delta_f: float) -> float:
    """Frequency of the tank's governing crossing (`find_operating_point`);
    NoResonanceError unless it lies above the offset delta_f."""
    f_op, _, _ = find_operating_point(res, comp)
    if not f_op > delta_f:
        raise NoResonanceError(f"the governing crossing at {f_op!r} Hz is not "
                               f"above the {delta_f!r} Hz offset")
    return f_op


def evaluate(res: Resonator, comp: CompensationNetwork,
             op: OscillatorOperatingPoint) -> Evaluation:
    """Loaded Q, noise budget, phase noise and (given op.supply) P_DC and FoM
    at one carrier, which the record keeps as f_osc.

    The carrier is op.f_0 when given.  With op.f_0 = None it is the
    governing crossing, found first (`find_operating_point`, whose refusals
    it shares), and NoResonanceError when that crossing is not above
    op.delta_f.  One reduction of the tank gives r_res, for the
    minimum-g_m rule 2/r_res (without op.g_mbias) and for P_DC =
    SUPPLY_BRANCH_FACTOR*supply*v_osc/r_res.  ValueError naming v_osc or
    the supply when the signal power, or P_DC or the efficiency, is out of
    range.
    """
    f_0 = _governing_carrier(res, comp, op.delta_f) if op.f_0 is None else op.f_0
    tank = effective_resistance(res, comp)
    q_loaded = phase_slope_q(res, comp, f_0)
    g_mbias = 2.0 / tank.r_res if op.g_mbias is None else op.g_mbias
    budget = noise_factor_from(tank.beta, comp.r_l0, res.r_m, op.gamma, g_mbias)
    pn = _leeson_db(res, check_positive("q_loaded", q_loaded), op, f_0,
                    check_positive("noise_factor", budget.f_min))
    if op.supply is None:
        return Evaluation(op, f_0, tank, q_loaded, budget, pn)
    p_out = op.v_osc * op.v_osc / (2.0 * tank.r_res)
    if not 0 < p_out < math.inf:
        raise ValueError(f"v_osc = {op.v_osc!r} V puts the signal power "
                         f"v_osc^2/(2*r_res) out of floating-point range")
    p_dc = SUPPLY_BRANCH_FACTOR * op.supply * (op.v_osc / tank.r_res)
    eta = p_out / p_dc if p_dc else math.inf
    if not (0 < p_dc < math.inf and 0 < eta < math.inf):
        raise ValueError(f"supply = {op.supply!r} V puts the DC power or the efficiency "
                         f"out of floating-point range")
    # q_loaded, eta, the noise factor and the temperature are checked by now;
    # beta = r_res/r_m can still underflow to zero
    fom = _fom_db(q_loaded, check_positive("beta", tank.beta), eta, budget.f_min,
                  op.temperature)
    return Evaluation(op, f_0, tank, q_loaded, budget, pn, p_dc, eta, fom)


SWEEP_VARIABLES = ("q_rft", "delta_c", "q_l0", "l_0")


def parameter_sweep(res: Resonator, comp: CompensationNetwork,
                    op: OscillatorOperatingPoint, var: str,
                    values) -> list[tuple[float, float, float, float, float | None]]:
    """The oscillator's figures as one variable of SWEEP_VARIABLES moves.

    Each value rebuilds one record: `delta_c` adds to the network's c_fix,
    `q_l0` and `l_0` replace that network field, and `q_rft` rescales the
    resonator's l_m and c_m to that motional Q at the same f_s and r_m.
    Every point runs at its own governing crossing, as `evaluate` finds it
    for an operating point without a carrier (which the bank tuning
    targets while the motional mode exists); op.f_0 is ignored.  Returns
    (value, q_loaded, beta, pn, fom) rows in input order, each with the
    bits of `evaluate` at that point's crossing; fom is None without
    op.supply.  NoResonanceError when a point has no crossing, or its
    governing one is not above op.delta_f; ValueError for an unknown
    variable, a value its record refuses, or a q_rft sweep whose
    (2*pi*f_s)^2 overflows.

    A shift of c_fix leaves r_res, beta, the noise budget and P_DC as they
    are, so a `delta_c` sweep runs the full `evaluate` at its first point,
    which raises every refusal of theirs there, and later points reuse its
    reduction and budget: each pays for its operating point, loaded Q,
    Leeson sum and FoM.  The other variables change r_res, so each of their
    points runs `evaluate`.  The sweep builds no operating point per value:
    one without a carrier serves every point.
    """
    if var not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {var!r}; "
                         f"choose from {', '.join(SWEEP_VARIABLES)}")
    if var == "q_rft":
        fs = series_resonance(res)
        ws = TWO_PI * fs
        try:
            ws2 = ws ** 2
        except OverflowError:
            raise ValueError(f"(2*pi*f_s)^2 overflows the float range "
                             f"for f_s = {fs!r} Hz") from None
    if op.f_0 is not None:
        op = replace(op, f_0=None)
    reuse = var == "delta_c"
    out = []
    ev = None
    res_v = res
    for v in map(float, values):
        if reuse:
            # field by field, at half the cost of dataclasses.replace; the
            # network still refuses a negative c_fix at every point
            comp_v = CompensationNetwork(comp.l_0, comp.q_l0, comp.f_ref, comp.c_fix + v,
                                         comp.bank_unit, comp.bank_size, comp.bank_code)
        elif var == "q_l0":
            comp_v = replace(comp, q_l0=v)
        elif var == "l_0":
            comp_v = replace(comp, l_0=v)
        else:
            l_m = v * res.r_m / ws
            res_v, comp_v = replace(res, l_m=l_m, c_m=1.0 / (ws2 * l_m)), comp
        if ev is None or not reuse:
            ev = evaluate(res_v, comp_v, op)
            out.append((v, ev.q_loaded, ev.tank.beta, ev.pn, ev.fom))
            continue
        # a later delta_c point: the first point's reduction and budget hold
        f_op = _governing_carrier(res_v, comp_v, op.delta_f)
        q_loaded = check_positive("q_loaded", phase_slope_q(res_v, comp_v, f_op))
        beta, f_min = ev.tank.beta, ev.budget.f_min
        out.append((v, q_loaded, beta, _leeson_db(res, q_loaded, op, f_op, f_min),
                    None if ev.eta is None
                    else _fom_db(q_loaded, beta, ev.eta, f_min, op.temperature)))
    return out


def sensitivity_sweep(res: Resonator, comp: CompensationNetwork,
                      op: OscillatorOperatingPoint,
                      delta_c_range) -> list[tuple[float, float]]:
    """Phase-noise penalty of tank misalignment: the (delta_c, pn) pairs of
    `parameter_sweep` over `delta_c`, whose refusals it shares.

    Each delta-C is added to the capacitive branch and the oscillator is
    assumed to hold the tuned high-Q motional mode while that mode exists;
    once it vanishes only the low-Q LC-branch operating point remains and
    the prediction collapses accordingly.
    """
    return [(dc, pn) for dc, _, _, pn, _ in parameter_sweep(res, comp, op, "delta_c",
                                                             delta_c_range)]
