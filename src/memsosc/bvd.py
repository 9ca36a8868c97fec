"""Butterworth-Van Dyke one-port resonator model.

A resonator is the series motional branch (r_m, l_m, c_m) shunted by the
static transducer capacitance c_0.  All values are SI base units; the
document loader handles engineering suffixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Resonator:
    """BVD parameter set: the electrical identity of a mechanical resonator."""

    r_m: float
    l_m: float
    c_m: float
    c_0: float
    label: str = ""

    def __post_init__(self):
        for name in ("r_m", "l_m", "c_m", "c_0"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not self.c_m / self.c_0 < 1:
            raise ValueError("coupling coefficient c_m/c_0 must be below unity")


@dataclass(frozen=True)
class ComplexResponse:
    """A frequency grid with complex impedance samples.

    NaN samples mark gap points (e.g. exactly singular lossless resonances).
    """

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if freqs.size == 0:
            raise ValueError("empty frequency grid")
        if freqs.shape != vals.shape:
            raise ValueError("frequency grid and samples differ in length")
        if not np.all(np.diff(freqs) > 0):
            raise ValueError("frequency grid must be strictly increasing")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    def phase_deg(self) -> np.ndarray:
        return np.degrees(np.angle(self.values))

    def __len__(self) -> int:
        return self.frequencies.size


def check_frequency(f) -> np.ndarray:
    """f as a float array; raises ValueError unless every entry is positive
    and finite."""
    f = np.asarray(f, dtype=float)
    if f.ndim == 0:
        # the root polish and the phase slope pass one frequency at a time,
        # tens of times per operating point: compare it as a Python float
        ok = 0 < f.item() < math.inf
    else:
        # a NaN entry makes min() NaN, which fails the comparison
        ok = f.size == 0 or 0 < f.min() <= f.max() < math.inf
    if not ok:
        raise ValueError("frequency must be positive and finite")
    return f


def series_resonance(res: Resonator) -> float:
    """Motional series resonance 1/(2*pi*sqrt(l_m*c_m))."""
    return 1.0 / (TWO_PI * math.sqrt(res.l_m * res.c_m))


def parallel_resonance(res: Resonator) -> float:
    """Antiresonance of the full one-port, f_s*(1 + c_m/(2*c_0))."""
    return series_resonance(res) * (1.0 + res.c_m / (2.0 * res.c_0))


def quality_factor(res: Resonator) -> float:
    """Series-branch quality factor omega_s*l_m/r_m."""
    return TWO_PI * series_resonance(res) * res.l_m / res.r_m


def coupling_coefficient(res: Resonator) -> float:
    """Electromechanical coupling kt^2 = c_m/c_0."""
    return res.c_m / res.c_0


def motional_detuning(res: Resonator, f) -> float | np.ndarray:
    """omega^2*l_m*c_m - 1, evaluated as (f-f_s)(f+f_s)/f_s^2.

    The factored form keeps full precision through the resonance where the
    naive product cancels catastrophically (a Q of 1e4 leaves ~3 MHz of
    bandwidth on a 30 GHz carrier).  Plain arithmetic: a float gives a
    float, an array an array.
    """
    fs = series_resonance(res)
    return (f - fs) * (f + fs) / (fs * fs)


def motional_impedance(res: Resonator, f) -> np.ndarray:
    """Impedance of the series r_m-l_m-c_m branch alone."""
    f = check_frequency(f)
    w = TWO_PI * f
    x = motional_detuning(res, f) / (w * res.c_m)
    return res.r_m + 1j * x


def impedance(res: Resonator, f) -> complex | np.ndarray:
    """Driving-point impedance of the BVD one-port (motional || static)."""
    f = check_frequency(f)
    zm = motional_impedance(res, f)
    w = TWO_PI * f
    z = zm / (1.0 + 1j * w * res.c_0 * zm)
    return complex(z) if np.ndim(f) == 0 else z


def phase(res: Resonator, f) -> float | np.ndarray:
    """Impedance phase in degrees, wrapped to (-180, 180].

    Computed as the principal argument of the complex impedance; the
    two-arctangent closed form has quadrant ambiguities.
    """
    p = np.degrees(np.angle(impedance(res, f)))
    return float(p) if np.ndim(f) == 0 else p


def static_reactance(res: Resonator, f) -> float | np.ndarray:
    """Magnitude of the static branch reactance 1/(2*pi*f*c_0)."""
    f = check_frequency(f)
    x = 1.0 / (TWO_PI * f * res.c_0)
    return float(x) if np.ndim(f) == 0 else x


def motional_bandwidth(res: Resonator) -> float:
    """-3 dB width of the motional resonance, f_s/Q."""
    return series_resonance(res) / quality_factor(res)


def sweep(res: Resonator, f_start: float, f_stop: float, points: int,
          log: bool = False) -> ComplexResponse:
    """Impedance sweep over a linear or geometric grid."""
    if not 0 < f_start < f_stop:
        raise ValueError("need 0 < f_start < f_stop")
    if points < 2:
        raise ValueError("need at least 2 points")
    if log:
        grid = np.geomspace(f_start, f_stop, points)
    else:
        grid = np.linspace(f_start, f_stop, points)
    return ComplexResponse(grid, impedance(res, grid))
