"""Design toolkit for shunt-inductor compensated MEMS resonator oscillators.

The MNA netlist engine (`memsosc.mna` and the names below taken from it)
loads on first use, so importing the package does not import numpy.
"""

from .bvd import (
    ComplexResponse,
    Resonator,
    coupling_coefficient,
    impedance,
    motional_bandwidth,
    parallel_resonance,
    phase,
    quality_factor,
    series_resonance,
    static_reactance,
)
from .compensation import (
    AlignmentWarning,
    CompensationNetwork,
    NoResonanceError,
    NoSolutionError,
    TankAnalysis,
    effective_resistance,
    find_operating_point,
    motional_mode_capacitance_margin,
    phase_slope_q,
    shunt_inductor_for,
    tank_impedance,
    tank_resonance,
    tune_bank,
    window_fraction,
    zero_phase_c0,
)
from .design import DesignError, DesignReport, DesignSpec, run_design, size_active
from .noise import (
    Evaluation,
    NoiseBudget,
    OscillatorOperatingPoint,
    evaluate,
    fom_from_measurement,
    fom_max,
    fom_physical,
    leeson_phase_noise,
    noise_factor_from,
    parameter_sweep,
    sensitivity_sweep,
)

__version__ = "0.1.0"

_MNA_NAMES = frozenset({
    "Netlist",
    "NetlistError",
    "SingularCircuitError",
    "ac_sweep",
    "driving_point_impedance",
    "format_netlist",
    "lint_netlist",
    "parse_netlist",
})


def __getattr__(name):
    # PEP 562: mna and its names import on first access
    if name == "mna" or name in _MNA_NAMES:
        import importlib

        mna = importlib.import_module(".mna", __name__)
        return mna if name == "mna" else getattr(mna, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), "mna", *_MNA_NAMES])
