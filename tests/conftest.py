import math
import signal
from pathlib import Path

import pytest

from memsosc import CompensationNetwork, Resonator
from memsosc.fixtures import get_network, get_resonator

NETLIST_DIR = Path(__file__).parent / "netlists"

# Wall-clock limit of one test: about 17 times the slowest test (3.6 s on a
# 2-CPU machine), so a loop that no longer ends fails by name instead of
# running until the job is killed.
TEST_TIME_LIMIT_S = 60.0


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the running test by name once it has run TEST_TIME_LIMIT_S
    seconds, by SIGALRM from the real-time interval timer; the previous
    handler and timer are restored afterwards."""
    if not hasattr(signal, "setitimer"):  # no interval timers on this platform
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran longer than {TEST_TIME_LIMIT_S:g} s",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    previous_timer = signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        signal.setitimer(signal.ITIMER_REAL, *previous_timer)


@pytest.fixture
def rft():
    return get_resonator("rft30g")


@pytest.fixture
def quartz():
    return get_resonator("quartz45m")


@pytest.fixture
def fbar():
    return get_resonator("fbar2g4")


@pytest.fixture
def saw():
    return get_resonator("saw400m")


@pytest.fixture
def comp_q8():
    return get_network("l0_250p_q8")


@pytest.fixture
def comp_q10():
    return get_network("l0_250p_q10")


def tank_of(res: Resonator, comp: CompensationNetwork):
    """The tank of res and comp in floats, (res, c_branch, l_0, r_l0): the
    form `compensation.operating_point` and the admittance helpers take."""
    return res, comp.branch_capacitance(res), comp.l_0, comp.r_l0


def bare_c0_network(res: Resonator, q_l0: float, f_ref: float | None = None
                    ) -> CompensationNetwork:
    """Inductor resonating the bare static capacitance at f_s, no bank."""
    from memsosc import series_resonance, shunt_inductor_for

    fs = f_ref if f_ref is not None else series_resonance(res)
    return CompensationNetwork(l_0=shunt_inductor_for(res.c_0, fs),
                               q_l0=q_l0, f_ref=fs)


def rescale_motional_q(res: Resonator, q: float) -> Resonator:
    """New resonator with the given motional Q at the same f_s and r_m."""
    from dataclasses import replace

    from memsosc import series_resonance

    ws = 2.0 * math.pi * series_resonance(res)
    l_m = q * res.r_m / ws
    return replace(res, l_m=l_m, c_m=1.0 / (ws * ws * l_m))
