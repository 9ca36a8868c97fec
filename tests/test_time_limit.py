"""The per-test time limit of conftest.py: it is armed while a test runs,
and a test that runs too long fails by name."""

import re
import signal
import time

import pytest

from conftest import TEST_TIME_LIMIT_S

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"),
                                reason="no interval timers on this platform")


def test_an_overrunning_test_fails_by_name(request):
    # the autouse fixture armed the timer and installed its handler; fire it early
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(pytest.fail.Exception, match=re.escape(request.node.nodeid)):
        time.sleep(5.0)


def test_the_limit_is_armed_while_a_test_runs():
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0.0 < remaining <= TEST_TIME_LIMIT_S and interval == 0.0
