import faulthandler
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# A test that runs this long is taken to hang: the run dumps every thread's
# traceback, which names the test, and exits with status 1.  The slowest
# test takes a few seconds.
TEST_TIME_LIMIT_S = 60

_stderr = []  # the terminal's stderr, kept before any test captures fd 2


def pytest_configure(config):
    _stderr.append(os.fdopen(os.dup(sys.stderr.fileno()), "w"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=_stderr[0])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
