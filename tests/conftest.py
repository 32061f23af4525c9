import signal
import threading
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

# Seconds one test may run. The slowest test takes about 10 s; a test that
# loops for ever (a list walk that misses NIL, say) fails at this limit
# instead of hanging the suite.
TEST_TIME_LIMIT = 120


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return REPO_ROOT / "corpus"


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test if it runs longer than TEST_TIME_LIMIT seconds (SIGALRM, main thread only)."""
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expired(signum, frame):
        pytest.fail(f"test ran longer than its {TEST_TIME_LIMIT} s time limit")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
