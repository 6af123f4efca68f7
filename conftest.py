"""Pytest root configuration.

Ensures ``src/`` is importable even when the package has not been installed
(the offline environment lacks the ``wheel`` package needed by modern
``pip install -e .``) and registers these markers:

* ``slow`` — tests marked ``@pytest.mark.slow`` (the minutes-long
  end-to-end trainings) are deselected by default so the tier-1 command
  stays fast; run them with ``pytest --runslow``.
* ``timeout(seconds)`` — a thread-watchdog deadline for the thread-based
  serving/lifecycle tests.  The environment has no ``pytest-timeout``
  plugin, so the marker is implemented here: the test body runs on a
  daemon thread and, if it has not finished within the deadline, the test
  *fails* with a dump of every thread's stack instead of hanging the
  suite — a deadlocked reorder buffer or hot-swap surfaces in seconds.
* ``multicore(min_cores)`` — tests that only mean anything with real
  parallel hardware (process-pool scaling claims) are skipped when
  ``os.cpu_count()`` is below the requested core count (default 2), so
  the 4-process ≥ 1.5x scaling gate is skipped on smaller hosts while
  multi-core CI hosts exercise the scaling assertions.
* ``ingest`` — raw-event ingestion front-end tests (flow table, feature
  extractor, event lowering); select them with ``pytest -m ingest``.

It also hosts the ``serving_leak_check`` fixture: the post-test assertion
that nothing the serving layer spawns (non-daemon threads, child
processes) survives a test.  It lives here so both the serving suite and
the ingest suite (whose ingress tests drive the same pools) wrap it in
their autouse fixtures.
"""

import faulthandler
import functools
import multiprocessing
import os
import sys
import threading
import time
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked @pytest.mark.slow (long end-to-end trainings)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: minutes-long end-to-end training runs, skipped unless --runslow is given",
    )
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than the deadline "
        "(thread watchdog; used on thread-based serving/lifecycle tests so a "
        "deadlock fails fast instead of hanging the suite)",
    )
    config.addinivalue_line(
        "markers",
        "multicore(min_cores): skip unless os.cpu_count() >= min_cores "
        "(default 2); for tests whose assertions only hold with real "
        "parallel hardware, e.g. process-pool scaling claims",
    )
    config.addinivalue_line(
        "markers",
        "ingest: raw-event ingestion front-end tests (flow table, feature "
        "extractor, event lowering); select with -m ingest",
    )


def _watchdogged(function, seconds):
    """Run ``function`` on a daemon thread; fail loudly past the deadline.

    A genuinely deadlocked test thread cannot be killed from Python — it is
    left behind as a daemon (it cannot block interpreter exit) and the test
    is failed with a full stack dump of every live thread, which is the
    diagnostic a deadlock investigation needs.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        outcome = {}

        def target():
            try:
                function(*args, **kwargs)
            except BaseException as exc:  # re-raised on the pytest thread
                outcome["error"] = exc

        thread = threading.Thread(
            target=target, name=f"watchdog:{function.__name__}", daemon=True
        )
        thread.start()
        thread.join(seconds)
        if thread.is_alive():
            sys.stderr.write(
                f"\n=== watchdog: {function.__name__} exceeded {seconds}s; "
                "dumping all thread stacks ===\n"
            )
            faulthandler.dump_traceback(file=sys.stderr)
            pytest.fail(
                f"{function.__name__} did not finish within {seconds}s "
                "(likely deadlock; thread stacks dumped to stderr)",
                pytrace=False,
            )
        if "error" in outcome:
            raise outcome["error"]

    return wrapper


def pytest_collection_modifyitems(config, items):
    available_cores = os.cpu_count() or 1
    for item in items:
        marker = item.get_closest_marker("timeout")
        if marker is not None:
            seconds = float(marker.args[0]) if marker.args else 60.0
            item.obj = _watchdogged(item.obj, seconds)
        multicore = item.get_closest_marker("multicore")
        if multicore is not None:
            min_cores = int(multicore.args[0]) if multicore.args else 2
            if available_cores < min_cores:
                item.add_marker(
                    pytest.mark.skip(
                        reason=f"needs >= {min_cores} cores, host has "
                        f"{available_cores} (multicore marker)"
                    )
                )
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def serving_leak_check():
    """Fail the wrapping test if it leaks a thread or a child process past
    its own teardown.

    Not autouse here: the serving and ingest suites opt in by wrapping it
    in their own autouse fixtures (see their ``conftest.py`` files), so
    suites that never touch the serving layer don't pay the import.
    """
    before_threads = {
        thread for thread in threading.enumerate() if not thread.daemon
    }
    yield
    # Children obeying a stop sentinel and pool collector threads can take
    # a beat to finish exiting after close() returns a joined process —
    # poll briefly before declaring a leak so the check stays deterministic.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked_threads = [
            thread
            for thread in threading.enumerate()
            if not thread.daemon
            and thread.is_alive()
            and thread not in before_threads
        ]
        leaked_children = multiprocessing.active_children()
        if not (leaked_threads or leaked_children):
            return
        time.sleep(0.05)
    assert not leaked_threads, f"test leaked non-daemon threads: {leaked_threads}"
    assert not leaked_children, f"test leaked child processes: {leaked_children}"
