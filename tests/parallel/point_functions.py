"""Importable point functions for engine tests (dotted-path resolvable)."""

from repro.errors import SimulationError

#: Seeds below this raise, so a reseeded retry (step >= the threshold)
#: lands in the passing region — mirrors a seed-sensitive livelock.
FLAKY_THRESHOLD = 100


def square_point(value: int) -> int:
    return value * value


def flaky_point(seed: int) -> int:
    if seed < FLAKY_THRESHOLD:
        raise SimulationError(f"seed {seed} livelocked")
    return seed


def always_fails_point(seed: int) -> int:
    raise ValueError("deterministic bug")


def slow_point(seed: int) -> int:
    import time

    time.sleep(5.0)
    return seed


def crash_point(seed: int) -> int:
    """Hard-crash the worker (no Python cleanup) below the threshold.

    A reseeded retry (step >= the threshold) lands in the passing
    region — mirrors an OOM-kill / segfault that a fresh seed avoids.
    """
    if seed < FLAKY_THRESHOLD:
        import os

        os._exit(17)
    return seed


def always_crash_point(seed: int) -> int:
    """Hard-crash the worker on every attempt."""
    import os

    os._exit(23)


def hang_point(seed: int) -> int:
    """Hang far past any test deadline below the threshold."""
    if seed < FLAKY_THRESHOLD:
        import time

        time.sleep(60.0)
    return seed


def counting_point(
    value: int,
    marker_dir: str,
    fail: bool = False,
    interrupt: bool = False,
    crash: bool = False,
    delay_s: float = 0.0,
) -> list[int]:
    """``[value, value**2]``, leaving one marker file per execution.

    The sharing and re-run tests count the markers to see how many
    times a point really ran.  ``fail`` raises a deterministic
    (non-retryable) error after marking.  The first time each ``value``
    runs, ``interrupt`` raises KeyboardInterrupt, as a Ctrl-C landing
    mid-point would, and ``crash`` hard-crashes the worker, as an OOM
    kill would; later runs succeed.  ``delay_s`` gives the point a
    wall-clock cost, for the interrupt drills.
    """
    import os
    import tempfile
    import time

    handle, _ = tempfile.mkstemp(dir=marker_dir, prefix=f"run-{value}-")
    os.close(handle)
    if fail:
        raise ValueError(f"point {value} is broken")
    seen = os.path.join(marker_dir, f"seen-{value}")
    if (interrupt or crash) and not os.path.exists(seen):
        with open(seen, "w", encoding="utf-8") as marker:
            marker.write("seen\n")
        if crash:
            os._exit(9)
        raise KeyboardInterrupt
    if delay_s > 0.0:
        time.sleep(delay_s)
    return [value, value * value]


def livelock_point(seed: int, marker_dir: str) -> int:
    """Always raise a retry-eligible kernel error, leaving one marker per run.

    The marker file is named after the seed the attempt ran at, so the
    retry tests can count runs and read the perturbed seeds back.
    """
    import os

    marker = os.path.join(marker_dir, f"seed-{seed}")
    with open(marker, "a", encoding="utf-8") as handle:
        handle.write("run\n")
    raise SimulationError("livelock detected")


def sigterm_is_default_point(value: int) -> bool:
    """Whether this process leaves SIGTERM to its default action."""
    import signal

    return signal.getsignal(signal.SIGTERM) is signal.SIG_DFL


def sleepy_pid_point(value: int, delay_s: float) -> int:
    """Sleep, then return the pid of the process that ran the point."""
    import os
    import time

    time.sleep(delay_s)
    return os.getpid()
