"""Guards that turn a runaway query into a counted failure.

The benchmark runs every query in one process, so a query that loops for
minutes or asks for gigabytes must not take the run down with it:

* :func:`deadline` arms a real-time interval timer around one call; when
  it fires, :class:`DeadlineExceeded` is raised inside whatever Python
  code the query is executing.
* :func:`cap_address_space` lowers the soft address-space limit, so an
  oversized array request raises ``MemoryError`` instead of waking the
  kernel's out-of-memory killer.
"""

from __future__ import annotations

import contextlib
import resource
import signal


class DeadlineExceeded(BaseException):
    """Raised by the interval timer.

    Derives from ``BaseException`` so that no ``except Exception`` inside
    the code under test can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise :class:`DeadlineExceeded` in the body after ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def address_space_bytes() -> int:
    """Current virtual memory size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[0])
    return pages * resource.getpagesize()


def cap_address_space(headroom_bytes: int) -> None:
    """Limit further address-space growth of this process (and of the
    processes it starts) to ``headroom_bytes`` beyond its current size."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = address_space_bytes() + headroom_bytes
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    if soft == resource.RLIM_INFINITY or limit < soft:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
