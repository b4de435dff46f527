"""Process memory probes for the service's memory reports.

Two numbers, both dependency-free:

* :func:`current_rss_bytes` — the process's resident set right now
  (Linux ``/proc/self/status`` ``VmRSS``; 0 where unavailable);
* :func:`peak_rss_bytes` — the high-water RSS since process start
  (``VmHWM``, falling back to ``resource.getrusage``'s ``ru_maxrss``,
  which Linux reports in KiB and macOS in bytes).

Shard workers ship :func:`peak_rss_bytes` in their done message; the
publish stage turns it into a ``shard{N}_rss_bytes_max`` gauge whose
``*_max`` suffix makes the registry merge keep the high-water mark.
Note RSS measures the whole interpreter (numpy alone is tens of MB),
so the service's memory report accounts market state in column and
handle bytes — RSS rides along as the observational ground truth.
"""

from __future__ import annotations

import sys

__all__ = ["current_rss_bytes", "peak_rss_bytes"]


def _proc_status_kib(field: str) -> int | None:
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def current_rss_bytes() -> int:
    """Resident set size of this process, in bytes (0 if unknown)."""
    kib = _proc_status_kib(b"VmRSS:")
    return kib * 1024 if kib is not None else 0


def peak_rss_bytes() -> int:
    """High-water resident set size of this process, in bytes."""
    kib = _proc_status_kib(b"VmHWM:")
    if kib is not None:
        return kib * 1024
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS
    return peak if sys.platform == "darwin" else peak * 1024

