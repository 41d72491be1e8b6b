"""Measurement helpers of the repository benchmark (no ``repro`` imports).

Everything here is pure bookkeeping over host-time samples and profiler
output, so the benchmark's own tests exercise it on synthetic inputs:

* :func:`median` and :func:`tail` — the timing summary: the median and
  the highest percentile that still has at least :data:`TAIL_BEYOND`
  samples beyond it, reported with that percentile and the sample count;
* :func:`error_rate` — failed or refused operations over attempted ones;
* :func:`layer_of` — maps a profiler entry to the ``repro.<layer>``
  bucket that defined it (``sim.core``, ``apps.bfs``, ``pcie`` ...), or to
  the ``builtins``, ``numpy``, ``stdlib``, ``perfbench`` and ``other``
  buckets;
* :func:`self_time` — a span's duration minus the part of it that its
  child spans cover;
* :class:`Profiler` — one ``cProfile`` hook per thread, merged into
  per-layer self seconds, call counts and cumulative seconds;
* :func:`machine_context` — commit, versions, ``nproc`` and a fixed
  pure-Python speed probe recorded beside every result (never used to
  rescale a number).
"""

from __future__ import annotations

import cProfile
import os
import platform
import pstats
import sys
import sysconfig
import threading
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

_STDLIB_DIRS = tuple(
    sorted(
        {
            os.path.realpath(sysconfig.get_paths()[key])
            for key in ("stdlib", "platstdlib")
        }
    )
)


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample (mean of the middle pair if even)."""
    if not values:
        raise ValueError("median of an empty sample")
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(percentile, value, beyond)``.  With ``n`` samples the value
    is the ``n - TAIL_BEYOND``-th smallest, i.e. percentile
    ``100 * (n - TAIL_BEYOND) / n``.  Below ``2 * TAIL_BEYOND`` samples that
    point would lie under the median, which is no tail, so the maximum is
    returned instead, as percentile 100 with ``beyond == 0``, and the caller
    states plainly that the figure is a maximum.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    s = sorted(values)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return 100.0, s[-1], 0
    k = n - TAIL_BEYOND
    return 100.0 * k / n, s[k - 1], TAIL_BEYOND


def error_rate(attempted: int, failed: int, refused: int = 0) -> float:
    """Failed plus refused operations over operations attempted.

    A refused request (HTTP 429/503) was attempted and never served, so it
    counts as a miss exactly like a failure.
    """
    if attempted <= 0:
        raise ValueError("error rate needs at least one attempted operation")
    missed = failed + refused
    if missed < 0 or missed > attempted:
        raise ValueError(f"{missed} misses out of {attempted} attempts")
    return missed / attempted


def layer_of(filename: str, funcname: str = "") -> str:
    """The bucket a profiler entry's self time is charged to.

    ``.../repro/sim/core.py`` -> ``sim.core`` (the kernel modules are kept
    apart), ``.../repro/apps/bfs/csr.py`` -> ``apps.bfs``,
    ``.../repro/pcie/fabric.py`` -> ``pcie``, a top-level module such as
    ``repro/units.py`` -> ``repro``.  C functions (cProfile's ``~``
    filename) go to ``numpy`` when NumPy defines them and to ``builtins``
    otherwise; Python files go to ``numpy``, ``stdlib``, ``perfbench`` (this
    benchmark) or ``other``.
    """
    if filename == "~" or filename.startswith("<"):
        if filename == "~" and "numpy" in funcname:
            return "numpy"
        return "builtins"
    parts = Path(filename).parts
    if "site-packages" in parts or "dist-packages" in parts:
        return "numpy" if "numpy" in parts else "other"
    if len(parts) >= 2 and parts[-2] == "perfbench":
        return "perfbench"
    for i in range(len(parts) - 2, 0, -1):
        if parts[i] == "repro" and parts[i - 1] == "src":  # the package under test
            rel = list(parts[i + 1 :])
            rel[-1] = rel[-1].rsplit(".", 1)[0]
            if len(rel) == 1:
                return "repro"
            if rel[0] == "sim":
                return "sim" if rel[1] == "__init__" else "sim." + rel[1]
            if rel[0] == "apps" and len(rel) > 2:
                return "apps." + rel[1]
            return rel[0]
    if "numpy" in parts:
        return "numpy"
    real = os.path.realpath(filename)
    if any(real.startswith(d + os.sep) for d in _STDLIB_DIRS):
        return "stdlib"
    return "other"


def self_time(span: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """``span``'s duration minus the part of it covered by ``children``.

    Children are ``(start, end)`` intervals; overlapping children are
    merged and each is clipped to the parent first, so concurrent child
    spans are never subtracted twice.
    """
    start, end = span
    if end < start:
        raise ValueError("span ends before it starts")
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in children if min(end, e) > max(start, s)
    )
    covered = 0.0
    cur_s: Optional[float] = None
    cur_e = 0.0
    for s, e in clipped:
        if cur_s is None or s > cur_e:
            if cur_s is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_s is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


class Profiler:
    """Per-thread ``cProfile`` hooks merged into one per-layer ledger.

    ``cProfile`` only observes the thread that enabled it, so every thread
    that should be measured calls :meth:`start` itself and stops its own
    profile with :meth:`stop`.  ``timer`` is the profiler's clock: the
    default wall clock suits a single busy thread, ``time.thread_time``
    suits threads that mostly block (an event loop in ``select``, a polling
    client), whose waits would otherwise count as self time; it costs a
    system call per profiler event, so busy threads should not use it.
    """

    def __init__(self, timer=None) -> None:
        self._lock = threading.Lock()
        self._profiles: list[cProfile.Profile] = []
        self._timer = timer

    def start(self) -> cProfile.Profile:
        """Enable a fresh profile on the calling thread."""
        prof = cProfile.Profile(self._timer) if self._timer else cProfile.Profile()
        with self._lock:
            self._profiles.append(prof)
        prof.enable()
        return prof

    @staticmethod
    def stop(prof: cProfile.Profile) -> None:
        """Disable ``prof``; call from the thread that started it."""
        prof.disable()

    def stats(self) -> dict:
        """Merged ``pstats`` table: ``(file, line, name) -> (cc, nc, tt, ct, callers)``."""
        with self._lock:
            profiles = list(self._profiles)
        if not profiles:
            return {}
        merged = pstats.Stats(profiles[0])
        for prof in profiles[1:]:
            merged.add(prof)
        return merged.stats


def layer_self_seconds(stats: dict) -> dict[str, float]:
    """Self (``tottime``) seconds per :func:`layer_of` bucket."""
    out: dict[str, float] = {}
    for (filename, _line, name), (_cc, _nc, tt, _ct, _callers) in stats.items():
        bucket = layer_of(filename, name)
        out[bucket] = out.get(bucket, 0.0) + tt
    return out


def _matches(filename: str, suffix: str) -> bool:
    return Path(filename).as_posix().endswith("/repro/" + suffix)


def call_count(stats: dict, targets: Iterable[tuple[str, str]]) -> int:
    """Profiler call events of the ``(module suffix, function)`` targets.

    A suffix is relative to the ``repro`` package (``"pcie/fabric.py"``).
    ``cProfile`` records one call per entry into a frame, so a generator
    function counts once per resumption, not once per generator object.
    """
    targets = list(targets)
    total = 0
    for (filename, _line, name), (_cc, nc, _tt, _ct, _callers) in stats.items():
        if any(name == fn and _matches(filename, mod) for mod, fn in targets):
            total += nc
    return total


def cumulative_seconds(stats: dict, targets: Iterable[tuple[str, str]]) -> float:
    """Inclusive (``cumtime``) seconds spent in the targets' outermost calls."""
    targets = list(targets)
    total = 0.0
    for (filename, _line, name), (_cc, _nc, _tt, ct, _callers) in stats.items():
        if any(name == fn and _matches(filename, mod) for mod, fn in targets):
            total += ct
    return total


def speed_probe_ms(repeats: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop.

    Recorded beside each result so drift of the machine itself is visible;
    it is never used to rescale a measured figure.
    """
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - t0) * 1e3)
    return median(samples)


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit read from ``.git`` files, or None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def machine_context(root: Path, seed: int) -> dict:
    """Where and on what a result was measured."""
    import numpy

    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": sys.platform,
        "seed": seed,
        "speed_probe_ms": speed_probe_ms(),
    }
