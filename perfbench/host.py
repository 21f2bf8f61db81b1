"""Host fingerprint and host-speed reference of the benchmark.

Two sets of runs compare only when their fingerprints match: the same
CPU model, core count, Python and numpy, and calibration-loop times
within :data:`CALIBRATION_TOLERANCE` of each other.  The loop is fixed
pure-Python work, so it catches a slower host (or a busier one) that
the version strings cannot.

The same loop, timed just before and just after each repetition's
timed region, is the host-speed reference the end-to-end timings are
normalised by (:func:`normalise`).  On a shared host whose speed drifts
over minutes, this keeps a drift out of the comparison of two runs.
"""

from __future__ import annotations

import os
import platform
import statistics
from time import perf_counter

#: Largest relative difference of calibration times still comparable.
CALIBRATION_TOLERANCE = 0.2

#: One calibration round: the loop below at this many iterations.
_CALIBRATION_ITERATIONS = 200_000
#: Round time of the reference host that normalised figures refer to.
REFERENCE_ROUND_S = 0.020


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibration_s(rounds: int = 9) -> float:
    """Median time of one round of a fixed pure-Python loop."""
    times = []
    for _ in range(rounds):
        t0 = perf_counter()
        acc = 0
        for i in range(_CALIBRATION_ITERATIONS):
            acc = (acc * 31 + i) % 1_000_003
        times.append(perf_counter() - t0)
    return statistics.median(times)


def normalise(seconds: float, round_s: float) -> float:
    """``seconds`` measured where a calibration round took ``round_s``,
    expressed in seconds of the reference host."""
    return seconds * REFERENCE_ROUND_S / round_s


def fingerprint() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "calibration_s": calibration_s(),
    }


def comparable(a: dict, b: dict) -> tuple[bool, list[str]]:
    """Whether results from hosts ``a`` and ``b`` may be compared."""
    reasons = [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in ("cpu_model", "nproc", "python", "numpy")
        if a.get(key) != b.get(key)
    ]
    ca, cb = a.get("calibration_s"), b.get("calibration_s")
    if not ca or not cb:
        reasons.append("calibration time missing")
    elif abs(ca - cb) / min(ca, cb) > CALIBRATION_TOLERANCE:
        reasons.append(
            f"calibration_s: {ca:.4f} vs {cb:.4f} differ by more than "
            f"{CALIBRATION_TOLERANCE:.0%}"
        )
    return not reasons, reasons
