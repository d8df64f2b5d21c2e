"""Run header and host probes: what machine, and how fast it was.

The probe (a numpy STREAM triad and a matmul) is taken before and after
each workload so a slow host phase shows in the run's own output.  It is
context only and carries no bound.  The header probe keeps its arrays
small so it does not raise the process's peak RSS; the traced run
measures ``host.triad_gbs`` on arrays sized from the last-level cache.
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path

import numpy as np

#: Cap on the traced-run triad working set (bytes), so a host with a
#: very large shared cache does not make the probe allocate gigabytes.
TRIAD_CAP_BYTES = 1536 * 2**20


def triad_gbs(nbytes_per_array: int, reps: int = 5) -> float:
    """Best-of-``reps`` STREAM triad ``a = b + s*c`` in GB/s, counting
    STREAM's 3 arrays x 8 bytes per element."""
    n = max(1, nbytes_per_array // 8)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    return 24.0 * n / best / 1e9


def matmul_gflops(n: int = 384, reps: int = 5) -> float:
    """Best-of-``reps`` dense ``n x n`` matmul rate in GFLOP/s."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, n))
    y = rng.standard_normal((n, n))
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        x @ y
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def probe() -> dict:
    """The quick header probe (arrays of 8 MiB each)."""
    return {
        "triad_gbs": round(triad_gbs(8 * 2**20), 3),
        "matmul_gflops": round(matmul_gflops(), 3),
    }


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the whole host from ``/proc/stat``
    (zeros where unreadable): the share of CPU time the hypervisor gave
    to others while a run measured."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def last_level_cache_bytes() -> int:
    """Largest cache of cpu0 per sysfs (32 MiB when unreadable)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = 0
    for index in base.glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best or 32 * 2**20


def traced_triad_gbs() -> tuple[float, int]:
    """Triad on a working set of 4x the last-level cache (capped);
    returns ``(GB/s, bytes per array)``."""
    per_array = min(4 * last_level_cache_bytes(), TRIAD_CAP_BYTES) // 3
    return triad_gbs(per_array, reps=3), per_array


def git_sha(root: Path) -> str:
    """HEAD's sha read from ``.git`` directly, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(root: Path, workload: str, seed: int) -> dict:
    return {
        "git_sha": git_sha(root),
        "cpu_count": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "workload": workload,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """This process's peak RSS in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
