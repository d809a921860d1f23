"""Environment stamp written into every result file.

Everything here is read-only: Python and numpy report their own
versions, ``lscpu`` and ``/proc`` give the caches, CPU and load.
"""

from __future__ import annotations

import os
import platform
import re
import subprocess

_UNITS = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def _lscpu_caches() -> dict:
    """L1d/L2/L3 sizes in bytes as lscpu reports them (totals over
    instances); empty if lscpu is missing."""
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10, env={"LC_ALL": "C"},
                             check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    caches = {}
    for line in out.splitlines():
        m = re.match(r"(L1d|L2|L3) cache:\s+([\d.]+)\s*([KMG]?)i?B", line)
        if m:
            caches[m.group(1)] = int(float(m.group(2)) * _UNITS[m.group(3)])
    return caches


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _blas(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": deps.get("name"), "version": deps.get("version")}


def stamp_start(np) -> dict:
    """Versions, CPU, caches, thread settings and the load at start."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches_bytes": _lscpu_caches(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS") if k in os.environ},
        "loadavg_start": os.getloadavg(),
    }


def stamp_end(stamp: dict, largest_array_bytes: int, array_label: str) -> dict:
    """Add the load at the end and the workload's largest working array
    next to the last-level cache.  Bandwidth and roofline ratios need
    arrays of at least four times the LLC; below that, only computed
    bytes are reported."""
    llc = stamp["caches_bytes"].get("L3") or stamp["caches_bytes"].get("L2", 0)
    stamp = dict(stamp)
    stamp["loadavg_end"] = os.getloadavg()
    stamp["largest_array"] = {
        "what": array_label,
        "bytes": largest_array_bytes,
        "llc_bytes": llc,
        "ratio_to_llc": largest_array_bytes / llc if llc else None,
        "bandwidth_ratio_reported": bool(llc) and largest_array_bytes >= 4 * llc,
    }
    return stamp
