"""Build and load the C step kernel (``_kernel.c``) without a build step.

The shared library is compiled on first use with the system C compiler and
cached in the package's ``__pycache__/``. The cache file is named by a hash of
the C source, the compiler flags and the host CPU's identity, because
``-march=native`` code must never load on another CPU. Where the cache cannot
be written, or the host's ``/proc/cpuinfo`` has no line that identifies its
CPU, the library is built in a temporary directory for the process. A build
writes under a temporary name and renames into place, so concurrent cold
builds cannot race, and loading from a warm cache starts no process.

The kernel reproduces numpy's bits: totals copy numpy's pairwise sum
(blocks of 128, 8 accumulators) as ``0.0 + pairwise(a, n)``, the draws go
through the bit generator's ``next_double`` in the order of
``market.step``, and ``-ffp-contract=off`` keeps multiply-adds unfused.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
CACHE_DIR = Path(__file__).with_name("__pycache__")
CPUINFO = Path("/proc/cpuinfo")
#: the ``CPUINFO`` keys whose lines identify a CPU: x86, then aarch64
CPU_KEYS = ("model name", "flags", "Features", "CPU implementer", "CPU part", "CPU variant")

_p, _i64, _f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double

#: argument types of ``specmarket_run``, in the order of its C signature
RUN_ARGTYPES = (
    _p, _i64, _i64, _i64, _i64,   # bitgen, horizon, n, k, n_random
    _f64, _f64, _i64,             # gamma, epsilon, endo_states
    _p, _i64, _p, _i64,           # cum, n_cum, queue, n_queue
    _p, _i64,                     # strategies, mu
    _p, _p, _p, _p,               # money, stocks, m, s
    _p, _p, _p, _p,               # prices, mus, capital, agent_caps
)


def cpu_identity() -> str:
    """The first ``CPUINFO`` line of each of ``CPU_KEYS``; empty where there is none."""
    try:
        lines = CPUINFO.read_text().splitlines()
    except OSError:
        lines = []
    found = {}
    for line in lines:
        key = line.split(":")[0].strip()
        if key in CPU_KEYS:
            found.setdefault(key, line)
    return "\n".join(found[key] for key in CPU_KEYS if key in found)


def library_name(source: bytes, flags: tuple, cpu: str) -> str:
    """Cache file name of the library built from ``source`` with ``flags`` on ``cpu``."""
    key = hashlib.sha256()
    for part in (source, " ".join(flags).encode(), cpu.encode()):
        key.update(hashlib.sha256(part).digest())
    return f"_kernel-{key.hexdigest()[:20]}.so"


def _build(source: Path, target: Path) -> None:
    fd, partial = tempfile.mkstemp(prefix=target.stem + "-", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        done = subprocess.run(["cc", *FLAGS, "-o", partial, str(source)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise OSError(f"cc exited {done.returncode}: {done.stderr.strip()}")
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _writable(directory: Path) -> bool:
    try:
        directory.mkdir(exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def load() -> ctypes.CDLL:
    """The kernel library, built into ``CACHE_DIR`` unless it is cached there already.

    Where ``CACHE_DIR`` cannot be written, or the CPU has no identity to key
    the cache on, the library is built in a temporary directory, which is
    removed once the library is loaded. Raises ``OSError`` when the library
    cannot be built or loaded.
    """
    cpu = cpu_identity()
    temporary = not cpu or not _writable(CACHE_DIR)
    cache_dir = Path(tempfile.mkdtemp(prefix="specmarket-kernel-")) if temporary else CACHE_DIR
    target = cache_dir / library_name(SOURCE.read_bytes(), FLAGS, cpu)
    try:
        if not target.exists():
            _build(SOURCE, target)
        lib = ctypes.CDLL(str(target))
    finally:
        if temporary:  # a loaded library stays mapped after its file is gone
            shutil.rmtree(cache_dir, ignore_errors=True)
    lib.specmarket_run.argtypes = RUN_ARGTYPES
    lib.specmarket_run.restype = None
    lib.specmarket_total.argtypes = (_p, _i64)
    lib.specmarket_total.restype = _f64
    return lib
