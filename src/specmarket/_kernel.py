"""Build and load the C kernel (``_kernel.c``) without a build step.

The library holds three things: the step kernel behind ``market.run``, the
span-counting chain behind ``analytics.dim_distribution`` and the CSV row
writer behind ``io.write_columns``; how each keeps the bits of numpy and
Python is said in ``_kernel.c``. It is compiled on first use with the system
C compiler, which must be GCC or Clang on a 64-bit target (the source uses
their vector types, atomics and ``unsigned __int128``), and cached in the
package's ``__pycache__/``. The cache file is named by a hash of the C
source, the compiler flags, the libraries it links and the host CPU's
identity, because ``-march=native`` code must never load on another CPU.
Where the cache cannot be written, or the host's ``/proc/cpuinfo`` has no
line that identifies its CPU, the library is built in a temporary directory
for the process. A build writes under a temporary name and renames into
place, so concurrent cold builds cannot race, and loading from a warm cache
starts no process. ``library()`` loads it once per process, and says what
runs where it cannot. The library is a ``ctypes.CDLL``, so every call into
it releases the GIL, and the threads of ``market.run_many`` run it side by
side. ``SIGNATURES`` holds each entry point's argument and return types,
which ``_bind`` declares at load. The library's only shared state is the
writer's tables, filled once at load and read-only after, and the progress
counter a caller passes to the step kernel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
import threading
import warnings
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
#: libraries linked after the source
LIBS = ("-lm",)
CACHE_DIR = Path(__file__).with_name("__pycache__")
CPUINFO = Path("/proc/cpuinfo")
#: the ``CPUINFO`` keys whose lines identify a CPU: x86, then aarch64
CPU_KEYS = ("model name", "flags", "Features", "CPU implementer", "CPU part", "CPU variant")

_p, _i64, _f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double

#: each entry point's argument types, in the order of its C definition, and its return type
SIGNATURES = {
    "specmarket_run": ((
        _p, _i64, _i64, _i64, _i64,   # bitgen, horizon, n, k, n_random
        _f64, _f64, _i64,             # gamma, epsilon, endo_states
        _p, _i64, _p, _i64,           # cum, n_cum, queue, n_queue
        _p, _i64, _p,                 # strategies, mu, last_seen
        _p, _p, _p, _p,               # money, stocks, m, s
        _p, _p, _p, _p,               # prices, returns, mus, taus
        _p, _p,                       # capital (NULL: no capital sum), progress
    ), _i64),
    "specmarket_progress": ((_p,), _i64),  # progress; returns the complete rows
    "specmarket_divide": ((_p, _i64, _f64, _p), _i64),  # m, n, price, q
    "specmarket_total": ((_p, _i64), _f64),  # a, n
    # escape, start, cap, first, last, p, moved (scratch); returns the fixed point's step, or 0
    "specmarket_dim_chain": ((_p, _i64, _i64, _i64, _i64, _p, _p), _i64),
    # n_rows, n_cols, kinds, values, masks, out; returns the bytes written
    "specmarket_write_rows": ((_i64, _i64, _p, _p, _p, _p), _i64),
}
#: the writer's power-of-5 tables: their lengths in ``_kernel.c`` and the bits of each entry
POW5_COUNT, POW5_INV_COUNT, POW5_BITS = 326, 342, 125


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
    """Cache file name of the library built from ``source`` with ``flags`` and ``LIBS`` on ``cpu``."""
    key = hashlib.sha256()
    for part in (source, " ".join((*flags, *LIBS)).encode(), cpu.encode()):
        key.update(hashlib.sha256(part).digest())
    return f"_kernel-{key.hexdigest()[:20]}.so"


def _build(source: Path, target: Path) -> None:
    import subprocess  # imported only for a cold build, so a warm load never pays for it

    fd, partial = tempfile.mkstemp(prefix=target.stem + "-", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        done = subprocess.run(["cc", *FLAGS, "-o", partial, str(source), *LIBS],
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
    return _bind(lib)


def _pow5_tables() -> tuple[list[int], list[int]]:
    """Ryu's tables: 5^i scaled to ``POW5_BITS`` bits, and
    floor(2^(bits(5^i) - 1 + POW5_BITS) / 5^i) + 1."""
    powers = [5**i for i in range(max(POW5_COUNT, POW5_INV_COUNT))]
    scaled = [(p << POW5_BITS) >> p.bit_length() for p in powers[:POW5_COUNT]]
    inverse = [(1 << (p.bit_length() - 1 + POW5_BITS)) // p + 1 for p in powers[:POW5_INV_COUNT]]
    return scaled, inverse


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the entry points' signatures from ``SIGNATURES`` and fill the writer's tables."""
    for name, (argtypes, restype) in SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    for name, values in zip(("specmarket_pow5", "specmarket_pow5_inv"), _pow5_tables()):
        table = (ctypes.c_uint64 * (2 * len(values))).in_dll(lib, name)
        table[:] = [word for v in values for word in (v & (2**64 - 1), v >> 64)]
    return lib


#: the loaded library; False once it failed to build or load in this process
_LIBRARY = None
_LIBRARY_LOCK = threading.Lock()


def library():
    """The library ``load`` gives, loaded once per process; False where that failed.

    Thread-safe: the first load runs under a lock, and threads that arrive
    meanwhile wait for it and get its result.

    The first failure emits one ``RuntimeWarning`` naming ``_kernel.c`` and the
    cause; ``market.run`` then loops over ``market.step``,
    ``analytics.dim_distribution`` runs its chain in numpy, and
    ``io.write_columns`` formats every table's cells with ``io._cells``, as it
    does a table with a column the row writer does not take.
    """
    global _LIBRARY
    if _LIBRARY is None:
        with _LIBRARY_LOCK:
            if _LIBRARY is None:  # another thread may have loaded it while this one waited
                try:
                    _LIBRARY = load()
                except OSError as exc:
                    warnings.warn(f"specmarket: the C kernel {SOURCE.name} could not be built or "
                                  f"loaded ({exc}); run(), dim_distribution() and write_columns() "
                                  "fall back to Python and numpy",
                                  RuntimeWarning, stacklevel=3)
                    _LIBRARY = False
    return _LIBRARY
