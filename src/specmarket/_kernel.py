"""Build and load the C kernel (``_kernel.c``) without a build step.

The library holds three things: the step kernel behind ``market.run``, the
span-counting chain behind ``analytics.dim_distribution`` and the CSV row
writer behind ``io.write_columns``. It is compiled on first use with
the system C compiler and cached in the package's ``__pycache__/``. The cache
file is named by a hash of the C source, the compiler flags, the libraries it
links and the host CPU's identity, because ``-march=native`` code must never
load on another CPU. Where the cache cannot be written, or the host's
``/proc/cpuinfo`` has no line that identifies its CPU, the library is built
in a temporary directory for the process. A build writes under a temporary
name and renames into place, so concurrent cold builds cannot race, and
loading from a warm cache starts no process. ``library()`` loads it once per
process, and says what runs where it cannot. The library is a ``ctypes.CDLL``,
so every call into it releases the GIL, and the threads of ``sweep.run_many``
and of ``market.run``'s follower run it side by side. ``SIGNATURES`` holds each
entry point's argument and return types, which ``_bind`` declares at load. The
library's only shared state is the writer's tables, filled once at load and
read-only after, and the progress counter a caller passes to the step kernel.

The step kernel writes the whole record of ``market.run`` (prices, returns,
states, taus, and the capitals where the caller passes their array) with the
bits of ``market.step``:

- Totals copy numpy's pairwise sum: blocks of 128, 8 accumulators, the same
  final reduction order and ``0.0 +`` at the top. One tree sums two arrays
  of one length at once, each in its own vector of eight lanes, and each
  lane adds as a scalar double does: the order totals (m, s) are one pass,
  the speculators' money and stocks another. A tree node whose children are
  two leaves, or two pairs of leaves, runs those two or four blocks' chains
  of vector adds interleaved in one loop; each block adds in numpy's order
  and the block totals combine in the tree's order, so every total keeps its
  bits. At N_s = 256 with 16 producers, the 272 orders are two pairs of
  leaves and the 256 capitals one pair.
- An order is a select: ``m = x if buy else x * 0.0`` and
  ``s = y * 0.0 if buy else y``, with ``x = money * gamma`` and
  ``y = stocks * gamma``, the bits of ``x * float(buy)`` and
  ``y * float(not buy)``.
- Returns are ``log10(price / before)`` from the C library, the function
  ``math.log10`` calls for a finite positive argument; ``-lm`` is linked
  explicitly. A step stores the ratio. The steps run in blocks of 1024, and
  after each block (the last, and one cut short by a refused step,
  included) a cold, never-inlined helper takes the log10 of its ratios, so
  the step loop's code is the same as with one pass at the end. Where the
  caller passes a progress counter, the helper then stores the count of
  complete rows there with release order; ``specmarket_progress`` loads it
  with acquire order, so a thread that reads a count also sees those rows'
  prices, states, taus and returns.
- Taus count the steps since the state's ``last_seen``, which the kernel
  updates in place; 0 on a state's first occurrence.
- The draws go through the bit generator's ``next_double`` in the order of
  ``market.step``, and ``-ffp-contract=off`` keeps multiply-adds unfused.
- The one explicit ``fma`` is the settle quotient ``m / price``: where the
  build targets FMA (``__FMA__``, as ``-march=native`` does on x86 CPUs
  with FMA) and a step is inside the guard (price in [2^-60, 2^60], every
  order +0.0 or in [2^-900, 2^901)), it is Markstein's FMA-corrected
  quotient from ``y = 1 / price``, ``q0 = m * y``,
  ``q = fma(fma(-q0, price, m), y, q0)`` (P. W. Markstein, IBM J. Res. Dev.
  34(1), 1990; J.-M. Muller et al., *Handbook of Floating-Point
  Arithmetic*, division with an FMA). Nothing in it underflows or
  overflows there, so it is the correctly rounded quotient, the bits of
  ``/``. Other steps, and builds without FMA, divide. The order loops fold
  the guard into two unsigned bounds per step, the least of ``bits - 1``
  and the greatest of ``bits`` over the orders' bit patterns; the step is
  outside the guard iff the first is below ``(123 << 52) - 1`` or the
  second is at least ``1924 << 52``, which is the per-order rule with +0.0
  inside and signs, infinities and NaNs outside. ``specmarket_divide``
  exposes the guarded quotient of one step's orders, with the same fold.
- A step whose price is not finite and positive, or whose return is not
  finite, stops the kernel, which returns that step; ``market.run`` then
  raises the ``ConfigError`` that ``market.settle`` raises on that step.

The chain runs the three float64 operations per cell of the numpy loop in
``analytics``, in its order, over the same window of cells, and stops after
the same step. Each step is two passes, both vectorised: ``moved = p *
escape`` into a scratch array the caller passes (``analytics._walk``
allocates it once per walk, as long as ``p``), with the test for a nonzero
moved amount, then ``p[j] = (p[j] - moved[j]) + moved[j - 1]``;
``-ffp-contract=off`` keeps ``p - p * escape`` unfused. One call runs steps
``first`` .. ``last`` of a walk, so a walk resumes where the previous call
left it, and returns the step at which the walk reached its fixed point (the
first step that moved nothing), or 0 if it did not; every later step would
leave the cells as they are.

The row writer takes float64 and int64 columns only. It writes each float64
as ``repr`` does (shortest round-trip digits, by Ryu), each int64 as ``str``
does, and an empty cell where a column's mask is set. Its 128-bit products use
the compiler's ``unsigned __int128``, so, like the vector types and atomics,
the library needs GCC or Clang on a 64-bit target (x86-64 or aarch64).
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
