"""Pin numpy's or scipy's bundled OpenBLAS to one thread for a block of code,
and run independent jobs in threads while it is pinned.

numpy and scipy each load an OpenBLAS of their own, and each keeps one thread
count for the whole process. numpy's wheels bundle libscipy_openblas64_,
whose symbols end in ``64_``; scipy's bundle libscipy_openblas, whose symbols
carry a ``scipy_openblas_`` prefix; a system OpenBLAS exports plain
``openblas_`` names. Each library is looked up once, among the shared
objects this process has mapped (Linux only). Where none is found, pinning
does nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import threading

# thread-count symbol patterns of each package's OpenBLAS, in lookup order
_SYMBOLS = {
    "scipy": ("scipy_openblas_{}", "openblas_{}"),  # scipy's own copy first
    "numpy": ("scipy_openblas_{}64_", "openblas_{}64_"),
}


class _Pin:
    """One library's thread count, pinned to 1 while any pinned body runs.

    Threads may overlap: the first to enter sets one thread and the last to
    leave restores the count it found.
    """

    def __init__(self, get, put):
        self.get, self.put = get, put
        self._lock = threading.Lock()
        self._depth = 0
        self._before = None

    @contextlib.contextmanager
    def one_thread(self):
        with self._lock:
            if self._depth == 0:
                self._before = self.get()
                self.put(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    self.put(self._before)


def _mapped_blas() -> dict:
    """{path: ctypes library} of every mapped shared object with "blas" in its name."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return {}
    # a line's sixth field is the mapped file, listed once per mapped segment
    paths = dict.fromkeys(f[5].strip() for f in fields if len(f) == 6)
    libs = {}
    for path in paths:
        if "blas" in os.path.basename(path).lower():
            try:
                libs[path] = ctypes.CDLL(path)
            except OSError:
                continue
    return libs


_pins = {}  # path of a mapped library -> its _Pin


@functools.cache
def threads(package: str) -> _Pin | None:
    """The :class:`_Pin` of the OpenBLAS that ``package`` ("numpy" or "scipy") runs on, or None.

    Looked up once, after the package has loaded it. Two packages whose names
    resolve to one library share its pin.
    """
    libs = _mapped_blas()
    for pattern in _SYMBOLS[package]:
        for path, lib in libs.items():
            get = getattr(lib, pattern.format("get_num_threads"), None)
            put = getattr(lib, pattern.format("set_num_threads"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return _pins.setdefault(path, _Pin(get, put))
    return None


def one_thread(package: str):
    """Context manager: ``package``'s OpenBLAS on one thread, the caller's count after."""
    pin = threads(package)
    return contextlib.nullcontext() if pin is None else pin.one_thread()


def cores() -> int:
    """The number of cores this process may use: its CPU affinity where the
    platform reports one (Linux), else os.cpu_count(), and at least 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def runners(package: str, n: int) -> int:
    """Threads that run n independent jobs on ``package``'s OpenBLAS pinned to
    one thread: the calling thread and one helper per further core this
    process may use, or the calling thread alone where that OpenBLAS is not
    found (and so cannot be pinned)."""
    if threads(package) is None:
        return 1
    return min(n, cores())


def in_threads(run, n: int, runners: int) -> list:
    """[run(0), ..., run(n - 1)], computed by the calling thread and runners - 1 helpers.

    Each thread takes the next index until none is left. After a failure no
    further index is handed out, and once every thread has stopped the error
    of the lowest failing index is raised: the one a serial loop would raise.
    """
    results, errors = [None] * n, {}
    indices = iter(range(n))
    lock, halt = threading.Lock(), threading.Event()

    def work():
        while not halt.is_set():
            with lock:
                i = next(indices, None)
            if i is None:
                return
            try:
                results[i] = run(i)
            except Exception as exc:
                errors[i] = exc
                halt.set()

    # each helper runs in a copy of the caller's context: np.errstate holds for every job
    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,), daemon=True)
               for _ in range(runners - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        halt.set()  # stops the helpers after their current index, also on KeyboardInterrupt
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results
