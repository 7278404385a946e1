"""Pin numpy's or scipy's bundled OpenBLAS to one thread for a block of code.

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
