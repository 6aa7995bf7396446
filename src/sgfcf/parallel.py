"""Independent blocks of work spread over a number of workers, by default
every CPU the process may run on.

The calling thread takes a share of the blocks and a pool adds one thread
per further worker, so one worker starts no thread. The threads overlap
where the blocks spend their time: in scipy's sparse products and in
numpy and BLAS work, which release the interpreter lock.

``one_blas_thread`` sets numpy's and scipy's OpenBLAS builds to 1 thread
while an evaluation pass scores user chunks on more than one worker, so w
workers' GEMMs run w threads, not w times OpenBLAS's own count. The
setting is process-global: while a pass runs, BLAS calls from any thread
run on 1 thread. Each build's count is restored when the last pinned pass
ends, an exception included; without OpenBLAS (another BLAS, or no
``/proc/self/maps`` to find it by) the pin does nothing. ``BlockPool.run``
does not pin in general: homophily blocks and Gram formation run scipy
sparse products, no BLAS, and pinning around them slowed the LAPACK
``evr`` that follows Gram formation by 0.1 to 0.2 s (3.39-3.70 s against
3.18-3.39 s, and 2.57-2.84 s against 2.50-2.55 s in a faster stretch of
the host; 2 cores, 8000 x 3200, K=256).
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

_END = object()
# (get, set) thread-count symbols of numpy's 64-bit-integer OpenBLAS build
# and of scipy's.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)
# Passes inside one_blas_thread, and the counts the first one found; the
# setting is the process's, so the count is too.
_pin_lock = threading.Lock()
_pins = 0
_saved: list[int] = []


def available_cpus() -> int:
    """The CPUs this process may run on; taskset can cut them below the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_builds() -> tuple:
    """(get, set) thread-count functions of each loaded OpenBLAS build
    that exports the symbols above, found once by the shared objects'
    paths in the process's memory map; () when there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return ()
    builds = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file was deleted or replaced
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                builds.append((get, set_))
                break
    return tuple(builds)


@contextmanager
def one_blas_thread():
    """Run the body with every OpenBLAS build at 1 thread, and yield
    whether one was found. Nested or concurrent uses share one pin: the
    first in saves and pins the counts, the last out restores them."""
    global _pins, _saved
    builds = _openblas_builds()
    with _pin_lock:
        if _pins == 0:
            _saved = [get() for get, _ in builds]
            for _, set_ in builds:
                set_(1)
        _pins += 1
    try:
        yield bool(builds)
    finally:
        with _pin_lock:
            _pins -= 1
            if _pins == 0:
                for (_, set_), threads in zip(builds, _saved):
                    set_(threads)


class BlockPool:
    """The calling thread plus ``workers - 1`` pool threads (0 workers =
    ``available_cpus()``); use it in a ``with`` statement, which joins the
    threads on exit."""

    def __init__(self, workers: int = 0):
        self.workers = workers or available_cpus()
        self._pool = ThreadPoolExecutor(self.workers - 1) if self.workers > 1 else None

    def __enter__(self) -> "BlockPool":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def run(self, work, blocks) -> list:
        """Call ``work(share)`` once on the calling thread and once on each
        pool thread, and return the calls' results, the calling thread's
        first. Each ``share`` draws from one iterator over ``blocks``, so
        every block goes to exactly one call, whichever is free first.

        An exception in any call stops the draws; the first one raised
        (the calling thread's before the pool's) propagates once every
        call has returned, so no block is still running.
        """
        pending = iter(blocks)
        lock = threading.Lock()
        stop = threading.Event()

        def share():
            while not stop.is_set():
                with lock:
                    block = next(pending, _END)
                if block is _END:
                    return
                yield block

        def call():
            try:
                return work(share())
            except BaseException:
                stop.set()
                raise

        futures = [self._pool.submit(call) for _ in range(self.workers - 1)] if self._pool else []
        try:
            results = [call()]
        finally:
            for future in futures:
                future.exception()  # waits for the call, whatever it raised
        return results + [future.result() for future in futures]
