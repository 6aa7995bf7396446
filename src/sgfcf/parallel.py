"""Independent blocks of work spread over a number of workers, by default
every CPU the process may run on.

The calling thread takes a share of the blocks and a pool adds one thread
per further worker, so one worker starts no thread. The threads overlap
where the blocks spend their time: in scipy's sparse products and in
numpy and BLAS work, which release the interpreter lock.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

_END = object()


def available_cpus() -> int:
    """The CPUs this process may run on; taskset can cut them below the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
