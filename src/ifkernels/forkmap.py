"""An ordered map over forked worker processes, with few tasks in flight.

``cli`` formats the blocks of a trajectory CSV with it.  It is imported only
when a pool starts, so a command that starts none neither compiles it nor
loads ``concurrent.futures`` and ``multiprocessing``.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import WorkerFailedError


def _worker_init(alive_r, alive_w):
    """Ignore SIGINT, and exit once the parent has gone.

    The parent handles Ctrl-C and shuts the pool down.  Once every worker has
    closed its copy of ``alive_w``, the parent holds the only write end, so a
    read of ``alive_r`` returns when the parent exits, however it dies.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.close(alive_w)
    threading.Thread(target=lambda: (os.read(alive_r, 1), os._exit(1)), daemon=True).start()


def ordered_map(fn, head, items, workers):
    """Yield fn(head, item) for each item, in order, computed in ``workers`` forked processes.

    At most 2 x ``workers`` items are in flight, so memory does not grow with
    the number of items.  The pool is shut down however the iteration ends.
    A worker that dies raises WorkerFailedError; an exception of ``fn`` is
    raised as itself.
    """
    alive = os.pipe()
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_worker_init, initargs=alive)
    pending = collections.deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, head, item))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    except BrokenProcessPool:
        raise WorkerFailedError("worker_failed: a CSV formatter process ended abruptly"
                                " (killed, or out of memory)") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        for fd in alive:
            os.close(fd)
