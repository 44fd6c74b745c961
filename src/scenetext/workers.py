"""The one fork-and-pipe worker map, shared by the builds and `evaluate`.

`map(job, chunks, workers)` yields (chunk, job(chunk)) for each chunk that
chunks() yields, in order. With more than one worker it forks them and
each worker calls chunks() itself, so a job reads whatever the parent held
at the fork: the parent hands a worker no input, and reads back only the
pickled results, through one pipe per worker.

This module loads no executor and, until a map forks, no pickle, fcntl or
signal module.
"""

import os
from contextlib import suppress
from typing import Callable, Iterable, Iterator, NoReturn

from .errors import SceneTextError

CHUNK_ITEMS = 64  # lines or items per unit of work handed to a worker


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map(job: Callable, chunks: Callable[[], Iterable], workers: int) -> Iterator[tuple]:
    """Yield (chunk, job(chunk)) for each chunk of chunks(), in order. With
    more than one worker (capped at `available_cpus()`), where processes can
    fork, chunk k's job runs in forked worker k mod `workers`, else here.
    However this ends, every worker is killed and reaped."""
    workers = min(workers, available_cpus())
    if workers < 2 or not hasattr(os, "fork"):
        for chunk in chunks():
            yield chunk, job(chunk)
        return
    import fcntl
    import pickle
    import signal

    def work(index: int, pipe) -> NoReturn:
        """Worker `index`: pickle job(chunk) to `pipe` for chunks index, index +
        workers, ..., or the exception that ends the work, and exit. It ignores Ctrl-C
        and holds no read end, so it exits at its next write once the parent is gone."""
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            for read_end in pipes:
                read_end.close()
            for k, chunk in enumerate(chunks()):
                if k % workers == index:
                    pickle.dump(job(chunk), pipe)
                    pipe.flush()
        except Exception as exc:
            pickle.dump(exc, pipe)
            pipe.flush()
        finally:  # also when the handler above fails
            os._exit(0)  # runs none of the parent's cleanup: no buffer or file is flushed

    pids, pipes = [], []
    try:
        for index in range(workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with suppress(AttributeError, OSError):  # Linux only, within its limits
                fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 1 << 20)  # not 64 KiB: ~5 chunks' results
            with open(write_end, "wb") as pipe:
                if (pid := os.fork()) == 0:
                    work(index, pipe)
                pids.append(pid)
        for k, chunk in enumerate(chunks()):
            try:
                result = pickle.load(pipes[k % workers])
            except (EOFError, pickle.UnpicklingError):
                raise SceneTextError("a worker process died") from None
            if isinstance(result, Exception):
                raise result
            yield chunk, result
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
