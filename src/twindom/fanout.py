"""The fan-out to forked workers behind :func:`graphs.ordered_map`, imported
only by a batch that reaches past its first chunk."""

from __future__ import annotations

import _thread
import os
import signal
from itertools import islice

from .graphs import CHUNK


def _until_error(values) -> tuple[list, Exception | None]:
    """The values an iterable yields before it raises, and what it raised
    (None when it ran out)."""
    out = []
    try:
        for value in values:
            out.append(value)
    except Exception as e:
        return out, e
    return out, None


def _fork(fn, lifeline: tuple[int, int]):
    """Fork a worker that answers each pickled chunk with one pickled
    ``_until_error(map(fn, chunk))``; (pid, task pipe, its read end, result
    stream). The worker closes the ``lifeline`` pipe's write end, which only
    this process holds, and exits when its read end reaches end of file, that
    is, when this process is gone, however it ended."""
    import pickle  # only a fan-out needs it
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            for fd in (task_w, result_r, lifeline[1]):
                os.close(fd)
            _thread.start_new_thread(lambda: os.read(lifeline[0], 1) or os._exit(1), ())
            tasks, results = os.fdopen(task_r, "rb"), os.fdopen(result_w, "wb")
            while True:
                pickle.dump(_until_error(map(fn, pickle.load(tasks))), results)
                results.flush()
        finally:
            os._exit(1)
    os.close(result_w)
    # task_r stays open here, so a write to a dead worker fills its pipe
    # instead of raising SIGPIPE, and _send never blocks on a full one
    os.set_blocking(task_w, False)
    return pid, task_w, task_r, os.fdopen(result_r, "rb")


def _send(worker, data: bytes) -> None:
    import select
    _, task_w, _, results = worker
    view = memoryview(data)
    while view:
        try:
            view = view[os.write(task_w, view):]
        except BlockingIOError:  # wait for room; an idle worker's results end only if it died
            if select.select([results], [task_w], [])[0]:
                raise ChildProcessError("a worker process died") from None


def fan_out(fn, items, jobs: int):
    """``ordered_map`` over at most ``jobs`` forked workers, each forked for a
    chunk of ``CHUNK`` items (fewer at the end) that finds none idle. Each has
    one chunk in flight at a time, and at most ``2 * jobs`` chunks are sent
    and not yet yielded, which bounds the buffer that restores order.

    A worker reads pickled chunks and answers each with one pickle: the
    results up to its first failing item, and that failure. The workers
    exit when this process ends: a pipe whose write end only it holds then
    reaches end of file."""
    workers = []
    lifeline = os.pipe()  # the kernel closes its write end when this process ends, however it ends
    try:
        idle, busy, done = [], {}, {}  # busy: result stream -> (worker, chunk number)
        sent = yielded = 0
        more, error = True, None  # error: the input iterator's
        while True:
            while yielded in done:
                values, item_error = done.pop(yielded)
                yield from values
                if item_error is not None:
                    raise item_error
                yielded += 1
            while more and (idle or len(workers) < jobs) and sent - yielded < 2 * jobs:
                chunk, error = _until_error(islice(items, CHUNK))
                more = error is None and len(chunk) == CHUNK
                if chunk:
                    import pickle  # only a chunk sent needs it
                    if not idle:
                        workers.append(_fork(fn, lifeline))
                    worker = idle.pop() if idle else workers[-1]
                    _send(worker, pickle.dumps(chunk))
                    busy[worker[3]] = worker, sent
                    sent += 1
            if not busy:  # every chunk sent is yielded, and the input is spent
                break
            import select
            for results in select.select(list(busy), [], [])[0]:
                worker, number = busy.pop(results)
                try:
                    done[number] = pickle.load(results)
                except (EOFError, pickle.UnpicklingError):  # no reply, or one cut short: the worker died
                    raise ChildProcessError("a worker process died") from None
                idle.append(worker)
        if error is not None:
            raise error
    finally:
        # no lock is shared with a worker, so killing one at any point is safe
        for pid, task_w, task_r, results in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(task_w)
            os.close(task_r)
            results.close()
        for fd in lifeline:
            os.close(fd)

