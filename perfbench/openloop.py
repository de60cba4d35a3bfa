"""Open-loop load generation for the serving workloads.

Independent users do not wait for each other, so requests are sent on a
seeded Poisson schedule whatever the server is doing, and its queue can
grow.  Each request is timed from the moment it was *due*, not from the
moment the generator got round to sending it: a stalled generator then
shows up as latency on the requests it delayed, and its lateness is
reported on its own.

The generator runs on the calling thread only; completions are stamped by a
future callback on the server's worker thread.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

#: Requests still unresolved this long after the last send count as failed.
DRAIN_TIMEOUT_S = 30.0


def poisson_offsets(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """Due times (seconds from the start of a step) of ``count`` arrivals
    of a Poisson process at ``rate`` requests per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class StepResult:
    """One ladder step: every request's timing and outcome."""

    late_s: np.ndarray  # send time minus due time
    latency_s: np.ndarray  # resolution minus due time (inf: never resolved)
    outputs: List[object]  # result array, or the exception it resolved with
    queue_depth_end: int  # requests still queued right after the last send
    elapsed_s: float  # step start to the last resolution


def drive(submit: Callable, requests: Sequence[tuple], offsets: np.ndarray,
          queue_depth: Callable[[], int]) -> StepResult:
    """Send ``requests[i]`` at ``offsets[i]`` seconds through ``submit``.

    ``submit(*arrays)`` must return a :class:`concurrent.futures.Future`;
    ``queue_depth()`` is read once, right after the last send, as the
    backlog check.  A submit that raises resolves its request as failed.

    Futures are dropped as soon as they resolve: holding tens of thousands
    of them until the step ends would make every full garbage collection
    in the step scan them, and bill those pauses to the server.
    """
    count = len(offsets)
    done = np.full(count, math.inf)
    late = np.empty(count)
    outputs: List[object] = [None] * count
    remaining = [count]
    lock = threading.Lock()
    finished = threading.Event()
    clock = time.monotonic
    sleep = time.sleep

    def resolved(index: int, output: object) -> None:
        done[index] = clock()
        outputs[index] = output
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                finished.set()

    def on_done(index: int, future) -> None:
        try:
            output = future.result()
        except Exception as exc:  # the request failed; checked by the caller
            output = exc
        resolved(index, output)

    start = clock() + 0.002
    due = start + offsets
    for i in range(count):
        ahead = due[i] - clock()
        if ahead > 0:
            sleep(ahead)
        late[i] = clock() - due[i]
        try:
            future = submit(*requests[i])
        except Exception as exc:  # counted as a failed request
            resolved(i, exc)
            done[i] = math.inf
            continue
        future.add_done_callback(functools.partial(on_done, i))
    depth = int(queue_depth())
    if not finished.wait(DRAIN_TIMEOUT_S):
        for i in np.flatnonzero(~np.isfinite(done)):
            if outputs[i] is None:
                outputs[i] = TimeoutError("request unresolved after the drain timeout")
    finished_at = done[np.isfinite(done)]
    last = float(finished_at.max()) if finished_at.size else clock()
    return StepResult(
        late_s=late,
        latency_s=done - due,
        outputs=outputs,
        queue_depth_end=depth,
        elapsed_s=max(last - start, float(offsets[-1])),
    )
