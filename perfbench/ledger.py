"""Spans recorded from the benchmark's side of each layer boundary.

The traced run wraps the public entry points of each layer *on the
instance* (a module's ``forward``, a session's ``run``, a pool's
``serve``), so nothing under ``src/`` is instrumented and the untraced run
executes exactly the code users run.  Timestamps use ``time.monotonic``,
the serving stack's own clock, so these spans line up with the
``Server``'s stage spans in one Chrome trace.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Tuple

Span = Tuple[str, float, float, str, Optional[dict]]


class Ledger:
    """An in-memory list of ``(name, start, end, thread, args)`` spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def record(self, name: str, start: float, end: float,
               args: Optional[dict] = None) -> None:
        # list.append is atomic under the interpreter lock, so worker-thread
        # spans need no lock of their own.
        self.spans.append((name, start, end, threading.current_thread().name, args))

    def wrap(self, obj, attr: str, name: str,
             args_of: Optional[Callable] = None) -> Callable[[], None]:
        """Shadow ``obj.<attr>`` with a timing wrapper; returns the undo.

        ``args_of(*call_args)`` may return a small dict stored on each span.
        """
        inner = getattr(obj, attr)
        clock = time.monotonic
        record = self.record

        def timed(*call_args, **kwargs):
            start = clock()
            try:
                return inner(*call_args, **kwargs)
            finally:
                record(name, start, clock(),
                       args_of(*call_args) if args_of is not None else None)

        setattr(obj, attr, timed)
        return lambda: vars(obj).pop(attr, None)

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]


def chrome_trace(ledger: Ledger, server_trace: dict, meta: dict) -> dict:
    """One Chrome ``trace_event`` object holding the benchmark's spans and
    the server's stage spans (``pid`` 1 and 2 respectively)."""
    events = [
        {
            "name": name,
            "cat": "bench",
            "ph": "X",
            "ts": start * 1e6,
            "dur": max(0.0, end - start) * 1e6,
            "pid": 1,
            "tid": thread,
            "args": args or {},
        }
        for name, start, end, thread, args in ledger.spans
    ]
    events += [dict(event, pid=2) for event in server_trace["traceEvents"]]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
