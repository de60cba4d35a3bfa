"""The benchmark's workloads: TBNet training steps and open-loop serving.

Every run goes through the same phases, so that every run reports every
end-to-end metric:

1. **set-up**, repeated :data:`SETUP_REPEATS` times: model construction
   through the first training step, plus ``Server`` construction over an
   empty kernel cache through the first resolved response;
2. :data:`ROUNDS` rounds, each made of
   - a **training** block, a closed loop: one caller runs
     ``TBNet(width=16)`` ``train_step`` calls at batch 64 with Adam on
     ``make_synthetic_batch`` data, never touching ``repro.serve``;
   - a **serving** piece of every ladder rate, an open loop: a thread
     ``Server`` (default buckets, one worker, default ``max_wait``)
     receives requests on a seeded Poisson schedule at that rate.

The workloads differ only in the request sizes of the serving phase (see
:data:`MIXES`).  All inputs come from the seed; the program under test only
receives the generated arrays.
"""

from __future__ import annotations

import gc
import os
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import codegen
from repro.models.tbnet import TBNet, make_synthetic_batch
from repro.nn.optim import Adam
from repro.obs import get_registry, profile

from perfbench.ledger import Ledger
from perfbench.openloop import StepResult, drive, poisson_offsets

WIDTH = 16
TRAIN_BATCH = 64
#: Distinct pre-generated training batches, cycled through by the loop.
TRAIN_BATCHES = 16
LEARNING_RATE = 1e-3
SETUP_REPEATS = 11
#: The serving latency limit: ``max_rps_at_slo`` counts rates whose p99
#: stays within it (the repo's existing ``slo_ms``).
SLO_MS = 50.0
#: A step keeps up when it finishes within 5% of its own schedule.
MIN_ACHIEVED_SHARE = 0.95
#: Share of ``--seconds`` spent in the training phase.
TRAIN_SHARE = 0.15
MIN_TRAIN_STEPS = 20
MIN_RUNG_REQUESTS = 50
#: Share of the serving time for each ladder rate, lowest first: long
#: light and heavy steps for their latency percentiles, and a short step
#: over capacity, which only has to show the backlog it builds.
LADDER_SHARES = (0.48, 0.48, 0.04)
MAX_WINDOWS = 25
WINDOW_REQUESTS = 1000
#: The run interleaves training blocks and every ladder rate in this many
#: rounds, so that each metric samples the whole run and not one stretch
#: of a shared host's drifting speed.
ROUNDS = 5
#: Unmeasured requests at the light rate before the first step.
WARMUP_S = 0.5
RTOL, ATOL = 1e-4, 1e-5

BACKWARD_OPS = ("conv2d", "max_pool2d", "batch_norm", "relu", "linear")
SERVE_OPS = ("conv2d", "max_pool2d", "batch_norm_relu", "linear_relu", "linear")
BUCKETS = (1, 4, 16, 64)
TRACED_BRANCHES = ("spatial", "context", "head")


@dataclass(frozen=True)
class Mix:
    """The serving phase's traffic: request sizes and the rate ladder."""

    sizes: Tuple[int, ...]
    weights: Tuple[float, ...]
    templates_per_size: int
    #: Offered rates in requests per second: the light and heavy rates
    #: whose latency is reported, then one far over capacity.  The host's
    #: speed drifts by up to 2x between minutes, so the heavy rate sits
    #: well under capacity and the top rate well over it; ``max_rps_at_slo``
    #: then moves only when capacity changes by more than that.  Near half
    #: of capacity the p50 already rides on queueing, and a shared host's
    #: speed swings moved it by a third between runs; at about a quarter of
    #: capacity it tracks the service time.
    ladder: Tuple[float, ...]

    @property
    def light(self) -> float:
        return self.ladder[0]

    @property
    def heavy(self) -> float:
        return self.ladder[1]


MIXES: Dict[str, Mix] = {
    # Batch-1 replay plus frontend overhead and the coalescing wait.
    "serve_single": Mix(
        sizes=(1,), weights=(1.0,), templates_per_size=256,
        ladder=(500.0, 1000.0, 8000.0),
    ),
    # Mostly small requests, some of them not a bucket size, so requests
    # decompose into several bucket runs; compute-bound in buckets 16/64.
    # Requests of 33 samples or more are 5% of the traffic: enough to set
    # the p99, rare enough that the p99 is not decided by a few bursts.
    "serve_mixed": Mix(
        sizes=(1, 2, 3, 4, 8, 16, 33, 63, 64),
        weights=(0.40, 0.20, 0.12, 0.10, 0.08, 0.05, 0.03, 0.01, 0.01),
        templates_per_size=8,
        ladder=(100.0, 150.0, 2500.0),
    ),
}


# --------------------------------------------------------------------------- #
# Inputs, all derived from the seed
# --------------------------------------------------------------------------- #
@dataclass
class Rung:
    rate: float
    offsets: np.ndarray  # due times, seconds from the step start
    picks: np.ndarray  # template index of each request

    def sizes(self, templates) -> List[int]:
        return [templates[i][0].shape[0] for i in self.picks]

    def split(self, parts: int) -> List["Rung"]:
        """``parts`` consecutive pieces, each re-timed to start at 0."""
        pieces = []
        for index in np.array_split(np.arange(len(self.offsets)), parts):
            if len(index):
                base = self.offsets[index[0] - 1] if index[0] else 0.0
                pieces.append(Rung(self.rate, self.offsets[index] - base, self.picks[index]))
        return pieces

    def first(self, seconds: float, limit: int) -> "Rung":
        """At most ``limit`` requests due within the first ``seconds``."""
        count = min(limit, int(np.searchsorted(self.offsets, seconds)))
        count = max(MIN_RUNG_REQUESTS, count)
        return Rung(self.rate, self.offsets[:count], self.picks[:count])


@dataclass
class Inputs:
    train_batches: list
    templates: List[Tuple[np.ndarray, np.ndarray]]
    warmup: Rung
    rungs: List[Rung]
    init_seed: int
    serve_seed: int


def _streams(seed: int) -> List[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]


def serve_schedule(mix: Mix, seed: int, seconds: float) -> Tuple[Rung, List[Rung]]:
    """The warm-up step and the ladder steps for ``seconds`` of serving,
    split by :data:`LADDER_SHARES`; sizes are drawn per request from
    ``mix``."""
    rng = _streams(seed)[3]
    probs = np.asarray(mix.weights) / sum(mix.weights)
    per_size = mix.templates_per_size

    def rung(rate: float, count: int) -> Rung:
        offsets = poisson_offsets(rng, rate, count)
        size_index = rng.choice(len(mix.sizes), size=count, p=probs)
        picks = size_index * per_size + rng.integers(0, per_size, size=count)
        return Rung(rate, offsets, picks)

    warmup = rung(mix.light, max(MIN_RUNG_REQUESTS, int(mix.light * WARMUP_S)))
    return warmup, [rung(rate, max(MIN_RUNG_REQUESTS, int(rate * share * seconds)))
                    for rate, share in zip(mix.ladder, LADDER_SHARES)]


def make_inputs(mix: Mix, seed: int, seconds: float) -> Inputs:
    init_rng, train_rng, sample_rng, _ = _streams(seed)
    batches = [make_synthetic_batch(TRAIN_BATCH, rng=train_rng) for _ in range(TRAIN_BATCHES)]
    pool_size = 4 * max(mix.sizes)
    images, context, _ = make_synthetic_batch(pool_size, rng=sample_rng)
    img, ctx = images.data, context.data
    templates = []
    for size in mix.sizes:
        for start in sample_rng.integers(0, pool_size - size + 1, size=mix.templates_per_size):
            templates.append((img[start:start + size], ctx[start:start + size]))
    warmup, rungs = serve_schedule(mix, seed, seconds * (1.0 - TRAIN_SHARE))
    seeds = init_rng.integers(0, 2**31, size=2)
    return Inputs(batches, templates, warmup, rungs, int(seeds[0]), int(seeds[1]))


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
class Setup:
    """Repeated cold set-ups; keeps the last training state and server."""

    def __init__(self, inputs: Inputs, cache_root: str, server_kwargs: dict) -> None:
        self.inputs = inputs
        self.cache_root = cache_root
        self.server_kwargs = server_kwargs
        self.serve_model = TBNet(width=WIDTH, rng=np.random.default_rng(inputs.serve_seed))
        self.serve_model.eval()
        self.times: List[float] = []
        self.model = self.optimizer = self.server = None

    def run(self, repeats: int) -> None:
        for _ in range(repeats):
            if self.server is not None:
                self.server.stop()
            self.times.append(self._train_setup() + self._serve_setup())

    def _train_setup(self) -> float:
        start = time.perf_counter()
        model = TBNet(width=WIDTH, rng=np.random.default_rng(self.inputs.init_seed))
        optimizer = Adam(model.parameters(), lr=LEARNING_RATE)
        model.train_step(optimizer, *self.inputs.train_batches[0])
        elapsed = time.perf_counter() - start
        self.model, self.optimizer = model, optimizer
        return elapsed

    def _serve_setup(self) -> float:
        os.environ["REPRO_KERNEL_CACHE"] = tempfile.mkdtemp(dir=self.cache_root)
        codegen.clear_kernel_memo()
        example = self.inputs.templates[0]
        start = time.perf_counter()
        self.server = self.serve_model.serve(**self.server_kwargs)
        self.server.submit(*example).result(timeout=60)
        return time.perf_counter() - start

    @property
    def setup_s(self) -> float:
        return statistics.median(self.times)


# --------------------------------------------------------------------------- #
# Training phase
# --------------------------------------------------------------------------- #
class TrainLoop:
    """Closed-loop train steps on the set-up's model, run in blocks.

    With a ``ledger``, steps alternate between an untraced ``train_step``
    and a traced step that makes the same calls one by one, timing each
    layer; the untraced steps give the trace-overhead baseline.
    """

    def __init__(self, setup: Setup, ledger: Optional[Ledger] = None,
                 profiler: Optional[profile.Profiler] = None) -> None:
        self.model, self.optimizer = setup.model, setup.optimizer
        self.batches = setup.inputs.train_batches
        self.ledger, self.profiler = ledger, profiler
        self.index = 1  # batch 0 was the set-up step
        self.step_s: List[float] = []
        self.traced_step_s: List[float] = []
        self.losses: List[float] = []

    def run(self, seconds: float, min_steps: int = 0) -> None:
        """Train for ``seconds``, and on until ``min_steps`` steps in all."""
        clock = time.perf_counter
        end = clock() + seconds
        while clock() < end or len(self.losses) < min_steps:
            batch = self.batches[self.index % len(self.batches)]
            if self.ledger is not None and self.index % 2 == 0:
                with profile.using_profiler(self.profiler):
                    elapsed, loss = _traced_step(self.model, self.optimizer, batch,
                                                 self.ledger)
                self.traced_step_s.append(elapsed)
            else:
                start = clock()
                loss = self.model.train_step(self.optimizer, *batch)
                self.step_s.append(clock() - start)
            self.losses.append(loss)
            self.index += 1

    def failures(self) -> Tuple[int, int]:
        """``(attempted, failed)``: every step must give a finite loss, and
        the loss must fall over the run (one more check)."""
        losses = np.asarray(self.losses)
        bad = int((~np.isfinite(losses)).sum())
        quarter = max(1, len(losses) // 4)
        falls = bool(losses[-quarter:].mean() < losses[:quarter].mean())
        return len(losses) + 1, bad + (0 if falls else 1)


def forward_children(model: TBNet):
    """``(module path, module)`` for each child of the traced branches."""
    for name, module in model.named_modules():
        parts = name.split(".")
        if len(parts) == 3 and parts[0] in TRACED_BRANCHES:
            yield name, module


def _traced_step(model, optimizer, batch, ledger: Ledger) -> Tuple[float, float]:
    undo = [ledger.wrap(module, "forward", "forward." + name)
            for name, module in forward_children(model)]
    clock = time.monotonic
    try:
        t0 = clock()
        loss = model.loss(*batch)
        t1 = clock()
        loss.backward()
        t2 = clock()
        optimizer.step()
        optimizer.zero_grad()
        t3 = clock()
        value = loss.item()
        t4 = clock()
    finally:
        for restore in undo:
            restore()
    ledger.record("autograd.forward", t0, t1)
    ledger.record("autograd.backward", t1, t2)
    ledger.record("nn.optim.step", t2, t3)
    ledger.record("train.step", t0, t4)
    return t4 - t0, value


# --------------------------------------------------------------------------- #
# Serving phase
# --------------------------------------------------------------------------- #
def references(model: TBNet, templates) -> List[np.ndarray]:
    """Eager ``model.infer`` of every distinct request."""
    return [model.infer(images, context) for images, context in templates]


@dataclass
class Piece:
    """One driven and checked step (or part of one)."""

    latency_s: np.ndarray  # from due time; failed requests get the step length
    late_s: np.ndarray
    failed: int
    schedule_s: float  # due time of the last request
    elapsed_s: float  # start to the last resolution
    queue_depth_end: int
    window: Tuple[float, float]  # monotonic start and end


def run_piece(server, rung: Rung, templates, refs) -> Piece:
    """Drive one step and check every response against its reference.

    A failed, unresolved or wrong response counts as failed and as missing
    the latency limit: its latency is set to the whole step's length.
    """
    requests = [templates[i] for i in rung.picks]
    # Collect the previous step's garbage now, so the collector does not
    # bill the benchmark's own bookkeeping to this step's latencies.
    gc.collect()
    start = time.monotonic()
    step: StepResult = drive(server.submit, requests, rung.offsets,
                             lambda: server.health()["queue_depth"])
    end = time.monotonic()
    bad = np.zeros(len(requests), dtype=bool)
    for i, out in enumerate(step.outputs):
        ref = refs[rung.picks[i]]
        bad[i] = not (
            isinstance(out, np.ndarray)
            and out.shape == ref.shape
            and np.allclose(out, ref, rtol=RTOL, atol=ATOL)
            and np.array_equal(out.argmax(axis=1), ref.argmax(axis=1))
        )
    latency = np.where(bad | ~np.isfinite(step.latency_s), step.elapsed_s, step.latency_s)
    return Piece(latency, step.late_s, int(bad.sum()), float(rung.offsets[-1]),
                 step.elapsed_s, step.queue_depth_end, (start, end))


@dataclass
class RungReport:
    """One ladder rate over all its pieces.

    Percentiles are the median over consecutive windows of at least
    :data:`WINDOW_REQUESTS` requests (ten beyond the p99), so one
    transient stall on a shared host does not decide the figure.
    """

    rate: float
    pieces: List[Piece]

    def __post_init__(self) -> None:
        latency = np.concatenate([p.latency_s for p in self.pieces])
        windows = np.array_split(
            latency, max(1, min(MAX_WINDOWS, len(latency) // WINDOW_REQUESTS)))
        self.requests = len(latency)
        self.failed = sum(p.failed for p in self.pieces)
        self.p50_ms = float(np.median([np.percentile(w, 50) for w in windows]) * 1e3)
        self.p99_ms = float(np.median([np.percentile(w, 99) for w in windows]) * 1e3)
        self.offered_rps = self.requests / sum(p.schedule_s for p in self.pieces)
        self.achieved_rps = self.requests / sum(p.elapsed_s for p in self.pieces)
        self.queue_depth_end = max(p.queue_depth_end for p in self.pieces)
        late = np.concatenate([p.late_s for p in self.pieces])
        self.late_ms_p99 = float(np.percentile(late, 99) * 1e3)

    @property
    def windows(self) -> List[Tuple[float, float]]:
        return [p.window for p in self.pieces]

    @property
    def passed(self) -> bool:
        return (self.p99_ms <= SLO_MS
                and self.achieved_rps >= MIN_ACHIEVED_SHARE * self.offered_rps)


def run_rung(server, rung: Rung, templates, refs) -> RungReport:
    return RungReport(rung.rate, [run_piece(server, rung, templates, refs)])


def max_rps_at_slo(reports: Sequence[RungReport]) -> float:
    """Achieved rate of the highest ladder rate that met the limit with no
    backlog (0 when none did)."""
    passing = [r for r in reports if r.passed]
    return max(passing, key=lambda r: r.rate).achieved_rps if passing else 0.0


class ServeTracing:
    """Timing wrappers on every pool and session of a server, plus the op
    profiler, switched on for the traced steps only."""

    def __init__(self, server, ledger: Ledger, profiler: profile.Profiler) -> None:
        self.server, self.ledger, self.profiler = server, ledger, profiler
        self._undo: List = []
        self._scope = None

    def __enter__(self) -> "ServeTracing":
        for pool in self.server.pools:
            self._undo.append(self.ledger.wrap(
                pool, "serve", "pool.serve",
                lambda batch, out=None: {"samples": int(batch[0].shape[0])}))
            for bucket, session in pool.sessions.items():
                self._undo.append(self.ledger.wrap(session, "run", f"session.run.b{bucket}"))
        self._scope = profile.using_profiler(self.profiler)
        self._scope.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._scope.__exit__(*exc)
        for restore in self._undo:
            restore()
        self._undo.clear()


def codegen_counters() -> Dict[str, float]:
    stats = codegen.codegen_stats()
    family = get_registry().get("repro_codegen_compile_ms")
    compile_ms = sum(child.sum for _, child in family.collect()) if family else 0.0
    return {
        "codegen.kernels_compiled": float(stats["compiled"]),
        "codegen.cache_hits": float(stats["disk_hits"] + stats["memo_hits"]),
        "codegen.fallbacks": float(stats["fallbacks"]),
        "codegen.compile_ms": float(compile_ms),
    }
