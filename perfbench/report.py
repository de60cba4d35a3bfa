"""One benchmark run: drive the workload phases and reduce them to metrics."""

from __future__ import annotations

import bisect
import gc
import json
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.obs import profile

from perfbench import workloads as wl
from perfbench.ledger import Ledger, chrome_trace


TRACED_STEP_REQUESTS = 6000


@dataclass
class Result:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    lines: List[str] = field(default_factory=list)


def _rung_lines(reports: List[wl.RungReport]) -> List[str]:
    lines = ["# rate_rps  requests  failed  p50_ms   p99_ms   achieved_rps  "
             "queue_end  gen_late_p99_ms  slo_met"]
    for r in reports:
        lines.append(
            f"# {r.rate:8.0f}  {r.requests:8d}  {r.failed:6d}  {r.p50_ms:7.3f}  "
            f"{r.p99_ms:7.3f}  {r.achieved_rps:12.1f}  {r.queue_depth_end:9d}  "
            f"{r.late_ms_p99:15.3f}  {r.passed}"
        )
    return lines


def _rung_at(reports, rate: float) -> wl.RungReport:
    return next(r for r in reports if r.rate == rate)


def untraced_run(workload: str, seed: int, seconds: float, cache_root: str) -> Result:
    mix = wl.MIXES[workload]
    inputs = wl.make_inputs(mix, seed, seconds)
    setup = wl.Setup(inputs, cache_root, {})
    setup.run(wl.SETUP_REPEATS)
    refs = wl.references(setup.serve_model, inputs.templates)
    # Inputs and references live for the whole run: keep them out of the
    # collector's scans.
    gc.freeze()
    train = wl.TrainLoop(setup)
    block_s = seconds * wl.TRAIN_SHARE / wl.ROUNDS
    server = setup.server
    try:
        warmup = wl.run_rung(server, inputs.warmup, inputs.templates, refs)
        # The rates under capacity are split across the rounds; the top
        # rate runs once, at the end, so that its backlog builds in one
        # piece and drains without delaying the other steps.
        *split, top = inputs.rungs
        pieces = {rung.rate: [] for rung in inputs.rungs}
        schedules = [rung.split(wl.ROUNDS) for rung in split]
        for round_ in range(wl.ROUNDS):
            last = round_ == wl.ROUNDS - 1
            train.run(block_s, min_steps=wl.MIN_TRAIN_STEPS if last else 0)
            for parts in schedules:
                pieces[parts[round_].rate].append(
                    wl.run_piece(server, parts[round_], inputs.templates, refs))
        pieces[top.rate].append(wl.run_piece(server, top, inputs.templates, refs))
    finally:
        server.stop()
    reports = [wl.RungReport(rate, parts) for rate, parts in pieces.items()]
    attempted, failed = train.failures()
    for r in [warmup] + reports:
        attempted += r.requests
        failed += r.failed
    step_ms = np.asarray(train.step_s) * 1e3
    light, heavy = _rung_at(reports, mix.light), _rung_at(reports, mix.heavy)
    metrics = {
        "setup_s": setup.setup_s,
        "step_ms_p90": float(np.percentile(step_ms, 90)),
        "lat_ms_p50.light": light.p50_ms,
        "lat_ms_p50.heavy": heavy.p50_ms,
        "max_rps_at_slo": wl.max_rps_at_slo(reports),
        "ok_frac": (attempted - failed) / attempted,
    }
    # Reported, not gated: on a shared host these spread wider between runs
    # than any bound the benchmark may set (see BENCHMARK.json).
    lines = [f"# train steps {len(step_ms)}, step_ms_p50 {np.percentile(step_ms, 50):.3f}, "
             f"loss {train.losses[0]:.4f} -> {train.losses[-1]:.4f}",
             f"# lat_ms_p99.light {light.p99_ms:.3f}, lat_ms_p99.heavy {heavy.p99_ms:.3f}"]
    lines += _rung_lines(reports)
    return Result(metrics, attempted, failed, lines)


def traced_run(workload: str, seed: int, seconds: float, cache_root: str,
               env: dict, trace_path) -> Result:
    mix = wl.MIXES[workload]
    inputs = wl.make_inputs(mix, seed, seconds)
    # The serving time goes to three equal steps: the light rate untraced
    # (the overhead baseline), then the light and heavy rates traced.  The
    # request cap keeps the Chrome trace to a few tens of megabytes.
    step_s = seconds * (1.0 - wl.TRAIN_SHARE) / 3
    light_rung = _rung_at(inputs.rungs, mix.light).first(step_s, TRACED_STEP_REQUESTS)
    heavy_rung = _rung_at(inputs.rungs, mix.heavy).first(step_s, TRACED_STEP_REQUESTS)
    requests = len(inputs.warmup.offsets) + 2 * len(light_rung.offsets) + len(heavy_rung.offsets)
    # About five stage spans per request; keep every one of them.
    kwargs = {"trace_capacity": 6 * requests + 4096}
    setup = wl.Setup(inputs, cache_root, kwargs)
    setup.run(wl.SETUP_REPEATS)
    ledger, prof = Ledger(), profile.Profiler()
    train = wl.TrainLoop(setup, ledger, prof)
    train.run(seconds * wl.TRAIN_SHARE, min_steps=wl.MIN_TRAIN_STEPS)
    refs = wl.references(setup.serve_model, inputs.templates)
    gc.freeze()
    server = setup.server
    try:
        warmup = wl.run_rung(server, inputs.warmup, inputs.templates, refs)
        plain = wl.run_rung(server, light_rung, inputs.templates, refs)
        before = server.stats()
        with wl.ServeTracing(server, ledger, prof):
            traced = [wl.run_rung(server, rung, inputs.templates, refs)
                      for rung in (light_rung, heavy_rung)]
        after = server.stats()
    finally:
        server.stop()
    attempted, failed = train.failures()
    for r in [warmup, plain] + traced:
        attempted += r.requests
        failed += r.failed

    metrics: Dict[str, float] = {}
    train_cover = _train_layers(metrics, ledger, prof, train)
    serve_cover = _serve_layers(metrics, ledger, prof, server, traced, before, after)
    metrics.update(wl.codegen_counters())
    metrics["bench.gen_late_ms_p99"] = max(r.late_ms_p99 for r in [plain] + traced)
    train_overhead = (statistics.median(train.traced_step_s)
                      / statistics.median(train.step_s) - 1.0)
    serve_overhead = traced[0].p50_ms / plain.p50_ms - 1.0
    metrics["trace.overhead_frac"] = float(max(train_overhead, serve_overhead))
    metrics["trace.coverage.train"] = train_cover
    metrics["trace.coverage.serve"] = serve_cover
    metrics["trace.coverage"] = min(train_cover, serve_cover)

    with open(trace_path, "w") as fh:
        json.dump(chrome_trace(ledger, server.tracer.chrome_trace(),
                               {"workload": workload, "seed": seed, "env": env}), fh)
    lines = [f"# traced train steps {len(train.traced_step_s)} "
             f"(untraced {len(train.step_s)}); overhead train "
             f"{train_overhead:+.3f}, serve {serve_overhead:+.3f}"]
    lines += _rung_lines([plain] + traced)
    lines.append(f"# chrome trace: {trace_path}")
    return Result(metrics, attempted, failed, lines)


def _train_layers(metrics, ledger: Ledger, prof: profile.Profiler,
                  train: wl.TrainLoop) -> float:
    """Per-step layer times of the traced steps; returns the share of the
    traced steps' time that the layers cover."""
    steps = len(train.traced_step_s)

    def per_step_ms(name: str) -> float:
        return sum(ledger.durations(name)) * 1e3 / steps

    for name in ("autograd.forward", "autograd.backward"):
        metrics[name + "_ms"] = per_step_ms(name)
    for name in sorted({span[0] for span in ledger.spans if span[0].startswith("forward.")}):
        metrics[name + "_ms"] = per_step_ms(name)
    metrics["nn.optim.step_ms"] = per_step_ms("nn.optim.step")
    ops = _op_table(prof, "backward:", wl.BACKWARD_OPS)
    for op, total_ms in ops.items():
        metrics[f"backward.{op}_ms"] = total_ms / steps
    covered = (metrics["autograd.forward_ms"] + metrics["autograd.backward_ms"]
               + metrics["nn.optim.step_ms"])
    return covered / per_step_ms("train.step")


def _op_table(prof: profile.Profiler, prefix: str, named) -> Dict[str, float]:
    """Total ms per named op under ``prefix``, the rest summed as ``other``."""
    totals = {op: 0.0 for op in named}
    totals["other"] = 0.0
    for key, row in prof.stats().items():
        if key.startswith(prefix):
            op = key[len(prefix):]
            totals[op if op in totals else "other"] += row["total_ms"]
    return totals


def _serve_layers(metrics, ledger: Ledger, prof: profile.Profiler, server,
                  traced: List[wl.RungReport], before: dict, after: dict) -> float:
    """Per-layer serving numbers over the traced steps; returns the share of
    the server's service time (collection to resolution) covered by the
    coalesce, pool-serve, scatter and resolve layers."""
    requests = sum(r.requests for r in traced)
    for bucket in wl.BUCKETS:
        calls = ledger.durations(f"session.run.b{bucket}")
        metrics[f"session.run_ms.b{bucket}"] = (
            float(np.mean(calls)) * 1e3 if calls else 0.0)
        metrics[f"frontend.bucket_calls.b{bucket}"] = float(
            after["bucket_calls"].get(bucket, 0) - before["bucket_calls"].get(bucket, 0))
    for op, total_ms in _op_table(prof, "serve:", wl.SERVE_OPS).items():
        metrics[f"serve.{op}_ms"] = total_ms / requests
    metrics["frontend.eager_tail"] = float(after["eager_tail_serves"])
    pool_spans = sorted((s[1], s[2], s[4]["samples"]) for s in ledger.spans
                        if s[0] == "pool.serve")
    metrics["frontend.samples_per_batch"] = float(np.mean([s[2] for s in pool_spans]))

    windows = [w for r in traced for w in r.windows]
    stages: Dict[int, Dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for span in server.tracer.spans():
        stages[span.trace_id][span.name].append(span)
    stage_ms: Dict[str, list] = defaultdict(list)
    pool_starts = [s[0] for s in pool_spans]
    service = covered = 0.0
    for spans in stages.values():
        queue = spans.get("queue_wait")
        if not queue or not any(a <= queue[0].start <= b for a, b in windows):
            continue
        if not spans.get("resolve"):
            continue
        for name in ("queue_wait", "coalesce", "scatter", "resolve"):
            stage_ms[name].append(sum(s.duration for s in spans.get(name, ())) * 1e3)
        service += spans["resolve"][-1].end - queue[-1].end
        covered += sum(s.duration for name in ("coalesce", "scatter", "resolve")
                       for s in spans.get(name, ()))
        for serve in spans.get("serve", ()):
            i = bisect.bisect_left(pool_starts, serve.start)
            if i < len(pool_spans) and pool_spans[i][1] <= serve.end:
                covered += pool_spans[i][1] - pool_spans[i][0]
    for name, key in (("queue_wait", "frontend.queue_wait_ms_p50"),
                      ("coalesce", "frontend.coalesce_ms_p50"),
                      ("scatter", "frontend.scatter_ms_p50"),
                      ("resolve", "frontend.resolve_ms_p50")):
        metrics[key] = float(np.percentile(stage_ms[name], 50))
    metrics["frontend.queue_wait_ms_p99"] = float(np.percentile(stage_ms["queue_wait"], 99))
    return covered / service if service else 0.0
