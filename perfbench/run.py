"""TBNet end-to-end benchmark: training steps and open-loop serving.

Run from the repository root::

    python3 perfbench/run.py --workload serve_single --seed 1 --seconds 50 --trace 0

Every run builds its inputs from ``--seed``, pins the environment (one BLAS
thread, the repo defaults for ``REPRO_BACKEND``/``REPRO_FUSION``/
``REPRO_CODEGEN``, a fresh kernel cache per set-up), runs the phases
described in :mod:`perfbench.workloads` for about ``--seconds``, checks
every output, and prints a human-readable report followed, as its last
line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`).
``ok_frac`` is the share of attempted operations (training steps, the
loss-falls check, requests) that succeeded with a correct result; the
failures themselves are the JSON's ``failed``.

``--trace 1`` is a separate traced run that reports the per-layer
metrics (:data:`PER_LAYER`) and writes every span, the benchmark's and
the server's, to ``.perfbench_out/trace-<workload>-<seed>.json`` as one
Chrome trace.

Per-layer units: training ``*_ms`` are milliseconds per traced step;
``session.run_ms.b*`` are milliseconds per session call; ``serve.*_ms``
are milliseconds per served request; ``frontend.*_ms`` are per-request
stage percentiles from the server's own spans; counts cover the traced
serving steps.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "setup_s": "s",
    "step_ms_p90": "ms",
    "lat_ms_p50.light": "ms",
    "lat_ms_p50.heavy": "ms",
    "max_rps_at_slo": "1/s",
    "ok_frac": "1",
}

_FORWARD_PATHS = (
    [f"spatial.layers.{i}" for i in range(9)]
    + [f"context.layers.{i}" for i in range(5)]
    + [f"head.layers.{i}" for i in range(4)]
)
PER_LAYER = {
    "autograd.forward_ms": "ms",
    **{f"forward.{path}_ms": "ms" for path in _FORWARD_PATHS},
    "autograd.backward_ms": "ms",
    **{f"backward.{op}_ms": "ms" for op in
       ("conv2d", "max_pool2d", "batch_norm", "relu", "linear", "other")},
    "nn.optim.step_ms": "ms",
    **{f"session.run_ms.b{b}": "ms" for b in (1, 4, 16, 64)},
    **{f"serve.{op}_ms": "ms" for op in
       ("conv2d", "max_pool2d", "batch_norm_relu", "linear_relu", "linear", "other")},
    "frontend.queue_wait_ms_p50": "ms",
    "frontend.queue_wait_ms_p99": "ms",
    "frontend.coalesce_ms_p50": "ms",
    "frontend.scatter_ms_p50": "ms",
    "frontend.resolve_ms_p50": "ms",
    "frontend.samples_per_batch": "count",
    **{f"frontend.bucket_calls.b{b}": "count" for b in (1, 4, 16, 64)},
    "frontend.eager_tail": "count",
    "codegen.kernels_compiled": "count",
    "codegen.cache_hits": "count",
    "codegen.fallbacks": "count",
    "codegen.compile_ms": "ms",
    "bench.gen_late_ms_p99": "ms",
    "trace.overhead_frac": "1",
    "trace.coverage": "1",
    "trace.coverage.train": "1",
    "trace.coverage.serve": "1",
}

_PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
_REPRO_TOGGLES = ("REPRO_BACKEND", "REPRO_FUSION", "REPRO_CODEGEN", "REPRO_PROFILE")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """One BLAS thread and the repo's default toggles; must run before
    numpy is imported."""
    for var in _PINNED_THREADS:
        os.environ[var] = "1"
    for var in _REPRO_TOGGLES:
        os.environ.pop(var, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def environment() -> dict:
    import platform

    import numpy as np

    import repro
    from repro import codegen
    from repro.autograd import fusion
    from repro.backend import get_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
        "have_compiler": codegen.have_compiler(),
        "REPRO_BACKEND": get_backend().name,
        "REPRO_FUSION": fusion.fusion_enabled(),
        "REPRO_CODEGEN": codegen.codegen_enabled(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    from perfbench import report, workloads

    if args.workload not in workloads.MIXES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.MIXES)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    cache_root = tempfile.mkdtemp(dir=scratch)
    try:
        env = environment()
        print("# env " + json.dumps(env, sort_keys=True))
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
            result = report.traced_run(args.workload, args.seed, args.seconds,
                                       cache_root, env, trace_path)
            expected = PER_LAYER
        else:
            result = report.untraced_run(args.workload, args.seed, args.seconds, cache_root)
            expected = END_TO_END
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still has its cache there
    for line in result.lines:
        print(line)
    if set(result.metrics) != set(expected):
        print("perfbench: metric set differs from the declared one: "
              f"{sorted(set(result.metrics) ^ set(expected))}", file=sys.stderr)
        return 3
    for name, value in result.metrics.items():
        print(f"{name:<34} {value:>14.6f} {expected[name]}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": expected[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
