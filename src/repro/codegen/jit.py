"""Compile region kernels to native code, with an on-disk kernel cache.

Pipeline: region → structural signature → C source
(:mod:`repro.codegen.crender`) → shared object compiled by the system C
compiler → loaded through :mod:`cffi` (ABI mode; :mod:`ctypes` when cffi is
unavailable).  Kernels are cached at three levels:

- **in process** by signature, so repeated flushes/compiles of the same
  region structure resolve to one loaded function;
- **on disk** under ``$REPRO_KERNEL_CACHE`` (default
  ``~/.cache/repro/kernels``), content-hashed over the C source *and* the
  compiler identity, so a cc upgrade or a renderer change can never serve a
  stale binary.  Entries are written atomically (temp file +
  ``os.replace``); concurrent *processes* compiling the same kernel
  additionally serialize on an advisory ``flock`` per entry so N workers
  produce one compile and N-1 disk hits — and when the lock itself is
  unavailable (no :mod:`fcntl`, NFS refusing locks) they fall back to the
  benign atomic-replace race rather than failing;
- a **corrupted entry** (truncated .so, missing symbol) is unlinked and
  recompiled instead of crashing.

*Structured* regions (reduction tails, ``linear`` heads) compile as a
pipeline planned by :func:`repro.codegen.crender.stage_plan`: host GEMMs
into workspaces, then one kernel per map/reduce stage.  Passing
``specialize=True`` renders every stage with its concrete shapes as
literal loop bounds — the serving planner compiles each bucket this way so
``-O3`` can unroll and vectorize batch-1 loops — keyed into the same cache
by (structure, shapes); the dynamic-shape kernels remain the default for
training use.

When codegen is disabled (``REPRO_CODEGEN=0``), no compiler is available,
or a compile fails, :func:`compile_region` falls back to the numpy
interpreter arm — bit-equal to the compiled arm by contract, so the
fallback is purely a performance event.  It is counted as one: the module
registers ``repro_codegen_*`` counters and a ``compile_ms`` histogram in
the process-default observability registry (:func:`repro.obs.get_registry`),
all off the kernel execution hot path.  The ``mode``-labelled
``repro_codegen_cache_{hit,miss}_total`` counters separate this process's
traffic (``mode="local"``) from worker-process compiles that
:func:`ingest_worker_codegen_stats` folds in (``mode="process"``).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.codegen.crender import kernel_arity, render_kernel, stage_plan
from repro.codegen.region import RegionIR

__all__ = [
    "codegen_enabled",
    "enable_codegen",
    "using_codegen",
    "have_compiler",
    "kernel_cache_dir",
    "compile_region",
    "clear_kernel_memo",
    "codegen_stats",
    "ingest_worker_codegen_stats",
]

_FALSY = ("", "0", "off", "false", "no")

#: Programmatic override of the REPRO_CODEGEN environment toggle.
_OVERRIDE: Optional[bool] = None


def codegen_enabled() -> bool:
    """Whether :func:`compile_region` may emit native kernels.

    :func:`enable_codegen` / :func:`using_codegen` take precedence;
    otherwise ``REPRO_CODEGEN`` decides (**on** by default — unlike fusion,
    codegen only runs where fusion already placed a region, and it degrades
    gracefully to the interpreter without a compiler).
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get("REPRO_CODEGEN", "1").strip().lower() not in _FALSY


def enable_codegen(flag: Optional[bool]) -> None:
    """Force codegen on/off, or ``None`` for the environment default."""
    global _OVERRIDE
    _OVERRIDE = flag


@contextlib.contextmanager
def using_codegen(flag: bool):
    """Scoped :func:`enable_codegen`, restoring the previous override."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = bool(flag)
    try:
        yield
    finally:
        _OVERRIDE = previous


def kernel_cache_dir() -> Path:
    """The on-disk kernel cache directory (``REPRO_KERNEL_CACHE`` override)."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path(os.path.expanduser("~")) / ".cache" / "repro" / "kernels"


# --------------------------------------------------------------------------- #
# Compiler discovery
# --------------------------------------------------------------------------- #
_cc_cache: Optional[tuple] = None  # (path or None, version string)


def _compiler() -> tuple:
    global _cc_cache
    if _cc_cache is None:
        path = None
        for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
            if cand and shutil.which(cand):
                path = shutil.which(cand)
                break
        version = ""
        if path:
            try:
                proc = subprocess.run(
                    [path, "--version"], capture_output=True, text=True, timeout=10
                )
                version = proc.stdout.splitlines()[0] if proc.stdout else ""
            except (OSError, subprocess.SubprocessError):
                path = None
        _cc_cache = (path, version)
    return _cc_cache


def have_compiler() -> bool:
    """Whether a usable C compiler was found (``$CC``, cc, gcc, clang)."""
    return _compiler()[0] is not None


# --------------------------------------------------------------------------- #
# Observability
# --------------------------------------------------------------------------- #
_metrics_cache = None


def _metrics():
    """Codegen counters in the process-default registry (lazy, cached)."""
    global _metrics_cache
    if _metrics_cache is None:
        from repro.obs.metrics import get_registry

        registry = get_registry()
        _metrics_cache = {
            "compiled": registry.counter(
                "repro_codegen_kernels_compiled_total",
                "Region kernels compiled to native code",
            ),
            "cache_hits": registry.counter(
                "repro_codegen_cache_hits_total",
                "Region kernels served from the on-disk cache",
            ),
            "fallback": registry.counter(
                "repro_codegen_fallback_total",
                "Regions resolved to the numpy-interpreter arm "
                "(codegen disabled, no compiler, or compile failure)",
            ),
            "compile_ms": registry.histogram(
                "repro_codegen_compile_ms",
                "Wall time of one region kernel compile",
                buckets=(1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0),
            ),
            "cache_hit": registry.counter(
                "repro_codegen_cache_hit_total",
                "Kernel lookups resolved without compiling (memo or disk), "
                "by where the lookup ran",
                labelnames=("mode",),
            ),
            "cache_miss": registry.counter(
                "repro_codegen_cache_miss_total",
                "Kernel lookups that compiled from source, by where the "
                "compile ran",
                labelnames=("mode",),
            ),
        }
    return _metrics_cache


def codegen_stats() -> dict:
    """Plain-int snapshot of the codegen counters (tests, bench reports)."""
    with _LOCK:
        return dict(_STATS)


def ingest_worker_codegen_stats(stats: dict, mode: str = "process") -> None:
    """Fold a worker process's :func:`codegen_stats` snapshot into this
    process's ``mode``-labelled cache counters.

    ``ProcServer`` workers compile kernels in their own processes, invisible
    to the parent's ``/metrics`` edge; each worker reports its snapshot once
    (at ready-handshake time, when its session pool — and therefore every
    kernel it will use — has been built), so snapshots are deltas and sum
    correctly across respawns.
    """
    hits = int(stats.get("disk_hits", 0)) + int(stats.get("memo_hits", 0))
    misses = int(stats.get("compiled", 0))
    metrics = _metrics()
    if hits:
        metrics["cache_hit"].labels(mode=mode).inc(hits)
    if misses:
        metrics["cache_miss"].labels(mode=mode).inc(misses)


_STATS = {"compiled": 0, "disk_hits": 0, "memo_hits": 0, "fallbacks": 0}


# --------------------------------------------------------------------------- #
# Kernel compilation + loading
# --------------------------------------------------------------------------- #
_LOCK = threading.Lock()
#: signature -> (raw_fn, keepalive) | None (None = interpreter fallback).
_MEMO: dict = {}

#: -O3 for auto-vectorization of the elementwise loops (per-element op
#: sequences are independent, so vectorizing them is IEEE-exact); no
#: -ffast-math, and -ffp-contract=off because GCC otherwise contracts
#: a*b+c into FMA, which changes the last bits — the numpy arm never
#: fuses, so the C arm must not either.  The flags participate in the
#: cache content hash: a flag change can never serve a stale binary.
_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

try:  # pragma: no cover - exercised via whichever loader is present
    import cffi as _cffi
except ImportError:  # pragma: no cover
    _cffi = None


def clear_kernel_memo() -> None:
    """Drop the in-process kernel memo (tests re-exercise the disk cache)."""
    with _LOCK:
        _MEMO.clear()


def _load(so_path: Path, name: str, n_in: int):
    """Load one kernel symbol; raises OSError/AttributeError on corruption."""
    if _cffi is not None:
        ffi = _cffi.FFI()
        # ABI-level pointer args: the calling convention only needs "pointer",
        # so void* avoids re-declaring the kernel's typed prototype.
        ffi.cdef(
            f"void {name}(" + ", ".join(["const void *"] * (n_in + 1)) + ", void *);"
        )
        lib = ffi.dlopen(str(so_path))
        fn = getattr(lib, name)

        from_buffer = ffi.from_buffer

        def call(shape_arr, arrays, out):
            fn(
                from_buffer(shape_arr),
                *(from_buffer(a) for a in arrays),
                from_buffer(out, require_writable=True),
            )

        return call, (ffi, lib)

    import ctypes

    lib = ctypes.CDLL(str(so_path))
    fn = getattr(lib, name)
    fn.argtypes = [ctypes.c_void_p] * (n_in + 2)
    fn.restype = None

    def call(shape_arr, arrays, out):
        fn(
            shape_arr.ctypes.data,
            *(a.ctypes.data for a in arrays),
            out.ctypes.data,
        )

    return call, (lib,)


@contextlib.contextmanager
def _entry_lock(cache_dir: Path, stem: str):
    """Advisory per-entry lock for cross-process compile serialization.

    Lock-or-lose-gracefully: when :mod:`fcntl` is unavailable or the
    filesystem refuses the lock, yield without it — the atomic
    ``os.replace`` publish keeps the unlocked race benign (last writer
    wins with identical bytes), it just wastes a duplicate compile.
    The ``.lock`` file is left in place; unlinking it would race with a
    process that just opened it.
    """
    handle = None
    locked = False
    try:
        import fcntl

        handle = open(cache_dir / f"{stem}.lock", "a+b")
        fcntl.flock(handle, fcntl.LOCK_EX)
        locked = True
    except (ImportError, OSError):
        pass
    try:
        yield locked
    finally:
        if handle is not None:
            if locked:
                with contextlib.suppress(OSError):
                    import fcntl

                    fcntl.flock(handle, fcntl.LOCK_UN)
            handle.close()


def _try_disk_hit(so_path: Path, name: str, n_in: int) -> Optional[tuple]:
    """Load an existing cache entry; unlink (don't crash) on corruption."""
    if not so_path.exists():
        return None
    try:
        loaded = _load(so_path, name, n_in)
    except (OSError, AttributeError):
        # Corrupted entry (truncated write, bad disk, wrong arch):
        # drop it and let the caller recompile.
        with contextlib.suppress(OSError):
            so_path.unlink()
        return None
    _metrics()["cache_hits"].inc()
    _metrics()["cache_hit"].labels(mode="local").inc()
    with _LOCK:
        _STATS["disk_hits"] += 1
    return loaded


def _compile_to_cache(signature) -> Optional[tuple]:
    """Compile (or cache-load) the kernel for one signature.

    Returns ``(call, keepalive)`` or ``None`` when the native arm is
    unavailable.  Caller holds no locks; the memo is updated by the caller.
    """
    cc, cc_version = _compiler()
    if cc is None:
        return None
    name, source = render_kernel(signature)
    import hashlib

    content = hashlib.sha256(
        (source + "\x00" + cc_version + "\x00" + " ".join(_CFLAGS)).encode()
    ).hexdigest()[:20]
    cache_dir = kernel_cache_dir()
    so_path = cache_dir / f"{name}-{content}.so"
    n_in = kernel_arity(signature)

    loaded = _try_disk_hit(so_path, name, n_in)
    if loaded is not None:
        return loaded

    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None

    with _entry_lock(cache_dir, f"{name}-{content}"):
        # Double-check under the lock: the process that held it before us
        # may have just published this entry.
        loaded = _try_disk_hit(so_path, name, n_in)
        if loaded is not None:
            return loaded

        start = time.perf_counter()
        tmp_dir = tempfile.mkdtemp(dir=str(cache_dir))
        try:
            c_path = Path(tmp_dir) / f"{name}.c"
            tmp_so = Path(tmp_dir) / f"{name}.so"
            c_path.write_text(source)
            proc = subprocess.run(
                [cc, *_CFLAGS, "-o", str(tmp_so), str(c_path)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                return None
            # Keep the source next to the binary for debuggability; both are
            # content-addressed, so concurrent racers write identical bytes.
            with contextlib.suppress(OSError):
                os.replace(str(c_path), str(cache_dir / f"{name}-{content}.c"))
            os.replace(str(tmp_so), str(so_path))
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    try:
        loaded = _load(so_path, name, n_in)
    except (OSError, AttributeError):
        return None
    _metrics()["compiled"].inc()
    _metrics()["compile_ms"].observe(elapsed_ms)
    _metrics()["cache_miss"].labels(mode="local").inc()
    with _LOCK:
        _STATS["compiled"] += 1
    return loaded


def _kernel_for(signature):
    """The loaded native kernel for ``signature``, or ``None`` (memoized)."""
    sentinel = object()
    with _LOCK:
        resolved = _MEMO.get(signature, sentinel)
        if resolved is not sentinel:
            _STATS["memo_hits"] += 1
    if resolved is not sentinel:
        if resolved is not None:
            # Memoized fallbacks (None) are not cache hits — nothing was
            # served; they re-count as fallbacks at the region level.
            _metrics()["cache_hit"].labels(mode="local").inc()
        return resolved
    resolved = _compile_to_cache(signature)
    with _LOCK:
        # A racing thread may have resolved it first; keep the winner so
        # both closures share one loaded library.
        existing = _MEMO.setdefault(signature, resolved)
    return existing


# --------------------------------------------------------------------------- #
# The public fusion point
# --------------------------------------------------------------------------- #
def _as_buffer(a: np.ndarray) -> np.ndarray:
    """A ≥1-d view for the FFI layer (0-d arrays confuse ``from_buffer``)."""
    return a if a.ndim else a.reshape(1)


def _elementwise_kernel(region: RegionIR, resolved: tuple) -> Callable:
    call, _keepalive = resolved
    bind = region.bind
    out_shape = region.out_shape
    out_dtype = region.out_dtype
    shape_arr = np.asarray(out_shape or (0,), dtype=np.int64)
    ascontiguous = np.ascontiguousarray

    def kernel(arrays, out=None):
        bound = [ascontiguous(a) for a in bind(arrays)]
        if out is None:
            out = np.empty(out_shape, out_dtype)
        call(shape_arr, bound, out)
        return out

    kernel.is_compiled = True
    return kernel


def _structured_kernel(region: RegionIR, specialize: bool) -> Optional[Callable]:
    """Compile a structured region as host GEMMs + a stage pipeline.

    Returns ``None`` when the program cannot be stage-planned or any stage
    fails to compile — the caller falls back to the interpreter arm for the
    *whole* region, keeping the two-arm bit-equality trivially.
    """
    plan = stage_plan(region)
    if plan is None:
        return None
    dtype_str = str(region.out_dtype)
    calls = []
    for stage in plan.stages:
        resolved = _kernel_for(stage.signature(dtype_str, specialize))
        if resolved is None:
            return None
        calls.append(resolved[0])

    out_dtype = region.out_dtype
    out_shape = region.out_shape
    bind = region.bind
    ascontiguous = np.ascontiguousarray
    matmuls = plan.matmuls
    stages = plan.stages
    last = len(stages) - 1
    dims = [np.asarray(st.core_shape or (0,), dtype=np.int64) for st in stages]
    scratch_n = [
        int(np.prod(st.core_shape[len(st.core_shape) - st.reduce[0]:], dtype=np.int64))
        if st.reduce is not None else 0
        for st in stages
    ]

    def kernel(arrays, out=None):
        bound = [ascontiguous(a) for a in bind(arrays)]
        mm_outs = [np.matmul(bound[x], bound[w]) for x, w, _b, _shape in matmuls]
        stage_outs = []
        for si, stage in enumerate(stages):
            ins = []
            for kind, idx in stage.inputs:
                if kind == "ext":
                    ins.append(bound[idx])
                elif kind == "mm":
                    ins.append(mm_outs[idx])
                else:
                    ins.append(stage_outs[idx])
            ins = [_as_buffer(a) for a in ins]
            if stage.reduce is not None:
                ins.append(np.empty(scratch_n[si], out_dtype))
            if si == last:
                buf = np.empty(out_shape, out_dtype) if out is None else out
            else:
                buf = np.empty(stage.out_shape, out_dtype)
            calls[si](dims[si], ins, _as_buffer(buf))
            stage_outs.append(buf)
        return stage_outs[-1]

    kernel.is_compiled = True
    return kernel


def compile_region(region: RegionIR, specialize: bool = False) -> Callable:
    """Compile one region into ``kernel(arrays, out=None) -> ndarray``.

    The returned callable takes the region's *dynamic* input arrays (consts
    are bound inside) and an optional pre-allocated ``out`` buffer.  It runs
    the native kernel when codegen is enabled and a compiler is available,
    and the numpy-interpreter arm otherwise — the two arms are bit-equal,
    so which one you got is observable only through the codegen counters
    (and :func:`codegen_stats`).

    With ``specialize=True`` the kernels render with the region's concrete
    shapes as literal loop bounds (and literal strides), trading one cache
    entry per shape for fully unrollable loops — the serving planner opts
    in per compiled bucket, where the shapes are known and stable.
    Specialized and dynamic kernels of the same region are distinct cache
    entries; the numeric results are identical either way.
    """
    if codegen_enabled():
        if region.is_elementwise:
            if specialize:
                signature = (
                    "spec",
                    region.ops,
                    str(region.out_dtype),
                    region.out_shape,
                    tuple(inp.shape for inp in region.inputs),
                )
            else:
                signature = region.signature()
            resolved = _kernel_for(signature)
            if resolved is not None:
                return _elementwise_kernel(region, resolved)
        else:
            kernel = _structured_kernel(region, specialize)
            if kernel is not None:
                return kernel

    _metrics()["fallback"].inc()
    with _LOCK:
        _STATS["fallbacks"] += 1
    interpret = region.interpret

    def kernel(arrays, out=None):
        return interpret(arrays, out=out)

    kernel.is_compiled = False
    return kernel
