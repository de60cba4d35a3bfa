#!/usr/bin/env python
"""Digest of a TBNet Adam training run, for bit-identity checks across commits.

Trains ``TBNet(width=16)`` with Adam on seeded batch-64 synthetic batches
and hashes, byte for byte, every step's loss and gradients and the final
parameters.  Two
checkouts whose kernels are meant to be bit-identical must print the same
digests; run it against each checkout's sources::

    PYTHONPATH=src python benchmarks/tbnet_digest.py --steps 200
    PYTHONPATH=/path/to/other/checkout/src python benchmarks/tbnet_digest.py --steps 200

The run pins one BLAS thread (set before numpy loads) so the GEMMs sum in a
fixed order.
"""

from __future__ import annotations

import argparse
import hashlib
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BATCH = 64
WIDTH = 16
SEED = 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=200)
    args = parser.parse_args(argv)

    from repro.models.tbnet import TBNet, make_synthetic_batch
    from repro.nn.init import manual_seed
    from repro.nn.optim import Adam

    manual_seed(SEED)
    model = TBNet(width=WIDTH, rng=np.random.default_rng(SEED))
    params = list(model.parameters())
    optimizer = Adam(params, lr=1e-3)
    data_rng = np.random.default_rng(SEED + 1)
    losses, grads = hashlib.sha256(), hashlib.sha256()
    first = last = None
    for _ in range(args.steps):
        images, context, targets = make_synthetic_batch(BATCH, rng=data_rng)
        loss = model.loss(images, context, targets)
        loss.backward()
        losses.update(np.ascontiguousarray(loss.data).tobytes())
        for p in params:
            grads.update(np.ascontiguousarray(p.grad).tobytes())
        optimizer.step()
        optimizer.zero_grad()
        last = loss.item()
        first = last if first is None else first
    weights = hashlib.sha256()
    for p in params:
        weights.update(np.ascontiguousarray(p.data).tobytes())
    print(f"steps={args.steps} batch={BATCH} width={WIDTH} seed={SEED}")
    print(f"loss first={first!r} last={last!r}")
    print(f"losses  {losses.hexdigest()}")
    print(f"grads   {grads.hexdigest()}")
    print(f"params  {weights.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
