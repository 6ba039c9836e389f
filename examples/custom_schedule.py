#!/usr/bin/env python3
"""Writing a *new* load-balancing schedule in ~30 lines.

The paper's extensibility claim (design goal: "be able to add new
load-balancing algorithms"): a schedule only has to say which tiles and
atoms each thread consumes.  Here we implement **chunked-tile**
scheduling -- each thread takes one contiguous chunk of tiles (instead
of striding) -- register it, and immediately use it from the unmodified
SpMV application.  ``tiles``/``atoms`` alone would do: the base class
probes them thread by thread to price the launch.  The optional
closed-form ``loads`` below says the same thing with NumPy, so corpus
sweeps never walk the iterators.

Run:  python examples/custom_schedule.py
"""

import numpy as np

from repro import load_dataset, spmv
from repro.core import Schedule, StepRange, register_schedule
from repro.engine import ExecutionContext


@register_schedule("chunked_tile")
class ChunkedTileSchedule(Schedule):
    """One contiguous chunk of tiles per thread.

    Contiguous chunks improve locality of the offsets array but
    concentrate hot rows on single threads -- a deliberately different
    trade-off from the built-in thread-mapped schedule, visible below.
    """

    def _chunk(self, thread_id: int) -> tuple[int, int]:
        tiles = self.work.num_tiles
        per = -(-tiles // self.launch.num_threads)
        lo = min(thread_id * per, tiles)
        return lo, min(lo + per, tiles)

    # -- per-thread view (what a CUDA kernel would consume) --------------
    def tiles(self, ctx) -> StepRange:
        lo, hi = self._chunk(ctx.global_thread_id)
        return StepRange(lo, hi)

    def atoms(self, ctx, tile: int) -> StepRange:
        lo, hi = self.work.atom_range(tile)
        return StepRange(lo, hi)

    # -- optional: the same assignment in closed form ---------------------
    def loads(self) -> tuple[np.ndarray, np.ndarray]:
        """Atoms and tile visits of every thread, in launch order."""
        n_threads = self.launch.num_threads
        per = -(-self.work.num_tiles // n_threads)
        offsets = self.work.tile_offsets
        lo = np.minimum(np.arange(n_threads, dtype=np.int64) * per, self.work.num_tiles)
        hi = np.minimum(lo + per, self.work.num_tiles)
        return (offsets[hi] - offsets[lo]).astype(np.float64), (hi - lo).astype(np.float64)


def main() -> None:
    dataset = load_dataset("power_a21", scale="smoke")
    matrix = dataset.matrix
    x = np.random.default_rng(0).uniform(size=matrix.num_cols)
    expected = matrix.to_dense() @ x

    print(f"dataset: {dataset.name} ({matrix.nnz} nnz, "
          f"CV = {dataset.meta['cv']:.2f})\n")
    print(f"{'schedule':<16} {'model ms':>10} {'SIMT efficiency':>16}")
    for name in ("chunked_tile", "thread_mapped", "merge_path"):
        r = spmv(matrix, x, ctx=ExecutionContext(policy=name))
        assert np.allclose(r.output, expected)
        print(f"{name:<16} {r.elapsed_ms:>10.5f} {r.stats.simt_efficiency:>16.3f}")

    print("\nThe new schedule plugged into the unmodified SpMV app: the")
    print("computation stage never changed -- only the mapping did.")


if __name__ == "__main__":
    main()
