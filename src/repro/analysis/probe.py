"""Shadow-write dynamic probe: soundness check for the race verdicts.

The static verdicts (:mod:`.races`) claim that on a ``SAFE`` cell no two
threads can ever write the same output element.  This module checks that
claim empirically: it runs the real application drivers through the
interpreted SIMT path with a :class:`ShadowSimtEngine` that records the
exact per-thread write set of every kernel launch -- direct stores
through shadow views of the kernels' allocations, atomics through a
wrapping thread context -- and reports any element written by two or
more distinct threads within one launch.

The probe never *proves* safety (it observes one input); its job is the
converse: a single cross-thread overlap on a ``SAFE`` cell falsifies the
analysis.  Tier-1 asserts zero overlaps over every ``SAFE`` cell of the
full 9-app x 8-schedule matrix on a skewed probe instance.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..engine.dispatch import SimtEngine
from ..gpusim.arch import TINY_GPU, GpuSpec

__all__ = [
    "ProbeResult",
    "ShadowArray",
    "ShadowSimtEngine",
    "WriteRecorder",
    "probe_matrix",
    "run_probe",
]


def _root_of(arr: np.ndarray) -> np.ndarray:
    root = arr
    while isinstance(root.base, np.ndarray):
        root = root.base
    return root


def _flat_keys(arr: np.ndarray, index) -> set:
    """Root-relative flat positions an assignment ``arr[index] = v`` hits.

    Works for any index form numpy accepts by building an array of
    root-flat positions shaped like ``arr`` and applying the same index
    to it.  Views (e.g. a column of a 2-D output) resolve to the same
    keys as the parent, so overlaps through different views are caught.
    Probe instances are tiny, so the position array is cheap.
    """
    root = _root_of(arr)
    itemsize = arr.itemsize
    base = (
        arr.__array_interface__["data"][0]
        - root.__array_interface__["data"][0]
    ) // itemsize
    if arr.ndim == 0:
        return {int(base)}
    strides = tuple(s // itemsize for s in arr.strides)
    grid = np.indices(arr.shape, dtype=np.int64)
    flat = np.full(arr.shape, base, dtype=np.int64)
    for dim in range(arr.ndim):
        flat += grid[dim] * strides[dim]
    selected = np.asarray(flat[index])
    return set(int(k) for k in np.atleast_1d(selected).ravel())


class ShadowArray(np.ndarray):
    """An ndarray whose element stores report to a :class:`WriteRecorder`.

    Allocated by :meth:`WriteRecorder.capture_allocations` around kernel
    materialization; views keep the recorder (``__array_finalize__``), so
    column views and slices of a shadowed output stay shadowed.
    Recording only happens while a thread is current -- host-side prep
    and finalization write silently.
    """

    _recorder = None

    def __array_finalize__(self, obj):
        if obj is not None:
            self._recorder = getattr(obj, "_recorder", None)

    def __setitem__(self, index, value):
        rec = self._recorder
        if rec is not None and rec.current_thread is not None:
            rec.record(("array", id(_root_of(self))), _flat_keys(self, index))
        super().__setitem__(index, value)


class _ShadowCtx:
    """Thread-context wrapper recording atomic write targets.

    Atomics on :class:`ShadowArray` targets are *not* noted here -- the
    interpreter's read-modify-write lands in ``ShadowArray.__setitem__``
    and would double count.  Plain ndarrays (driver-allocated state like
    BFS depths) and dict accumulators (SpGEMM's per-row maps) only pass
    through the atomic API, so they are noted per call.
    """

    __slots__ = ("_ctx", "_rec")

    def __init__(self, ctx, rec):
        object.__setattr__(self, "_ctx", ctx)
        object.__setattr__(self, "_rec", rec)

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def _note(self, array, index) -> None:
        if isinstance(array, ShadowArray):
            return
        if isinstance(array, np.ndarray):
            self._rec.record(("array", id(_root_of(array))),
                             _flat_keys(array, index))
        elif isinstance(array, dict):
            self._rec.record(("dict", id(array)), {index})

    def atomic_add(self, array, index, value):
        self._note(array, index)
        return self._ctx.atomic_add(array, index, value)

    def atomic_min(self, array, index, value):
        self._note(array, index)
        return self._ctx.atomic_min(array, index, value)

    def atomic_max(self, array, index, value):
        self._note(array, index)
        return self._ctx.atomic_max(array, index, value)

    def atomic_cas(self, array, index, compare, value):
        self._note(array, index)
        return self._ctx.atomic_cas(array, index, compare, value)


@dataclass
class _LabelOverlaps:
    launches: int = 0
    overlapping_keys: int = 0
    array_overlapping_keys: int = 0
    examples: list = field(default_factory=list)


class WriteRecorder:
    """Per-launch, per-thread write sets and their cross-thread overlaps.

    One recorder spans a whole probed run (possibly many launches);
    :meth:`finish_launch` folds the current launch's write sets into
    per-kernel-label overlap totals and clears them, so iterative
    applications accumulate per label rather than smearing iterations
    together (a target element legitimately written by different threads
    in *different* launches is not a race).
    """

    def __init__(self):
        self.current_thread: int | None = None
        self._launch_writes: dict = {}
        self.by_label: dict[str, _LabelOverlaps] = {}

    def record(self, target, keys) -> None:
        thread = self.current_thread
        if thread is None:
            return
        per_thread = self._launch_writes.setdefault(target, {})
        per_thread.setdefault(thread, set()).update(keys)

    def finish_launch(self, label: str) -> None:
        entry = self.by_label.setdefault(label, _LabelOverlaps())
        entry.launches += 1
        for target, per_thread in self._launch_writes.items():
            if len(per_thread) < 2:
                continue
            writers: dict = {}
            for thread, keys in per_thread.items():
                for key in keys:
                    writers.setdefault(key, set()).add(thread)
            for key, threads in writers.items():
                if len(threads) < 2:
                    continue
                entry.overlapping_keys += 1
                if target[0] == "array":
                    entry.array_overlapping_keys += 1
                if len(entry.examples) < 4:
                    entry.examples.append(
                        {
                            "target": target[0],
                            "key": repr(key),
                            "threads": sorted(threads)[:8],
                        }
                    )
        self._launch_writes = {}

    @contextmanager
    def capture_allocations(self):
        """Patch the numpy allocators to hand out shadow views.

        Active only around kernel materialization: buffers the kernel
        closure allocates (outputs, next-frontier masks) become
        :class:`ShadowArray`; per-thread scratch allocated inside the
        body stays plain and unrecorded, as thread-private state should.
        """
        names = ("zeros", "empty", "full", "ones")
        originals = {name: getattr(np, name) for name in names}
        recorder = self

        def shadowed(orig):
            def alloc(*args, **kwargs):
                arr = orig(*args, **kwargs)
                view = arr.view(ShadowArray)
                view._recorder = recorder
                return view

            return alloc

        for name in names:
            setattr(np, name, shadowed(originals[name]))
        try:
            yield
        finally:
            for name in names:
                setattr(np, name, originals[name])


class ShadowSimtEngine(SimtEngine):
    """The interpreted SIMT engine with shadow-write recording.

    Uses the two :class:`~repro.engine.dispatch.SimtEngine` seams:
    kernel materialization runs under :meth:`capture_allocations`, and
    each per-thread body is wrapped to mark the current thread and hand
    the kernel a :class:`_ShadowCtx`.  Overlaps are attributed to the
    launch's kernel label (``decl.label``) so multi-kernel applications
    keep their passes separate.
    """

    name = "shadow_simt"

    def __init__(self, recorder: WriteRecorder | None = None):
        super().__init__()
        self.recorder = recorder if recorder is not None else WriteRecorder()

    def _materialize_kernel(self, simt):
        with self.recorder.capture_allocations():
            return simt()

    def _instrument_body(self, body):
        recorder = self.recorder

        def instrumented(ctx):
            recorder.current_thread = int(ctx.global_thread_id)
            try:
                return body(_ShadowCtx(ctx, recorder))
            finally:
                recorder.current_thread = None

        return instrumented

    def launch(self, sched, costs, decl, args, *, simt=None, extras=None):
        try:
            return super().launch(
                sched, costs, decl, args, simt=simt, extras=extras
            )
        finally:
            self.recorder.finish_launch(decl.label)


@dataclass(frozen=True)
class ProbeResult:
    """Observed overlaps for one ``(app, schedule)`` probed run."""

    app: str
    schedule: str
    labels: tuple  # (label, launches, overlapping_keys, array_overlaps)

    def overlaps_for(self, label: str, arrays_only: bool = True) -> int:
        for name, _launches, total, arrays in self.labels:
            if name == label:
                return arrays if arrays_only else total
        return 0


def probe_instance():
    """The skewed 12x12 CSR the probe drives every app with.

    Row 0 is dense (12 entries: a heavy tile), rows 1-5 carry 3 entries,
    rows 6-8 are empty, rows 9-11 hold a single entry -- small enough
    for the interpreter, skewed enough that atom-splitting schedules
    split row 0 across threads.  Values are deterministic positives, the
    pattern is symmetric enough to serve the graph apps (every vertex
    reaches the dense row 0), and the diagonal is kept out so triangle
    counting sees clean edges.
    """
    from ..sparse.csr import CsrMatrix

    n = 12
    rows: list[int] = []
    cols: list[int] = []
    for col in range(n):
        if col != 0:
            rows.append(0)
            cols.append(col)
    for r in range(1, 6):
        for c in (0, (r + 3) % n or 1, (2 * r + 5) % n or 2):
            rows.append(r)
            cols.append(c)
    for r in range(9, 12):
        rows.append(r)
        cols.append((r * 5) % n)
    keys = sorted(
        {r * n + c for r, c in zip(rows, cols) if r != c}
    )
    row_ids = np.array([k // n for k in keys], dtype=np.int64)
    col_ids = np.array([k % n for k in keys], dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_ids, minlength=n), out=offsets[1:])
    values = 0.25 + (np.arange(col_ids.size, dtype=np.float64) % 7)
    return CsrMatrix.from_arrays(offsets, col_ids, values, (n, n))


def run_probe(
    app: str, schedule: str, spec: GpuSpec = TINY_GPU, seed: int = 7
) -> ProbeResult:
    """Run one app under one schedule with shadow-write recording."""
    from ..engine import ExecutionContext, get_app, run_app

    matrix = probe_instance()
    problem = get_app(app).sweep_problem(matrix, seed)
    if hasattr(problem, "max_iter"):
        # Power iteration converges slowly; two iterations exercise the
        # kernel's write pattern just as well.
        problem.max_iter = 2
    recorder = WriteRecorder()
    ctx = ExecutionContext(
        engine=ShadowSimtEngine(recorder), spec=spec, policy=schedule
    )
    run_app(app, problem, ctx=ctx)
    labels = tuple(
        (label, entry.launches, entry.overlapping_keys,
         entry.array_overlapping_keys)
        for label, entry in sorted(recorder.by_label.items())
    )
    return ProbeResult(app=app, schedule=schedule, labels=labels)


def probe_matrix(
    apps=None, schedules=None, spec: GpuSpec = TINY_GPU, seed: int = 7
) -> dict:
    """Probe every requested ``(app, schedule)`` cell.

    Returns ``{(app, schedule): ProbeResult}``; callers cross it with
    :func:`~repro.analysis.races.verdict_matrix` to check soundness.
    """
    from ..core.schedule import available_schedules
    from ..engine import available_apps

    app_names = list(apps) if apps is not None else list(available_apps())
    sched_names = (
        list(schedules) if schedules is not None else list(available_schedules())
    )
    return {
        (app, sched): run_probe(app, sched, spec=spec, seed=seed)
        for app in app_names
        for sched in sched_names
    }
