"""One ``KernelDecl`` per kernel, declared on ``AppSpec.kernels``.

Every consumer -- the engines, JIT warmup, the effect analysis -- reads
an app's kernels from its registration, so the registration must be
exactly what the driver launches: no launch of an undeclared kernel, no
declared kernel that never runs, and every JIT-able body warmable.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    DEFAULT_SEED,
    ExecutionContext,
    PlanCache,
    VectorEngine,
    available_apps,
    get_app,
    run_app,
)
from repro.gpusim.arch import TINY_GPU
from repro.sparse import generators as gen


class RecordingEngine(VectorEngine):
    """The vector engine, noting every launched declaration."""

    name = "recording"

    def __init__(self):
        super().__init__(plan_cache=PlanCache())
        self.launched = []

    def launch(self, sched, costs, decl, args, **kwargs):
        self.launched.append(decl)
        return super().launch(sched, costs, decl, args, **kwargs)


@pytest.mark.parametrize("app", available_apps())
def test_launched_decls_are_the_declared_kernels(app):
    spec = get_app(app)
    matrix = gen.power_law(20, 20, 3.0, 1.9, seed=5)  # square: every app
    engine = RecordingEngine()
    run_app(
        spec,
        spec.sweep_problem(matrix, DEFAULT_SEED),
        ctx=ExecutionContext(engine=engine, spec=TINY_GPU),
    )
    assert engine.launched, f"{app} launched nothing"
    for decl in engine.launched:
        assert any(decl is declared for declared in spec.kernels), (
            f"{app} launched {decl.label!r}, which its AppSpec does not list"
        )
    unused = [
        d.label for d in spec.kernels
        if not any(d is launched for launched in engine.launched)
    ]
    assert not unused, f"{app} declares kernels it never launches: {unused}"


def test_every_scalar_decl_has_example_args():
    for app in available_apps():
        for decl in get_app(app).kernels:
            if decl.scalar is None:
                continue
            assert decl.example_args is not None, (
                f"{app}/{decl.label} has a scalar body but no example_args, "
                "so precompile_kernels cannot warm it"
            )
            # The example arguments must actually drive both bodies.
            assert type(decl.scalar(*decl.example_args())) is type(
                decl.arrays(*decl.example_args())
            ), f"{app}/{decl.label}"


def test_labels_are_unique_within_an_app():
    for app in available_apps():
        labels = [d.label for d in get_app(app).kernels]
        assert len(labels) == len(set(labels)), app
