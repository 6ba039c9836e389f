"""Effect extraction: classify kernel writes by index provenance.

Every registered app declares its kernels on ``AppSpec.kernels``, and
each :class:`~repro.engine.registry.KernelDecl` carries a flat scalar
body (its ``scalar``).  Those bodies follow one shared shape -- an
extent-array preamble (``num_rows = offsets.shape[0] - 1``), tile loops
over ``range`` of a count, atom loops over ``range(offsets[i],
offsets[i + 1])`` or a flat array extent -- which makes the write side
of the kernel statically recoverable from the AST:

``atom_private``
    Indexed by an atom-loop variable: each atom is consumed by exactly
    one thread under every schedule, so the write sets are disjoint by
    construction (sssp's per-edge scratch).
``tile_private``
    Indexed by a tile-loop variable (optionally together with a dense
    inner dimension): disjoint iff the schedule never splits one tile's
    atoms across threads (spmv's ``y[row]``, spmm's ``c[row, col]``).
``global_reduce``
    A single shared cell -- a bare accumulator that the kernel returns
    (triangle count's ``count += 1``) or a constant index.
``scatter``
    The index is data-dependent -- derived from array loads (histogram
    bins, BFS/SSSP relax targets) -- so overlap is possible under any
    schedule and the kernel must use atomics or privatization.

Index *taint* is tracked through control dependence: a name assigned
inside a loop or branch whose condition is data-derived is itself
data-derived (histogram's ``bin_id`` is built by a ``while`` over the
row length).  Anything the classifier cannot prove falls to
``scatter`` -- the conservative side for a race analysis.

When inference cannot see a kernel's body, the kernel states its
effects on the same declaration: spgemm's ``compute`` pass has no
``scalar`` and declares ``writes={"c": "scatter"}`` for its hashed
accumulation.  An app that
reuses another's kernel lists the same declaration (pagerank lists
spmv's), so it gets the same effects with no extra plumbing.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "WRITE_CLASSES",
    "WriteEffect",
    "KernelEffects",
    "classify_scalar_fn",
    "kernel_effects",
]

#: Ordered least- to most-hazardous; verdict folding takes the worst.
WRITE_CLASSES = ("atom_private", "tile_private", "global_reduce", "scatter")


@dataclass(frozen=True)
class WriteEffect:
    """One classified array write in a kernel body."""

    array: str
    write_class: str
    line: int | None = None
    index: str = ""
    #: True when the class came from a declaration, not inference.
    declared: bool = False


@dataclass(frozen=True)
class KernelEffects:
    """The extracted read/write effects of one ``(app, kernel)`` pair."""

    app: str
    label: str
    params: tuple = ()
    reads: tuple = ()
    writes: tuple = ()
    outputs: tuple = ()


@dataclass
class _FnState:
    """Mutable classification state while walking one scalar body."""

    params: list
    tile_counts: set = field(default_factory=set)
    flat_counts: set = field(default_factory=set)
    dense_counts: set = field(default_factory=set)
    offsets: set = field(default_factory=set)
    tile_vars: set = field(default_factory=set)
    atom_vars: set = field(default_factory=set)
    dense_vars: set = field(default_factory=set)
    tainted: set = field(default_factory=set)
    allocs: set = field(default_factory=set)
    returned: set = field(default_factory=set)
    reads: set = field(default_factory=set)
    scalar_accs: set = field(default_factory=set)
    raw_writes: list = field(default_factory=list)  # (name, index, lineno)


def _names_in(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _has_subscript(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Subscript) for n in ast.walk(node))


def _is_shape_index(node: ast.AST, axis: int) -> str | None:
    """Match ``<name>.shape[axis]``; return the array name."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "shape"
        and isinstance(node.value.value, ast.Name)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == axis
    ):
        return node.value.value.id
    return None


def _is_alloc_call(node: ast.AST) -> bool:
    """Match ``np.zeros/empty/full/ones(...)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("zeros", "empty", "full", "ones")
    )


def _value_tainted(node: ast.AST, st: _FnState) -> bool:
    return _has_subscript(node) or bool(_names_in(node) & st.tainted)


class _Classifier:
    """Statement-order walker with control-dependence taint."""

    def __init__(self, fndef: ast.FunctionDef):
        self.st = _FnState(params=[a.arg for a in fndef.args.args])
        for node in ast.walk(fndef):
            if isinstance(node, ast.Return) and node.value is not None:
                elts = (
                    node.value.elts
                    if isinstance(node.value, ast.Tuple)
                    else [node.value]
                )
                for e in elts:
                    if isinstance(e, ast.Name):
                        self.st.returned.add(e.id)
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in {a.arg for a in fndef.args.args}
            ):
                self.st.reads.add(node.value.id)
        self._walk(fndef.body, control_tainted=False)

    # -- statement dispatch -------------------------------------------
    def _walk(self, stmts, control_tainted: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self._assign(stmt, control_tainted)
            elif isinstance(stmt, ast.AugAssign):
                self._augassign(stmt, control_tainted)
            elif isinstance(stmt, ast.For):
                self._for(stmt, control_tainted)
            elif isinstance(stmt, (ast.While, ast.If)):
                branch_tainted = control_tainted or _value_tainted(
                    stmt.test, self.st
                )
                self._walk(stmt.body, branch_tainted)
                self._walk(stmt.orelse, branch_tainted)

    def _assign(self, stmt: ast.Assign, control_tainted: bool) -> None:
        st = self.st
        value = stmt.value
        for target in stmt.targets:
            if isinstance(target, ast.Subscript):
                self._record_write(target)
                continue
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            # Extent preamble: num = a.shape[0] - 1 / n = a.shape[0] /
            # cols = b.shape[1].
            if (
                isinstance(value, ast.BinOp)
                and isinstance(value.op, ast.Sub)
                and isinstance(value.right, ast.Constant)
                and value.right.value == 1
            ):
                arr = _is_shape_index(value.left, 0)
                if arr is not None:
                    st.tile_counts.add(name)
                    st.offsets.add(arr)
                    continue
            if _is_shape_index(value, 0) is not None:
                st.flat_counts.add(name)
                continue
            if _is_shape_index(value, 1) is not None:
                st.dense_counts.add(name)
                continue
            if _is_alloc_call(value):
                st.allocs.add(name)
                continue
            if control_tainted or _value_tainted(value, st):
                st.tainted.add(name)
            else:
                st.tainted.discard(name)

    def _augassign(self, stmt: ast.AugAssign, control_tainted: bool) -> None:
        st = self.st
        if isinstance(stmt.target, ast.Subscript):
            self._record_write(stmt.target)
        elif isinstance(stmt.target, ast.Name):
            st.scalar_accs.add(stmt.target.id)
            if control_tainted or _value_tainted(stmt.value, st):
                st.tainted.add(stmt.target.id)

    def _for(self, stmt: ast.For, control_tainted: bool) -> None:
        st = self.st
        target = stmt.target.id if isinstance(stmt.target, ast.Name) else None
        rng = stmt.iter
        classified = False
        if (
            target is not None
            and isinstance(rng, ast.Call)
            and isinstance(rng.func, ast.Name)
            and rng.func.id == "range"
        ):
            args = rng.args
            if len(args) == 1:
                arg = args[0]
                if isinstance(arg, ast.Name):
                    if arg.id in st.tile_counts:
                        st.tile_vars.add(target)
                        classified = True
                    elif arg.id in st.flat_counts:
                        st.atom_vars.add(target)
                        classified = True
                    elif arg.id in st.dense_counts:
                        st.dense_vars.add(target)
                        classified = True
                elif _is_shape_index(arg, 0) is not None:
                    st.atom_vars.add(target)
                    classified = True
            elif len(args) == 2:
                # range(a[i], a[i + 1]): atoms of tile i through the
                # extent array a.  Also back-classifies i as a tile
                # variable (triangle count's outer loop bound is a
                # plain parameter, so i arrives unclassified).
                lo, hi = args
                arrs = (_offsets_range(lo, 0), _offsets_range(hi, 1))
                if arrs[0] and arrs[1] and arrs[0] == arrs[1]:
                    arr, idx = arrs[0]
                    st.offsets.add(arr)
                    st.atom_vars.add(target)
                    if idx is not None:
                        st.tile_vars.add(idx)
                        st.tainted.discard(idx)
                    classified = True
        if target is not None and not classified:
            st.tainted.add(target)
        self._walk(stmt.body, control_tainted)
        self._walk(stmt.orelse, control_tainted)

    # -- writes --------------------------------------------------------
    def _record_write(self, target: ast.Subscript) -> None:
        if isinstance(target.value, ast.Name):
            self.st.raw_writes.append(
                (target.value.id, target.slice, target.lineno)
            )

    def classify_index(self, index: ast.AST) -> str:
        st = self.st
        if _has_subscript(index) or _names_in(index) & st.tainted:
            return "scatter"
        comps = index.elts if isinstance(index, ast.Tuple) else [index]
        kinds = []
        for comp in comps:
            if isinstance(comp, ast.Name):
                if comp.id in st.tile_vars:
                    kinds.append("tile")
                elif comp.id in st.atom_vars:
                    kinds.append("atom")
                elif comp.id in st.dense_vars:
                    kinds.append("dense")
                else:
                    return "scatter"  # unknown provenance: assume the worst
            elif isinstance(comp, ast.Constant):
                kinds.append("const")
            else:
                return "scatter"
        if "tile" in kinds:
            return "tile_private"
        if "atom" in kinds:
            return "atom_private"
        return "global_reduce"


def _offsets_range(node: ast.AST, plus: int):
    """Match ``a[i]`` (plus=0) or ``a[i + 1]`` (plus=1); return
    ``(array_name, index_name)`` with index_name possibly None."""
    if not (
        isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
    ):
        return None
    arr = node.value.id
    sl = node.slice
    if plus == 0:
        if isinstance(sl, ast.Name):
            return (arr, sl.id)
        if isinstance(sl, ast.Constant):
            return (arr, None)
        return None
    if (
        isinstance(sl, ast.BinOp)
        and isinstance(sl.op, ast.Add)
        and isinstance(sl.right, ast.Constant)
        and sl.right.value == 1
    ):
        if isinstance(sl.left, ast.Name):
            return (arr, sl.left.id)
        if isinstance(sl.left, ast.Constant):
            return (arr, None)
    return None


def classify_scalar_fn(fn: Callable) -> tuple:
    """Infer ``(params, reads, writes, outputs)`` from a scalar body."""
    src = textwrap.dedent(inspect.getsource(fn))
    tree = ast.parse(src)
    fndef = next(
        n
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    cls = _Classifier(fndef)
    st = cls.st
    writes: list[WriteEffect] = []
    seen: set = set()
    for name, index, lineno in st.raw_writes:
        write_class = cls.classify_index(index)
        key = (name, write_class)
        if key in seen:
            continue
        seen.add(key)
        writes.append(
            WriteEffect(
                array=name,
                write_class=write_class,
                line=lineno,
                index=ast.unparse(index),
            )
        )
    # A returned bare-name accumulator is one shared output cell.
    for name in sorted(st.scalar_accs & st.returned):
        writes.append(
            WriteEffect(array=name, write_class="global_reduce", index=name)
        )
    written = {w.array for w in writes}
    outputs = sorted(
        name
        for name in written
        if name in st.returned or name in st.params
    )
    return (
        tuple(st.params),
        tuple(sorted(st.reads)),
        tuple(writes),
        tuple(outputs),
    )


def _effects_for_decl(app: str, decl) -> KernelEffects:
    """Effects of one :class:`~repro.engine.registry.KernelDecl` of ``app``."""
    params: tuple = ()
    reads: tuple = ()
    writes: list[WriteEffect] = []
    outputs: list = []
    if decl.scalar is not None:
        params, reads, inferred, inferred_outputs = classify_scalar_fn(
            decl.scalar
        )
        writes.extend(inferred)
        outputs.extend(inferred_outputs)
    if decl.writes:
        for array, write_class in sorted(decl.writes.items()):
            if write_class not in WRITE_CLASSES:
                raise ValueError(
                    f"unknown write class {write_class!r} declared for "
                    f"{app}/{decl.label}"
                )
            writes = [w for w in writes if w.array != array]
            writes.append(
                WriteEffect(array=array, write_class=write_class, declared=True)
            )
            if array not in outputs:
                outputs.append(array)
    return KernelEffects(
        app=app,
        label=decl.label,
        params=params,
        reads=reads,
        writes=tuple(writes),
        outputs=tuple(sorted(outputs)),
    )


def kernel_effects(app: str | None = None) -> tuple:
    """Effects of every registered kernel, optionally for one app,
    sorted by ``(app, label)``."""
    from ..engine import available_apps, get_app

    names = available_apps() if app is None else [app]
    return tuple(sorted(
        (_effects_for_decl(name, decl)
         for name in names for decl in get_app(name).kernels),
        key=lambda e: (e.app, e.label),
    ))
