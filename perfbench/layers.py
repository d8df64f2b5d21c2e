"""Per-layer tracing from outside the program: timing wrappers.

The traced run wraps public functions of each layer of ``repro`` and
records, per layer, the call count, inclusive wall time, self wall time
and self CPU time (``time.thread_time``), plus bytes where a layer
moves arrays.  Self time is the call's duration minus the part covered
by wrapped calls nested inside it, so layers nest without double
counting.

The solvers import with ``from ... import name``, so a wrapper is put
in place of every module attribute in ``repro.*`` that *is* the wrapped
function — the name is patched where each caller looks it up.  Methods
are patched on their classes.  Wrappers record into per-thread tables,
so SimMPI rank threads and fill-runtime slot threads need no lock on
the hot path.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

#: (module, function name, layer) — module-level functions.
FUNCTIONS = [
    ("repro.mesh.unstructured.generate", "bump_channel", "mesh.generate"),
    ("repro.mesh.cartesian.adapt", "adapt_to_geometry", "mesh.generate"),
    ("repro.mesh.unstructured.dual", "build_dual", "mesh.dual"),
    ("repro.mesh.unstructured.lines", "extract_lines", "mesh.lines"),
    ("repro.mesh.cartesian.cutcell", "classify_cells", "mesh.cutcell"),
    ("repro.mesh.cartesian.cutcell", "build_cutcell_mesh", "mesh.cutcell"),
    ("repro.mesh.cartesian.coarsen", "sfc_coarsen", "mesh.cutcell"),
    ("repro.solvers.nsu3d.agglomerate", "build_hierarchy",
     "solvers.nsu3d.agglomerate"),
    ("repro.solvers.nsu3d.residual", "residual", "solvers.nsu3d.residual"),
    ("repro.solvers.nsu3d.residual", "residual_norm",
     "solvers.nsu3d.residual.norm"),
    ("repro.solvers.nsu3d.residual", "sa_source_residual",
     "solvers.nsu3d.residual.sa_source"),
    ("repro.solvers.nsu3d.jacobians", "euler_jacobian",
     "solvers.nsu3d.jacobian.euler"),
    ("repro.solvers.nsu3d.jacobians", "assemble_diagonal",
     "solvers.nsu3d.jacobian.diagonal"),
    ("repro.solvers.nsu3d.jacobians", "edge_offdiagonals",
     "solvers.nsu3d.jacobian.offdiagonal"),
    ("repro.solvers.nsu3d.jacobians", "local_time_step",
     "solvers.nsu3d.jacobian.time_step"),
    ("repro.solvers.nsu3d.jacobians", "edge_spectral_radius",
     "solvers.nsu3d.jacobian.spectral_radius"),
    ("repro.solvers.nsu3d.jacobians", "viscous_edge_coefficient",
     "solvers.nsu3d.jacobian.viscous"),
    ("repro.solvers.nsu3d.jacobians", "sa_destruction_diagonal",
     "solvers.nsu3d.jacobian.sa_destruction"),
    ("repro.solvers.nsu3d.linesolve", "line_implicit_update",
     "solvers.nsu3d.linesolve.line"),
    ("repro.solvers.nsu3d.linesolve", "point_implicit_update",
     "solvers.nsu3d.linesolve.point"),
    ("repro.solvers.nsu3d.linesolve", "block_thomas",
     "solvers.nsu3d.linesolve.thomas"),
    ("repro.solvers.nsu3d.linesolve", "line_offdiag_blocks",
     "solvers.nsu3d.linesolve.offdiag"),
    ("repro.solvers.nsu3d.linesolve", "limit_correction",
     "solvers.nsu3d.linesolve.limit"),
    ("repro.solvers.nsu3d.linesolve", "smooth",
     "solvers.nsu3d.linesolve.smooth"),
    ("repro.solvers.nsu3d.linesolve", "_build_operator",
     "solvers.nsu3d.linesolve.operator"),
    ("repro.solvers.nsu3d.gradients", "green_gauss",
     "solvers.nsu3d.gradient.green_gauss"),
    ("repro.solvers.nsu3d.gradients", "green_gauss_sums",
     "solvers.nsu3d.gradient.sums"),
    ("repro.solvers.nsu3d.gradients", "vorticity_magnitude",
     "solvers.nsu3d.gradient.vorticity"),
    ("repro.solvers.cart3d.residual", "residual", "solvers.cart3d.residual"),
    ("repro.solvers.cart3d.residual", "spectral_radius",
     "solvers.cart3d.residual.spectral_radius"),
    ("repro.solvers.cart3d.rk", "residual_norm",
     "solvers.cart3d.residual.norm"),
    ("repro.solvers.cart3d.rk", "rk_smooth", "solvers.cart3d.rk"),
    ("repro.solvers.cart3d.rk", "local_time_step",
     "solvers.cart3d.rk.time_step"),
    ("repro.runtime.multigrid", "_fas_level", "runtime.mg_level"),
    ("repro.runtime.driver", "run_rank_cycles", "runtime.rank"),
    ("repro.api", "make_parallel_nsu3d", "partition.decompose"),
    ("repro.api", "make_parallel_cart3d", "partition.decompose"),
    ("repro.runtime.domain", "build_domain_hierarchy", "partition.domains"),
    ("repro.service.surrogate", "interpolate", "service.surrogate"),
]

#: (module, class, method, layer) — methods patched on their class.
METHODS = [
    ("repro.solvers.nsu3d.parallel", "NSU3DKernels", "smooth",
     "solvers.nsu3d.linesolve.smooth"),
    ("repro.solvers.cart3d.parallel", "Cart3DKernels", "smooth",
     "solvers.cart3d.rk"),
    ("repro.solvers.cart3d.parallel", "Cart3DKernels", "_time_step",
     "solvers.cart3d.rk.time_step"),
    ("repro.solvers.cart3d.parallel", "Cart3DKernels", "_face_residual",
     "solvers.cart3d.residual"),
    ("repro.runtime.partitioners", "MetisLinePartitioner", "partition",
     "partition.partition"),
    ("repro.runtime.partitioners", "SFCPartitioner", "partition",
     "partition.partition"),
    ("repro.runtime.backends", "PlanExchanger", "copy", "runtime.exchange"),
    ("repro.runtime.backends", "PlanExchanger", "add", "runtime.exchange"),
    ("repro.runtime.backends", "PlanExchanger", "start_copy",
     "runtime.exchange"),
    ("repro.comm.simmpi", "Comm", "_collective", "comm.collective"),
    ("repro.database.runtime", "Cart3DCaseRunner", "__call__",
     "database.case"),
    ("repro.database.runtime", "Cart3DCaseRunner", "prepare",
     "database.mesh"),
    ("repro.database.resultstore", "ResultStore", "put", "database.store"),
    ("repro.database.checkpoint", "CampaignCheckpoint", "record",
     "database.store.journal"),
    ("repro.database.resultstore", "ResultStore", "get", "database.store.get"),
    ("repro.database.resultstore", "ResultStore", "nearest",
     "service.surrogate.nearest"),
    ("repro.service.admission", "AdmissionController", "acquire",
     "service.admission_wait"),
]

#: The kernel-engine primitives, patched on every engine class.
ENGINE_CLASSES = [
    ("repro.kernels.numpy_engine", "NumpyEngine"),
    ("repro.kernels.batched", "BatchedEngine"),
]
ENGINE_METHODS = {
    "scatter_add": "kernels.scatter_add",
    "euler_jacobian": "kernels.jacobian.euler",
    "edge_jacobians": "kernels.jacobian.edge",
    "block_solve": "kernels.block_solve",
    "block_factor": "kernels.block_solve.factor",
    "thomas": "kernels.thomas",
    "rk_update": "kernels.rk_update",
}
#: The frozen factorizations ``block_factor`` returns.
FACTOR_CLASSES = [
    ("repro.kernels.numpy_engine", "_RepeatedSolveFactor"),
    ("repro.kernels.batched", "_PrefactoredDiagonal"),
]


@dataclass
class Stat:
    """Accumulated timings of one (layer, key) pair."""

    calls: int = 0
    wall: float = 0.0  # inclusive wall seconds
    self_wall: float = 0.0
    self_cpu: float = 0.0
    own_cpu: float = 0.0  # self CPU plus nested calls of other layers
    nbytes: float = 0.0

    def add(self, other: "Stat") -> None:
        self.calls += other.calls
        self.wall += other.wall
        self.self_wall += other.self_wall
        self.self_cpu += other.self_cpu
        self.own_cpu += other.own_cpu
        self.nbytes += other.nbytes


@dataclass
class _Frame:
    layer: str
    child_wall: float = 0.0
    child_cpu: float = 0.0
    same_cpu: float = 0.0


def _array_bytes(values) -> float:
    total = 0.0
    for v in values:
        nbytes = getattr(v, "nbytes", None)
        if nbytes is not None:
            total += nbytes
        elif isinstance(v, (list, tuple)):
            total += _array_bytes(v)
    return total


def _engine_bytes(args, kwargs, result) -> float:
    """Bytes a kernel reads and writes, from its array sizes (computed,
    not measured): every array argument once, plus the result."""
    moved = _array_bytes(args[1:]) + _array_bytes(kwargs.values())
    if result is not None:
        moved += _array_bytes([result])
    return moved


def _exchange_bytes(args, kwargs, result) -> float:
    """Ghost-row bytes one exchange moves: for every partition in the
    call, the rows its plan receives (copy) or sends back (add)."""
    exchanger, arrays = args[0], args[1]
    total = 0.0
    for pid, arr in arrays.items():
        plan = exchanger.plans[pid]
        row = arr.nbytes / max(len(arr), 1)
        total += row * sum(len(r) for r in plan.ghost_slots.values())
    return total


def _rank_key(args, kwargs):
    return args[0].rank


def _level_key(args, kwargs):
    return kwargs.get("level", 0)


def _caller_key(args, kwargs):
    """The qualified name of the function that called the wrapped one
    (frames: this key function, the wrapper, the caller)."""
    return sys._getframe(2).f_code.co_qualname


#: layer -> key function: stats of one layer are kept per key
KEYS = {
    "runtime.rank": _rank_key,
    "runtime.mg_level": _level_key,
    "database.store.get": _caller_key,
}


class LayerTracer:
    """Installs the wrappers and accumulates per-thread stats."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._patched: list[tuple] = []  # (owner, attr, original)
        self._originals: dict[int, object] = {}  # id(wrapper) -> original

    # -- accumulation ---------------------------------------------------------

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            self._local.stack = []
            with self._lock:
                self._tables.append(table)
        return table

    def stats(self) -> dict:
        """Merged ``{(layer, key): Stat}`` over every thread so far."""
        merged: dict = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for k, st in list(table.items()):
                merged.setdefault(k, Stat()).add(st)
        return merged

    def reset(self) -> None:
        with self._lock:
            for table in self._tables:
                table.clear()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, layer, key_fn=None, bytes_fn=None):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    st = tracer._table().setdefault((layer, None), Stat())
                    st.calls += 1
                    st.wall += dt
                    st.self_wall += dt

            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = tracer._table()
            stack = tracer._local.stack
            frame = _Frame(layer)
            stack.append(frame)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                dc = time.thread_time() - c0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent.child_wall += dt
                    parent.child_cpu += dc
                    if parent.layer == layer:
                        parent.same_cpu += dc
                key = key_fn(args, kwargs) if key_fn is not None else None
                st = table.get((layer, key))
                if st is None:
                    st = table[(layer, key)] = Stat()
                st.calls += 1
                st.wall += dt
                st.self_wall += dt - frame.child_wall
                st.self_cpu += dc - frame.child_cpu
                st.own_cpu += dc - frame.same_cpu
                if bytes_fn is not None:
                    st.nbytes += bytes_fn(args, kwargs, result)

        return wrapper

    def _patch_attr(self, owner, attr, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every target; module functions are replaced wherever a
        ``repro`` module holds a reference to them."""
        for modname, name, layer in FUNCTIONS:
            mod = importlib.import_module(modname)
            original = getattr(mod, name)
            wrapper = self._wrap(original, layer, key_fn=KEYS.get(layer))
            self._originals[id(wrapper)] = original
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._patch_attr(other, attr, wrapper, original)
        for modname, clsname, name, layer in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[name]
            bytes_fn = (
                _exchange_bytes
                if layer == "runtime.exchange" else None
            )
            wrapper = self._wrap(
                original, layer, key_fn=KEYS.get(layer), bytes_fn=bytes_fn
            )
            self._patch_attr(cls, name, wrapper, original)
        for modname, clsname in ENGINE_CLASSES:
            cls = getattr(importlib.import_module(modname), clsname)
            for name, layer in ENGINE_METHODS.items():
                original = cls.__dict__[name]
                wrapper = self._wrap(original, layer, bytes_fn=_engine_bytes)
                self._patch_attr(cls, name, wrapper, original)
        for modname, clsname in FACTOR_CLASSES:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__["solve"]
            wrapper = self._wrap(
                original, "kernels.block_solve.apply", bytes_fn=_engine_bytes
            )
            self._patch_attr(cls, "solve", wrapper, original)

    def uninstall(self) -> None:
        """Restore every original, including references taken from a
        patched module after :meth:`install` (lazy imports)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(other).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(other, attr, original)
        self._originals.clear()


@dataclass
class LayerView:
    """Convenience sums over merged stats."""

    stats: dict = field(default_factory=dict)

    def merge(self, other: dict) -> None:
        for k, st in other.items():
            self.stats.setdefault(k, Stat()).add(st)

    def select(self, prefix: str):
        return [
            st for (layer, _key), st in self.stats.items()
            if layer == prefix or layer.startswith(prefix + ".")
        ]

    def calls(self, layer: str) -> int:
        return sum(
            st.calls for (name, _k), st in self.stats.items() if name == layer
        )

    def self_cpu(self, prefix: str) -> float:
        return sum(st.self_cpu for st in self.select(prefix))

    def self_wall(self, prefix: str) -> float:
        return sum(st.self_wall for st in self.select(prefix))

    def wall(self, layer: str) -> float:
        return sum(
            st.wall for (name, _k), st in self.stats.items() if name == layer
        )

    def nbytes(self, prefix: str) -> float:
        return sum(st.nbytes for st in self.select(prefix))

    def by_key(self, layer: str) -> dict:
        return {
            key: st for (name, key), st in self.stats.items() if name == layer
        }

    def table(self) -> list[tuple]:
        """Rows ``(layer, calls, self wall, self cpu, inclusive wall)``,
        keys folded, sorted by self CPU time."""
        rows: dict = {}
        for (layer, _key), st in self.stats.items():
            rows.setdefault(layer, Stat()).add(st)
        return sorted(
            (
                (layer, st.calls, st.self_wall, st.self_cpu, st.wall)
                for layer, st in rows.items()
            ),
            key=lambda r: -r[3],
        )
