"""The traced run: per-layer metrics from the benchmark's own wrappers.

One command (``run.py --trace 1``) re-runs a workload — one set-up and
one round — with :class:`layers.LayerTracer` installed, then runs one
more set-up and round untraced to measure the tracing overhead, and
finally a STREAM triad sized from the last-level cache.  It prints a
per-layer table (self time and call counts) and returns every
per-layer metric; a layer the workload does not exercise reads 0.

Timings are summed over threads.  Busy layers (mesh,
partition, solvers, kernels, multigrid levels) report self CPU time
(``time.thread_time``); waiting layers (exchange, collectives, slots,
store, service) report wall time.  Per-cycle metrics
divide by the multigrid cycles of the traced round (on ``aero_db``:
the cycles of every case it solved).
"""

from __future__ import annotations

import layers
from hostprobe import traced_triad_gbs
from stats import tail_percentile

#: Per-layer metric -> unit, in BENCHMARK.json order.
PER_LAYER = {
    "mesh.generate_s": "s",
    "mesh.dual_s": "s",
    "solvers.nsu3d.agglomerate_s": "s",
    "partition.decompose_s": "s",
    "runtime.multigrid.fine_s": "s/cycle",
    "runtime.multigrid.coarse_s": "s/cycle",
    "solvers.nsu3d.residual_s": "s/cycle",
    "solvers.nsu3d.residual.calls": "1/cycle",
    "solvers.nsu3d.jacobian_s": "s/cycle",
    "solvers.nsu3d.linesolve_s": "s/cycle",
    "solvers.nsu3d.gradient_s": "s/cycle",
    "solvers.cart3d.residual_s": "s/cycle",
    "solvers.cart3d.rk_s": "s/cycle",
    "kernels.scatter_add_s": "s/cycle",
    "kernels.scatter_add.calls": "1/cycle",
    "kernels.jacobian_s": "s/cycle",
    "kernels.block_solve_s": "s/cycle",
    "kernels.thomas_s": "s/cycle",
    "kernels.rk_update_s": "s/cycle",
    "kernels.computed_gbs": "GB/s",
    "host.triad_gbs": "GB/s",
    "runtime.exchange.calls_per_cycle": "1/cycle",
    "runtime.exchange.bytes_per_cycle": "B/cycle",
    "runtime.exchange_s_per_cycle": "s/cycle",
    "runtime.rank_imbalance": "ratio",
    "comm.collective.calls_per_cycle": "1/cycle",
    "comm.collective.wait_s_per_cycle": "s/cycle",
    "database.case_s": "s",
    "database.mesh_s": "s",
    "database.slot_wait_s": "s",
    "database.store_s": "s",
    "database.slot_busy_frac": "ratio",
    "database.retries": "count",
    "service.exact.count": "count",
    "service.surrogate.count": "count",
    "service.solve.count": "count",
    "service.lookup_ms": "ms",
    "service.surrogate_ms": "ms",
    "service.admission_wait_ms": "ms",
    "service.query_ms_p99": "ms",
    "trace.overhead_frac": "ratio",
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def derive(workload, out, plain) -> dict:
    """Every per-layer metric from a traced outcome (``plain`` is the
    untraced twin round, for the overhead)."""
    both = layers.LayerView()
    both.merge(out.layer_setup)
    both.merge(out.layer_round)
    rnd = layers.LayerView()
    rnd.merge(out.layer_round)
    c = out.cycles
    m = {
        "mesh.generate_s": both.self_cpu("mesh.generate"),
        "mesh.dual_s": both.self_cpu("mesh.dual"),
        "solvers.nsu3d.agglomerate_s": both.self_cpu(
            "solvers.nsu3d.agglomerate"
        ),
        "partition.decompose_s": both.wall("partition.decompose"),
    }
    levels = rnd.by_key("runtime.mg_level")
    m["runtime.multigrid.fine_s"] = _div(
        sum(st.own_cpu for lev, st in levels.items() if lev == 0), c
    )
    m["runtime.multigrid.coarse_s"] = _div(
        sum(st.own_cpu for lev, st in levels.items() if lev != 0), c
    )
    for name, prefix in (
        ("solvers.nsu3d.residual_s", "solvers.nsu3d.residual"),
        ("solvers.nsu3d.jacobian_s", "solvers.nsu3d.jacobian"),
        ("solvers.nsu3d.linesolve_s", "solvers.nsu3d.linesolve"),
        ("solvers.nsu3d.gradient_s", "solvers.nsu3d.gradient"),
        ("solvers.cart3d.residual_s", "solvers.cart3d.residual"),
        ("solvers.cart3d.rk_s", "solvers.cart3d.rk"),
        ("kernels.scatter_add_s", "kernels.scatter_add"),
        ("kernels.jacobian_s", "kernels.jacobian"),
        ("kernels.block_solve_s", "kernels.block_solve"),
        ("kernels.thomas_s", "kernels.thomas"),
        ("kernels.rk_update_s", "kernels.rk_update"),
    ):
        m[name] = _div(rnd.self_cpu(prefix), c)
    m["solvers.nsu3d.residual.calls"] = _div(
        rnd.calls("solvers.nsu3d.residual"), c
    )
    m["kernels.scatter_add.calls"] = _div(rnd.calls("kernels.scatter_add"), c)
    m["kernels.computed_gbs"] = _div(
        rnd.nbytes("kernels"), rnd.self_wall("kernels")
    ) / 1e9
    m["host.triad_gbs"], _per_array = traced_triad_gbs()
    m["runtime.exchange.calls_per_cycle"] = _div(
        rnd.calls("runtime.exchange"), c
    )
    m["runtime.exchange.bytes_per_cycle"] = _div(
        rnd.nbytes("runtime.exchange"), c
    )
    m["runtime.exchange_s_per_cycle"] = _div(rnd.wall("runtime.exchange"), c)
    busy = [st.own_cpu for st in rnd.by_key("runtime.rank").values()]
    m["runtime.rank_imbalance"] = (
        max(busy) / (sum(busy) / len(busy)) if busy and sum(busy) else 0.0
    )
    m["comm.collective.calls_per_cycle"] = _div(
        rnd.calls("comm.collective"), c
    )
    m["comm.collective.wait_s_per_cycle"] = _div(
        rnd.wall("comm.collective"), c
    )
    m.update(_database_metrics(workload, out, rnd))
    m["database.mesh_s"] = both.wall("database.mesh")  # meshed in set-up
    traced_rate = _rate(out)
    m["trace.overhead_frac"] = (
        _rate(plain) / traced_rate - 1.0 if traced_rate else 0.0
    )
    return {name: (float(m[name]), unit) for name, unit in PER_LAYER.items()}


def _rate(out) -> float:
    return _div(out.point_cycles, out.wall_s)


def _database_metrics(workload, out, rnd) -> dict:
    reports = getattr(workload, "reports", [])
    responses = getattr(workload, "responses", [])
    lookup = rnd.by_key("database.store.get").get(
        "DatabaseService._answer", layers.Stat()
    )
    m = {
        "database.case_s": _div(
            rnd.wall("database.case"), rnd.calls("database.case")
        ),
        # store put plus journal append, per stored case (fill cases
        # and query solves)
        "database.store_s": _div(
            rnd.wall("database.store") + rnd.wall("database.store.journal"),
            rnd.calls("database.store"),
        ),
        "database.slot_wait_s": 0.0,
        "database.slot_busy_frac": 0.0,
        "database.retries": float(sum(r.retries for r in reports)),
        # the service's exact-tier lookups only, not the fill's
        "service.lookup_ms": 1e3 * _div(lookup.wall, lookup.calls),
        "service.surrogate_ms": 1e3 * _div(
            rnd.wall("service.surrogate")
            + rnd.wall("service.surrogate.nearest"),
            rnd.calls("service.surrogate.nearest"),
        ),
        "service.admission_wait_ms": 1e3 * _div(
            rnd.wall("service.admission_wait"),
            rnd.calls("service.admission_wait"),
        ),
    }
    waits, busy, capacity = [], 0.0, 0.0
    for report in reports:
        submitted = {}
        for event in report.events:
            if event.kind == "submit":
                submitted[event.key] = event.t
            elif event.kind == "start" and event.key in submitted:
                waits.append(event.t - submitted[event.key])
        busy += sum(o.end - o.start for o in report.outcomes)
        capacity += report.slots * report.wall_seconds
    m["database.slot_wait_s"] = _div(sum(waits), len(waits))
    m["database.slot_busy_frac"] = _div(busy, capacity)
    latencies = [ms for results in responses for _q, _r, ms in results]
    m["service.query_ms_p99"] = tail_percentile(latencies, 99.0) or 0.0
    for source in ("exact", "surrogate", "solve"):
        m[f"service.{source}.count"] = float(sum(
            getattr(r, "source", None) == source
            for results in responses for _q, r, _ms in results
        ))
    return m


def table_lines(out) -> list[str]:
    """The per-layer table of the traced round (set-up separately)."""
    lines = []
    for title, stats in (("set-up", out.layer_setup),
                         ("timed round", out.layer_round)):
        view = layers.LayerView()
        view.merge(stats)
        lines.append(f"per-layer, {title} (seconds summed over threads):")
        lines.append(f"  {'layer':<42} {'calls':>8} {'self wall':>10} "
                     f"{'self cpu':>10} {'incl wall':>10}")
        for layer, calls, self_wall, self_cpu, wall in view.table():
            lines.append(f"  {layer:<42} {calls:>8d} {self_wall:>10.4f} "
                         f"{self_cpu:>10.4f} {wall:>10.4f}")
    return lines


def traced_run(workload_cls, seed: int, workdir: str, seconds: float):
    """Returns ``(traced outcome, per-layer metrics, printable lines)``."""
    workload = workload_cls(seed, workdir)
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        out = workload.run(seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    plain = workload_cls(seed, workdir).run(seconds, single=True, check=False)
    metrics = derive(workload, out, plain)
    lines = table_lines(out)
    lines.append(
        f"tracing overhead: {_rate(out):.1f} traced vs {_rate(plain):.1f} "
        "untraced point-cycles/s"
    )
    return out, metrics, lines
