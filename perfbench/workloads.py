"""The three workloads: inputs from the seed, set-up, timed phase, checks.

Every workload drives the program only through its public surface
(``repro.api``).  A workload's timed phase is a whole number of rounds
of identical work, so the operations attempted (cycles; cases plus
queries) and the share that fails are the same in every run of one
``--seconds`` setting.

* ``nsu3d_sa_serial`` — an SA-turbulent NSU3D W-cycle solve on the
  stretched ``bump_channel`` (3,825 points, 3 multigrid levels,
  line-implicit smoothing).  A round is one solve of
  :data:`NSU3D_CYCLES` cycles from freestream.
* ``cart3d_sim4`` — a 3-D cut-cell sphere (8,152 cells), SFC-partitioned
  onto a 4-rank SimMPI world.  A round is one solve of
  :data:`CART3D_CYCLES` cycles.
* ``aero_db`` — a durable Cart3D fill of the 2-D wing-body over a fixed
  Mach x alpha grid on 2 runtime slots, then an open-loop stream of
  point queries against :class:`repro.api.DatabaseService`.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro import api
from hostprobe import peak_rss_mb
from stats import OpCount, median

GAMMA = 1.4

NSU3D_CYCLES = 8
NSU3D_CFL = 8.0
NSU3D_MG_LEVELS = 3

CART3D_CYCLES = 6
CART3D_RANKS = 4

PARITY_ATOL = 1e-10  # distributed vs serial, absolute
CLOSURE_RTOL = 1e-12  # freestream residual at interior dual cells
SYMMETRY_RTOL = 1e-10

FILL_MACHS = (0.4, 0.5, 0.6)
FILL_ALPHAS = (0.0, 1.5, 3.0)
FILL_CYCLES = 8
FILL_SLOTS_CPUS = 256  # cpus_per_case=256 -> 2 runtime slots
QUERIES_PER_ROUND = 1000
QUERY_RATE = 250.0  # per second, open loop
QUERY_MISSES = 3  # true misses per round (0.3%)
#: Misses sit at this incidence, far enough outside the filled alpha
#: range that no grid point is within the surrogate's reach of them and
#: at most two other misses are — every miss is a real solve.
QUERY_MISS_ALPHA = 20.0
QUERY_GRID_SHARE = 0.5
SURROGATE_CHECKS = 2
SURROGATE_ERROR_FACTOR = 3.0


def admissible_problems(q: np.ndarray, label: str) -> list[str]:
    """rho > 0, p > 0, nu_tilde >= 0, all finite — from the state alone
    (the benchmark's own pressure, sharing no code with the solvers)."""
    problems = []
    if not np.isfinite(q).all():
        return [f"{label}: non-finite state"]
    rho = q[:, 0]
    kinetic = 0.5 * (q[:, 1] ** 2 + q[:, 2] ** 2 + q[:, 3] ** 2) / rho
    p = (GAMMA - 1.0) * (q[:, 4] - kinetic)
    if rho.min() <= 0.0:
        problems.append(f"{label}: rho min {rho.min():.3e} <= 0")
    if p.min() <= 0.0:
        problems.append(f"{label}: p min {p.min():.3e} <= 0")
    if q.shape[1] > 5 and q[:, 5].min() < 0.0:
        problems.append(f"{label}: nu_tilde min {q[:, 5].min():.3e} < 0")
    return problems


@dataclass
class Outcome:
    """What one run measured and found."""

    setup_s: list = field(default_factory=list)
    wall_s: float = 0.0  # the timed phase (cycling or fill)
    point_cycles: float = 0.0
    cases: int = 0
    request_ms: list = field(default_factory=list)
    drops: list = field(default_factory=list)
    ops: OpCount = field(default_factory=OpCount)
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    cycles: int = 0  # multigrid cycles in the timed phase
    # traced runs: per-layer stats of the set-up and of the timed round
    layer_setup: dict = field(default_factory=dict)
    layer_round: dict = field(default_factory=dict)

    def end_to_end(self) -> dict:
        return {
            "setup_s": (median(self.setup_s), "s"),
            "point_cycles_per_s": (self.point_cycles / self.wall_s, "1/s"),
            "residual_drop_orders": (median(self.drops), "orders"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "cases_per_s": (self.cases / self.wall_s, "1/s"),
            "request_ms_p50": (median(self.request_ms), "ms"),
        }


class Workload:
    name = ""
    why = ""
    #: set-ups timed per run (the reported setup_s is their median)
    setup_reps = 3
    #: nominal seconds of one round: rounds = seconds / this, at least 1
    round_s = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def rounds(self, seconds: float) -> int:
        return max(1, int(round(seconds / self.round_s)))

    #: every round needs a set-up of its own; else all rounds share the
    #: last set-up
    setup_per_round = False

    # subclasses: setup() -> ctx, timed(ctxs, rounds, out) and
    # check(ctxs, out), with ctxs the set-ups the rounds use; where
    # set-up holds resources, teardown(ctx)

    def teardown(self, ctx) -> None:
        pass

    def tally(self, ctxs, out) -> None:
        """Figures derived from the timed phase's results, computed
        after it (and outside a traced round)."""

    def run(self, seconds: float, tracer=None, check: bool = True,
            single: bool = False) -> Outcome:
        """Time ``setup_reps`` set-ups, about half before the timed
        rounds and the rest after the checks, so that the samples span
        the run's host phases.  The rounds use the last set-up before
        them or, with ``setup_per_round``, one each.  With a ``tracer``
        (or ``single``): one set-up and one round; the tracer's stats
        are snapshotted after each phase."""
        out = Outcome()
        single = single or tracer is not None
        reps = 1 if single else self.setup_reps
        rounds = 1 if single else self.rounds(seconds)
        keep = rounds if self.setup_per_round else 1
        before = max(keep, reps - reps // 2)
        ctxs = []
        try:
            for _ in range(before):
                if len(ctxs) == keep:
                    self.teardown(ctxs.pop(0))
                ctxs.append(self._timed_setup(out))
            out.layer_setup = snapshot(tracer)
            self.timed(ctxs, rounds, out)
            out.layer_round = snapshot(tracer)
            self.tally(ctxs, out)
            if check:
                self.check(ctxs, out)
            for ctx in ctxs:
                self.teardown(ctx)
            ctxs = []
            for _ in range(reps - before):
                self.teardown(self._timed_setup(out))
        finally:
            for ctx in ctxs:
                self.teardown(ctx)
        return out

    def _timed_setup(self, out):
        t0 = time.perf_counter()
        ctx = self.setup()
        out.setup_s.append(time.perf_counter() - t0)
        return ctx


def snapshot(tracer) -> dict:
    """The tracer's stats so far, then reset (empty without a tracer)."""
    if tracer is None:
        return {}
    stats = tracer.stats()
    tracer.reset()
    return stats


# -- NSU3D ---------------------------------------------------------------------


class NSU3DCase:
    """The NSU3D case; the seed sets Mach in [0.49, 0.51]."""

    def __init__(self, rng):
        self.mach = 0.49 + 0.02 * float(rng.random())

    def build(self):
        mesh = api.bump_channel(ni=24, nj=8, nk=16)
        return api.make_nsu3d_solver(
            mesh, mach=self.mach, mg_levels=NSU3D_MG_LEVELS,
            turbulence=True, cfl=NSU3D_CFL, cfl_start=NSU3D_CFL,
        )


def closure_problems(solver) -> list[str]:
    """Dual-cell closure: a uniform freestream has a round-off residual
    at every point whose dual cell touches no boundary."""
    from repro.solvers.nsu3d import residual

    ctx = solver.contexts[0]
    qinf = solver.qinf[:5]
    r = residual(ctx, np.tile(qinf, (ctx.npoints, 1)), qinf,
                 turbulence=False)
    boundary = np.zeros(ctx.npoints, dtype=bool)
    for verts in (ctx.wall_vert, ctx.far_vert, ctx.sym_vert):
        boundary[verts] = True
    interior = ~boundary
    # flux scale: |F(q_inf)| times the largest dual-face area
    scale = float(np.abs(qinf).max() * np.linalg.norm(
        ctx.face_vectors, axis=1).max())
    worst = float(np.abs(r[interior]).max())
    if not interior.any() or worst > CLOSURE_RTOL * scale:
        return [f"freestream closure: interior residual {worst:.3e} > "
                f"{CLOSURE_RTOL:g} x {scale:.3e}"]
    return []


def serial_reference(solver, q0, ncycles):
    """Run the serial solver ``ncycles`` fixed-CFL cycles from ``q0``."""
    solver.q = q0.copy()
    solver.history = api.ConvergenceHistory()
    for _ in range(ncycles):
        solver.run_cycle("W")
    return solver.q


@dataclass
class SolverCtx:
    solver: object
    q0: np.ndarray
    par: object = None
    q_final: np.ndarray | None = None
    histories: list = field(default_factory=list)


class SolverWorkload(Workload):
    """A round is one solve of ``ncycles`` cycles from freestream."""

    ncycles = 0
    min_drop = 1.0  # orders, after ncycles cycles

    def timed(self, ctxs, rounds, out):
        (ctx,) = ctxs
        t_all = time.perf_counter()
        for _ in range(rounds):
            t0 = time.perf_counter()
            ctx.histories.append(self._round(ctx))
            out.request_ms.append((time.perf_counter() - t0) * 1e3)
        out.wall_s = time.perf_counter() - t_all
        out.cycles = rounds * self.ncycles
        out.point_cycles = float(ctx.solver.size * out.cycles)
        out.cases = rounds
        out.ops.ok(out.cycles)

    def check(self, ctxs, out):
        (ctx,) = ctxs
        solver = ctx.solver
        solver.q = ctx.q0.copy()
        r0 = solver.residual_norm()
        out.drops = [math.log10(r0 / h[-1]) for h in ctx.histories]
        out.problems += admissible_problems(ctx.q_final, self.name)
        if any(h != ctx.histories[0] for h in ctx.histories):
            out.problems.append(f"{self.name}: rounds of one solve differ")
        if min(out.drops) < self.min_drop:
            out.problems.append(
                f"{self.name}: residual dropped {min(out.drops):.3f} "
                f"orders < {self.min_drop}"
            )


class NSU3DSerial(SolverWorkload):
    name = "nsu3d_sa_serial"
    why = ("serial SA W-cycles on 3,825 points: kernel-bound, never "
           "touches runtime, comm, database or service")
    setup_reps = 9
    round_s = 7.5
    ncycles = NSU3D_CYCLES

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.case = NSU3DCase(self.rng)

    def setup(self):
        solver = self.case.build()
        return SolverCtx(solver, solver.q.copy())

    def _round(self, ctx) -> list:
        serial_reference(ctx.solver, ctx.q0, self.ncycles)
        ctx.q_final = ctx.solver.q
        return list(ctx.solver.history.residuals)

    def check(self, ctxs, out):
        super().check(ctxs, out)
        out.problems += closure_problems(ctxs[0].solver)


class Cart3DSim4(SolverWorkload):
    name = "cart3d_sim4"
    why = ("3-D cut-cell sphere, 8,152 cells, SFC-split over a 4-rank "
           "SimMPI world: the in-process distributed path")
    setup_reps = 7
    round_s = 4.5
    ncycles = CART3D_CYCLES

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.mach = 0.45 + 0.1 * float(self.rng.random())

    def setup(self):
        sphere = api.Sphere(center=[0.5, 0.5, 0.5], radius=0.15)
        solver = api.make_cart3d_solver(
            sphere, dim=3, base_level=4, max_level=6, mg_levels=3,
            mach=self.mach,
        )
        par = api.make_parallel_cart3d(
            solver, CART3D_RANKS, config=api.RuntimeConfig(backend="sim"),
        )
        return SolverCtx(solver, solver.q.copy(), par=par)

    def _round(self, ctx) -> list:
        ctx.q_final, history = ctx.par.solve(
            self.ncycles, cfl=ctx.solver.cfl
        )
        return list(history)

    def check(self, ctxs, out):
        super().check(ctxs, out)
        (ctx,) = ctxs
        solver = ctx.solver
        ref = serial_reference(solver, ctx.q0, self.ncycles)
        worst = float(np.abs(ctx.q_final - ref).max())
        if not worst <= PARITY_ATOL:
            out.problems.append(
                f"{self.name}: differs from the serial solve by {worst:.3e}"
            )
        # zero incidence and sideslip: the sphere feels only drag
        solver.q = ctx.q_final
        forces = solver.forces()
        scale = max(1.0, abs(forces["cd"]), abs(forces["fx"]))
        for key in ("fy", "fz", "cl", "cm"):
            if not abs(forces[key]) <= SYMMETRY_RTOL * scale:
                out.problems.append(
                    f"{self.name}: symmetry broken, {key} = "
                    f"{forces[key]:.3e}"
                )


# -- aero-database fill + query service --------------------------------------------


@dataclass
class DbCtx:
    directory: str
    runner: object
    runtime: object
    service: object
    tree: list
    shared: tuple  # (solid, mesh) of the single geometry instance


class AeroDb(Workload):
    name = "aero_db"
    why = ("durable 2-D wing-body fill on 2 slots, then 1,000 open-loop "
           "queries: exercises database, service and many small solves")
    setup_reps = 100  # a set-up takes a few milliseconds
    round_s = 8.0
    setup_per_round = True  # every round fills a fresh durable store

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._n = 0
        self.study = api.StudyDefinition(
            config_space=api.ParameterSpace(axes=()),
            wind_space=api.ParameterSpace(axes=(
                api.Axis("mach", FILL_MACHS), api.Axis("alpha", FILL_ALPHAS),
            )),
        )

    def setup(self):
        self._n += 1
        directory = os.path.join(self.workdir, f"db{self._n}")
        os.makedirs(directory)
        runner = api.Cart3DCaseRunner(api.wing_body(), cycles=FILL_CYCLES)
        runtime = api.FillRuntime(
            runner, nnodes=1, cpus_per_case=FILL_SLOTS_CPUS,
            store=api.ResultStore(os.path.join(directory, "store.jsonl")),
            checkpoint=api.CampaignCheckpoint(
                os.path.join(directory, "journal.jsonl")
            ),
        )
        service = api.DatabaseService(runtime)
        tree = api.build_job_tree(self.study)
        # mesh the one geometry instance up front: the fill's cases share it
        shared = runner.prepare(tree[0])
        return DbCtx(directory, runner, runtime, service, tree, shared)

    def teardown(self, ctx):
        ctx.runtime.close()
        shutil.rmtree(ctx.directory, ignore_errors=True)

    def queries(self, rng: random.Random) -> list:
        """One round's stream: grid points (exact tier) and off-grid
        points inside the filled hull (surrogate tier), then a few true
        misses far outside it (solve tier)."""
        out = []
        for _ in range(QUERIES_PER_ROUND - QUERY_MISSES):
            if rng.random() < QUERY_GRID_SHARE:
                out.append(api.PointQuery(
                    mach=rng.choice(FILL_MACHS), alpha=rng.choice(FILL_ALPHAS)
                ))
            else:
                out.append(api.PointQuery(
                    mach=round(rng.uniform(FILL_MACHS[0], FILL_MACHS[-1]), 4),
                    alpha=round(
                        rng.uniform(FILL_ALPHAS[0], FILL_ALPHAS[-1]), 4
                    ),
                ))
        # the misses close the stream: their solves hold the interpreter
        # lock for about a second each, so queries due after them would
        # measure lock hand-offs rather than the service's tiers
        for _ in range(QUERY_MISSES):
            out.append(api.PointQuery(
                mach=round(rng.uniform(0.45, 0.55), 4),
                alpha=QUERY_MISS_ALPHA,
            ))
        return out

    async def _stream(self, service, queries):
        """Open loop: query i is due at i / QUERY_RATE; its latency runs
        from when it was due.  Returns ``[(query, response|exc, ms)]``."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        results = [None] * len(queries)

        async def one(i, query):
            due = start + i / QUERY_RATE
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            try:
                response = await service.query(query)
            except Exception as exc:  # counted as a failed operation
                response = exc
            results[i] = (query, response, (loop.time() - due) * 1e3)

        await asyncio.gather(*(one(i, q) for i, q in enumerate(queries)))
        return results

    def timed(self, ctxs, _rounds, out):
        stream_rng = random.Random(self.seed)
        self.reports, self.responses = [], []
        for ctx in ctxs:
            t0 = time.perf_counter()
            report = ctx.runtime.run_tree(
                ctx.tree, prepare=lambda _geo, shared=ctx.shared: shared
            )
            out.wall_s += time.perf_counter() - t0
            self.reports.append(report)
            queries = self.queries(stream_rng)
            results = asyncio.run(self._stream(ctx.service, queries))
            self.responses.append(results)
            out.request_ms += [ms for _q, _r, ms in results]
            out.cases += report.cases
            self._count_round(report, results, out)

    def _count_round(self, report, results, out) -> None:
        """Operations: every fill case (failing the lift-curve property
        counts as failed) and every query (an exception counts)."""
        lift_failures = lift_curve_failures(report)
        for outcome in report.outcomes:
            reason = lift_failures.get(outcome.spec.key)
            if reason is not None:
                out.ops.fail(reason)
            elif outcome.state != "done":
                out.ops.fail(f"case {outcome.spec.key}: {outcome.state}")
            else:
                out.ops.ok()
        for query, response, _ms in results:
            if isinstance(response, Exception):
                out.ops.fail(f"query {query.wind}: {response!r}")
            else:
                out.ops.ok()

    def tally(self, ctxs, out) -> None:
        """Cell-cycles of the fill cases (all cases share one mesh) and
        the drop of each; ``out.cycles`` also counts query solves."""
        ctx = ctxs[-1]
        solid, mesh = ctx.shared
        size = api.make_cart3d_solver(
            solid, mesh=mesh, dim=ctx.runner.dim,
            base_level=ctx.runner.base_level, max_level=ctx.runner.max_level,
            mg_levels=ctx.runner.mg_levels,
        ).size
        fill = [
            o.result for r in self.reports for o in r.outcomes
            if o.result is not None
        ]
        out.point_cycles = float(size * sum(r.cycles for r in fill))
        out.drops = [r.orders_converged() for r in fill]
        out.cycles = sum(
            c.runtime.store.get(key).cycles
            for c in ctxs for key in c.runtime.store.keys()
        )

    def check(self, ctxs, out):
        ctx = ctxs[-1]
        for report in self.reports:
            if report.failures or report.retries or report.executed != len(
                report.outcomes
            ):
                out.problems.append(
                    f"fill: {report.failures} failed, {report.retries} "
                    f"retried, {report.executed}/{report.cases} executed"
                )
        surrogate = []
        for ctx_i, results in zip(ctxs, self.responses):
            store = ctx_i.runtime.store
            shed = ctx_i.service.counters.shed
            if shed:
                out.problems.append(f"service shed {shed} queries")
            for query, response, _ms in results:
                if isinstance(response, Exception):
                    continue
                if response.source == "exact":
                    stored = store.get(response.key).coefficients
                    if dict(stored) != dict(response.coefficients):
                        out.problems.append(
                            f"exact answer for {query.wind} differs from "
                            "the stored record"
                        )
                elif response.source == "surrogate":
                    surrogate.append((query, response))
        picks = random.Random(self.seed + 1).sample(
            surrogate, min(SURROGATE_CHECKS, len(surrogate))
        )
        for query, response in picks:
            truth = ctx.runner(ctx.service.spec_for(query), ctx.shared)
            miss = max(
                abs(truth.coefficients[k] - v)
                for k, v in response.coefficients.items()
            )
            allowed = SURROGATE_ERROR_FACTOR * response.error_estimate
            out.notes.append(
                f"surrogate check {query.wind}: miss {miss:.3e}, "
                f"estimate {response.error_estimate:.3e}"
            )
            if not miss <= allowed + 1e-12:
                out.problems.append(
                    f"surrogate {query.wind}: miss {miss:.3e} > "
                    f"{SURROGATE_ERROR_FACTOR:g} x estimate "
                    f"{response.error_estimate:.3e}"
                )
        sources = {}
        for results in self.responses:
            for _q, response, _ms in results:
                src = getattr(response, "source", "error")
                sources[src] = sources.get(src, 0) + 1
        out.notes.append(f"query sources: {sources}")


def lift_curve_failures(report) -> dict:
    """Cases breaking the lift-curve property: at each Mach, ``cl``
    takes the sign of alpha (alpha != 0) and rises with alpha.
    Returns ``{case key: reason}``."""
    by_mach: dict = {}
    for outcome in report.outcomes:
        if outcome.result is None:
            continue
        wind = outcome.spec.wind_params
        by_mach.setdefault(wind["mach"], []).append(
            (wind["alpha"], outcome.result.coefficients["cl"],
             outcome.spec.key)
        )
    failures = {}
    for mach, points in by_mach.items():
        points.sort()
        for i, (alpha, cl, key) in enumerate(points):
            if alpha != 0.0 and np.sign(cl) != np.sign(alpha):
                failures[key] = (
                    f"lift curve M={mach} alpha={alpha}: cl={cl:.4f} has "
                    "the wrong sign"
                )
            elif i and cl <= points[i - 1][1]:
                failures[key] = (
                    f"lift curve M={mach} alpha={alpha}: cl={cl:.4f} does "
                    "not rise with alpha"
                )
    return failures


WORKLOADS = {w.name: w for w in (NSU3DSerial, Cart3DSim4, AeroDb)}
