"""perfbench — one command for the reproduction's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root.  With ``--trace 0`` the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and every end-to-end metric; with ``--trace 1`` it carries
every per-layer metric instead (see ``traced.py``).  Lines before it,
prefixed ``#``, are the run header (git sha, cores, the one CPU the run
is pinned to, numpy, BLAS threads, seed), the host probe before and
after the workload, check failures and notes.

The program is imported from ``src/`` next to this directory; nothing
is installed.  Scratch files (the durable database of ``aero_db``) live
in a ``.perfbench-*`` directory at the root that is removed at exit.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread unless the caller pinned something else; must precede
# the numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def main(argv=None) -> int:
    import argparse
    import json
    import shutil
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    import hostprobe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    # the whole run on one CPU: on the 2-vCPU sandbox a run spread over
    # both vCPUs drew 9-20% host steal and ran up to 40% slower, one held
    # on one vCPU drew 2-3% (see README, "One CPU")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        print("# header " + json.dumps(
            hostprobe.header(ROOT, args.workload, args.seed)
        ))
        print("# probe before " + json.dumps(hostprobe.probe()))
        ticks = hostprobe.cpu_ticks()
        cls = WORKLOADS[args.workload]
        if args.trace:
            from traced import traced_run

            out, metrics, lines = traced_run(
                cls, args.seed, workdir, args.seconds
            )
            for line in lines:
                print("# " + line)
        else:
            out = cls(args.seed, workdir).run(args.seconds)
            metrics = out.end_to_end()
        print(f"# host steal share during the run: "
              f"{hostprobe.steal_share(ticks, hostprobe.cpu_ticks()):.4f}")
        print("# probe after " + json.dumps(hostprobe.probe()))
        for note in out.notes:
            print("# note: " + note)
        for problem in out.problems:
            print("# CHECK FAILED: " + problem)
        for reason in sorted(set(out.ops.reasons)):
            print("# failed operation: " + reason)
        print(json.dumps({
            "correct": not out.problems,
            "attempted": out.ops.attempted,
            "failed": out.ops.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
