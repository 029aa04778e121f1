"""Benchmark of the homcollapse CLI over fixed, seeded instance ladders.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics.  It is a closed loop with one
client: each instance of the workload's ladder runs as a fresh
`python -m homcollapse.cli` child, and the next child starts only after
the previous one has exited.  One pass runs the whole ladder; passes repeat
while a pass of the median length so far still ends within S seconds, and
each metric is the median over passes.
Pass k runs on labelling k (see ladders.py): pass 0 on the identity ids,
whose --out digests are pinned, and the later passes on vertex ids permuted
by the seed.  The cost of some instances depends on the labelling (the
GF(2) pivot order follows the ids), so a run's median spans several.

--trace 1 measures the per-layer metrics.  It runs one untraced pass, then
calls homcollapse.cli.main in this process with span wrappers installed
(see tracer.py), pass after pass in the same way.

Every run is checked against the oracle in ladders.py.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Exit status: 0 when every run was correct, 1 when any run failed
or hit the per-instance cap, 2 when the program under test is missing or
the arguments are bad (no JSON line then).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import ladders
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CAP_S = 25.0  # per-instance wall-clock cap; the slowest instance takes about 6 s
SETUP_REPEATS = 5


class CapExceeded(Exception):
    pass


@dataclass
class ChildRun:
    code: int | None  # None: killed at the cap
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    runs: int = 0
    instance_walls: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)  # per-layer metrics of a traced pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], workdir: Path, env: dict) -> ChildRun:
    """Run the CLI once; wall, CPU and peak RSS come from this child alone."""
    with open(workdir / "stdout", "w+") as out, open(workdir / "stderr", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "homcollapse.cli", *args],
            cwd=workdir, env=env, stdout=out, stderr=err,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = bool(select.select([pidfd], [], [], CAP_S)[0])
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(
            proc.returncode if exited else None, out.read(), err.read(), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
        )


def labelled(seed: int, k: int, workdir: Path):
    perms = ladders.permutations(seed, k)
    return perms, ladders.write_graphs(workdir, perms)


def setup(seed: int, workdir: Path, env: dict) -> float:
    """Write the graph files and start the CLI once, cold."""
    t0 = time.perf_counter()
    _, files = labelled(seed, 0, workdir)
    run = run_child(["fold", "-G", str(files[ladders.SETUP_GRAPH])], workdir, env)
    elapsed = time.perf_counter() - t0
    if run.code != 0 or run.stdout.strip() != ladders.SETUP_EXPECT:
        sys.exit(f"set-up failed: fold exited {run.code}: {run.stdout.strip()} {run.stderr.strip()[-500:]}")
    return elapsed


def untraced_pass(ladder, seed, k, workdir, env, failures) -> Pass:
    p = Pass()
    perms, files = labelled(seed, k, workdir)
    out = workdir / "out.json"
    for inst in ladder:
        run = run_child(ladders.argv(inst, files, perms, out), workdir, env)
        p.wall += run.wall
        p.cpu += run.cpu
        p.rss_mb = max(p.rss_mb, run.rss_mb)
        p.runs += 1
        p.instance_walls[inst.name] = run.wall
        if run.code is None:
            problem = f"{inst.name}: killed at the {CAP_S:g} s cap"
        else:
            problem = ladders.check(inst, k == 0, run.code, run.stdout, out)
        if problem:
            failures.append(f"{problem} | stderr: {run.stderr.strip()[-300:]}")
        out.unlink(missing_ok=True)
    return p


def repeat(deadline: float, failures: list, one_pass) -> list[Pass]:
    """Run passes k = 0, 1, ... while a pass of the median length so far
    still ends by the deadline, so a run lasts about --seconds whatever a
    pass costs.  Stops after a pass with a failure."""
    passes, lengths = [], []
    while not failures and (not lengths or time.perf_counter() + statistics.median(lengths) <= deadline):
        t0 = time.perf_counter()
        passes.append(one_pass(len(passes)))
        lengths.append(time.perf_counter() - t0)
    return passes


def _on_alarm(signum, frame):
    raise CapExceeded


def traced_pass(ladder, seed, k, workdir, tracer, cli, failures) -> Pass:
    tracer.reset()
    p = Pass()
    perms, files = labelled(seed, k, workdir)
    out = workdir / "out.json"
    for inst in ladder:
        stdout, stderr = io.StringIO(), io.StringIO()
        problem = None
        signal.setitimer(signal.ITIMER_REAL, CAP_S)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(ladders.argv(inst, files, perms, out))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except CapExceeded:
            problem = f"{inst.name}: hit the {CAP_S:g} s cap"
        except Exception as exc:  # a crash is a failed run, like a child's traceback
            problem = f"{inst.name}: raised {exc!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        p.wall += time.perf_counter() - t0
        p.runs += 1
        ambient = tracer.take_ambient()
        if inst.command == "collapse":  # cmd_collapse never reads plan.ambient
            tracer.counts["folds.ambient_unread_simplices"] += ambient
        if problem is None:
            problem = ladders.check(inst, k == 0, code, stdout.getvalue(), out)
        if problem:
            failures.append(f"{problem} | stderr: {stderr.getvalue().strip()[-300:]}")
        out.unlink(missing_ok=True)
    p.layers = tracer.metrics(p.wall)
    return p


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def tail(values: list[float]):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100 * k // n, sorted(values)[k - 1]


def report_end_to_end(workload, seed, passes, setups, failures, attempted) -> dict:
    med = statistics.median
    metrics = {
        "wall_s": (med([p.wall for p in passes]), "s"),
        "cpu_s": (med([p.cpu for p in passes]), "s"),
        # Peak RSS follows the labelling (about 100-127 MB for P4->K4 verify)
        # but repeats within a few percent on one input, so it is read from
        # pass 0, which always runs on the identity labelling.
        "peak_rss_mb": (passes[0].rss_mb, "MB"),
        "setup_s": (med(setups), "s"),
    }
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  instance runs {attempted}")
    walls = [p.wall for p in passes]
    t = tail(walls)
    tail_text = f"p{t[0]} {t[1]:.4f} s" if t else "none (needs at least 11 passes)"
    print(f"  wall_s       {metrics['wall_s'][0]:10.4f} s   median of {len(walls)} passes; "
          f"min {min(walls):.4f}, max {max(walls):.4f}; highest percentile with 10 beyond: {tail_text}")
    print(f"  cpu_s        {metrics['cpu_s'][0]:10.4f} s   children's user+system, median of {len(passes)}")
    rss = [p.rss_mb for p in passes]
    print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:10.1f} MB  largest child of pass 0 (identity labelling); "
          f"all passes {min(rss):.1f}-{max(rss):.1f}")
    print(f"  setup_s      {metrics['setup_s'][0]:10.4f} s   median of {len(setups)} set-ups")
    print(f"  fail_frac    {len(failures) / attempted:10.4f} ratio ({len(failures)} of {attempted} instance runs)")
    for name in passes[0].instance_walls:
        print(f"    {name:28s} {med([p.instance_walls[name] for p in passes]):8.4f} s median")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def report_layers(workload, seed, passes, untraced_wall, tracer) -> dict:
    """Medians over traced passes; the overhead compares the traced and the
    untraced pass on the same (identity) labelling."""
    med = statistics.median
    layer_runs = [p.layers for p in passes]
    names = list(layer_runs[0])
    values = {n: med([r[n] for r in layer_runs]) for n in names}
    values["trace.overhead_s"] = layer_runs[0]["trace.total_s"] - untraced_wall
    total = values["trace.total_s"]
    print(f"workload {workload}  seed {seed}  traced passes {len(layer_runs)}  "
          f"labelling 0: untraced {untraced_wall:.4f} s, traced {layer_runs[0]['trace.total_s']:.4f} s, "
          f"overhead {values['trace.overhead_s']:+.4f} s")
    print("  self time by layer:")
    for layer in sorted((n for n in names if n.endswith(".self_s")), key=lambda n: -values[n]):
        print(f"    {layer[:-7]:9s} {values[layer]:9.4f} s  {100 * values[layer] / total:5.1f}%")
    for n in names:
        if not n.endswith(".self_s"):
            digits = 4 if unit_of(n) == "s" else 0
            print(f"  {n:32s} {values[n]:14.{digits}f} {unit_of(n)}")
    absent = tracer.absent()
    if absent:
        print(f"  absent (reported as 0): {', '.join(absent)}")
    return {n: {"value": v, "unit": unit_of(n)} for n, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ladders.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "homcollapse" / "cli.py").is_file():
        print(f"error: the program is missing: no {SRC / 'homcollapse' / 'cli.py'}", file=sys.stderr)
        return 2

    ladder = ladders.WORKLOADS[args.workload]
    env = child_env()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    failures: list[str] = []
    try:
        setups = [setup(args.seed, workdir, env) for _ in range(1 if args.trace else SETUP_REPEATS)]
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            untraced = untraced_pass(ladder, args.seed, 0, workdir, env, failures)
            sys.path.insert(0, str(SRC))
            from homcollapse import cli

            tr = tracing.Tracer()
            tr.install()
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            try:
                passes = repeat(deadline, failures, lambda k: traced_pass(
                    ladder, args.seed, k, workdir, tr, cli, failures))
            finally:
                signal.signal(signal.SIGALRM, previous)
                tr.uninstall()
            attempted = untraced.runs + sum(p.runs for p in passes)
            metrics = report_layers(args.workload, args.seed, passes, untraced.wall, tr) if passes else {}
        else:
            passes = repeat(deadline, failures, lambda k: untraced_pass(
                ladder, args.seed, k, workdir, env, failures))
            attempted = sum(p.runs for p in passes)
            metrics = report_end_to_end(args.workload, args.seed, passes, setups, failures, attempted)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in failures:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
