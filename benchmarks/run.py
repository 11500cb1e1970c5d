"""crrkit benchmark: one workload, one seed, one result line.

Run from the root of a crrkit checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up builds the workload's fixtures from the seed in a child process,
``SETUP_REPEATS`` times, and requires byte-identical files each time;
``setup_s`` is the median wall time.

With ``--trace 0`` one closed-loop client runs the workload's crrkit command
as a child process (``python -m crrkit.cli ...``), one invocation at a time,
for ``--seconds`` seconds. Every invocation's output is checked. Right
before each invocation a fixed reference job is timed in this process; an
invocation's wall and CPU time are reported as multiples of that reference
time, the median over the run. The host's speed drifts by a third within
minutes, and dividing by the reference taken a moment earlier removes most
of that drift while leaving every change to crrkit's cost in the numerator.
Peak memory is the median over the invocations.

With ``--trace 1`` the fixtures are built in-process and the command runs
in-process through ``crrkit.cli.main`` three times: to warm up, untraced,
and with spans around crrkit's public functions (see tracing.py). The
result carries the per-layer metrics.

Before the result, one ``provenance`` line records the versions, ``nproc``,
the seed and the git commit. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

#: One BLAS/OpenMP thread per process, fixed before numpy is first imported.
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checker  # noqa: E402
import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".bench_work"
SETUP_REPEATS = 5
MIN_INVOCATIONS = 3
#: Every child is killed once the whole run reaches this many seconds.
HARD_LIMIT_S = 170.0


#: The reference work: an interpreter loop, an object-dtype key comparison and
#: an index gather, the three kinds of work crrkit's commands spend most time in.
REFERENCE_KEYS = np.array([f"s{i % 200:03d}" for i in range(50_000)], dtype=object)
REFERENCE_INDEX = np.random.default_rng(0).integers(0, len(REFERENCE_KEYS), len(REFERENCE_KEYS))
REFERENCE_REPEATS = 3


def reference_s() -> float:
    """Fastest of ``REFERENCE_REPEATS`` timings of the fixed reference work.

    It runs in this process between invocations, never beside one, and
    depends on no crrkit code, so it measures how fast the host is right now.
    """
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        for key in ("s000", "s050", "s100", "s150", "s199", "s007", "s123", "s042"):
            np.count_nonzero(REFERENCE_KEYS == key)
        for _ in range(2):
            REFERENCE_KEYS[REFERENCE_INDEX]
        times.append(time.perf_counter() - start)
    return min(times)


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _provenance(root: Path, args, invocations: int) -> dict:
    import crrkit
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "invocations": invocations,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "crrkit": crrkit.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
    }


def _deadline_left(started: float) -> float:
    return max(1.0, HARD_LIMIT_S - (time.perf_counter() - started))


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def run_child(cmd: list[str], env: dict, started: float, stdout=None, stderr=None):
    """Run ``cmd`` to completion; return (wall seconds, exit code, rusage).

    ``os.wait4`` blocks until the child exits, so the wall time is not rounded
    to a polling interval, and it returns the rusage of this child alone. The
    child leads its own process group, so that at the run's time limit the
    whole group, the child's own children included, is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, start_new_session=True)
    timer = threading.Timer(_deadline_left(started), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def timed_setup(name: str, seed: int, work: Path, env: dict, started: float) -> tuple[float, bool]:
    """Median set-up wall time and whether every repeat wrote identical files."""
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", name,
           "--seed", str(seed), "--out", str(work)]
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        wall, code, _ = run_child(cmd, env, started)
        if code != 0:
            raise RuntimeError(f"fixture build exited with code {code}")
        times.append(wall)
        digests.add(_digest(work))
    return statistics.median(times), len(digests) == 1


def invoke(argv: list[str], env: dict, work: Path, truth: dict, started: float) -> Invocation:
    """Run one crrkit command through ``spawn.py`` and check its output."""
    out_path = work / "stdout.txt"
    usage_path = work / "usage.json"
    cmd = [sys.executable, "-S", str(BENCH_DIR / "spawn.py"), str(out_path), str(work / "stderr.txt"),
           sys.executable, "-m", "crrkit.cli", *argv]
    with open(usage_path, "wb") as usage_file:
        wall, code, _ = run_child(cmd, env, started, usage_file)
    if code != 0:
        # killed at HARD_LIMIT_S, or spawn.py itself failed
        return Invocation(wall, wall, 0.0, [f"spawn.py exited with code {code}"])
    usage = json.loads(usage_path.read_text(encoding="utf-8"))
    problems = checker.check(truth, usage["exit_code"], out_path.read_text(encoding="utf-8"))
    return Invocation(usage["wall_s"], usage["cpu_s"], usage["peak_rss_mb"], problems)


def timed_run(args, root: Path, work: Path, started: float) -> tuple[dict, dict]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    setup_s, deterministic = timed_setup(args.workload, args.seed, work, env, started)
    truth = json.loads((work / "truth.json").read_text(encoding="utf-8"))
    argv = workloads.argv(args.workload, work, truth)

    runs: list[Invocation] = []
    references: list[float] = []
    loop_start = time.perf_counter()
    while len(runs) < MIN_INVOCATIONS or (
        time.perf_counter() - loop_start + runs[-1].wall_s <= args.seconds
        and time.perf_counter() - started + runs[-1].wall_s <= HARD_LIMIT_S
    ):
        references.append(reference_s())
        runs.append(invoke(argv, env, work, truth, started))
    failed = [r for r in runs if r.problems]
    for r in failed[:3]:
        print("check failed: " + "; ".join(r.problems[:3]), file=sys.stderr)
    if not deterministic:
        print("set-up wrote different files for the same seed", file=sys.stderr)
    metrics = {
        "command_per_ref": (statistics.median(r.wall_s / ref for r, ref in zip(runs, references)), "ratio"),
        "cpu_per_ref": (statistics.median(r.cpu_s / ref for r, ref in zip(runs, references)), "ratio"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MiB"),
        "setup_s": (setup_s, "s"),
        "ok_share": ((len(runs) - len(failed)) / len(runs), "ratio"),
    }
    result = {
        "correct": deterministic and not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, {
        "command_median_s": statistics.median(r.wall_s for r in runs),
        "reference_median_s": statistics.median(references),
        "command_s_samples": [r.wall_s for r in runs],
        "cpu_s_samples": [r.cpu_s for r in runs],
        "reference_s_samples": references,
    }


def _call_main(argv: list[str]) -> tuple[float, int, str]:
    from crrkit.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    return wall, code, out.getvalue()


def traced_run(args, root: Path, work: Path) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        truth = workloads.build(args.workload, args.seed, work)
    finally:
        tracer.uninstall()
    argv = workloads.argv(args.workload, work, truth)
    problems = []
    for _ in range(2):  # a warm-up call, then the untraced call the overhead is measured against
        untraced_s, code, stdout = _call_main(argv)
        problems.append(checker.check(truth, code, stdout))

    tracer.install(tracing.TARGETS)
    try:
        with tracer.span("cli.main") as root_span:
            _, code, stdout = _call_main(argv)
    finally:
        tracer.uninstall()
    problems.append(checker.check(truth, code, stdout))
    overhead = tracer.spans[root_span].duration - untraced_s
    metrics = tracing.per_layer_metrics(tracer, root_span, overhead)

    traces = root / WORK_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_file = traces / f"{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(tracer.to_dict()), encoding="utf-8")
    for p in problems:
        if p:
            print("check failed: " + "; ".join(p[:3]), file=sys.stderr)
    failed = sum(bool(p) for p in problems)
    result = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": tracing.PER_LAYER[k]} for k, v in metrics.items()},
    }
    return result, {"trace_file": str(trace_file.relative_to(root))}


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "crrkit" / "__init__.py").is_file():
        print(f"error: {src / 'crrkit'} not found; run from the root of a crrkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import crrkit

    if Path(crrkit.__file__).resolve().parent != (src / "crrkit").resolve():
        print(f"error: imported crrkit from {crrkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    work = root / WORK_DIR / f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            result, details = traced_run(args, root, work)
        else:
            result, details = timed_run(args, root, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"provenance": {**_provenance(root, args, result["attempted"]), **details}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
