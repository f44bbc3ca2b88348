"""Benchmark entry point.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0

Runs one workload (``batch``, ``interactive``, ``ingest`` or
``filtered``, see BENCHMARK.json) in a fresh child process with its own
Ray session sized to ``nproc`` CPUs, and prints the
child's result-digest lines and, last, one JSON result line.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
the engine is traced layer by layer and the metrics are the per-layer
ones.

Inputs are generated from ``--seed`` into a private directory under
``.pbr/`` in the repository, and Ray keeps its session files there too;
both are removed when the run ends.  The child runs in its
own process group, which is killed if it outlives ``HARD_TIMEOUT_S``.
Exits non-zero, printing no result, when the engine package is missing
or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "bm25_benchmarks_ray"
WORKLOADS = ("batch", "interactive", "ingest", "filtered")
HARD_TIMEOUT_S = 170.0
RUNS_DIR = ".pbr"  # per-run inputs, indexes and Ray session files
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets
# 62 characters below its temp dir
MAX_RAY_DIR = 45


def fail(msg: str, code: int = 1) -> int:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    return code


def kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def cpu_count() -> int:
    """CPUs for Ray: what ``nproc`` reports (it honours
    ``OMP_NUM_THREADS`` as well as the affinity mask)."""
    nproc = shutil.which("nproc")
    if nproc:
        out = subprocess.run([nproc], capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip().isdigit():
            return max(1, int(out.stdout.strip()))
    return len(os.sched_getaffinity(0))


def declared_metrics(trace: int) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup below


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds <= 0:
        return fail("--seconds must be positive", 2)
    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        return fail(f"engine package {PACKAGE}/ not found under {ROOT}", 2)

    runs = os.path.join(ROOT, RUNS_DIR)
    run_dir = os.path.join(runs, f"{a.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    # Ray makes one session directory per session under its temp dir
    ray_dir = runs
    if len(ray_dir) > MAX_RAY_DIR:
        print(f"perfbench: {ray_dir} is too long for Ray's sockets; "
              "Ray keeps its session files in its default temp dir",
              file=sys.stderr)
        ray_dir = None
    before = set(os.listdir(runs))

    env = dict(os.environ)
    # Ray workers import the engine from the repository root whatever
    # directory they start in
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, env.get("PYTHONPATH")) if p)
    env.setdefault("RAY_DEDUP_LOGS", "0")
    cmd = [sys.executable, "-m", "perfbench.workload",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--run-dir", run_dir, "--cpus", str(cpu_count())]
    if ray_dir:
        cmd += ["--ray-dir", ray_dir]
    log_path = run_dir + ".log"
    proc = None
    try:
        with open(log_path, "w") as log:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                    stderr=log, text=True, start_new_session=True)
            try:
                out, _ = proc.communicate(timeout=HARD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                kill_group(proc.pid)
                proc.wait()
                return fail(f"run exceeded {HARD_TIMEOUT_S:.0f}s; killed")
    finally:
        if proc is not None:
            kill_group(proc.pid)  # anything the session left behind
        with open(log_path) as f:
            log_tail = f.read()[-4000:]
        os.remove(log_path)
        shutil.rmtree(run_dir, ignore_errors=True)
        for name in set(os.listdir(runs)) - before:  # this run's Ray session
            path = os.path.join(runs, name)
            if os.path.islink(path):
                os.remove(path)
            else:
                shutil.rmtree(path, ignore_errors=True)
        if not os.listdir(runs):
            os.rmdir(runs)

    lines = [ln for ln in out.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(log_tail)
        return fail(f"workload process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    want = declared_metrics(a.trace)
    if sorted(result.get("metrics", {})) != sorted(want):
        return fail("result metrics do not match BENCHMARK.json")
    for ln in lines[:-1]:
        print(ln)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
