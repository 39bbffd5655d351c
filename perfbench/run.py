"""catfrac benchmark: time the CLI from outside, one fresh interpreter per op.

Usage (from the repository root):

    python3 perfbench/run.py --workload series|verify|objects --seed N --seconds S --trace 0|1

Load is a closed loop with one client and one op in flight.  A pass runs the
workload's op list once; passes repeat while the next one would end less
than half a pass after ``--seconds``.  Set-up time is the median of several
no-work invocations (``python -m catfrac --help``).  Each op starts on the
CPU that is least slowed by co-tenants at that moment.  Outputs are checked
after the timed region.

With ``--trace 0`` the last stdout line reports the end-to-end metrics named
in BENCHMARK.json; with ``--trace 1`` each round is an untraced pass followed
by a pass whose ops run under ``trace_op.py``, and the line reports the
per-layer metrics.  The line before it is a full record (provenance, every
pass, sample counts) that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "trace_op.py"

SETUP_REPEATS = 15
OP_TIMEOUT_S = 60.0
# No op starts after this, so a run ends well inside three minutes even if ops hang.
RUN_DEADLINE_S = 150.0
TRACE_MARKER = "PERFBENCH-TRACE "  # written by trace_op.py
ALL_CPUS = os.sched_getaffinity(0)


@dataclass
class OpResult:
    returncode: int | None  # None: timed out or never started
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def _probe() -> float:
    """Seconds for a fixed ~10 ms of dict and tuple work, like catfrac's inner loops."""
    start = perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(30000):
        key = (i & 1023, i >> 10)
        table[key] = table.get(key, 0) + i
    return perf_counter() - start


def quietest_cpu() -> int:
    """The CPU on which the probe runs fastest right now.

    On a shared host, a co-tenant on a sibling hyperthread slows whatever
    runs on that CPU by up to ~1.8x, and which CPU is contended changes
    within seconds.  Starting each op on the quietest CPU keeps most of that
    out of the measurement; the op's own work is unchanged.
    """
    timings = []
    try:
        for cpu in ALL_CPUS:
            os.sched_setaffinity(0, {cpu})
            timings.append((min(_probe(), _probe()), cpu))
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
    return min(timings)[1]


def run_process(argv: list[str], env: dict, timeout: float) -> OpResult:
    """Run to completion on the quietest CPU, draining stdout and stderr
    concurrently; CPU time and max RSS from wait4."""
    cpu = quietest_cpu()
    start = perf_counter()
    os.sched_setaffinity(0, {cpu})  # inherited by the child only
    try:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, cwd=ROOT)
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
    chunks: dict[str, bytes] = {}

    def drain(name, stream):
        with stream:
            chunks[name] = stream.read()

    readers = [threading.Thread(target=drain, args=("out", proc.stdout)),
               threading.Thread(target=drain, args=("err", proc.stderr))]
    for reader in readers:
        reader.start()
    timed_out = True
    try:
        for reader in readers:
            reader.join(max(0.0, start + timeout - perf_counter()))
        timed_out = any(reader.is_alive() for reader in readers)
    finally:
        # also on an exception here, so no op outlives the benchmark
        if timed_out:
            proc.kill()
        for reader in readers:
            reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpResult(None if timed_out else proc.returncode, chunks.get("out", b""),
                    chunks.get("err", b""), wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024)


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    stdout_bytes: int = 0
    # per op: (wall s, cpu s, max RSS MB)
    usage: list[tuple[float, float, float]] = field(default_factory=list)
    # per op: (returncode, sha256 of stdout, last stderr line)
    outcomes: list[tuple[int | None, str, str]] = field(default_factory=list)
    trace: dict[str, dict[str, float]] = field(default_factory=dict)


class Bench:
    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.started = perf_counter()
        # first stdout seen per (op, digest), checked after the timed region
        self.pending: dict[tuple[int, str], bytes] = {}

    def op(self, argv: list[str]) -> OpResult:
        left = min(OP_TIMEOUT_S, self.started + RUN_DEADLINE_S - perf_counter())
        if left <= 0:
            return OpResult(None, b"", b"run deadline passed", 0.0, 0.0, 0.0)
        return run_process(argv, self.env, left)

    def setup_times(self) -> list[float]:
        argv = [sys.executable, "-m", "catfrac", "--help"]
        self.op(argv)  # fills __pycache__ once, like an installed package
        return [self.op(argv).wall_s for _ in range(SETUP_REPEATS)]

    def run_pass(self, traced: bool) -> Pass:
        prefix = [sys.executable, str(TRACER)] if traced else [sys.executable, "-m", "catfrac"]
        result = Pass(traced)
        start = perf_counter()
        for index, op in enumerate(self.ops):
            r = self.op(prefix + list(op.argv))
            digest = hashlib.sha256(r.stdout).hexdigest()
            if r.returncode == 0:
                self.pending.setdefault((index, digest), r.stdout)
            result.usage.append((r.wall_s, r.cpu_s, r.rss_mb))
            result.stdout_bytes += len(r.stdout)
            err_lines = r.stderr.decode(errors="replace").splitlines()
            if traced:
                _merge_trace(result.trace, err_lines)
                err_lines = [line for line in err_lines if not line.startswith(TRACE_MARKER)]
            result.outcomes.append((r.returncode, digest, err_lines[-1] if err_lines else ""))
        result.wall_s = perf_counter() - start
        return result

    def rounds(self, seconds: float, traced: bool) -> list[Pass]:
        """Rounds of one untraced pass (plus one traced pass) while the next would end
        less than half a round after ``seconds``; at least one round."""
        passes: list[Pass] = []
        start = perf_counter()
        rounds = 0
        while True:
            passes.append(self.run_pass(False))
            if traced:
                passes.append(self.run_pass(True))
            rounds += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / rounds / 2 > seconds:
                return passes

    def verdicts(self) -> dict[tuple[int, str], str | None]:
        return {key: _judge(self.ops[key[0]].check, out) for key, out in self.pending.items()}


def _judge(check: workloads.Check, stdout: bytes) -> str | None:
    try:
        return check(stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable output: {exc!r}"[:200]


def _merge_trace(total: dict, err_lines: list[str]) -> None:
    for line in err_lines:
        if line.startswith(TRACE_MARKER):
            for key, stats in json.loads(line[len(TRACE_MARKER):]).items():
                slot = total.setdefault(key, {})
                for name, value in stats.items():
                    slot[name] = slot.get(name, 0) + value


def end_to_end(passes: list[Pass], setup: list[float], attempted: int, failed: int) -> dict:
    """{metric: (value, samples)} for the median pass: each op at its median over passes.

    Per-op medians keep a burst of load from a co-tenant, which slows a few
    ops of one pass, out of the result.
    """
    per_op = list(zip(*(p.usage for p in passes)))

    def medians(i: int) -> list[float]:
        return [statistics.median(u[i] for u in op_usage) for op_usage in per_op]

    n = len(passes)
    return {
        "wall_s": (sum(medians(0)), n),
        "cpu_s": (sum(medians(1)), n),
        "peak_rss_mb": (max(medians(2)), n),
        "setup_s": (statistics.median(setup), len(setup)),
        "ok_frac": ((attempted - failed) / attempted, attempted),
    }


def per_layer(plain: list[Pass], traced: list[Pass], names: list[str]) -> dict:
    """{metric: (value, samples)}; each value is a median over traced passes of per-pass totals."""

    def value(p: Pass, name: str) -> float:
        if name == "trace.overhead_ratio":
            return p.wall_s / statistics.median(q.wall_s for q in plain)
        if name == "cli.stdout_bytes":
            return p.stdout_bytes
        if name == "verify.checked":
            return sum(s.get("checked", 0) for k, s in p.trace.items() if k.startswith("verify."))
        if name == "perms.root_to_leaf_subsets.hit_ratio":
            s = p.trace.get("perms.root_to_leaf_subsets", {})
            return s["hits"] / s["scanned"] if s.get("scanned") else 0.0
        key, _, counter = name.rpartition(".")
        return p.trace.get(key, {}).get(counter, 0)

    return {name: (statistics.median(value(p, name) for p in traced), len(traced)) for name in names}


def provenance(workload: str, seed: int) -> dict:
    info = {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": "unknown", "git_sha": "unknown", "git_dirty": None}
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in f
                                      if line.startswith("model name")), "unknown")
    except OSError:
        pass
    if (ROOT / ".git").exists():
        git = ["git", "--git-dir", str(ROOT / ".git"), "--work-tree", str(ROOT)]
        try:
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=10)
            info["git_sha"] = sha.stdout.strip() or "unknown"
            info["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "catfrac" / "__main__.py").is_file():
        print(f"error: no catfrac sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    bench = Bench(workloads.build(args.workload, args.seed))
    setup = [] if args.trace else bench.setup_times()
    passes = bench.rounds(args.seconds, bool(args.trace))
    verdicts = bench.verdicts()

    attempted = failed = wrong = 0
    failures: dict[str, int] = {}
    for p in passes:
        for index, (rc, digest, err) in enumerate(p.outcomes):
            attempted += 1
            if rc is None:
                reason = f"timeout: {err}"
            elif rc != 0:
                reason = f"exit {rc}: {err}"
            elif verdicts[(index, digest)] is not None:
                wrong += 1
                reason = f"wrong output: {verdicts[(index, digest)]}"
            else:
                continue
            failed += 1
            label = f"{bench.ops[index].name}: {reason}"
            failures[label] = failures.get(label, 0) + 1
    for label, count in sorted(failures.items()):
        print(f"failed x{count}  {label}", file=sys.stderr)

    plain = [p for p in passes if not p.traced]
    if args.trace:
        values = per_layer(plain, [p for p in passes if p.traced], list(units))
    else:
        values = end_to_end(plain, setup, attempted, failed)
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in units.items()}
    record = {
        **provenance(args.workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "metrics": {name: {**metrics[name], "samples": values[name][1]} for name in units},
        "ops": [op.name for op in bench.ops],
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "op_usage": p.usage} for p in passes],
        "setup_s": setup,
        "failures": failures,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
