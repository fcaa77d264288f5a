"""Benchmark runner for the cuspidal CLI (standard library only).

Usage, from the repository root:

    python3 bench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Every sample is one ``cuspidal.cli.run([...])`` call in a fresh child
interpreter (``bench/child.py``), started one at a time, with a pinned
environment.  Every output is checked; a failed check is never retried.

``--trace 0`` reports the end-to-end metrics: the median wall time of the
workload command, the median set-up time (import ``cuspidal.cli`` and
build the parser), the median peak RSS and the share of runs that passed.
``--trace 1`` runs untraced/traced pairs and reports the per-layer metrics
of ``bench/spans.py``, plus the tracing overhead.

Every reported time is in seconds at a reference host speed.  The runner
and its children share one CPU, and after every child the runner times a
few quanta of fixed pure-Python work (``Reference.quantum``).  Each child's
times are multiplied by ``REF_QUANTUM_S`` over the mean quantum timed just
before and just after it.  A shared host whose speed drifts slows the
reference work and the program alike, and the product stays put.  The raw
times and the factors are in the record line.

The line before the last holds the full record (environment, samples,
failures); the last stdout line is the result object.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import per_layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
SETUP_PROBES = 21  # set-up-only children per untraced run, besides the samples
PROBES_BETWEEN = 1  # set-up probes after each sample, so they span the run
QUANTA_PER_CHILD = 5  # reference quanta timed after every child
REF_QUANTUM_S = 0.016  # one quantum on the reference host in its fast state
BUDGET_S = 170.0  # one invocation must end within 180 s
# Children look for bytecode only here, a directory nothing creates, so a
# __pycache__ left beside the sources (by a test run, say) is never read
# and set-up time always includes compiling the package.
PYCACHE_PREFIX = ROOT / ".bench_build" / "no-pycache"

CHILD_ENV_PINNED = {
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONPYCACHEPREFIX": str(PYCACHE_PREFIX),
}


def child_env() -> dict:
    """The caller's environment without PYTHON* or CUSPIDAL_* variables
    (CUSPIDAL_THREADS included), plus the pinned values."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "CUSPIDAL_"))}
    env.update(CHILD_ENV_PINNED)
    return env


def git_sha() -> str | None:
    """HEAD's sha read from ``.git`` files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "bytecode": "cached" if any(PYCACHE_PREFIX.rglob("*.pyc")) else "source",
        "child_env": CHILD_ENV_PINNED,
        "seed": seed,
    }


class Reference:
    """A fixed piece of pure-Python work that does not depend on the program,
    timed between children as a measure of the host's current speed.

    One quantum looks up tuples in random order in a table of 120,000
    entries built once, and does a little integer arithmetic with each.
    The kind of work was chosen by timing candidates beside the workloads
    on the reference host: a large working set like this one slowed down
    with the host as the workloads and set-up did, while small-working-set
    loops slowed down less.
    """

    TABLE = 120000
    LOOKUPS = 25000

    def __init__(self):
        self.table = {i: (i % 300, i // 300, i * 7 % 1009) for i in range(self.TABLE)}
        self.order = list(range(self.TABLE))
        random.Random(0).shuffle(self.order)
        self.pos = 0

    def quantum(self) -> float:
        t0 = perf_counter()
        acc = 0
        for k in self.order[self.pos:self.pos + self.LOOKUPS]:
            a, b, c = self.table[k]
            acc += (a * a * 7 + 3 * a * b + c) % 1009
        self.pos = (self.pos + self.LOOKUPS) % (self.TABLE - self.LOOKUPS)
        return perf_counter() - t0


def speed_factor(quanta) -> float:
    """Reference time over the mean measured time of one quantum.  The mean,
    not the median: a host that flips between two speeds makes the quanta
    bimodal, and the program's times integrate over both speeds."""
    return REF_QUANTUM_S / statistics.fmean(quanta)


def at_ref(record: dict, key: str) -> float:
    """A child's time ``key`` in seconds at the reference speed."""
    return record[key] * record["speed_factor"]


def run_child(argv, trace: bool, deadline: float):
    """Run one child; return (record, None) or (None, reason)."""
    spec = json.dumps({"argv": argv, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), spec], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()
        return None, f"child exited {proc.returncode}: {err[-1] if err else ''}"
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        return None, "child printed no record"


def run_sample(workload, trace: bool, deadline: float):
    record, reason = run_child(list(workload.argv), trace, deadline)
    if reason is None:
        reason = workload.check(record["exit"], record["output"])
        del record["output"]
    return record, reason


def tail_percentile(values):
    """The highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"p": 100 * (n - 10) / n, "value": sorted(values)[n - 11]}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("yield", "_frac")):
        return "ratio"
    return "count"


class Run:
    """One invocation's samples, failures and time budget."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.workload = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.deadline = perf_counter() + BUDGET_S
        self.attempted = 0
        self.runs = 0  # workload children, set-up probes left out
        self.failures = []
        self.order = []
        self.reference = Reference()
        self.quanta = self.time_quanta()  # those timed since the last child

    def time_quanta(self) -> list:
        return [self.reference.quantum() for _ in range(QUANTA_PER_CHILD)]

    def child(self, kind: str, trace: bool = False):
        self.attempted += 1
        self.order.append(kind)
        if kind == "setup":
            record, reason = run_child(None, False, self.deadline)
        else:
            self.runs += 1
            record, reason = run_sample(self.workload, trace, self.deadline)
        before, self.quanta = self.quanta, self.time_quanta()
        if reason is not None:
            self.failures.append(f"{kind}: {reason}")
            return None
        record["speed_factor"] = speed_factor(before + self.quanta)
        return record

    def more(self, began: float, last_s: float) -> bool:
        """Whether the measuring time is not used up and another sample,
        expected to last ``last_s``, ends well inside the budget."""
        now = perf_counter()
        return now - began < self.seconds and now + 2 * last_s < self.deadline - 10

    def probes(self, n: int) -> list:
        return list(filter(None, (self.child("setup") for _ in range(n))))

    def untraced(self):
        probes = self.probes(self.rng.randint(0, PROBES_BETWEEN * 2))
        samples = []
        began = perf_counter()
        while True:
            t0 = perf_counter()
            record = self.child("sample")
            if record is not None:
                samples.append(record)
            last_s = perf_counter() - t0
            probes += self.probes(PROBES_BETWEEN)
            if not self.more(began, last_s):
                break
        probes += self.probes(max(0, SETUP_PROBES - self.order.count("setup")))
        if not samples:
            return None, {"samples": samples}
        setups = [at_ref(s, "setup_s") for s in probes + samples]
        walls = [at_ref(s, "wall_s") for s in samples]
        failed_frac = (self.runs - len(samples)) / self.runs
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "ok_frac": 1 - failed_frac,
        }
        detail = {
            "samples": samples,
            "wall_s_samples": len(walls),
            "wall_s_tail": tail_percentile(walls),
            "setup_s_samples": len(setups),
            "setup_s_tail": tail_percentile(setups),
            "failed_frac": failed_frac,
            "raw_wall_s": statistics.median(s["wall_s"] for s in samples),
            "probes": probes,
        }
        return metrics, detail

    def traced(self):
        pairs = []
        began = perf_counter()
        while True:
            t0 = perf_counter()
            modes = [False, True]
            self.rng.shuffle(modes)
            got = {mode: self.child("traced" if mode else "sample", mode) for mode in modes}
            if None not in got.values():
                pairs.append(got)
            if not self.more(began, perf_counter() - t0):
                break
        if not pairs:
            return None, {"pairs": pairs}
        # median_low keeps counts whole: they repeat exactly across pairs.
        layers = [{name: value * p[True]["speed_factor"] if unit_of(name) == "s" else value
                   for name, value in p[True]["layers"].items()} for p in pairs]
        metrics = {name: statistics.median_low(lay[name] for lay in layers)
                   for name in per_layer_names() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median_low(
            at_ref(p[True], "wall_s") - at_ref(p[False], "wall_s") for p in pairs)
        detail = {"pairs": len(pairs),
                  "wall_s": [[p[False]["wall_s"], p[True]["wall_s"]] for p in pairs],
                  "speed_factor": [[p[False]["speed_factor"], p[True]["speed_factor"]]
                                   for p in pairs]}
        return metrics, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="orders set-up probes and traced/untraced runs; inputs are fixed")
    p.add_argument("--seconds", type=float, required=True,
                   help="time spent taking samples (at least one sample is taken)")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cuspidal" / "cli.py").is_file():
        print(f"error: no cuspidal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for the runner and every child, so the reference quanta are
    # timed on the CPU the program ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds)
    metrics, detail = run.traced() if args.trace else run.untraced()
    for failure in run.failures:
        print(f"failed {failure}", file=sys.stderr)
    if metrics is None:
        print("error: no sample succeeded", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "argv": list(run.workload.argv),
        "trace": bool(args.trace),
        "environment": environment(args.seed),
        "order": run.order,
        "failures": run.failures,
        **detail,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
