"""clusterlab benchmark: time to a harness verdict, end to end and per layer.

    python3 bench/run.py --workload {gentle,tiling,cluster} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src` directory.  One process, one closed-loop client, no threads: each
round runs the workload's operations in order (see workloads.py), and rounds
repeat until `--seconds` have passed, so every run attempts whole rounds.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics:

* run_s: median over rounds of the round's summed operation times; an
  operation is timed from the CLI call to its parsed verdict;
* setup_s: median over SETUP_PROBES fresh interpreters, spread over the run,
  of the time from start to ready (imports of clusterlab, clusterlab.cli,
  clusterlab.verify and the building of the inputs);
* peak_rss_mib: ru_maxrss of this process.

Both times are paced: each round and each set-up sample is scaled by the
host's pace around it (see PACE_S), so that they read as on a host of fixed
speed.

With `--trace 1` the first half of the run is untraced and the second half
traced (see spans.py); the JSON object carries the per-layer metrics, each
the median over traced rounds (raw, not paced), and trace.overhead_s, the
traced rounds' median paced time minus the untraced rounds'.

Every operation's outputs are checked by closed-form oracles; a harness
report that is not `pass`, an oracle mismatch, an exception, or a result
digest that differs from the first round's counts as a failed operation and
makes the run exit 1.  The result digest (sha256 of the verdicts, counts and
witnesses of the round's harness reports, without durations) is printed to
standard error; it does not depend on the seed or on tracing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import spans
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
# Host pace: the seconds one call of reference_kernel takes, timed over
# PACE_WINDOW s right before and right after every timed sample.  Each
# sample is scaled by PACE_S over the mean of those two, so times read as on
# a host where the kernel takes PACE_S (about the box of the figures in
# README.md).  That box runs the same code up to 1.7 times slower for
# seconds to minutes at a time; the scaling halves the run-to-run variation
# this causes, and the kernel does not touch the program, so a change to
# the program moves the scaled times by the same share as the raw ones.
PACE_S = 0.002
PACE_WINDOW = 0.2


def load_program():
    """Import clusterlab from the checkout's src; exit with status 1 without it."""
    if not (SRC / "clusterlab" / "__init__.py").is_file():
        sys.exit(f"bench: no clusterlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import clusterlab
    import clusterlab.cli
    import clusterlab.verify
    if pathlib.Path(clusterlab.__file__).resolve().parent != SRC / "clusterlab":
        sys.exit(f"bench: imported clusterlab from {clusterlab.__file__}, "
                 f"not from {SRC}")


def report_digest(report):
    """sha256 of a harness report's verdict, counts and witnesses."""
    core = {k: report[k] for k in ("verdict", "counts", "witnesses")}
    return hashlib.sha256(
        json.dumps(core, sort_keys=True).encode()).hexdigest()


def reference_kernel():
    """Fixed standard-library work of the kinds the program does: dict and
    tuple churn, exact rational arithmetic, sorting and hashing."""
    counts = {}
    for i in range(4000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 7, i) * Fraction(3, i + 1)
    return len(counts), tuple(sorted({(i, str(total)[:5])
                                      for i in range(100)}))


def host_pace():
    """Seconds per reference_kernel call, timed over PACE_WINDOW s."""
    calls = 0
    start = time.perf_counter()
    while True:
        reference_kernel()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= PACE_WINDOW:
            return elapsed / calls


def paced(sample):
    """Call `sample`, which returns (seconds, result), between two pace
    readings; returns (seconds scaled to PACE_S, result)."""
    before = host_pace()
    seconds, result = sample()
    after = host_pace()
    return seconds * PACE_S / ((before + after) / 2), result


def invoke(argv):
    """Run `clusterlab <argv>` in this process; returns its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        importlib.import_module("clusterlab.cli").main.main(
            argv, prog_name="clusterlab", standalone_mode=False)
    return out.getvalue()


class Runner:
    def __init__(self, ops):
        self.ops = ops
        self.tracking = importlib.import_module("clusterlab.tracking")
        self.explore = importlib.import_module("clusterlab.explore")
        self.tracer = None
        self.invoke = invoke
        self.digests = {}  # operation name -> digest of its first result
        self.attempted = 0
        self.failed = 0

    def trace(self):
        """Trace every later round (see spans.py)."""
        self.tracer = spans.Tracer()
        self.tracer.install()
        self.invoke = self.tracer.wrap(invoke, spans.CLI_SPAN)

    def walk(self, series, rank, dirs):
        """Mutate along dirs, checking at every step that mutating twice in
        the same direction restores the cluster and the exchange matrix."""
        t = self.tracking.TrackedSeed.initial(
            self.explore.standard_matrix(series, rank))
        problems = []
        for step, k in enumerate(dirs):
            nxt = self.tracking.mutate_tracked(t, k)
            back = self.tracking.mutate_tracked(nxt, k)
            if back.seed.cluster != t.seed.cluster or \
                    back.seed.matrix != t.seed.matrix:
                problems.append(f"mutation {k} at step {step} is not an "
                                f"involution")
            t = nxt
        return problems

    def run_op(self, op):
        """(seconds, problems, digest) of one operation."""
        start = time.perf_counter()
        if op.walk:
            problems = self.walk(*op.walk)
            return time.perf_counter() - start, problems, None
        report = json.loads(self.invoke(op.argv))
        elapsed = time.perf_counter() - start
        return elapsed, op.check(report), report_digest(report)

    def round(self):
        """Run every operation once: (summed operation time, round digest)."""
        total = 0.0
        round_hash = hashlib.sha256()
        for op in self.ops:
            self.attempted += 1
            try:
                elapsed, problems, digest = self.run_op(op)
            except (Exception, SystemExit):
                elapsed, problems, digest = 0.0, [traceback.format_exc()], None
            total += elapsed
            if digest is not None:
                first = self.digests.setdefault(op.name, digest)
                if digest != first:
                    problems.append(f"result digest {digest} differs from "
                                    f"the first round's {first}")
                round_hash.update(digest.encode())
            if problems:
                self.failed += 1
                print(f"bench: {op.name} failed: " + "; ".join(problems),
                      file=sys.stderr)
        return total, round_hash.hexdigest()

    def rounds(self, until, between=None):
        """Whole rounds until the clock passes `until`, at least one:
        (paced round times, round digests, per-layer metrics of each round).
        `between` is called before each round, outside its timing; the
        garbage left by the previous round is collected there too, so that
        no round pays for another's."""
        times, digests, layers = [], set(), []
        while True:
            if between:
                between()
            gc.collect()
            if self.tracer:
                self.tracer.reset()
            elapsed, digest = paced(self.round)
            times.append(elapsed)
            digests.add(digest)
            if self.tracer:
                layers.append(self.tracer.round_metrics())
            if time.perf_counter() >= until:
                return times, digests, layers


class SetupProbes:
    """Start-to-ready times of fresh interpreters doing the benchmark's
    set-up (imports and inputs), SETUP_PROBES of them spread evenly over the
    run rather than bunched at its start, so that they sample the same host
    speed as the rounds do."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
                    "--probe", "--workload", args.workload,
                    "--seed", str(args.seed)]
        start = time.perf_counter()
        self.due = [start + args.seconds * k / SETUP_PROBES
                    for k in range(SETUP_PROBES)]
        self.samples = []

    def probe(self):
        def sample():
            start = time.time()
            done = subprocess.run(self.cmd, capture_output=True, text=True,
                                  timeout=60, check=True)
            return float(done.stdout.split()[-1]) - start, None
        self.samples.append(paced(sample)[0])

    def poll(self):
        """Run the next probe if its time has come."""
        if len(self.samples) < SETUP_PROBES and \
                time.perf_counter() >= self.due[len(self.samples)]:
            self.probe()

    def median(self):
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.samples)


def unit(metric):
    if metric.endswith((".calls", ".tau_lookups")):
        return "count"
    return "ratio" if metric.endswith("_ratio") else "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_program()
    ops = workloads.build(args.workload, args.seed)
    if args.probe:
        print(repr(time.time()))
        return 0

    runner = Runner(ops)
    if not args.trace:
        probes = SetupProbes(args)
        times, digests, _ = runner.rounds(time.perf_counter() + args.seconds,
                                          between=probes.poll)
        metrics = {
            "run_s": statistics.median(times),
            "setup_s": probes.median(),
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    else:
        end = time.perf_counter() + args.seconds
        times, digests, _ = runner.rounds(end - args.seconds / 2)
        runner.trace()
        traced, traced_digests, layers = runner.rounds(end)
        digests |= traced_digests
        metrics = {name: statistics.median(r[name] for r in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(times))
        units = {name: unit(name) for name in metrics}
        print_layers(runner.tracer, metrics)

    for digest in sorted(digests):
        print(f"bench: {args.workload} result digest {digest}", file=sys.stderr)
    print(f"bench: {runner.attempted // len(ops)} rounds of {len(ops)} "
          f"operations, {runner.failed} of {runner.attempted} failed",
          file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 1 if runner.failed else 0


def print_layers(tracer, metrics):
    """Per-span table and the last traced round's call graph, to stderr."""
    spans_seen = [m[:-len(".calls")] for m in metrics
                  if m.endswith(".calls") and metrics[m]]
    spans_seen.sort(key=lambda s: -metrics[s + ".self_s"])
    print(f"{'span':52} {'calls':>9} {'self_s':>9}", file=sys.stderr)
    for s in spans_seen:
        print(f"{s:52} {metrics[s + '.calls']:9.0f} "
              f"{metrics[s + '.self_s']:9.4f}", file=sys.stderr)
    print("call graph (parent -> span: calls):", file=sys.stderr)
    for (parent, child), calls in tracer.edges.most_common():
        print(f"  {parent} -> {child}: {calls}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
