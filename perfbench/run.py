#!/usr/bin/env python3
"""Campaign benchmark for shadowprobe.

Run from the repository root:

    python3 perfbench/run.py --workload clean_sharded|lossy_serial|clean_serial
                             [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (the repository's libraries plus two probe binaries) into
.bench_build/, then runs one workload for about --seconds seconds, the build
aside (see measure for when a run takes longer). Every campaign runs in a
fresh probe process, so set-up time, peak RSS and allocation counts belong
to that campaign alone. A run covers TOPOLOGIES topologies generated from
--seed, cycling through them until the time is up; each metric is the
median over a topology's campaigns, averaged over the topologies.

Every campaign's output is checked (see check_runs). The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with the plain
probe. With --trace 1 they are the per-layer ones, measured with the traced
probe, each traced campaign next to a plain one on the same topology; spans
and counters are written to .bench_build/perfbench-out/. Metric names and
units come from BENCHMARK.json. See perfbench/README.md for every metric and
workload.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")

WORKLOADS = ("clean_serial", "clean_sharded", "lossy_serial")
DEFAULT_SEED = 20240301
# Topologies per run: seed, seed + STRIDE, ... Campaign size and peak RSS
# vary with the topology by ~10%, so one run averages over several.
TOPOLOGIES = 6
TOPOLOGY_STRIDE = 1000003
# Set-up-only probe processes before each campaign. One cold set-up takes a
# few ms and moves with the host's state, so setup_s needs more cold samples
# than the campaigns give, spread over the run; such a process lives ~10 ms.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120


def load_metric_units():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the probes; exits non-zero if that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no shadowprobe sources under {ROOT}/src")
        sys.exit(1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench_probe", "perfbench_probe_traced"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            sys.exit(1)
    os.makedirs(OUT_DIR, exist_ok=True)


def topology_seeds(seed):
    return [(seed + i * TOPOLOGY_STRIDE) % 2**64 for i in range(TOPOLOGIES)]


class Run:
    """One probe process: one campaign on one topology, or only its set-up."""

    def __init__(self, workload, topology, traced, index, setup_only=False):
        self.workload = workload
        self.topology = topology
        self.traced = traced
        self.setup_only = setup_only
        kind = "setup" if setup_only else "traced" if traced else "plain"
        self.run_id = f"{workload}-{topology}-{kind}-{index}"
        self.export_path = os.path.join(OUT_DIR, self.run_id + ".export.json")
        self.spans_path = os.path.join(OUT_DIR, self.run_id + ".spans.jsonl")
        self.metrics = None
        self.digest = None
        self.error = None

    def execute(self):
        probe = "perfbench_probe_traced" if self.traced else "perfbench_probe"
        cmd = [os.path.join(BUILD_DIR, probe), "--workload", self.workload,
               "--seed", str(self.topology), "--run-id", self.run_id]
        if not self.setup_only:
            cmd += ["--export", self.export_path]
        if self.traced:
            cmd += ["--spans", self.spans_path]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.error = f"timed out after {PROBE_TIMEOUT_S}s"
            return self
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.error = f"exit {proc.returncode}: {tail[0]}"
            return self
        self.metrics = json.loads(proc.stdout.strip().splitlines()[-1])
        if self.setup_only:
            return self
        with open(self.export_path, "rb") as export:
            self.digest = hashlib.sha256(export.read()).hexdigest()
        os.remove(self.export_path)
        return self


def check_runs(workload, runs, reference):
    """Marks each failing run; `reference` maps topology -> clean_serial digest."""
    first_digest = {}
    for run in runs:
        if run.error is None:
            first_digest.setdefault(run.topology, run.digest)
    for run in runs:
        if run.error is not None:
            continue
        m = run.metrics
        if run.digest != first_digest[run.topology]:
            run.error = "export differs from another run of the same topology"
        elif workload == "clean_sharded" and run.topology in reference and \
                run.digest != reference[run.topology]:
            run.error = "sharded export differs from clean_serial's"
        elif workload == "lossy_serial" and (m["sim.net.link_loss"] == 0 or
                                             m["core.coverage.retry_attempts"] == 0):
            run.error = "faults did not engage"
        elif workload != "lossy_serial" and m["has_coverage"] != 0:
            run.error = "clean run carries coverage"
        elif m["core.decoys"] <= 0:
            run.error = "campaign emitted no decoys"


def aggregate(runs, names):
    """Per metric: median over each topology's runs, then mean over topologies."""
    by_topology = {}
    for run in runs:
        by_topology.setdefault(run.topology, []).append(run.metrics)
    result = {}
    for name in names:
        medians = [statistics.median(m[name] for m in ms) for ms in by_topology.values()]
        if name == "sim.queue_high_water":
            result[name] = max(medians)
        else:
            result[name] = statistics.fmean(medians)
    return result


def measure(workload, seed, seconds, traced):
    """Runs campaigns until `seconds` pass, counting from the first one.

    For clean_sharded, a clean_serial campaign on the first topology comes
    first: the sharded exports of that topology must equal it byte for byte.
    Without tracing, each probe run measures one campaign; the run's
    topologies are cycled and at least one is repeated, so the export check
    always has two runs to compare. With tracing, each step is a pair of
    runs on one topology, one plain and one traced, in alternating order,
    so their difference is the tracing overhead and not host drift; every
    topology gets at least one pair, and the i-th measured and i-th traced
    run form pair i. A step is not started when the typical
    step would end after `seconds`. Without tracing, SETUP_PROBES set-up-only
    runs on the step's topology come first in each step. Returns (reference
    runs, set-up runs, measured runs, traced runs).
    """
    topologies = topology_seeds(seed)
    floor = len(topologies) if traced else len(topologies) + 1
    start = time.monotonic()
    references = []
    if workload == "clean_sharded":
        references.append(Run("clean_serial", topologies[0], False, "ref").execute())
    setups, measured, traced_runs, step_s = [], [], [], []
    while len(step_s) < floor or \
            time.monotonic() - start + statistics.median(step_s) < seconds:
        step_start = time.monotonic()
        i = len(step_s)
        topology = topologies[i % len(topologies)]
        if traced:
            plain_run = Run(workload, topology, False, i)
            traced_run = Run(workload, topology, True, i)
            order = (plain_run, traced_run) if i % 2 == 0 else (traced_run, plain_run)
            for run in order:
                run.execute()
            measured.append(plain_run)
            traced_runs.append(traced_run)
        else:
            setups += [Run(workload, topology, False, f"{i}.{k}", setup_only=True).execute()
                       for k in range(SETUP_PROBES)]
            measured.append(Run(workload, topology, False, i).execute())
        step_s.append(time.monotonic() - step_start)
    return references, setups, measured, traced_runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    end_to_end, per_layer = load_metric_units()
    build()
    references, setups, measured, traced_runs = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    reference = {}
    for ref in references:
        if ref.error is None:
            reference[ref.topology] = ref.digest
        else:
            for run in measured + traced_runs:
                if run.topology == ref.topology and run.error is None:
                    run.error = "clean_serial reference failed: " + ref.error
    check_runs(args.workload, measured + traced_runs, reference)
    runs = references + setups + measured + traced_runs

    for run in runs:
        if run.error is not None:
            log(f"FAILED {run.run_id}: {run.error}")
    good = [r for r in measured if r.error is None]
    good_traced = [r for r in traced_runs if r.error is None]
    good_pairs = [(p, t) for p, t in zip(measured, traced_runs)
                  if p.error is None and t.error is None]
    if not good or (args.trace and not good_pairs):
        log("no successful run to report")
        sys.exit(1)

    if args.trace:
        units = per_layer
        values = aggregate(good_traced, [n for n in units if not n.startswith("trace.")])
        traced_campaign_s = aggregate(good_traced, ["campaign_s"])["campaign_s"]
        values["trace.campaign_s"] = traced_campaign_s
        values["trace.overhead_s"] = statistics.median(
            t.metrics["campaign_s"] - p.metrics["campaign_s"] for p, t in good_pairs)
        values["trace.accounted_share"] = (
            values["core.engine_run_ms"] + values["core.analysis_ms"] +
            values["core.export_ms"]) / (1e3 * traced_campaign_s)
    else:
        units = end_to_end
        values = aggregate(good, [n for n in units if n != "setup_s"])
        values.update(aggregate(good + [r for r in setups if r.error is None], ["setup_s"]))

    failed = sum(1 for r in runs if r.error is not None)
    for run in good:
        log(f"{run.run_id}: campaign_s={run.metrics['campaign_s']:.3f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
