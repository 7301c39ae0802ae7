#!/usr/bin/env python3
"""Host-cost benchmark of the CoRM simulator.

Builds perfbench/corm_perfbench from the simulator's sources, runs one
workload in a fresh process, checks the simulated outputs against their
invariants and pins, and prints every metric by name with its unit. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fabric_dense --seed 7 \\
        --seconds 28 --trace 0        # end-to-end metrics, tracing off
    python3 perfbench/run.py --workload fabric_dense --seed 7 \\
        --seconds 28 --trace 1        # per-layer metrics and spans
    python3 perfbench/run.py --self-test

It measures host cost (what the simulator takes to run), never simulated
time; simulated statistics are deterministic for a seed and serve as
correctness checks. See perfbench/README.md for the workloads and the
metric table.
"""

import argparse
import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "corm_perfbench")
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("fabric_dense", "fabric_wide", "fabric_captured",
             "rubis_testbed")
# Time the binary may take beyond --seconds. It keeps to --seconds by
# itself, unless the three repeats it must make take longer.
BINARY_MARGIN_S = 120
# The unit of the normalised end-to-end times, a fixed figure a little
# under the reference kernel's least time on a 4-vCPU Xeon VM (see
# README.md). A repeat that took t seconds while the kernel took r
# reports t * REFERENCE_S / r.
REFERENCE_S = 0.065

# Invariants every scenario run must meet, whatever its seed.
FABRIC_CHECKS = {"delta_sums_exact": True, "converged": True,
                 "bindings_ok": True, "triggers_accounted": True,
                 "tunes_lost": 0, "fabric_dropped": 0}
RUBIS_CHECKS = {"tunes_applied_or_in_flight": True, "base.tunes_sent": 0,
                "regs_pending": 0, "regs_abandoned": 0, "chan_dropped": 0}

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark binary; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "platform",
                                       "scenarios.cpp")):
        log("perfbench: no simulator sources under %s/src" % ROOT)
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", BUILD, "-j", jobs]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                log("perfbench: build step failed: %s" % " ".join(cmd))
                return False
    return True


def run_binary(args, pin_seed):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--pin-seed", str(pin_seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + BINARY_MARGIN_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: %s timed out" % " ".join(cmd))
        return None
    except BaseException:
        # Interrupted or terminated: leave no binary running.
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        log("perfbench: %s exited %d" % (" ".join(cmd), proc.returncode))
        return None
    return json.loads(out)


def check_runs(doc, pins, pin_seed):
    """Check every scenario run; returns the set of failed run ids."""
    workload = doc["workload"]
    expected = (RUBIS_CHECKS if workload == "rubis_testbed"
                else FABRIC_CHECKS)
    failed = set()
    shown = []

    def fail(rec, path, want, got):
        failed.add(rec["run"])
        shown.append(path)
        if shown.count(path) <= 3:
            log("FAIL workload=%s run=%d variant=%s seed=%d %s: expected "
                "%r, actual %r" % (workload, rec["run"], rec["variant"],
                                   rec["seed"], path, want, got))

    # The first run of each seed is the reference: every other run of
    # that seed, traced or not and at any shard count, must agree on
    # every pinned value.
    reference = {}
    for rec in doc["untimed"] + doc["timed"]:
        for key, want in expected.items():
            if rec["checks"].get(key) != want:
                fail(rec, "checks." + key, want, rec["checks"].get(key))
        if rec["seed"] == pin_seed:
            for key, want in pins.items():
                if rec.get(key) != want:
                    fail(rec, key, want, rec.get(key))
        ref = reference.setdefault(rec["seed"], rec)
        for key in pins:
            if rec.get(key) != ref.get(key):
                fail(rec, key + " (vs run %d)" % ref["run"], ref.get(key),
                     rec.get(key))
    if len(shown) > len(set(shown)) * 3:
        log("FAIL ... %d failed check(s) in all" % len(shown))
    return failed


def median(records, key):
    values = [r[key] for r in records]
    return statistics.median(values) if values else 0.0


def normalised(doc, records, key):
    """Median of @p key over @p records, each in units of host speed.

    The reference kernel runs before and after every timed repeat; a
    repeat's time is divided by the mean of the two, so a host that
    slows down or speeds up during the run moves both alike.
    """
    refs = doc["reference_s"]
    first = doc["timed"][0]["run"]
    values = []
    for r in records:
        i = r["run"] - first
        values.append(r[key] * 2 * REFERENCE_S / (refs[i] + refs[i + 1]))
    return statistics.median(values)


def self_times(doc, runs):
    """Mean self time per run of each span name, over @p runs."""
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    total = {}
    for i, s in enumerate(spans):
        if s["run"] in runs or s["run"] < 0:
            self_s = s["end"] - s["start"] - covered[i]
            total[s["name"]] = total.get(s["name"], 0.0) + self_s
    n = max(1, len(runs))
    return {name: (t if name == "host.calibrate" else t / n)
            for name, t in total.items()}


SELF_SPANS = ("bench.iteration", "platform.runFabricScenario",
              "coord.fabric.build", "platform.fabric_setup",
              "obs.trace_json", "obs.flowprofile",
              "platform.runRubisScenario", "platform.rubis_setup",
              "platform.inspect", "host.calibrate")
COUNTERS = ("xen.sched.context_switches", "xen.sched.accountings",
            "xen.sched.boosts", "ixp.classified", "ixp.wire_rx",
            "coord.channel.tunes", "driver.polls")


def per_layer(doc):
    """Per-layer metrics of a traced run, for the layers it exercises."""
    timed = doc["timed"]
    traced = [r for r in timed if r["variant"] == "traced"]
    untraced = [r for r in timed if r["variant"] == "untraced"]
    shards1 = [r for r in timed if r["variant"] == "shards1"]
    shards4 = [r for r in timed if r["variant"] == "shards4"]
    bare = [r for r in timed if r["variant"] == "bare"]
    first = doc["untimed"][0]
    fabric = doc["workload"] != "rubis_testbed"

    def med(key):
        return median(traced, key) if traced and key in traced[0] else 0.0

    run_s = med("run_s")
    events = med("events")
    m = {}
    if fabric:
        windows = med("windows")
        trace_events = med("trace_events")
        m.update({
            "coord.fabric.build_s": (med("build_s"), "s"),
            "coord.fabric.build_rss_mb": (first["build_rss_mb"], "MB"),
            "coord.fabric.wire_messages": (med("wire_messages"), "count"),
            "coord.fabric.hub_relays": (med("hub_relays"), "count"),
            "coord.fabric.agg_folded": (med("agg_folded"), "count"),
            "coord.fabric.link_replays": (med("link_replays"), "count"),
            "coord.fabric.msgs_per_applied_tune":
                (med("msgs_per_applied_tune"), "ratio"),
            "sim.sharded.windows": (windows, "count"),
            "sim.sharded.boundary_messages":
                (med("boundary_messages"), "count"),
            "sim.sharded.batches": (med("batches"), "count"),
            "sim.sharded.msgs_per_window":
                (med("boundary_messages") / windows if windows else 0.0,
                 "ratio"),
            "sim.sharded.barrier_wait_s": (med("barrier_wait_s"), "s"),
            "sim.sharded.speedup":
                (median(shards1, "run_s") / median(shards4, "run_s")
                 if shards1 else 0.0, "ratio"),
            "coord.reliable.triggers_sent": (med("triggers_sent"), "count"),
            "coord.reliable.triggers_acked":
                (med("triggers_acked"), "count"),
            "coord.reliable.triggers_abandoned":
                (med("triggers_abandoned"), "count"),
            "obs.trace_events": (trace_events, "count"),
            "obs.flows": (med("flows"), "count"),
            "obs.trace_json_s": (med("trace_json_s"), "s"),
            "obs.flowprofile_s": (med("flowprofile_s"), "s"),
        })
        if bare:
            bare_s = median(bare, "run_s")
            # The capture's memory: peak after the first captured run
            # over the peak of the bare runs that preceded it.
            before = [r for r in doc["untimed"] if r["variant"] == "bare"]
            after = [r for r in doc["untimed"] if r["variant"] == "pin"]
            m["obs.ns_per_trace_event"] = (
                (run_s - bare_s) * 1e9 / trace_events
                if trace_events else 0.0, "ns")
            m["obs.capture_ratio"] = (run_s / bare_s, "ratio")
            m["obs.capture_rss_mb"] = (
                after[0]["peak_rss_mb"] - before[-1]["peak_rss_mb"], "MB")
    m["sim.events"] = (events, "count")
    m["sim.ns_per_event"] = (run_s * 1e9 / events if events else 0.0, "ns")
    for name in COUNTERS:
        m[name] = (med(name), "count")
    selfs = self_times(doc, {r["run"] for r in traced})
    for name in SELF_SPANS:
        m["self_s." + name] = (selfs.get(name, 0.0), "s")
    m["bench.trace_overhead_s"] = (run_s - median(untraced, "run_s"), "s")
    m["bench.run_wall_s"] = (median(untraced, "run_s"), "s")
    m["bench.reference_s"] = (statistics.median(doc["reference_s"]), "s")
    m["host.nproc"] = (doc["host"]["nproc"], "count")
    m["host.parallel_ceiling"] = (
        doc["calibration"]["parallel_ceiling"], "ratio")
    return m


def report(doc, metrics, attempted, failed):
    h = doc["host"]
    print("perfbench %s seed %d, %s: %d run(s) checked, %d failed"
          % (doc["workload"], doc["seed"],
             "traced" if doc["traced"] else "untraced", attempted, failed))
    print("host: %d x %s; %s; %s [%s]; NDEBUG %s; optimized %s; "
          "sanitizer %s" % (h["nproc"], h["cpu_model"], h["compiler"],
                            h["build_type"], h["cxx_flags"].strip(),
                            h["ndebug"], h["optimized"], h["sanitizer"]))
    if "calibration" in doc:
        print("host.parallel_ceiling %.3f (nproc %d)"
              % (doc["calibration"]["parallel_ceiling"], h["nproc"]))
    for name in sorted(metrics):
        print("  %-40s %16.6g %s" % (name, metrics[name]["value"],
                                     metrics[name]["unit"]))


def load_pins():
    with open(PINS) as f:
        return json.load(f)


def evaluate(args, pin_doc):
    """Run one workload and check it against @p pin_doc.

    Returns the binary's document and the result object, or None when
    the binary did not run to the end.
    """
    pin_seed = pin_doc["seed"]
    pins = pin_doc[args.size][args.workload]
    doc = run_binary(args, pin_seed)
    if doc is None:
        return None
    failed_runs = check_runs(doc, pins, pin_seed)
    attempted = len(doc["untimed"]) + len(doc["timed"])
    failed = len(failed_runs)
    if args.trace:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        with open(os.path.join(BUILD, "spans", "%s-seed%d.json"
                               % (args.workload, args.seed)), "w") as f:
            json.dump(doc["spans"], f)
        # Every per-layer metric is printed; a layer the workload does
        # not run reads 0.
        raw = {name: (0.0, unit) for name, unit in per_layer_units().items()}
        raw.update(per_layer(doc))
        raw["failed_runs"] = (failed / attempted, "share")
    else:
        main = [r for r in doc["timed"] if r["variant"] == "main"]
        raw = {"run_s": (normalised(doc, main, "run_s"), "s"),
               "setup_s": (normalised(doc, main, "setup_s"), "s"),
               # The process peak after the pin run and the first timed
               # repeat: a later repeat adds to it only when glibc
               # happens to open one more per-thread arena.
               "peak_rss_mb": (doc["timed"][0]["peak_rss_mb"], "MB")}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
    return doc, {"correct": failed == 0, "attempted": attempted,
                 "failed": failed, "metrics": metrics}


def measure(args):
    if not build():
        return 1
    out = evaluate(args, load_pins())
    if out is None:
        return 1
    doc, result = out
    report(doc, result["metrics"], result["attempted"], result["failed"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def per_layer_units():
    """Names and units of every per-layer metric, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def self_test():
    """Every workload at toy size, both modes, plus a wrong pin."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    pins = load_pins()
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def invoke(workload, seed, trace):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(seed), "--seconds", "1", "--trace",
               str(trace), "--size", "toy"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=300)
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines else None
        return proc.returncode, last

    held_out = pins["seed"] + 1000
    for workload in WORKLOADS:
        for trace, seed in ((0, pins["seed"]), (1, held_out)):
            code, last = invoke(workload, seed, trace)
            tag = "%s trace=%d seed=%d" % (workload, trace, seed)
            if code != 0 or last is None or not last["correct"]:
                problems.append("%s: exit %d, result %r" % (tag, code, last))
                continue
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != want[trace]:
                problems.append("%s: metrics %r, expected %r"
                                % (tag, sorted(got), sorted(want[trace])))
            log("self-test: %s ok" % tag)

    bad = json.loads(json.dumps(pins))
    bad["toy"]["fabric_dense"]["digest"] = "0x0000000000000000"
    args = argparse.Namespace(workload="fabric_dense", seed=pins["seed"],
                              seconds=1, trace=0, size="toy")
    out = evaluate(args, bad)
    last = out[1] if out else None
    if last is None or last["correct"] or last["failed"] == 0:
        problems.append("wrong pin not caught: result %r" % (last,))
    else:
        log("self-test: wrong pin caught (%d of %d runs failed)"
            % (last["failed"], last["attempted"]))

    for p in problems:
        log("self-test FAILED: " + p)
    log("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    # SIGTERM unwinds like Ctrl-C, so every child is stopped first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the pinned seed)")
    ap.add_argument("--seconds", type=int, default=24,
                    help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: small inputs for the self-test")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test() if build() else 1
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must not be negative")
    if args.seed is None:
        args.seed = load_pins()["seed"]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
