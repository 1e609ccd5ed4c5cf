#!/usr/bin/env python3
"""Horse benchmark: four demo workloads, end-to-end and per-layer metrics.

Run from the root of a Horse source tree:

    python3 horsebench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds horsebench/horsebench.exe with dune, runs the workload generated
from the seed for about S wall seconds, checks every output and prints, as
the last line of standard output, one JSON object with the keys
"correct", "attempted", "failed" and "metrics".

Run and setup times are scaled by a fixed calibration kernel timed next
to them (see calibrated_run_s), so that a slower or busier host does not
read as a slower program; the unscaled times are reported per layer.

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
splits the budget between an untraced and a traced process (the
scheduler's self-profiler on, harness spans around every call into a
layer) and reports the per-layer metrics of the traced one, the wall
split of its run and the tracing overhead. Spans and the registry
snapshot go to horsebench/out/.

    python3 horsebench/run.py --record SEED [SEED ...] [--workload NAME]

re-runs each workload once per seed and stores its outputs in
horsebench/expected.json, the values later runs are checked against.
Seeds with no recorded values are still checked for repeatability across
repetitions and for the invariants of each workload.

Workloads, metrics and the layers they measure are described in
horsebench/layers.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["fattree-bgp", "bgp-storm", "fattree-hedera", "megauser"]
BENCH_DIR = "horsebench"
EXE = os.path.join("_build", "default", BENCH_DIR, "horsebench.exe")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
LAYERS = os.path.join(BENCH_DIR, "layers.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REL_TOL = 1e-9
# Recorded per seed to make a change of solver regime visible; not
# checked, since a faster solver may legitimately water-fill less.
UNCHECKED_OUTPUTS = {"waterfill_share"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Seconds the calibration kernel (horsebench.ml, calibrate) takes on the
# reference machine: an Intel Xeon vCPU at 2.1 GHz, 2 cores, shared host.
REF_CALIBRATION_S = 0.2


def fail(msg, code=2):
    print("horsebench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_tree():
    for path in ("dune-project", "lib", "bin", os.path.join(BENCH_DIR, "dune"),
                 os.path.join(BENCH_DIR, "horsebench.ml")):
        if not os.path.exists(path):
            fail("run from the root of a Horse source tree (missing %s)" % path)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./" + BENCH_DIR + "/horsebench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if proc.returncode != 0:
        fail("build failed (dune exit %d)" % proc.returncode, 3)


def measure(workload, seed, seconds, mode, min_reps, spans_out=os.devnull):
    """Runs the measuring program once; returns its JSON record."""
    cmd = [EXE, workload, str(seed), "%.3f" % seconds, mode, str(min_reps), spans_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(cmd), RUN_TIMEOUT_S), 4)
    if proc.returncode != 0:
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode), 4)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing" % " ".join(cmd), 4)
    return json.loads(lines[-1])


# --- output checks ------------------------------------------------------


def same(a, b):
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return a == b


def diff_outputs(got, want, skip=()):
    keys = sorted((set(got) | set(want)) - set(skip))
    return [k for k in keys if not same(got.get(k), want.get(k))]


def invariants(workload, out):
    """Failed invariants of one repetition's outputs, as messages. Every
    output is a list with one value per experiment of the batch."""
    bad = []
    for i, part in enumerate(dict(zip(out, vals)) for vals in zip(*out.values())):
        bad += ["part %d: %s" % (i, m) for m in part_invariants(workload, part)]
    return bad


def part_invariants(workload, out):
    bad = []
    if workload == "megauser":
        if out["classes_started"] <= 0:
            bad.append("the WAN started no flow class")
        if out["delivered_bits"] <= 0:
            bad.append("the WAN delivered no bits")
        return bad
    if not out["converged"]:
        bad.append("the control plane never converged")
    if not 0 < out["delivered_bits"] <= out["offered_bits"] * (1 + REL_TOL):
        bad.append("delivered bits outside (0, offered]")
    if workload in ("fattree-bgp", "bgp-storm"):
        if not out.get("fib_fingerprint") or not out.get("causal_hash"):
            bad.append("missing FIB fingerprint or causal hash")
    if workload == "bgp-storm" and out.get("faults_injected", 0) == 0:
        bad.append("the fault plan injected nothing")
    return bad


def check(workload, seed, reps, expected):
    """Returns (failed check messages, notes)."""
    failures, notes = [], []
    first = reps[0]["outputs"]
    for i, rep in enumerate(reps):
        failures += ["rep %d: %s" % (i, m) for m in invariants(workload, rep["outputs"])]
        changed = diff_outputs(rep["outputs"], first)
        if changed:
            failures.append("rep %d differs from rep 0 in %s" % (i, ", ".join(changed)))
    want = expected.get("workloads", {}).get(workload, {}).get("seeds", {}).get(str(seed))
    if want is None:
        notes.append("seed %d has no recorded outputs: checked repeatability and "
                     "invariants only" % seed)
    else:
        changed = diff_outputs(first, want, skip=UNCHECKED_OUTPUTS)
        if changed:
            failures.append("outputs differ from the recorded ones in %s" % ", ".join(changed))
        else:
            notes.append("outputs match the values recorded for seed %d" % seed)
        for k in UNCHECKED_OUTPUTS & set(want):
            if not same(first.get(k), want[k]):
                notes.append("%s moved from the recorded %s to %s" % (k, want[k], first.get(k)))
    return failures, notes


# --- metrics ------------------------------------------------------------


def peak_heap_mb(rec):
    return rec["peak_heap_words"] * rec["word_size_bits"] / 8 / 1e6


def calibrated_run_s(rec):
    """Median over repetitions of the experiments' CPU seconds scaled by
    the calibration kernel's CPU seconds measured around each repetition,
    in seconds of a machine on which the kernel takes REF_CALIBRATION_S.
    The experiments are single-threaded and never wait, so their CPU time
    is their wall time less what the hypervisor stole; the scaling
    cancels most of the slowdown other tenants cause, and a fixed kernel
    that uses none of the program's code leaves a change in the program
    fully visible. The unscaled wall time is run.raw_run_s per layer."""
    return statistics.median(r["cpu_s"] * REF_CALIBRATION_S / r["calibration_cpu_s"]
                             for r in rec["reps"])


def raw_setup_s(rec):
    return statistics.median(rec["probe_setup_s"] + [r["setup_s"] for r in rec["reps"]])


def end_to_end(rec):
    reps = rec["reps"]
    alloc = [r["setup_gc"]["alloc_words"] + r["run_gc"]["alloc_words"] for r in reps]
    scale = REF_CALIBRATION_S / statistics.median(rec["calibrations_wall_s"])
    return {
        "run_s": (calibrated_run_s(rec), "s"),
        "setup_s": (raw_setup_s(rec) * scale, "s"),
        "peak_heap_mb": (peak_heap_mb(rec), "MB"),
        "alloc_mwords": (statistics.median(alloc) / 1e6, "Mwords"),
    }


UNITS = {"_s": "s", "_share": "ratio", "_ratio": "ratio", "_mwords": "Mwords",
         "per_update": "prefixes/update"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(plain, traced):
    # The wall split comes from one repetition (the median by run_s), so
    # it adds up to that repetition's run_s.
    reps = sorted(traced["reps"], key=lambda r: r["run_s"])
    mid = reps[(len(reps) - 1) // 2]
    layer = dict(mid["layer"])
    layer["run.traced_run_s"] = mid["run_s"]
    layer["run.traced_cpu_s"] = mid["cpu_s"]
    layer["run.unattributed_s"] = (mid["run_s"] - layer["dataplane.solve_wall_s"]
                                   - layer["emulation.poll_wall_s"])
    layer["run.calibration_cpu_s"] = statistics.median(plain["calibrations_cpu_s"])
    layer["run.calibration_wall_s"] = statistics.median(plain["calibrations_wall_s"])
    layer["run.raw_run_s"] = statistics.median(r["run_s"] for r in plain["reps"])
    layer["run.raw_setup_s"] = raw_setup_s(plain)
    untraced_run_s = calibrated_run_s(plain)
    layer["trace.untraced_run_s"] = untraced_run_s
    layer["trace.run_overhead_share"] = calibrated_run_s(traced) / untraced_run_s - 1
    layer["trace.peak_heap_overhead_share"] = peak_heap_mb(traced) / peak_heap_mb(plain) - 1
    return {k: (v, unit_of(k)) for k, v in layer.items()}


# --- stamp --------------------------------------------------------------


def git_revision():
    if not os.path.exists(".git"):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"




def load_json(path):
    with open(path) as f:
        return json.load(f)


def idle_readings(workload, metrics):
    """The per-layer readings layers.json predicts to be (near) zero here."""
    per_layer = load_json(LAYERS)["per_layer"]
    return {k: metrics[k][0] for k, v in per_layer.items()
            if workload in v["no_change_on"] and k in metrics}


# --- commands -----------------------------------------------------------


def bench(args):
    expected = load_json(EXPECTED)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        spans_out = os.path.join(OUT_DIR, tag + "-spans.json")
        plain = measure(args.workload, args.seed, args.seconds / 2, "plain", 2)
        traced = measure(args.workload, args.seed, args.seconds / 2, "traced", 2, spans_out)
        records = [plain, traced]
        metrics = per_layer(plain, traced)
    else:
        plain = measure(args.workload, args.seed, args.seconds, "plain", 3)
        records = [plain]
        metrics = end_to_end(plain)
    failures, notes = [], []
    attempted = failed = 0
    for rec in records:
        f, n = check(args.workload, args.seed, rec["reps"], expected)
        failures += ["%s run: %s" % (rec["mode"], m) for m in f]
        notes += n
        attempted += sum(r["ops"] for r in rec["reps"])
        failed += sum(r["ops_failed"] for r in rec["reps"])
    if failures:
        failed = attempted
    stamp = {
        "workload": args.workload,
        "params": plain["params"],
        "seed": args.seed,
        "reps": {rec["mode"]: len(rec["reps"]) for rec in records},
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "cores": len(os.sched_getaffinity(0)),
        "ocaml_version": plain["ocaml_version"],
    }
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as f:
        json.dump({"stamp": stamp, "checks": {"failures": failures, "notes": notes},
                   "result": result, "records": records}, f, indent=1)
        f.write("\n")
    for n in notes:
        print("note: " + n)
    for m in failures:
        print("CHECK FAILED: " + m)
    for k, (v, u) in sorted(metrics.items()):
        print("%-36s %14.6g %s" % (k, v, u))
    if args.trace:
        idle = idle_readings(args.workload, metrics)
        print("predicted idle here: " + ", ".join("%s=%.6g" % kv for kv in sorted(idle.items())))
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))


def record(args):
    expected = load_json(EXPECTED)
    for workload in ([args.workload] if args.workload else WORKLOADS):
        entry = expected["workloads"][workload]
        for seed in args.record:
            rec = measure(workload, seed, 0, "plain", 1)
            out = rec["reps"][0]["outputs"]
            bad = invariants(workload, out) + (
                ["ops failed"] if rec["reps"][0]["ops_failed"] else [])
            if bad:
                fail("%s seed %d not recorded: %s" % (workload, seed, "; ".join(bad)), 5)
            entry["seeds"][str(seed)] = out
            print("recorded %s seed %d" % (workload, seed))
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
        write_expected(expected)


def write_expected(expected):
    """Writes expected.json with one line per recorded seed."""
    workloads = []
    for name, entry in expected["workloads"].items():
        seeds = ",\n".join("    %s: %s" % (json.dumps(k), json.dumps(v))
                           for k, v in entry["seeds"].items())
        head = {k: v for k, v in entry.items() if k != "seeds"}
        workloads.append('  %s: %s, "seeds": {\n%s\n  }}' % (
            json.dumps(name), json.dumps(head)[:-1], seeds))
    with open(EXPECTED, "w") as f:
        f.write('{\n "about": %s,\n "workloads": {\n%s\n }\n}\n'
                % (json.dumps(expected["about"]), ",\n".join(workloads)))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", type=int, nargs="+", metavar="SEED")
    args = p.parse_args()
    if args.record is None and (args.workload is None or args.seed is None
                                or args.seconds is None or args.seconds <= 0):
        p.error("--workload, --seed and a positive --seconds are required")
    check_tree()
    build()
    if args.record is not None:
        record(args)
    else:
        bench(args)


if __name__ == "__main__":
    main()
