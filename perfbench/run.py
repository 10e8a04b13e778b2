#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload triage --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (from the traced run) with --trace 1.
The full report of a run (environment stamp, answer mix, sample counts,
error samples, determinism fingerprint) is written next to the build, under
<build>/reports/, and the spans of a traced run under <build>/traces/.

The build directory is $CARGO_TARGET_DIR/perfbench (default .bench_build),
relative to the repository root. Seed 1 is the default seed; seed 1009 is
held out for confirming claims made on the default seed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MODEL = BENCH_DIR / "model" / "neuroselect.nsweights"
WORKLOADS = ("triage", "hard_solve", "incremental", "race")
DEFAULT_SEED = 1
HELDOUT_SEED = 1009
BINARY_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def run_binary(binary, out, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, report dict or None)."""
    reports = out / "reports"
    traces = out / "traces"
    reports.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    report = reports / f"{workload}-seed{seed}-trace{trace}.json"
    if report.exists():
        report.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--model", str(MODEL), "--report", str(report),
           "--trace-file", str(traces / f"{workload}-seed{seed}.tsv"),
           *extra]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BINARY_TIMEOUT_S)
    if not report.exists():
        return proc.returncode, None
    return proc.returncode, json.loads(report.read_text())


def check_fingerprint(out, report, binary_digest):
    """Two runs of the same binary at the same seed, traced or not, must
    agree on the deterministic counters of the first timed items. Returns an
    error string, or None when the runs agree (or this is the first run)."""
    path = out / "fingerprints.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    key = (f"{report['workload']}:{report['seed']}:"
           f"{report['fingerprint_items']}:{binary_digest}")
    previous = seen.get(key)
    if previous is not None and previous != report["fingerprint"]:
        return (f"deterministic counters differ from an earlier run at seed "
                f"{report['seed']} ({previous} != {report['fingerprint']})")
    seen[key] = report["fingerprint"]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(path)
    return None


def summarize(report, metrics):
    env = report["env"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  items {report['latency_samples']}  "
          f"answers {report['answers']}  error_ratio {report['error_ratio']}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not report["comparable"]:
        print("NOT COMPARABLE: a non-Release or NS_CHECK != 0 build")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    for err in report["errors"]:
        print(f"  error: {err}")


def bench(args):
    out = build_dir()
    binary = build(out)
    code, report = run_binary(binary, out, args.workload, args.seed,
                              args.seconds, args.trace)
    if report is None:
        log(f"the benchmark binary failed (exit {code}) without a report")
        return 2
    failed = report["failed"]
    correct = code == 0 and failed == 0
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    mismatch = check_fingerprint(out, report, digest)
    if mismatch:
        report["errors"].append(mismatch)
        failed += 1
        correct = False
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    summarize(report, metrics)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def selftest(_args):
    """Smoke run of every workload: every metric BENCHMARK.json names is
    printed with its unit, a corrupted model is caught, and traced span
    self times add up to the item wall time."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = build_dir()
    binary = build(out)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, report = run_binary(binary, out, workload, DEFAULT_SEED,
                                      0.5, trace, ("--min-items", "5"))
            if report is None or code != 0:
                problems.append(f"{workload} trace={trace}: run failed")
                continue
            got = report[section]
            for m in spec[section]:
                if m["name"] not in got:
                    problems.append(f"{workload}: {m['name']} not printed")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{workload}: {m['name']} unit "
                                    f"{got[m['name']]['unit']} != {m['unit']}")
            if trace and report["span_check"] != "ok":
                problems.append(f"{workload}: span check "
                                f"{report['span_check']}")
        code, report = run_binary(binary, out, workload, DEFAULT_SEED, 0.5, 0,
                                  ("--corrupt-check",))
        if report is None or not report.get("caught"):
            problems.append(f"{workload}: corrupted model not caught")
        log(f"selftest {workload}: done")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    start = time.monotonic()
    try:
        code = selftest(args) if args.selftest else bench(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"failed: {e}")
        code = 2
    log(f"finished in {time.monotonic() - start:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
