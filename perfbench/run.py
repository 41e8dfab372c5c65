#!/usr/bin/env python3
"""Builds and runs the lake benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <lake-cold|dash-warm|ingest> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
It then runs the lakebench binary, forwards its report, writes the run's
record (provenance plus result) under .bench_out/, and prints the result as
the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The metric names are checked against BENCHMARK.json: the end-to-end set for
--trace 0, the per-layer set for --trace 1. Exit codes: 0 ok, 1 the
correctness gate failed, 2 usage or build error (no result printed), 3 the
output broke the contract (no result printed).
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lake-cold", "dash-warm", "ingest")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target="lakebench"):
    """Configures once, then builds incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(2, "build failed: " + " ".join(step))
    return out / target


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def contract_errors(result, expected):
    """Everything about `result` that breaks the output contract."""
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"result keys {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"metric names differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(expected))}")
    for name, metric in metrics.items():
        if not NAME_RE.match(name):
            errors.append(f"bad metric name {name!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r} is not a finite number")
        if not UNIT_RE.match(str(metric.get("unit"))) or (
                name in expected and metric.get("unit") != expected[name]):
            errors.append(f"{name}: unit {metric.get('unit')!r}")
    return errors


def git_provenance():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True)
        if Path(top.stdout.strip()).resolve() != ROOT:
            raise OSError("not the repository root")
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, check=True)
        return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": "unknown", "git_dirty": None}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail(2, "--seconds must be >= 1 and --seed >= 0")

    binary = build()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(out_dir / f"{stem}.spans.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(3, f"lakebench printed nothing (exit {proc.returncode})")
    provenance, report = {}, []
    for line in lines[:-1]:
        if line.startswith("PROVENANCE "):
            provenance = json.loads(line[len("PROVENANCE "):])
        else:
            report.append(line)
            print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(3, f"last line is not JSON: {lines[-1]!r}")
    errors = contract_errors(result, expected_metrics(args.trace))
    if errors:
        fail(3, "; ".join(errors))
    provenance.update(git_provenance())
    record = {"provenance": provenance, "report": report, "result": result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
