#!/usr/bin/env python3
"""Build the minnoc benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--ledger FILE]
    python3 perfbench/run.py --smoke

Run from the repository root. perfbench is built in Release mode under
$CARGO_TARGET_DIR (default .bench_build). The last line of standard
output is the result JSON; the line before it ("env {...}") records the
machine, compiler, build type, MINNOC_OBS, seed, input sizes, and the
raw iteration time and host-speed reference time behind wall_ref.
--ledger appends both to a JSON-lines file that compare.py reads.

--smoke runs every workload on tiny inputs in both modes, checks that
each metric named in BENCHMARK.json is printed with its unit, and
checks that the correctness gate fires on a tampered design.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, build perfbench; returns (binary, work dir)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"minnoc sources not found under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench"), os.path.join(bdir, "work")


def run_bench(binary, work, workload, seed, seconds, trace, smoke=False,
               tamper=False):
    """Run perfbench; returns (exit code, env dict, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--smoke", "1" if smoke else "0",
           "--tamper", "1" if tamper else "0"]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("env "):
        fail(f"{workload}: perfbench printed no result (exit {p.returncode})")
    return p.returncode, json.loads(lines[-2][4:]), json.loads(lines[-1])


def check_result(spec, result, trace):
    """Return the problems with @p result against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result.get("metrics", {})
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"metric {name} missing")
        elif name not in want:
            problems.append(f"metric {name} not declared")
        elif got[name].get("unit") != want[name]:
            problems.append(f"metric {name} unit {got[name].get('unit')!r}"
                            f" != {want[name]!r}")
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    return problems


def smoke(spec):
    binary, work = build()
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, _, result = run_bench(binary, work, w, 1, 1, trace,
                                         smoke=True)
            where = f"{w} --trace {trace}"
            problems += [f"{where}: {p}"
                         for p in check_result(spec, result, trace)]
            if code != 0 or not result.get("correct"):
                problems.append(f"{where}: gate failed on clean inputs")
    print("smoke: tampered designs follow; their gate failures are "
          "expected", file=sys.stderr)
    for w in ("design_bt36", "coh16", "explore_bt16"):
        code, _, result = run_bench(binary, work, w, 1, 1, 0, smoke=True,
                                     tamper=True)
        if code == 0 or result.get("correct") or result.get("failed", 0) < 1:
            problems.append(f"{w}: gate did not fire on a tampered design")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ledger", help="append env + result to this file")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")

    binary, work = build()
    seconds = args.seconds or spec["run_seconds"]
    code, env, result = run_bench(binary, work, args.workload, args.seed,
                                   seconds, args.trace)
    problems = check_result(spec, result, args.trace)
    if problems:
        fail("; ".join(problems))
    if args.ledger:
        with open(args.ledger, "a") as f:
            f.write(json.dumps({"env": env, "result": result}) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
