#!/usr/bin/env python3
"""Run one workload of the repository benchmark, or its self-check.

    python3 perfbench/run.py --workload task_storm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the repository root. The first run configures and builds
perfbench/ (and through it the libraries under src/) into .bench_build/;
later runs reuse that build. Each workload run gets a fresh process and a
fresh working directory under .bench_build/runs/, removed afterwards.

Standard output ends with two JSON lines: the full record of the run
(provenance, shape, output checks, sample counts, extra values) and then
the result, {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "runs"
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then an incremental build; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    built = subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                            "-j", jobs], stdout=sys.stderr)
    if built.returncode != 0:
        die("build failed", 1)
    return BUILD_DIR / "perfbench"


def provenance():
    """Commit (when the tree is a git checkout) and a hash of the sources."""
    commit = "none"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
    }


def run_workload(binary, workload, seed, seconds, trace, tiny=False):
    """One workload run in a fresh process and directory; returns its record."""
    run_dir = RUNS_DIR / f"{workload}-seed{seed}-trace{trace}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=run_dir, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        die(f"{workload} exited with code {proc.returncode}", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"{workload} printed no result", 1)
    return json.loads(lines[-1])


def fill_unmeasured(record, per_layer):
    """A traced run reports the per-layer metrics of the layers its workload
    calls; every other declared per-layer metric is reported as 0."""
    for m in per_layer:
        record["metrics"].setdefault(m["name"], {"value": 0, "unit": m["unit"]})


def metric_problems(record, declared):
    """Names or units that differ from BENCHMARK.json's declaration."""
    problems = []
    got = record["metrics"]
    for m in declared:
        if m["name"] not in got:
            problems.append(f"missing metric {m['name']}")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got[m['name']]['unit']} != {m['unit']}")
    extra = set(got) - {m["name"] for m in declared}
    problems += [f"undeclared metric {name}" for name in sorted(extra)]
    return problems


def selfcheck(binary, bench):
    """Every workload at tiny size, untraced and traced, on two seeds: all
    output checks pass, nothing fails, and every declared metric is present
    with its unit (end-to-end metrics also non-zero), and that each declared
    per-layer metric is measured by some workload."""
    ok = True
    measured = set()
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in (1, 2):
            for trace in (0, 1):
                record = run_workload(binary, workload, seed, 1, trace, tiny=True)
                declared = bench["per_layer"] if trace else bench["end_to_end"]
                if trace:
                    measured |= set(record["metrics"])
                    fill_unmeasured(record, declared)
                problems = metric_problems(record, declared)
                if not record["correct"]:
                    failed = [k for k, v in record["checks"].items() if not v]
                    problems.append(f"output checks failed: {failed}")
                if record["failed"] != 0:
                    problems.append(f"{record['failed']} of {record['attempted']} failed")
                if not trace:
                    problems += [f"{name} is 0" for name, m in record["metrics"].items()
                                 if m["value"] == 0]
                status = "ok" if not problems else "FAIL: " + "; ".join(problems)
                print(f"selfcheck {workload} seed={seed} trace={trace}: {status}")
                ok = ok and not problems
    unmeasured = [m["name"] for m in bench["per_layer"] if m["name"] not in measured]
    if unmeasured:
        print(f"selfcheck: no workload measures {', '.join(unmeasured)}")
    return ok and not unmeasured


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="tiny-size run of every workload, checking metrics and outputs")
    args = parser.parse_args()

    bench = spec()
    binary = build()
    if args.selfcheck:
        sys.exit(0 if selfcheck(binary, bench) else 1)

    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die(f"--workload must be one of {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    record = run_workload(binary, args.workload, args.seed, seconds, args.trace)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        fill_unmeasured(record, declared)
    problems = metric_problems(record, declared)
    if problems:
        die("benchmark output does not match BENCHMARK.json: " + "; ".join(problems), 1)
    record["provenance"] = provenance()
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    main()
