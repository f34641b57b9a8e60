#!/usr/bin/env python3
"""Build the end-to-end benchmark from the source tree it sits in, run one
workload, and check its result line against BENCHMARK.json.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the tree. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the metrics
BENCHMARK.json lists for the kind of run. The exit code is 0 only
when the build, the run and the result line are all sound.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(why, code=1):
    print("e2ebench: " + why, file=sys.stderr)
    return code


def listed_metrics(trace):
    """BENCHMARK.json's metrics for this kind of run: the one list of
    names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace == "1" else "end_to_end"]]


def complete_result(line, trace):
    """Check the program's result line against BENCHMARK.json and return
    it with every listed metric, in the listed order. A traced run
    reports 0 for a layer its workload never calls."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("nothing attempted")
    listed = listed_metrics(trace)
    units = dict(listed)
    reported = result["metrics"]
    for name, m in reported.items():
        if name not in units:
            raise ValueError("%s is not listed in BENCHMARK.json" % name)
        if m["unit"] != units[name]:
            raise ValueError("%s reported in %s, BENCHMARK.json has %s" % (name, m["unit"], units[name]))
    metrics = {}
    for name, unit in listed:
        if name in reported:
            metrics[name] = reported[name]
        elif trace == "1":
            metrics[name] = {"value": 0, "unit": unit}
        else:
            raise ValueError("%s not reported" % name)
    result["metrics"] = metrics
    return result


def main(argv):
    # The benchmark measures the library beside it; without it there is
    # nothing to build.
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail("%s is missing from %s; run from a full source tree" % (needed, ROOT), 2)
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv[:-1] else None
    if trace not in ("0", "1"):
        return fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1", 2)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release", "./e2ebench/bin/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e)
    if build.returncode != 0:
        return fail("build failed")
    exe = os.path.join(ROOT, "_build", "default", "e2ebench", "bin", "main.exe")
    try:
        run = subprocess.run([exe] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if run.returncode != 0:
        return fail("run exited with %d" % run.returncode)
    try:
        result = complete_result(lines[-1], trace)
    except (ValueError, KeyError, TypeError) as e:
        return fail("bad result line: %s" % e)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
