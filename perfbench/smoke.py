#!/usr/bin/env python3
"""The benchmark's own tests, on tiny inputs (about 30 s after the build).

    python3 perfbench/smoke.py

Checks, for every workload, traced and untraced:
  * the last stdout line is the result JSON with exactly the keys
    correct, attempted, failed and metrics, and its metrics are exactly
    BENCHMARK.json's end_to_end (untraced) or per_layer (traced) names,
    each with its unit;
  * every end-to-end metric is positive, the outputs are correct and the
    workload's own named metrics are printed with their units;
  * an injected wrong reply (serve_hot) and an injected altered CSV row
    (dataset_cold, relabel_cv) each fail the run;
  * run.py exits non-zero, printing no result, in a directory holding only
    BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# Named metrics each workload prints as "metric <name> <value> <unit>".
NAMED = {
    "dataset_cold": {"build_s": "s", "cpu_s": "s"},
    "relabel_cv": {"iter_s": "s", "cpu_s": "s"},
    "serve_hot": {"cpu_us_per_req": "us", "max_ok_rps": "rps",
                  "gen.late_ms": "ms"},
    "serve_churn": {"cpu_us_per_req": "us", "max_ok_rps": "rps",
                    "gen.late_ms": "ms", "serve.cache_hit_share": "ratio",
                    "serve.reload_ms": "ms"},
}
COMMON = {"setup_s": "s", "p50_ms": "ms", "p99_ms": "ms",
          "peak_rss_mb": "MB", "fail_share": "ratio", "host.steal_s": "s"}

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}", flush=True)


def run(workload, trace, *extra, cwd=ROOT, runner=RUN):
    cmd = runner + ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    named = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            named[parts[1]] = (float(parts[2]), parts[3])
    return proc.returncode, result, named, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    catalog = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
               1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            tag = f"{name} trace={trace}"
            code, result, named, lines = run(name, trace)
            print(f"ran {tag}: exit {code}", flush=True)
            check(code == 0, f"{tag}: exit status {code}")
            check(result is not None, f"{tag}: no JSON last line")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{tag}: outputs not correct")
            check(isinstance(result["attempted"], int)
                  and result["attempted"] >= 1, f"{tag}: attempted")
            metrics = result["metrics"]
            check(set(metrics) == set(catalog[trace]),
                  f"{tag}: metric names differ from BENCHMARK.json: "
                  f"{sorted(set(metrics) ^ set(catalog[trace]))}")
            for m, unit in catalog[trace].items():
                got = metrics.get(m, {})
                check(got.get("unit") == unit, f"{tag}: {m} unit")
                check(isinstance(got.get("value"), (int, float)),
                      f"{tag}: {m} value")
                if trace == 0:
                    check(got.get("value", 0) > 0, f"{tag}: {m} is not > 0")
            if trace == 0:
                for m, unit in {**COMMON, **NAMED[name]}.items():
                    check(m in named and named[m][1] == unit,
                          f"{tag}: named metric {m} [{unit}] not printed")
            check(any(l.startswith("machine {") for l in lines),
                  f"{tag}: no machine stanza")
            if name in ("dataset_cold", "relabel_cv"):
                check(any(l.startswith("csv_digest ") for l in lines),
                      f"{tag}: no csv_digest")

    for workload, fault in (("serve_hot", "wrong-reply"),
                            ("dataset_cold", "csv-row"),
                            ("relabel_cv", "csv-row")):
        tag = f"{workload} --inject {fault}"
        code, result, _, _ = run(workload, 0, "--inject", fault)
        print(f"ran {tag}: exit {code}", flush=True)
        check(code != 0, f"{tag}: exit status 0")
        check(result is not None and result["correct"] is False
              and result["failed"] >= 1, f"{tag}: fault not caught")

    # A directory with only BENCHMARK.json and perfbench/ must fail fast.
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _, _ = run(
        "serve_hot", 0, cwd=bare,
        runner=[sys.executable, os.path.join(bare, "perfbench", "run.py")])
    print(f"ran bare directory: exit {code}", flush=True)
    check(code != 0 and result is None, "bare directory did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
