#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes (one-second windows).

    python3 perfbench/selftest.py

Run from the root of a checkout. It proves that:
  1. every workload prints, with --trace 0 and --trace 1, exactly the
     metric names and units BENCHMARK.json lists, and is correct;
  2. a deliberately wrong expected value fails the run;
  3. an invalid input answered with another error code than the expected
     one counts as failed;
  4. in a directory holding only BENCHMARK.json and the benchmark, the
     command exits non-zero without printing a result.
Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-selftest")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return out.returncode, result, out.stderr


def run(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, *extra)


def check(condition, message, failures):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
            code, result, err = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[table]}
            got = {k: v.get("unit") for k, v in (result or {}).get("metrics", {}).items()}
            check(
                code == 0
                and result is not None
                and set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] is True
                and result["attempted"] >= 1
                and got == want,
                f"{workload} --trace {trace}: correct, and every {table} metric with its unit"
                + ("" if got == want else f" (missing {set(want) - set(got)}, extra {set(got) - set(want)})")
                + ("" if code == 0 else f" (exit {code}: {err.strip()[-300:]})"),
                failures,
            )

    shutil.rmtree(SCRATCH, ignore_errors=True)
    expected = os.path.join(SCRATCH, "expected")
    shutil.copytree(os.path.join(ROOT, "perfbench", "expected"), expected)

    def rewrite(name, old, new):
        path = os.path.join(expected, name)
        with open(path) as fh:
            text = fh.read()
        assert old in text, f"{old!r} not in {path}"
        with open(path, "w") as fh:
            fh.write(text.replace(old, new, 1))

    rewrite("table1.tsv", "table1/satrec\tok\t262\t", "table1/satrec\tok\t263\t")
    code, result, _ = run("table1", "0", "--expected-dir", expected)
    check(
        code == 1 and result is not None and result["correct"] is False and result["failed"] >= 1,
        "a wrong expected pool size fails the run (exit 1, correct false, failed > 0)",
        failures,
    )

    rewrite(
        "daemon_mix.tsv",
        "invalid/inconsistent_rates\terror\tengine_error",
        "invalid/inconsistent_rates\terror\tparse_error",
    )
    code, result, _ = run("daemon_mix", "0", "--expected-dir", expected)
    check(
        code == 1 and result is not None and result["correct"] is False and result["failed"] >= 1,
        "an invalid input with another error code than expected counts as failed",
        failures,
    )

    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, result, _ = bench("--workload", "table1", "--seed", "7", "--seconds", "1",
                            "--trace", "0", cwd=bare)
    check(
        code != 0 and result is None,
        "without the program's sources the command exits non-zero and prints no result",
        failures,
    )
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
