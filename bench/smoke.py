#!/usr/bin/env python3
"""Smoke test for the benchmark itself.

    python3 bench/smoke.py

Runs every workload once untraced and once traced on tiny inputs
(``run.py --all --small``), then checks that each run printed its
result line with every metric ``BENCHMARK.json`` names and that
metric's unit, that interposition left the outputs unchanged, that the
traced layers land where the workloads say they should, that
``--compare`` reads the results file, and that the benchmark fails
without printing a result when the library is missing.  Exits nonzero
on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
OUT = ROOT / ".bench_out" / "smoke"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {msg}")


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)

    all_json = OUT / "all.json"
    p = subprocess.run(RUN + ["--all", "--small", "--reps", "1", "--seconds", "1", "--seed", "3",
                              "--out", str(all_json)], capture_output=True, text=True, timeout=900)
    check(p.returncode == 0, f"--all exited {p.returncode}:\n{p.stdout}{p.stderr}")
    results = json.loads(all_json.read_text())

    e2e_units = units({m["name"]: m for m in spec["end_to_end"]})
    layer_units = units({m["name"]: m for m in spec["per_layer"]})
    traces = {}
    for name in names:
        w = results["workloads"][name]
        for run in w["runs"]:
            line = run["result"]
            check(set(line) == RESULT_KEYS, f"{name}: result keys {sorted(line)}")
            check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                  f"{name}: run not correct: {line['correct']}, {line['failed']} failed")
            check(units(line["metrics"]) == e2e_units, f"{name}: end-to-end metrics or units")
            for metric, m in line["metrics"].items():
                check(math.isfinite(m["value"]) and m["value"] > 0, f"{name}: {metric} = {m}")
        check(units(w["trace"]["metrics"]) == layer_units, f"{name}: per-layer metrics or units")
        check(w["traced_digest"] == w["digest"], f"{name}: tracing changed the outputs")
        traces[name] = {k: v["value"] for k, v in w["trace"]["metrics"].items()}

    for m in spec["per_layer"]:
        check(any(traces[n][m["name"]] != 0 for n in names), f"{m['name']} is 0 on every workload")
    for metric, home in (("segmentation.deskew_s", "page"), ("segmentation.segment_s", "page"),
                         ("classifier.loo_s", "train")):
        check([n for n in names if traces[n][metric] > 0] == [home],
              f"{metric} should be measured on {home} only")
    shares = results["workloads"]["big_words"]["trace"]["module_share"]
    check(max(shares, key=shares.get) == "morphology", f"big_words shares: {shares}")
    check(len(results["accuracy_matrix"]) == 6, "accuracy matrix should have 6 cells")

    p = subprocess.run(RUN + ["--compare", str(all_json), str(all_json)],
                       capture_output=True, text=True, timeout=60)
    check(p.returncode == 0, f"--compare exited {p.returncode}:\n{p.stdout}{p.stderr}")
    for name in names:
        check(f"{name}: outputs same" in p.stdout, f"--compare printed no row for {name}")

    # a checkout holding only the benchmark must fail without a result line
    bare = OUT / "bare"
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", names[0], "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    check(p.returncode != 0 and '"correct"' not in p.stdout,
          f"without the library: exit {p.returncode}, stdout {p.stdout!r}")
    shutil.rmtree(OUT, ignore_errors=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
