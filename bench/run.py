#!/usr/bin/env python3
"""Seeded benchmark for scriptid.

One run (what ``BENCHMARK.json``'s command does)::

    python3 bench/run.py --workload page --seed 1 --seconds 20 --trace 0

generates the workload's inputs from the seed, sets up three times and
reports the median set-up time, then runs items in a closed loop with
one caller (the next item starts when the previous one returns) for
``--seconds`` seconds of timed calls, at least one pass over the input
pool.  It checks every item's outputs against the generator's truth,
prints each metric with its unit, the sha256 of the outputs (labels and
feature vectors) and, as the last line, one JSON object.  The result
file goes to ``--out`` (default ``.bench_out/``).  The exit code is 1
when an output check fails.

Timed segments take turns on the usable CPUs, and times are scaled to
a nominal machine speed measured by a probe around each segment (see
``Speed``); the results file also keeps the unscaled figures
(``raw_*``).

``--trace 1`` runs every item twice in a row, untraced and then with a
span around every public library function, checks both give the same
outputs, and reports per-layer self times and call counts per word,
the unattributed remainder and the tracing overhead.

Other modes::

    python3 bench/run.py --all --seed 1 --reps 5 --out BENCH_x.json
    python3 bench/run.py --compare BENCH_parent.json BENCH_change.json

``--all`` runs every workload ``--reps`` times (seeds seed, seed+1, ...)
and traced once, each in a fresh process, adds the leave-one-out
accuracy matrix and the host's provenance, and writes one results
file.  ``--compare`` prints, per workload and end-to-end metric, both
medians with quartiles and a verdict against the metric's bound, then
the per-layer self-time deltas.
"""

from __future__ import annotations

import os

# one thread per process, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# labels must mostly match the generator's truth; a broken classifier
# scores about 1/3
ACCURACY_FLOOR = 0.75
MATRIX_NOISE = (0.0, 0.005, 0.02)
MATRIX_SKEW = (0.0, 5.0)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_library():
    """Import scriptid from this checkout's ``src`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import scriptid

    if Path(scriptid.__file__).resolve().parent.parent != src:
        raise ImportError(f"scriptid was imported from {scriptid.__file__}, not {src}")
    from scriptid import classifier, cli, features, imaging, morphology, netpbm, segmentation

    return argparse.Namespace(cli=cli, netpbm=netpbm, imaging=imaging, segmentation=segmentation,
                              features=features, morphology=morphology, classifier=classifier)


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def provenance(seed: int, seconds: float, **extra) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **extra,
    }


# ---------------------------------------------------------------------------
# one run


class Speed:
    """Machine-speed control: CPU rotation plus a probe.

    On a shared virtual machine the speed one process sees can drift by
    15% over a few seconds and differ by as much between CPUs (measured
    on a 2-vCPU VM; CPU time drifts with wall time, so the loss is not
    scheduling).  A process that stays on one CPU would carry that
    CPU's speed into every figure it reports.  So each timed segment of
    about ``SEGMENT_S`` seconds runs on the next usable CPU in turn, and
    a probe (a fixed mix of interpreter and numpy work) runs on that
    CPU before and after the segment.  The segment's times are scaled
    by ``NOMINAL_S`` over the mean of the two probes: to the speed at
    which the probe takes its nominal time.  The probe runs no scriptid
    code, so a change to the library cannot move it.
    """

    SEGMENT_S = 1.0
    NOMINAL_S = 0.003

    def __init__(self):
        import numpy as np

        self._np = np
        # preallocated, so that the allocator's state cannot slow the probe
        self._a = np.arange(200_000, dtype=np.int64)
        self._b = np.empty_like(self._a)
        self._cpus = sorted(os.sched_getaffinity(0))
        self._turn = 0
        self._before = 0.0
        self.samples: list = []

    def _kernel(self) -> int:
        np, b = self._np, self._b
        np.multiply(self._a, 7, out=b)
        np.remainder(b, 13, out=b)
        s = int(b.sum())
        for i in range(20_000):
            s += i * i % 13
        return s

    def _probe(self) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def start_segment(self) -> None:
        """Move to the next CPU and probe it."""
        os.sched_setaffinity(0, {self._cpus[self._turn % len(self._cpus)]})
        self._turn += 1
        self._before = self._probe()

    def end_segment(self) -> float:
        """The scale factor for the segment that ended just now."""
        after = self._probe()
        self.samples += [self._before, after]
        return self.NOMINAL_S / ((self._before + after) / 2)

    def release(self) -> None:
        os.sched_setaffinity(0, self._cpus)


def timed_phase(wl, seconds: float, speed: Speed, tracer=None):
    """Closed loop over the item pool; returns (runs per item key, trace facts).

    Runs at least one pass over the pool, then until ``seconds`` of
    timed calls have passed.
    """
    from tracing import Patches
    from workloads import ItemRun

    runs: dict = {}
    facts = {"traced_wall": 0.0, "untraced_wall": 0.0, "traced_words": 0}
    segment: list = []
    segment_s, elapsed, n = 0.0, 0.0, 0

    def close_segment():
        scale = speed.end_segment()
        for run, traced in segment:
            run.scale = scale
            if traced is not None:
                facts["untraced_wall"] += run.wall * scale
                facts["traced_wall"] += traced.wall * scale
                facts["traced_words"] += traced.words
        if tracer is not None:
            tracer.fold(scale)
        segment.clear()

    def attempt(item, patches=None):
        start = time.perf_counter()
        try:
            with patches or contextlib.nullcontext():
                wall, raw = wl.execute(item)
            return wl.verify(item, wall, raw)
        except Exception as exc:  # a raising item fails its words; the run goes on
            wall = time.perf_counter() - start
            return ItemRun(wall=wall, words=item.words, failed=item.words, right=0,
                           errors=[f"{item.key}: raised {exc!r}"])

    with Patches() as patches:
        wl.hooks(patches)
        while n < len(wl.items) or elapsed < seconds:
            if not segment:
                speed.start_segment()
            item = wl.items[n % len(wl.items)]
            n += 1
            run = attempt(item)
            runs.setdefault(item.key, []).append(run)
            wall = run.wall
            traced = None
            if tracer is not None:
                traced = attempt(item, tracer.installed())
                wall += traced.wall
                if traced.digest != run.digest:
                    run.errors.append(f"{item.key}: traced outputs differ from untraced outputs")
            segment.append((run, traced))
            elapsed += wall
            segment_s += wall
            if segment_s >= Speed.SEGMENT_S:
                close_segment()
                segment_s = 0.0
        if segment:
            close_segment()
    return runs, facts


def end_to_end(wl, runs: dict, setup_times: list) -> tuple[dict, dict]:
    """End-to-end metrics and the per-workload detail behind them."""
    from workloads import sha256

    all_runs = [r for rs in runs.values() for r in rs]
    first = [runs[item.key][0] for item in wl.items]
    per_op: dict = {}
    groups: dict = {}
    for r in all_runs:
        for key, lat in r.latencies.items():
            per_op.setdefault(key, []).append(lat * r.scale)
        groups.update(r.groups)
    # Segments take turns on the CPUs, so one op's or item's repeats can
    # fall into two speed modes; their mean is steadier than their median.
    op_ms = {key: statistics.fmean(v) * 1e3 for key, v in per_op.items()}
    item_s = [statistics.fmean([r.wall * r.scale for r in runs[item.key]]) for item in wl.items]
    words = sum(r.words for r in first)
    right = sum(r.right for r in first)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "words_per_s": sum(r.words for r in all_runs) / sum(r.wall * r.scale for r in all_runs),
        "request_s_p50": statistics.median(item_s),
        "word_ms_p50": percentile(list(op_ms.values()), 50),
        "word_ms_p90": percentile(list(op_ms.values()), 90),
        "accuracy": right / words,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "error_rate": 1.0 - right / words,
        "items": len(wl.items),
        "executions": len(all_runs),
        "timed_s": sum(r.wall for r in all_runs),
        "words_attempted": sum(r.words for r in all_runs),
        "word_samples": len(op_ms),
        "setup_s_each": setup_times,
        # unscaled figures, as the wall clock read them
        "raw_request_s_p50": statistics.median(
            [statistics.fmean([r.wall for r in runs[item.key]]) for item in wl.items]),
        "raw_words_per_s": sum(r.words for r in all_runs) / sum(r.wall for r in all_runs),
    }
    # the names the workloads are usually discussed by
    if wl.name == "page":
        detail["page_s_p50"] = metrics["request_s_p50"]
    if wl.name == "train":
        detail["train_s"] = metrics["request_s_p50"]
    for g in sorted(set(groups.values()), key=lambda g: int(g[1:])):
        ms = [op_ms[k] for k, grp in groups.items() if grp == g]
        detail[f"word_ms_p50.{g}"] = percentile(ms, 50)
        detail[f"word_ms_p90.{g}"] = percentile(ms, 90)
    nondeterministic = [k for k, rs in runs.items() if len({r.digest for r in rs}) != 1]
    digest = sha256(*(r.digest.encode() for r in first))
    return metrics, {"detail": detail, "digest": digest, "nondeterministic": nondeterministic}


def per_layer(tracer, facts: dict) -> tuple[dict, dict]:
    """Per-layer self time and calls per word, remainder and overhead."""
    from tracing import SPAN_NAMES, calls_name

    words = facts["traced_words"]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[name] = tracer.self_ns.get(name, 0) / 1e9 / words
        metrics[calls_name(name)] = tracer.calls.get(name, 0) / words
    metrics["morphology.pixels"] = tracer.pixels / words
    attributed = sum(tracer.self_ns.values()) / 1e9
    metrics["unattributed_s"] = (facts["traced_wall"] - attributed) / words
    metrics["trace.overhead"] = facts["traced_wall"] / facts["untraced_wall"] - 1.0
    # share of traced wall time per module, for reading the trace at a glance
    shares: dict = {}
    for name, ns in tracer.self_ns.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + ns / 1e9 / facts["traced_wall"]
    shares["unattributed"] = metrics["unattributed_s"] * words / facts["traced_wall"]
    extra = {name: ns / 1e9 / words for name, ns in tracer.self_ns.items()
             if name not in SPAN_NAMES}
    return metrics, {"module_share": shares, "undeclared_s": extra,
                     "traced_words": words, "traced_wall_s": facts["traced_wall"],
                     "untraced_wall_s": facts["untraced_wall"]}


def run_once(args) -> int:
    try:
        modules = import_library()
    except ImportError as exc:
        print(f"bench: cannot import scriptid from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    spec = load_spec()
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](small=args.small)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    errors: list = []
    speed = Speed()
    try:
        setup_times, input_digests = [], []
        for r in range(SETUP_REPEATS):
            d = workdir / f"setup{r}"
            d.mkdir()
            speed.start_segment()
            start = time.perf_counter()
            wl.setup(args.seed, d)
            setup_times.append((time.perf_counter() - start) * speed.end_segment())
            input_digests.append(wl.input_digest)
        if len(set(input_digests)) != 1:
            errors.append("one seed generated different inputs in different set-ups")
        tracer = Tracer(modules) if args.trace else None
        runs, facts = timed_phase(wl, args.seconds, speed, tracer)
    finally:
        speed.release()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, info = end_to_end(wl, runs, setup_times)
    info["detail"]["probe_ms_p50"] = statistics.median(speed.samples) * 1e3
    computed = e2e
    layer_info = {}
    if tracer is not None:
        computed, layer_info = per_layer(tracer, facts)
    all_runs = [r for rs in runs.values() for r in rs]
    for r in all_runs:
        errors.extend(r.errors)
    errors.extend(f"{k}: outputs differ between executions" for k in info["nondeterministic"])
    if e2e["accuracy"] < ACCURACY_FLOOR:
        errors.append(f"accuracy {e2e['accuracy']:.4f} is below {ACCURACY_FLOOR}")
    attempted = sum(r.words for r in all_runs)
    failed = sum(r.failed for r in all_runs)
    correct = not errors and failed == 0

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    result = {
        "provenance": provenance(args.seed, args.seconds, workload=args.workload,
                                 trace=args.trace, small=args.small),
        "result": line,
        "end_to_end": {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]},
        "detail": info["detail"],
        "digest": info["digest"],
        "input_digest": input_digests[0],
        "trace": layer_info,
        "errors": errors[:50],
    }
    out = Path(args.out) if args.out else \
        OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    d = info["detail"]
    print(f"bench {args.workload} seed={args.seed} trace={args.trace}: {d['executions']} "
          f"executions of {d['items']} items, {d['words_attempted']} words, "
          f"{d['timed_s']:.2f} s timed")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    detail_units = {"page_s": "s", "train_s": "s", "word_ms": "ms", "error_rate": "ratio"}
    for name, value in d.items():
        unit = next((u for prefix, u in detail_units.items() if name.startswith(prefix)), None)
        if unit:
            print(f"  {name:34s} {value:.6g} {unit}")
    for module, share in sorted(layer_info.get("module_share", {}).items(), key=lambda x: -x[1]):
        print(f"  share.{module:28s} {share:.1%}")
    for e in errors[:10]:
        print(f"  CHECK FAILED: {e}")
    print(f"digest sha256:{info['digest']}")
    print(f"results -> {out}")
    print(json.dumps(line))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# all workloads, accuracy matrix


def run_child(name: str, seed: int, seconds: float, trace: int, small: bool, out: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    if small:
        cmd.append("--small")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else {}
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{' '.join(cmd)} printed no result line (exit {proc.returncode})")
    result = json.loads(out.read_text())
    result["exit_code"] = proc.returncode
    return result


def accuracy_matrix(seed: int, small: bool, workdir: Path) -> list:
    """Leave-one-out accuracy over noise x skew on a ``gen-corpus`` corpus (untimed)."""
    import io

    modules = import_library()
    per_class = "20" if small else "150"
    cells = []
    for noise in MATRIX_NOISE:
        for skew in MATRIX_SKEW:
            d = workdir / f"noise{noise}-skew{skew}"
            with contextlib.redirect_stdout(io.StringIO()):
                rcs = [
                    modules.cli.main(["--seed", str(seed), "gen-corpus", "--out", str(d),
                                      "--per-class", per_class, "--skew", str(skew),
                                      "--noise", str(noise)]),
                    modules.cli.main(["extract", str(d), "--out", f"{d}.csv"]),
                    modules.cli.main(["evaluate", f"{d}.csv", "--loo",
                                      "--report", f"{d}.txt"]),
                ]
            if any(rcs):
                raise RuntimeError(f"accuracy matrix cell noise={noise} skew={skew}: exit {rcs}")
            report = dict(line.split(",", 1) for line in Path(f"{d}.txt").read_text().splitlines()
                          if "," in line)
            nn, knn = report["overall"].split(",")
            cells.append({"noise": noise, "skew": skew, "heights": [10, 36],
                          "samples": 3 * int(per_class),
                          "nn_accuracy": float(nn), "knn_accuracy": float(knn)})
    return cells


def run_all(args) -> int:
    spec = load_spec()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="all-", dir=OUT_DIR))
    ok = True
    results = {"provenance": provenance(args.seed, args.seconds, reps=args.reps, small=args.small),
               "metrics": spec, "workloads": {}}
    try:
        for w in spec["workloads"]:
            name = w["name"]
            runs = [run_child(name, args.seed + r, args.seconds, 0, args.small,
                              workdir / f"{name}-{r}.json") for r in range(args.reps)]
            traced = run_child(name, args.seed, args.seconds, 1, args.small,
                               workdir / f"{name}-trace.json")
            summary = {}
            for m in spec["end_to_end"]:
                q1, med, q3 = quartiles([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"]}
            checks = [f"{name} seed {r['provenance']['seed']}: {e}"
                      for r in runs + [traced] for e in r["errors"]]
            checks += [f"{name} seed {r['provenance']['seed']}: exit {r['exit_code']}"
                       for r in runs + [traced] if r["exit_code"] != 0]
            if traced["digest"] != runs[0]["digest"]:
                checks.append(f"{name}: traced and untraced runs of seed {args.seed} "
                              "give different outputs")
            ok = ok and not checks
            results["workloads"][name] = {
                "summary": summary,
                "runs": [{k: r[k] for k in ("provenance", "result", "detail", "digest")}
                         for r in runs],
                "trace": {"metrics": traced["result"]["metrics"], **traced["trace"]},
                "digest": runs[0]["digest"],
                "traced_digest": traced["digest"],
                "checks_failed": checks,
            }
        results["accuracy_matrix"] = accuracy_matrix(args.seed, args.small, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = Path(args.out) if args.out else OUT_DIR / f"all-seed{args.seed}.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    for name, w in results["workloads"].items():
        print(f"{name}  ({args.reps} runs, seeds {args.seed}..{args.seed + args.reps - 1}; "
              f"digest {w['digest'][:16]})")
        for metric, s in w["summary"].items():
            print(f"  {metric:16s} {s['median']:12.6g} {s['unit']:6s} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]")
        shares = sorted(w["trace"]["module_share"].items(), key=lambda x: -x[1])
        print("  traced shares: " + ", ".join(f"{m} {v:.1%}" for m, v in shares))
        for c in w["checks_failed"][:10]:
            print(f"  CHECK FAILED: {c}")
    print("LOO accuracy (noise x skew): " + ", ".join(
        f"{c['noise']}/{c['skew']}: knn {c['knn_accuracy']:.4f}"
        for c in results["accuracy_matrix"]))
    print(f"results -> {out}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# compare


def _workload_runs(results: dict) -> dict:
    """{workload: (end-to-end values per metric, traced per-layer values, digest)}."""
    if "workloads" in results:
        return {
            name: ({m: [r["result"]["metrics"][m]["value"] for r in w["runs"]]
                    for m in w["summary"]},
                   {m: v["value"] for m, v in w["trace"]["metrics"].items()},
                   w["digest"])
            for name, w in results["workloads"].items()
        }
    # a single-run results file
    name = results["provenance"]["workload"]
    layers = results["result"]["metrics"] if results["provenance"]["trace"] else {}
    return {name: ({m: [v["value"]] for m, v in results["end_to_end"].items()},
                   {m: v["value"] for m, v in layers.items()}, results["digest"])}


def verdict(old: list, new: list, better: str, bound: float) -> tuple[float, str]:
    """Signed change toward worse, as a share of the parent median, and a verdict."""
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    worse = (nm - om) / om if better == "lower" else (om - nm) / om
    spread = max((o3 - o1) / om, (n3 - n1) / nm)
    all_better = max(new) < min(old) if better == "lower" else min(new) > max(old)
    if spread > bound and not all_better:
        return worse, "unresolved"
    return worse, ("worse" if worse > bound else "within bound")


def compare(old_path: str, new_path: str) -> int:
    spec = load_spec()
    old_all = _workload_runs(json.loads(Path(old_path).read_text()))
    new_all = _workload_runs(json.loads(Path(new_path).read_text()))
    status = 0
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in old_all or name not in new_all:
            continue
        (old, old_layers, old_digest), (new, new_layers, new_digest) = old_all[name], new_all[name]
        same = "same" if old_digest == new_digest else "DIFFERENT"
        print(f"{name}: outputs {same} (parent {old_digest[:16]}, change {new_digest[:16]})")
        if old_digest != new_digest:
            status = 1
        print(f"  {'metric':16s} {'unit':6s} {'parent median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'worse by':>9s} {'bound':>6s}  verdict")
        for m in spec["end_to_end"]:
            o, n = old.get(m["name"]), new.get(m["name"])
            if not o or not n:
                continue
            worse, v = verdict(o, n, m["better"], m["bound"])
            status = 1 if v == "worse" else status
            cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (quartiles(o), quartiles(n))]
            print(f"  {m['name']:16s} {m['unit']:6s} {cells[0]:34s} {cells[1]:34s} "
                  f"{worse:+9.1%} {m['bound']:6.0%}  {v}")
        if old_layers and new_layers:
            print(f"  {'per-layer self time (s/word)':34s} {'parent':>11s} {'change':>11s} "
                  f"{'delta':>11s} {'ratio':>7s}")
            for m in spec["per_layer"]:
                if m["unit"] != "s/word":
                    continue
                a, b = old_layers.get(m["name"], 0.0), new_layers.get(m["name"], 0.0)
                if a == 0.0 and b == 0.0:
                    continue
                ratio = f"{b / a:7.3f}" if a else "    new"
                print(f"  {m['name']:34s} {a:11.4g} {b:11.4g} {b - a:+11.3g} {ratio}")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description="Seeded scriptid benchmark.")
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                   help="run one workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="results file")
    p.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--all", action="store_true", help="every workload, --reps times each")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("one of --workload, --all or --compare is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
