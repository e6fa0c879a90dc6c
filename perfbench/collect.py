#!/usr/bin/env python3
"""Run the benchmark over two sets of seeds and summarize each workload.

Set A runs seeds 1..N and then set B seeds N+1..2N, one run per seed
and workload, the workloads taking turns within a set.  Each metric
gets its median, min, max and quartiles per set and workload; the
spread is (q3 - q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them.  The end-to-end metrics
of BENCHMARK.json are gated: each spread (but setup_s's) must stay
within the metric's bound, and each set's median within the other's
bound.  The recorded metrics (req_p99_us, fail_ratio, drain_failures)
are summarized but not gated.  With --trace, one traced run per
workload is kept too.

    python3 perfbench/collect.py --out-dir perfbench/results --trace

Writes <out-dir>/<workload>.json (and <workload>.trace.json).  Exits 1
when a run fails, is incorrect, or a gated spread or median is out of
bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDED = ["req_p99_us", "fail_ratio", "drain_failures"]


def run_once(workload, seed, seconds, trace, out, trace_out=None):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0", "--out", out]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    with open(out) as f:
        record = json.load(f)
    return result, record


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def worse_by(metric, base, other):
    """Share by which `other` is worse than `base` for this metric."""
    if base == 0:
        return 0.0 if other == base else float("inf")
    change = (other - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--seeds", type=int, default=10, help="runs per set")
    ap.add_argument("--out-dir", default=os.path.join(".perfbench-runs", "results"))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    sets = ["A", "B"]
    out_dir = os.path.join(ROOT, args.out_dir)
    runs_dir = os.path.join(ROOT, ".perfbench-runs")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(runs_dir, exist_ok=True)
    rev = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip() or "unknown"

    ok = True
    reports = {w: {"workload": w, "rev": rev, "run_seconds": seconds, "sets": {}}
               for w in workloads}
    runs = {w: {name: [] for name in sets} for w in workloads}
    # the sets run one after the other, as two collections of the same
    # code would; the workloads take turns, so each sees the same
    # stretch of host load
    for k, name in enumerate(sets):
        for i in range(args.seeds):
            seed = 1 + k * args.seeds + i
            for w in workloads:
                out = os.path.join(runs_dir, f"{w}-{name}-{seed}.json")
                result, record = run_once(w, seed, seconds, False, out)
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"{w} {name} seed {seed}: incorrect run", file=sys.stderr)
                for key in ("host_cores", "budget", "per_slice", "circuit", "jobs"):
                    reports[w][key] = record[key]
                metrics = {m: v["value"] for m, v in result["metrics"].items()}
                recorded = {m: record["metrics"][m]["value"] for m in RECORDED
                            if m in record["metrics"]}
                runs[w][name].append({"seed": seed, "attempted": result["attempted"],
                                      "failed": result["failed"], "correct": result["correct"],
                                      "repeats": record["repeats"],
                                      "requests": record["requests"],
                                      "latency_samples": record["latency_samples"],
                                      "metrics": metrics, "recorded": recorded})
                print(f"{w} {name} seed {seed}: " + " ".join(
                    f"{m}={v:.6g}" for m, v in {**metrics, **recorded}.items()), flush=True)
    for w in workloads:
        report = reports[w]
        for name in sets:
            set_runs = runs[w][name]
            summary = {}
            for m in e2e:
                s = summarize([r["metrics"][m] for r in set_runs])
                s["unit"] = e2e[m]["unit"]
                s["bound"] = e2e[m]["bound"]
                summary[m] = s
            recorded = {m: summarize([r["recorded"][m] for r in set_runs])
                        for m in RECORDED if m in set_runs[0]["recorded"]}
            report["sets"][name] = {"seeds": [r["seed"] for r in set_runs],
                                    "runs": set_runs, "metrics": summary,
                                    "recorded": recorded}
        a, b = (report["sets"][s]["metrics"] for s in sets)
        agreement = {}
        for m, spec in e2e.items():
            ab = worse_by(spec, a[m]["median"], b[m]["median"])
            ba = worse_by(spec, b[m]["median"], a[m]["median"])
            agreement[m] = {"b_worse_than_a": ab, "a_worse_than_b": ba,
                            "within_bound": max(ab, ba) <= spec["bound"]}
        report["agreement"] = agreement
        for name in sets:
            for m, s in report["sets"][name]["metrics"].items():
                gated = m != "setup_s"
                flag = ""
                if gated and s["spread"] > s["bound"]:
                    flag, ok = "  OUT OF BOUND", False
                elif gated and s["spread"] > s["bound"] / 3:
                    flag = "  above bound/3"
                print(f"{w} set {name} {m}: median {s['median']:.6g} {s['unit']} "
                      f"spread {s['spread']:.4f} (bound {s['bound']}){flag}")
            for m, s in report["sets"][name]["recorded"].items():
                print(f"{w} set {name} {m}: median {s['median']:.6g} "
                      f"spread {s['spread']:.4f} (recorded, not gated)")
        for m, g in agreement.items():
            if not g["within_bound"]:
                ok = False
                print(f"{w} {m}: set medians disagree beyond bound "
                      f"({g['b_worse_than_a']:.4f} / {g['a_worse_than_b']:.4f})")
        with open(os.path.join(out_dir, f"{w}.json"), "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
        if args.trace:
            out = os.path.join(runs_dir, f"{w}-trace.json")
            result, _ = run_once(w, 1, seconds, True, out,
                                 trace_out=os.path.join(out_dir, f"{w}.trace.json"))
            ok = ok and result["correct"]
    print("collect: ok" if ok else "collect: FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
