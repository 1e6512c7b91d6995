"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 0-9 [--workloads headline,k_sweep]
                                 [--out perfbench/baseline.json]

Run from the repository root.  Each run is `perfbench/run.py` in its own
process with BENCHMARK.json's run_seconds, untraced; for each workload
and end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and their distance as a share of the
median, against the metric's bound.  With --out it also makes one traced
run per workload and writes every figure, with the environment and the
end-to-end metric each per-layer metric should move, to a JSON file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run.py %s seed %d exited %d" % (workload, seed, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2][len("report "):])
    return json.loads(lines[-1]), report


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"), help="range lo-hi")
    p.add_argument("--workloads", default=None, help="comma list (default: all)")
    p.add_argument("--out", default=None, help="write the figures to this JSON file")
    args = p.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    figures = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for name in names:
        results = []
        for seed in args.seeds:
            result, report = run(name, seed, seconds, 0)
            ok &= result["correct"]
            results.append(result)
            print("%s seed %d: %s" % (name, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        entry = figures["workloads"][name] = {
            "end_to_end": {}, "environment": report["environment"]}
        for metric in bench["end_to_end"]:
            s = summary([r["metrics"][metric["name"]]["value"] for r in results])
            entry["end_to_end"][metric["name"]] = s
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (bound %.2f)"
                  % (metric["name"], s["median"], s["q1"], s["q3"], s["spread"], metric["bound"]),
                  flush=True)
        if args.out:
            result, report = run(name, args.seeds[0], seconds, 1)
            ok &= result["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["traced_report"] = report
    if args.out:
        sys.path.insert(0, HERE)
        import spans

        figures["per_layer_moves"] = {name: moves for name, _, _, moves, _ in spans.LAYER_METRICS}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(figures, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
