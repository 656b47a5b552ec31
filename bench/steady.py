"""Steadiness of the benchmark: two sets of runs of the same code, compared.

    python3 bench/steady.py --runs 10                  # seeds 1-20
    python3 bench/steady.py --runs 10 --seed-base 500  # held-out seeds 500-519

Every workload of BENCHMARK.json runs in two sets of --runs runs. Each run is
`bench/run.py` in its own process, with its own --seed (seed base plus run
index, never reused across sets). For every workload and end-to-end metric it
prints each set's median and quartiles, the spread (interquartile distance
over the median) and whether the sets agree: every spread within the
metric's bound from BENCHMARK.json, the two medians apart by no more than
the bound in either direction, and the same share of failed operations.
setup_s is the exception to the spread test: interpreter start-up drifts
with the shared host between runs by more than any in-run median can hide
(README.md gives the figures). Its spread is printed but not tested; its
medians are. The figures are also written to .bench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_one(workload: str, seed: int, seconds: float, blas_threads: int, trace: int = 0) -> dict:
    """One benchmark run in a fresh process; returns its result object."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--blas-threads", str(blas_threads),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3


def print_all(args) -> int:
    """`run.py --workload all`: every workload once, every metric as a table."""
    spec = load_spec()
    results, ok = {}, True
    for w in spec["workloads"]:
        r = run_one(w["name"], args.seed, args.seconds, args.blas_threads, args.trace)
        results[w["name"]] = r
        ok &= r["correct"]
        print(f"{w['name']}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for name, m in r["metrics"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if ok else 1


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--blas-threads", type=int, default=1)
    args = p.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs = {(s, n): [] for s in range(SETS) for n in names}
    for s in range(SETS):
        for i in range(args.runs):
            seed = args.seed_base + s * args.runs + i
            for n in names:   # interleaved, so a slow spell of the machine hits every workload
                r = run_one(n, seed, spec["run_seconds"], args.blas_threads)
                runs[(s, n)].append(r)
                figures = " ".join(f"{k}={m['value']:.5g}" for k, m in r["metrics"].items())
                print(f"set {s + 1} run {i + 1} {n} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {figures}", file=sys.stderr, flush=True)

    summary, all_ok = {}, True
    print(f"{'workload':12s} {'metric':18s} {'unit':5s} " + "  ".join(
        f"set{s + 1} median [q1, q3] spread" for s in range(SETS)) + "  agree")
    for n in names:
        shares = [sum(r["failed"] for r in runs[(s, n)]) / sum(r["attempted"] for r in runs[(s, n)])
                  for s in range(SETS)]
        correct = all(r["correct"] for s in range(SETS) for r in runs[(s, n)])
        ok_n = correct and len(set(shares)) == 1
        for name, m in bounds.items():
            cells, ok = [], ok_n
            for s in range(SETS):
                med, q1, q3 = quartiles([r["metrics"][name]["value"] for r in runs[(s, n)]])
                spread = (q3 - q1) / med
                cells.append({"median": med, "q1": q1, "q3": q3, "spread": spread})
                ok &= spread <= m["bound"] or name == "setup_s"
            a, b = cells[0]["median"], cells[1]["median"]
            ok &= abs(b - a) / a <= m["bound"]
            all_ok &= ok
            summary[f"{n}/{name}"] = {"sets": cells, "bound": m["bound"], "agree": ok,
                                      "failed_share": shares, "correct": correct}
            print(f"{n:12s} {name:18s} {m['unit']:5s} " + "  ".join(
                f"{c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}] {c['spread']:.3f}" for c in cells)
                + f"  {'yes' if ok else 'NO'}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
