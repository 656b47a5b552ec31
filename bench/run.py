"""Benchmark of robust-oco: run one workload through the `robust-oco` CLI for a
fixed time and print its metrics as one JSON line.

    python3 bench/run.py --blas-threads 1 --workload svm-sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --blas-threads 1 --workload all      # every workload once, as a table

Run from the root of a robust-oco checkout; the package is imported from its
src/ directory. One process and one Python thread drive the load in a closed
loop: the workload's CLI invocation is repeated, each call after the previous
one returns, until --seconds have passed. With --trace 0 the last line holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced invocation (see tracing.py) and the tracing overhead. Outputs go to
.bench_out/<workload>/ under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SPAWNS = 9
REF_S = 0.010   # time of the host-speed reference kernel at the nominal speed of the host

# Interpreter start to an imported robust_oco and a built workload config;
# prints the monotonic clock (shared by all processes) when done.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from robust_oco import cli
args = cli.build_parser().parse_args(sys.argv[2:])
if args.command in ("run", "sweep"):
    cli.load_config(args.config, args.preset, cli._overrides(args))
print(time.monotonic())
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS thread count, set before numpy loads (default 1)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.blas_threads < 1:
        p.error("need --seed >= 0, --seconds > 0 and --blas-threads >= 1")
    return args


def setup_time(argv: list) -> float:
    """Seconds from spawning a fresh interpreter to its built config."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, *argv],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def reference_kernel(np):
    """A fixed kernel of the benchmark's own in the mix the workloads run: Python
    calls, d=2 dot products, d=100 matrix-vector products and element-wise work
    on a 6144-row array. Its time, taken between invocations, follows the speed
    of the shared host."""
    rng = np.random.default_rng(0)
    small, big, vec = rng.standard_normal(2), rng.standard_normal((100, 100)), rng.standard_normal(100)
    pool = rng.standard_normal((6144, 2))

    def step(x, i):
        return x * 0.75 + i * 0.5

    def kernel() -> float:
        t0 = time.perf_counter()
        x = 0.0
        for i in range(4000):
            x = step(x, i) + float(small @ small)
            if i % 8 == 0:
                big @ vec
            if i % 64 == 0:
                np.exp(-np.abs(pool @ small))
        return time.perf_counter() - t0

    return kernel


def invoke(main, argv, call=None):
    """One closed-loop call of the CLI; returns (exit code, seconds, stdout)."""
    buf = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = main(argv) if call is None else call(main, argv)
    return rc, time.perf_counter() - t0, buf.getvalue()


def snapshot(out: str) -> dict:
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


class Session:
    """The rounds of one run: counts operations and keeps the first good output."""

    def __init__(self, wl, seed, out):
        self.wl, self.seed, self.out = wl, seed, out
        self.attempted = self.failed = 0
        self.first = None       # (files, stdout) of the first successful invocation
        self.problems = []

    def record(self, rc, stdout):
        self.attempted += self.wl.ops
        self.failed += self.wl.failed_ops(rc, stdout)
        if rc != 0:
            return
        got = (snapshot(self.out), stdout)
        if self.first is None:
            self.first = got
        elif got != self.first:
            self.problems.append("outputs differ between invocations of the same inputs")

    def verdict(self, checks) -> bool:
        if self.first is not None:
            try:
                self.wl.check(self.out, self.first[1], self.seed)
            except checks.CheckFailed as exc:
                self.problems.append(str(exc))
        for p in self.problems:
            print(f"check failed: {p}", file=sys.stderr)
        return not self.problems


def run_plain(wl, args, out, cli, np):
    argv = wl.argv(out, args.seed)
    setups = [setup_time(argv) for _ in range(SETUP_SPAWNS)]
    session, walls = Session(wl, args.seed, out), []
    ref = reference_kernel(np)
    refs = [ref()]
    start = time.monotonic()
    while True:
        rc, wall, stdout = invoke(cli.main, argv)
        refs.append(ref())
        walls.append(wall)
        session.record(rc, stdout)
        if time.monotonic() - start >= args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each invocation in units of the reference kernel timed around it, at its nominal time
    wall = REF_S * statistics.median(w / ((a + b) / 2) for w, a, b in zip(walls, refs, refs[1:]))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "seed_rounds_per_s": (wl.seed_rounds / wall, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"{wl.name}: {len(walls)} invocations, unadjusted wall time median {statistics.median(walls):.4f} s "
          f"({min(walls):.4f}..{max(walls):.4f}), reference kernel median {statistics.median(refs) * 1e3:.3f} ms",
          file=sys.stderr)
    return session, metrics


def run_traced(wl, args, out, package, tracing):
    argv = wl.argv(out, args.seed)
    session, plain, traced, layers = Session(wl, args.seed, out), [], [], []
    tracer = tracing.Tracer(package)
    start = time.monotonic()
    while True:
        rc, wall, stdout = invoke(package.cli.main, argv)
        plain.append(wall)
        session.record(rc, stdout)
        first = len(tracer.start)
        tracer.install()
        try:
            rc, wall, stdout = invoke(package.cli.main, argv,
                                      call=lambda main, a: tracer.span("cli.main", main, a))
        finally:
            tracer.remove()
        traced.append(wall)
        session.record(rc, stdout)   # traced outputs must equal the untraced ones byte for byte
        layers.append(tracing.layer_metrics(tracer, first, wl.seed_rounds, plain[-1]))
        if time.monotonic() - start >= args.seconds:
            break
    tracer.save(os.path.join(out, "spans.npz"))
    units = {"per_s": "1/s", "_s": "s", "_us_p50": "us", "_us_p99": "us", "_us": "us", "bytes": "B", "_written": "B",
             "_ratio": "ratio"}
    metrics = {}
    for key in layers[0]:
        unit = next((u for suffix, u in units.items() if key.endswith(suffix)), "count")
        metrics[key] = (statistics.mean(m[key] for m in layers), unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return session, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(args.blas_threads)
    if args.workload == "all":
        import steady
        return steady.print_all(args)
    if not os.path.isdir(os.path.join(SRC, "robust_oco")):
        print(f"error: no robust_oco package under {SRC}; run from a robust-oco checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy

    import checks
    import robust_oco
    import robust_oco.cli
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out = os.path.join(ROOT, ".bench_out", wl.name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    print(f"python {sys.version.split()[0]}, numpy {numpy.__version__}, nproc {os.cpu_count()}, "
          f"BLAS threads {args.blas_threads}", file=sys.stderr)
    if args.trace:
        session, metrics = run_traced(wl, args, out, robust_oco, tracing)
    else:
        session, metrics = run_plain(wl, args, out, robust_oco.cli, numpy)
    result = {
        "correct": session.verdict(checks),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
