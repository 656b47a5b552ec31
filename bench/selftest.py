"""Fast self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs every workload once at tiny sizes, shows that its output checks pass,
then tampers with one output at a time (a CSV row altered or dropped, a
manifest seed dropped, a verify line flipped, ...) and shows that the check
meant to catch it raises. Exits 1 if a check passes tampered output. Takes a
few seconds; writes under .bench_out/selftest/.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads as W  # noqa: E402
from robust_oco import cli, losses, oracle  # noqa: E402

SEED = 7


def tiny():
    sweep = W.SvmSweep()
    sweep.T, sweep.scale, sweep.n_seeds = 20, "0.002", 3
    sweep.ks = W.k_grid(sweep.T)
    ridge = W.RidgeCell()
    ridge.T, ridge.n_seeds = 300, 2
    ridge.k = W.k_grid(ridge.T)[2]
    experts = W.ExpertsSvm()
    experts.T, experts.n_seeds = 64, 1
    experts.k = W.k_grid(experts.T)[1]
    verify = W.Verify()
    verify.samples = 200
    return [sweep, ridge, experts, verify]


def edit_lines(path, fn):
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    fn(lines)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))


def set_field(path, row, col, text):
    def fn(lines):
        fields = lines[row].split(",")
        fields[col] = text
        lines[row] = ",".join(fields)
    edit_lines(path, fn)


def edit_manifest(path, fn):
    cp = configparser.ConfigParser()
    cp.read(path)
    fn(cp)
    with open(path, "w") as fh:
        cp.write(fh)


def episode_cases(wl, stem):
    """(case, expected message fragment, tamper(out_dir)) for a cell's outputs."""
    csv, ini = f"regret_{stem}.csv", f"manifest_{stem}.ini"
    mid, last = wl.T // 2, wl.T
    first_seed = W.seed_list(SEED, wl.n_seeds)[0]

    def drop_seed(cp):
        cp.remove_section(f"result.seed.{first_seed}")

    def shift_mean(cp):
        cp["result"]["mean_final_regret"] = repr(float(cp["result"]["mean_final_regret"]) * 1.001)

    def shift_seed(cp):
        sec = cp[f"result.seed.{first_seed}"]
        sec["final_regret"] = repr(float(sec["final_regret"]) * 1.001)

    return [
        ("csv row value lowered", "decreases",
         lambda out: set_field(f"{out}/{csv}", mid, 1, "-1")),
        ("csv last row dropped", "rows, expected",
         lambda out: edit_lines(f"{out}/{csv}", lambda ls: ls.pop(last))),
        ("csv round index altered", "t is not",
         lambda out: set_field(f"{out}/{csv}", mid, 0, str(mid + 1))),
        ("csv stderr negative", "negative stderr",
         lambda out: set_field(f"{out}/{csv}", mid, 2, "-0.5")),
        ("csv value non-finite", "non-finite",
         lambda out: set_field(f"{out}/{csv}", mid, 2, "nan")),
        ("manifest seed dropped", "seeds",
         lambda out: edit_manifest(f"{out}/{ini}", drop_seed)),
        ("manifest mean altered", "CSV last row",
         lambda out: edit_manifest(f"{out}/{ini}", shift_mean)),
        ("manifest seed final altered", "mean of per-seed",
         lambda out: edit_manifest(f"{out}/{ini}", shift_seed)),
    ]


def verify_cases():
    def sub(old, new):
        return lambda text: text.replace(old, new, 1)

    def flip(text):
        head, _, tail = text.partition("violations=    0")
        return head + "violations=    1" + tail

    return [
        ("check line violated", "violations", flip),
        ("check line under requested samples", "requested",
         lambda t: re.sub(r"samples=\s*\d+", "samples=      1", t, count=1)),
        ("theorem bound exceeded", "> bound", sub("bound=", "bound=-")),
        ("check line dropped", "expected", lambda t: "\n".join(t.splitlines()[1:])),
    ]


def expect_failure(label, fragment, fn) -> bool:
    try:
        fn()
    except checks.CheckFailed as exc:
        ok = fragment in str(exc)
        print(f"{'ok  ' if ok else 'BAD '} {label}: caught ({exc})")
        return ok
    print(f"BAD  {label}: tampered output passed the checks")
    return False


def main() -> int:
    base = os.path.join(ROOT, ".bench_out", "selftest")
    shutil.rmtree(base, ignore_errors=True)
    good = True
    for wl in tiny():
        out = os.path.join(base, wl.name)
        os.makedirs(out)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(wl.argv(out, SEED))
        stdout = buf.getvalue()
        if rc != 0:
            print(f"BAD  {wl.name}: exited {rc}")
            return 1
        wl.check(out, stdout, SEED)
        print(f"ok   {wl.name}: untampered outputs pass")

        if isinstance(wl, W.Verify):
            for case, fragment, tamper in verify_cases():
                good &= expect_failure(f"{wl.name}: {case}", fragment,
                                       lambda: wl.check(out, tamper(stdout), SEED))

            class BlindOracle:
                @staticmethod
                def check_eta_grad_bound(*args):
                    return oracle.CheckReport("eta_grad_bound", 1, 0, 0.0)

            good &= expect_failure(f"{wl.name}: oracle blind to a shrunk psi", "no violation",
                                   lambda: checks.check_oracle_detects(BlindOracle, losses))
            continue

        stem = f"{wl.learner}_k{wl.k}" if isinstance(wl, W.Cell) else f"learn_k{wl.ks[2]}"
        for case, fragment, tamper in episode_cases(wl, stem):
            bad = f"{out}-tampered"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(out, bad)
            tamper(bad)
            good &= expect_failure(f"{wl.name}: {case}", fragment, lambda: wl.check(bad, stdout, SEED))
        if isinstance(wl, W.SvmSweep):
            bad = f"{out}-tampered"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(out, bad)
            set_field(f"{bad}/regret_topk_k0.csv", 1, 2, "0.5")
            good &= expect_failure(f"{wl.name}: topk k=0 differs from ogd k=0", "differ",
                                   lambda: wl.check(bad, stdout, SEED))
        preset = "svm" if isinstance(wl, W.SvmSweep) else wl.preset
        learner, k = ("learn", wl.ks[2]) if isinstance(wl, W.SvmSweep) else (wl.learner, wl.k)
        seed = W.seed_list(SEED, wl.n_seeds)[0]
        finals = checks.check_cell(out, learner, k, wl.T, W.seed_list(SEED, wl.n_seeds))
        good &= expect_failure(f"{wl.name}: final regret off the reference by 1e-8", "reference",
                               lambda: checks.check_reference(preset, learner, k, wl.T, seed,
                                                              finals[seed] * (1 + 1e-8)))
    print("self-test passed" if good else "self-test FAILED")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
