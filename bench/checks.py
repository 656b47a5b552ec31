"""Output checks for the benchmark workloads.

Each check reads what the program wrote (CSV, manifest or printed check
lines) and raises CheckFailed on the first property that does not hold. The
properties come from the method, not from the program: T rows, finite values,
a non-negative standard error, a non-decreasing mean regret (every clean-round
term is >= 0 against the exact minimizer, corrupted rounds add zero), a
manifest whose mean agrees with its per-seed finals and the CSV, and a final
regret reproduced by the reference loop in reference.py.
"""

from __future__ import annotations

import configparser
import math
import re

import numpy as np

import reference

REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def check_csv(path: str, T: int) -> str:
    """The regret CSV; returns its last row's mean_regret text."""
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    _require(lines[0] == "t,mean_regret,stderr_regret", f"{path}: bad header {lines[0]!r}")
    _require(lines[-1] == "", f"{path}: missing final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    _require(len(rows) == T, f"{path}: {len(rows)} rows, expected T={T}")
    _require(all(len(r) == 3 for r in rows), f"{path}: a row does not have 3 fields")
    t = np.array([int(r[0]) for r in rows])
    _require(np.array_equal(t, np.arange(1, T + 1)), f"{path}: t is not 1..{T}")
    mean = np.array([float(r[1]) for r in rows])
    stderr = np.array([float(r[2]) for r in rows])
    _require(bool(np.isfinite(mean).all() and np.isfinite(stderr).all()), f"{path}: non-finite value")
    _require(bool((stderr >= 0).all()), f"{path}: negative stderr_regret")
    drops = np.flatnonzero(np.diff(mean) < 0)
    _require(drops.size == 0, f"{path}: mean_regret decreases after t={drops[0] + 1 if drops.size else 0}")
    return rows[-1][1]


def check_manifest(path: str, seeds: list, csv_last_mean: str) -> dict:
    """The cell manifest; returns {seed: final_regret}."""
    cp = configparser.ConfigParser()
    _require(bool(cp.read(path)), f"{path}: unreadable")
    found = sorted(int(s.rsplit(".", 1)[1]) for s in cp.sections() if s.startswith("result.seed."))
    _require(found == sorted(seeds), f"{path}: seeds {found} != {sorted(seeds)}")
    finals = {s: float(cp[f"result.seed.{s}"]["final_regret"]) for s in seeds}
    _require(all(math.isfinite(v) for v in finals.values()), f"{path}: non-finite final_regret")
    mean_text = cp["result"]["mean_final_regret"]
    _require(mean_text == csv_last_mean,
             f"{path}: mean_final_regret {mean_text} != CSV last row {csv_last_mean}")
    mean = float(mean_text)
    expect = sum(finals.values()) / len(finals)
    _require(abs(mean - expect) <= REL_TOL * max(1.0, abs(expect)),
             f"{path}: mean_final_regret {mean} != mean of per-seed finals {expect}")
    return finals


def check_cell(out: str, learner: str, k: int, T: int, seeds: list) -> dict:
    stem = f"{learner}_k{k}"
    last = check_csv(f"{out}/regret_{stem}.csv", T)
    return check_manifest(f"{out}/manifest_{stem}.ini", seeds, last)


def check_same_bytes(path_a: str, path_b: str):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        _require(fa.read() == fb.read(), f"{path_a} and {path_b} differ")


def check_reference(preset: str, learner: str, k: int, T: int, seed: int, program_final: float):
    ref = reference.final_regret(preset, learner, k, T, seed)
    _require(abs(program_final - ref) <= REL_TOL * abs(ref),
             f"{preset} {learner} k={k} seed {seed}: final regret {program_final!r}, reference {ref!r}")


CHECK_LINE = re.compile(r"^(\w+)\s+samples=\s*(\d+) violations=\s*(\d+) worst_slack=\s*(\S+)\s+\[(\w+)\]$")
THEOREM_LINE = re.compile(r"^theorem_bound\[k=(\d+)\]\s+measured=(\S+) bound=(\S+)\s+\[(\w+)\]$")
ORACLE_CHECKS = ("invexity", "exp_trumps_poly", "eta_grad_bound", "eta_f_bound", "eta_dist_bounds",
                 "grad_fd", "euclidean_assumptions")


def verify_lines(stdout: str) -> list:
    """The check lines `robust-oco verify` printed, as (name, ok) pairs."""
    out = []
    for line in stdout.splitlines():
        m = CHECK_LINE.match(line)
        if m:
            out.append((m.group(1), m.group(5) == "ok" and m.group(3) == "0"))
        m = THEOREM_LINE.match(line)
        if m:
            out.append((f"theorem_bound[k={m.group(1)}]", m.group(4) == "ok"))
    return out


def check_verify(stdout: str, samples: int, theorem_ks: list):
    """Every check line reports 0 violations on >= `samples` samples and every
    theorem bound holds with measured <= bound."""
    seen = []
    for line in stdout.splitlines():
        m = CHECK_LINE.match(line)
        if m:
            name, n, v = m.group(1), int(m.group(2)), int(m.group(3))
            _require(n >= samples, f"{name}: {n} samples, requested {samples}")
            _require(v == 0 and m.group(5) == "ok", f"{name}: {v} violations")
            seen.append(name)
            continue
        m = THEOREM_LINE.match(line)
        if m:
            measured, bound = float(m.group(2)), float(m.group(3))
            _require(m.group(4) == "ok" and measured <= bound,
                     f"theorem_bound[k={m.group(1)}]: measured {measured} > bound {bound}")
            seen.append(f"theorem_bound[k={m.group(1)}]")
    expect = list(ORACLE_CHECKS) + [f"theorem_bound[k={k}]" for k in theorem_ks]
    _require(seen == expect, f"verify printed checks {seen}, expected {expect}")
    _require(stdout.rstrip().endswith("all checks passed"), "verify did not report 'all checks passed'")


def check_oracle_detects(oracle, losses):
    """Negative control: eta ||grad f|| <= psi / 1000 must be reported violated
    (the suite's unit-(a, b) ridge case with lam = 0.5 and ||x|| <= 3)."""
    params = losses.LearnParams(a=1.0, b=1.0)
    loss = losses.RoundLoss(family=losses.RIDGE, lam=0.5)
    c = losses.derive_constants(params, G=0.0, L=loss.lam + 18.0, m=loss.lam)
    shrunk = losses.ProblemConstants(**{**c.__dict__, "psi": c.psi / 1000.0})
    rep = oracle.check_eta_grad_bound(params, shrunk, loss, 2000, np.random.default_rng(0))
    _require(rep.violations > 0, "eta_grad_bound reports no violation against psi / 1000")
