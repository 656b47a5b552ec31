"""The four benchmark workloads: what each runs through the `robust-oco` CLI,
at which sizes, how its seeds derive from the benchmark seed, how many
operations and learner rounds one invocation holds, and how its outputs are
checked. Sizes are chosen so one invocation takes 1-2 s on a 2-core machine
(see README.md)."""

from __future__ import annotations

import math

import checks

SWEEP_LEARNERS = ("ogd", "learn", "topk", "utopk")


def seed_list(seed: int, n: int) -> list:
    """n master seeds of benchmark seed `seed`; seed bases never overlap."""
    return [seed * 1000 + 1 + i for i in range(n)]


def k_grid(T: int) -> list:
    """{0, floor(sqrt T), floor(T^(2/3)), floor(T/4)}, the paper's corruption grid."""
    k23 = int(round(T ** (2.0 / 3.0)))
    while k23 ** 3 > T * T:
        k23 -= 1
    while (k23 + 1) ** 3 <= T * T:
        k23 += 1
    return [0, math.isqrt(T), k23, T // 4]


class Workload:
    name = ""
    ops = 0            # operations per invocation: episodes, or verify check lines
    seed_rounds = 0    # learner rounds per invocation, summed over cells and seeds

    def argv(self, out: str, seed: int) -> list:
        raise NotImplementedError

    def failed_ops(self, rc: int, stdout: str) -> int:
        return 0 if rc == 0 else self.ops

    def check(self, out: str, stdout: str, seed: int):
        """Output checks of one invocation; raises checks.CheckFailed."""
        raise NotImplementedError


class SvmSweep(Workload):
    name = "svm-sweep"
    T, scale, n_seeds = 100, "0.01", 30
    ks = k_grid(T)
    ops = len(SWEEP_LEARNERS) * len(ks) * n_seeds
    seed_rounds = ops * T

    def argv(self, out, seed):
        return ["sweep", "--preset", "svm", "--scale", self.scale,
                "--seeds", " ".join(map(str, seed_list(seed, self.n_seeds))), "--out", out]

    def check(self, out, stdout, seed):
        seeds = seed_list(seed, self.n_seeds)
        finals = {(lr, k): checks.check_cell(out, lr, k, self.T, seeds)
                  for k in self.ks for lr in SWEEP_LEARNERS}
        for lr in ("topk", "utopk"):
            checks.check_same_bytes(f"{out}/regret_{lr}_k0.csv", f"{out}/regret_ogd_k0.csv")
        for lr in SWEEP_LEARNERS:
            k = self.ks[2]
            checks.check_reference("svm", lr, k, self.T, seeds[0], finals[(lr, k)][seeds[0]])


class Cell(Workload):
    """One (learner, k) cell of a preset through `robust-oco run`."""
    preset = learner = ""
    T = k = n_seeds = 0

    @property
    def ops(self):
        return self.n_seeds

    @property
    def seed_rounds(self):
        return self.n_seeds * self.T

    def argv(self, out, seed):
        return ["run", "--preset", self.preset, "--T", str(self.T), "--k", str(self.k),
                "--learner", self.learner, "--seeds", " ".join(map(str, seed_list(seed, self.n_seeds))),
                "--out", out]

    def check(self, out, stdout, seed):
        seeds = seed_list(seed, self.n_seeds)
        finals = checks.check_cell(out, self.learner, self.k, self.T, seeds)
        checks.check_reference(self.preset, self.learner, self.k, self.T, seeds[0], finals[seeds[0]])


class RidgeCell(Cell):
    name, preset, learner = "ridge-cell", "ridge", "learn"
    T, n_seeds = 10_000, 4
    k = k_grid(T)[2]


class ExpertsSvm(Cell):
    name, preset, learner = "experts-svm", "svm", "experts"
    T, n_seeds = 2000, 1
    k = k_grid(T)[1]


class Verify(Workload):
    name = "verify"
    samples = 3000
    theorem_T = 200
    theorem_ks = k_grid(theorem_T)[:3]
    ops = len(checks.ORACLE_CHECKS) + len(theorem_ks)
    seed_rounds = theorem_T * len(theorem_ks)

    def argv(self, out, seed):
        return ["verify", "--samples", str(self.samples), "--seed", str(seed)]

    def failed_ops(self, rc, stdout):
        lines = checks.verify_lines(stdout)
        return self.ops - len(lines) + sum(not ok for _, ok in lines)

    def check(self, out, stdout, seed):
        checks.check_verify(stdout, self.samples, self.theorem_ks)
        from robust_oco import losses, oracle
        checks.check_oracle_detects(oracle, losses)


WORKLOADS = {w.name: w for w in (SvmSweep(), RidgeCell(), ExpertsSvm(), Verify())}
