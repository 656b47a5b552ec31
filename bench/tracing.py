"""Span tracer for the traced benchmark run.

Spans are recorded by wrapping, from the benchmark's side, the public
functions of each robust_oco layer in the namespace of the module that calls
them (harness calls `eval_f` through its own import of it, so the wrapper is
installed as `harness.eval_f`). Nothing under src/ changes. Each span carries
a name, start and end (perf_counter_ns), the index of its parent span and
one measured value (bytes, samples or updates, depending on the function).
Spans stay in compact arrays and are written out once, when the run ends.

A span costs time of its own: the bookkeeping before its start stamp and
after its end stamp lands in its parent's time, the rest in its own. Each
install calibrates both parts on a wrapped no-op (`span_cost`), and
`layer_metrics` takes them off every duration and self time, so the figures
estimate the untraced program.
"""

from __future__ import annotations

import os
import statistics
from array import array
from time import perf_counter_ns

import numpy as np

# Result measures: what a span's value records, per wrapped function.


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays))


def _trace_bytes(args, trace):
    return _nbytes(trace.is_outlier, trace.theta, trace.f_emitted, trace.comparator_clean,
                   trace.comparator_emitted, trace.f_at_comparator)


def _pool_bytes(args, pool):
    return _nbytes(pool.thetas, pool.step_sizes, pool.radii, pool.log_weights)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _topk_update(args, result):
    return 0 if result[1] else 1


def _samples(args, report):
    return report.samples


# (module attribute of robust_oco, function, span name, value measure)
WRAPS = [
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "write_cell_csv", "cli.write_cell_csv", _file_bytes),
    ("cli", "write_manifest", "cli.write_manifest", _file_bytes),
    ("cli", "run_cell", "harness.run_cell", None),
    ("harness", "run_episode", "harness.run_episode", _trace_bytes),
    ("harness", "clean_dynamic_regret", "harness.clean_dynamic_regret", None),
    ("harness", "aggregate_runs", "harness.aggregate_runs", None),
    ("harness", "run_theorem_check", "harness.run_theorem_check", None),
    ("harness", "minimizer_rows", "losses.minimizer_rows", None),
    ("harness", "eval_f_rows", "losses.eval_f_rows", None),
    ("harness", "eval_f", "losses.eval_f", None),
    ("harness", "ogd_step", "learners.ogd_step", None),
    ("harness", "learn_step", "learners.learn_step", None),
    ("harness", "topk_filter_step", "learners.topk_filter_step", _topk_update),
    ("harness", "build_grid", "experts.build_grid", None),
    ("harness", "init_pool", "experts.init_pool", _pool_bytes),
    ("harness", "aggregate_action", "experts.aggregate_action", None),
    ("harness", "pool_step", "experts.pool_step", None),
    ("stream", "stream_rngs", "stream.stream_rngs", None),
    ("stream", "resolve_theta_star", "stream.resolve_theta_star", None),
    ("stream", "gen_clean_block", "stream.gen_clean_block", lambda args, r: _nbytes(*r)),
    ("stream", "sample_outlier_rounds", "stream.sample_outlier_rounds", None),
    ("stream", "apply_corruption_block", "stream.apply_corruption_block", lambda args, r: r.nbytes),
    ("stream", "outlier_mask", "stream.outlier_mask", lambda args, r: r.nbytes),
    ("learners", "grad_f", "losses.grad_f", None),
    ("learners", "grad_g", "losses.grad_g", None),
    ("losses", "eval_f", "losses.eval_f", None),
    ("losses", "grad_f", "losses.grad_f", None),
    ("losses", "eta", "losses.eta", None),
    ("experts", "eval_f_many", "losses.eval_f_many", None),
    ("experts", "grad_f_many", "losses.grad_f_many", None),
    ("experts", "eta", "losses.eta", None),
] + [("oracle", f"check_{c}", f"oracle.{c}", _samples) for c in (
    "invexity", "exp_trumps_poly", "eta_grad_bound", "eta_f_bound", "eta_dist_bounds",
    "grad_fd", "euclidean_assumptions")]


class Tracer:
    """Collects spans while installed; `remove` restores every wrapped function."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self.stack = [-1]
        self.final_pools = []      # (n_experts, distinct rows) at each experts episode end
        self._pool = None
        self._saved = []
        self.calibrations = []     # (first span index, inner, outer) ns per span, per install

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, *args, measure=None, **kwargs):
        """Call fn inside a span; the unit every wrapper is built from."""
        i = len(self.start)
        self.name_id.append(self._id(name) if isinstance(name, str) else name)
        self.parent.append(self.stack[-1])
        self.value.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter_ns()
            self.stack.pop()
        if measure is not None:
            self.value[i] = measure(args, result)
        return result

    def install(self):
        self.calibrations.append((len(self.start), *span_cost()))
        for module_name, attr, name, measure in WRAPS:
            module = getattr(self.package, module_name)
            fn = getattr(module, attr)
            if attr == "init_pool":
                measure = self._keep_pool(measure)
            elif attr == "run_episode":
                measure = self._close_pool(measure)
            setattr(module, attr, self._wrapper(self._id(name), fn, measure))
            self._saved.append((module, attr, fn))

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrapper(self, nid, fn, measure):
        span = self.span

        def wrapped(*args, **kwargs):
            return span(nid, fn, *args, measure=measure, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _keep_pool(self, measure):
        def keep(args, pool):
            self._pool = pool
            return measure(args, pool)
        return keep

    def _close_pool(self, measure):
        def close(args, trace):
            if self._pool is not None:
                thetas = self._pool.thetas
                self.final_pools.append((thetas.shape[0], np.unique(thetas, axis=0).shape[0]))
                self._pool = None
            return measure(args, trace)
        return close

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
        }

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names),
                            calibrations=np.array(self.calibrations, dtype=np.int64), **self.arrays())


def span_cost() -> tuple[int, int]:
    """Nanoseconds one span adds inside its own duration (inner) and to its
    parent's time outside it (outer), from timing a wrapped no-op against a
    plain one; the median of 5 rounds of 20 000 calls, each on a scratch tracer."""
    calls = 20000

    def noop(state, s, loss):
        return state

    inner, outer = [], []
    for _ in range(5):
        tracer = Tracer(None)
        wrapped = tracer._wrapper(tracer._id("noop"), noop, None)
        t0 = perf_counter_ns()
        for i in range(calls):
            noop(i, i, i)
        plain = (perf_counter_ns() - t0) / calls
        t0 = perf_counter_ns()
        for i in range(calls):
            wrapped(i, i, i)
        traced = (perf_counter_ns() - t0) / calls
        a = tracer.arrays()
        recorded = float((a["end_ns"] - a["start_ns"]).mean())
        # traced - plain = inner + outer; `recorded` is the inner cost plus the no-op's
        # own call, which is `plain` less the loop's per-call cost
        t0 = perf_counter_ns()
        for i in range(calls):
            pass
        noop_ns = plain - (perf_counter_ns() - t0) / calls
        inner.append(recorded - noop_ns)
        outer.append(traced - plain - inner[-1])
    return round(statistics.median(inner)), round(statistics.median(outer))


def layer_metrics(tracer: Tracer, first: int, seed_rounds: int, untraced_s: float) -> dict:
    """Per-layer figures of the spans recorded from index `first` on (one traced
    invocation of a workload). Times are seconds summed over the invocation.
    `untraced_s` is the wall time of the untraced invocation before it: what
    the calibrated time of the whole traced invocation exceeds it by is the
    tracer's cost that calibration did not take off."""
    a = tracer.arrays()
    name_id, parent = a["name_id"][first:], a["parent"][first:] - first
    raw = (a["end_ns"] - a["start_ns"])[first:]
    value = a["value"][first:]
    n = raw.size
    has_parent = parent >= 0
    child_raw = np.zeros(n, dtype=np.int64)
    np.add.at(child_raw, parent[has_parent], raw[has_parent])
    n_children = np.bincount(parent[has_parent], minlength=n)

    # Take the tracer's own cost off: a span's self time loses its inner cost and
    # the outer cost of each direct child; its duration loses its inner cost and
    # both costs of every descendant, so durations stay self time plus children.
    _, inner, outer = tracer.calibrations[-1]
    self_ns = raw - child_raw - inner - outer * n_children
    depth = np.zeros(n, dtype=np.int64)
    up = parent.copy()
    while (up >= 0).any():
        depth += up >= 0
        up = np.where(up >= 0, parent[np.maximum(up, 0)], -1)
    descendants = np.zeros(n, dtype=np.int64)
    for d in range(int(depth.max(initial=0)), 0, -1):
        at = depth == d
        np.add.at(descendants, parent[at], 1 + descendants[at])
    dur = raw - inner - (inner + outer) * descendants

    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(*names):
        m = np.zeros(n, dtype=bool)
        for name in names:
            if name in ids:
                m |= name_id == ids[name]
        return m

    # index of the enclosing episode span, -1 outside episodes
    episode = mask("harness.run_episode")
    ep_of = np.where(episode, np.arange(n), -1)
    for _ in range(16):   # spans nest only a few levels below an episode
        nxt = np.where((ep_of < 0) & has_parent, ep_of[np.maximum(parent, 0)], ep_of)
        if np.array_equal(nxt, ep_of):
            break
        ep_of = nxt
    in_ep = ep_of >= 0
    below_ep = in_ep & ~episode

    # the episode's own loop time plus every descendant's self time is the episode
    episode_ns = int(dur[episode].sum())
    loop_ns = int(self_ns[episode].sum())
    child_self_ns = int(self_ns[below_ep].sum())
    if loop_ns + child_self_ns != episode_ns:
        raise RuntimeError(f"span self times {loop_ns} + {child_self_ns} do not add to {episode_ns} ns")

    def total_s(*names, where=None):
        m = mask(*names) if where is None else mask(*names) & where
        return float(dur[m].sum()) / 1e9

    def self_s(*names, where=None):
        m = mask(*names) if where is None else mask(*names) & where
        return float(self_ns[m].sum()) / 1e9

    def per_episode_max(*names):
        m = mask(*names) & in_ep
        if not m.any():
            return 0
        return int(np.bincount(ep_of[m], weights=value[m]).max())

    def pct_us(q, *names):
        d = dur[mask(*names)]
        return float(np.percentile(d, q)) / 1e3 if d.size else 0.0

    steps = ("learners.ogd_step", "learners.learn_step", "learners.topk_filter_step")
    topk = mask("learners.topk_filter_step")
    checks = [s for s in tracer.names if s.startswith("oracle.")]
    oracle_samples = int(value[mask(*checks)].sum())
    oracle_s = total_s(*checks)
    pools = tracer.final_pools
    m = {
        "stream.gen_s": total_s("stream.stream_rngs", "stream.resolve_theta_star", "stream.gen_clean_block"),
        "stream.corrupt_s": total_s("stream.sample_outlier_rounds", "stream.apply_corruption_block",
                                    "stream.outlier_mask"),
        "stream.bytes": per_episode_max("stream.gen_clean_block", "stream.apply_corruption_block",
                                        "stream.outlier_mask"),
        "losses.comparators_s": total_s("losses.minimizer_rows", "losses.eval_f_rows"),
        "losses.eval_f_calls": int((mask("losses.eval_f") & in_ep).sum()) / seed_rounds,
        "losses.eval_f_s": self_s("losses.eval_f", "losses.eval_f_many", where=in_ep),
        "losses.grad_s": self_s("losses.grad_f", "losses.grad_g", "losses.eta", "losses.grad_f_many",
                                where=in_ep),
        "learners.step_self_s": self_s(*steps),
        "learners.step_us_p50": pct_us(50, *steps),
        "learners.step_us_p99": pct_us(99, *steps),
        "learners.step_calls": int(mask(*steps).sum()),
        "learners.topk_update_ratio": float(value[topk].mean()) if topk.any() else 0.0,
        "experts.init_s": total_s("experts.build_grid", "experts.init_pool"),
        "experts.pool_step_s": total_s("experts.pool_step"),
        "experts.pool_step_us_p50": pct_us(50, "experts.pool_step"),
        "experts.pool_step_us_p99": pct_us(99, "experts.pool_step"),
        "experts.aggregate_s": total_s("experts.aggregate_action"),
        "experts.n_experts": max((p[0] for p in pools), default=0),
        "experts.distinct_states": float(np.mean([p[1] for p in pools])) if pools else 0.0,
        "experts.state_bytes": int(value[mask("experts.init_pool")].max(initial=0)),
        "harness.episode_s": episode_ns / 1e9,
        "harness.loop_self_s": loop_ns / 1e9,
        "harness.child_self_s": child_self_ns / 1e9,
        "harness.regret_s": total_s("harness.clean_dynamic_regret"),
        "harness.aggregate_s": total_s("harness.aggregate_runs"),
        "harness.trace_bytes": int(value[episode].max(initial=0)),
        "harness.theorem_check_s": total_s("harness.run_theorem_check"),
        "cli.load_config_s": total_s("cli.load_config"),
        "cli.csv_write_s": total_s("cli.write_cell_csv"),
        "cli.manifest_write_s": total_s("cli.write_manifest"),
        "cli.bytes_written": int(value[mask("cli.write_cell_csv", "cli.write_manifest")].sum()),
        "oracle.samples": oracle_samples,
        "oracle.samples_per_s": oracle_samples / oracle_s if oracle_s > 0 else 0.0,
        "trace.span_cost_us": (inner + outer) / 1e3,
        "trace.residual_s": float(dur[~has_parent].sum()) / 1e9 - untraced_s,
    }
    for check in ("invexity", "exp_trumps_poly", "eta_grad_bound", "eta_f_bound", "eta_dist_bounds",
                  "grad_fd", "euclidean_assumptions"):
        m[f"oracle.{check}_s"] = total_s(f"oracle.{check}")
    return m
