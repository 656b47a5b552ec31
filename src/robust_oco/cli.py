"""Command-line frontend: config parsing, experiment orchestration, output.

Subcommands:
    run          one (learner, k) cell over all seeds -> CSV + manifest
    sweep        full learner x k grid of a preset, one CSV per cell
    verify       numerical verification suite + theorem-bound check
    dump-stream  per-round stream dump (JSONL) + final actions per learner

Config files are INI ("flat key-value text with dotted sections"). Every
key is one row of KEYS, which also gives its CLI flag; a section or key that
KEYS does not know is a usage error. Values layer preset < file < flag, and
the effective configuration is echoed into the run manifest, which is itself
a loadable config file. The env var ROBUST_OCO_SEED rebases the default seed
list (explicit seeds win). Exit codes: 0 success, 1 runtime failure (a run
whose loss became non-finite included) or verification violation, 2
usage/config error.

Every output file is made by _create, which unlinks what the path holds and
creates a new file there. A rerun into the same directory thus replaces each
CSV and manifest instead of truncating the old file and rewriting its blocks
in place (on ext4, closing a file that was truncated to zero starts its
writeback, which the run then waits on), and a run cut short mid-write never
leaves the new head of a file on an old tail. A symlink or hard link at an
output path is replaced, not written through: its target, or the file's
other name, keeps the old bytes. The new file takes the umask's mode, and a
path that is a directory fails (exit 1). dump-stream writes stream.jsonl
under a temporary name and renames it into place only once its pass has
finished and final_thetas.json is written, so a failing dump leaves an
earlier stream.jsonl as it was.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import os
import sys
from dataclasses import replace
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import harness, oracle
from . import stream as st
from .harness import LEARN, OGD, TOPK, UTOPK, RunConfig, preset_config, run_cell

SWEEP_LEARNERS = (OGD, LEARN, TOPK, UTOPK)


class UsageError(Exception):
    pass


def _num(v: float) -> str:
    return repr(float(v))  # the shortest text that parses back to the same float


def _seeds(text: str) -> list:
    return [int(p) for p in text.replace(",", " ").split()]


def _alpha(text: str):
    text = text.strip()
    return text if text in ("default", harness.THEORETICAL) else float(text)


class Key(NamedTuple):
    """One configuration key: its INI section and name, the RunConfig attribute
    it sets (dotted; None for the keys load_config reads itself), the CLI flag
    that overrides it, how its text parses and how its value prints (None:
    never written to a manifest)."""

    section: str
    name: str
    attr: str | None
    flag: str | None = None
    parse: Callable = float
    show: Callable | None = _num
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


KEYS = (
    Key("run", "preset", None, parse=str, show=str),  # --preset is load_config's `preset` argument
    Key("run", "t", "T", "--T", int, str),
    Key("run", "seeds", "seeds", "--seeds", _seeds, lambda v: " ".join(map(str, v)),
        "space/comma separated seed list"),
    Key("run", "learner", "learner", "--learner", str, str, "|".join(harness.LEARNERS)),
    Key("run", "k", "k", "--k", int, str),
    Key("run", "alpha", "alpha", "--alpha", _alpha, lambda v: v if isinstance(v, str) else _num(v),
        "step size: number, 'default' (1/sqrt(T)) or 'theoretical' (needs a finite radius; "
        "G and L are measured from the stream)"),
    Key("run", "radius", "radius", "--radius", help="domain radius, 'inf' for unbounded"),
    # scale sets the preset T when t is unset; the manifest records that t instead
    Key("run", "scale", None, "--scale", show=None, help="multiply preset T (k-grid recomputed)"),
    Key("loss", "lam", "lam", "--lam"),
    Key("learn", "a", "params.a", "--a"),
    Key("learn", "b", "params.b", "--b"),
    Key("stream", "dim", "generator.dim", parse=int, show=str),
    Key("stream", "feature_std", "generator.feature_std"),
    Key("stream", "noise_std", "generator.noise_std"),
    Key("stream", "mislabel_prob", "generator.mislabel_prob"),
    Key("stream", "margin_band", "generator.margin_band"),
)
KEY = {(key.section, key.name): key for key in KEYS}


def _default_seeds(n: int) -> list:
    base = os.environ.get("ROBUST_OCO_SEED", "1")
    try:
        start = int(base)
    except ValueError:
        raise UsageError(f"ROBUST_OCO_SEED must be an integer, got {base!r}") from None
    return list(range(start, start + n))


def _values(config: RunConfig) -> dict:
    """Every key's value in `config` (None: unset); the inverse of _build."""
    values = {key: attrgetter(key.attr)(config) for key in KEYS if key.attr}
    values[KEY["run", "preset"]] = config.generator.kind   # the PRESETS key of its data model
    values[KEY["run", "alpha"]] = "default" if config.alpha is None else config.alpha
    return values


def _build(base: RunConfig, values: dict) -> RunConfig:
    """`base` with every key's attribute set from `values`, validated once."""
    top, parts = {}, {}
    for key, value in values.items():
        if key.attr:
            head, _, attr = key.attr.partition(".")
            if attr:
                parts.setdefault(head, {})[attr] = value
            else:
                top[head] = value
    top["alpha"] = None if top["alpha"] == "default" else top["alpha"]
    for head, attrs in parts.items():
        top[head] = replace(getattr(base, head), **attrs)
    return replace(base, **top)


def _read_file(path: str | None) -> dict:
    """The keys a config file sets, parsed. [result*] sections are skipped."""
    if path is None:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        if not cp.read(path):   # read skips a path it cannot open, such as a directory
            raise UsageError(f"config file not readable: {path}")
    except configparser.Error as exc:
        raise UsageError(f"{path}: {exc}") from exc
    values = {}
    for section in cp.sections():
        if section.startswith("result"):
            continue
        if not any(key.section == section for key in KEYS):
            raise UsageError(f"{path}: unknown config section [{section}]")
        for name, text in cp.items(section):
            key = KEY.get((section, name))
            if key is None:
                raise UsageError(f"{path}: unknown config key {name!r} in [{section}]")
            try:
                values[key] = key.parse(text)
            except ValueError as exc:
                raise UsageError(f"{path}: [{section}] {name} = {text!r}: {exc}") from exc
    return values


def load_config(path: str | None, preset: str | None, overrides: dict, fixed: tuple = ()) -> RunConfig:
    """Build the effective RunConfig: preset defaults < config file < CLI flags.

    `overrides` maps a flag's dest to its parsed value; None means not given.
    `fixed` holds the flags of the keys the command sets itself, which the
    file may not set either.
    """
    given = _read_file(path)
    for key in given:
        if key.flag in fixed:
            raise UsageError(f"{path}: [{key.section}] {key.name} is set by the command, not by a config file")
    given.update({key: overrides[key.dest] for key in KEYS
                  if key.flag and overrides.get(key.dest) is not None})
    if preset is None:
        preset = given.get(KEY["run", "preset"])
    if preset is None:
        raise UsageError("no preset given (use --preset ridge|svm or set [run] preset)")
    scale = given.get(KEY["run", "scale"], 1.0)
    if not 0 < scale < math.inf:
        raise UsageError(f"scale must be positive and finite, got {scale!r}")
    if KEY["run", "scale"] in given and KEY["run", "t"] in given:
        raise UsageError("scale multiplies the preset T: it cannot be given with t (--T)")
    try:
        base = preset_config(preset)
        values = _values(base)
        values[KEY["run", "t"]] = max(1, int(round(base.T * scale)))
        values[KEY["run", "seeds"]] = _default_seeds(len(base.seeds))
        values.update(given)
        return _build(base, values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _create(path):
    """A new text file at `path`, open for writing, in place of whatever file or link the path held."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, "x", newline="\n")


MANIFEST_SEED = ("[result.seed.%d]\nfinal_regret = %.12g\nv_t = %.12g\ndelta_s = %.12g\n"
                 "comparator_radius = %.12g\nb_clean = %.12g\n\n")   # one seed's results, 12 significant digits
MANIFEST_RESULT = "[result]\nmean_final_regret = %.12g\nstderr_final_regret = %.12g\n\n"


def write_manifest(path: str, config: RunConfig, result: harness.CellResult):
    """The effective configuration, one section per table section, then the
    results, as the INI text that ConfigParser.write gives and _read_file reads."""
    sections = {}
    values = _values(config)
    for key in KEYS:
        value = values.get(key)
        if value is not None and key.show is not None:
            sections.setdefault(key.section, []).append((key.name, key.show(value)))
    with _create(path) as fh:
        for name, items in sections.items():
            fh.write(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items) + "\n")
        fh.writelines(MANIFEST_SEED % (seed, c.final, c.v_t, c.delta_s, c.comparator_radius, c.b_clean)
                      for seed, c in zip(config.seeds, result.curves))
        fh.write(MANIFEST_RESULT % (result.mean[-1], result.stderr[-1]))


CSV_BLOCK = 1024   # rounds per block of the regret CSV: a block's floats become Python floats at once
CSV_ROW = "%d,%.12g,%.12g\n"   # a row of the regret CSV, each float to 12 significant digits, in one format call


def write_cell_csv(path: str, result: harness.CellResult):
    with _create(path) as fh:
        fh.write("t,mean_regret,stderr_regret\n")
        for t0 in range(0, len(result.mean), CSV_BLOCK):
            block = slice(t0, t0 + CSV_BLOCK)
            rows = zip(range(t0 + 1, t0 + CSV_BLOCK + 1), result.mean[block].tolist(), result.stderr[block].tolist())
            fh.writelines(CSV_ROW % row for row in rows)


def _write_cell(result: harness.CellResult, outdir: str) -> str:
    config = result.config
    csv_path = os.path.join(outdir, f"regret_{config.learner}_k{config.k}.csv")
    write_cell_csv(csv_path, result)
    write_manifest(os.path.join(outdir, f"manifest_{config.learner}_k{config.k}.ini"), config, result)
    return csv_path


def _load(args) -> RunConfig:
    return load_config(args.config, args.preset, _overrides(args), args.fixed)


def cmd_run(args) -> int:
    result = run_cell(_load(args))
    os.makedirs(args.out, exist_ok=True)
    path = _write_cell(result, args.out)
    print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    config = _load(args)
    # one pass: each seed's clean stream is drawn once and every (k, learner) cell plays it
    results = harness.run_cells(config, SWEEP_LEARNERS, st.k_grid(config.T))
    os.makedirs(args.out, exist_ok=True)
    for result in results:
        print(f"wrote {_write_cell(result, args.out)}")
    return 0


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    reports = oracle.default_suite(samples=args.samples, seed=args.seed)
    failed = []
    for rep in oracle.group_reports(reports):
        print(rep.line())
        if rep.violations:
            failed.append(rep.name)
    for check, curve, _ in harness.run_theorem_check(args.seed % 1000 + 1):
        name, status = f"theorem_bound[k={curve.n_outliers}]", "ok" if check.holds else "VIOLATED"
        print(f"{name:28s} measured={check.measured:.6g} bound={check.bound:.6g}  [{status}]")
        if not check.holds:
            failed.append(name)
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def cmd_dump_stream(args) -> int:
    if args.subsample is not None and args.subsample < 1:
        raise UsageError(f"--subsample must be >= 1, got {args.subsample}")
    config = _load(args)
    if len(config.seeds) != 1:
        raise UsageError(f"dump-stream plays one seed, got {len(config.seeds)}: give one with --seeds")
    os.makedirs(args.out, exist_ok=True)
    seed = config.seeds[0]
    rounds = np.arange(config.T)
    if args.subsample is not None and args.subsample < config.T:
        sub_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD0)))
        rounds = np.sort(sub_rng.choice(config.T, size=args.subsample, replace=False))
    thetas = {}

    def write_rounds(stream, t0, X, y_clean, emitted):
        """The kept rounds of a chunk the play draws, as JSON lines."""
        if t0 == 0:
            thetas["theta_star"] = [float(v) for v in stream.theta_star]
        [(y_emitted, idx)] = emitted
        is_outlier = st.outlier_mask(idx, len(X))
        for t in rounds[np.searchsorted(rounds, t0):np.searchsorted(rounds, t0 + len(X))]:
            i = t - t0
            rec = {
                "t": int(t) + 1,
                "is_outlier": bool(is_outlier[i]),
                "x": [float(v) for v in X[i]],
                "y_clean": float(y_clean[i]),
                "y_emitted": float(y_emitted[i]),
            }
            fh.write(json.dumps(rec) + "\n")

    dump_path = os.path.join(args.out, "stream.jsonl")
    thetas_path = os.path.join(args.out, "final_thetas.json")
    part_path = dump_path + ".part"   # renamed onto dump_path once final_thetas.json is written
    try:
        with _create(part_path) as fh:   # written as the one pass draws the seed's stream
            results = harness.run_cells(config, SWEEP_LEARNERS, watch=write_rounds)
        for result in results:
            thetas[result.config.learner] = [float(v) for v in result.final_thetas[0]]
        with _create(thetas_path) as fh:
            json.dump(thetas, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(part_path, dump_path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(part_path)
        raise
    print(f"wrote {dump_path} and {thetas_path}")
    return 0


def _overrides(args) -> dict:
    """The given flags of the key table, by dest."""
    return {key.dest: getattr(args, key.dest) for key in KEYS
            if key.flag and getattr(args, key.dest, None) is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robust-oco",
                                     description="outlier-robust online convex optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, skip=()):
        """--config, --preset, --out and every key's flag but those in `skip`, which the command sets."""
        p.set_defaults(fixed=skip)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", choices=tuple(harness.PRESETS))
        p.add_argument("--out", default="out", help="output directory")
        for key in KEYS:
            if key.flag and key.flag not in skip:
                p.add_argument(key.flag, dest=key.dest, type=key.parse,
                               help=key.help or f"overrides [{key.section}] {key.name}")

    p_run = sub.add_parser("run", help="run one (learner, k) cell")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the full learner x k grid")
    add_common(p_sweep, skip=("--learner", "--k"))
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the numerical verification suite")
    p_verify.add_argument("--samples", type=int, default=100_000)
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.set_defaults(func=cmd_verify)

    p_dump = sub.add_parser("dump-stream", help="dump the generated stream and final actions")
    add_common(p_dump, skip=("--learner",))
    p_dump.add_argument("--subsample", type=int, help="randomly keep this many rounds")
    p_dump.set_defaults(func=cmd_dump_stream)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
