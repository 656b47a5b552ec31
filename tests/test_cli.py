import ast
import configparser
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import robust_oco
from conftest import capture_pools, cli_env, episode_stream, force_chunk_rows
from robust_oco import cli, harness
from robust_oco import stream as st

BENCH = Path(__file__).resolve().parent.parent / "bench"


def run_cli(args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "robust_oco.cli", *args],
        capture_output=True, text=True, env=cli_env(env_extra),
    )


def test_run_writes_csv_and_manifest(tmp_path):
    rc = cli.main(["run", "--preset", "svm", "--T", "60", "--seeds", "1 2",
                   "--learner", "learn", "--k", "6", "--out", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "regret_learn_k6.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,mean_regret,stderr_regret"
    assert len(lines) == 61
    assert all(len(l.split(",")) == 3 for l in lines[1:])
    man = configparser.ConfigParser()
    man.read(tmp_path / "manifest_learn_k6.ini")
    assert man["run"]["t"] == "60" and man["run"]["k"] == "6"
    assert man["run"]["preset"] == "svm" and "family" not in man["loss"]   # the preset fixes the loss
    assert "result.seed.1" in man and "v_t" in man["result.seed.1"]
    assert float(man["result"]["mean_final_regret"]) >= 0.0


EDGE_FLOATS = [math.inf, -math.inf, math.nan, -math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e16, 123456789012.5,
               0.1, 1.0 / 3.0, 2.0 ** 53 + 2, 1.7976931348623157e308]


def test_a_csv_row_is_formatted_as_fmt_formats_each_float(tmp_path):
    # one "%" format of a row writes what two _fmt calls in an f-string wrote,
    # on the edges of %g's notation and of the floats, and so does the CSV
    for m in EDGE_FLOATS:
        for s in EDGE_FLOATS:
            assert cli.CSV_ROW % (12, m, s) == f"12,{cli._fmt(m)},{cli._fmt(s)}\n"
    mean = np.array(EDGE_FLOATS * 80)   # more rows than one CSV block
    stderr = np.roll(mean, 3)
    config = harness.preset_config("svm", T=len(mean), seeds=[1])
    cli.write_cell_csv(tmp_path / "edges.csv", harness.CellResult(config, [], [], mean, stderr))
    rows = "".join(f"{t},{cli._fmt(m)},{cli._fmt(s)}\n" for t, (m, s) in enumerate(zip(mean, stderr), 1))
    assert (tmp_path / "edges.csv").read_text() == "t,mean_regret,stderr_regret\n" + rows


def test_run_ridge_preset_shape(tmp_path):
    rc = cli.main(["run", "--preset", "ridge", "--T", "50", "--seeds", "1 2",
                   "--learner", "ogd", "--k", "0", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "regret_ogd_k0.csv").read_text().splitlines()
    assert len(lines) == 51 and all(len(l.split(",")) == 3 for l in lines)


def test_run_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = cli.main(["run", "--preset", "svm", "--T", "80", "--seeds", "3 4",
                       "--learner", "ogd", "--k", "8", "--out", str(out)])
        assert rc == 0
    c1 = (out1 / "regret_ogd_k8.csv").read_bytes()
    c2 = (out2 / "regret_ogd_k8.csv").read_bytes()
    assert c1 == c2


def test_manifest_round_trip(tmp_path):
    for learner in ("topk", "experts"):
        argv = ["run", "--preset", "svm", "--T", "50", "--seeds", "5", "--learner", learner, "--k", "5"]
        out1, out2 = tmp_path / learner / "first", tmp_path / learner / "second"
        assert cli.main([*argv, "--out", str(out1)]) == 0
        manifest = out1 / f"manifest_{learner}_k5.ini"
        assert config_of(["run", "--config", str(manifest)]) == config_of(argv)
        assert cli.main(["run", "--config", str(manifest), "--out", str(out2)]) == 0
        csv = f"regret_{learner}_k5.csv"
        assert (out1 / csv).read_bytes() == (out2 / csv).read_bytes()


def test_manifest_reads_back_through_the_config_reader(tmp_path):
    config = config_of(["run", "--preset", "ridge", "--T", "30", "--seeds", "2 4", "--learner", "utopk",
                        "--k", "5", "--radius", "2.5", "--lam", "0.003", "--a", "7.5"])
    path = str(tmp_path / "manifest.ini")
    cli.write_manifest(path, config, harness.run_cell(config))
    values = cli._values(config)
    assert cli._read_file(path) == {key: values[key] for key in cli.KEYS if key.show is not None}


def configparser_manifest(config, result) -> str:
    """The manifest text as ConfigParser.write gives it: the reference of write_manifest."""
    cp = configparser.ConfigParser(interpolation=None)
    values = cli._values(config)
    for key in cli.KEYS:
        if values.get(key) is not None and key.show is not None:
            if not cp.has_section(key.section):
                cp.add_section(key.section)
            cp.set(key.section, key.name, key.show(values[key]))
    for seed, curve in zip(config.seeds, result.curves):
        cp[f"result.seed.{seed}"] = {name: cli._fmt(getattr(curve, attr)) for name, attr in (
            ("final_regret", "final"), ("v_t", "v_t"), ("delta_s", "delta_s"),
            ("comparator_radius", "comparator_radius"), ("b_clean", "b_clean"))}
    cp["result"] = {"mean_final_regret": cli._fmt(float(result.mean[-1])),
                    "stderr_final_regret": cli._fmt(float(result.stderr[-1]))}
    text = io.StringIO()
    cp.write(text)
    return text.getvalue()


@pytest.mark.parametrize("argv", [
    ["--preset", "svm", "--T", "40", "--learner", "learn", "--k", "4"],   # 30 seeds, default alpha
    ["--preset", "ridge", "--T", "30", "--seeds", "1 2", "--learner", "learn", "--k", "3",
     "--alpha", "theoretical", "--radius", "5"],
], ids=["default-alpha-30-seeds", "theoretical-radius"])
def test_manifest_bytes_are_configparser_bytes(tmp_path, monkeypatch, argv):
    monkeypatch.delenv("ROBUST_OCO_SEED", raising=False)
    path = tmp_path / "manifest.ini"
    seeds = [1, 2] if "--seeds" in argv else list(range(1, 31))
    for _ in range(2):   # then the manifest as it reloads through --config
        config = config_of(["run", *argv])
        assert config.seeds == seeds
        result = harness.run_cell(config)
        cli.write_manifest(str(path), config, result)
        assert path.read_bytes() == configparser_manifest(config, result).encode()
        argv = ["--config", str(path)]


def test_missing_config_is_usage_error(tmp_path):
    res = run_cli(["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
    assert res.returncode == 2
    assert "nope.ini" in res.stderr


def test_no_preset_is_usage_error(tmp_path):
    res = run_cli(["run", "--out", str(tmp_path)])
    assert res.returncode == 2


def test_sweep_grid(tmp_path):
    rc = cli.main(["sweep", "--preset", "svm", "--T", "40", "--seeds", "1",
                   "--out", str(tmp_path)])
    assert rc == 0
    files = sorted(p.name for p in tmp_path.glob("regret_*.csv"))
    ks = st.k_grid(40)
    expected = sorted(f"regret_{m}_k{k}.csv" for m in ("ogd", "learn", "topk", "utopk") for k in ks)
    assert files == expected
    assert len(files) == 16


def test_sweep_plays_each_k_once_at_small_t(tmp_path, capsys):
    # k_grid(16) is {0, 4, 6, 4}: k = 4 is played and written once
    assert cli.main(["sweep", "--preset", "svm", "--T", "16", "--seeds", "1 2", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(set(lines)) == 12
    assert sorted(p.name for p in tmp_path.glob("regret_*.csv")) == sorted(
        f"regret_{lr}_k{k}.csv" for lr in cli.SWEEP_LEARNERS for k in (0, 4, 6))


def test_sweep_draws_each_stream_once(tmp_path, monkeypatch):
    # the sixteen (k, learner) cells share one stream, one comparator accounting
    # fed once per chunk for every seed and k, and one loop: each seed's stream
    # object is made once per sweep
    seeds, rows, T = [1, 2, 3], 40, 100
    force_chunk_rows(monkeypatch, harness.preset_config("svm", T=T, seeds=seeds), 16, 4, rows)   # 16 cells, 4 k's
    streams, adds, feeds = [], [], []

    class CountedStream(st.EpisodeStream):
        def __init__(self, *args):
            streams.append(args)
            super().__init__(*args)

    add, feed = harness._Comparators.add, harness._Play.feed

    def counted_add(self, t0, *args):
        adds.append(t0)
        return add(self, t0, *args)

    def counted_feed(self, t0, *args):
        feeds.append((len(self.cells), t0))
        return feed(self, t0, *args)

    monkeypatch.setattr(st, "EpisodeStream", CountedStream)
    monkeypatch.setattr(harness._Comparators, "add", counted_add)
    monkeypatch.setattr(harness._Play, "feed", counted_feed)
    assert cli.main(["sweep", "--preset", "svm", "--scale", "0.01", "--seeds", "1 2 3",
                     "--out", str(tmp_path)]) == 0
    chunks = -(-T // rows)
    assert len(list(tmp_path.glob("regret_*.csv"))) == 16
    assert [args[2] for args in streams] == [st.k_grid(T)] * len(seeds)
    assert adds == [0, 40, 80] and chunks == 3
    assert feeds == [(16, 0), (16, 40), (16, 80)]


@pytest.mark.parametrize("argv", [
    ["--preset", "svm", "--T", "70"],
    ["--preset", "ridge", "--T", "40"],
    ["--preset", "ridge", "--T", "40", "--alpha", "theoretical", "--radius", "5"],   # a step size per seed
], ids=["svm", "ridge", "ridge-theoretical"])
def test_sweep_files_equal_each_cells_own_run(tmp_path, argv):
    # the one pass over all sixteen cells writes what each cell's `run` writes, byte for byte
    argv = [*argv, "--seeds", "1 2 3"]
    assert cli.main(["sweep", *argv, "--out", str(tmp_path / "sweep")]) == 0
    T = int(argv[argv.index("--T") + 1])
    names = []
    for k in st.k_grid(T):
        for learner in cli.SWEEP_LEARNERS:
            out = tmp_path / f"run_{learner}_{k}"
            assert cli.main(["run", *argv, "--learner", learner, "--k", str(k), "--out", str(out)]) == 0
            for name in (f"regret_{learner}_k{k}.csv", f"manifest_{learner}_k{k}.ini"):
                assert (tmp_path / "sweep" / name).read_bytes() == (out / name).read_bytes(), name
                names.append(name)
    assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == sorted(set(names)) and len(set(names)) == 32


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_sweep_names_the_earliest_cell_and_writes_nothing(tmp_path, capsys):
    # ridge with alpha = 1 diverges in some cells: the error names the earliest
    # non-finite round over all cells, in k order, then learner order, then seed
    # order on a tie, and the sweep writes no file, not even the cells that finished
    argv = ["--preset", "ridge", "--T", "400", "--seeds", "1 3 2", "--alpha", "1"]
    config = config_of(["sweep", *argv])
    first = {}
    for i, k in enumerate(st.k_grid(config.T)):
        for j, learner in enumerate(cli.SWEEP_LEARNERS):
            for r, seed in enumerate(config.seeds):
                cell = replace(config, k=k, learner=learner)
                try:
                    harness.run_episode(cell, seed)
                except RuntimeError as err:
                    first[int(str(err).split("round ")[1].split()[0]), i, j, r] = f"learner {learner}, k {k}, seed {seed}"
    (t, *_), name = min(first.items())
    assert len({key[1] for key in first}) > 1   # cells of more than one k diverge
    assert cli.main(["sweep", *argv, "--out", str(tmp_path / "out")]) == 1
    assert f"{name}: non-finite loss at round {t} of 400; the run diverged" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_scale_flag(tmp_path):
    rc = cli.main(["sweep", "--preset", "svm", "--scale", "0.004", "--seeds", "1",
                   "--out", str(tmp_path)])
    assert rc == 0
    # scaled T = 40, k grid recomputed from it
    assert (tmp_path / "regret_learn_k11.csv").exists()  # floor(40^{2/3}) = 11


def test_ridge_preset_k_grid_full_scale():
    assert st.k_grid(10 ** 5) == [0, 316, 2154, 25000]


def test_verify_quick(capsys):
    rc = cli.main(["verify", "--samples", "200", "--seed", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out
    for name in ("invexity", "exp_trumps_poly", "eta_grad_bound", "eta_f_bound",
                 "eta_dist_bounds", "grad_fd", "euclidean_assumptions", "theorem_bound"):
        assert name in out


def test_verify_exits_nonzero_on_violation(monkeypatch, capsys):
    from robust_oco import oracle

    def broken_suite(samples, seed):
        return [oracle.CheckReport(name="invexity[x]", samples=samples,
                                   violations=3, worst_slack=-1.0)]

    monkeypatch.setattr(oracle, "default_suite", broken_suite)
    rc = cli.main(["verify", "--samples", "10"])
    assert rc == 1
    assert "invexity" in capsys.readouterr().err


def test_verify_exits_nonzero_on_a_theorem_bound_violation(monkeypatch, capsys):
    check = harness.check_regret_bound

    def broken_at_k14(curve, constants, config):
        result = check(curve, constants, config)
        return replace(result, holds=False, bound=result.measured / 2) if curve.n_outliers == 14 else result

    monkeypatch.setattr(harness, "check_regret_bound", broken_at_k14)
    rc = cli.main(["verify", "--samples", "200", "--seed", "9"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert err.strip() == "FAILED checks: theorem_bound[k=14]"
    verdicts = [line.split()[0] + " " + line.split()[-1] for line in out.splitlines() if "theorem_bound" in line]
    assert verdicts == ["theorem_bound[k=0] [ok]", "theorem_bound[k=14] [VIOLATED]", "theorem_bound[k=34] [ok]"]
    assert "all checks passed" not in out


def test_dump_stream(tmp_path):
    rc = cli.main(["dump-stream", "--preset", "svm", "--T", "600", "--seeds", "1",
                   "--k", "0", "--subsample", "500", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "stream.jsonl").read_text().splitlines()
    assert len(lines) == 500
    recs = [json.loads(l) for l in lines]
    assert all(not r["is_outlier"] for r in recs)  # k = 0
    assert all(set(r) == {"t", "is_outlier", "x", "y_clean", "y_emitted"} for r in recs)
    thetas = json.loads((tmp_path / "final_thetas.json").read_text())
    assert set(thetas) == {"theta_star", "ogd", "learn", "topk", "utopk"}
    assert len(thetas["learn"]) == 2


@pytest.mark.parametrize("argv", [
    ["--preset", "svm", "--T", "300", "--seeds", "2", "--k", "30", "--subsample", "100"],
    ["--preset", "ridge", "--T", "120", "--seeds", "4", "--k", "20"],
], ids=["svm-subsample", "ridge"])
def test_dump_stream_draws_its_seed_once(tmp_path, monkeypatch, argv):
    # stream.jsonl comes from the chunks the one pass draws: one stream object,
    # and the records of the seed's one-block draw, whatever the chunking
    streams = []

    class CountedStream(st.EpisodeStream):
        def __init__(self, *args):
            streams.append(args)
            super().__init__(*args)

    monkeypatch.setattr(st, "EpisodeStream", CountedStream)
    config = config_of(["dump-stream", *argv])
    force_chunk_rows(monkeypatch, config, 4, 1, 7)   # 4 cells, one k: 7 rounds per chunk
    assert cli.main(["dump-stream", *argv, "--out", str(tmp_path)]) == 0
    assert len(streams) == 1
    seed = config.seeds[0]
    theta_star, X, y_clean, y_emitted, mask = episode_stream(config.generator, config.T, config.k, seed)
    rounds = range(config.T)
    if "--subsample" in argv:
        sub_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD0)))
        rounds = np.sort(sub_rng.choice(config.T, size=int(argv[-1]), replace=False))
    expected = "".join(json.dumps({"t": int(t) + 1, "is_outlier": bool(mask[t]), "x": [float(v) for v in X[t]],
                                   "y_clean": float(y_clean[t]), "y_emitted": float(y_emitted[t])}) + "\n"
                       for t in rounds)
    assert (tmp_path / "stream.jsonl").read_text() == expected
    thetas = json.loads((tmp_path / "final_thetas.json").read_text())
    assert thetas["theta_star"] == [float(v) for v in theta_star]


def test_dump_stream_stable_subsample(tmp_path):
    outs = []
    for name in ("p", "q"):
        out = tmp_path / name
        rc = cli.main(["dump-stream", "--preset", "svm", "--T", "300", "--seeds", "2",
                       "--k", "30", "--subsample", "100", "--out", str(out)])
        assert rc == 0
        outs.append((out / "stream.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_dump_stream_marks_outliers(tmp_path):
    rc = cli.main(["dump-stream", "--preset", "svm", "--T", "200", "--seeds", "3",
                   "--k", "50", "--out", str(tmp_path)])
    assert rc == 0
    recs = [json.loads(l) for l in (tmp_path / "stream.jsonl").read_text().splitlines()]
    assert len(recs) == 200
    out_rows = [r for r in recs if r["is_outlier"]]
    assert len(out_rows) == 50
    assert all(r["y_emitted"] == -r["y_clean"] for r in out_rows)
    clean_rows = [r for r in recs if not r["is_outlier"]]
    assert all(r["y_emitted"] == r["y_clean"] for r in clean_rows)


def test_env_seed_override(tmp_path):
    res = run_cli(["run", "--preset", "svm", "--T", "30", "--learner", "ogd",
                   "--k", "0", "--out", str(tmp_path)], env_extra={"ROBUST_OCO_SEED": "100"})
    assert res.returncode == 0
    man = configparser.ConfigParser()
    man.read(tmp_path / "manifest_ogd_k0.ini")
    seeds = man["run"]["seeds"].split()
    assert seeds[0] == "100" and len(seeds) == 30


def test_negative_env_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ROBUST_OCO_SEED", "-3")
    assert cli.main(["run", "--preset", "svm", "--T", "30", "--learner", "ogd",
                     "--k", "0", "--out", str(tmp_path)]) == 2
    assert "seeds must be non-negative, got -3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_explicit_seeds_beat_env(tmp_path):
    res = run_cli(["run", "--preset", "svm", "--T", "30", "--learner", "ogd",
                   "--k", "0", "--seeds", "7", "--out", str(tmp_path)],
                  env_extra={"ROBUST_OCO_SEED": "100"})
    assert res.returncode == 0
    man = configparser.ConfigParser()
    man.read(tmp_path / "manifest_ogd_k0.ini")
    assert man["run"]["seeds"] == "7"


BASE_FILE = {("run", "preset"): "svm", ("run", "t"): "40", ("run", "seeds"): "1 2",
             ("run", "learner"): "topk", ("run", "k"): "4"}
PRESET = harness.preset_config("svm")

# (flag argv, file keys added to BASE_FILE (None drops one), what the key sets,
#  its value from the flag, its value from the file)
FLAG_CASES = {
    "T": (["--T", "30"], {("run", "t"): "50"}, lambda c: c.T, 30, 50),
    "seeds": (["--seeds", "3,4"], {("run", "seeds"): "5 6 7"}, lambda c: c.seeds, [3, 4], [5, 6, 7]),
    "learner": (["--learner", "ogd"], {("run", "learner"): "utopk"}, lambda c: c.learner, "ogd", "utopk"),
    "k0": (["--k", "0"], {("run", "k"): "20"}, lambda c: c.k, 0, 20),
    "alpha": (["--alpha", "0.05"], {("run", "alpha"): "0.2"}, lambda c: c.alpha, 0.05, 0.2),
    "alpha-theoretical": (
        ["--alpha", "theoretical", "--radius", "2"],
        {("run", "alpha"): "0.2"},
        lambda c: (c.alpha, c.radius),
        (harness.THEORETICAL, 2.0), (0.2, math.inf)),
    "radius": (["--radius", "3"], {("run", "radius"): "5.5"}, lambda c: c.radius, 3.0, 5.5),
    "scale": (["--scale", "0.004"], {("run", "t"): None, ("run", "scale"): "0.006"},
              lambda c: c.T, 40, 60),
    "lam": (["--lam", "0.01"], {("loss", "lam"): "0.5"}, lambda c: c.lam, 0.01, 0.5),
    "a": (["--a", "500"], {("learn", "a"): "20"}, lambda c: c.params.a, 500.0, 20.0),
    "b": (["--b", "2"], {("learn", "b"): "3"}, lambda c: c.params.b, 2.0, 3.0),
}


def write_ini(path, keys):
    sections = {}
    for (section, name), text in keys.items():
        if text is not None:
            sections.setdefault(section, {})[name] = text
    cp = configparser.ConfigParser()
    cp.read_dict(sections)
    with open(path, "w") as fh:
        cp.write(fh)


def config_of(argv):
    """The config `robust-oco` builds for argv, by the benchmark's set-up path."""
    args = cli.build_parser().parse_args(argv)
    return cli.load_config(args.config, args.preset, cli._overrides(args))


def test_flag_table_covers_every_run_flag():
    flags = {key.flag for key in cli.KEYS if key.flag}
    cases = {case[0][0] for case in FLAG_CASES.values()}
    assert cases == flags


@pytest.mark.parametrize("case", FLAG_CASES)
def test_config_file_with_overrides(tmp_path, case):
    flag_argv, file_keys, get, flag_value, file_value = FLAG_CASES[case]
    cfg = tmp_path / "exp.ini"
    write_ini(cfg, {**BASE_FILE, **file_keys})
    assert get(PRESET) != file_value != flag_value
    assert get(config_of(["run", "--config", str(cfg)])) == file_value  # file beats preset
    config = config_of(["run", "--config", str(cfg), *flag_argv])
    assert get(config) == flag_value                                  # flag beats file

    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli.main(["run", "--config", str(cfg), *flag_argv, "--out", str(out1)]) == 0
    stem = f"{config.learner}_k{config.k}"
    manifest = out1 / f"manifest_{stem}.ini"
    assert config_of(["run", "--config", str(manifest)]) == config
    assert cli.main(["run", "--config", str(manifest), "--out", str(out2)]) == 0
    assert (out1 / f"regret_{stem}.csv").read_bytes() == (out2 / f"regret_{stem}.csv").read_bytes()


@pytest.mark.parametrize("text, argv, message", [
    pytest.param("[corruption]\noperator = label_flip\n", [], "[corruption]", id="unknown-section"),
    # configparser skips a path it cannot open, such as a directory; the later --config wins
    pytest.param("", ["--config", "."], "config file not readable: .", id="config-directory"),
    pytest.param("[learn]\nc = 1\n", [], "'c' in [learn]", id="unknown-key"),
    pytest.param("", ["--lam", "0"], "lam must be positive", id="lam-zero"),
    pytest.param("[loss]\nlam = -1\n", [], "lam must be", id="lam-negative"),
    # a non-finite model setting would run: b = inf shuts the gate, a = inf fixes it at 1/(1+b), a
    # NaN margin band flips no label, and a NaN lam diverges
    pytest.param("", ["--lam", "nan"], "lam must be positive and finite", id="lam-nan"),
    pytest.param("", ["--a", "inf"], "a and b must be positive and finite", id="a-inf"),
    pytest.param("[learn]\nb = inf\n", [], "a and b must be positive and finite", id="b-inf"),
    pytest.param("[stream]\nmargin_band = nan\n", [], "invalid noise/mislabel configuration",
                 id="margin-band-nan"),
    pytest.param("", ["--alpha", "0"], "alpha must be finite and positive", id="alpha-zero"),
    pytest.param("", ["--alpha", "inf"], "alpha must be finite and positive", id="alpha-inf"),
    pytest.param("alpha = nan\n", [], "alpha must be finite and positive", id="alpha-nan"),
    pytest.param("", ["--radius", "-2"], "radius must be positive", id="radius-negative"),
    pytest.param("", ["--radius", "nan"], "radius must be positive", id="radius-nan"),
    # what the learner or the preset fixes is no key and no flag: the Top-k budget, the
    # expert grid and the loss family
    pytest.param("", ["--topk-budget", "-1"], "unrecognized arguments: --topk-budget",
                 id="topk-budget-negative"),
    pytest.param("topk_budget = 3\n", [], "'topk_budget' in [run]", id="topk-budget-key"),
    pytest.param("[experts]\na_max = 64\n", [], "unknown config section [experts]", id="experts-section"),
    pytest.param("[loss]\nfamily = ridge\n", [], "'family' in [loss]", id="loss-family"),
    # the expert pool reads no alpha
    pytest.param("", ["--learner", "experts", "--alpha", "0.3"], "alpha must be unset", id="experts-alpha"),
    pytest.param("", ["--learner", "experts", "--alpha", "theoretical", "--radius", "3"],
                 "alpha must be unset", id="experts-alpha-theoretical"),
    # nor a radius: its grid holds its own, and the comparators would be projected alone
    pytest.param("", ["--learner", "experts", "--radius", "0.05"], "radius must be inf", id="experts-radius"),
    # dump-stream sets the learner, and sweep the learner and k: no flag or file key sets
    # them; dump-stream plays one seed
    pytest.param("", ["dump-stream", "--learner", "ogd"], "unrecognized arguments: --learner",
                 id="dump-stream-learner"),
    pytest.param("learner = ogd\n", ["dump-stream"], "[run] learner is set by the command",
                 id="dump-stream-learner-key"),
    pytest.param("learner = experts\n", ["sweep"], "[run] learner is set by the command",
                 id="sweep-learner-key"),
    pytest.param("k = 3\n", ["sweep"], "[run] k is set by the command", id="sweep-k-key"),
    pytest.param("", ["dump-stream", "--seeds", "1 2 3"], "dump-stream plays one seed, got 3",
                 id="dump-stream-seeds"),
    # G and L are measured from the stream, B from the clean losses
    pytest.param("[bounds]\nb = 5\ng = 1\nl = 2\n", [], "unknown config section [bounds]", id="bounds-section"),
    pytest.param("", ["dump-stream", "--subsample", "-1"], "--subsample must be >= 1", id="subsample-negative"),
    pytest.param(None, ["verify", "--samples", "0"], "--samples must be >= 1", id="samples-zero"),
    # a repeated seed would count twice in the mean; a negative one seeds nothing
    pytest.param("", ["--seeds", "3 3 4"], "seeds must be distinct, got [3, 3, 4]", id="seeds-repeated"),
    pytest.param("", ["--seeds", "-3"], "seeds must be non-negative, got -3", id="seeds-negative"),
    pytest.param(None, ["verify", "--seed", "-1"], "--seed must be >= 0", id="verify-seed-negative"),
    # an environment variable leads argv, as on a shell's command line
    pytest.param("", ["ROBUST_OCO_SEED=abc"], "error: ROBUST_OCO_SEED must be an integer, got 'abc'",
                 id="env-seed-not-integer"),
    # scale sets T only where t is unset: with t from the file, a flag or a manifest it would be dropped
    pytest.param("", ["--scale", "0.5"], "cannot be given with t", id="scale-with-t"),
    pytest.param("scale = 0.5\n", [], "cannot be given with t", id="scale-with-t-key"),
    pytest.param("", ["--scale", "inf"], "scale must be positive and finite", id="scale-inf"),
])
def test_bad_config_is_usage_error(tmp_path, capsys, monkeypatch, text, argv, message):
    while argv and "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]

    def exit_code(argv):
        try:
            return cli.main(argv)
        except SystemExit as exc:   # argparse rejects an unknown flag itself
            return exc.code

    if text is None:   # verify reads no config file
        assert exit_code(argv) == 2
    else:
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[run]\npreset = svm\nt = 20\nseeds = 1\n" + text)
        command, argv = (argv[0], argv[1:]) if argv[:1] in (["dump-stream"], ["sweep"]) else ("run", argv)
        assert exit_code([command, "--config", str(cfg), *argv, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == (["exp.ini"] if text is not None else [])


@pytest.mark.parametrize("preset", ["ridge", "svm"])
def test_theoretical_step_from_flags_alone(tmp_path, preset):
    argv = ["run", "--preset", preset, "--T", "60", "--seeds", "1 2", "--k", "7",
            "--alpha", "theoretical", "--radius", "5"]
    config = config_of(argv)
    assert (config.alpha, config.radius) == (harness.THEORETICAL, 5.0)
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli.main([*argv, "--out", str(out1)]) == 0
    manifest = out1 / "manifest_learn_k7.ini"
    assert config_of(["run", "--config", str(manifest)]) == config
    assert cli.main(["run", "--config", str(manifest), "--out", str(out2)]) == 0
    assert (out1 / "regret_learn_k7.csv").read_bytes() == (out2 / "regret_learn_k7.csv").read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_run_fails_without_output(tmp_path, capsys):
    rc = cli.main(["run", "--preset", "ridge", "--T", "2000", "--seeds", "1", "--learner", "ogd",
                   "--alpha", "1", "--k", "0", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "seed 1" in err and "non-finite loss at round" in err
    assert list(tmp_path.iterdir()) == []


def test_experts_run_needs_two_rounds(tmp_path, capsys):
    # at T = 1 the expert grid holds one expert and beta = sqrt(8 log N / ...)
    # is 0: the config is rejected before a stream is built, with no output
    argv = ["run", "--preset", "svm", "--seeds", "1", "--learner", "experts"]
    assert cli.main([*argv, "--T", "1", "--out", str(tmp_path / "t1")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the expert pool needs T >= 2: at T = 1 its grid holds one expert, so log N = 0\n"
    assert list(tmp_path.iterdir()) == []
    assert cli.main([*argv, "--T", "2", "--out", str(tmp_path / "t2")]) == 0
    assert (tmp_path / "t2" / "regret_experts_k0.csv").exists()


def test_benchmark_contract(tmp_path, monkeypatch):
    """What the benchmark under bench/ calls in the package resolves, the
    attributes its tracer reads (`--trace 1`) exist as arrays, and every
    workload's set-up (parse the CLI, then load_config) succeeds."""
    monkeypatch.syspath_prepend(str(BENCH))
    import numpy as np
    import tracing
    import workloads

    for module, attr, _, _ in tracing.WRAPS:
        assert callable(getattr(getattr(robust_oco, module), attr)), (module, attr)
    config = harness.preset_config("svm", T=40, seeds=[1], learner=harness.EXPERTS, k=6)
    pools = capture_pools(monkeypatch)
    trace = harness.run_episode(config, 1)
    for obj, attrs in ((pools[0], ("thetas", "step_sizes", "radii", "log_weights")),
                       (trace, ("is_outlier", "theta", "f_emitted", "comparator_clean",
                                "comparator_emitted", "f_at_comparator"))):
        for attr in attrs:
            assert isinstance(getattr(obj, attr), np.ndarray), (type(obj).__name__, attr)
    assert tracing._pool_bytes(None, pools[0]) > 0
    assert tracing._trace_bytes(None, trace) > 0
    # an episode keeps no (T, d) array
    T, d = 2000, 100
    ridge = harness.preset_config("ridge", T=T, seeds=[1], k=44)
    assert tracing._trace_bytes(None, harness.run_episode(ridge, 1)) < T * d * 8
    for wl in workloads.WORKLOADS.values():
        argv = wl.argv(str(tmp_path), 1)
        if argv[0] in ("run", "sweep"):
            config_of(argv)


def test_noqa_imports_are_what_the_tracer_wraps(monkeypatch):
    """Every `# noqa: F401` import line under src/ names only functions that
    bench/tracing.py's WRAPS wraps in that module: such an import is kept
    only so that the tracer finds the name where it wraps it."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    wrapped = {(module, attr) for module, attr, _, _ in tracing.WRAPS}
    kept = set()
    for path in sorted(Path(robust_oco.__file__).parent.glob("*.py")):
        for line in path.read_text().splitlines():
            if "# noqa: F401" in line:
                [node] = ast.parse(line).body
                kept |= {(path.stem, alias.name) for alias in node.names}
    assert kept, "no noqa import line found"
    assert kept <= wrapped, sorted(kept - wrapped)


def test_bench_selftest_passes():
    """The benchmark's own self-test plays every workload at tiny sizes
    through the package and checks its outputs; it writes under .bench_out/."""
    env = {k: v for k, v in os.environ.items() if k != "ROBUST_OCO_SEED"}
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
