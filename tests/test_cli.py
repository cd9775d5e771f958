import errno
import hashlib
import os
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from centerhash import centers as C
from centerhash import binfmt, cli, data_io, hamming, pipeline
from centerhash import model as M
from centerhash.cli import main
from centerhash.config import RunConfig, build_run_config, parse_config_text
from centerhash.pipeline import run_pipeline
from test_data_io import write_features_unchecked
from test_model import block_bytes, step_peak
from test_seeds import HEAVY, fresh


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_gen_centers_writes_file(workdir, capsys):
    rc = run_cli("gen-centers", "--k", 16, "--m", 8, "--method", "hadamard",
                 "--seed", 1, "--out", "c.csqh")
    assert rc == 0
    cs = C.load_centers("c.csqh")
    assert cs.m == 8 and cs.k == 16
    assert "valid=True" in capsys.readouterr().out


def test_gen_centers_failure_is_stage_tagged(workdir, capsys):
    rc = run_cli("gen-centers", "--k", 1, "--m", 4, "--out", "c.csqh")
    assert rc != 0
    assert "error [gen-centers]" in capsys.readouterr().err


GEN_CENTERS_PINS = pytest.mark.parametrize("flags, out, sha256", [
    (["--k", 16, "--m", 8], "m=8 k=16 method=hadamard mean_distance=8.000",
     "c389ac91957108f9970f84bb9b9e43766ae6c76220f7821636ad8ed716ac9c13"),
    (["--k", 16, "--m", 24], "m=24 k=16 method=hadamard mean_distance=8.232",
     "173087181c8cc7dc5bf3e953f665d848af52bb844a8511d1a0dfc1f54ccb35a8"),
    (["--k", 48, "--m", 21], "m=21 k=48 method=balanced mean_distance=24.076",
     "6413f5e77ee28df3605623e8328ff976caf32e5e13d6cb595cd33ecaca83f526"),
    (["--k", 24, "--m", 12, "--method", "bernoulli"],
     "m=12 k=24 method=bernoulli mean_distance=12.439",
     "78c50b822a80b8cd80747ddc69d7b862137d886b14fc5eb192ef4bd82598e199"),
    (["--k", 24, "--m", 12, "--method", "balanced"],
     "m=12 k=24 method=balanced mean_distance=12.758",
     "e3a5ff2d7173e82713ff56c1cbf9d807ddf62e386ea863cb1c6b3242c2e39693"),
], ids=["hadamard", "hadamard2k", "balanced-fallback", "bernoulli", "balanced"])


@GEN_CENTERS_PINS
def test_gen_centers_output_is_pinned(workdir, capsys, flags, out, sha256):
    assert run_cli("gen-centers", *flags, "--out", "c.csqh") == 0
    assert capsys.readouterr().out == f"wrote c.csqh: {out} valid=True\n"
    assert hashlib.sha256((workdir / "c.csqh").read_bytes()).hexdigest() == sha256


@GEN_CENTERS_PINS
def test_gen_centers_printed_method_rebuilds_the_file(workdir, capsys, flags, out, sha256):
    method = out.split("method=")[1].split()[0]
    assert run_cli("gen-centers", *flags[:4], "--method", method, "--out", "c.csqh") == 0
    assert capsys.readouterr().out == f"wrote c.csqh: {out} valid=True\n"
    assert hashlib.sha256((workdir / "c.csqh").read_bytes()).hexdigest() == sha256


def test_assign_and_distmat(workdir, capsys):
    run_cli("gen-centers", "--k", 8, "--m", 4, "--out", "c.csqh")
    labels = np.eye(4, dtype=np.uint8)[[0, 1, 2, 3, 0, 2]]
    data_io.save_labels("y.csql", labels)
    rc = run_cli("assign", "--centers", "c.csqh", "--labels", "y.csql",
                 "--seed", 0, "--out", "map.csqc")
    assert rc == 0
    words, k = hamming.load_codes("map.csqc")
    cs = C.load_centers("c.csqh")
    assert k == 8
    assert np.array_equal(hamming.unpack_matrix(words, 8), cs.bits[[0, 1, 2, 3, 0, 2]])

    rc = run_cli("distmat", "--codes", "map.csqc", "--assignments", "y.csql",
                 "--centers", "c.csqh", "--out", "dist.csv")
    assert rc == 0
    lines = open("dist.csv").read().splitlines()
    assert lines[0] == "center_i,center_j,mean_distance"
    assert lines[1] == "0,0,0.0"  # codes sit exactly on their centers here


def test_missing_input_fails_with_stage_tag(workdir, capsys):
    rc = run_cli("assign", "--centers", "nope.csqh", "--labels", "nope.csql", "--out", "m.csqc")
    assert rc == 1
    assert "error [assign]" in capsys.readouterr().err


def full_pipeline_files(workdir, seed=3):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", seed, "--out-prefix", "blob")
    rc = run_cli("gen-centers", "--k", 8, "--m", 4, "--seed", seed, "--out", "c.csqh")
    assert rc == 0
    rc = run_cli("assign", "--centers", "c.csqh", "--labels", "blob.train.csql",
                 "--seed", seed, "--out", "map.csqc")
    assert rc == 0
    rc = run_cli("train", "--features", "blob.train.csqf", "--centers-map", "map.csqc",
                 "--epochs", 15, "--seed", seed, "--out-model", "model.csqm")
    assert rc == 0
    rc = run_cli("encode", "--model", "model.csqm", "--features", "blob.train.csqf",
                 "--out-codes", "db.csqc")
    assert rc == 0
    rc = run_cli("encode", "--model", "model.csqm", "--features", "blob.query.csqf",
                 "--out-codes", "q.csqc")
    assert rc == 0
    rc = run_cli("eval", "--db-codes", "db.csqc", "--db-labels", "blob.train.csql",
                 "--query-codes", "q.csqc", "--query-labels", "blob.query.csql",
                 "--map-n", 20, "--out-report", "report.csv")
    assert rc == 0


def test_stagewise_pipeline(workdir, capsys):
    full_pipeline_files(workdir)
    text = open("report.csv").read()
    assert text.startswith("metric,value\nmap_at_n,")


def test_train_rejects_a_map_of_other_row_count(workdir, capsys):
    # the map has one row per label row, so this is also the labels/features check
    run_cli("synth", "--classes", 2, "--per-class", 4, "--dim", 4, "--spread", 0.1,
            "--seed", 0, "--out-prefix", "blob")
    run_cli("gen-centers", "--k", 8, "--m", 2, "--out", "c.csqh")
    run_cli("assign", "--centers", "c.csqh", "--labels", "blob.query.csql",
            "--out", "map.csqc")
    capsys.readouterr()
    rc = run_cli("train", "--features", "blob.train.csqf", "--centers-map", "map.csqc",
                 "--epochs", 1, "--out-model", "m.csqm")
    assert rc == 1
    assert capsys.readouterr().err == (
        "error [train] center map covers 2 samples, features have 8\n")
    assert not (workdir / "m.csqm").exists()


# k is the map's, and the map has one row per label row; --lambda1 0 drops the quantization loss
@pytest.mark.parametrize("flags", [["--k", "8"], ["--labels", "8"], ["--no-lq"]],
                         ids=["--k", "--labels", "--no-lq"])
def test_train_rejects_removed_flags(workdir, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--features", "x.csqf", "--centers-map", "map.csqc", *flags,
                "--out-model", "m.csqm")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_eval_k_mismatch_rejected(workdir, capsys):
    # k=13 and k=12 codes are both one word per row, so only the files' k tell them apart
    labels = np.eye(2, dtype=np.uint8)[[0, 1]]
    data_io.save_labels("y.csql", labels)
    hamming.save_codes("db.csqc", hamming.pack_matrix(np.zeros((2, 13), np.uint8)), 13)
    hamming.save_codes("q.csqc", hamming.pack_matrix(np.zeros((2, 12), np.uint8)), 12)
    rc = run_cli("eval", "--db-codes", "db.csqc", "--db-labels", "y.csql", "--query-codes",
                 "q.csqc", "--query-labels", "y.csql", "--out-report", "r.csv")
    assert rc == 1
    assert "error [eval] database codes have k=13, queries k=12" in capsys.readouterr().err


def test_eval_rejects_map_n_0_before_reading_a_file(workdir, capsys):
    # none of the four files exists, so a read would fail first
    rc = run_cli("eval", "--db-codes", "db.csqc", "--db-labels", "y.csql", "--query-codes",
                 "q.csqc", "--query-labels", "y.csql", "--map-n", 0, "--out-report", "r.csv")
    assert rc == 1
    assert capsys.readouterr().err == "error [eval] map_n must be at least 1, got 0\n"


def test_eval_label_rows_must_match_the_codes(workdir, capsys):
    # 100 and 97 label rows both fill 13 bytes of each category's bitset
    data_io.save_labels("y.csql", np.eye(3, dtype=np.uint8)[np.arange(97) % 3])
    hamming.save_codes("db.csqc", hamming.pack_matrix(np.zeros((100, 8), np.uint8)), 8)
    rc = run_cli("eval", "--db-codes", "db.csqc", "--db-labels", "y.csql", "--query-codes",
                 "db.csqc", "--query-labels", "y.csql", "--out-report", "r.csv")
    assert rc == 1
    assert capsys.readouterr().err == "error [eval] 100 codes but 97 label rows\n"
    assert not (workdir / "r.csv").exists()

def test_eval_report_bytes_are_pinned(workdir, capsys):
    # seeded codes and labels and no training, so the bytes depend only on the ranking
    # and on how write_report formats floats: every query's top 500 are relevant, and
    # one query's radius-0 ball is empty
    rng = np.random.default_rng(7)
    n, k = 30_000, 32
    centers = rng.integers(0, 2, size=(3, k), dtype=np.uint8)
    classes = np.searchsorted([0.8, 0.95], rng.random(n))
    db_bits = centers[classes] ^ (rng.random((n, k)) < 0.03)
    db_labels = np.eye(3, dtype=np.uint8)[classes]
    db_labels[rng.random(n) < 0.01, 2] = 1
    q_bits = centers[[0, 0, 0, 1, 0]] ^ (rng.random((5, k)) < 0.03)
    q_labels = np.eye(3, dtype=np.uint8)[[0, 0, 0, 1, 0]]
    for name, bits, labels in (("db", db_bits, db_labels), ("q", q_bits, q_labels)):
        hamming.save_codes(f"{name}.csqc", hamming.pack_matrix(bits), k)
        data_io.save_labels(f"{name}.csql", labels)
    assert run_cli("eval", "--db-codes", "db.csqc", "--db-labels", "db.csql",
                   "--query-codes", "q.csqc", "--query-labels", "q.csql", "--map-n", 500,
                   "--out-report", "report.csv") == 0
    data = (workdir / "report.csv").read_bytes()
    head, radii = data.decode().split("\n\nradius,recall,precision\n")
    pr = [line.split(",") for line in radii.splitlines()]
    assert [int(r) for r, _, _ in pr] == list(range(k + 1))
    assert pr[0][2] == "0.8" and pr[-1][1] == "1.0" and f"p_at_h2,{pr[2][2]}\n" in head
    p_at_n = [line.split(",")[1] for line in head.split("rank,precision\n")[1].splitlines()]
    assert p_at_n == ["1.0"] * 500
    assert hashlib.sha256(data).hexdigest() == (
        "7ae088300316230bd8d3829e103c89d4f20a33cb526ba2bd46875379478e03b7")


def test_synth_writes_both_splits(workdir):
    rc = run_cli("synth", "--classes", 3, "--per-class", 10, "--dim", 5, "--spread", 0.2,
                 "--seed", 2, "--out-prefix", "data")
    assert rc == 0
    train, query = (
        data_io.Dataset(data_io.load_features(f"data.{split}.csqf"),
                        data_io.load_labels(f"data.{split}.csql"))
        for split in ("train", "query")
    )
    # default query size is per-class // 10
    assert train.features.shape[0] == 30 and query.features.shape[0] == 3


def test_synth_bad_query_size_writes_neither_split(workdir, capsys):
    rc = run_cli("synth", "--classes", 3, "--per-class", 10, "--dim", 5, "--spread", 0.2,
                 "--query-per-class", 0, "--out-prefix", "data")
    assert rc == 1
    assert capsys.readouterr().err == (
        "error [synth] classes, per_class, and d must all be positive\n")
    assert list(workdir.iterdir()) == []


def write_run_config(path, seed):
    path.write_text(
        "\n".join(
            [
                "train_features = blob.train.csqf",
                "train_labels = blob.train.csql",
                "query_features = blob.query.csqf",
                "query_labels = blob.query.csql",
                "k = 8",
                f"seed = {seed}",
                "epochs = 10",
                "map_n = 20",
                "out_dir = out",
            ]
        )
    )


def test_run_subcommand_and_flag_override(workdir, capsys):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 5, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=5)
    rc = run_cli("run", "--config", "run.cfg", "--epochs", 2)
    assert rc == 0
    assert sorted(path.name for path in (workdir / "out").iterdir()) == [
        "assignments.csqc", "centers.csqh", "db_codes.csqc", "model.csqm",
        "query_codes.csqc", "report.csv"]


def test_run_is_byte_reproducible(workdir):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 6, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=6)
    snapshots = []
    for _ in range(2):
        rc = run_cli("run", "--config", "run.cfg")
        assert rc == 0
        snapshots.append(
            {
                name: (workdir / "out" / name).read_bytes()
                for name in ("centers.csqh", "model.csqm", "db_codes.csqc",
                             "query_codes.csqc", "report.csv")
            }
        )
    assert snapshots[0] == snapshots[1]


def test_run_missing_features_stage_tagged(workdir, capsys):
    write_run_config(workdir / "run.cfg", seed=0)
    rc = run_cli("run", "--config", "run.cfg")
    assert rc == 1
    assert "error [load]" in capsys.readouterr().err


def test_ablation_flags(workdir):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=7)
    assert run_cli("run", "--config", "run.cfg", "--lambda1", 0, "--epochs", 2) == 0
    assert run_cli("run", "--config", "run.cfg", "--no-lc", "--epochs", 2) == 0


def test_run_without_a_loss_term_fails_before_reading_or_writing(workdir, capsys, monkeypatch):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=7)
    opened = spy_on_input_reads(monkeypatch)
    capsys.readouterr()
    assert run_cli("run", "--config", "run.cfg", "--no-lc", "--lambda1", 0, "--out-dir", "y") == 1
    assert capsys.readouterr().err == "error [train] at least one loss term must be enabled\n"
    assert opened == [] and not (workdir / "y").exists()


def test_run_rejects_non_finite_learning_rate(workdir, capsys):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=7)
    assert run_cli("run", "--config", "run.cfg", "--lr", "nan") == 1
    err = capsys.readouterr().err
    assert "error [train]" in err and "learning_rate" in err


def test_diverging_run_writes_one_error_line(workdir):
    # a separate process, so its stderr is what a user sees: no numpy warning ahead of the error
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 1, "--out-prefix", "blob")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(C.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "centerhash.cli", "run", "--train-features", "blob.train.csqf",
         "--train-labels", "blob.train.csql", "--query-features", "blob.query.csqf",
         "--query-labels", "blob.query.csql", "--k", "16", "--epochs", "2", "--map-n", "5",
         "--lr", "1e200"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error [train] model output is not finite (epoch 0, batch 1)\n"


def test_run_rejects_bad_training_setting_before_writing(workdir, capsys):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=7)
    assert run_cli("run", "--config", "run.cfg", "--lr", "nan", "--out-dir", "y") == 1
    assert "error [train]" in capsys.readouterr().err
    assert list(workdir.glob("y/*")) == []


def test_negative_seed_fails_before_any_file_is_read_or_written(workdir, capsys, monkeypatch):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=7)
    assert run_cli("run", "--config", "run.cfg", "--seed", -1, "--out-dir", "y") == 1
    assert capsys.readouterr().err == "error [train] seed must be non-negative, got -1\n"
    assert not (workdir / "y").exists()

    argv = small_train_inputs()
    capsys.readouterr()
    opened = []
    monkeypatch.setattr(data_io, "open_features", opened.append)
    assert run_cli(*argv, "--seed", -1) == 1
    assert capsys.readouterr().err == "error [train] seed must be non-negative, got -1\n"
    assert opened == [] and not (workdir / "m.csqm").exists()


def spy_on_input_reads(monkeypatch):
    """The paths the run stages open through data_io, recorded as each is opened."""
    opened = []
    for name in ("open_features", "load_labels"):
        real = getattr(data_io, name)
        monkeypatch.setattr(data_io, name, lambda path, real=real: opened.append(path) or real(path))
    return opened


@pytest.mark.parametrize("flags", [["--m", "3"], ["--report-out", "r.csv"], ["--no-lq"],
                                   ["--epoch", "1"]],
                         ids=["removed-m", "removed-output-name", "removed-no-lq", "abbreviation"])
def test_run_rejects_removed_and_abbreviated_flags(workdir, capsys, flags):
    write_run_config(workdir / "run.cfg", seed=7)
    with pytest.raises(SystemExit) as exit_info:
        run_cli("run", "--config", "run.cfg", *flags, "--out-dir", "y")
    assert exit_info.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(flags)}\n" in capsys.readouterr().err
    assert not (workdir / "y").exists()


@pytest.mark.parametrize("line, key", [("m = 3", "m"), ("report_out = r.csv", "report_out"),
                                       ("use_lq = false", "use_lq")],
                         ids=["m", "report_out", "use_lq"])
def test_run_rejects_removed_config_keys_before_reading_or_writing(workdir, capsys, monkeypatch,
                                                                  line, key):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=7)
    with open(workdir / "run.cfg", "a") as f:
        f.write(f"\n{line}\n")
    opened = spy_on_input_reads(monkeypatch)
    capsys.readouterr()
    assert run_cli("run", "--config", "run.cfg", "--out-dir", "y") == 1
    assert capsys.readouterr().err == f"error [config] unknown config key {key!r}\n"
    assert opened == [] and not (workdir / "y").exists()


@pytest.mark.parametrize("flags, err", [
    (["--train-features", ""], "error [load] train features are not set\n"),
    (["--query-features", "", "--query-labels", ""],
     "error [load] query features and labels are not set\n"),
], ids=["train", "query"])
def test_run_names_an_unset_split_before_reading_or_writing(workdir, capsys, monkeypatch, flags,
                                                            err):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=7)
    opened = spy_on_input_reads(monkeypatch)
    capsys.readouterr()
    assert run_cli("run", "--config", "run.cfg", *flags, "--out-dir", "y") == 1
    assert capsys.readouterr().err == err
    assert opened == [] and not (workdir / "y").exists()


@pytest.mark.parametrize("half", [["--db-features", "blob.query.csqf"],
                                  ["--db-labels", "blob.query.csql"]])
def test_run_rejects_half_a_database_split(workdir, capsys, half):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=7)
    capsys.readouterr()
    assert run_cli("run", "--config", "run.cfg", *half, "--out-dir", "y") == 1
    assert capsys.readouterr().err == (
        "error [config] db_features and db_labels must be set together\n"
    )
    assert not (workdir / "y").exists()


@pytest.mark.parametrize("split", ["train", "db", "query"])
def test_run_split_length_mismatch_fails_load_and_writes_nothing(workdir, capsys, split):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    data_io.save_labels("short.csql", data_io.load_labels("blob.train.csql")[:79])
    write_run_config(workdir / "run.cfg", seed=7)
    flags = {"train": ["--train-labels", "short.csql"],
             "db": ["--db-features", "blob.train.csqf", "--db-labels", "short.csql"],
             "query": ["--query-features", "blob.train.csqf", "--query-labels", "short.csql"]}
    assert run_cli("run", "--config", "run.cfg", *flags[split], "--out-dir", "y") == 1
    assert capsys.readouterr().err == "error [load] 80 feature rows, 79 label rows\n"
    assert not (workdir / "y").exists()


@pytest.mark.parametrize("flags, err", [
    (["--query-features", "wide.query.csqf", "--query-labels", "wide.query.csql"],
     "error [load] query features have dim 16, train features dim 8\n"),
    (["--db-features", "wide.train.csqf", "--db-labels", "wide.train.csql"],
     "error [load] database features have dim 16, train features dim 8\n"),
    (["--query-labels", "five.csql"],
     "error [load] query labels have 5 categories, database labels 4\n"),
], ids=["query-dim", "database-dim", "query-categories"])
def test_run_rejects_splits_that_disagree_before_writing(workdir, capsys, flags, err):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 16, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "wide")
    labels = data_io.load_labels("blob.query.csql")[:]
    data_io.save_labels("five.csql", np.hstack([labels, np.zeros((len(labels), 1), np.uint8)]))
    write_run_config(workdir / "run.cfg", seed=7)
    capsys.readouterr()
    assert run_cli("run", "--config", "run.cfg", *flags, "--out-dir", "y") == 1
    assert capsys.readouterr().err == err
    assert not (workdir / "y").exists()


@pytest.mark.parametrize("epochs", [0, 2])
def test_train_stage_checks_every_row_before_any_step(workdir, capsys, monkeypatch, epochs):
    # training reads its batches from the file, but a bad row fails before the first
    # step, with no epochs too, and the first bad row in file order is the one named
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    x = data_io.load_features("blob.train.csqf")
    x[[3, 70], 5] = np.inf
    write_features_unchecked("blob.train.csqf", x)
    write_run_config(workdir / "run.cfg", seed=7)
    steps = []
    monkeypatch.setattr(M, "_step", lambda *args: steps.append(args))
    assert run_cli("run", "--config", "run.cfg", "--epochs", epochs) == 1
    assert capsys.readouterr().err == (
        f"error [train] feature row 3 is not finite (byte offset {20 + 4 * 3 * 8})\n")
    assert steps == []


@pytest.mark.parametrize(
    "split, stage, written",
    [("train", "train", ["assignments.csqc", "centers.csqh"]),
     ("query", "encode", ["assignments.csqc", "centers.csqh", "db_codes.csqc", "model.csqm"])],
)
def test_run_non_finite_feature_fails_the_stage_that_reads_it(workdir, capsys, split, stage,
                                                              written):
    # the load stage checks feature headers and lengths only: a row's values are
    # checked by the stage that reads it, after the earlier stages' artifacts
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    x = data_io.load_features(f"blob.{split}.csqf")
    x[3, 5] = np.inf
    write_features_unchecked(f"blob.{split}.csqf", x)
    write_run_config(workdir / "run.cfg", seed=7)
    assert run_cli("run", "--config", "run.cfg", "--epochs", 2) == 1
    offset = 20 + 4 * 3 * 8
    assert capsys.readouterr().err == (
        f"error [{stage}] feature row 3 is not finite (byte offset {offset})\n"
    )
    assert sorted(p.name for p in (workdir / "out").iterdir()) == written


@pytest.mark.parametrize(
    "split, stage, written",
    [("train", "assign", ["centers.csqh"]),
     ("query", "eval", ["assignments.csqc", "centers.csqh", "db_codes.csqc", "model.csqm",
                        "query_codes.csqc"])],
)
def test_run_empty_label_row_fails_the_stage_that_reads_it(workdir, capsys, split, stage,
                                                           written):
    # the load stage checks label headers and lengths only: a row's categories are
    # checked by the stage that reads it, after the earlier stages' artifacts
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 7, "--out-prefix", "blob")
    labels = data_io.load_labels(f"blob.{split}.csql")[:]
    labels[3] = 0
    rows = np.packbits(labels, axis=1, bitorder="little")
    binfmt.save_bit_rows(f"blob.{split}.csql", data_io.MAGIC_LABELS, rows, labels.shape[1])
    write_run_config(workdir / "run.cfg", seed=7)
    assert run_cli("run", "--config", "run.cfg", "--epochs", 2) == 1
    assert capsys.readouterr().err == f"error [{stage}] label row 3 has no category set\n"
    assert sorted(p.name for p in (workdir / "out").iterdir()) == written


def multi_label_split(rng, means, n, path):
    labels = (rng.random((n, len(means))) < 0.3).astype(np.uint8)
    labels[np.arange(n), rng.integers(0, len(means), n)] = 1
    x = labels @ means + 0.1 * rng.standard_normal((n, means.shape[1]))
    data_io.save_features(f"{path}.csqf", x)
    data_io.save_labels(f"{path}.csql", labels)


@pytest.mark.parametrize("single_label", [True, False], ids=["single_label", "multi_label"])
def test_stage_commands_reproduce_run(workdir, single_label):
    """`run` writes what its stage commands write when given the same settings."""
    if single_label:
        run_cli("synth", "--classes", 5, "--per-class", 16, "--dim", 8, "--spread", 0.2,
                "--seed", 4, "--out-prefix", "blob")
        db = "blob.train"
    else:
        rng = np.random.default_rng(4)
        means = rng.standard_normal((5, 8))
        for split, n in (("train", 80), ("db", 60), ("query", 12)):
            multi_label_split(rng, means, n, f"blob.{split}")
        db = "blob.db"
    settings = ["--epochs", 3, "--batch", 8, "--lr", 0.05, "--seed", 4]
    assert run_cli("run", "--train-features", "blob.train.csqf",
                   "--train-labels", "blob.train.csql", "--db-features", f"{db}.csqf",
                   "--db-labels", f"{db}.csql", "--query-features", "blob.query.csqf",
                   "--query-labels", "blob.query.csql", "--k", 16, "--method", "bernoulli",
                   "--map-n", 30, *settings, "--out-dir", "run") == 0
    os.mkdir("stages")
    commands = [
        ["gen-centers", "--k", 16, "--m", 5, "--method", "bernoulli", "--seed", 4,
         "--out", "stages/centers.csqh"],
        ["assign", "--centers", "stages/centers.csqh", "--labels", "blob.train.csql",
         "--seed", 4, "--out", "stages/assignments.csqc"],
        ["train", "--features", "blob.train.csqf", "--centers-map", "stages/assignments.csqc",
         *settings, "--out-model", "stages/model.csqm"],
        ["encode", "--model", "stages/model.csqm", "--features", f"{db}.csqf",
         "--out-codes", "stages/db_codes.csqc"],
        ["encode", "--model", "stages/model.csqm", "--features", "blob.query.csqf",
         "--out-codes", "stages/query_codes.csqc"],
        ["eval", "--db-codes", "stages/db_codes.csqc", "--db-labels", f"{db}.csql",
         "--query-codes", "stages/query_codes.csqc", "--query-labels", "blob.query.csql",
         "--map-n", 30, "--out-report", "stages/eval.csv"],
    ]
    if single_label:
        commands.append(["distmat", "--codes", "stages/db_codes.csqc", "--assignments",
                         f"{db}.csql", "--centers", "stages/centers.csqh",
                         "--out", "stages/distmat.csv"])
    for argv in commands:
        assert run_cli(*argv) == 0
    for name in ("centers.csqh", "assignments.csqc", "model.csqm", "db_codes.csqc",
                 "query_codes.csqc"):
        assert (workdir / "run" / name).read_bytes() == (workdir / "stages" / name).read_bytes()
    expected = (workdir / "stages" / "eval.csv").read_text()
    if single_label:
        expected += "\n" + (workdir / "stages" / "distmat.csv").read_text()
    assert (workdir / "run" / "report.csv").read_text() == expected


def test_run_reads_each_feature_file_in_checked_blocks_and_batch_gathers(workdir, monkeypatch):
    # run never loads a whole feature file: the train stage checks the train file in
    # ascending blocks that cover it, then each batch gathers its rows, epochs * n in
    # all; encode streams the database (the train file here) and the queries through
    # open_features, each as ascending slices that cover the file once
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 6, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=6)
    # the 8 queries take three blocks, and so do the train stage's checks: its head
    # is the one encode runs
    monkeypatch.setattr(M, "ENCODE_BLOCK_BYTES", block_bytes(M.init_model(8, 8), 3))
    loaded, reads, opened, encoded = [], {}, [], []
    open_features = data_io.open_features
    read_into, encode = data_io.FeatureFile._read_into, M.encode

    def open_spy(path):
        opened.append(open_features(path))
        return opened[-1]

    def read_spy(self, rows, out):  # every read of a slice or a gather goes through it
        read = (rows.start, rows.stop) if isinstance(rows, range) else len(rows)
        reads.setdefault(self.path, []).append(read)
        return read_into(self, rows, out)

    def encode_spy(net, features):
        encoded.append(features)
        return encode(net, features)

    monkeypatch.setattr(data_io, "load_features", loaded.append)
    monkeypatch.setattr(data_io, "open_features", open_spy)
    monkeypatch.setattr(data_io.FeatureFile, "_read_into", read_spy)
    monkeypatch.setattr(M, "encode", encode_spy)
    epochs = 2
    assert run_cli("run", "--config", "run.cfg", "--epochs", epochs) == 0
    assert loaded == []
    assert [f.path for f in encoded] == ["blob.train.csqf", "blob.query.csqf"]
    assert all(any(f is g for g in opened) for f in encoded)
    n = {f.path: f.n for f in encoded}
    assert reads.keys() == n.keys()

    def blocks(spans, n):  # ascending slices that cover [0, n) once, more than one
        assert len(spans) > 1 and all(isinstance(span, tuple) for span in spans)
        assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
        assert spans[-1][1] == n

    train = reads["blob.train.csqf"]
    gathers = [i for i, read in enumerate(train) if isinstance(read, int)]
    first, last = gathers[0], gathers[-1]
    blocks(train[:first], n["blob.train.csqf"])  # the train stage's check
    assert gathers == list(range(first, last + 1))
    assert sum(train[first : last + 1]) == epochs * n["blob.train.csqf"]
    blocks(train[last + 1 :], n["blob.train.csqf"])  # encode
    blocks(reads["blob.query.csqf"], n["blob.query.csqf"])


def test_eval_stage_reads_each_file_once(workdir, monkeypatch):
    # a single-label database's center-distance section reuses the codes and
    # labels that evaluate already loaded
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 6, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=6)
    assert run_cli("run", "--config", "run.cfg", "--epochs", 2) == 0
    read = Counter()

    def spy(real):
        def load(path):
            read[path] += 1
            return real(path)
        return load

    for module, name in ((hamming, "load_codes"), (data_io, "load_labels"),
                         (data_io, "load_label_bitsets"), (C, "load_centers")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    report = pipeline.evaluate("out/db_codes.csqc", "blob.train.csql", "out/query_codes.csqc",
                               "blob.query.csql", 20, centers="out/centers.csqh")
    assert report.center_distances.shape == (4, 4)
    assert read == {"out/db_codes.csqc": 1, "blob.train.csql": 1, "out/query_codes.csqc": 1,
                    "blob.query.csql": 1, "out/centers.csqh": 1}


def test_eval_memory_grows_by_under_half_a_byte_per_label_bit(workdir):
    # the (n, q) uint8 label matrix costs a byte per label bit, its bitsets an eighth;
    # the codes and the ranking's own arrays do not grow with q, so they cancel out
    n, k, nq = 100_000, 64, 4
    rng = np.random.default_rng(0)
    for name, rows in (("db", n), ("q", nq)):
        hamming.save_codes(f"{name}.csqc", hamming.pack_matrix(rng.integers(0, 2, (rows, k))), k)
    peaks = {}
    for q in (8, 64):
        labels = rng.random((n, q)) < 0.05
        labels[np.arange(n), rng.integers(0, q, n)] = True
        data_io.save_labels("db.csql", labels)
        data_io.save_labels("q.csql", labels[:nq])
        del labels
        tracemalloc.start()
        try:
            pipeline.evaluate("db.csqc", "db.csql", "q.csqc", "q.csql", 100)
            peaks[q] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] - peaks[8] < n * (64 - 8) / 2

def test_run_holds_no_float64_copy_of_features_or_centers(workdir, monkeypatch):
    n, d, k = 8192, 64, 64
    monkeypatch.setattr(M, "ENCODE_BLOCK_BYTES", block_bytes(M.init_model(d, k), 256))
    run_cli("synth", "--classes", 4, "--per-class", n // 4, "--dim", d, "--spread", 0.1,
            "--query-per-class", 2, "--out-prefix", "blob")
    cfg = RunConfig(train_features="blob.train.csqf", train_labels="blob.train.csql",
                    query_features="blob.query.csqf", query_labels="blob.query.csql",
                    k=k, epochs=1, map_n=10, out_dir="out")
    tracemalloc.start()
    try:
        run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 features plus less than half of a float64 copy of them, or
    # of the (n, k) centers, which is as large since k == d
    assert peak < 4 * n * d + 8 * n * k / 2


def test_assign_stage_unpacks_only_the_distinct_label_sets(workdir):
    # multilabel-run's shape, 1 to 3 categories a row: the label rows stay packed and the
    # centers are kept once per distinct set, so neither the (n, q) label matrix nor the
    # (n, k) center matrix is built; with both, this read 5.53 MiB, and now 2.49 MiB
    n, q, k = 50_000, 21, 48
    rng = np.random.default_rng(1)
    count, picks = rng.integers(1, 4, size=n), rng.random((n, q)).argsort(axis=1)[:, :3]
    labels = np.zeros((n, q), dtype=np.uint8)
    for j in range(3):
        labels[np.flatnonzero(count > j), picks[count > j, j]] = 1
    data_io.save_labels("l.csql", labels)
    C.save_centers("c.csqh", C.generate("balanced", q, k, 0))
    del labels, picks
    tracemalloc.start()
    try:
        assignment = pipeline.assign("c.csqh", "l.csql", 0, "a.csqc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20
    assert hamming.load_codes("a.csqc")[0].tobytes() == assignment.packed().tobytes()


def test_train_stage_never_unpacks_every_center(workdir):
    # multilabel-run's map shape; the map stays packed and each batch's rows are
    # unpacked, so the (n, k) matrix's n * k bytes are never held
    n, d, k, batch = 50_000, 16, 48, 256
    rng = np.random.default_rng(0)
    data_io.save_features("x.csqf", rng.normal(size=(n, d)))
    words = hamming.pack_matrix(rng.integers(0, 2, size=(n, k), dtype=np.uint8))
    hamming.save_codes("map.csqc", words, k)
    cfg = M.TrainConfig(epochs=2, batch_size=batch, seed=0)
    net = M.init_model(d, k, seed=cfg.seed)
    state = 2 * sum(p.nbytes for p in net.weights + net.biases)  # params and velocity
    step = step_peak(net, rng.normal(size=(batch, d)), np.ones((batch, k)), cfg)
    tracemalloc.start()
    try:
        pipeline.train("x.csqf", "map.csqc", cfg, "m.csqm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the features stay in their file: one float32 check block or batch gather at a time,
    # then the packed words, two permutations, the model's state and one step: its
    # float64 batch and its backward call, which returns the gradients
    check_block = 4 * d * M.block_rows((d, *M.default_hidden(d, k), k))
    assert peak <= (4 * batch * d + check_block + words.nbytes + 2 * 8 * n + state + step
                    + 8 * batch * (d + k))


def encode_inputs(n, d, seed=0):
    """A random model for d-wide features and a feature file of n rows."""
    M.save_model("model.csqm", M.init_model(d, 16, seed=seed))
    x = np.random.default_rng(seed).normal(size=(n, d)).astype(np.float32)
    data_io.save_features("x.csqf", x)
    return ["encode", "--model", "model.csqm", "--features", "x.csqf", "--out-codes", "c.csqc"]


def test_encode_command_matches_encode_of_loaded_features(workdir, monkeypatch):
    monkeypatch.setattr(M, "ENCODE_BLOCK_BYTES", block_bytes(M.init_model(5, 16), 4))
    assert run_cli(*encode_inputs(n=11, d=5)) == 0
    net = M.load_model("model.csqm")
    hamming.save_codes("expected.csqc", M.encode(net, data_io.load_features("x.csqf")), net.k)
    assert (workdir / "c.csqc").read_bytes() == (workdir / "expected.csqc").read_bytes()


def test_encode_command_memory_does_not_grow_with_rows(workdir, monkeypatch):
    n, d = 4096, 128
    monkeypatch.setattr(M, "ENCODE_BLOCK_BYTES", block_bytes(M.init_model(d, 16), 64))
    argv = encode_inputs(n, d)
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * d / 2  # half the float64 feature matrix


def test_encode_and_eval_never_load_numpy_random(workdir):
    # importing numpy.random costs about 2 MB of RSS and OpenSSL (_hashlib,
    # which secrets imports too) about 3.6 MB, and serving draws nothing
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 3, "--out-prefix", "blob")
    M.save_model("model.csqm", M.init_model(8, 16, seed=0))
    commands = [
        ["encode", "--model", "model.csqm", "--features", f"blob.{split}.csqf",
         "--out-codes", f"{split}.csqc"] for split in ("train", "query")
    ] + [["eval", "--db-codes", "train.csqc", "--db-labels", "blob.train.csql",
          "--query-codes", "query.csqc", "--query-labels", "blob.query.csql",
          "--map-n", "10", "--out-report", "report.csv"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(C.__file__).parents[1]), env.get("PYTHONPATH")]))
    heavy = ["numpy.random", "_hashlib", "secrets"]

    def loaded(code):
        probe = f"import sys\n{code}\nprint(*[m for m in {heavy!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    by_numpy = loaded("import numpy")
    if by_numpy == set(heavy):
        pytest.skip(f"a bare import of numpy {np.__version__} already loads {heavy}")
    serve = f"import centerhash.cli\nassert [centerhash.cli.main(a) for a in {commands!r}] == [0] * 3"
    assert loaded(serve) <= by_numpy
    assert (workdir / "report.csv").is_file()


@pytest.mark.parametrize("argv", [
    ["synth", "--classes", 3, "--per-class", 5, "--dim", 4, "--spread", 0.1, "--seed", 2,
     "--out-prefix", "probe"],
    ["gen-centers", "--k", 12, "--m", 4, "--method", "balanced", "--out", "b.csqh"],
    ["assign", "--centers", "c.csqh", "--labels", "blob.train.csql", "--out", "a.csqc"],
    ["train", "--features", "blob.train.csqf", "--centers-map", "map.csqc", "--epochs", 1,
     "--out-model", "m.csqm"],
    ["run", "--config", "run.cfg", "--epochs", 2],
], ids=lambda argv: argv[0])
def test_drawing_commands_never_load_openssl(workdir, argv):
    # every command that draws loads numpy.random (about 2 MB of RSS), but not OpenSSL
    # (_hashlib, about 3.6 MB), which hashlib and the secrets module numpy.random
    # imports would load, nor hmac, which secrets imports
    loaded = f"import sys\nprint([m for m in {HEAVY!r} if m in sys.modules])"
    by_numpy = set(fresh(f"import numpy\n{loaded}"))
    if by_numpy == set(HEAVY):
        pytest.skip(f"a bare import of numpy {np.__version__} already loads {HEAVY}")
    small_train_inputs()
    write_run_config(workdir / "run.cfg", seed=0)
    command = f"import centerhash.cli\nassert centerhash.cli.main({[str(a) for a in argv]!r}) == 0"
    assert set(fresh(f"{command}\n{loaded}")) <= by_numpy


@pytest.mark.parametrize(
    "out, code",
    [("nodir/x.csqc", errno.ENOENT), ("adir", errno.EISDIR)],
    ids=["missing_directory", "directory_in_the_way"],
)
def test_unwritable_output_is_named_and_leaves_no_temp_file(workdir, capsys, out, code):
    argv = encode_inputs(n=6, d=4)
    (workdir / "adir").mkdir()
    assert run_cli(*argv[:-1], out) == 1
    message = f"[Errno {code}] {os.strerror(code)}: {out!r}"
    assert capsys.readouterr().err == f"error [encode] {message}\n"
    assert sorted(p.name for p in workdir.rglob("*")) == ["adir", "model.csqm", "x.csqf"]


def test_encode_command_rejects_non_finite_features(workdir, capsys):
    argv = encode_inputs(n=6, d=4)
    x = data_io.load_features("x.csqf")
    x[3, 1] = np.nan
    write_features_unchecked("x.csqf", x)
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "error [encode]" in err and "feature row 3 is not finite" in err
    assert not (workdir / "c.csqc").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_encode_command_rejects_a_non_finite_checkpoint(workdir, capsys, value):
    argv = encode_inputs(n=6, d=4)
    with open("model.csqm", "r+b") as f:
        f.seek(28 + 8 * 5)  # the sixth weight of the first layer
        f.write(np.array([value], dtype="<f8").tobytes())
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err == "error [encode] model parameter is not finite (byte offset 68)\n"
    assert not (workdir / "c.csqc").exists()


def test_encode_command_wrong_width_names_the_file_width(workdir, capsys):
    argv = encode_inputs(n=6, d=4)
    M.save_model("model.csqm", M.init_model(5, 16, seed=0))
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "error [encode]" in err and "shape (6, 4), model expects dim 5" in err


def small_train_inputs():
    run_cli("synth", "--classes", 2, "--per-class", 6, "--dim", 4, "--spread", 0.1,
            "--seed", 0, "--out-prefix", "blob")
    run_cli("gen-centers", "--k", 8, "--m", 2, "--out", "c.csqh")
    run_cli("assign", "--centers", "c.csqh", "--labels", "blob.train.csql", "--out", "map.csqc")
    return ["train", "--features", "blob.train.csqf", "--centers-map", "map.csqc",
            "--epochs", 1, "--out-model", "m.csqm"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lr", "nan"], "learning_rate must be finite"),
        (["--lr", "inf"], "learning_rate must be finite"),
        (["--lambda1", "nan"], "lambda1 must be finite"),
        (["--lambda1", "inf"], "lambda1 must be finite"),
        (["--no-lc", "--lambda1", "0"], "at least one loss term"),
    ],
)
def test_train_rejects_bad_hyperparameters(workdir, capsys, flags, message):
    assert run_cli(*small_train_inputs(), *flags) == 1
    err = capsys.readouterr().err
    assert "error [train]" in err and message in err
    assert not (workdir / "m.csqm").exists()


def test_distmat_matches_report_section(workdir):
    run_cli("synth", "--classes", 4, "--per-class", 20, "--dim", 8, "--spread", 0.1,
            "--seed", 8, "--out-prefix", "blob")
    write_run_config(workdir / "run.cfg", seed=8)
    assert run_cli("run", "--config", "run.cfg", "--epochs", 2) == 0
    rc = run_cli("distmat", "--codes", "out/db_codes.csqc", "--assignments", "blob.train.csql",
                 "--centers", "out/centers.csqh", "--out", "dist.csv")
    assert rc == 0
    report = (workdir / "out" / "report.csv").read_text()
    section = report[report.index("center_i,center_j,mean_distance"):]
    assert section.count("\n") == 1 + 4 * 4
    assert (workdir / "dist.csv").read_text() == section


def test_distmat_rejects_a_row_with_two_categories(workdir, capsys):
    run_cli("gen-centers", "--k", 8, "--m", 4, "--out", "c.csqh")
    labels = np.eye(4, dtype=np.uint8)
    labels[2, 0] = 1
    data_io.save_labels("y.csql", labels)
    hamming.save_codes("codes.csqc", C.load_centers("c.csqh").packed(), 8)
    capsys.readouterr()
    assert run_cli("distmat", "--codes", "codes.csqc", "--assignments", "y.csql",
                   "--centers", "c.csqh", "--out", "dist.csv") == 1
    assert capsys.readouterr().err == (
        "error [distmat] assignments must name exactly one center per code\n")
    assert not (workdir / "dist.csv").exists()


# RunConfig training keys and the TrainConfig fields they set
TRAIN_KEYS = {
    "lambda1": "lambda1", "lr": "learning_rate", "momentum": "momentum", "batch": "batch_size",
    "epochs": "epochs", "seed": "seed", "use_lc": "use_lc",
}


class _Stop(Exception):
    pass


def run_flag(f):
    """(argv, value) that sets RunConfig field f on the run command line."""
    if f.type is bool:
        return [f"--no-{f.name.removeprefix('use_')}"], False
    if f.name == "method":
        return ["--method", "bernoulli"], "bernoulli"
    value = f"{f.name}.x" if f.type is str else f.type(f.default) + 1
    return [f"--{f.name.replace('_', '-')}", str(value)], value


# keys that are only valid together: each is set along with its partner
PAIRED = {"db_features": "db_labels", "db_labels": "db_features"}


@pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
def test_every_config_key_is_a_run_flag(field, monkeypatch):
    seen = []

    def stop_pipeline(cfg):
        seen.append(cfg)
        raise _Stop

    monkeypatch.setattr(cli, "run_pipeline", stop_pipeline)
    argv, value = run_flag(field)
    expected = {field.name: value}
    if field.name in PAIRED:
        partner = next(f for f in fields(RunConfig) if f.name == PAIRED[field.name])
        partner_argv, expected[partner.name] = run_flag(partner)
        argv += partner_argv
    with pytest.raises(_Stop):
        cli._cmd_run(cli.build_parser().parse_args(["run", *argv]))
    assert getattr(seen[0], field.name) == value
    assert seen[0] == replace(RunConfig(), **expected)


def test_train_flag_defaults_match_run_config_and_train_config(workdir, monkeypatch):
    # an unset train flag leaves RunConfig's default, which is TrainConfig's
    seen = []

    def stop_training(features, centers, cfg):
        seen.append(cfg)
        raise _Stop

    monkeypatch.setattr(M, "train", stop_training)
    small_train_inputs()
    with pytest.raises(_Stop):
        run_cli("train", "--features", "blob.train.csqf", "--centers-map", "map.csqc",
                "--out-model", "m.csqm")
    assert seen == [RunConfig().train_config()]
    assert seen == [M.TrainConfig()]
    assert cli.build_parser().parse_args(["eval", "--db-codes", "a", "--db-labels", "b",
                                          "--query-codes", "c", "--query-labels", "d",
                                          "--out-report", "e"]).map_n == RunConfig.map_n


def test_train_flags_reach_train_config(workdir, monkeypatch):
    argv = small_train_inputs()
    seen = []

    def stop_training(features, centers, cfg):
        seen.append(cfg)
        raise _Stop

    monkeypatch.setattr(M, "train", stop_training)
    values = {"lambda1": 0.5, "lr": 0.25, "momentum": 0.125, "batch": 3, "epochs": 4,
              "seed": 9, "use_lc": False}
    with pytest.raises(_Stop):
        run_cli(*argv, "--lambda1", 0.5, "--lr", 0.25, "--momentum", 0.125, "--batch", 3,
                "--epochs", 4, "--seed", 9, "--no-lc")
    expected = M.TrainConfig(**{TRAIN_KEYS[key]: v for key, v in values.items()})
    assert seen == [expected]
    assert RunConfig(**values).train_config() == expected


def readme_blocks():
    """The README's fenced blocks, each a list of lines with `\\` continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [block.replace("\\\n", " ").splitlines() for block in text.split("```")[1::2]]


def test_readme_commands_parse_and_its_config_builds():
    parser, blocks = cli.build_parser(), readme_blocks()
    commands = [shlex.split(line)[1:] for block in blocks for line in block
                if line.startswith("centerhash ")]
    assert len(commands) == 8
    for argv in commands:
        parser.parse_args(argv)

    quick_start = next(block for block in blocks if "cat > run.cfg <<'EOF'" in block)
    start = quick_start.index("cat > run.cfg <<'EOF'") + 1
    text = "\n".join(quick_start[start : quick_start.index("EOF", start)])
    cfg = build_run_config(parse_config_text(text))
    assert (cfg.train_features, cfg.query_labels, cfg.k, cfg.out_dir) == (
        "blobs.train.csqf", "blobs.query.csql", 16, "out")


def test_readme_script_commands_name_existing_scripts():
    root = Path(__file__).resolve().parents[1]
    scripts = [shlex.split(line)[1] for block in readme_blocks() for line in block
               if line.startswith("python scripts/")]
    assert scripts == ["scripts/experiment.py", "scripts/bench_record.py",
                       "scripts/stage_peaks.py", "scripts/identity_check.py"]
    assert all((root / script).is_file() for script in scripts)


def test_readme_library_example_runs(capsys):
    block = next(block for block in readme_blocks() if block[0] == "python")
    exec("\n".join(block[1:]), {})
    assert capsys.readouterr().out == "1.0\n"
