"""Every file-reading command under wrong and damaged inputs.

Each of assign, train, encode, eval, distmat and run gets, in each of its
input-file slots, every other artifact type, and truncated and one-bit-flipped
copies of the slot's own file. A case must exit 0 with nothing on stderr, or
exit 1 with exactly one `error [stage]` line (main's one error boundary turns
every package error into it; anything else would escape as a traceback). A
failing command leaves no output file, and a failing run leaves no temp file
and no artifact after the stage that failed.
"""

import shutil

import pytest

from centerhash import binfmt
from centerhash.cli import main
from centerhash.pipeline import ARTIFACTS

# one small file of each artifact type, written by the commands themselves
ARTIFACT_FILES = {"csqf": "blob.train.csqf", "csql": "blob.train.csql", "csqh": "c.csqh",
                  "csqc": "db.csqc", "csqm": "m.csqm", "csv": "r.csv"}

# command -> (argv with its input slots as {flag: own file}, output file or directory)
COMMANDS = {
    "assign": (["assign", {"--centers": "c.csqh"}, {"--labels": "blob.train.csql"},
                "--out", "out.csqc"], "out.csqc"),
    "train": (["train", {"--features": "blob.train.csqf"}, {"--centers-map": "map.csqc"},
               "--epochs", "1", "--out-model", "out.csqm"], "out.csqm"),
    "encode": (["encode", {"--model": "m.csqm"}, {"--features": "blob.query.csqf"},
                "--out-codes", "out.csqc"], "out.csqc"),
    "eval": (["eval", {"--db-codes": "db.csqc"}, {"--db-labels": "blob.train.csql"},
              {"--query-codes": "q.csqc"}, {"--query-labels": "blob.query.csql"},
              "--map-n", "5", "--out-report", "out.csv"], "out.csv"),
    "distmat": (["distmat", {"--codes": "db.csqc"}, {"--assignments": "blob.train.csql"},
                 {"--centers": "c.csqh"}, "--out", "out.csv"], "out.csv"),
    "run": (["run", {"--train-features": "blob.train.csqf"}, {"--train-labels": "blob.train.csql"},
             {"--query-features": "blob.query.csqf"}, {"--query-labels": "blob.query.csql"},
             "--k", "8", "--epochs", "1", "--batch", "4", "--map-n", "5", "--out-dir", "out"],
            "out"),
}


def _truncate(keep):
    return lambda data: data[: keep(len(data))]


def _flip(at):
    def damage(data):
        i = at(len(data))
        return data[:i] + bytes([data[i] ^ (1 << i % 8)]) + data[i + 1 :]
    return damage


# header fields of a row file: magic 0-3, version 4-7, u64 n 8-15, u32 width 16-19
DAMAGE = {
    **{f"truncated_to_{name}": _truncate(keep) for name, keep in [
        ("0", lambda n: 0), ("4", lambda n: 4), ("8", lambda n: 8),
        ("header_less_1", lambda n: binfmt.ROWS_AT - 1), ("header", lambda n: binfmt.ROWS_AT),
        ("half", lambda n: n // 2), ("all_but_1", lambda n: n - 1)]},
    **{f"bit_flipped_at_{name}": _flip(at) for name, at in [
        ("0", lambda n: 0), ("4", lambda n: 4), ("8", lambda n: 8), ("15", lambda n: 15),
        ("16", lambda n: 16), ("19", lambda n: 19), ("20", lambda n: 20),
        ("half", lambda n: n // 2), ("last", lambda n: n - 1)]},
}


def _cases():
    for command, (argv, _) in COMMANDS.items():
        for slot in (s for s in argv if isinstance(s, dict)):
            (flag, own), = slot.items()
            for kind in ARTIFACT_FILES:
                if not own.endswith(kind):
                    yield pytest.param(command, flag, kind, id=f"{command}{flag}={kind}")
            for damage in DAMAGE:
                yield pytest.param(command, flag, damage, id=f"{command}{flag}={damage}")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    commands = [
        ["synth", "--classes", "2", "--per-class", "6", "--dim", "4", "--spread", "0.1",
         "--out-prefix", root / "blob"],
        ["gen-centers", "--k", "8", "--m", "2", "--out", root / "c.csqh"],
        ["assign", "--centers", root / "c.csqh", "--labels", root / "blob.train.csql",
         "--out", root / "map.csqc"],
        ["train", "--features", root / "blob.train.csqf", "--centers-map", root / "map.csqc",
         "--epochs", "1", "--out-model", root / "m.csqm"],
        ["encode", "--model", root / "m.csqm", "--features", root / "blob.train.csqf",
         "--out-codes", root / "db.csqc"],
        ["encode", "--model", root / "m.csqm", "--features", root / "blob.query.csqf",
         "--out-codes", root / "q.csqc"],
        ["eval", "--db-codes", root / "db.csqc", "--db-labels", root / "blob.train.csql",
         "--query-codes", root / "q.csqc", "--query-labels", root / "blob.query.csql",
         "--map-n", "5", "--out-report", root / "r.csv"],
    ]
    for argv in commands:
        assert main([str(a) for a in argv]) == 0
    return root


@pytest.mark.parametrize("command, flag, bad", list(_cases()))
def test_command_under_a_wrong_or_damaged_input(inputs, tmp_path, monkeypatch, capsys,
                                                 command, flag, bad):
    template, out = COMMANDS[command]
    argv = []
    for part in template:
        if isinstance(part, dict):
            (slot_flag, own), = part.items()
            path = "hostile" if slot_flag == flag else str(inputs / own)
            argv += [slot_flag, path]
            if slot_flag == flag:
                if bad in DAMAGE:
                    data = DAMAGE[bad]((inputs / own).read_bytes())
                    (tmp_path / "hostile").write_bytes(data)
                else:
                    shutil.copyfile(inputs / ARTIFACT_FILES[bad], tmp_path / "hostile")
        else:
            argv.append(part)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()

    code = main(argv)

    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        return
    assert code == 1
    assert err.startswith("error [") and len(err.splitlines()) == 1 and err.endswith("\n"), err
    if command == "run":
        stage = err.removeprefix("error [").partition("]")[0]
        assert stage in ("config", "load", "gen-centers", "assign", "train", "encode", "eval",
                         "report"), err
        out_dir = tmp_path / out
        written = sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else []
        # no temp file: what the run left is whole artifacts, in stage order, up to
        # the stage that failed
        assert written == sorted(list(ARTIFACTS.values())[: len(written)]), written
        assert "report.csv" not in written
    else:
        assert err.startswith(f"error [{command}] "), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hostile"]
