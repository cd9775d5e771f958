"""Smoke runs of the experiment scripts, which drive the public API end to end."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_experiment_prints_one_row_per_variant(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "experiment.py"), "--per-class", "10",
         "--query-per-class", "2", "--epochs", "2", "--out-dir", "run"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = lines.index("variant         mAP@10   P@H=2     own    diag     off")
    rows = [line.split() for line in lines[header + 1 :]]
    assert [row[0] for row in rows] == ["center+quant", "center", "quant"]
    assert all(len(row) == 6 for row in rows)
    report = (tmp_path / "run" / "center+quant" / "report.csv").read_text()
    map_at_n = next(line for line in report.splitlines() if line.startswith("map_at_n,"))
    assert rows[0][1] == f"{float(map_at_n.split(',')[1]):.4f}"


def check_stage_table(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_peaks.py"), "--workload", workload,
         "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    split = next(i for i, line in enumerate(out) if line.startswith("command "))
    header, *lines, last = out[:split]
    assert header.split() == ["stage", "entry_mb", "exit_mb", "minflt"]
    rows = [line.split() for line in lines]
    assert [row[0] for row in rows] == ["train", "load", "gen-centers", "assign", "train",
                                        "encode", "eval", "report"]
    peaks = [float(value) for row in rows for value in row[1:3]]
    assert peaks[0] > 0 and peaks == sorted(peaks)  # a high-water mark never falls
    faults = {name: int(count) for name, _, _, count in rows[1:]}  # the second train row
    assert rows[0][3] == "0" and all(count >= 0 for count in faults.values())
    # 980 steps whose arrays were freed and faulted back in took about 330,000
    assert 0 < faults["train"] < 10_000
    assert re.fullmatch(rf"peak {rows[-1][2]} MB, reached in [a-z-]+; "
                        r"largest rise in [a-z-]+ \(\+\d+\.\d\d MB\)", last)
    run, *_ = command_peaks(out[split:], ["run", "encode", "encode", "encode", "eval"])
    # the hook child runs the same command: a spawned child read 2.1-2.5 MB above it
    assert abs(run - float(rows[-1][2])) < 0.5
    assert list(tmp_path.iterdir()) == []  # the inputs went to a temporary directory


def test_stage_peaks_prints_the_peak_on_entry_and_exit_of_each_stage(tmp_path):
    check_stage_table(tmp_path, "multilabel-run")


def test_stage_peaks_stage_table_reads_as_train_medium_run_does(tmp_path):
    check_stage_table(tmp_path, "train-medium")


def command_peaks(lines, labels):
    """The peaks in stage_peaks.py's command table, once its rows name `labels` in order
    and its last line names the command with the highest peak, and the launcher's
    peak, below every command's."""
    header, *rows, last = lines
    assert header.split() == ["command", "peak_mb"]
    assert [row.split()[0] for row in rows] == labels
    peaks = [float(row.split()[1]) for row in rows]
    top = max(range(len(peaks)), key=peaks.__getitem__)
    match = re.fullmatch(r"peak (\d+\.\d\d) MB, set by ([a-z]+); the launcher's "
                         r"(\d+\.\d\d) MB is below every command's peak", last)
    assert match, last
    assert (match[1], match[2]) == (rows[top].split()[1], labels[top])
    assert 0 < float(match[3]) < min(peaks)
    return peaks


def test_stage_peaks_names_the_command_that_sets_the_peak_of_a_workload_without_run(tmp_path):
    # search-large encodes and evaluates a checkpoint trained in set-up: no stage table
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_peaks.py"), "--workload", "search-large",
         "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    encode, evaluate = command_peaks(proc.stdout.splitlines(), ["encode", "eval"])
    assert encode > 25 and evaluate > 25  # numpy alone is about 27 MB
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def stage_peaks(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import stage_peaks

    return stage_peaks


def test_stage_peaks_child_has_not_loaded_openssl_when_the_first_stage_starts(tmp_path,
                                                                               stage_peaks):
    # the probe runs the stage hook as the stage child does; had the hook loaded OpenSSL
    # (about 3.6 MB), every stage would read above the command's own
    env = stage_peaks.child_env(str(ROOT))
    synth = ["synth", "--classes", "3", "--per-class", "8", "--dim", "4", "--spread", "0.1",
             "--seed", "0", "--out-prefix", "blob"]
    run = ["run", "--train-features", "blob.train.csqf", "--train-labels", "blob.train.csql",
           "--query-features", "blob.query.csqf", "--query-labels", "blob.query.csql",
           "--k", "8", "--epochs", "1", "--map-n", "5", "--out-dir", "out"]
    subprocess.run([sys.executable, "-m", "centerhash.cli", *synth], cwd=tmp_path, env=env,
                   check=True, capture_output=True, timeout=120)
    probe = f"""
import contextlib, sys
from centerhash import pipeline
openssl, plain = [], pipeline._stage  # names the hook does not bind

@contextlib.contextmanager
def first(name):
    openssl.append("_hashlib" in sys.modules)
    with plain(name):
        yield

pipeline._stage = first
try:
    exec({stage_peaks.STAGE_HOOK!r})
finally:
    print(openssl[0])
"""
    stem = str(tmp_path / "probe")
    code, peak = stage_peaks.run_child(["-c", probe, *run], str(tmp_path), env, stem)
    assert code == 0, stage_peaks.output(stem)
    assert (tmp_path / "probe.exit").read_text() == "0\n" and peak > 0
    assert stage_peaks.output(stem, "stdout").splitlines()[-1] == "False"
    assert len(ast.literal_eval(stage_peaks.output(stem).splitlines()[-1])) == 8


@pytest.mark.parametrize("label, swap, error", [
    ("eval", ("out/encoded.csqc", "out/missing.csqc"), "error [eval] "),
    ("run", ("train.csqf", "missing.csqf"), "error [load] "),
], ids=["command", "stage_child"])
def test_stage_peaks_prints_a_failed_childs_label_exit_code_and_error(capsys, stage_peaks, label,
                                                                       swap, error):
    # one train-medium command, its input swapped for a file that is not there
    argv = dict(stage_peaks.WORKLOADS["train-medium"].commands)[label]
    argv = [swap[1] if arg == swap[0] else arg for arg in argv]
    assert stage_peaks.launch("train-medium", 1, [(label, argv)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{label} exited 1: {error}") and swap[1] in err, err


def bench_result(**overrides):
    """A result line as perfbench/run.py prints it, for the six end-to-end metrics."""
    result = {
        "correct": True,
        "attempted": 5,
        "failed": 0,
        "metrics": {name: {"value": 1.5, "unit": "s"} for name in END_TO_END},
    }
    result.update(overrides)
    return "machine: ...\nwall_s 1.5 s\n" + json.dumps(result) + "\n"


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def traced_result(values):
    """A --trace 1 result line: its metrics are the per-layer ones."""
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return bench_result(metrics=metrics)


def check_bench_result(stdout, *flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_bench_result.py"), *flags],
        input=stdout, capture_output=True, text=True, timeout=60,
    )


def test_check_bench_result_accepts_a_good_run():
    proc = check_bench_result(bench_result())
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout == f"ok: correct, 0 failed, {len(END_TO_END)} end-to-end metrics\n"


@pytest.mark.parametrize(
    "stdout, problem",
    [
        ("", "no output"),
        (bench_result() + "traceback\n", "not a JSON result"),
        (bench_result().replace('"value": 1.5', '"value": NaN', 1), "NaN is not strict JSON"),
        (bench_result(correct=False), "correct is False"),
        (bench_result(failed=1), "failed is 1"),
        (bench_result(metrics={}), f"metric {END_TO_END[0]} is None"),
        (bench_result(metrics={n: {"value": 0} for n in END_TO_END}), "is 0"),
    ],
    ids=["empty", "last_line_not_json", "nan", "incorrect", "failed", "missing", "zero"],
)
def test_check_bench_result_rejects(stdout, problem):
    proc = check_bench_result(stdout)
    assert proc.returncode == 1
    assert problem in proc.stdout


def traced_values(**overrides):
    """Per-layer values of a traced run that trained and evaluated: one backward call,
    with one forward pass, per batch, and one distance computation per query."""
    values = {name: 0.25 for name in PER_LAYER}
    values.update({"model.batches": 600, "model.forward_passes_per_batch": 1.0,
                   "hamming.distance_calls_per_query": 1.0}, **overrides)
    return values


def test_check_bench_result_accepts_a_good_traced_run():
    # a layer the workload never enters reads 0, and the trace overhead can be negative
    values = traced_values(**{PER_LAYER[0]: 0, "trace.overhead_s": -1.02})
    proc = check_bench_result(traced_result(values), "--trace")
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout == f"ok: correct, 0 failed, {len(PER_LAYER)} per-layer metrics\n"


@pytest.mark.parametrize("value, shown", [(None, "None"), ("0.5", "'0.5'"), (True, "True")])
def test_check_bench_result_rejects_a_traced_run_without_a_layer_metric(value, shown):
    values = traced_values(**{"retrieval.pr_s": value})
    if value is None:
        del values["retrieval.pr_s"]
    proc = check_bench_result(traced_result(values), "--trace")
    assert proc.returncode == 1
    assert proc.stdout == f"problem: metric retrieval.pr_s is {shown}\n"


def test_check_bench_result_accepts_a_traced_run_that_did_not_train():
    # search-large trains its checkpoint in set-up: its traced run never enters model.train
    values = traced_values(**{"model.epoch_s": 0, "model.batches": 0,
                              "model.forward_passes_per_batch": 0, "model.loss_s": 0})
    proc = check_bench_result(traced_result(values), "--trace")
    assert proc.returncode == 0, proc.stdout


@pytest.mark.parametrize("name, value, wanted", [
    ("model.batches", 0, "above 0"),
    ("model.forward_passes_per_batch", 2.0, "1.0"),
    ("model.loss_s", 0, "above 0"),
], ids=["no_batches", "two_forward_passes", "no_loss_time"])
def test_check_bench_result_rejects_a_trained_run_without_one_backward_per_batch(
        name, value, wanted):
    proc = check_bench_result(traced_result(traced_values(**{name: value})), "--trace")
    assert proc.returncode == 1
    assert proc.stdout == f"problem: metric {name} is {value!r}, a run that trained needs {wanted}\n"


def test_check_bench_result_accepts_a_traced_run_that_did_not_evaluate():
    values = traced_values(**{"retrieval.evaluate_s": 0, "hamming.distance_calls_per_query": 0})
    proc = check_bench_result(traced_result(values), "--trace")
    assert proc.returncode == 0, proc.stdout


@pytest.mark.parametrize("calls", [0, 0.5, 2.0], ids=["untraced_distances", "half", "twice"])
def test_check_bench_result_rejects_an_evaluation_without_one_distance_call_per_query(calls):
    values = traced_values(**{"hamming.distance_calls_per_query": calls})
    proc = check_bench_result(traced_result(values), "--trace")
    assert proc.returncode == 1
    assert proc.stdout == (f"problem: metric hamming.distance_calls_per_query is {calls!r}, "
                           "a run that evaluated needs 1.0\n")


def test_check_bench_result_rejects_an_untraced_run_as_traced():
    proc = check_bench_result(bench_result(), "--trace")
    assert proc.returncode == 1
    assert f"problem: metric {PER_LAYER[0]} is None" in proc.stdout


def git_head():
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


needs_git = pytest.mark.skipif(git_head() is None, reason="not a git checkout with a commit")


@needs_git
def test_bench_record_writes_a_run_of_head(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--tag", "smoke",
         "--seeds", "1", "--workload", "train-medium", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert (record["head"], record["parent"], record["seeds"]) == (git_head(), None, [1])
    assert record["machine"].startswith("machine: ")
    [workload] = record["workloads"].items()
    assert workload[0] == "train-medium" and list(workload[1]) == ["head"]
    [run] = workload[1]["head"]["runs"]
    assert (run["seed"], run["correct"], run["failed"]) == (1, True, 0)
    assert list(run["metrics"]) == END_TO_END
    for name, value in run["metrics"].items():
        assert workload[1]["head"]["summary"][name] == {"median": value, "q1": value, "q3": value}


@needs_git
@pytest.mark.parametrize(
    "bad, problem",
    [
        ((0, bench_result(correct=False), ""), "correct is False"),
        ((0, bench_result(failed=1), ""), "failed is 1"),
        ((1, "", "error: set-up failed"), "exited 1: error: set-up failed"),
    ],
    ids=["incorrect", "failed", "crashed"],
)
def test_bench_record_refuses_to_write_after_a_bad_run(tmp_path, monkeypatch, capsys, bad,
                                                       problem):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_record

    # seed 1 runs HEAD then the parent, seed 2 the parent then HEAD: the bad run is the last
    results = [(0, bench_result(), "")] * 3 + [bad]
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((os.path.basename(checkout), seed))
        return subprocess.CompletedProcess([], *results[len(calls) - 1])

    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    argv = ["--tag", "t", "--seeds", "1-2", "--workload", "search-large", "--parent", "HEAD"]
    assert bench_record.main(argv) == 1
    assert calls == [("head", 1), ("parent", 1), ("parent", 2), ("head", 2)]
    assert f"refused: search-large seed 2 on head ({git_head()[:12]}): {problem}" in (
        capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


# a workload small enough for a test, added to a copy's perfbench/workloads.py
TINY_WORKLOAD = """
WORKLOADS = {"tiny": Workload(
    name="tiny", why="a test's run", map_n=20, setup_repeats=1,
    inputs={"kind": "blobs", "classes": 4, "per_class": 30, "query_per_class": 5, "d": 8,
            "spread": 0.5},
    commands=_run_then_serve(("--k", "16", "--epochs", "2"), 20),
)}
"""


@needs_git
def test_identity_check_reports_a_changed_tie_order_unless_declared(tmp_path):
    repo = tmp_path / "repo"
    for part in ("src", "perfbench", "scripts"):
        shutil.copytree(ROOT / part, repo / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    with open(repo / "perfbench" / "workloads.py", "a") as f:
        f.write(TINY_WORKLOAD)

    def commit(message):
        for argv in (["add", "-A"], ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
                                     "-m", message]):
            subprocess.run(["git", "-C", str(repo), *argv], check=True, capture_output=True)

    subprocess.run(["git", "init", "-q", str(repo)], check=True, capture_output=True)
    commit("tiny workload")
    # ties broken by descending index: the ranks, and so the reports, change
    retrieval = repo / "src" / "centerhash" / "retrieval.py"
    old = "np.flatnonzero(dists <= int(np.searchsorted(within, count)))"
    assert retrieval.read_text().count(old) == 1
    retrieval.write_text(retrieval.read_text().replace(old, old + "[::-1]"))
    commit("ties by descending index")

    def identity_check(*declared):
        return subprocess.run(
            [sys.executable, str(repo / "scripts" / "identity_check.py"), "--parent", "HEAD~1",
             "--seeds", "1", *(["--declared", *declared] if declared else [])],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )

    proc = identity_check()
    assert proc.returncode == 1, proc.stderr
    *lines, last = proc.stdout.splitlines()
    found = [re.fullmatch(r"tiny seed 1: (\S+) differs at byte \d+ \(BLAS core \S+\)", line)
             for line in lines]
    assert all(found), lines
    names = [match[1] for match in found]
    assert {"out/report.csv", "out/eval_report.csv"} <= set(names)
    assert not {"train.csqf", "out/model.csqm", "out/encoded.csqc"} & set(names)
    assert re.match(rf"{len(names)} differences in \d+ files, {len(names)} not declared: ", last)

    proc = identity_check(*names)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *lines, last = proc.stdout.splitlines()
    assert len(lines) == len(names) and all(line.endswith(" (declared)") for line in lines)
    assert re.match(rf"{len(names)} differences in \d+ files, 0 not declared: ", last)


@pytest.fixture
def bench_record(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_record

    return bench_record


PARENT_RUNS = [100.0 + i for i in range(10)]  # quartiles 102.25 and 106.75: q3 - q1 is 4.5


@pytest.mark.parametrize(
    "head, parent, better, bound, expected",
    [
        ([p - 5 for p in PARENT_RUNS], PARENT_RUNS, "lower", 0.25, "gain"),
        ([101.0] + [p - 10 for p in PARENT_RUNS[1:]], PARENT_RUNS, "lower", 0.25, "gain"),
        ([101.0, 102.0] + [p - 10 for p in PARENT_RUNS[2:]], PARENT_RUNS, "lower", 0.25,
         "no change"),
        ([p - 5 for p in PARENT_RUNS[:8]] + PARENT_RUNS[8:], PARENT_RUNS, "lower", 0.25,
         "no change"),
        ([p - 4 for p in PARENT_RUNS], PARENT_RUNS, "lower", 0.25, "no change"),
        ([p + 5 for p in PARENT_RUNS], PARENT_RUNS, "higher", 0.25, "gain"),
        ([p + 5 for p in PARENT_RUNS], PARENT_RUNS, "lower", 0.25, "no change"),
        ([p + 5 for p in PARENT_RUNS], PARENT_RUNS, "lower", 0.04, "regression"),
        ([p - 5 for p in PARENT_RUNS], PARENT_RUNS, "higher", 0.04, "regression"),
        ([1.3 * p for p in PARENT_RUNS], PARENT_RUNS, "lower", 0.25, "regression"),
        (PARENT_RUNS[::-1], PARENT_RUNS, "lower", 0.01, "unresolved"),
        ([99.0] * 10, [100.0] * 7 + [200.0] * 3, "lower", 0.25, "no change"),
        ([101.0] * 10, [100.0] * 7 + [200.0] * 3, "lower", 0.25, "unresolved"),
    ],
    ids=["gain", "nine_of_ten", "eight_of_ten", "ties_count_for_neither",
         "within_the_spread", "gain_higher", "worse_within_bound", "regression",
         "regression_higher", "regression_large", "unresolved", "wide_but_every_run_better",
         "wide"],
)
def test_bench_record_verdict(bench_record, head, parent, better, bound, expected):
    assert bench_record.verdict(head, parent, better, bound) == expected


@needs_git
def test_bench_record_writes_and_prints_each_verdict(tmp_path, monkeypatch, capsys,
                                                     bench_record):
    def run_once(checkout, workload, seed, seconds):
        values = {name: 1.5 for name in END_TO_END}
        if os.path.basename(checkout) == "head":
            values["peak_rss_mb"] = 1.0
        metrics = {name: {"value": v, "unit": "s"} for name, v in values.items()}
        return subprocess.CompletedProcess([], 0, bench_result(metrics=metrics), "")

    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    argv = ["--tag", "t", "--seeds", "1-2", "--workload", "search-large", "--parent", "HEAD"]
    assert bench_record.main(argv) == 0
    verdicts = {name: "gain" if name == "peak_rss_mb" else "no change" for name in END_TO_END}
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["workloads"]["search-large"]["verdicts"] == verdicts
    line = "search-large: " + ", ".join(f"{m} {v}" for m, v in verdicts.items())
    assert line in capsys.readouterr().out.splitlines()


@needs_git
def test_bench_record_counts_the_wins_behind_each_verdict(tmp_path, monkeypatch, bench_record):
    # every metric reads 10 + seed on the parent; HEAD reads 1 lower on odd seeds,
    # 1 higher on seeds 4 and 8 and the same on the others, so each side wins some pairs
    def run_once(checkout, workload, seed, seconds):
        shift = 0 if os.path.basename(checkout) == "parent" else (
            -1 if seed % 2 else 1 if seed % 4 == 0 else 0)
        metrics = {name: {"value": 10.0 + seed + shift, "unit": "s"} for name in END_TO_END}
        return subprocess.CompletedProcess([], 0, bench_result(metrics=metrics), "")

    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    argv = ["--tag", "t", "--seeds", "1-10", "--workload", "search-large", "--parent", "HEAD"]
    assert bench_record.main(argv) == 0
    entry = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["search-large"]
    spec = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    for name in END_TO_END:
        head, parent = ([r["metrics"][name] for r in entry[side]["runs"]]
                        for side in ("head", "parent"))
        better = spec[name]["better"]
        assert entry["pairs_head_better"][name] == bench_record.wins(head, parent, better)
        assert entry["pairs_head_better"][name] == (5 if better == "lower" else 2)
        assert entry["verdicts"][name] == bench_record.verdict(head, parent, better,
                                                               spec[name]["bound"])
