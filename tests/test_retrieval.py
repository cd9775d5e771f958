import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from centerhash import centers as C
from centerhash import binfmt, hamming, retrieval as R
from centerhash.errors import DimensionError


def make_index(bit_rows, label_rows):
    bits = np.asarray(bit_rows, dtype=np.uint8)
    labels = np.asarray(label_rows, dtype=np.uint8)
    return R.CodeIndex.from_labels(hamming.pack_matrix(bits), labels, bits.shape[1])


def one_hot(q, j):
    row = np.zeros(q, dtype=np.uint8)
    row[j] = 1
    return row


def cats(row):
    """The category set of a multi-hot label row, as the oracle takes it."""
    return {j for j, flag in enumerate(row) if flag}


def relevant(query_row, db_row):
    """Relevance by the oracle, checked against evaluate on a one-item database."""
    expected = oracle.is_relevant(cats(query_row), cats(db_row))
    index = make_index([[0]], [db_row])
    query_labels = np.array([query_row], dtype=np.uint8)
    assert R.evaluate(index, np.zeros((1, 1), np.uint64), query_labels, 1).map_at_n == expected
    return expected


def rank(index, query_bits):
    """Database indices by ascending distance from one query, through retrieval._nearest."""
    query = hamming.pack_matrix(np.array([query_bits], dtype=np.uint8))[0]
    dists = hamming.distances_to(query, index.codes)
    return R._nearest(dists, np.bincount(dists, minlength=index.k + 1).cumsum(), index.n)


class TestRanking:
    def test_orders_by_distance(self):
        index = make_index([[0, 0], [1, 1], [0, 1]], [[1], [1], [1]])
        assert list(rank(index, [0, 0])) == [0, 2, 1]

    def test_ties_break_by_database_index(self):
        index = make_index([[1, 0], [0, 1], [0, 0]], [[1], [1], [1]])
        assert list(rank(index, [0, 0])) == [2, 0, 1]

    def test_exact_match_ranks_first(self):
        index = make_index([[1, 1, 0], [0, 1, 0], [1, 0, 1]], [[1], [1], [1]])
        assert rank(index, [0, 1, 0])[0] == 1

    def test_k_mismatch(self):
        # the index holds one word per code, a k=65 query two
        index = make_index([[0] * 64], [[1]])
        words = hamming.pack_matrix(np.zeros((1, 65), dtype=np.uint8))
        with pytest.raises(DimensionError):
            R.evaluate(index, words, np.array([[1]], dtype=np.uint8), 1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(40, 12), dtype=np.uint8)
        labels = np.eye(4, dtype=np.uint8)[rng.integers(0, 4, size=40)]
        query = rng.integers(0, 2, size=12, dtype=np.uint8)
        index = make_index(bits, labels)
        dists = hamming.distances_to(hamming.pack_matrix(query[None])[0], index.codes)

        perm = rng.permutation(40)
        shuffled = make_index(bits[perm], labels[perm])
        order = rank(index, query)
        order_shuffled = rank(shuffled, query)
        # same distance profile rank by rank; tie order follows the new indices
        assert np.array_equal(dists[order], dists[perm][order_shuffled])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(0, k), min_size=1, max_size=60))))
def test_nearest_is_the_stable_argsort_prefix(k_dists):
    # a few distances over up to 60 items: ties everywhere, and every cutoff
    k, values = k_dists
    dists = np.array(values, dtype=np.uint8)
    within = np.bincount(dists, minlength=k + 1).cumsum()
    order = np.argsort(dists, kind="stable")
    for count in range(1, dists.size + 1):
        assert np.array_equal(R._nearest(dists, within, count), order[:count])


class TestRelevance:
    def test_shared_category(self):
        assert relevant([0, 1, 0], [0, 1, 1]) is True

    def test_disjoint(self):
        assert relevant([0, 1], [1, 0]) is False

    def test_partial_overlap(self):
        assert relevant([1, 1, 0], [0, 1, 1]) is True


class TestAveragePrecision:
    def test_perfect_prefix(self):
        assert oracle.average_precision([1, 1, 0], 3) == 1.0

    def test_single_late_hit(self):
        assert oracle.average_precision([0, 1], 2) == 0.5

    def test_no_relevant_items(self):
        assert oracle.average_precision([0, 0, 0], 3) == 0.0


class TestMeanAveragePrecision:
    def test_single_query_equals_ap(self):
        index = make_index([[0, 0], [1, 1]], [[1, 0], [0, 1]])
        words = hamming.pack_matrix(np.array([[0, 0]], dtype=np.uint8))
        got = R.mean_average_precision(index, words, np.array([[1, 0]], dtype=np.uint8), 2)
        assert got == oracle.average_precision([1, 0], 2)

    def test_mean_of_two_known_queries(self):
        # query 0 sees relevance [1, 0]; query 1 sees [0, 1] -> APs 1.0 and 0.5
        index = make_index([[0, 0], [1, 1]], [[1, 0], [0, 1]])
        words = hamming.pack_matrix(np.array([[0, 0], [1, 1]], dtype=np.uint8))
        labels = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        assert R.mean_average_precision(index, words, labels, 2) == 0.75

    def test_empty_query_set_rejected(self):
        index = make_index([[0, 0]], [[1]])
        with pytest.raises(ValueError):
            R.mean_average_precision(index, np.zeros((0, 1), np.uint64), np.zeros((0, 1), np.uint8), 1)


class TestPrecisionCurves:
    def test_two_rank_curve(self):
        index = make_index([[0, 0], [1, 1]], [[1, 0], [0, 1]])
        words = hamming.pack_matrix(np.array([[0, 0]], dtype=np.uint8))
        curve = R.precision_at_n_curve(index, words, np.array([[1, 0]], dtype=np.uint8), 2)
        assert curve == [(1, 1.0), (2, 0.5)]

    def test_all_relevant_database(self):
        index = make_index([[0, 0], [1, 1], [1, 0]], [[1], [1], [1]])
        words = hamming.pack_matrix(np.array([[0, 1]], dtype=np.uint8))
        curve = R.precision_at_n_curve(index, words, np.array([[1]], dtype=np.uint8), 3)
        assert curve[-1] == (3, 1.0)


class TestPrecisionWithinRadius:
    def test_pure_ball(self):
        index = make_index([[0, 0, 0, 0], [1, 1, 1, 1]], [[1, 0], [0, 1]])
        words = hamming.pack_matrix(np.array([[0, 0, 0, 1]], dtype=np.uint8))
        assert R.precision_within_radius(index, words, np.array([[1, 0]], dtype=np.uint8)) == 1.0

    def test_empty_ball_counts_zero(self):
        index = make_index([[1, 1, 1, 1, 1, 1]], [[1]])
        words = hamming.pack_matrix(np.zeros((1, 6), dtype=np.uint8))
        assert R.precision_within_radius(index, words, np.array([[1]], dtype=np.uint8)) == 0.0

    def test_mixed_ball(self):
        index = make_index([[0, 0, 0, 0], [0, 0, 0, 1]], [[1, 0], [0, 1]])
        words = hamming.pack_matrix(np.zeros((1, 4), dtype=np.uint8))
        assert R.precision_within_radius(index, words, np.array([[1, 0]], dtype=np.uint8)) == 0.5


class TestPrCurve:
    def test_rows_by_radius(self):
        index = make_index(
            [[0, 0, 0, 0], [0, 0, 0, 1], [1, 1, 1, 1], [1, 1, 1, 0]],
            [[1, 0], [1, 0], [0, 1], [0, 1]],
        )
        words = hamming.pack_matrix(np.zeros((1, 4), dtype=np.uint8))
        curve = R.pr_curve(index, words, np.array([[1, 0]], dtype=np.uint8))
        # distances 0, 1, 4 and 3: both relevant items lie within radius 1
        assert curve == [(0, 0.5, 1.0), (1, 1.0, 1.0), (2, 1.0, 1.0), (3, 1.0, 2 / 3),
                         (4, 1.0, 0.5)]

    def test_empty_ball_and_query_without_relevant_items(self):
        index = make_index([[1, 1, 1], [1, 1, 0]], [[1, 0], [1, 0]])
        words = hamming.pack_matrix(np.zeros((2, 3), dtype=np.uint8))
        curve = R.pr_curve(index, words, np.array([[1, 0], [0, 1]], dtype=np.uint8))
        # nothing within radius 0 or 1; the second query has recall 1 at every radius
        assert curve == [(0, 0.5, 0.0), (1, 0.5, 0.0), (2, 0.75, 0.5), (3, 1.0, 0.5)]

    def test_last_radius_holds_every_item(self):
        rng = np.random.default_rng(1)
        labels = np.eye(3, dtype=np.uint8)[rng.integers(0, 3, 10)]
        index = make_index(rng.integers(0, 2, size=(10, 6)), labels)
        words = hamming.pack_matrix(rng.integers(0, 2, size=(3, 6), dtype=np.uint8))
        query_labels = np.eye(3, dtype=np.uint8)[rng.integers(0, 3, 3)]
        curve = R.pr_curve(index, words, query_labels)
        assert [r for r, _, _ in curve] == list(range(7))
        share = (labels[:, query_labels.argmax(axis=1)].sum(axis=0) / 10).mean()
        assert curve[-1][1] == 1.0 and curve[-1][2] == pytest.approx(share)
        recalls = [rec for _, rec, _ in curve]
        assert recalls == sorted(recalls)


class TestCenterDistanceMatrix:
    def test_codes_at_their_centers(self):
        cs = C.generate_centers(4, 8, seed=0)
        words = cs.packed()
        matrix = R.center_distance_matrix(words, np.arange(4), cs)
        assert np.array_equal(np.diag(matrix), np.zeros(4))
        off = matrix[~np.eye(4, dtype=bool)]
        assert np.array_equal(off, np.full(12, 4.0))

    def test_single_group_leaves_nan_rows(self):
        cs = C.generate_centers(3, 4, seed=0)
        words = hamming.pack_matrix(np.array([[1, 1, 1, 1], [1, 0, 1, 0]], dtype=np.uint8))
        matrix = R.center_distance_matrix(words, np.zeros(2, dtype=int), cs)
        assert np.isfinite(matrix[0]).all()
        assert np.isnan(matrix[1]).all() and np.isnan(matrix[2]).all()

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        cs = C.generate_centers_bernoulli(5, 12, seed=3)
        bits = rng.integers(0, 2, size=(30, 12), dtype=np.uint8)
        groups = rng.integers(0, 5, size=30)
        got = R.center_distance_matrix(hamming.pack_matrix(bits), groups, cs)
        want = oracle.center_distance_matrix(
            [list(b) for b in bits], list(groups), [list(c) for c in cs.bits]
        )
        for i in range(5):
            for j in range(5):
                if np.isnan(want[i][j]):
                    assert np.isnan(got[i, j])
                else:
                    assert got[i, j] == want[i][j]
        # codes in another order: same matrix, bit for bit (each sum is an integer)
        order = rng.permutation(30)
        shuffled = R.center_distance_matrix(hamming.pack_matrix(bits[order]), groups[order], cs)
        assert shuffled.tobytes() == got.tobytes()


def random_instance(rng):
    n = int(rng.integers(5, 60))
    q = int(rng.integers(1, 6))
    k = int(rng.integers(2, 17))
    nq = int(rng.integers(1, 4))

    def labels(count):
        rows = rng.integers(0, 2, size=(count, q), dtype=np.uint8)
        rows[rows.sum(axis=1) == 0, rng.integers(0, q)] = 1
        return rows

    db_bits = rng.integers(0, 2, size=(n, k), dtype=np.uint8)
    q_bits = rng.integers(0, 2, size=(nq, k), dtype=np.uint8)
    return db_bits, labels(n), q_bits, labels(nq)


def test_all_metrics_match_oracle_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(10):
        db_bits, db_labels, q_bits, q_labels = random_instance(rng)
        n = db_bits.shape[0]
        map_n = int(rng.integers(1, n + 1))
        index = make_index(db_bits, db_labels)
        q_words = hamming.pack_matrix(q_bits)

        db_cats = [set(np.flatnonzero(row)) for row in db_labels]
        q_cats = [set(np.flatnonzero(row)) for row in q_labels]
        db_list = [list(map(int, row)) for row in db_bits]
        q_list = [list(map(int, row)) for row in q_bits]

        assert R.mean_average_precision(index, q_words, q_labels, map_n) == (
            oracle.mean_average_precision(db_list, db_cats, q_list, q_cats, map_n)
        )
        assert R.precision_at_n_curve(index, q_words, q_labels, map_n) == (
            oracle.precision_at_n_curve(db_list, db_cats, q_list, q_cats, map_n)
        )
        assert R.precision_within_radius(index, q_words, q_labels) == (
            oracle.precision_within_radius(db_list, db_cats, q_list, q_cats, 2)
        )
        curve = R.pr_curve(index, q_words, q_labels)
        assert curve == oracle.pr_curve(db_list, db_cats, q_list, q_cats)

        # range and monotonicity invariants
        assert 0.0 <= R.mean_average_precision(index, q_words, q_labels, map_n) <= 1.0
        assert 0.0 <= R.precision_within_radius(index, q_words, q_labels) <= 1.0
        recalls = [rec for _, rec, _ in curve]
        assert all(0.0 <= rec <= 1.0 and 0.0 <= prec <= 1.0 for _, rec, prec in curve)
        assert recalls == sorted(recalls)


class TestReport:
    def test_csv_sections(self, tmp_path):
        matrix = np.array([[0.0, 2.0], [np.nan, np.nan]])
        report = R.EvalReport(
            map_at_n=0.75,
            precision=np.array([1.0, 0.75]),
            radius_recall=np.array([0.5, 1.0]),
            radius_precision=np.array([1.0, 0.5]),
            center_distances=matrix,
        )
        path = tmp_path / "report.csv"
        R.write_report(path, report)
        text = path.read_text()
        sections = text.split("\n\n")
        assert sections[0].splitlines()[0] == "metric,value"
        assert "map_at_n,0.75" in sections[0]
        # k = 1: p_at_h2 is the radius curve's last row, and only the curve holds it
        assert "p_at_h2,0.5" in sections[0]
        with pytest.raises(AttributeError):
            report.p_at_h2 = 1.0
        assert sections[1].splitlines()[0] == "rank,precision"
        assert sections[2].splitlines() == ["radius,recall,precision", "0,0.5,1.0", "1,1.0,0.5"]
        assert sections[3].splitlines()[0] == "center_i,center_j,mean_distance"
        assert "1,0,nan" in sections[3]

    def test_report_bytes(self, tmp_path):
        report = R.EvalReport(
            map_at_n=1 / 3,
            precision=np.array([1 - r / 11 for r in range(1, 8)]),
            radius_recall=np.array([r / 9 for r in range(0, 4)]),
            radius_precision=np.array([1 - r / 13 for r in range(0, 4)]),
            center_distances=np.array([[0.5, np.nan], [2.0, 1 / 7]]),
        )
        # p_at_h2 is radius_precision's row at radius 2
        lines = ["metric,value", f"map_at_n,{1 / 3!r}", f"p_at_h2,{1 - 2 / 13!r}", "",
                 "rank,precision"]
        lines += [f"{r},{1 - r / 11!r}" for r in range(1, 8)]
        lines += ["", "radius,recall,precision"]
        lines += [f"{r},{r / 9!r},{1 - r / 13!r}" for r in range(0, 4)]
        lines += ["", "center_i,center_j,mean_distance", "0,0,0.5", "0,1,nan", "1,0,2.0"]
        expected = ("\n".join(lines) + f"\n1,1,{1 / 7!r}\n").encode()
        R.write_report(tmp_path / "report.csv", report)
        assert (tmp_path / "report.csv").read_bytes() == expected

    def test_failed_write_keeps_the_old_report(self, tmp_path, monkeypatch):
        path = tmp_path / "report.csv"
        path.write_bytes(b"old report")
        report = R.EvalReport(0.5, np.array([0.5]), np.ones(3), np.zeros(3))
        calls = []

        def replace_fails(src, dst):
            # the whole new report is in the temp file beside the old one
            calls.append(src)
            assert len(list(tmp_path.iterdir())) == 2
            assert open(src, "rb").read() == oracle.report_text_reference(report).encode()
            raise OSError(28, "No space left on device", src)

        monkeypatch.setattr(binfmt.os, "replace", replace_fails)
        with pytest.raises(OSError, match="No space left"):
            R.write_report(path, report)
        assert len(calls) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
        assert path.read_bytes() == b"old report"

    def test_report_size_does_not_grow_with_n(self, tmp_path):
        # the report holds map_n P@N points and k + 1 radius rows however large the
        # database is
        rng = np.random.default_rng(0)
        sizes = []
        for n in (2_000, 100_000):
            index = R.CodeIndex.from_labels(
                rng.integers(0, 2**63, size=(n, 1), dtype=np.uint64),
                np.eye(4, dtype=np.uint8)[rng.integers(0, 4, n)], 64)
            words = rng.integers(0, 2**63, size=(3, 1), dtype=np.uint64)
            report = R.evaluate(index, words, np.eye(4, dtype=np.uint8)[[0, 1, 2]], map_n=1000)
            tracemalloc.start()
            try:
                R.write_report(tmp_path / "report.csv", report)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            lines = (tmp_path / "report.csv").read_text().splitlines()
            assert len(lines) == 3 + 2 + 1000 + 2 + 65
            assert lines[-1] == f"64,1.0,{float(report.radius_precision[-1])!r}"
            sizes.append(peak)
        assert max(sizes) < 256 * (1000 + 65)  # a line, its text and its floats

    def test_report_matches_one_repr_per_float(self, tmp_path):
        # a seeded evaluation whose radius curve starts with empty balls and whose
        # P@N runs at 1.0: a class of 18,000 items that lies 1 bit from the queries' center
        rng = np.random.default_rng(11)
        n, k = 20_000, 24
        centers = rng.integers(0, 2, size=(2, k), dtype=np.uint8)
        classes = (rng.random(n) < 0.1).astype(np.int64)
        bits = centers[classes]
        bits[np.arange(n), rng.integers(0, k, n)] ^= 1
        index = make_index(bits, np.eye(2, dtype=np.uint8)[classes])
        queries = np.repeat(centers[:1], 4, axis=0)
        queries[np.arange(4), [0, 5, 11, 17]] ^= 1
        report = R.evaluate(index, hamming.pack_matrix(queries),
                            np.eye(2, dtype=np.uint8)[[0, 0, 0, 0]], map_n=3000)
        report = dataclasses.replace(report, center_distances=np.array([[0.5, np.nan],
                                                                         [1 / 3, 2.0]]))
        assert (report.precision == 1.0).all() and report.precision.shape == (3000,)
        assert report.radius_recall[-1] == 1.0 and report.radius_recall.shape == (k + 1,)
        R.write_report(tmp_path / "report.csv", report)
        lines = (tmp_path / "report.csv").read_bytes().decode().split("\n")
        assert lines == oracle.report_text_reference(report).split("\n")

    def test_rerun_reports_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        index = make_index(
            rng.integers(0, 2, size=(50, 8)), np.eye(4, dtype=np.uint8)[rng.integers(0, 4, 50)]
        )
        words = hamming.pack_matrix(rng.integers(0, 2, size=(6, 8), dtype=np.uint8))
        labels = np.eye(4, dtype=np.uint8)[rng.integers(0, 4, 6)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        R.write_report(a, R.evaluate(index, words, labels, map_n=10))
        R.write_report(b, R.evaluate(index, words, labels, map_n=10))
        assert a.read_bytes() == b.read_bytes()


def tied_instance(rng, k, n, nq):
    """Database rows drawn from 5 codes (heavy ties), one being the first's
    complement so distances reach k; queries sit on or next to pool codes."""
    pool = rng.integers(0, 2, size=(4, k), dtype=np.uint8)
    pool = np.vstack([pool, 1 - pool[:1]])
    db_bits = pool[rng.integers(0, len(pool), n)]
    q_bits = pool[rng.integers(0, len(pool), nq)].copy()
    q_bits[1:, 0] ^= 1
    q = 3
    db_labels = np.eye(q, dtype=np.uint8)[rng.integers(0, q, n)]
    db_labels[rng.random(n) < 0.3, rng.integers(0, q)] = 1
    q_labels = np.eye(q, dtype=np.uint8)[rng.integers(0, q, nq)]
    return db_bits, db_labels, q_bits, q_labels


@pytest.mark.parametrize("k", [1, 3, 63, 64, 65, 130, 300])
@pytest.mark.parametrize("map_n, pn", [(7, 7), (1000, 25)])
def test_evaluate_matches_oracle_and_metric_functions(k, map_n, pn):
    rng = np.random.default_rng(k)
    db_bits, db_labels, q_bits, q_labels = tied_instance(rng, k, n=40, nq=3)
    index = make_index(db_bits, db_labels)
    q_words = hamming.pack_matrix(q_bits)
    report = R.evaluate(index, q_words, q_labels, map_n)
    p_at_n = list(zip(range(1, pn + 1), report.precision[:pn].tolist()))
    pr = list(zip(range(k + 1), report.radius_recall.tolist(), report.radius_precision.tolist()))

    db_cats = [set(np.flatnonzero(row)) for row in db_labels]
    q_cats = [set(np.flatnonzero(row)) for row in q_labels]
    db_list = [list(map(int, row)) for row in db_bits]
    q_list = [list(map(int, row)) for row in q_bits]

    assert report.map_at_n == oracle.mean_average_precision(db_list, db_cats, q_list, q_cats, map_n)
    assert report.p_at_h2 == oracle.precision_within_radius(db_list, db_cats, q_list, q_cats, 2)
    assert report.precision.shape == (min(map_n, 40),)
    assert report.radius_recall.shape == report.radius_precision.shape == (k + 1,)
    assert report.p_at_h2 == report.radius_precision[min(2, k)]
    assert p_at_n == oracle.precision_at_n_curve(db_list, db_cats, q_list, q_cats, pn)
    assert pr == oracle.pr_curve(db_list, db_cats, q_list, q_cats)
    assert report.center_distances is None

    assert report.map_at_n == R.mean_average_precision(index, q_words, q_labels, map_n)
    assert report.p_at_h2 == R.precision_within_radius(index, q_words, q_labels)
    assert p_at_n == R.precision_at_n_curve(index, q_words, q_labels, pn)
    assert pr == R.pr_curve(index, q_words, q_labels)


@pytest.mark.parametrize("k", [1, 2, 5, 64, 65])
def test_permuted_database_gives_the_same_radius_curve(k):
    # a radius ball holds whole distance ties, so the database order cannot move
    # its counts, while the per-rank P@N does move
    rng = np.random.default_rng(100 + k)
    db_bits, db_labels, q_bits, q_labels = tied_instance(rng, k, n=300, nq=4)
    q_words = hamming.pack_matrix(q_bits)
    report = R.evaluate(make_index(db_bits, db_labels), q_words, q_labels, 50)
    p_at_n_moved = False
    for _ in range(3):
        perm = rng.permutation(300)
        moved = R.evaluate(make_index(db_bits[perm], db_labels[perm]), q_words, q_labels, 50)
        assert moved.radius_recall.tobytes() == report.radius_recall.tobytes()
        assert moved.radius_precision.tobytes() == report.radius_precision.tobytes()
        assert moved.p_at_h2 == report.p_at_h2
        p_at_n_moved |= moved.precision.tobytes() != report.precision.tobytes()
    assert p_at_n_moved


def test_query_without_category_and_multi_category_queries_match_oracle():
    rng = np.random.default_rng(8)
    db_bits = rng.integers(0, 2, size=(13, 9), dtype=np.uint8)  # 13 rows: a partial bitset byte
    db_labels = rng.integers(0, 2, size=(13, 4), dtype=np.uint8)
    db_labels[db_labels.sum(axis=1) == 0, 0] = 1
    q_bits = rng.integers(0, 2, size=(3, 9), dtype=np.uint8)
    q_labels = np.array([[0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]], dtype=np.uint8)
    report = R.evaluate(make_index(db_bits, db_labels), hamming.pack_matrix(q_bits), q_labels, 5)

    db_cats = [set(np.flatnonzero(row)) for row in db_labels]
    q_cats = [set(np.flatnonzero(row)) for row in q_labels]
    db_list = [list(map(int, row)) for row in db_bits]
    q_list = [list(map(int, row)) for row in q_bits]
    assert report.map_at_n == oracle.mean_average_precision(db_list, db_cats, q_list, q_cats, 5)
    assert report.p_at_h2 == oracle.precision_within_radius(db_list, db_cats, q_list, q_cats, 2)
    p_at_n = list(zip(range(1, 6), report.precision[:5].tolist()))
    assert p_at_n == oracle.precision_at_n_curve(db_list, db_cats, q_list, q_cats, 5)
    pr = list(zip(range(10), report.radius_recall.tolist(), report.radius_precision.tolist()))
    assert pr == oracle.pr_curve(db_list, db_cats, q_list, q_cats)
    assert report.p_at_h2 == report.radius_precision[2]
    index = make_index(db_bits, db_labels)
    alone = R.evaluate(index, hamming.pack_matrix(q_bits[:1]), q_labels[:1], 5)
    assert alone.map_at_n == 0.0 and alone.p_at_h2 == 0.0
    assert set(alone.radius_recall.tolist()) == {1.0}
    assert set(alone.radius_precision.tolist()) == set(alone.precision.tolist()) == {0.0}


@pytest.mark.parametrize("value", [0.5, 256])
def test_a_query_category_stored_as_any_nonzero_value_counts(value):
    # cast to uint8, 0.5 and 256 both read 0: the query would have no relevant item
    index = make_index([[0, 0], [1, 1]], [one_hot(2, 0), one_hot(2, 1)])
    query = hamming.pack_matrix(np.zeros((1, 2), dtype=np.uint8))
    assert R.evaluate(index, query, np.array([[value, 0]]), 2).map_at_n == 1.0


def test_a_database_category_stored_as_any_nonzero_value_counts():
    # packbits takes no float array: 0.5 raised a bare TypeError
    codes = np.zeros((2, 1), np.uint64)
    index = R.CodeIndex.from_labels(codes, np.array([[0.5, 0], [0, 1.0]]), 2)
    expected = R.CodeIndex.from_labels(codes, np.array([[1, 0], [0, 1]], np.uint8), 2)
    assert np.array_equal(index.categories, expected.categories)


def test_evaluate_holds_the_same_bytes_at_every_n():
    # a report is map_n P@N points and two curves of k + 1 radii, whatever n is
    rng = np.random.default_rng(4)
    held = []
    for n in (5_000, 50_000):
        index = make_index(rng.integers(0, 2, size=(n, 64), dtype=np.uint8),
                           np.eye(4, dtype=np.uint8)[rng.integers(0, 4, n)])
        words = hamming.pack_matrix(rng.integers(0, 2, size=(1, 64), dtype=np.uint8))
        labels = np.eye(4, dtype=np.uint8)[[1]]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = R.evaluate(index, words, labels, map_n=100)
            held.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
        assert report.precision.shape == (100,)
        assert report.radius_recall.shape == report.radius_precision.shape == (65,)
    # the three arrays' data, and under 2 kB of objects whichever n it is
    assert max(held) <= 8 * (100 + 2 * 65) + 2048


def test_evaluate_holds_one_query_ranking_at_a_time():
    # a query's n distances, its n relevance bools and their 8n-byte temporaries (the
    # XOR in distances_to, bincount's index cast) come one at a time (1.4 arrays of
    # 8n bytes); only the items within r* are sorted, and no n-length array of the
    # previous query is held while the next one is computed
    rng = np.random.default_rng(0)
    n, q = 100_000, 80
    labels = rng.random((n, q)) < 0.03
    labels[np.arange(n), rng.integers(0, q, n)] = True
    index = make_index(rng.integers(0, 2, size=(n, 64), dtype=np.uint8), labels)
    words = hamming.pack_matrix(rng.integers(0, 2, size=(10, 64), dtype=np.uint8))
    query_labels = labels[:10].astype(np.uint8)
    del labels
    tracemalloc.start()
    try:
        R.evaluate(index, words, query_labels, map_n=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n


class TestEvaluateOnePass:
    @pytest.fixture
    def distance_calls(self, monkeypatch):
        calls = []
        real = hamming.distances_to

        def counted(query_words, db_words):
            calls.append(1)
            return real(query_words, db_words)

        monkeypatch.setattr(hamming, "distances_to", counted)
        return calls

    def test_distances_computed_once_per_query(self, distance_calls):
        rng = np.random.default_rng(3)
        index = make_index(
            rng.integers(0, 2, size=(30, 10)), np.eye(3, dtype=np.uint8)[rng.integers(0, 3, 30)]
        )
        words = hamming.pack_matrix(rng.integers(0, 2, size=(7, 10), dtype=np.uint8))
        labels = np.eye(3, dtype=np.uint8)[rng.integers(0, 3, 7)]
        R.evaluate(index, words, labels, map_n=5)
        assert len(distance_calls) == 7

    def test_map_n_checked_before_ranking(self, distance_calls):
        index = make_index([[0, 0], [1, 1]], [[1], [1]])
        words = hamming.pack_matrix(np.zeros((1, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="at least 1"):
            R.evaluate(index, words, np.array([[1]], dtype=np.uint8), map_n=0)
        assert distance_calls == []

    def test_one_dimensional_query_labels_rejected(self):
        index = make_index([[0, 0], [1, 1]], [[1], [1]])
        words = hamming.pack_matrix(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(DimensionError, match="aligned"):
            R.evaluate(index, words, np.array([1, 1], dtype=np.uint8), map_n=1)

    @pytest.mark.parametrize("codes_shape, labels_shape", [((2, 1), (2,)), ((2,), (2, 1))],
                             ids=["labels", "codes"])
    def test_one_dimensional_database_rejected(self, codes_shape, labels_shape):
        with pytest.raises(DimensionError, match=r"must be \(n, W\) and \(n, q\) matrices"):
            R.CodeIndex.from_labels(np.zeros(codes_shape, np.uint64),
                                    np.ones(labels_shape, np.uint8), 64)

    def test_label_rows_must_match_the_codes(self):
        # 100 and 97 label rows both fill 13 bytes of each category's bitset
        codes = np.zeros((100, 1), np.uint64)
        labels = np.eye(3, dtype=np.uint8)[np.arange(97) % 3]
        bitsets = np.packbits(labels.T, axis=1, bitorder="little")
        assert bitsets.shape[1] == (100 + 7) // 8
        for build in (lambda: R.CodeIndex(codes, bitsets, 97, 64),
                      lambda: R.CodeIndex.from_labels(codes, labels, 64)):
            with pytest.raises(DimensionError, match="^100 codes but 97 label rows$"):
                build()
        with pytest.raises(DimensionError, match="^category bitsets of 12 bytes for 100 "):
            R.CodeIndex(codes, bitsets[:, :12], 100, 64)

    @pytest.mark.parametrize("k", [0, 65])
    def test_code_words_must_match_k(self, k):
        codes = np.zeros((8, 1), np.uint64)
        with pytest.raises(DimensionError, match=f"^1-word codes for k={k}$"):
            R.CodeIndex.from_labels(codes, np.ones((8, 1), np.uint8), k)

    def test_empty_database_rejected(self):
        index = R.CodeIndex.from_labels(np.zeros((0, 1), np.uint64), np.zeros((0, 2), np.uint8), 8)
        words = hamming.pack_matrix(np.zeros((1, 8), dtype=np.uint8))
        labels = np.array([[1, 0]], dtype=np.uint8)
        with pytest.raises(ValueError, match="database is empty"):
            R.evaluate(index, words, labels, map_n=10)
        with pytest.raises(ValueError, match="database is empty"):
            R.pr_curve(index, words, labels)
