import tracemalloc

import numpy as np
import pytest

import oracle
from centerhash import centers as C
from centerhash import hamming, retrieval as R
from centerhash.errors import DimensionError


def make_index(bit_rows, label_rows):
    bits = np.asarray(bit_rows, dtype=np.uint8)
    labels = np.asarray(label_rows, dtype=np.uint8)
    return R.CodeIndex(codes=hamming.pack_matrix(bits), labels=labels)


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
    """Database indices by ascending distance from one query, through retrieval._rank."""
    return R._rank(index, hamming.pack_matrix(np.array([query_bits], dtype=np.uint8))[0])[1]


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
        with pytest.raises(DimensionError):
            rank(index, [0] * 65)

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
    def test_perfect_ranking(self):
        index = make_index(
            [[0, 0, 0, 0], [0, 0, 0, 1], [1, 1, 1, 1], [1, 1, 1, 0]],
            [[1, 0], [1, 0], [0, 1], [0, 1]],
        )
        words = hamming.pack_matrix(np.zeros((1, 4), dtype=np.uint8))
        curve = R.pr_curve(index, words, np.array([[1, 0]], dtype=np.uint8))
        # precision stays 1.0 until recall reaches 1.0, then decays
        assert curve[0] == (0.5, 1.0)
        assert curve[1] == (1.0, 1.0)
        assert curve[-1][0] == 1.0

    def test_final_cutoff_reaches_full_recall(self):
        rng = np.random.default_rng(1)
        index = make_index(
            rng.integers(0, 2, size=(10, 6)), np.eye(3, dtype=np.uint8)[rng.integers(0, 3, 10)]
        )
        words = hamming.pack_matrix(rng.integers(0, 2, size=(3, 6), dtype=np.uint8))
        labels = np.eye(3, dtype=np.uint8)[rng.integers(0, 3, 3)]
        curve = R.pr_curve(index, words, labels)
        assert curve[-1][0] == 1.0
        recalls = [point[0] for point in curve]
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
        recalls = [rec for rec, _ in curve]
        assert all(0.0 <= rec <= 1.0 and 0.0 <= prec <= 1.0 for rec, prec in curve)
        assert recalls == sorted(recalls)


class TestReport:
    def test_csv_sections(self, tmp_path):
        matrix = np.array([[0.0, 2.0], [np.nan, np.nan]])
        report = R.EvalReport(
            map_at_n=0.75,
            p_at_h2=0.5,
            map_n=2,
            precision=np.array([1.0, 0.75]),
            recall=np.array([0.5, 1.0]),
            center_distances=matrix,
        )
        path = tmp_path / "report.csv"
        R.write_report(path, report)
        text = path.read_text()
        sections = text.split("\n\n")
        assert sections[0].splitlines()[0] == "metric,value"
        assert "map_at_n,0.75" in sections[0]
        assert sections[1].splitlines()[0] == "rank,precision"
        assert sections[2].splitlines()[0] == "recall,precision"
        assert sections[3].splitlines()[0] == "center_i,center_j,mean_distance"
        assert "1,0,nan" in sections[3]

    @pytest.mark.parametrize("map_n", [7, 20])
    def test_report_bytes(self, tmp_path, map_n):
        # the P@N section is the first map_n ranks of the PR curve's precision
        report = R.EvalReport(
            map_at_n=1 / 3,
            p_at_h2=0.1,
            map_n=map_n,
            precision=np.array([1 - r / 11 for r in range(1, 10)]),
            recall=np.array([r / 9 for r in range(1, 10)]),
            center_distances=np.array([[0.5, np.nan], [2.0, 1 / 7]]),
        )
        lines = ["metric,value", f"map_at_n,{1 / 3!r}", "p_at_h2,0.1", "", "rank,precision"]
        lines += [f"{r},{1 - r / 11!r}" for r in range(1, min(map_n, 9) + 1)]
        lines += ["", "recall,precision"]
        lines += [f"{r / 9!r},{1 - r / 11!r}" for r in range(1, 10)]
        lines += ["", "center_i,center_j,mean_distance", "0,0,0.5", "0,1,nan", "1,0,2.0"]
        expected = ("\n".join(lines) + f"\n1,1,{1 / 7!r}\n").encode()
        R.write_report(tmp_path / "report.csv", report)
        assert (tmp_path / "report.csv").read_bytes() == expected

    def test_failed_write_keeps_the_old_report(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_bytes(b"old report")

        class BrokenRecall:
            def tolist(self):
                yield 0.5
                yield 1.0
                # the report's first lines are in the temp file beside the old one
                assert len(list(tmp_path.iterdir())) == 2
                raise ValueError("broken recall")

        report = R.EvalReport(0.5, 0.5, 1, np.array([0.5, 1.0, 0.75]), BrokenRecall())
        with pytest.raises(ValueError, match="broken recall"):
            R.write_report(path, report)
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
        assert path.read_bytes() == b"old report"

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
    pr = list(zip(report.recall.tolist(), report.precision.tolist()))

    db_cats = [set(np.flatnonzero(row)) for row in db_labels]
    q_cats = [set(np.flatnonzero(row)) for row in q_labels]
    db_list = [list(map(int, row)) for row in db_bits]
    q_list = [list(map(int, row)) for row in q_bits]

    assert report.map_at_n == oracle.mean_average_precision(db_list, db_cats, q_list, q_cats, map_n)
    assert report.p_at_h2 == oracle.precision_within_radius(db_list, db_cats, q_list, q_cats, 2)
    assert report.map_n == map_n and report.precision.shape == report.recall.shape == (40,)
    assert p_at_n == oracle.precision_at_n_curve(db_list, db_cats, q_list, q_cats, pn)
    assert pr == oracle.pr_curve(db_list, db_cats, q_list, q_cats)
    assert report.center_distances is None

    assert report.map_at_n == R.mean_average_precision(index, q_words, q_labels, map_n)
    assert report.p_at_h2 == R.precision_within_radius(index, q_words, q_labels)
    assert p_at_n == R.precision_at_n_curve(index, q_words, q_labels, pn)
    assert pr == R.pr_curve(index, q_words, q_labels)


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
    pr = list(zip(report.recall.tolist(), report.precision.tolist()))
    assert pr == oracle.pr_curve(db_list, db_cats, q_list, q_cats)
    index = make_index(db_bits, db_labels)
    alone = R.evaluate(index, hamming.pack_matrix(q_bits[:1]), q_labels[:1], 5)
    assert alone.map_at_n == 0.0 and alone.p_at_h2 == 0.0
    assert set(alone.recall.tolist()) == {1.0} and set(alone.precision.tolist()) == {0.0}


def test_report_holds_one_float64_per_rank_and_curve():
    # the per-rank mean precision and recall, 16 bytes per database item, are all
    # a report grows with; n (recall, precision) tuples would cost about 104
    rng = np.random.default_rng(4)
    n = 50_000
    index = make_index(rng.integers(0, 2, size=(n, 64), dtype=np.uint8),
                       np.eye(4, dtype=np.uint8)[rng.integers(0, 4, n)])
    words = hamming.pack_matrix(rng.integers(0, 2, size=(1, 64), dtype=np.uint8))
    labels = np.eye(4, dtype=np.uint8)[[1]]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = R.evaluate(index, words, labels, map_n=100)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.precision.shape == report.recall.shape == (n,)
    assert held <= 24 * n


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

    def test_empty_database_rejected(self):
        index = R.CodeIndex(codes=np.zeros((0, 1), np.uint64), labels=np.zeros((0, 2), np.uint8))
        words = hamming.pack_matrix(np.zeros((1, 8), dtype=np.uint8))
        labels = np.array([[1, 0]], dtype=np.uint8)
        with pytest.raises(ValueError, match="database is empty"):
            R.evaluate(index, words, labels, map_n=10)
        with pytest.raises(ValueError, match="database is empty"):
            R.pr_curve(index, words, labels)
