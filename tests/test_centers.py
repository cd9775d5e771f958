import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from centerhash import centers as C
from centerhash import hamming
from centerhash.errors import (
    DimensionError,
    FormatError,
    GenerationError,
    InsufficientCentersError,
    InvalidLabelError,
)


def center_set(rows):
    bits = np.array(rows, dtype=np.uint8)
    return C.CenterSet(bits, None)


def pairwise(cs):
    packed = cs.packed()
    d = hamming.pairwise_distances(packed, packed)
    return d[np.triu_indices(cs.m, 1)]


class TestHadamardMatrix:
    def test_order_one(self):
        assert np.array_equal(C.hadamard_matrix(1), [[1]])

    def test_order_two(self):
        assert np.array_equal(C.hadamard_matrix(2), [[1, 1], [1, -1]])

    def test_order_four(self):
        expected = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        assert np.array_equal(C.hadamard_matrix(4), expected)

    @pytest.mark.parametrize("k", [2, 4, 8, 16, 32, 64])
    def test_rows_orthogonal(self, k):
        h = C.hadamard_matrix(k).astype(np.int64)
        assert np.array_equal(h @ h.T, k * np.eye(k, dtype=np.int64))

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 32, 64, 128])
    def test_matches_scipy(self, k):
        assert np.array_equal(C.hadamard_matrix(k), scipy.linalg.hadamard(k))

    @pytest.mark.parametrize("k", [0, 3, 6, 12, 100])
    def test_rejects_non_power_of_two(self, k):
        with pytest.raises(DimensionError):
            C.hadamard_matrix(k)


class TestGenerateCenters:
    def test_hadamard_rows_mapped(self):
        cs = C.generate_centers(4, 4, seed=0)
        assert cs.method == "hadamard"
        expected = [[1, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 1]]
        assert np.array_equal(cs.bits, expected)
        assert set(pairwise(cs)) == {2}

    def test_stacked_negation_branch(self):
        cs = C.generate_centers(8, 4, seed=0)
        assert cs.method == "hadamard"
        # row 5 is the negation of row 1
        assert np.array_equal(cs.bits[4], [0, 0, 0, 0])
        d = hamming.pairwise_distances(cs.packed(), cs.packed())
        assert d[0, 4] == 4

    def test_balanced_fallback_popcount(self):
        cs = C.generate_centers(100, 48, seed=1)
        assert cs.method == "balanced"
        assert cs.m == 100
        assert np.array_equal(cs.bits.sum(axis=1), np.full(100, 24))

    def test_balanced_handles_odd_k(self):
        cs = C.generate_centers_balanced(10, 7, seed=2)
        assert np.array_equal(cs.bits.sum(axis=1), np.full(10, 3))

    @pytest.mark.parametrize("k", [4, 8, 16, 32, 64])
    def test_hadamard_equidistant(self, k):
        cs = C.generate_centers(k, k, seed=0)
        assert np.array_equal(pairwise(cs), np.full(k * (k - 1) // 2, k // 2))

    @pytest.mark.parametrize("k", [4, 8, 16, 32, 64])
    def test_two_k_mean_distance_bound(self, k):
        report = C.validate_centers(C.generate_centers(2 * k, k, seed=0))
        assert report.valid and report.mean_distance >= k / 2

    def test_distinct_rows(self):
        for m, k in ((8, 8), (16, 8), (60, 30)):
            cs = C.generate_centers(m, k, seed=3)
            assert len({row.tobytes() for row in cs.bits}) == m

    def test_preconditions(self):
        with pytest.raises(ValueError):
            C.generate_centers(0, 8)
        with pytest.raises(ValueError):
            C.generate_centers(4, 1)

    def test_exhausted_retries(self):
        # k=2 balanced codes have only two distinct values
        with pytest.raises(GenerationError):
            C.generate_centers_balanced(3, 2, seed=0)

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(3, 9))
    def test_random_output_always_passes_validation(self, seed, m, k):
        for generate in (C.generate_centers_balanced, C.generate_centers_bernoulli):
            try:
                cs = generate(m, k, seed=seed)
            except GenerationError:
                continue  # tiny spaces can run out of distinct rows
            assert C.validate_centers(cs).valid


class TestGenerateDispatch:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_hadamard_falls_back_to_balanced(self, seed):
        # the multi-label benchmark (q=21, k=48) relies on this fallback
        auto = C.generate("hadamard", 21, 48, seed)
        assert auto.method == "balanced"
        assert np.array_equal(auto.bits, C.generate("balanced", 21, 48, seed).bits)

    @pytest.mark.parametrize("m", [21, 64, 100])
    def test_hadamard_rows_for_power_of_two(self, m):
        cs = C.generate("hadamard", m, 64, seed=3)
        h = C.hadamard_matrix(64)
        assert np.array_equal(cs.bits, (np.vstack([h, -h])[:m] > 0).astype(np.uint8))
        assert np.array_equal(cs.bits, C.generate_centers(m, 64, seed=3).bits)

    def test_each_method_calls_its_generator(self):
        by_name = {
            "hadamard": C.generate_centers,
            "balanced": C.generate_centers_balanced,
            "bernoulli": C.generate_centers_bernoulli,
        }
        assert set(by_name) == set(C.METHODS)
        for method, generate in by_name.items():
            expected = generate(12, 24, seed=7)
            cs = C.generate(method, 12, 24, seed=7)
            assert cs.method == expected.method
            assert np.array_equal(cs.bits, expected.bits)

    @settings(max_examples=60, deadline=None)
    @given(
        method=st.sampled_from(C.METHODS),
        m=st.integers(1, 140),
        k=st.one_of(st.sampled_from([2, 4, 8, 16, 32, 64]), st.integers(2, 70)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_recorded_method_rebuilds_the_set(self, method, m, k, seed):
        # every branch: Hadamard rows of H and of [H; -H], and the balanced fallback
        try:
            cs = C.generate(method, m, k, seed)
        except GenerationError:
            return  # tiny k can run out of distinct rows
        assert cs.method in C.METHODS
        assert np.array_equal(C.generate(cs.method, m, k, seed).bits, cs.bits)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown center method"):
            C.generate("hadamard2k", 4, 8)


class TestBernoulli:
    def test_deterministic(self):
        a = C.generate_centers_bernoulli(50, 64, seed=9)
        b = C.generate_centers_bernoulli(50, 64, seed=9)
        assert np.array_equal(a.bits, b.bits)
        assert a.method == "bernoulli"

    def test_seed_changes_output(self):
        a = C.generate_centers_bernoulli(50, 64, seed=9)
        b = C.generate_centers_bernoulli(50, 64, seed=10)
        assert not np.array_equal(a.bits, b.bits)

    def test_mean_pairwise_distance_near_half(self):
        cs = C.generate_centers_bernoulli(1000, 64, seed=4)
        mean = pairwise(cs).mean()
        assert 31 <= mean <= 33


class TestValidate:
    def test_two_centers_valid(self):
        cs = center_set([[1, 1, 1, 1], [1, 0, 1, 0]])
        report = C.validate_centers(cs)
        assert (report.mean_distance, report.min_distance, report.valid) == (2.0, 2, True)

    def test_boundary_is_valid(self):
        report = C.validate_centers(center_set([[0, 0], [0, 1]]))
        assert report.mean_distance == 1.0 and report.valid

    def test_below_half_invalid(self):
        report = C.validate_centers(center_set([[0, 0, 0, 0], [0, 0, 0, 1]]))
        assert report.mean_distance == 1.0 and not report.valid

    def test_single_center_vacuous(self):
        report = C.validate_centers(center_set([[1, 0, 1]]))
        assert report.valid and report.mean_distance == 3.0


class TestAssignSingleLabel:
    """One-hot labels: assign_multi_label maps a singleton set to its category's center."""

    def test_index_binding(self):
        cs = C.generate_centers(2, 4, seed=0)
        smap = C.assign_multi_label(cs, np.eye(2, dtype=np.uint8)[[0, 1, 0]])
        assert np.array_equal(smap.vectors[0], cs.bits[0])
        assert np.array_equal(smap.vectors[1], cs.bits[1])
        assert np.array_equal(smap.vectors[2], cs.bits[0])

    def test_all_same_category(self):
        cs = C.generate_centers(3, 4, seed=0)
        smap = C.assign_multi_label(cs, np.eye(3, dtype=np.uint8)[[2] * 5])
        assert np.array_equal(smap.vectors, np.tile(cs.bits[2], (5, 1)))

    def test_category_out_of_range(self):
        cs = C.generate_centers(2, 4, seed=0)
        with pytest.raises(InsufficientCentersError):
            C.assign_multi_label(cs, np.eye(3, dtype=np.uint8)[[0, 2]])


def multihot(q, *cats):
    row = np.zeros(q, dtype=np.uint8)
    row[list(cats)] = 1
    return row


class TestAssignMultiLabel:
    def test_majority_centroid(self):
        cs = center_set([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
        labels = np.array([multihot(3, 0, 1, 2)])
        smap = C.assign_multi_label(cs, labels, seed=0)
        assert np.array_equal(smap.vectors[0], [1, 0, 0, 0])

    def test_singleton_uses_category_center(self):
        cs = C.generate_centers(5, 8, seed=0)
        labels = np.array([multihot(5, 3)])
        smap = C.assign_multi_label(cs, labels, seed=0)
        assert np.array_equal(smap.vectors[0], cs.bits[3])

    def test_tie_bits_deterministic_and_shared(self):
        cs = center_set([[1, 0], [0, 1]])
        labels = np.array([multihot(2, 0, 1)] * 4)
        a = C.assign_multi_label(cs, labels, seed=5)
        b = C.assign_multi_label(cs, labels, seed=5)
        assert np.array_equal(a.vectors, b.vectors)
        # every occurrence of the tied label set shares one drawn centroid
        assert len({row.tobytes() for row in a.vectors}) == 1

    def test_odd_membership_ignores_tie_seed(self):
        cs = C.generate_centers(5, 16, seed=1)
        labels = np.array([multihot(5, 0, 2, 4), multihot(5, 1, 2, 3)])
        a = C.assign_multi_label(cs, labels, seed=0)
        b = C.assign_multi_label(cs, labels, seed=999)
        assert np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("q", [2, 0])
    def test_empty_label_set_rejected(self, q):
        cs = C.generate_centers(2, 4, seed=0)
        with pytest.raises(InvalidLabelError, match="^sample 0 has an empty label set$"):
            C.assign_multi_label(cs, np.zeros((1, q), dtype=np.uint8), seed=0)

    def test_too_many_categories(self):
        cs = C.generate_centers(2, 4, seed=0)
        with pytest.raises(InsufficientCentersError):
            C.assign_multi_label(cs, np.ones((1, 3), dtype=np.uint8), seed=0)

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent_per_seed(self, seed):
        cs = C.generate_centers(6, 8, seed=1)
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=(10, 6), dtype=np.uint8)
        labels[labels.sum(axis=1) == 0, 0] = 1
        a = C.assign_multi_label(cs, labels, seed=seed)
        b = C.assign_multi_label(cs, labels, seed=seed)
        assert a.vectors.tobytes() == b.vectors.tobytes()


def random_label_sets(rng, n, q, sizes):
    """n multi-hot rows over q categories, each naming `rng.choice(sizes)` of them."""
    labels = np.zeros((n, q), dtype=np.uint8)
    for row in labels:
        row[rng.choice(q, size=rng.choice(sizes), replace=False)] = 1
    return labels


def assert_same_map(a, b):
    assert a.vectors.tobytes() == b.vectors.tobytes()
    assert a.packed().tobytes() == b.packed().tobytes()
    assert a.sets.tobytes() == b.sets.tobytes() and a.index.tolist() == b.index.tolist()
    assert list(a.by_label) == list(b.by_label)
    for key in a.by_label:
        assert a.by_label[key].tobytes() == b.by_label[key].tobytes()


class TestAssignAgainstRowLoop:
    """assign_multi_label groups rows by label set; oracle.assign_reference walks
    them one by one. They must agree byte for byte, tie draws included."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 60),
        st.integers(2, 20),
        st.integers(2, 40),
        st.sampled_from([(2,), (1, 2), (2, 4), (1, 2, 3, 4)]),
    )
    def test_matches_row_loop(self, seed, n, q, k, sizes):
        rng = np.random.default_rng(seed)
        labels = random_label_sets(rng, n, q, [s for s in sizes if s <= q])
        labels = labels[rng.integers(0, n, size=n)]  # repeated label sets
        cs = C.CenterSet(bits=rng.integers(0, 2, size=(q, k), dtype=np.uint8), method=None)
        expected = oracle.assign_reference(cs, labels, seed)
        assert_same_map(C.assign_multi_label(cs, labels, seed), expected)

    @pytest.mark.parametrize("q, n, k", [(21, 5000, 48), (80, 2000, 64)],
                             ids=["multilabel-run", "search-large"])
    def test_matches_row_loop_on_workload_shapes(self, q, n, k):
        labels = random_label_sets(np.random.default_rng(q), n, q, (1, 2, 3))
        cs = C.generate_centers(q, k, seed=0)
        assert_same_map(C.assign_multi_label(cs, labels, 0), oracle.assign_reference(cs, labels, 0))

    def test_first_empty_row_is_named(self):
        cs = C.generate_centers(4, 8, seed=0)
        labels = np.array([multihot(4, 0, 1), multihot(4, 2), [0] * 4, multihot(4, 3), [0] * 4])
        for assign in (C.assign_multi_label, oracle.assign_reference):
            with pytest.raises(InvalidLabelError, match="^sample 2 has an empty label set$"):
                assign(cs, labels, 0)

    def test_nonzero_entries_count_as_members(self):
        cs = C.generate_centers(3, 8, seed=0)
        labels = np.array([[2, 1, 0], [1, 1, 0], [0, 7, 1]])
        assert_same_map(C.assign_multi_label(cs, labels, 1), oracle.assign_reference(cs, labels, 1))

    @pytest.mark.parametrize("value", [0.5, 256])
    def test_a_member_stored_as_any_nonzero_value_counts(self, value):
        # cast to uint8, 0.5 and 256 both read 0: a wrong set, then an empty one
        cs = C.generate_centers(3, 8, seed=0)
        labels = np.array([[value, 1, 0], [0, 0, value]])
        expected = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint8)
        for assign in (C.assign_multi_label, oracle.assign_reference):
            assert_same_map(assign(cs, labels, 1), C.assign_multi_label(cs, expected, 1))


class TestCenterFile:
    def test_roundtrip(self, tmp_path):
        cs = C.generate_centers(10, 24, seed=0)
        path = tmp_path / "centers.csqh"
        C.save_centers(path, cs)
        loaded = C.load_centers(path)
        assert loaded.k == cs.k
        assert np.array_equal(loaded.bits, cs.bits)
        assert loaded.method is None  # the file format does not store it

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.csqh"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(FormatError) as err:
            C.load_centers(path)
        assert err.value.offset == 0

    def test_truncated(self, tmp_path):
        cs = C.generate_centers(4, 16, seed=0)
        path = tmp_path / "c.csqh"
        C.save_centers(path, cs)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError):
            C.load_centers(path)
