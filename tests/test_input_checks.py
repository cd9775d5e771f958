"""The argument checks of the public API: each bad input raises its error, by message."""

import numpy as np
import pytest

from centerhash import centers as C
from centerhash import data_io, hamming, pipeline, retrieval, seeds, synthetic
from centerhash import model as M
from centerhash.config import RunConfig
from centerhash.errors import DimensionError, InvalidLabelError


def two_centers():
    return C.CenterSet(np.array([[0, 1, 0, 1], [1, 1, 0, 0]], dtype=np.uint8), None)


def distmat_files(tmp_path, labels, k_centers):
    """Two 4-bit codes, their assignments file and a center file of k_centers bits."""
    codes = hamming.pack_matrix(np.eye(2, 4, dtype=np.uint8))
    hamming.save_codes(tmp_path / "codes.csqc", codes, 4)
    data_io.save_labels(tmp_path / "assigned.csql", np.array(labels, dtype=np.uint8))
    C.save_centers(tmp_path / "centers.csqh",
                   C.CenterSet(np.eye(2, k_centers, dtype=np.uint8), None))
    return tmp_path / "codes.csqc", tmp_path / "assigned.csql", tmp_path / "centers.csqh"


CASES = {
    "train_config_negative_lambda1": (lambda tmp: M.TrainConfig(lambda1=-0.5),
                                      ValueError, "lambda1 must be non-negative"),
    "train_config_zero_learning_rate": (lambda tmp: M.TrainConfig(learning_rate=0.0),
                                        ValueError, "learning rate must be positive"),
    "train_config_negative_learning_rate": (lambda tmp: M.TrainConfig(learning_rate=-0.1),
                                            ValueError, "learning rate must be positive"),
    "train_config_momentum_1": (lambda tmp: M.TrainConfig(momentum=1.0),
                                ValueError, r"momentum must be in \[0, 1\)"),
    "train_config_negative_momentum": (lambda tmp: M.TrainConfig(momentum=-0.1),
                                       ValueError, r"momentum must be in \[0, 1\)"),
    "train_config_batch_0": (lambda tmp: M.TrainConfig(batch_size=0),
                             ValueError, "batch_size must be >= 1"),
    "run_config_k_1": (lambda tmp: RunConfig(k=1), ValueError, "k must be at least 2, got 1"),
    "center_set_1d": (lambda tmp: C.CenterSet(np.zeros(4, dtype=np.uint8), None),
                      DimensionError, r"center matrix must be \(m, k\), got shape \(4,\)"),
    "center_set_empty": (lambda tmp: C.CenterSet(np.zeros((0, 4), dtype=np.uint8), None),
                         ValueError, "a center set needs at least one center"),
    "center_set_zero_bits": (lambda tmp: C.CenterSet(np.zeros((2, 0), dtype=np.uint8), None),
                             DimensionError, "^centers must have at least one bit$"),
    "assign_1d_labels": (lambda tmp: C.assign_multi_label(two_centers(), np.ones(3)),
                         DimensionError, r"expected an \(n, q\) multi-hot matrix, got \(3,\)"),
    "pack_matrix_1d": (lambda tmp: hamming.pack_matrix(np.ones(8, dtype=np.uint8)),
                       DimensionError, r"expected a 2-d bit matrix, got shape \(8,\)"),
    "pack_matrix_width_0": (lambda tmp: hamming.pack_matrix(np.zeros((3, 0), dtype=np.uint8)),
                            DimensionError, "codes must have at least one bit"),
    "save_labels_1d": (lambda tmp: data_io.save_labels(tmp / "y.csql", np.ones(3)),
                       ValueError, r"need a nonempty 2-d label matrix, got shape \(3,\)"),
    "init_model_d_0": (lambda tmp: M.init_model(0, 4), ValueError, "d and k must be positive"),
    "init_model_k_0": (lambda tmp: M.init_model(4, 0), ValueError, "d and k must be positive"),
    "center_distances_misaligned": (
        lambda tmp: retrieval.center_distance_matrix(np.zeros((3, 1), np.uint64), [0, 1],
                                                     two_centers()),
        DimensionError, "one group id per code required"),
    "center_distances_id_past_m": (
        lambda tmp: retrieval.center_distance_matrix(np.zeros((2, 1), np.uint64), [0, 2],
                                                     two_centers()),
        ValueError, r"group ids must lie in \[0, 2\)"),
    "center_distances_negative_id": (
        lambda tmp: retrieval.center_distance_matrix(np.zeros((2, 1), np.uint64), [-1, 0],
                                                     two_centers()),
        ValueError, r"group ids must lie in \[0, 2\)"),
    "evaluate_query_labels_of_another_q": (
        lambda tmp: retrieval.evaluate(
            retrieval.CodeIndex.from_labels(np.zeros((2, 1), np.uint64),
                                            np.eye(2, dtype=np.uint8), 4),
            np.zeros((1, 1), np.uint64), np.ones((1, 3)), 1),
        DimensionError, "queries have 3 categories, index has 2"),
    "distmat_multi_label_assignments": (
        lambda tmp: pipeline.distmat(*distmat_files(tmp, [[1, 1], [0, 1]], 4)),
        InvalidLabelError, "assignments must name exactly one center per code"),
    "distmat_centers_of_another_k": (
        lambda tmp: pipeline.distmat(*distmat_files(tmp, [[1, 0], [0, 1]], 16)),
        DimensionError, "codes have k=4, centers k=16"),
    "substream_negative_seed": (lambda tmp: seeds.substream(-1, "init"),
                                ValueError, "seed must be non-negative, got -1"),
    "blobs_negative_spread": (lambda tmp: synthetic.make_synthetic_blobs(2, 3, 4, -0.1),
                              ValueError, "spread must be non-negative"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_bad_input_raises(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)
