import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from centerhash import data_io, hamming
from centerhash import model as M
from centerhash.errors import DimensionError, FormatError, NumericError, TrainingError
from centerhash.hamming import unpack_matrix
from test_data_io import write_features_unchecked


def zero_model(d, w1, w2, k):
    return M.HashModel(
        weights=[np.zeros((w1, d)), np.zeros((w2, w1)), np.zeros((k, w2))],
        biases=[np.zeros(w1), np.zeros(w2), np.zeros(k)],
    )


def block_bytes(net, rows):
    """The ENCODE_BLOCK_BYTES that makes encode run net in blocks of `rows` rows."""
    return rows * 8 * (sum(net.layer_sizes) + net.k)


def step_peak(net, xb, cb, cfg):
    """The tracemalloc peak of one training step's backward call on a batch: its
    activations, loss temporaries and the gradient set it returns."""
    tracemalloc.start()
    try:
        M.backward(net, xb, cb, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def finite_difference(net, x, c, cfg, eps=1e-5):
    """Central finite differences of the total loss over every parameter."""

    def loss():
        return oracle.total_loss(M.forward(net, x), c, cfg)

    out = []
    for p in net.weights + net.biases:
        fd = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            saved = p[i]
            p[i] = saved + eps
            up = loss()
            p[i] = saved - eps
            down = loss()
            p[i] = saved
            fd[i] = (up - down) / (2 * eps)
            it.iternext()
        out.append(fd)
    return out


def gradient_relative_error(net, x, c, cfg):
    _, _, grads = M.backward(net, x, c, cfg)
    analytic = np.concatenate([g.ravel() for g in grads])
    numeric = np.concatenate([g.ravel() for g in finite_difference(net, x, c, cfg)])
    denom = np.linalg.norm(analytic) + np.linalg.norm(numeric)
    return np.linalg.norm(analytic - numeric) / denom if denom else 0.0


class TestForward:
    def test_all_zero_parameters_give_half(self):
        net = zero_model(3, 4, 4, 5)
        assert np.array_equal(M.forward(net, np.zeros((1, 3))), np.full((1, 5), 0.5))

    def test_zero_input_passes_output_bias_through(self):
        rng = np.random.default_rng(1)
        net = M.init_model(4, 6, hidden=(4, 4), seed=1)
        net.biases[0][:] = 0.0
        net.biases[1][:] = 0.0
        b3 = rng.normal(size=6)
        net.biases[2][:] = b3
        h = M.forward(net, np.zeros((1, 4)))
        assert np.allclose(h, 1.0 / (1.0 + np.exp(-b3)))

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        net = M.init_model(10, 8, seed=2)
        h = M.forward(net, rng.normal(size=(20, 10)) * 50)
        assert ((h > 0) & (h < 1)).all()

    def test_dimension_mismatch(self):
        net = M.init_model(4, 6, seed=0)
        with pytest.raises(DimensionError):
            M.forward(net, np.zeros((1, 5)))

    def test_sigmoid_equals_masked_reference_bitwise(self):
        special = []
        for v in (0.0, np.inf, np.nan, 1e-17, 2.0**-54, 36.0, 745.0, 800.0):
            special += [v, -v]
        z = np.concatenate([special, np.random.default_rng(4).normal(size=10_000) * 50])
        got = M._sigmoid(z.copy())
        assert got.view(np.uint64).tolist() == oracle.sigmoid_reference(z).view(np.uint64).tolist()

    def test_forward_pass_equals_reference_bitwise(self):
        net = M.init_model(7, 70, hidden=(9, 5), seed=5)
        x = np.random.default_rng(5).normal(size=(13, 7)) * 30
        for got, want in zip(M._forward_cached(net, x), oracle.forward_reference(net, x)):
            assert got.tobytes() == want.tobytes()
        assert M.forward(net, x).tobytes() == M._forward_cached(net, x)[-1].tobytes()


class TestLosses:
    def test_central_loss_zero_at_center(self):
        c = np.array([[1.0, 0.0, 1.0, 1.0]])
        assert M.central_loss(c, c) <= 1e-6

    def test_central_loss_half_probability(self):
        assert M.central_loss([[0.5]], [[1.0]]) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_central_loss_averages_bits(self):
        got = M.central_loss([[0.5, 0.5]], [[1.0, 0.0]])
        assert got == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_central_loss_shape_mismatch(self):
        with pytest.raises(DimensionError):
            M.central_loss([[0.5, 0.5]], [[1.0]])

    def test_quantization_zero_on_binary(self):
        assert M.quantization_loss([[0.0, 1.0, 1.0, 0.0]]) == 0.0

    def test_quantization_at_half(self):
        assert M.quantization_loss([[0.5]]) == pytest.approx(math.log(math.cosh(1.0)), abs=1e-12)

    def test_quantization_at_quarter(self):
        assert M.quantization_loss([[0.25]]) == pytest.approx(math.log(math.cosh(0.5)), abs=1e-12)

    def test_quantization_rejects_nan(self):
        with pytest.raises(NumericError):
            M.quantization_loss([[0.1, float("nan")]])

    def test_total_loss_lambda_zero(self):
        cfg = M.TrainConfig(lambda1=0.0)
        h, c = np.array([[0.3, 0.8]]), np.array([[0.0, 1.0]])
        assert oracle.total_loss(h, c, cfg) == M.central_loss(h, c)

    def test_total_loss_center_term_disabled(self):
        cfg = M.TrainConfig(use_lc=False, lambda1=0.5)
        h = np.array([[0.3, 0.8]])
        assert oracle.total_loss(h, np.array([[0.0, 1.0]]), cfg) == 0.5 * M.quantization_loss(h)

    def test_total_loss_vanishes_at_binary_center(self):
        cfg = M.TrainConfig(lambda1=3.0)
        c = np.array([[1.0, 0.0, 0.0, 1.0]])
        assert oracle.total_loss(c, c, cfg) <= 1e-6

    def test_both_toggles_off_rejected(self):
        with pytest.raises(ValueError, match="at least one loss term must be enabled"):
            M.TrainConfig(use_lc=False, lambda1=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["learning_rate", "lambda1"])
    def test_non_finite_hyperparameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            M.TrainConfig(**{name: value})

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24), st.data())
    def test_central_loss_nonnegative_zero_only_at_center(self, h, data):
        c = data.draw(st.lists(st.integers(0, 1), min_size=len(h), max_size=len(h)))
        loss = M.central_loss([h], [[float(b) for b in c]])
        assert loss >= 0.0
        clamped = np.clip(h, M.BCE_EPS, 1 - M.BCE_EPS)
        if loss == 0.0:
            assert np.array_equal(clamped, np.asarray(c, dtype=float))

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24))
    def test_quantization_loss_nonnegative_zero_only_on_binary(self, h):
        loss = M.quantization_loss([h])
        assert loss >= 0.0
        if all(v in (0.0, 1.0) for v in h):
            assert loss == 0.0
        elif any(abs(2.0 * v - 1.0) <= 0.99 for v in h):
            # some entry sits clearly away from {0,1}: the penalty must bite
            assert loss > 0.0

    def test_losses_and_gradients_finite_at_saturation(self):
        h = np.array([[1e-300, 1.0 - 1e-16, 0.0, 1.0]])
        c = np.array([[1.0, 0.0, 1.0, 0.0]])
        assert math.isfinite(M.central_loss(h, c))
        assert math.isfinite(M.quantization_loss(h))
        net = zero_model(2, 3, 3, 4)
        net.biases[2][:] = np.array([-800.0, 800.0, -800.0, 800.0])  # h: exact 0/1
        _, _, grads = M.backward(net, np.zeros((1, 2)), c, M.TrainConfig())
        for g in grads:
            assert np.isfinite(g).all()


# code values with a special meaning to a loss term: exactly binary, exactly
# 0.5 (where |2h - 1| has its kink), and inside the cross-entropy clamp
LOSS_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(0.0, M.BCE_EPS),
    st.floats(1.0 - M.BCE_EPS, 1.0),
    st.floats(0.0, 1.0),
)


@settings(max_examples=200)
@given(n=st.integers(1, 5), k=st.integers(1, 12), data=st.data())
def test_loss_values_match_per_bit_loops(n, k, data):
    h = np.array(data.draw(st.lists(st.lists(LOSS_VALUES, min_size=k, max_size=k),
                                    min_size=n, max_size=n)))
    c = np.array(data.draw(st.lists(st.lists(st.sampled_from([0.0, 1.0]), min_size=k,
                                             max_size=k), min_size=n, max_size=n)))
    central = oracle.central_loss_reference(h.tolist(), c.tolist())
    quant = oracle.quant_loss_reference(h.tolist())
    both_terms = M.loss_and_dh(h, c, M.TrainConfig(lambda1=0.5))[:2]
    # every cross-entropy term is positive, so the two sums differ by rounding
    # alone; a log-cosh term near 0 is, in the package, a difference with log 2,
    # so each bit may also be off by a few units in the last place of log 2
    quant_floor = 4 * k * np.spacing(math.log(2.0))
    for got in (M.central_loss(h, c), both_terms[0]):
        assert got == pytest.approx(central, rel=1e-12, abs=0.0)
    for got in (M.quantization_loss(h), both_terms[1]):
        assert got == pytest.approx(quant, rel=1e-12, abs=quant_floor)


class TestBackward:
    def test_matches_finite_differences_example_shape(self):
        rng = np.random.default_rng(3)
        cfg = M.TrainConfig(lambda1=1e-4)
        net = M.init_model(5, 8, hidden=(7, 6), seed=3)
        x = rng.normal(size=(3, 5))
        c = rng.integers(0, 2, size=(3, 8)).astype(float)
        assert gradient_relative_error(net, x, c, cfg) <= 1e-4

    def test_matches_finite_differences_single_loss_terms(self):
        rng = np.random.default_rng(4)
        net = M.init_model(4, 4, hidden=(5, 5), seed=4)
        x = rng.normal(size=(2, 4))
        c = rng.integers(0, 2, size=(2, 4)).astype(float)
        for cfg in (M.TrainConfig(lambda1=0.0), M.TrainConfig(use_lc=False, lambda1=0.3)):
            assert gradient_relative_error(net, x, c, cfg) <= 1e-4

    def test_saturated_at_center_gives_zero_gradient(self):
        # biases push every output hard against its center, past the clamp
        net = zero_model(2, 3, 3, 4)
        c = np.array([[1.0, 0.0, 1.0, 0.0]])
        net.biases[2][:] = np.where(c[0] == 1, 40.0, -40.0)
        _, _, grads = M.backward(net, np.zeros((1, 2)), c, M.TrainConfig(lambda1=0.0))
        for g in grads:
            assert np.all(g == 0.0)

    def test_codes_exactly_at_the_clamp_get_zero_central_gradient(self):
        # the clamp's ends count as clamped: there a finite difference of the
        # clipped loss is one-sided, and the gradient taken is 0
        h = np.array([[M.BCE_EPS, 1.0 - M.BCE_EPS]] * 2)
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, _, dh = M.loss_and_dh(h, c, M.TrainConfig(lambda1=0.0))
        assert np.array_equal(dh, np.zeros_like(h))

    def test_overflowed_activation_with_finite_loss_still_raises(self):
        # b2 = +inf makes a2 inf and h exactly 1: the clipped loss stays
        # finite and dh is 0, but dw3 = dz3.T @ a2 = 0 * inf is NaN
        net = zero_model(2, 3, 3, 4)
        net.weights[2][:] = 1.0
        net.biases[1][:] = np.inf
        x, c = np.zeros((1, 2)), np.array([[1.0, 0.0, 1.0, 0.0]])
        h = M.forward(net, x)
        assert np.array_equal(h, np.ones((1, 4)))
        assert oracle.total_loss(h, c, M.TrainConfig()) == pytest.approx(8.059, abs=1e-3)
        with pytest.raises(NumericError, match="non-finite gradient"), np.errstate(invalid="ignore"):
            M.backward(net, x, c, M.TrainConfig())

    def test_non_finite_output_raises(self):
        net = M.init_model(4, 3, seed=0)
        x = np.array([[np.inf, 0.0, 0.0, 0.0]])  # mixed-sign weights: inf - inf in layer 2
        with pytest.raises(NumericError, match="model output is not finite"), \
                np.errstate(invalid="ignore", over="ignore"):
            M.backward(net, x, np.ones((1, 3)), M.TrainConfig())


# each bit of the output layer: free, or pinned by a zero weight row and a bias
# to exactly 0.5 (the |.| kink), exactly 1.0 or below the clamp (4e-18)
PINNED_BIAS = {"half": 0.0, "high": 40.0, "low": -40.0}


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 6), st.integers(1, 6)),
    pins=st.lists(st.sampled_from(["free", *PINNED_BIAS]), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    use_lc=st.booleans(),
    lambda1=st.sampled_from([0.0, 1e-4, 0.3, 2.0]),
)
# terms that cancel: a reference dw3 of exactly 0.0 that backward sums to -3.0e-18, and
# a dw1 gap of 1.35e-22 where a bound relative to the array's largest entry allowed 1.21e-22
@example(shape=(2, 4, 1, 1), pins=["high", "half", "half"], seed=154, use_lc=True,
         lambda1=0.0)
@example(shape=(1, 2, 4, 4), pins=["free", "half", "half", "half", "free"], seed=136898,
         use_lc=False, lambda1=1e-4)
def test_backward_matches_per_sample_chain_rule(shape, pins, seed, use_lc, lambda1):
    assume(use_lc or lambda1 != 0.0)
    n, d, w1, w2 = shape
    k = len(pins)
    rng = np.random.default_rng(seed)
    net = M.init_model(d, k, hidden=(w1, w2), seed=seed % 1000)
    for j, pin in enumerate(pins):
        if pin != "free":
            net.weights[2][j] = 0.0
            net.biases[2][j] = PINNED_BIAS[pin]
    x = rng.normal(size=(n, d))
    c = rng.integers(0, 2, size=(n, k)).astype(float)
    cfg = M.TrainConfig(use_lc=use_lc, lambda1=lambda1)
    _, _, grads = M.backward(net, x, c, cfg)
    ref_weights, ref_biases = oracle.backward_reference(net, x, c, cfg)
    # the two add the same terms in different orders, the forward sums too, so each
    # entry may differ by the rounding of its longest chain of sums (n + d + w1 +
    # w2 + k additions, on each side) times its sum of absolute terms
    scale_weights, scale_biases = oracle.backward_reference(net, x, c, cfg, absolute=True)
    tolerance = 2 * (n + d + w1 + w2 + k) * np.finfo(np.float64).eps
    for got, ref, scale in zip(grads, ref_weights + ref_biases, scale_weights + scale_biases):
        assert (np.abs(got - ref) <= tolerance * scale).all()


@pytest.mark.parametrize("call", [
    lambda net: M.forward(net, np.zeros(4)),
    lambda net: M.encode(net, np.zeros(4)),
    lambda net: M.central_loss(np.full(3, 0.5), np.ones(3)),
    lambda net: M.quantization_loss(np.full(3, 0.5)),
    lambda net: M.backward(net, np.zeros(4), np.ones(3), M.TrainConfig()),
    lambda net: M.backward(net, np.zeros((1, 4)), np.ones(3), M.TrainConfig()),
], ids=["forward", "encode", "central_loss", "quantization_loss", "backward-x", "backward-c"])
def test_single_vector_input_is_rejected(call):
    with pytest.raises(DimensionError):
        call(M.init_model(4, 3, seed=0))


def tiny_problem(n=24, d=6, k=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    c = rng.integers(0, 2, size=(n, k)).astype(float)
    return x, c


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        x, c = tiny_problem()
        cfg = M.TrainConfig(epochs=0, seed=8)
        net, log = M.train(x, c, cfg)
        init = M.init_model(x.shape[1], c.shape[1], seed=8)
        assert log == []
        for a, b in zip(net.weights + net.biases, init.weights + init.biases):
            assert np.array_equal(a, b)

    def test_deterministic_given_seed(self):
        x, c = tiny_problem()
        cfg = M.TrainConfig(epochs=5, seed=9)
        net1, log1 = M.train(x, c, cfg)
        net2, log2 = M.train(x, c, cfg)
        for a, b in zip(net1.weights + net1.biases, net2.weights + net2.biases):
            assert a.tobytes() == b.tobytes()
        assert log1 == log2

    def test_loss_log_length_and_decrease(self):
        x, c = tiny_problem(n=64)
        net, log = M.train(x, c, M.TrainConfig(epochs=20, seed=1))
        assert len(log) == 20
        assert log[-1].total < log[0].total

    def test_divergence_raises_training_error(self):
        x, c = tiny_problem(n=32)
        x[5, 0] = np.inf  # mixed-sign weights turn this into NaN activations
        with pytest.raises(TrainingError) as err:
            M.train(x, c, M.TrainConfig(epochs=3, seed=0))
        assert err.value.epoch == 0 and err.value.batch >= 0

    def test_non_finite_gradient_raises_training_error(self, monkeypatch):
        real = M.loss_and_dh

        def nan_dh(h, c, cfg, *ws):
            central, quant, dh = real(h, c, cfg, *ws)
            return central, quant, np.full_like(dh, np.nan)

        monkeypatch.setattr(M, "loss_and_dh", nan_dh)
        x, c = tiny_problem()
        with pytest.raises(TrainingError, match="non-finite gradient") as err:
            M.train(x, c, M.TrainConfig(epochs=2, seed=0))
        assert err.value.epoch == 0 and err.value.batch == 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            M.train(np.zeros((0, 3)), np.zeros((0, 4)), M.TrainConfig())

    def test_center_map_must_cover_samples(self):
        x, c = tiny_problem()
        with pytest.raises(DimensionError):
            M.train(x, c[:-1], M.TrainConfig())

    def test_training_holds_one_gradient_set_and_one_step(self):
        # d = 256 takes the 256/128 head; beyond its inputs, train holds the
        # parameters, their velocity and one step: that step's float64 batch and
        # what its backward call allocates (one gradient set among it), no more
        n, d, k, batch = 64, 256, 64, 16
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, d))
        c = rng.integers(0, 2, size=(n, k), dtype=np.uint8)
        cfg = M.TrainConfig(epochs=2, batch_size=batch, seed=0)
        net = M.init_model(d, k, seed=cfg.seed)
        assert net.layer_sizes == [256, 256, 128, 64]
        params = sum(p.nbytes for p in net.weights + net.biases)
        xb, cb = x[:batch].copy(), c[:batch].astype(np.float64)
        step = step_peak(net, xb, cb, cfg)
        tracemalloc.start()
        try:
            M.train(x, c, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a second gradient set, or an lr * v temporary of the widest layer, breaks it
        assert peak <= 2 * params + step + xb.nbytes + cb.nbytes + (64 << 10)


class TestFusedStep:
    """train runs one forward pass per batch and must equal, byte for byte,
    the two-pass reference loop in tests/oracle.py."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"use_lc": False, "lambda1": 0.3},
            {"lambda1": 0.0},
            {"batch_size": 7},  # does not divide n
            {"batch_size": 50},  # larger than n
        ],
    )
    def test_train_matches_two_pass_reference(self, overrides):
        x, c = tiny_problem(n=32, d=8, k=12, seed=6)
        cfg = M.TrainConfig(epochs=4, seed=2, learning_rate=0.05, **overrides)
        net, log = M.train(x, c, cfg)
        ref_net, ref_log = oracle.train_reference(x, c, cfg)
        for a, b in zip(net.weights + net.biases, ref_net.weights + ref_net.biases):
            assert a.tobytes() == b.tobytes()
        assert len(log) == 4 and repr(log) == repr(ref_log)

    def test_stored_precision_trains_as_its_float64_copy(self, tmp_path):
        # features as load_features returns them, centers as assign_multi_label does
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 8)).astype(np.float32)
        c = rng.integers(0, 2, size=(30, 12), dtype=np.uint8)
        cfg = M.TrainConfig(epochs=3, seed=1, batch_size=7, learning_rate=0.05)
        runs = {
            "stored": M.train(x, c, cfg),
            "float64": M.train(x.astype(np.float64), c.astype(np.float64), cfg),
            "reference": oracle.train_reference(x, c, cfg),
        }
        checkpoints, logs = set(), set()
        for name, (net, log) in runs.items():
            M.save_model(tmp_path / f"{name}.csqm", net)
            checkpoints.add((tmp_path / f"{name}.csqm").read_bytes())
            logs.add(repr(log))
        assert len(checkpoints) == 1 and len(logs) == 1

    @pytest.mark.parametrize("k", [12, 70])  # one word per code, and two
    @pytest.mark.parametrize("batch_size", [16, 7])  # 7 does not divide n
    def test_packed_centers_train_as_their_unpacked_matrix(self, k, batch_size):
        x, c = tiny_problem(n=32, d=8, k=k, seed=6)
        c = c.astype(np.uint8)
        cfg = M.TrainConfig(epochs=4, seed=2, learning_rate=0.05, batch_size=batch_size)
        net, log = M.train(x, c, cfg)
        packed_net, packed_log = M.train(x, hamming.PackedRows(hamming.pack_matrix(c), k), cfg)
        for a, b in zip(net.weights + net.biases, packed_net.weights + packed_net.biases):
            assert a.tobytes() == b.tobytes()
        assert len(log) == 4 and repr(packed_log) == repr(log)

    @pytest.mark.parametrize("batch_size", [16, 7, 50])  # divides n, does not, exceeds it
    def test_feature_file_trains_as_its_loaded_matrix(self, tmp_path, batch_size):
        x, c = tiny_problem(n=32, d=8, k=12, seed=6)
        data_io.save_features(tmp_path / "x.csqf", x)
        cfg = M.TrainConfig(epochs=3, seed=2, learning_rate=0.05, batch_size=batch_size)
        checkpoints, logs = [], []
        for features in (data_io.load_features(tmp_path / "x.csqf"),
                         data_io.open_features(tmp_path / "x.csqf")):
            net, log = M.train(features, hamming.PackedRows(hamming.pack_matrix(c), 12), cfg)
            M.save_model(tmp_path / "m.csqm", net)
            checkpoints.append((tmp_path / "m.csqm").read_bytes())
            logs.append(repr(log))
        assert checkpoints[0] == checkpoints[1] and logs[0] == logs[1]

    @pytest.mark.parametrize("k", [6, 70])  # one word per code, and two
    @pytest.mark.parametrize("overrides", [
        {},
        {"use_lc": False, "lambda1": 0.3},
        {"lambda1": 0.0},
    ], ids=["both_terms", "no_lc", "lambda1_0"])
    def test_file_and_packed_centers_train_as_the_reference(self, tmp_path, overrides, k):
        # the forms pipeline.train passes; 30 rows in batches of 8 leave a last batch of
        # 6, which computes in the leading rows of the train call's arrays. d = 20 gives
        # hidden widths 20 and 10 (or k), so the ReLU masks use part of their buffer
        x, c = tiny_problem(n=30, d=20, k=k, seed=7)
        data_io.save_features(tmp_path / "x.csqf", x)
        cfg = M.TrainConfig(epochs=3, seed=3, learning_rate=0.05, batch_size=8, **overrides)
        net, log = M.train(data_io.open_features(tmp_path / "x.csqf"),
                           hamming.PackedRows(hamming.pack_matrix(c), k), cfg)
        ref_net, ref_log = oracle.train_reference(data_io.load_features(tmp_path / "x.csqf"),
                                                  c, cfg)
        for a, b in zip(net.weights + net.biases, ref_net.weights + ref_net.biases):
            assert a.tobytes() == b.tobytes()
        assert len(log) == 3 and repr(log) == repr(ref_log)

    # measured: 68,032 bytes at batch 256 and 35,112 at batch 16, mostly numpy's buffer
    # for casting the ReLU masks to float64; a step that allocated its own arrays took
    # 1.26 MiB and 1.00 MiB, and one (256, 48) float64 temporary is 96 KiB
    @pytest.mark.parametrize("batch, d, k, bound", [(256, 128, 48, 96 << 10),
                                                    (16, 256, 64, 48 << 10)],
                             ids=["multilabel-run", "train-medium"])
    def test_steps_after_the_first_allocate_almost_nothing(self, tmp_path, monkeypatch,
                                                           batch, d, k, bound):
        # a step computes in arrays its train call allocated once, so after the first step
        # a gather, an unpacking of centers and a step hold next to nothing
        n = 3 * batch + batch // 2  # a short last batch too
        rng = np.random.default_rng(0)
        data_io.save_features(tmp_path / "x.csqf", rng.normal(size=(n, d)))
        c = hamming.PackedRows(hamming.pack_matrix(rng.integers(0, 2, (n, k), np.uint8)), k)
        real, after_first = M._step, []

        def step(*args):
            losses = real(*args)
            if not after_first:
                tracemalloc.reset_peak()
                after_first.append(tracemalloc.get_traced_memory()[0])
            return losses

        monkeypatch.setattr(M, "_step", step)
        tracemalloc.start()
        try:
            M.train(data_io.open_features(tmp_path / "x.csqf"), c,
                    M.TrainConfig(batch_size=batch, epochs=1, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - after_first[0] <= bound

    def test_packed_centers_must_cover_samples(self):
        x, c = tiny_problem()
        with pytest.raises(DimensionError, match="center map covers 23 samples, features have 24"):
            M.train(x, hamming.PackedRows(hamming.pack_matrix(c[:-1]), c.shape[1]),
                    M.TrainConfig())

    def test_one_forward_pass_per_batch(self, monkeypatch):
        calls = []
        real = M._forward_cached

        def spy(model, x, *buffers):
            calls.append(len(x))
            return real(model, x, *buffers)

        monkeypatch.setattr(M, "_forward_cached", spy)
        x, c = tiny_problem(n=24)
        M.train(x, c, M.TrainConfig(epochs=3, batch_size=8, seed=0))
        assert calls == [8] * 9

    def test_one_backward_call_per_batch(self, monkeypatch):
        x, c = tiny_problem(n=30)
        cfg = M.TrainConfig(epochs=3, batch_size=8, seed=0)
        plain, _ = M.train(x, c, cfg)
        calls = []
        real = M.backward

        def spy(model, xb, cb, cfg, *ws):
            calls.append(len(xb))
            return real(model, xb, cb, cfg, *ws)

        monkeypatch.setattr(M, "backward", spy)
        spied, _ = M.train(x, c, cfg)
        assert calls == [8, 8, 8, 6] * 3  # epochs * ceil(n / batch_size) calls
        for a, b in zip(plain.weights + plain.biases, spied.weights + spied.biases):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("overrides, central_calls, quant_calls", [
        ({}, 6, 6),
        ({"lambda1": 0.0}, 6, 0),
        ({"use_lc": False, "lambda1": 0.3}, 0, 6),
    ], ids=["both_terms", "lambda1_0", "no_lc"])
    def test_training_computes_each_loss_term_with_the_public_function(
            self, monkeypatch, overrides, central_calls, quant_calls):
        calls = {"central_loss": 0, "quantization_loss": 0}
        for name in calls:
            real = getattr(M, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(M, name, counted)
        x, c = tiny_problem(n=24)
        M.train(x, c, M.TrainConfig(epochs=2, batch_size=8, seed=0, **overrides))
        # 2 epochs of 3 batches; a disabled term's function is never called
        assert calls == {"central_loss": central_calls, "quantization_loss": quant_calls}

    @pytest.mark.parametrize(
        "cfg",
        [M.TrainConfig(), M.TrainConfig(use_lc=False, lambda1=0.3), M.TrainConfig(lambda1=0.0)],
    )
    def test_loss_and_dh_losses_equal_public_losses(self, cfg):
        rng = np.random.default_rng(7)
        h = np.concatenate([rng.uniform(size=(5, 6)), [[0.0, 1.0, 1e-9, 1 - 1e-9, 0.5, 0.5]]])
        c = rng.integers(0, 2, size=h.shape).astype(float)
        central, quant, dh = M.loss_and_dh(h, c, cfg)
        assert central == (M.central_loss(h, c) if cfg.use_lc else 0.0)
        assert quant == (M.quantization_loss(h) if cfg.lambda1 != 0.0 else 0.0)
        assert dh.shape == h.shape and np.isfinite(dh).all()


class TestEncodeAndCheckpoint:
    def test_encode_matches_thresholded_forward(self):
        x, c = tiny_problem()
        net, _ = M.train(x, c, M.TrainConfig(epochs=2, seed=3))
        words = M.encode(net, x)
        expected = (M.forward(net, x) >= 0.5).astype(np.uint8)
        assert np.array_equal(unpack_matrix(words, net.k), expected)

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 9])  # blocks of B=4: 1, B-1, B, B+1, 2B+1
    def test_blocked_encode_matches_per_row_forward(self, monkeypatch, tmp_path, n):
        net = M.init_model(6, 70, seed=1)  # two words per code, the second padded
        monkeypatch.setattr(M, "ENCODE_BLOCK_BYTES", block_bytes(net, 4))
        x = np.random.default_rng(n).normal(size=(n, 6))
        per_row = [M.forward(net, x[i : i + 1])[0] for i in range(n)]
        expected = (np.array(per_row) >= 0.5).astype(np.uint8)
        words = M.encode(net, x)
        assert words.shape == (n, 2) and words.dtype == np.uint64
        assert np.array_equal(unpack_matrix(words, 70), expected)
        x32 = x.astype(np.float32)
        assert np.array_equal(M.encode(net, x32), M.encode(net, x32.astype(np.float64)))
        data_io.save_features(tmp_path / "x.csqf", x32)
        from_file = M.encode(net, data_io.open_features(tmp_path / "x.csqf"))
        assert np.array_equal(from_file, M.encode(net, x32))
        assert np.array_equal(M.encode(net, x[:1]), words[:1])

    def test_blocks_share_one_set_of_buffers(self, monkeypatch):
        monkeypatch.setattr(M, "ENCODE_BLOCK_BYTES", block_bytes(M.init_model(3, 5), 4))
        calls = []
        real = M._forward_into

        def spy(model, x, buffers):
            calls.append((len(x), len(buffers[0]), id(buffers)))
            return real(model, x, buffers)

        monkeypatch.setattr(M, "_forward_into", spy)
        M.encode(M.init_model(3, 5, seed=0), np.ones((11, 3)))
        assert [c[:2] for c in calls] == [(4, 4), (4, 4), (3, 4)]
        assert len({c[2] for c in calls}) == 1
        calls.clear()
        M.encode(M.init_model(3, 5, seed=0), np.ones((3, 3)))
        assert [c[:2] for c in calls] == [(3, 3)]  # never more rows than n

    def test_non_finite_output_raises(self, monkeypatch):
        net = M.init_model(6, 8, seed=0)
        monkeypatch.setattr(M, "ENCODE_BLOCK_BYTES", block_bytes(net, 4))
        net.weights[1][0, 0] = np.inf
        with pytest.raises(NumericError):
            M.encode(net, np.random.default_rng(0).normal(size=(9, 6)))

    def test_saturated_codes_encode_without_warnings(self):
        # rows that overflow to +-inf before the sigmoid still get finite 0/1 bits
        net = M.init_model(2, 4, hidden=(3, 3), seed=0)
        net.weights[0][:] = 1e300
        net.weights[1][:] = 1.0
        net.weights[2][:] = [[1.0] * 3, [-1.0] * 3] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = M.encode(net, np.full((3, 2), 1e10))
        assert np.array_equal(unpack_matrix(words, 4), [[1, 0, 1, 0]] * 3)

    def test_errors_surface_in_row_order(self, monkeypatch, tmp_path):
        net = M.init_model(2, 4, hidden=(3, 3), seed=0)
        monkeypatch.setattr(M, "ENCODE_BLOCK_BYTES", block_bytes(net, 2))
        net.weights[0][:] = 1e300
        net.weights[1][:] = [[1.0, -1.0, 1.0]] * 3  # inf - inf: NaN from an overflowed row
        x = np.zeros((8, 2), dtype=np.float32)
        x[2] = 1e30  # block 1 overflows
        x[4, 0] = np.nan  # block 2 does not read
        write_features_unchecked(tmp_path / "x.csqf", x)
        with pytest.raises(NumericError):
            M.encode(net, data_io.open_features(tmp_path / "x.csqf"))
        x[2] = 0.0
        write_features_unchecked(tmp_path / "x.csqf", x)
        with pytest.raises(FormatError, match="feature row 4 is not finite"):
            M.encode(net, data_io.open_features(tmp_path / "x.csqf"))

    def test_wide_head_encodes_within_the_block_budget(self, monkeypatch):
        # d = 1024 takes the default 1024/512 head, 48 rows a block: the float64
        # input and activations of one block are all encode holds beyond its output
        net = M.init_model(1024, 64, seed=0)
        assert net.layer_sizes == [1024, 1024, 512, 64]
        for n in (1000, 400):
            x = np.random.default_rng(n).normal(size=(n, 1024)).astype(np.float32)
            tracemalloc.start()
            try:
                words = M.encode(net, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - words.nbytes < 1.25 * M.ENCODE_BLOCK_BYTES
        # one row a block, and 7 rows, which do not divide n
        for rows in (1, 7):
            monkeypatch.setattr(M, "ENCODE_BLOCK_BYTES", block_bytes(net, rows))
            assert M.encode(net, x).tobytes() == words.tobytes()

    def test_file_encode_holds_one_mib_block_beyond_its_output(self, tmp_path):
        # the shipped block size, 170 rows for the default head of d = 256, k = 64: encode
        # holds the output words, one block's float64 rows and activations (1,044,480 of
        # the 1 MiB), the float32 rows the file read gave, and about 3 kB more, which the
        # slack covers (peak 1,237,501 bytes at n = 2,000, 1,155 under the bound without it)
        net = M.init_model(256, 64, seed=0)
        assert net.layer_sizes == [256, 256, 128, 64]
        x = np.random.default_rng(0).normal(size=(2000, 256)).astype(np.float32)
        data_io.save_features(tmp_path / "x.csqf", x)
        features = data_io.open_features(tmp_path / "x.csqf")
        tracemalloc.start()
        try:
            words = M.encode(net, features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        float32_block = M.block_rows(net.layer_sizes) * 256 * 4
        assert peak <= words.nbytes + (1 << 20) + float32_block + 16 * 1024
        assert words.tobytes() == M.encode(net, x).tobytes()

    def test_encode_rejects_wrong_width_before_any_block(self, monkeypatch):
        monkeypatch.setattr(M, "forward", None)  # never reached
        with pytest.raises(DimensionError, match=r"shape \(5, 7\), model expects dim 6"):
            M.encode(M.init_model(6, 8, seed=0), np.ones((5, 7)))

    def test_checkpoint_roundtrip_is_exact(self, tmp_path):
        x, c = tiny_problem()
        net, _ = M.train(x, c, M.TrainConfig(epochs=3, seed=4))
        path = tmp_path / "model.csqm"
        M.save_model(path, net)
        loaded = M.load_model(path)
        assert loaded.layer_sizes == net.layer_sizes
        for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
            assert a.tobytes() == b.tobytes()
        again = tmp_path / "again.csqm"
        M.save_model(again, loaded)
        assert path.read_bytes() == again.read_bytes()

    def test_failed_save_leaves_the_old_checkpoint(self, tmp_path):
        path = tmp_path / "model.csqm"
        path.write_bytes(b"old")
        net = M.init_model(3, 4, hidden=(3, 3), seed=0)
        net.biases[2] = object()  # the last layer is no array of floats
        with pytest.raises(TypeError):
            M.save_model(path, net)
        assert [p.name for p in tmp_path.iterdir()] == ["model.csqm"]
        assert path.read_bytes() == b"old"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_rejects_a_non_finite_parameter_before_writing(self, tmp_path, value):
        net = M.init_model(3, 4, hidden=(3, 3), seed=0)
        net.biases[1][2] = value
        with pytest.raises(ValueError, match="model parameters must be finite"):
            M.save_model(tmp_path / "model.csqm", net)
        assert list(tmp_path.iterdir()) == []  # neither the target nor a temp file

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 17, 38])  # w1[0, 0], w2[1, 2], b3[2] in file order
    def test_load_rejects_a_non_finite_parameter_at_its_offset(self, tmp_path, value, index):
        path = tmp_path / "model.csqm"
        M.save_model(path, M.init_model(3, 4, hidden=(3, 3), seed=0))
        data = bytearray(path.read_bytes())
        offset = 28 + 8 * index  # magic, version, count, four sizes; then the f64 params
        data[offset : offset + 8] = np.array([value], dtype="<f8").tobytes()
        data[-8:] = np.array([np.nan], dtype="<f8").tobytes()  # a later one, not reported
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as err:
            M.load_model(path)
        assert str(err.value) == f"model parameter is not finite (byte offset {offset})"

    def test_load_holds_only_the_parameters(self, tmp_path):
        # each parameter is read straight into its float64 array: no copy of the
        # file's bytes, nor of each parameter's, is held beside the result
        net = M.init_model(1024, 64, seed=0)
        params = sum(p.nbytes for p in net.weights + net.biases)
        M.save_model(tmp_path / "model.csqm", net)
        tracemalloc.start()
        try:
            loaded = M.load_model(tmp_path / "model.csqm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
            assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()
        assert peak <= params + (64 << 10)

    def test_save_holds_no_copy_of_the_parameters(self, tmp_path):
        # each float64 parameter is checked with a max and a min and written as it is
        net = M.init_model(1024, 64, seed=0)
        tracemalloc.start()
        try:
            M.save_model(tmp_path / "model.csqm", net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 10  # the model was allocated before tracing began
        loaded = M.load_model(tmp_path / "model.csqm")
        for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
            assert a.tobytes() == b.tobytes()

    def test_checkpoint_truncation_rejected(self, tmp_path):
        net = M.init_model(3, 4, hidden=(3, 3), seed=0)
        path = tmp_path / "model.csqm"
        M.save_model(path, net)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            M.load_model(path)


def test_default_hidden_widths():
    assert M.default_hidden(2048, 64) == (1024, 512)
    assert M.default_hidden(32, 16) == (32, 16)
    assert M.default_hidden(8, 16) == (16, 16)  # never narrower than the code
