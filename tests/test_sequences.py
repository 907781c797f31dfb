import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from hypothesis.extra.numpy import arrays

from affinerc import (
    BoundedSequence,
    WeightingSequence,
    geometric_weighted_sum,
    read_sequence,
    sequence_from_csv,
    sequence_to_csv,
    time_shift,
    weighted_distance,
    weighted_norm,
    write_sequence,
)

SCAN_HORIZON = 400  # far past every window used below; tails are geometric


def scan_norm_oracle(z, w, horizon=SCAN_HORIZON):
    """Exhaustive sup of ||z_{-t}|| * w_t, reading the raw window directly."""
    best = 0.0
    T = z.window.shape[0]
    ext = np.zeros(z.dim) if z.extension == "zero" else z.window[0]
    for t in range(horizon):
        v = z.window[T - 1 - t] if t < T else ext
        best = max(best, float(np.linalg.norm(v)) * w.weight(t))
    return best


def scan_sum_oracle(z, lam, horizon=SCAN_HORIZON):
    T = z.window.shape[0]
    ext = np.zeros(z.dim) if z.extension == "zero" else z.window[0]
    total = 0.0
    for t in range(horizon):
        v = z.window[T - 1 - t] if t < T else ext
        total += float(np.linalg.norm(v)) * lam**t
    # close the geometric tail the scan cannot reach
    total += float(np.linalg.norm(ext)) * lam**horizon / (1.0 - lam)
    return total


# ---------------------------------------------------------------------------------
# weighted_norm


def test_constant_one_norm_is_one():
    z = BoundedSequence(np.ones((10, 1)), bound=1.0, extension="repeat_last_oldest")
    w = WeightingSequence.exponential(0.5)
    assert weighted_norm(z, w) == 1.0


def test_zero_sequence_norm_is_zero():
    z = BoundedSequence(np.zeros((7, 3)), bound=1.0)
    assert weighted_norm(z, WeightingSequence.exponential(0.9)) == 0.0


def test_norm_matches_exhaustive_scan():
    rng = np.random.default_rng(7)
    w = WeightingSequence.exponential(0.9)
    for _ in range(20):
        win = rng.uniform(-2.0, 2.0, size=(64, 1))
        z = BoundedSequence(win, bound=2.0, extension="zero")
        assert weighted_norm(z, w) == pytest.approx(scan_norm_oracle(z, w), abs=1e-14)


def test_norm_matches_scan_with_repeat_tail():
    rng = np.random.default_rng(8)
    for lam in (0.5, 0.8, 0.95):
        w = WeightingSequence.exponential(lam)
        win = rng.uniform(-1.0, 1.0, size=(12, 2)) / np.sqrt(2.0)
        z = BoundedSequence(win, bound=1.0, extension="repeat_last_oldest")
        # with a repeated oldest entry the scan converges because w_t -> 0
        assert weighted_norm(z, w) == pytest.approx(scan_norm_oracle(z, w), abs=1e-14)


def test_norm_with_explicit_weighting():
    w = WeightingSequence.explicit([1.0, 0.7, 0.7, 0.2], tail_factor=0.6)
    win = np.array([[0.5], [-1.0], [0.25], [0.9], [0.1], [-0.3]])
    z = BoundedSequence(win, bound=1.0)
    assert weighted_norm(z, w) == pytest.approx(scan_norm_oracle(z, w), abs=1e-15)


def test_norm_rejects_empty_window():
    with pytest.raises(ValueError):
        BoundedSequence(np.zeros((0, 1)), bound=1.0)


def test_window_entry_must_respect_bound():
    with pytest.raises(ValueError, match="bound"):
        BoundedSequence(np.array([[2.0]]), bound=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_window_and_bound_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        BoundedSequence([0.1, bad, 0.2], bound=1.0)
    with pytest.raises(ValueError, match="finite"):
        BoundedSequence([0.1, 0.2], bound=bad)


# ---------------------------------------------------------------------------------
# weighted_distance


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(11)
    z = BoundedSequence(rng.uniform(-1, 1, size=(20, 2)) / 2.0, bound=1.0)
    w = WeightingSequence.exponential_power(0.8, 0.5)
    assert weighted_distance(z, z, w) == 0.0


def test_constant_difference_distance():
    ones = BoundedSequence(np.ones((15, 1)), bound=1.0, extension="repeat_last_oldest")
    zeros = BoundedSequence(np.zeros((15, 1)), bound=1.0, extension="repeat_last_oldest")
    assert weighted_distance(ones, zeros, WeightingSequence.exponential(0.7)) == 1.0


def test_distance_matches_scan_on_misaligned_windows():
    rng = np.random.default_rng(12)
    w = WeightingSequence.exponential(0.85)
    for _ in range(10):
        a = BoundedSequence(rng.uniform(-1, 1, size=(30, 1)), bound=1.0)
        b = BoundedSequence(
            rng.uniform(-1, 1, size=(11, 1)), bound=1.0, extension="repeat_last_oldest"
        )
        # windows align at t = 0; the shorter one is continued by its extension
        best = 0.0
        for t in range(SCAN_HORIZON):
            diff = a.entry(t) - b.entry(t)
            best = max(best, float(np.linalg.norm(diff)) * w.weight(t))
        assert weighted_distance(a, b, w) == pytest.approx(best, abs=1e-14)


def test_distance_dimension_mismatch():
    a = BoundedSequence(np.zeros((3, 1)), bound=1.0)
    b = BoundedSequence(np.zeros((3, 2)), bound=1.0)
    with pytest.raises(ValueError, match="dimension"):
        weighted_distance(a, b, WeightingSequence.exponential(0.5))


# ---------------------------------------------------------------------------------
# time_shift


def test_shift_by_zero_is_identity():
    z = BoundedSequence(np.array([[1.0], [2.0], [3.0]]), bound=3.0)
    s = time_shift(z, 0)
    np.testing.assert_array_equal(s.window, z.window)


def test_shift_pushes_in_extension():
    z = BoundedSequence(np.array([[1.0], [2.0], [3.0]]), bound=3.0, extension="zero")
    s = time_shift(z, 1)
    np.testing.assert_array_equal(s.window, np.array([[0.0], [1.0], [2.0]]))


def test_shift_repeats_oldest():
    z = BoundedSequence(
        np.array([[5.0], [2.0], [3.0]]), bound=5.0, extension="repeat_last_oldest"
    )
    s = time_shift(z, 2)
    np.testing.assert_array_equal(s.window, np.array([[5.0], [5.0], [5.0]]))


@seed(2026)
@given(
    win=arrays(np.float64, (9, 2), elements=st.floats(-0.7, 0.7)),
    a=st.integers(min_value=0, max_value=6),
    b=st.integers(min_value=0, max_value=6),
)
def test_shift_composition(win, a, b):
    z = BoundedSequence(win, bound=1.0)
    once = time_shift(time_shift(z, a), b)
    combined = time_shift(z, a + b)
    np.testing.assert_array_equal(once.window, combined.window)


def test_shift_rejects_negative():
    z = BoundedSequence(np.zeros((3, 1)), bound=1.0)
    with pytest.raises(ValueError):
        time_shift(z, -1)


# ---------------------------------------------------------------------------------
# geometric_weighted_sum and the two tail inequalities


def test_constant_sum_closed_form():
    M = 1.5
    z = BoundedSequence(
        np.full((9, 1), M), bound=M, extension="repeat_last_oldest"
    )
    for lam in (0.3, 0.5, 0.9):
        assert geometric_weighted_sum(z, lam) == pytest.approx(M / (1 - lam), rel=1e-15)


def test_zero_sum():
    z = BoundedSequence(np.zeros((4, 2)), bound=1.0)
    assert geometric_weighted_sum(z, 0.5) == 0.0


def test_sum_matches_scan():
    rng = np.random.default_rng(21)
    for ext in ("zero", "repeat_last_oldest"):
        win = rng.uniform(-1, 1, size=(25, 3)) / 2.0
        z = BoundedSequence(win, bound=1.0, extension=ext)
        for lam in (0.4, 0.75):
            assert geometric_weighted_sum(z, lam) == pytest.approx(
                scan_sum_oracle(z, lam), rel=1e-12
            )


def test_sum_rejects_lambda_outside_unit_interval():
    z = BoundedSequence(np.zeros((4, 1)), bound=1.0)
    for lam in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            geometric_weighted_sum(z, lam)


@seed(99)
@settings(max_examples=150, deadline=None)
@given(
    win=arrays(np.float64, (16, 1), elements=st.floats(-1.0, 1.0)),
    lam=st.floats(0.05, 0.95),
    rho=st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0.05, 0.95),
    ext=st.sampled_from(["zero", "repeat_last_oldest"]),
)
def test_tail_inequalities(win, lam, rho, ext):
    z = BoundedSequence(win, bound=1.0, extension=ext)
    w = WeightingSequence.exponential(lam)
    lhs = geometric_weighted_sum(z, lam)
    rhs_1 = weighted_norm(z, w.power(1.0 - rho)) / (1.0 - lam**rho)
    rhs_2 = weighted_norm(z, w.power(rho)) / (1.0 - lam ** (1.0 - rho))
    assert lhs <= rhs_1 * (1.0 + 1e-12)
    assert lhs <= rhs_2 * (1.0 + 1e-12)


@seed(100)
@given(
    win=arrays(np.float64, (8, 3), elements=st.floats(-0.5, 0.5)),
    lam=st.floats(0.1, 0.9),
    rho=st.floats(0.1, 0.9),
)
def test_sup_norm_domination(win, lam, rho):
    # ||z||_w <= M whenever every entry obeys the bound and w_0 <= 1
    z = BoundedSequence(win, bound=1.0)
    for w in (
        WeightingSequence.exponential(lam),
        WeightingSequence.exponential_power(lam, rho),
    ):
        assert weighted_norm(z, w) <= 1.0 + 1e-15


def test_monotone_domination_transfer():
    # w_t / w'_t <= lam for every t forces dist_w <= lam * dist_{w'}
    rng = np.random.default_rng(42)
    lam0, lam = 0.9, 0.35
    w_ref = WeightingSequence.exponential(lam0)
    dominated = [
        WeightingSequence.explicit([lam * lam0**t for t in range(6)], tail_factor=lam0),
        WeightingSequence.explicit([lam * lam0**t for t in range(4)], tail_factor=lam0 / 2),
    ]
    for w in dominated:
        ratios = w.weights(50) / w_ref.weights(50)
        assert np.all(ratios <= lam * (1 + 1e-12))
        for _ in range(10):
            a = BoundedSequence(rng.uniform(-1, 1, size=(20, 2)) / 2, bound=1.0)
            b = BoundedSequence(rng.uniform(-1, 1, size=(20, 2)) / 2, bound=1.0)
            d_small = weighted_distance(a, b, w)
            d_big = weighted_distance(a, b, w_ref)
            assert d_small <= lam * d_big * (1 + 1e-12)


# ---------------------------------------------------------------------------------
# weighting-sequence validity


def test_weights_are_decreasing_and_positive():
    for w in (
        WeightingSequence.exponential(0.6),
        WeightingSequence.exponential_power(0.6, 0.3),
        WeightingSequence.explicit([0.9, 0.5, 0.5, 0.1], tail_factor=0.8),
    ):
        vals = w.weights(60)
        assert vals[0] <= 1.0
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) <= 0.0)


def test_exponential_power_formula():
    w = WeightingSequence.exponential_power(0.7, 0.25)
    for t in range(10):
        assert w.weight(t) == 0.7 ** (0.25 * t)


def test_invalid_weightings_rejected():
    with pytest.raises(ValueError):
        WeightingSequence.exponential(1.0)
    with pytest.raises(ValueError):
        WeightingSequence.exponential_power(0.5, 0.0)
    with pytest.raises(ValueError):
        WeightingSequence.explicit([], tail_factor=0.5)
    with pytest.raises(ValueError):
        WeightingSequence.explicit([0.5, 0.9], tail_factor=0.5)  # increasing
    with pytest.raises(ValueError):
        WeightingSequence.explicit([0.5, 0.25], tail_factor=1.0)
    w = WeightingSequence.exponential(0.5)
    with pytest.raises(ValueError):
        w.weight(-1)


# ---------------------------------------------------------------------------------
# serialization


def test_csv_round_trip_is_exact():
    rng = np.random.default_rng(31)
    z = BoundedSequence(
        rng.uniform(-1, 1, size=(17, 3)) / 2.0, bound=1.25, extension="repeat_last_oldest"
    )
    back = sequence_from_csv(sequence_to_csv(z))
    np.testing.assert_array_equal(back.window, z.window)
    assert back.bound == z.bound
    assert back.extension == z.extension


def test_csv_file_round_trip(tmp_path):
    z = BoundedSequence(np.array([[0.1], [-0.9], [1.0]]), bound=1.0)
    path = tmp_path / "seq.csv"
    write_sequence(path, z)
    back = read_sequence(path)
    np.testing.assert_array_equal(back.window, z.window)
    assert back.bound == z.bound


# ---------------------------------------------------------------------------------
# batch window blocks


@pytest.mark.parametrize("n", [1, 4, 37, 200])
def test_window_block_matches_per_input_values(n):
    from affinerc.sequences import _window_block

    rng = np.random.default_rng(32)
    inputs = [BoundedSequence(rng.uniform(-0.5, 0.5, size=(int(T), d)), bound=1.0,
                              extension=("zero", "repeat_last_oldest")[i % 2])
              for i, (T, d) in enumerate(zip(rng.integers(1, 60, size=40), [3] * 40))]
    inputs += [BoundedSequence(-np.ones((5, 3)), bound=2.0, extension=ext)
               for ext in ("zero", "repeat_last_oldest")]
    block = _window_block(inputs, n)
    assert block.shape == (len(inputs), n, 3)
    for row, z in zip(block, inputs):
        want = z.values_newest_first(n)[::-1]
        assert row.tobytes() == np.ascontiguousarray(want).tobytes()
