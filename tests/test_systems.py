import json

import numpy as np
import pytest

from affinerc import (
    BoundedSequence,
    LinearSystem,
    MatrixPolynomial,
    SASSystem,
    ScalarPolynomial,
    WeightingSequence,
    default_washout,
    esp_margin,
    evaluate_batch,
    evaluate_filter,
    fmp_lipschitz_constant,
    fmp_weighting,
    linear_functional,
    linear_run,
    linear_state,
    sas_functional,
    sas_run_recursion,
    sas_run_series,
    sas_state,
    sas_terminal_states_batch,
    spectral_norm,
    state_bound,
    system_from_json,
    system_to_json,
    time_shift,
    trajectory_to_csv,
    weighted_distance,
)
from affinerc.systems import _series_terms


def scaled_coeffs(rng, n, deg, total):
    mats = [rng.standard_normal((n, n)) for _ in range(deg + 1)]
    norm_sum = sum(np.linalg.norm(m, 2) for m in mats)
    return [m * (total / norm_sum) for m in mats]


def random_sas(rng, n=3, deg=2, b_p=0.6, b_q=0.8, eps=0.05):
    p = MatrixPolynomial.from_coeffs(scaled_coeffs(rng, n, deg, b_p))
    q_mats = [rng.standard_normal((n, 1)) for _ in range(2)]
    q_scale = b_q / sum(np.linalg.norm(m, 2) for m in q_mats)
    q = MatrixPolynomial.from_coeffs([m * q_scale for m in q_mats])
    return SASSystem.create(p, q, rng.standard_normal(n), eps=eps)


def random_input(rng, T=128):
    return BoundedSequence(rng.uniform(-1.0, 1.0, size=(T, 1)), bound=1.0)


def manual_recursion(s, z, x_init=None):
    """Independent plain-loop oracle for the SAS recursion."""
    x = np.zeros(s.N) if x_init is None else np.asarray(x_init, dtype=float)
    states = []
    for t in range(z.length):
        zt = float(z.window[t, 0])
        x = s.p(zt) @ x + s.q(zt).ravel()
        states.append(x.copy())
    return np.array(states)


# ---------------------------------------------------------------------------------
# recursion path


def test_constant_system_has_constant_states():
    q0 = np.array([[0.3], [-0.2]])
    s = SASSystem.create(
        MatrixPolynomial.zero(2, 2),
        MatrixPolynomial.constant(q0),
        W=[1.0, 2.0],
        eps=0.5,
    )
    z = random_input(np.random.default_rng(0), T=40)
    traj = sas_run_recursion(s, z, washout=5)
    np.testing.assert_array_equal(traj.states[5:], np.tile(q0.ravel(), (35, 1)))
    assert traj.outputs[-1] == pytest.approx(float(np.array([1.0, 2.0]) @ q0.ravel()))


def test_zero_input_zero_fixed_point_decay():
    rng = np.random.default_rng(1)
    # q(0) = 0: pure z-coefficient, so the zero state is a fixed point at z = 0
    q = MatrixPolynomial.from_coeffs([np.zeros((3, 1)), rng.standard_normal((3, 1))])
    p = MatrixPolynomial.from_coeffs(scaled_coeffs(rng, 3, 1, 0.6))
    s = SASSystem.create(p, q, rng.standard_normal(3), eps=0.1)
    z = BoundedSequence(np.zeros((60, 1)), bound=1.0)
    x0 = rng.uniform(-0.5, 0.5, size=3)
    traj = sas_run_recursion(s, z, x_init=x0, washout=0)
    norms = np.linalg.norm(traj.states, axis=1)
    base = np.linalg.norm(x0)
    for t, nt in enumerate(norms):
        assert nt <= s.K1 ** (t + 1) * base * (1 + 1e-12)


def test_recursion_matches_plain_loop():
    rng = np.random.default_rng(2)
    s = random_sas(rng)
    z = random_input(rng, T=50)
    traj = sas_run_recursion(s, z, washout=0)
    np.testing.assert_allclose(traj.states, manual_recursion(s, z), atol=1e-14)


def test_recursion_rejects_bad_inputs():
    s = random_sas(np.random.default_rng(3))
    two_dim = BoundedSequence(np.zeros((5, 2)), bound=1.0)
    with pytest.raises(ValueError, match="scalar"):
        sas_run_recursion(s, two_dim)
    big = BoundedSequence(np.full((5, 1), 1.5), bound=2.0)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        sas_run_recursion(s, big)


def test_sas_inputs_confined_to_unit_interval():
    s = random_sas(np.random.default_rng(3))
    over = BoundedSequence(np.array([[0.5], [1.0 + 1e-13]]), bound=2.0)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        sas_run_recursion(s, over)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        sas_terminal_states_batch(s, over.window.T)
    edge = BoundedSequence(np.array([[-1.0], [1.0]]), bound=1.0)
    sas_run_recursion(s, edge)
    sas_terminal_states_batch(s, edge.window.T)


def test_recursion_initial_state_sanity_cap():
    s = random_sas(np.random.default_rng(4))
    z = random_input(np.random.default_rng(5), T=10)
    huge = np.full(s.N, 100.0)
    with pytest.raises(ValueError):
        sas_run_recursion(s, z, x_init=huge)


# ---------------------------------------------------------------------------------
# series path


def test_series_with_zero_p_returns_q_of_current_input():
    rng = np.random.default_rng(6)
    q = MatrixPolynomial.from_coeffs([rng.standard_normal((2, 1)) * 0.3 for _ in range(3)])
    s = SASSystem.create(MatrixPolynomial.zero(2, 2), q, rng.standard_normal(2), eps=0.5)
    z = random_input(rng, T=24)
    traj = sas_run_series(s, z, tol=1e-9)
    for t in range(24):
        np.testing.assert_allclose(
            traj.states[t], s.q(float(z.window[t, 0])).ravel(), atol=1e-15
        )
    assert traj.truncation_tail_bound == 0.0


def test_strictly_triangular_p_takes_n_terms():
    # every product of N strictly upper triangular factors vanishes, so N - 1 terms
    # are the exact series: the recursion from zero over any longer window
    rng = np.random.default_rng(33)
    N = 6
    J0, J1 = (np.triu(rng.standard_normal((N, N)), k=1) for _ in range(2))
    scale = 0.8 / (spectral_norm(J0) + spectral_norm(J1))
    q = MatrixPolynomial.from_coeffs([rng.standard_normal((N, 1)) * 0.3 for _ in range(2)])
    s = SASSystem.create(MatrixPolynomial.from_coeffs([J0 * scale, J1 * scale]), q,
                         rng.standard_normal(N), eps=0.1)
    assert _series_terms(s, 1e-12) == (N - 1, 0.0)
    for T, ext in ((3, "zero"), (40, "repeat_last_oldest"), (300, "zero")):
        z = BoundedSequence(rng.uniform(-1, 1, size=(T, 1)), bound=1.0, extension=ext)
        long = sas_terminal_states_batch(s, z.values_newest_first(T + 400)[::-1].T)[0]
        np.testing.assert_allclose(sas_state(s, z, tol=1e-12), long, rtol=0, atol=1e-12)
        traj = sas_run_series(s, z, tol=1e-12)
        assert traj.truncation_tail_bound == 0.0
        np.testing.assert_allclose(traj.states[-1], long, rtol=0, atol=1e-12)


def test_symbolically_nilpotent_p_keeps_the_geometric_length():
    # p(z) = [[z, 1], [-z^2, -z]] squares to zero as a polynomial, yet
    # p(a) p(b) = (a - b) [1; -a] [b, 1] is not zero for a != b: the series needs
    # its certified geometric length, not N - 1 terms
    p = MatrixPolynomial.from_coeffs([[[0.0, 0.4], [0.0, 0.0]], [[0.4, 0.0], [0.0, -0.4]],
                                      [[0.0, 0.0], [-0.4, 0.0]]])
    from affinerc import is_nilpotent

    assert is_nilpotent(p).nilpotent
    s = SASSystem.create(p, MatrixPolynomial.from_coeffs([[[0.5], [0.2]], [[0.1], [-0.3]]]),
                         [1.0, -0.5], eps=0.1)
    J, tail = _series_terms(s, 1e-12)
    assert J > s.N - 1 and 0.0 < tail < 1e-12
    rng = np.random.default_rng(34)
    z = BoundedSequence(rng.uniform(-1, 1, size=(50, 1)), bound=1.0)
    long = sas_terminal_states_batch(s, z.values_newest_first(J + 400)[::-1].T)[0]
    short = sas_terminal_states_batch(s, z.values_newest_first(s.N)[::-1].T)[0]
    np.testing.assert_allclose(sas_state(s, z, tol=1e-12), long, rtol=0, atol=1e-11)
    assert np.max(np.abs(short - long)) > 1e-3


def test_truncation_horizon_for_half_contraction():
    # K1 = 1/2, K2 = 1, tol = 1e-9: the tail 0.5^J first drops below 1e-9 at J = 30
    s = SASSystem.create(
        MatrixPolynomial.constant([[0.5]]),
        MatrixPolynomial.constant([[1.0]]),
        W=[1.0],
        eps=0.25,
    )
    assert s.K1 == 0.5 and s.K2 == 1.0
    J, tail = _series_terms(s, 1e-9)
    assert J == 30
    assert tail < 1e-9 <= tail / s.K1


def test_series_agrees_with_long_washout_recursion():
    rng = np.random.default_rng(7)
    for _ in range(5):
        s = random_sas(rng, n=int(rng.integers(1, 5)), deg=int(rng.integers(0, 3)))
        z = random_input(rng, T=160)
        tol = 1e-10
        series = sas_run_series(s, z, tol=tol)
        washout = 80
        rec = sas_run_recursion(s, z, washout=washout)
        allowed = tol + rec.truncation_tail_bound
        post = slice(washout, None)
        diff = np.linalg.norm(series.states[post] - rec.states[post], axis=1)
        assert np.max(diff) <= allowed


def test_series_tolerance_validation():
    s = random_sas(np.random.default_rng(8))
    with pytest.raises(ValueError):
        sas_run_series(s, random_input(np.random.default_rng(9)), tol=0.0)


# ---------------------------------------------------------------------------------
# functional, state bound, BIBO


def test_zero_readout_functional_vanishes():
    rng = np.random.default_rng(10)
    s = random_sas(rng)
    s0 = SASSystem.create(s.p, s.q, np.zeros(s.N), eps=s.eps)
    for _ in range(5):
        assert sas_functional(s0, random_input(rng)) == 0.0


def test_constant_system_functional_value():
    q0 = np.array([[1.0], [0.5], [-0.25]])
    w = np.array([2.0, 0.0, 4.0])
    s = SASSystem.create(
        MatrixPolynomial.zero(3, 3), MatrixPolynomial.constant(q0), w, eps=0.5
    )
    z = random_input(np.random.default_rng(11))
    assert sas_functional(s, z) == pytest.approx(float(w @ q0.ravel()), abs=1e-15)


def test_functional_equals_washed_out_recursion():
    rng = np.random.default_rng(12)
    s = random_sas(rng)
    z = random_input(rng, T=200)
    tol = 1e-10
    rec = sas_run_recursion(s, z, washout=150)
    bound = np.linalg.norm(s.W) * (tol + rec.truncation_tail_bound)
    assert abs(sas_functional(s, z, tol=tol) - rec.outputs[-1]) <= bound


def test_state_bound_value():
    s = SASSystem.create(
        MatrixPolynomial.constant([[0.5]]),
        MatrixPolynomial.constant([[1.0]]),
        W=[1.0],
        eps=0.25,
    )
    assert state_bound(s) == 2.0


def test_zero_q_pins_state_at_origin():
    rng = np.random.default_rng(13)
    p = MatrixPolynomial.from_coeffs(scaled_coeffs(rng, 2, 1, 0.5))
    s = SASSystem.create(p, MatrixPolynomial.zero(2, 1), [1.0, 1.0], eps=0.1)
    assert state_bound(s) == 0.0
    traj = sas_run_recursion(s, random_input(rng, T=30), washout=0)
    np.testing.assert_array_equal(traj.states, np.zeros((30, 2)))


def test_state_bound_holds_over_long_simulation():
    rng = np.random.default_rng(14)
    s = random_sas(rng, b_p=0.75)
    z = random_input(rng, T=10_000)
    traj = sas_run_recursion(s, z, washout=0)
    assert np.max(np.linalg.norm(traj.states, axis=1)) <= state_bound(s) + 1e-9


def test_bibo_bound():
    rng = np.random.default_rng(15)
    s = random_sas(rng, b_p=0.7)
    cap = np.linalg.norm(s.W) * s.K2 / (1 - s.K1)
    for _ in range(20):
        assert abs(sas_functional(s, random_input(rng))) <= cap + 1e-9


# ---------------------------------------------------------------------------------
# time invariance and contraction


def test_time_invariance_of_functional():
    rng = np.random.default_rng(16)
    s = random_sas(rng)
    z = random_input(rng, T=160)
    tol = 1e-11
    traj = sas_run_series(s, z, tol=tol)
    slack = 2 * (np.linalg.norm(s.W) + 1) * tol
    for tau in (0, 1, 5, 17):
        shifted = sas_functional(s, time_shift(z, tau), tol=tol)
        assert abs(shifted - traj.outputs[z.length - 1 - tau]) <= slack


def test_esp_margin_values():
    a0 = LinearSystem.create(np.zeros((2, 2)), np.eye(2), ScalarPolynomial.coordinate(2, 0), eps=0.5)
    assert esp_margin(a0) == 1.0
    s = SASSystem.create(
        MatrixPolynomial.from_coeffs([0.3 * np.eye(2), 0.4 * np.eye(2)]),
        MatrixPolynomial.constant(np.ones((2, 1)) / 2),
        W=[1.0, 0.0],
        eps=0.2,
    )
    assert esp_margin(s) == pytest.approx(0.3, abs=1e-12)


def test_paired_trajectories_contract():
    rng = np.random.default_rng(17)
    s = random_sas(rng, b_p=0.8)
    z = random_input(rng, T=100)
    margin = esp_margin(s)
    a = rng.uniform(-1, 1, size=s.N)
    b = rng.uniform(-1, 1, size=s.N)
    ta = sas_run_recursion(s, z, x_init=a, washout=0)
    tb = sas_run_recursion(s, z, x_init=b, washout=0)
    gap0 = np.linalg.norm(a - b)
    for t in range(100):
        gap = np.linalg.norm(ta.states[t] - tb.states[t])
        assert gap <= (1 - margin) ** (t + 1) * gap0 * (1 + 1e-10)


def test_outputs_forget_initial_condition_after_washout():
    rng = np.random.default_rng(18)
    s = random_sas(rng)
    z = random_input(rng, T=120)
    washout = 60
    ta = sas_run_recursion(s, z, x_init=np.full(s.N, 0.5), washout=washout)
    tb = sas_run_recursion(s, z, washout=washout)
    cap = np.linalg.norm(s.W) * ta.truncation_tail_bound
    assert np.max(np.abs(ta.outputs[washout:] - tb.outputs[washout:])) <= cap + 1e-15


def test_default_washout_is_minimal():
    rng = np.random.default_rng(19)
    for _ in range(10):
        s = random_sas(rng, b_p=float(rng.uniform(0.3, 0.85)), eps=0.05)
        tol = 10.0 ** -rng.integers(6, 12)
        T = default_washout(s, tol)
        sb = state_bound(s)
        assert (1 - s.eps) ** T * 2 * sb < tol
        if T > 0:
            assert (1 - s.eps) ** (T - 1) * 2 * sb >= tol


# ---------------------------------------------------------------------------------
# linear systems


def test_linear_memoryless():
    c = np.array([[2.0], [1.0]])
    h = ScalarPolynomial.linear_form([1.0, -1.0])
    s = LinearSystem.create(np.zeros((2, 2)), c, h, eps=0.5)
    z = random_input(np.random.default_rng(20), T=16)
    traj = linear_run(s, z)
    for t in range(16):
        zt = float(z.window[t, 0])
        np.testing.assert_allclose(traj.states[t], c.ravel() * zt, atol=1e-15)
        assert traj.outputs[t] == pytest.approx(2 * zt - zt, abs=1e-15)


def test_delay_line_stacks_recent_inputs():
    n = 4
    A = np.zeros((n, n))
    for i in range(1, n):
        A[i, i - 1] = 1.0
    c = np.zeros((n, 1))
    c[0, 0] = 1.0
    s = LinearSystem.create(A, c, ScalarPolynomial.coordinate(n, n - 1), eps=0.5)
    assert s.nilpotent and s.nilpotency_index == n
    rng = np.random.default_rng(21)
    z = random_input(rng, T=12)
    x0 = linear_state(s, z)
    np.testing.assert_array_equal(x0, z.window[-1 : -n - 1 : -1, 0])
    assert linear_functional(s, z) == z.window[-n, 0]


def test_stable_linear_truncation_matches_recursion():
    rng = np.random.default_rng(22)
    A = rng.standard_normal((3, 3))
    A *= 0.7 / spectral_norm(A)
    c = rng.standard_normal((3, 2))
    h = ScalarPolynomial.linear_form(rng.standard_normal(3))
    s = LinearSystem.create(A, c, h, eps=0.05)
    win = rng.uniform(-1, 1, size=(200, 2)) / np.sqrt(2)
    z = BoundedSequence(win, bound=1.0)
    tol = 1e-11
    traj = linear_run(s, z, tol=tol)
    x = np.zeros(3)
    for t in range(200):
        x = A @ x + c @ win[t]
    # recursion from zero carries its own geometric start-up error
    startup = spectral_norm(c) * s.sigma**200 / (1 - s.sigma)
    assert np.linalg.norm(traj.states[-1] - x) <= tol + startup


def test_nilpotent_finite_sum_is_exact():
    rng = np.random.default_rng(23)
    n = 5
    A = np.triu(rng.standard_normal((n, n)), k=1)
    c = rng.standard_normal((n, 1))
    s = LinearSystem.create(A, c, ScalarPolynomial.linear_form(rng.standard_normal(n)), eps=0.05)
    assert s.nilpotent
    z = random_input(rng, T=30)
    traj = linear_run(s, z, tol=1e-9)
    assert traj.truncation_tail_bound == 0.0
    # manual finite sum, same association order
    k = s.nilpotency_index
    for t in (0, 7, 29):
        x = np.zeros(n)
        powers = np.eye(n)
        for i in range(k):
            if t - i >= 0:
                zv = z.window[t - i, 0]
            else:
                zv = 0.0
            x = x + (powers @ c).ravel() * zv
            powers = powers @ A
        np.testing.assert_allclose(traj.states[t], x, atol=1e-13)


def test_linear_run_tolerance_validation():
    rng = np.random.default_rng(24)
    A = 0.5 * np.eye(2)
    s = LinearSystem.create(A, np.eye(2), ScalarPolynomial.coordinate(2, 0), eps=0.1)
    z = BoundedSequence(np.zeros((4, 2)), bound=1.0)
    with pytest.raises(ValueError):
        linear_run(s, z, tol=0.0)
    shift = LinearSystem.create(
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.eye(2),
        ScalarPolynomial.coordinate(2, 0),
        eps=0.1,
    )
    linear_run(shift, z, tol=0.0)  # nilpotent path never truncates


def test_linear_construction_guards():
    h = ScalarPolynomial.coordinate(2, 0)
    with pytest.raises(ValueError, match="sigma_max"):
        LinearSystem.create(np.eye(2), np.eye(2), h, eps=0.1)
    with pytest.raises(ValueError, match="square"):
        LinearSystem.create(np.zeros((2, 3)), np.eye(2), h, eps=0.1)
    with pytest.raises(ValueError, match="arity"):
        LinearSystem.create(np.zeros((3, 3)), np.eye(3), h, eps=0.1)


def test_linear_rejects_non_finite_c():
    h = ScalarPolynomial.coordinate(2, 0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            LinearSystem.create(0.5 * np.eye(2), [[1.0], [bad]], h, eps=0.1)


def test_sas_rejects_non_finite_readout():
    s = random_sas(np.random.default_rng(6))
    p, q = s.p, s.q
    for bad in (np.nan, np.inf, -np.inf):
        W = np.ones(s.N)
        W[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            SASSystem.create(p, q, W, eps=s.eps)


def test_sas_construction_guard():
    p = MatrixPolynomial.constant(0.95 * np.eye(2))
    q = MatrixPolynomial.constant(np.ones((2, 1)))
    with pytest.raises(ValueError, match="echo state precondition"):
        SASSystem.create(p, q, [1.0, 0.0], eps=0.1)


# ---------------------------------------------------------------------------------
# fading-memory Lipschitz constants


def test_fmp_zero_readout():
    rng = np.random.default_rng(25)
    s = random_sas(rng)
    s = SASSystem.create(s.p, s.q, np.zeros(3), eps=s.eps)
    assert fmp_lipschitz_constant(s, rho=0.5) == 0.0
    assert sas_functional(s, random_input(rng)) == 0.0


def test_fmp_constant_system_is_constant():
    s = SASSystem.create(
        MatrixPolynomial.constant(0.4 * np.eye(2)),
        MatrixPolynomial.constant(np.array([[1.0], [-0.5]])),
        W=[1.0, 1.0],
        eps=0.1,
    )
    assert fmp_lipschitz_constant(s, rho=0.5) == 0.0
    rng = np.random.default_rng(26)
    vals = [sas_functional(s, random_input(rng), tol=1e-12) for _ in range(5)]
    assert np.max(vals) - np.min(vals) <= 1e-10


def test_fmp_degenerate_contraction():
    # p = 0 leaves only the q-difference term: C = ||W|| * L_q
    rng = np.random.default_rng(27)
    q = MatrixPolynomial.from_coeffs([rng.standard_normal((2, 1)) * 0.2 for _ in range(2)])
    s = SASSystem.create(MatrixPolynomial.zero(2, 2), q, [1.0, 2.0], eps=0.5)
    expected = np.linalg.norm(s.W) * s.q_cert.M_pprime
    assert fmp_lipschitz_constant(s, rho=0.5) == pytest.approx(expected, rel=1e-12)


def test_fmp_inequality_on_random_pairs():
    rng = np.random.default_rng(28)
    for _ in range(3):
        s = random_sas(rng, b_p=float(rng.uniform(0.4, 0.75)))
        rho = 0.5
        C = fmp_lipschitz_constant(s, rho)
        w = fmp_weighting(s, rho)
        for _ in range(50):
            za = random_input(rng, T=100)
            zb = random_input(rng, T=100)
            lhs = abs(sas_functional(s, za, tol=1e-12) - sas_functional(s, zb, tol=1e-12))
            rhs = C * weighted_distance(za, zb, w)
            assert lhs <= rhs + 1e-10


def test_fmp_weighting_kind():
    rng = np.random.default_rng(29)
    s = random_sas(rng, b_p=0.6)
    w = fmp_weighting(s, rho=0.25)
    assert w.weight(2) == pytest.approx(s.K1 ** 0.5, rel=1e-12)
    with pytest.raises(ValueError):
        fmp_lipschitz_constant(s, rho=1.0)


# ---------------------------------------------------------------------------------
# shared evaluation, batching, serialization


def test_evaluate_filter_dispatch():
    rng = np.random.default_rng(30)
    s = random_sas(rng)
    z = random_input(rng)
    assert evaluate_filter(s, z) == sas_functional(s, z)
    lin = LinearSystem.create(
        np.zeros((2, 2)), np.array([[1.0], [0.0]]), ScalarPolynomial.coordinate(2, 0), eps=0.5
    )
    assert evaluate_filter(lin, z) == linear_functional(lin, z)
    with pytest.raises(TypeError):
        evaluate_filter(object(), z)


def _mixed_inputs(rng, n=72):
    """Mixed window lengths (1 to 120), both extension rules and two bounds."""
    out = []
    for i in range(n):
        bound = (1.0, 0.5)[i % 3 == 0]
        out.append(BoundedSequence(
            rng.uniform(-bound, bound, size=(int(rng.integers(1, 121)), 1)), bound=bound,
            extension=("zero", "repeat_last_oldest")[i % 2],
        ))
    return out


def _batch_filter(kind):
    from affinerc import (
        FamilySpec,
        TrainedModel,
        generic_parallel_compose,
        sample_candidate,
        target_bounded_arma,
        target_finite_volterra,
        target_linear_iir,
        target_tanh_of_linear,
    )
    from affinerc.approximation import monomial_exponents

    rng = np.random.default_rng(64)
    if kind == "sas1":  # D N = 1: the one shape NumPy would hand to gemv, not gemm
        return sample_candidate(FamilySpec("SAS_eps", N=1, deg_p=0, deg_q=0, seed=3))
    if kind.startswith("sas"):
        return sample_candidate(FamilySpec("SAS_eps", N=int(kind[3:]), seed=3))
    if kind == "volterra":
        m = 7
        return target_finite_volterra(m, k0=0.1, k1=rng.standard_normal(m),
                                      k2=rng.standard_normal((m, m)),
                                      k3=rng.standard_normal((m, m, m)))
    if kind == "tanh":
        return target_tanh_of_linear(rng.uniform(-0.5, 0.5, size=9))
    if kind == "arma":
        return target_bounded_arma([0.5, -0.3], [0.4, 0.2, -0.1], clip=0.8)
    if kind == "iir":
        base = sample_candidate(FamilySpec("L_eps", N=5, seed=6))
        return target_linear_iir(base.A, base.c, ScalarPolynomial.from_terms(
            5, {a: float(rng.standard_normal()) for a in monomial_exponents(5, 2)}))
    quad = {a: float(rng.standard_normal()) for a in monomial_exponents(6, 2)}
    base = sample_candidate(FamilySpec("L_eps", N=6, seed=4))
    linear = LinearSystem.create(base.A, base.c, ScalarPolynomial.from_terms(6, quad), base.eps)
    if kind == "linear":
        return linear
    sas12 = sample_candidate(FamilySpec("SAS_eps", N=12, seed=5))
    if kind == "trained":
        return TrainedModel(system=sas12, readout=rng.standard_normal(90), readout_degree=2,
                            lam_reg=0.0, train_error=0.0, test_error=0.0)
    combiner = ScalarPolynomial.from_terms(2, {(1, 0): 0.5, (1, 1): -1.5, (0, 2): 2.0})
    return generic_parallel_compose(sas12, linear, combiner)


_BATCH_KINDS = ["sas1", "sas3", "sas12", "sas40", "linear", "trained", "parallel",
                "volterra", "tanh", "arma", "iir"]


@pytest.mark.parametrize("kind", _BATCH_KINDS)
def test_batch_values_do_not_depend_on_the_batch(kind):
    # a plain ``X @ C`` in the SAS scan or the readouts fails this: BLAS rounds a row
    # differently depending on how many rows share the call
    from affinerc.systems import SCAN_BLOCK

    f = _batch_filter(kind)
    inputs = _mixed_inputs(np.random.default_rng(65))
    assert len(inputs) > 2 * SCAN_BLOCK
    values = evaluate_batch(f, inputs)
    assert values.shape == (len(inputs),)
    for i, z in enumerate(inputs):
        assert evaluate_filter(f, z) == values[i], i
    np.testing.assert_array_equal(evaluate_batch(f, inputs[5:47:3]), values[5:47:3])
    np.testing.assert_array_equal(evaluate_batch(f, inputs[::-1]), values[::-1])
    # every input visits every position of a scan block
    for r in range(1, SCAN_BLOCK):
        np.testing.assert_array_equal(evaluate_batch(f, inputs[r:] + inputs[:r]),
                                      np.roll(values, -r), err_msg=f"rolled by {r}")


@pytest.mark.parametrize("kind", _BATCH_KINDS)
def test_empty_batch_gives_empty_values(kind):
    f = _batch_filter(kind)
    values = evaluate_batch(f, [])
    assert values.shape == (0,) and values.dtype == float
    if hasattr(f, "evaluate_batch"):  # the filter's own method, past the dispatch
        own = f.evaluate_batch([])
        assert own.shape == (0,) and own.dtype == float


def _per_coefficient_scan(s, Z, X):
    """The SAS scan with one row-wise product per coefficient of p and step, Horner
    from the highest degree down: the oracle for the stacked-operand kernel."""
    N = s.N
    pc = [np.ascontiguousarray(c.T) for c in reversed(s.p.coeffs or (np.zeros((N, N)),))]
    qc = [c[:, 0] for c in reversed(s.q.coeffs or (np.zeros((N, 1)),))]
    for zt in Z.T[:, :, None]:
        acc = np.matmul(X[:, None, :], pc[0])[:, 0]
        for c in pc[1:]:
            acc = acc * zt + np.matmul(X[:, None, :], c)[:, 0]
        qacc = qc[0]
        for c in qc[1:]:
            qacc = qacc * zt + c
        X = acc + qacc
    return X


def test_stacked_scan_matches_per_coefficient_scan():
    from affinerc import FamilySpec, sample_candidate
    from affinerc.systems import _sas_scan

    rng = np.random.default_rng(66)
    for N in (1, 2, 3, 7, 16, 29, 40):
        for deg in range(4):
            s = sample_candidate(FamilySpec("SAS_eps", N=N, deg_p=deg, deg_q=deg % 3,
                                            seed=10 * N + deg))
            Z = rng.uniform(-1.0, 1.0, size=(9, 70))
            X0 = rng.uniform(-0.5, 0.5, size=(9, N))
            out = np.empty((70, 9, N))
            got = _sas_scan(s, Z, X0, out=out)
            want = _per_coefficient_scan(s, Z, X0)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13, err_msg=f"{N} {deg}")
            np.testing.assert_array_equal(out[-1], got)
            np.testing.assert_allclose(out[0], _per_coefficient_scan(s, Z[:, :1], X0),
                                       rtol=0, atol=1e-13)


def test_batch_check_names_the_first_bad_input():
    s = random_sas(np.random.default_rng(67))
    good = BoundedSequence(np.full((6, 1), 0.5), bound=1.0)
    wide = BoundedSequence(np.full((4, 1), 1.5), bound=2.0)
    pair = BoundedSequence(np.zeros((5, 2)), bound=1.0)
    with pytest.raises(ValueError, match="input 2 is not admissible: input entry outside"):
        evaluate_batch(s, [good, good, wide, pair])
    with pytest.raises(ValueError, match="input 1 is not admissible: state-affine"):
        evaluate_batch(s, [good, pair, wide])
    lin = LinearSystem.create(np.zeros((2, 2)), np.array([[1.0], [0.0]]),
                              ScalarPolynomial.coordinate(2, 0), eps=0.5)
    assert evaluate_batch(lin, [good, wide]).shape == (2,)
    with pytest.raises(ValueError, match="input 2 is not admissible: input dim 2"):
        evaluate_batch(lin, [good, wide, pair])


def test_batch_terminal_states_match_series():
    rng = np.random.default_rng(31)
    s = random_sas(rng, b_p=0.55)
    T = 220  # long enough that the from-zero start-up error is far below tol
    Z = rng.uniform(-1, 1, size=(8, T))
    batch = sas_terminal_states_batch(s, Z)
    for i in range(8):
        z = BoundedSequence(Z[i][:, None], bound=1.0)
        np.testing.assert_allclose(batch[i], sas_state(s, z, tol=1e-12), atol=1e-9)


def test_system_json_round_trips():
    rng = np.random.default_rng(32)
    s = random_sas(rng)
    doc = json.loads(json.dumps(system_to_json(s)))
    back = system_from_json(doc)
    assert isinstance(back, SASSystem)
    np.testing.assert_array_equal(back.W, s.W)
    assert back.eps == s.eps
    for i in range(s.p.degree + 1):
        np.testing.assert_array_equal(back.p.coeff(i), s.p.coeff(i))

    shift = np.array([[0.0, 0.0], [1.0, 0.0]])
    lin = LinearSystem.create(shift, np.array([[1.0], [0.0]]), ScalarPolynomial.coordinate(2, 1), eps=0.1)
    back = system_from_json(json.loads(json.dumps(system_to_json(lin))))
    assert isinstance(back, LinearSystem)
    assert back.nilpotent and back.nilpotency_index == 2
    np.testing.assert_array_equal(back.A, shift)


def test_trajectory_csv_layout():
    rng = np.random.default_rng(33)
    s = random_sas(rng, n=2)
    traj = sas_run_recursion(s, random_input(rng, T=6), washout=2)
    text = trajectory_to_csv(traj)
    lines = text.strip().splitlines()
    assert lines[0] == "t,x_1,x_2,y"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "-5"
    np.testing.assert_allclose(
        [float(v) for v in first[1:3]], traj.states[0], atol=0
    )
