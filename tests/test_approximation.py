import numpy as np
import pytest

from affinerc import (
    BoundedSequence,
    FamilySpec,
    IllConditionedError,
    MatrixPolynomial,
    SASSystem,
    TargetFilter,
    ScalarPolynomial,
    TrainedModel,
    approximate,
    check_conditions,
    evaluate_batch,
    generate_uniform_inputs,
    harvest_states,
    is_nilpotent,
    linear_functional,
    sample_candidate,
    sas_functional,
    separation_witness,
    sup_error,
    system_to_json,
    train_readout,
    target_bounded_arma,
    target_finite_volterra,
    target_linear_iir,
    target_tanh_of_linear,
)

RNG = np.random.default_rng


def small_sas(seed=0, n=3, b=0.6):
    rng = RNG(seed)
    p_mats = [rng.standard_normal((n, n)) for _ in range(2)]
    p_scale = b / sum(np.linalg.norm(m, 2) for m in p_mats)
    q_mats = [rng.standard_normal((n, 1)) for _ in range(2)]
    q_scale = 0.8 / sum(np.linalg.norm(m, 2) for m in q_mats)
    return SASSystem.create(
        MatrixPolynomial.from_coeffs([m * p_scale for m in p_mats]),
        MatrixPolynomial.from_coeffs([m * q_scale for m in q_mats]),
        rng.standard_normal(n),
        eps=0.05,
    )


# ---------------------------------------------------------------------------------
# candidate families


def test_nl_candidate_is_exact_delay_line():
    s = sample_candidate(FamilySpec("NL", N=4, seed=1))
    assert s.nilpotent and s.nilpotency_index == 4
    rep = is_nilpotent(MatrixPolynomial.constant(s.A))
    assert rep.nilpotent and rep.index == 4
    np.testing.assert_array_equal(np.diag(s.A, k=-1), np.ones(3))


def test_sas_candidate_satisfies_coefficient_condition():
    spec = FamilySpec("SAS_eps", N=4, deg_p=2, deg_q=2, eps=0.1, seed=7)
    s = sample_candidate(spec)
    assert check_conditions(s.p, lam=0.5, grid_step=0.1).cond_ii
    assert s.p_cert.B_p == pytest.approx(0.95 * 0.9, rel=1e-9)
    assert s.q_cert.B_p == pytest.approx(0.95 * 0.9, rel=1e-9)


def test_ns_candidate_is_nilpotent_polynomial():
    s = sample_candidate(FamilySpec("NS_eps", N=5, seed=3))
    assert not s.p.coeff(0).any()
    assert is_nilpotent(s.p, zero_tol=1e-15).nilpotent


def test_linear_candidate_spectral_targets():
    s = sample_candidate(FamilySpec("L_eps", N=6, eps=0.2, seed=2))
    assert s.sigma == pytest.approx(0.95 * 0.8, rel=1e-9)
    d = sample_candidate(FamilySpec("DL_eps", N=6, eps=0.2, seed=2))
    assert d.diagonal
    assert np.max(np.abs(np.diagonal(d.A))) < 0.8


def test_candidates_reproducible_by_seed():
    spec = FamilySpec("SAS_eps", N=3, seed=11)
    a = sample_candidate(spec)
    b = sample_candidate(spec)
    assert system_to_json(a) == system_to_json(b)
    c = sample_candidate(FamilySpec("SAS_eps", N=3, seed=12))
    assert system_to_json(a) != system_to_json(c)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("GRU", N=3)
    with pytest.raises(ValueError):
        FamilySpec("SAS_eps", N=0)
    with pytest.raises(ValueError):
        FamilySpec("SAS_eps", N=3, eps=1.0)
    with pytest.raises(ValueError):
        FamilySpec("SAS_eps", N=3, deg_p=-1)


# ---------------------------------------------------------------------------------
# state harvesting


def test_constant_system_rows_are_q0():
    q0 = np.array([[0.4], [-0.1]])
    s = SASSystem.create(
        MatrixPolynomial.zero(2, 2), MatrixPolynomial.constant(q0), [1.0, 1.0], eps=0.5
    )
    inputs = generate_uniform_inputs(6, window=20, seed=1)
    X = harvest_states(s, inputs)
    np.testing.assert_allclose(X, np.tile(q0.ravel(), (6, 1)), atol=1e-12)


def test_zero_inputs_give_zero_feature_matrix():
    s = sample_candidate(FamilySpec("NL", N=3, seed=4))
    zeros = [BoundedSequence(np.zeros((16, 1)), bound=1.0) for _ in range(5)]
    X = harvest_states(s, zeros, readout_degree=1)
    np.testing.assert_array_equal(X, np.zeros((5, 3)))


def test_rows_match_per_input_states():
    s = small_sas(seed=5)
    # long windows take the batched path; compare against one-at-a-time evaluation
    inputs = generate_uniform_inputs(7, window=220, seed=2)
    X = harvest_states(s, inputs, tol=1e-9)
    for i, z in enumerate(inputs):
        ref = harvest_states(s, [z], tol=1e-9)[0]
        np.testing.assert_allclose(X[i], ref, atol=2e-9)


def test_unequal_windows_fall_back_to_series():
    s = small_sas(seed=6)
    rng = RNG(3)
    inputs = [
        BoundedSequence(rng.uniform(-1, 1, size=(T, 1)), bound=1.0)
        for T in (40, 64, 100)
    ]
    X = harvest_states(s, inputs, tol=1e-10)
    from affinerc import sas_state

    for i, z in enumerate(inputs):
        np.testing.assert_allclose(X[i], sas_state(s, z, tol=1e-10), atol=1e-14)


def _assert_rows_equal_states(system, inputs, state_fn, tol):
    X = harvest_states(system, inputs, tol=tol)
    for i, z in enumerate(inputs):
        np.testing.assert_allclose(X[i], state_fn(system, z, tol=tol), rtol=0, atol=1e-14)


def test_harvest_rows_equal_states_for_mixed_window_lengths():
    from affinerc import LinearSystem, ScalarPolynomial, linear_state, sas_state

    rng = RNG(21)
    inputs = [BoundedSequence(rng.uniform(-1, 1, size=(T, 1)), bound=1.0)
              for T in (1, 7, 45, 260, 900)]
    _assert_rows_equal_states(small_sas(seed=8), inputs, sas_state, 1e-10)
    A = rng.standard_normal((3, 3))
    A *= 0.8 / np.linalg.norm(A, 2)
    lin = LinearSystem.create(A, rng.standard_normal((3, 1)),
                              ScalarPolynomial.linear_form([1.0, -1.0, 0.5]), eps=0.1)
    _assert_rows_equal_states(lin, inputs, linear_state, 1e-10)


def test_harvest_rows_equal_states_for_short_repeated_windows():
    from affinerc import LinearSystem, ScalarPolynomial, linear_state, sas_state

    rng = RNG(22)
    s = small_sas(seed=9)
    inputs = [BoundedSequence(rng.uniform(-1, 1, size=(T, 1)), bound=1.0,
                              extension="repeat_last_oldest") for T in (1, 2, 5, 12)]
    _assert_rows_equal_states(s, inputs, sas_state, 1e-9)
    # a constant history is one entry repeated: its row is the fixed point
    const = [BoundedSequence([[0.3]], bound=1.0, extension="repeat_last_oldest"),
             BoundedSequence([[0.3]] * 40, bound=1.0)]
    X = harvest_states(s, const, tol=1e-12)
    np.testing.assert_allclose(X[0], sas_state(s, const[1], tol=1e-12), atol=1e-10)
    lin = LinearSystem.create(np.diag([0.5, -0.7]), np.ones((2, 2)),
                              ScalarPolynomial.coordinate(2, 1), eps=0.1)
    pairs = [BoundedSequence(rng.uniform(-0.7, 0.7, size=(T, 2)), bound=1.0,
                             extension="repeat_last_oldest") for T in (1, 3, 8)]
    _assert_rows_equal_states(lin, pairs, linear_state, 1e-9)


def test_harvest_rows_equal_states_for_slow_forgetting():
    from affinerc import sas_state

    rng = RNG(23)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    G = rng.standard_normal((3, 3))
    s = SASSystem.create(
        MatrixPolynomial.from_coeffs([0.88 * Q, 0.03 * G / np.linalg.norm(G, 2)]),
        MatrixPolynomial.from_coeffs([[[0.5], [-0.2], [0.1]], [[0.1], [0.3], [0.0]]]),
        rng.standard_normal(3),
        eps=0.05,
    )
    assert 0.88 <= s.K1 < 0.95  # J runs to a few hundred terms at tol 1e-10
    inputs = [BoundedSequence(rng.uniform(-1, 1, size=(T, 1)), bound=1.0,
                              extension=ext)
              for T, ext in ((30, "zero"), (150, "repeat_last_oldest"), (600, "zero"))]
    _assert_rows_equal_states(s, inputs, sas_state, 1e-10)
    model = TrainedModel(system=s, readout=s.W, readout_degree=None, lam_reg=0.0,
                         train_error=0.0, test_error=0.0, tol=1e-10)
    for z in inputs:
        assert model.evaluate(z) == pytest.approx(sas_functional(s, z, tol=1e-10),
                                                  abs=1e-13)


def test_inadmissible_input_names_its_index():
    s = small_sas(seed=7)
    good = generate_uniform_inputs(2, window=30, seed=4)
    bad = BoundedSequence(np.full((30, 1), 1.25), bound=1.5)
    with pytest.raises(ValueError, match="input 2 is not admissible"):
        harvest_states(s, [*good, bad])


def test_harvest_requires_inputs():
    with pytest.raises(ValueError):
        harvest_states(small_sas(seed=8), [])


# ---------------------------------------------------------------------------------
# readout training


def test_zero_targets_give_zero_weights():
    rng = RNG(10)
    X = rng.standard_normal((30, 4))
    w = train_readout(X, np.zeros(30), lam_reg=1e-3)
    assert np.max(np.abs(w)) <= 1e-14


def test_planted_weights_recovered_without_regularization():
    rng = RNG(11)
    X = rng.standard_normal((60, 5))
    w_star = rng.standard_normal(5)
    w = train_readout(X, X @ w_star, lam_reg=0.0)
    np.testing.assert_allclose(w, w_star, atol=1e-8)


def test_collinear_features_require_regularization():
    col = np.arange(1.0, 7.0)
    X = np.stack([col, 2.0 * col], axis=1)
    y = col.copy()
    with pytest.raises(IllConditionedError, match="lam_reg"):
        train_readout(X, y, lam_reg=0.0)
    w = train_readout(X, y, lam_reg=1e-8)  # regularized solve is fine
    np.testing.assert_allclose(X @ w, y, atol=1e-5)


def test_weight_norm_shrinks_with_regularization():
    rng = RNG(12)
    X = rng.standard_normal((40, 6))
    y = rng.standard_normal(40)
    lams = [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e3]
    norms = [np.linalg.norm(train_readout(X, y, lam_reg=lam)) for lam in lams]
    for a, b in zip(norms, norms[1:]):
        assert b <= a * (1 + 1e-12)


def test_negative_regularization_rejected():
    with pytest.raises(ValueError):
        train_readout(np.ones((3, 1)), np.ones(3), lam_reg=-1.0)


def test_returned_weights_are_locally_optimal():
    rng = RNG(13)
    X = rng.standard_normal((50, 4))
    y = rng.standard_normal(50)
    lam = 1e-2
    w = train_readout(X, y, lam_reg=lam)

    def ridge_objective(v):
        return float(np.sum((X @ v - y) ** 2) + lam * np.sum(v**2))

    base = ridge_objective(w)
    for _ in range(100):
        step = rng.standard_normal(4)
        step *= 1e-3 / np.linalg.norm(step)
        assert base <= ridge_objective(w + step)


# ---------------------------------------------------------------------------------
# sup error


def test_self_target_error_is_truncation_sized():
    s = small_sas(seed=14)
    target = TargetFilter(
        name="self", bound=1.0, fn=lambda z: sas_functional(s, z, tol=1e-12)
    )
    train = generate_uniform_inputs(40, window=200, seed=5)
    X = harvest_states(s, train, tol=1e-10)
    y = np.array([target.evaluate(z) for z in train])
    w = train_readout(X, y, lam_reg=0.0)
    model = TrainedModel(
        system=s, readout=w, readout_degree=None, lam_reg=0.0,
        train_error=0.0, test_error=0.0, tol=1e-10,
    )
    err = sup_error(model, target, generate_uniform_inputs(20, window=200, seed=6))
    assert err.n_inputs == 20
    assert err.value <= 1e-7


def test_filter_target_is_evaluated_in_one_batch_at_the_callers_tol():
    from affinerc import ScalarPolynomial, evaluate_batch, target_linear_iir

    rng = np.random.default_rng(16)
    A = 0.9 * np.linalg.qr(rng.standard_normal((4, 4)))[0]  # slow forgetting
    target = target_linear_iir(A, rng.standard_normal((4, 1)),
                               ScalarPolynomial.linear_form(rng.standard_normal(4)))
    s = small_sas(seed=16)
    inputs = generate_uniform_inputs(12, window=300, seed=8)
    for tol in (1e-3, 1e-12):
        for fn in (target.fn, s):
            values = TargetFilter(name="f", bound=1.0, fn=fn).evaluate_batch(inputs, tol)
            np.testing.assert_array_equal(values, evaluate_batch(fn, inputs, tol))
    coarse, fine = (evaluate_batch(target, inputs, tol) for tol in (1e-3, 1e-12))
    assert not np.array_equal(coarse, fine)


def test_nan_difference_propagates_to_sup_error():
    s = small_sas(seed=15)
    target = TargetFilter(name="gap", bound=1.0,
                          fn=lambda z: float("nan") if z.length == 30 else 0.0)
    inputs = [generate_uniform_inputs(1, window=T, seed=T)[0] for T in (20, 30, 40)]
    assert np.isnan(sup_error(s, target, inputs).value)


def test_zero_target_zero_readout():
    s = small_sas(seed=15)
    s = SASSystem.create(s.p, s.q, np.zeros(3), eps=s.eps)
    target = TargetFilter(name="null", bound=1.0, fn=lambda z: 0.0)
    err = sup_error(s, target, generate_uniform_inputs(5, window=40, seed=7))
    assert err.value == 0.0


# ---------------------------------------------------------------------------------
# separation witnesses


def test_witness_on_single_differing_entry():
    base = np.zeros((8, 1))
    other = base.copy()
    other[8 - 1 - 3, 0] = 0.25  # entry at t = -3
    z1 = BoundedSequence(base, bound=1.0)
    z2 = BoundedSequence(other, bound=1.0)
    w = separation_witness(z1, z2, method="nilpotent_shift")
    assert w.system.N == 4
    assert w.t0 == 3 and w.i0 == 0
    assert w.separation == 0.25
    # the delay line reads the differing entry back out exactly
    assert linear_functional(w.system, z1) == w.value_z1
    assert linear_functional(w.system, z2) == w.value_z2


def test_witness_identical_sequences_error():
    z = BoundedSequence(np.ones((5, 1)) * 0.5, bound=1.0)
    with pytest.raises(ValueError, match="indistinguishable"):
        separation_witness(z, z)


def test_witness_dimension_mismatch():
    a = BoundedSequence(np.zeros((4, 1)), bound=1.0)
    b = BoundedSequence(np.zeros((4, 2)), bound=1.0)
    with pytest.raises(ValueError):
        separation_witness(a, b)


def test_witnesses_separate_random_pairs():
    rng = RNG(16)
    for trial in range(20):
        dim = 1 if trial % 2 == 0 else 2
        scale = 1.0 / np.sqrt(dim)
        z1 = BoundedSequence(rng.uniform(-scale, scale, size=(12, dim)), bound=1.0)
        z2 = BoundedSequence(rng.uniform(-scale, scale, size=(12, dim)), bound=1.0)
        shift = separation_witness(z1, z2, method="nilpotent_shift")
        assert shift.separation > 1e-12
        assert shift.separation == abs(
            z1.entry(shift.t0)[shift.i0] - z2.entry(shift.t0)[shift.i0]
        )
        diag = separation_witness(z1, z2, method="diagonal_scan")
        assert diag.separation > 1e-12
        assert -1.0 < diag.b < 1.0
        # the scalar diagonal witness reproduces its recorded values to tolerance
        got = linear_functional(diag.system, z1, tol=1e-12)
        assert got == pytest.approx(diag.value_z1, abs=1e-9)


def test_witness_method_validation():
    a = BoundedSequence(np.zeros((3, 1)), bound=1.0)
    b = BoundedSequence(np.ones((3, 1)), bound=1.0)
    with pytest.raises(ValueError, match="method"):
        separation_witness(a, b, method="fourier")


# ---------------------------------------------------------------------------------
# the approximation driver


def test_constant_target_is_matched_by_constant_reservoir():
    target = TargetFilter(name="const", bound=1.0, fn=lambda z: 0.7)
    result = approximate(
        target,
        [FamilySpec("SAS_eps", N=1, deg_p=0, deg_q=0, eps=0.1, seed=5)],
        n_train=24, n_test=12, window=48, restarts=2, lam_reg=1e-10,
    )
    assert result.best.test_error < 1e-6


def test_planted_target_system_wins():
    s = small_sas(seed=17)
    target = TargetFilter(
        name="hidden", bound=1.0, fn=lambda z: sas_functional(s, z, tol=1e-12)
    )
    result = approximate(
        target,
        [FamilySpec("SAS_eps", N=2, seed=9)],
        n_train=48, n_test=24, window=220, restarts=2, lam_reg=0.0,
        planted=[s],
    )
    assert result.best.test_error < 1e-6
    assert result.best_row.family == "planted"
    assert result.best_row.restart >= 2
    planted_rows = [r for r in result.rows if r.family == "planted"]
    assert len(planted_rows) == 1 and planted_rows[0].seed == -1


def test_error_curves_reproduce_bitwise():
    target = TargetFilter(name="mean", bound=1.0, fn=lambda z: float(np.mean(z.window)))
    schedule = [FamilySpec("SAS_eps", N=2, seed=1), FamilySpec("NL", N=3, seed=2)]
    kwargs = dict(n_train=16, n_test=8, window=40, restarts=3, seed=4)
    a = approximate(target, schedule, **kwargs)
    b = approximate(target, schedule, **kwargs)
    assert a.to_csv() == b.to_csv()
    assert a.best.test_error == b.best.test_error


def test_curve_reports_min_over_restarts():
    target = TargetFilter(name="last", bound=1.0, fn=lambda z: float(z.window[-1, 0]))
    result = approximate(
        target, [FamilySpec("NL", N=2, seed=3)],
        n_train=16, n_test=8, window=30, restarts=4,
    )
    curve = result.curve()
    assert len(curve) == 1
    fam, n, err = curve[0]
    assert (fam, n) == ("NL", 2)
    assert err == min(r.test_err for r in result.rows)
    header = result.to_csv().splitlines()[0]
    assert header == "family,N,restart,train_err,test_err,seed"


def test_budget_caps_candidate_evaluations():
    target = TargetFilter(name="null", bound=1.0, fn=lambda z: 0.0)
    result = approximate(
        target, [FamilySpec("NL", N=2, seed=3)],
        n_train=8, n_test=4, window=20, restarts=6, budget=2,
    )
    assert len(result.rows) == 2


def test_empty_schedule_rejected():
    target = TargetFilter(name="null", bound=1.0, fn=lambda z: 0.0)
    with pytest.raises(ValueError):
        approximate(target, [])


# ---------------------------------------------------------------------------------
# input generation


def test_uniform_inputs_shape_and_bound():
    inputs = generate_uniform_inputs(9, window=33, bound=0.5, seed=8)
    assert len(inputs) == 9
    for z in inputs:
        assert z.length == 33 and z.dim == 1
        assert np.max(np.abs(z.window)) <= 0.5
        assert z.extension == "zero"


def test_uniform_inputs_seeded():
    a = generate_uniform_inputs(3, window=10, seed=9)
    b = generate_uniform_inputs(3, window=10, seed=9)
    c = generate_uniform_inputs(3, window=10, seed=10)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.window, y.window)
    assert not np.array_equal(a[0].window, c[0].window)


# ---------------------------------------------------------------------------------
# built-in targets as time-invariant batch filters


def _two_representations(rng, T, extension, pad):
    """One left-infinite input twice: its window, and the window behind ``pad`` more
    copies of the entry its extension rule supplies."""
    w = rng.uniform(-1.0, 1.0, size=(T, 1))
    fill = np.zeros((pad, 1)) if extension == "zero" else np.repeat(w[:1], pad, axis=0)
    return (BoundedSequence(w, bound=1.0, extension=extension),
            BoundedSequence(np.vstack([fill, w]), bound=1.0, extension=extension))


def test_every_target_and_system_is_time_invariant():
    rng = RNG(72)
    lin = sample_candidate(FamilySpec("L_eps", N=4, seed=11))
    filters = {
        "volterra": target_finite_volterra(6, k0=0.2, k1=rng.standard_normal(6),
                                           k2=rng.standard_normal((6, 6))),
        "tanh": target_tanh_of_linear(rng.uniform(-0.5, 0.5, size=8)),
        # the clip never binds on a constant prehistory, so only the run length
        # brings the value within tol: (1 + 0.5) / (1 - 0.85) = 10 < 20
        "arma": target_bounded_arma([0.85], [0.5], clip=20.0, bound=1.0),
        "arma2": target_bounded_arma([0.6, -0.3], [0.5, 0.1], clip=0.9),
        "iir": target_linear_iir(lin.A, lin.c, ScalarPolynomial.linear_form(rng.standard_normal(4))),
        "sas": sample_candidate(FamilySpec("SAS_eps", N=5, deg_p=2, seed=12)),
        "linear": lin,
    }
    for tol in (1e-6, 1e-10):
        for name, f in filters.items():
            for extension in ("zero", "repeat_last_oldest"):
                for T, pad in ((1, 3), (4, 20), (4, 400), (30, 200), (150, 7), (150, 400)):
                    short, long = _two_representations(rng, T, extension, pad)
                    a, b = evaluate_batch(f, [short, long], tol)
                    assert abs(a - b) <= tol, (name, extension, T, pad)


def test_arma_target_runs_the_constant_prehistory():
    target = target_bounded_arma([0.5, -0.2], [0.3], 1.0)
    w = np.array([0.7, 0.3, -0.2, 0.5])[:, None]
    longer = np.vstack([np.full((20, 1), 0.7), w])
    # under the zero extension these are two different inputs
    assert target.evaluate(BoundedSequence(w, 1.0)) == pytest.approx(0.358, abs=1e-15)
    assert target.evaluate(BoundedSequence(longer, 1.0)) == pytest.approx(0.3255, abs=1e-15)
    # under repeat_last_oldest they are one
    for z in (w, longer):
        value = target.evaluate(BoundedSequence(z, 1.0, extension="repeat_last_oldest"))
        assert value == pytest.approx(0.3255, abs=1e-9)


def test_arma_target_without_contraction_takes_only_the_zero_extension():
    target = target_bounded_arma([0.7, -0.4], [], 1.0)  # sum |ar_k| = 1.1
    z = BoundedSequence(np.full((5, 1), 0.3), bound=1.0)
    assert np.isfinite(target.evaluate(z))
    with pytest.raises(ValueError, match="sum"):
        target.evaluate(BoundedSequence(z.window, 1.0, extension="repeat_last_oldest"))


def test_volterra_and_tanh_targets_match_their_formulas():
    rng = RNG(73)
    m = 5
    k1, k2, k3 = rng.standard_normal(m), rng.standard_normal((m, m)), rng.standard_normal((m, m, m))
    w = rng.uniform(-0.5, 0.5, size=7)
    volterra = target_finite_volterra(m, k0=0.3, k1=k1, k2=k2, k3=k3)
    tanh = target_tanh_of_linear(w)
    inputs = [BoundedSequence(rng.uniform(-1.0, 1.0, size=(T, 1)), bound=1.0,
                              extension=("zero", "repeat_last_oldest")[T % 2])
              for T in (1, 2, 4, 5, 6, 30)]
    for z, v, t in zip(inputs, volterra.evaluate_batch(inputs), tanh.evaluate_batch(inputs)):
        u = z.values_newest_first(m)[:, 0]
        want = 0.3 + k1 @ u + u @ k2 @ u + np.einsum("ijl,i,j,l->", k3, u, u, u)
        assert v == pytest.approx(want, rel=1e-13, abs=1e-13)
        assert t == pytest.approx(np.tanh(w @ z.values_newest_first(7)[:, 0]), abs=1e-15)
