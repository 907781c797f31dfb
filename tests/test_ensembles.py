import numpy as np
import pytest

from affinerc import (
    BoundedSequence,
    InputEnsemble,
    MatrixPolynomial,
    SASSystem,
    TargetFilter,
    WeightingSequence,
    bounded_moment_check,
    ensemble_from_csv,
    ensemble_to_csv,
    evaluate_filter,
    fmp_lipschitz_constant,
    fmp_weighting,
    generate_ensemble,
    linf_norm,
    linf_weighted_norm,
    pathwise_apply,
    sas_functional,
    target_bounded_arma,
    transfer_check,
    weighted_distance,
    weighted_norm,
)


def small_sas(seed=0, n=3, b=0.6):
    rng = np.random.default_rng(seed)
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
# generation


def test_degenerate_ar1_is_identically_zero():
    e = generate_ensemble(
        {"kind": "clipped_ar1", "phi": 0.0, "sigma": 0.0, "bound": 1.0},
        n_paths=8, window=32, seed=0,
    )
    for p in e.paths:
        np.testing.assert_array_equal(p.window, np.zeros((32, 1)))


def test_iid_uniform_respects_bound():
    e = generate_ensemble({"kind": "iid_uniform", "bound": 0.75}, 16, 64, seed=1)
    assert e.n_paths == 16 and e.bound == 0.75
    for p in e.paths:
        assert np.max(np.abs(p.window)) <= 0.75


def test_unstable_ar1_is_saved_by_the_clip():
    e = generate_ensemble(
        {"kind": "clipped_ar1", "phi": 1.3, "sigma": 0.5, "bound": 1.0},
        n_paths=4, window=128, seed=2,
    )
    for p in e.paths:
        assert np.max(np.abs(p.window)) <= 1.0


def test_bounded_arma_respects_clip():
    e = generate_ensemble(
        {"kind": "bounded_arma", "ar": [0.9, -0.2], "ma": [0.4], "bound": 0.5},
        n_paths=6, window=96, seed=3,
    )
    for p in e.paths:
        assert np.max(np.abs(p.window)) <= 0.5


def test_same_seed_reproduces_ensemble():
    desc = {"kind": "clipped_ar1", "phi": 0.7, "sigma": 0.4, "bound": 1.0}
    a = generate_ensemble(desc, 5, 40, seed=7)
    b = generate_ensemble(desc, 5, 40, seed=7)
    c = generate_ensemble(desc, 5, 40, seed=8)
    for pa, pb in zip(a.paths, b.paths):
        np.testing.assert_array_equal(pa.window, pb.window)
    assert not np.array_equal(a.paths[0].window, c.paths[0].window)


def test_paths_are_seeded_per_index():
    # growing the ensemble never perturbs the paths already drawn
    desc = {"kind": "iid_uniform", "bound": 1.0}
    small = generate_ensemble(desc, 3, 20, seed=9)
    large = generate_ensemble(desc, 6, 20, seed=9)
    for i in range(3):
        np.testing.assert_array_equal(small.paths[i].window, large.paths[i].window)


def test_generation_validation():
    with pytest.raises(ValueError):
        generate_ensemble({"kind": "iid_uniform"}, 0, 10, seed=0)
    with pytest.raises(ValueError):
        generate_ensemble({"kind": "iid_uniform", "bound": -1.0}, 2, 10, seed=0)
    with pytest.raises(ValueError):
        generate_ensemble({"kind": "levy"}, 2, 10, seed=0)
    with pytest.raises(ValueError):
        InputEnsemble(paths=(), descriptor={}, seed=0)


# ---------------------------------------------------------------------------------
# ensemble norms and the swap-sups identity


def test_single_path_weighted_norm():
    e = generate_ensemble({"kind": "iid_uniform", "bound": 1.0}, 1, 30, seed=4)
    w = WeightingSequence.exponential(0.8)
    assert linf_weighted_norm(e, w) == weighted_norm(e.paths[0], w)
    assert linf_norm(e) == np.max(np.abs(e.paths[0].window))


def test_zero_ensemble_norms():
    zero = InputEnsemble(
        paths=tuple(BoundedSequence(np.zeros((12, 2)), bound=1.0) for _ in range(4)),
        descriptor={"kind": "manual"},
        seed=0,
    )
    assert linf_norm(zero) == 0.0
    assert linf_weighted_norm(zero, WeightingSequence.exponential(0.5)) == 0.0


def test_swap_sups_against_double_loop():
    e = generate_ensemble({"kind": "iid_uniform", "bound": 1.0}, 12, 25, seed=5)
    w = WeightingSequence.exponential_power(0.9, 0.5)

    # order 1: per path first
    per_path = [weighted_norm(p, w) for p in e.paths]
    order1 = max(per_path)
    # order 2: per time first (tail handled as one more "time slot")
    T = 25
    order2 = 0.0
    for t in range(T):
        col = max(float(np.linalg.norm(p.entry(t))) * w.weight(t) for p in e.paths)
        order2 = max(order2, col)
    tail = max(float(np.linalg.norm(p.extension_value())) * w.weight(T) for p in e.paths)
    order2 = max(order2, tail)

    assert order1 == order2
    assert linf_weighted_norm(e, w) == order1


def test_swap_sup_mismatch_raises():
    # a NaN leading a row is skipped by one reduction order but not by the other
    from affinerc.ensembles import _swap_sup

    assert _swap_sup([[1.0, 0.25], [0.5]]) == 1.0
    with pytest.raises(RuntimeError, match="sup orders disagree"):
        _swap_sup([[np.nan, 1.0], [0.5]])


def test_linf_norm_matches_plain_max():
    e = generate_ensemble({"kind": "clipped_ar1", "phi": 0.6, "sigma": 0.5, "bound": 1.0},
                          10, 40, seed=6)
    want = max(float(np.max(np.linalg.norm(p.window, axis=1))) for p in e.paths)
    assert linf_norm(e) == want


# ---------------------------------------------------------------------------------
# pathwise application


def test_pathwise_constant_system():
    q0 = np.array([[0.2], [0.4]])
    w = np.array([1.0, -3.0])
    s = SASSystem.create(
        MatrixPolynomial.zero(2, 2), MatrixPolynomial.constant(q0), w, eps=0.5
    )
    e = generate_ensemble({"kind": "iid_uniform", "bound": 1.0}, 6, 16, seed=7)
    out = pathwise_apply(s, e)
    np.testing.assert_allclose(out, np.full(6, float(w @ q0.ravel())), atol=1e-14)


def _arma_oracle(u, ar, ma, clip):
    """The clipped ARMA recursion of one path, one scalar step at a time."""
    y = np.zeros(u.size)
    for t in range(u.size):
        acc = u[t]
        for k, phi in enumerate(ar, start=1):
            if t - k >= 0:
                acc += phi * y[t - k]
        for k, theta in enumerate(ma, start=1):
            if t - k >= 0:
                acc += theta * u[t - k]
        y[t] = min(max(acc, -clip), clip)
    return y


def _ar1_oracle(u, phi, sigma, clip):
    y, prev = np.zeros(u.size), 0.0
    for t in range(u.size):
        prev = min(max(phi * prev + sigma * u[t], -clip), clip)
        y[t] = prev
    return y


@pytest.mark.parametrize("desc", [
    {"kind": "clipped_ar1", "phi": 0.7, "sigma": 0.5, "bound": 1.0},
    {"kind": "clipped_ar1", "phi": -0.95, "sigma": 0.9, "bound": 0.4},
    {"kind": "bounded_arma", "ar": [0.5, -0.3], "ma": [0.4], "bound": 1.0},
    {"kind": "bounded_arma", "ar": [0.9], "ma": [0.6, 0.2, -0.1], "bound": 0.5},
    {"kind": "bounded_arma", "bound": 0.8},
])
def test_vectorized_recursions_match_per_path_loops(desc):
    for seed in (0, 1, 2):
        e = generate_ensemble(desc, 24, 96, seed=seed)
        for i, p in enumerate(e.paths):
            u = np.random.default_rng((seed, i)).uniform(-1.0, 1.0, size=96)
            if desc["kind"] == "clipped_ar1":
                want = _ar1_oracle(u, desc["phi"], desc["sigma"], desc["bound"])
            else:
                want = _arma_oracle(u, desc.get("ar", []), desc.get("ma", []), desc["bound"])
            np.testing.assert_array_equal(p.window[:, 0], want)


def test_arma_target_matches_per_path_loop():
    rng = np.random.default_rng(66)
    ar, ma, clip = [0.6, -0.2], [0.3, 0.1], 0.7
    target = target_bounded_arma(ar, ma, clip)
    for T in (1, 2, 3, 17, 90):
        z = BoundedSequence(rng.uniform(-1.0, 1.0, size=(T, 1)), bound=1.0)
        assert target.evaluate(z) == _arma_oracle(z.window[:, 0], ar, ma, clip)[-1]
    # one batch of mixed lengths: the shorter rows are left-padded with zeros
    batch = [BoundedSequence(rng.uniform(-1.0, 1.0, size=(T, 1)), bound=1.0)
             for T in (5, 1, 90, 2, 33, 3, 90, 17)]
    values = target.evaluate_batch(batch)
    for z, v in zip(batch, values):
        assert v == _arma_oracle(z.window[:, 0], ar, ma, clip)[-1]


def test_single_path_matches_deterministic_functional():
    s = small_sas(seed=1)
    e = generate_ensemble({"kind": "iid_uniform", "bound": 1.0}, 1, 80, seed=8)
    out = pathwise_apply(s, e, tol=1e-10)
    assert out.shape == (1,)
    assert out[0] == sas_functional(s, e.paths[0], tol=1e-10)


def test_pathwise_matches_loop_oracle():
    s = small_sas(seed=2)
    e = generate_ensemble({"kind": "clipped_ar1", "phi": 0.5, "sigma": 0.6, "bound": 1.0},
                          9, 60, seed=9)
    out = pathwise_apply(s, e, tol=1e-9)
    for i, p in enumerate(e.paths):
        assert out[i] == evaluate_filter(s, p, tol=1e-9)


def test_pathwise_restriction_commutes():
    s = small_sas(seed=3)
    e = generate_ensemble({"kind": "iid_uniform", "bound": 1.0}, 8, 50, seed=10)
    sub = InputEnsemble(paths=e.paths[2:6], descriptor=e.descriptor, seed=e.seed)
    full_then_select = pathwise_apply(s, e)[2:6]
    select_then_apply = pathwise_apply(s, sub)
    np.testing.assert_array_equal(full_then_select, select_then_apply)


def test_pathwise_rejects_bad_path_with_index():
    s = small_sas(seed=4)
    good = BoundedSequence(np.zeros((10, 1)), bound=1.0)
    bad = BoundedSequence(np.full((10, 1), 1.5), bound=2.0)
    e = InputEnsemble(paths=(good, bad), descriptor={"kind": "manual"}, seed=0)
    with pytest.raises(ValueError, match="path 1"):
        pathwise_apply(s, e)


# ---------------------------------------------------------------------------------
# the deterministic-stochastic transfer check


def test_transfer_of_filter_against_itself():
    s = small_sas(seed=5)
    target = TargetFilter(name="self", bound=1.0,
                          fn=lambda z: sas_functional(s, z, tol=1e-9))
    e = generate_ensemble({"kind": "iid_uniform", "bound": 1.0}, 12, 60, seed=11)
    report = transfer_check(target, s, e)
    assert report.stochastic_sup_err == 0.0
    assert report.pipelines_agree
    assert report.deterministic_bound_holds


def test_transfer_pipelines_agree_bitwise():
    s = small_sas(seed=6)
    approx = small_sas(seed=7)
    target = TargetFilter(name="wrap", bound=1.0,
                          fn=lambda z: sas_functional(s, z, tol=1e-9))
    e = generate_ensemble({"kind": "clipped_ar1", "phi": 0.4, "sigma": 0.7, "bound": 1.0},
                          64, 70, seed=12)
    report = transfer_check(target, approx, e)
    assert report.n_paths == 64
    assert report.stochastic_sup_err == report.deterministic_sup_err
    assert report.pipelines_agree


def test_transfer_with_supplied_certificate():
    s = small_sas(seed=8)
    target = TargetFilter(name="self", bound=1.0,
                          fn=lambda z: sas_functional(s, z, tol=1e-9))
    e = generate_ensemble({"kind": "iid_uniform", "bound": 1.0}, 6, 40, seed=13)
    ok = transfer_check(target, s, e, deterministic_bound=1e-6)
    assert ok.deterministic_bound_holds
    bad_model = small_sas(seed=9)
    tight = transfer_check(target, bad_model, e, deterministic_bound=1e-12)
    assert not tight.deterministic_bound_holds


def test_fmp_transfers_to_ensembles():
    s = small_sas(seed=10, b=0.7)
    rho = 0.5
    C = fmp_lipschitz_constant(s, rho)
    w = fmp_weighting(s, rho)
    za = generate_ensemble({"kind": "iid_uniform", "bound": 1.0}, 32, 90, seed=14)
    zb = generate_ensemble({"kind": "iid_uniform", "bound": 1.0}, 32, 90, seed=15)
    ya = pathwise_apply(s, za, tol=1e-12)
    yb = pathwise_apply(s, zb, tol=1e-12)
    lhs = np.max(np.abs(ya - yb))
    rhs = C * max(
        weighted_distance(pa, pb, w) for pa, pb in zip(za.paths, zb.paths)
    )
    assert lhs <= rhs + 1e-10


# ---------------------------------------------------------------------------------
# moment audit


def test_moments_of_zero_ensemble():
    zero = InputEnsemble(
        paths=tuple(BoundedSequence(np.zeros((8, 1)), bound=1.0) for _ in range(3)),
        descriptor={"kind": "manual"},
        seed=0,
    )
    report = bounded_moment_check(zero, k_max=4)
    assert report.ok and report.worst_ratio == 0.0


def test_moments_of_constant_ensemble_saturate_exactly():
    M = 0.5
    const = InputEnsemble(
        paths=tuple(
            BoundedSequence(np.full((10, 1), M), bound=M, extension="zero")
            for _ in range(4)
        ),
        descriptor={"kind": "manual"},
        seed=0,
    )
    report = bounded_moment_check(const, k_max=3)
    assert report.ok
    assert report.worst_ratio == pytest.approx(1.0, abs=1e-12)


def test_moments_of_clipped_ar1():
    e = generate_ensemble({"kind": "clipped_ar1", "phi": 0.8, "sigma": 0.6, "bound": 1.0},
                          16, 48, seed=16)
    report = bounded_moment_check(e, k_max=6)
    assert report.ok
    assert report.k_max == 6
    assert not report.failures


def test_moment_check_validation():
    e = generate_ensemble({"kind": "iid_uniform", "bound": 1.0}, 2, 8, seed=17)
    with pytest.raises(ValueError):
        bounded_moment_check(e, k_max=0)


# ---------------------------------------------------------------------------------
# serialization


def test_ensemble_csv_round_trip():
    e = generate_ensemble({"kind": "clipped_ar1", "phi": 0.3, "sigma": 0.9, "bound": 1.0},
                          5, 21, seed=18)
    back = ensemble_from_csv(ensemble_to_csv(e))
    assert back.seed == e.seed
    assert back.descriptor == e.descriptor
    assert back.n_paths == e.n_paths
    for pa, pb in zip(e.paths, back.paths):
        np.testing.assert_array_equal(pa.window, pb.window)
        assert pa.bound == pb.bound
