"""End-to-end drives of the command line, via ``main(argv)``."""

import json

import numpy as np
import pytest

from affinerc import (
    BoundedSequence,
    MatrixPolynomial,
    SASSystem,
    norm_certificate,
    poly_to_json,
    sas_functional,
    sequence_from_csv,
    sequence_to_csv,
    system_from_json,
    system_to_json,
)
from affinerc.cli import _build_parser, main


def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


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


def constant_sas(q0, w):
    q0 = np.asarray(q0, dtype=float).reshape(-1, 1)
    return SASSystem.create(
        MatrixPolynomial.zero(q0.shape[0], q0.shape[0]),
        MatrixPolynomial.constant(q0),
        np.asarray(w, dtype=float),
        eps=0.5,
    )


def write_input(path, window, seed=0, dim=1, bound=1.0):
    rng = np.random.default_rng(seed)
    scale = bound / np.sqrt(dim)  # keep Euclidean row norms under the bound
    z = BoundedSequence(rng.uniform(-scale, scale, size=(window, dim)), bound=bound)
    path.write_text(sequence_to_csv(z))
    return str(path), z


# ---------------------------------------------------------------------------------
# simulate


def test_simulate_constant_system(tmp_path, capsys):
    s = constant_sas([0.25, -0.5], [2.0, 1.0])
    sys_path = write_json(tmp_path / "sys.json", system_to_json(s))
    in_path, _ = write_input(tmp_path / "z.csv", 32, seed=1)
    out = tmp_path / "traj.csv"
    rc = main(["simulate", sys_path, in_path, "-o", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "state bound:" in text and "esp margin:" in text
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x_1,x_2,y"
    ys = {line.split(",")[-1] for line in lines[1:]}
    assert len(ys) == 1  # p = 0: the output column is a single repeated value
    assert float(ys.pop()) == pytest.approx(2.0 * 0.25 - 0.5, abs=1e-14)


def test_simulate_methods_agree(tmp_path):
    s = small_sas(seed=2)
    sys_path = write_json(tmp_path / "sys.json", system_to_json(s))
    in_path, _ = write_input(tmp_path / "z.csv", 256, seed=3)
    rec_out, ser_out = tmp_path / "rec.csv", tmp_path / "ser.csv"
    assert main(["simulate", sys_path, in_path, "-o", str(rec_out)]) == 0
    assert main(["simulate", sys_path, in_path, "--method", "series",
                 "--tol", "1e-11", "-o", str(ser_out)]) == 0

    def column(path, k):
        rows = path.read_text().strip().splitlines()[1:]
        return {r.split(",")[0]: float(r.split(",")[k]) for r in rows}

    rec_y, ser_y = column(rec_out, -1), column(ser_out, -1)
    shared = sorted(set(rec_y) & set(ser_y), key=int)
    assert len(shared) >= 64
    for t in shared[len(shared) // 2:]:  # well past any washout
        assert rec_y[t] == pytest.approx(ser_y[t], abs=1e-7)


def test_simulate_missing_file(tmp_path, capsys):
    rc = main(["simulate", str(tmp_path / "nope.json"), str(tmp_path / "z.csv")])
    assert rc == 2
    assert "file not found" in capsys.readouterr().err
    assert "nope.json" in str(tmp_path / "nope.json")


def test_simulate_rejects_out_of_bound_input(tmp_path, capsys):
    s = small_sas(seed=4)
    sys_path = write_json(tmp_path / "sys.json", system_to_json(s))
    big = BoundedSequence(np.full((8, 1), 1.6), bound=2.0)
    in_path = tmp_path / "big.csv"
    in_path.write_text(sequence_to_csv(big))
    rc = main(["simulate", sys_path, str(in_path), "-o", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------------
# certify


def test_certify_frozen_contraction(tmp_path, capsys):
    p = MatrixPolynomial.from_coeffs([0.2 * np.eye(2), 0.2 * np.eye(2)])
    poly_path = write_json(tmp_path / "p.json", poly_to_json(p))
    out = tmp_path / "cert.json"
    rc = main(["certify", poly_path, "--lam", "0.3", "-o", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "cond (i):   true" in text
    assert "cond (ii):  true" in text
    assert "cond (iii): true" in text
    assert "nilpotent:  false" in text
    doc = json.loads(out.read_text())
    assert doc["cond_i"] and doc["cond_ii"] and doc["cond_iii"]
    assert doc["B_p"] == pytest.approx(0.4, abs=1e-12)
    assert doc["lam"] == 0.3


def test_certify_json_matches_library(tmp_path):
    rng = np.random.default_rng(5)
    p = MatrixPolynomial.from_coeffs(
        [0.3 * rng.standard_normal((3, 3)) for _ in range(3)]
    )
    poly_path = write_json(tmp_path / "p.json", poly_to_json(p))
    out = tmp_path / "cert.json"
    assert main(["certify", poly_path, "--grid-step", "0.01", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    cert = norm_certificate(p, grid_step=0.01)
    assert doc["B_p"] == cert.B_p
    assert doc["M_p_lower"] == cert.M_p_lower
    assert doc["M_p_upper"] == cert.M_p_upper
    assert doc["M_pprime"] == cert.M_pprime
    assert doc["evaluations"] == cert.evaluations
    assert doc["bound_by"] == cert.bound_by in ("grid", "coefficients")
    assert doc["rounding"] == cert.rounding > 0.0
    assert doc["rows"] == 3 and doc["cols"] == 3 and doc["degree"] == 2


def test_certify_accepts_system_files(tmp_path, capsys):
    s = small_sas(seed=6)
    sys_path = write_json(tmp_path / "sys.json", system_to_json(s))
    rc = main(["certify", sys_path])
    assert rc == 0
    assert "B_p:" in capsys.readouterr().out


def test_certify_nilpotent_detection(tmp_path, capsys):
    J = np.diag([1.0, 1.0, 1.0], k=1)
    p = MatrixPolynomial.from_coeffs([np.zeros((4, 4)), J])
    poly_path = write_json(tmp_path / "p.json", poly_to_json(p))
    assert main(["certify", poly_path]) == 0
    assert "nilpotent:  true (index 4)" in capsys.readouterr().out


def test_certify_garbage_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["certify", str(bad)])
    assert rc == 2
    assert "cannot parse" in capsys.readouterr().err


def test_certify_nan_coefficient_exits_2(tmp_path, capsys):
    doc = {"rows": 1, "cols": 1, "coeffs": [[0.5], [float("nan")]]}
    poly_path = write_json(tmp_path / "p.json", doc)  # json writes the NaN literal
    assert "NaN" in (tmp_path / "p.json").read_text()
    assert main(["certify", poly_path]) == 2
    assert "finite" in capsys.readouterr().err


def test_simulate_nan_input_exits_2(tmp_path, capsys):
    sys_path = write_json(tmp_path / "sys.json", system_to_json(small_sas(seed=4)))
    in_path = tmp_path / "z.csv"
    in_path.write_text("dim,bound,extension\n1,1.0,zero\n0.1\nnan\n0.2\n")
    rc = main(["simulate", sys_path, str(in_path), "-o", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_simulate_nan_readout_exits_2(tmp_path, capsys):
    doc = system_to_json(small_sas(seed=4))
    doc["W"][0] = float("nan")
    sys_path = write_json(tmp_path / "sys.json", doc)
    in_path, _ = write_input(tmp_path / "z.csv", 16)
    rc = main(["simulate", sys_path, in_path, "-o", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------------
# compose


def test_compose_self_difference_vanishes(tmp_path, capsys):
    s = small_sas(seed=7)
    sys_path = write_json(tmp_path / "sys.json", system_to_json(s))
    out = tmp_path / "diff.json"
    rc = main(["compose", sys_path, sys_path, "--mode", "sum",
               "--lam", "-1", "-o", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "kind:            sas_sum" in text
    assert f"state dimension: {2 * s.N}" in text
    diff = system_from_json(json.loads(out.read_text()))
    rng = np.random.default_rng(8)
    for _ in range(4):
        z = BoundedSequence(rng.uniform(-1, 1, size=(64, 1)), bound=1.0)
        assert abs(sas_functional(diff, z, tol=1e-11)) < 1e-8


def test_compose_product_dimension(tmp_path, capsys):
    a, b = small_sas(seed=9, n=2, b=0.4), small_sas(seed=10, n=3, b=0.4)
    pa = write_json(tmp_path / "a.json", system_to_json(a))
    pb = write_json(tmp_path / "b.json", system_to_json(b))
    out = tmp_path / "prod.json"
    rc = main(["compose", pa, pb, "--mode", "product", "-o", str(out)])
    assert rc == 0
    assert "state dimension: 11" in capsys.readouterr().out  # 2 + 3 + 6
    doc = json.loads(out.read_text())
    assert doc["composition"]["kind"] == "sas_product"
    assert doc["parents"] == [pa, pb]


def test_compose_mixed_types_fails(tmp_path, capsys):
    s = small_sas(seed=11)
    lin = {
        "type": "linear", "A": [[0.5]], "c": [[1.0]], "eps": 0.1,
        "h": {"arity": 1, "terms": [{"alpha": [1], "coeff": 1.0}]},
    }
    ps = write_json(tmp_path / "s.json", system_to_json(s))
    pl = write_json(tmp_path / "l.json", lin)
    rc = main(["compose", ps, pl, "--mode", "sum", "-o", str(tmp_path / "o.json")])
    assert rc == 1
    assert "cannot compose" in capsys.readouterr().err


def test_compose_recertification_failure(tmp_path, capsys):
    # near-unit p plus a large q: the product's interaction blocks push the
    # composed transition past contraction, so recertification must throw
    rng = np.random.default_rng(12)
    p_mats = [rng.standard_normal((2, 2)) for _ in range(2)]
    p_mats = [m * (0.9 / sum(np.linalg.norm(x, 2) for x in p_mats)) for m in p_mats]
    q_mats = [rng.standard_normal((2, 1)) for _ in range(2)]
    q_mats = [m * (3.0 / sum(np.linalg.norm(x, 2) for x in q_mats)) for m in q_mats]
    s = SASSystem.create(
        MatrixPolynomial.from_coeffs(p_mats),
        MatrixPolynomial.from_coeffs(q_mats),
        rng.standard_normal(2),
        eps=0.05,
    )
    ps = write_json(tmp_path / "s.json", system_to_json(s))
    rc = main(["compose", ps, ps, "--mode", "product", "-o", str(tmp_path / "o.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------------
# approximate


def planted_config(tmp_path, seed=17):
    s = small_sas(seed=seed)
    return {
        "seed": 3,
        "target": {"kind": "system", "system": system_to_json(s), "bound": 1.0},
        "schedule": [
            {"family": "SAS_eps", "N": 2, "deg_p": 1, "deg_q": 1, "eps": 0.1, "seed": 9}
        ],
        "planted": [system_to_json(s)],
        "n_train": 48,
        "n_test": 24,
        "window": 220,
        "restarts": 2,
        "lam_reg": 0.0,
        "tol": 1e-12,
    }


def test_approximate_recovers_planted_target(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", planted_config(tmp_path))
    rc = main(["approximate", cfg_path, "--out-dir", str(tmp_path / "run")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "best: family=planted" in text
    results = (tmp_path / "run" / "results.csv").read_text()
    assert results.splitlines()[0] == "family,N,restart,train_err,test_err,seed"
    best = json.loads((tmp_path / "run" / "best_model.json").read_text())
    assert best["family"] == "planted"
    assert best["test_error"] < 1e-6
    assert best["seed"] == -1
    model = system_from_json(best["system"])
    assert model.N == 3


def test_approximate_is_deterministic(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", planted_config(tmp_path))
    assert main(["approximate", cfg_path, "--out-dir", str(tmp_path / "r1")]) == 0
    assert main(["approximate", cfg_path, "--out-dir", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "results.csv").read_text() == \
        (tmp_path / "r2" / "results.csv").read_text()
    assert (tmp_path / "r1" / "best_model.json").read_text() == \
        (tmp_path / "r2" / "best_model.json").read_text()


def test_approximate_volterra_target_runs(tmp_path, capsys):
    cfg = {
        "seed": 1,
        "target": {"kind": "finite_volterra", "memory": 2, "k0": 0.0,
                   "k1": [0.5, -0.25], "bound": 1.0},
        "schedule": [{"family": "NL", "N": 4, "seed": 2}],
        "n_train": 32, "n_test": 16, "window": 64, "restarts": 2,
        "lam_reg": 1e-8, "readout_degree": 1,
    }
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    rc = main(["approximate", cfg_path, "--out-dir", str(tmp_path / "run")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("family,N,best_test_err")
    best = json.loads((tmp_path / "run" / "best_model.json").read_text())
    # memory-2 linear target, nilpotent 4-tap states: the regression nails it
    assert best["test_error"] < 1e-6


def test_approximate_config_errors(tmp_path, capsys):
    missing = write_json(tmp_path / "m.json", {"schedule": []})
    assert main(["approximate", missing, "--out-dir", str(tmp_path)]) == 2
    assert "cannot parse config" in capsys.readouterr().err
    bad_target = write_json(
        tmp_path / "t.json",
        {"target": {"kind": "chebyshev"}, "schedule": []},
    )
    assert main(["approximate", bad_target, "--out-dir", str(tmp_path)]) == 2
    assert "unknown target kind" in capsys.readouterr().err


# ---------------------------------------------------------------------------------
# transfer


def test_transfer_self_is_exact(tmp_path, capsys):
    s = small_sas(seed=13)
    cfg = {
        "seed": 5,
        "target": system_to_json(s),
        "approx": system_to_json(s),
        "ensemble": {"kind": "iid_uniform", "bound": 1.0},
        "n_paths": 8,
        "window": 48,
        "deterministic_bound": 1e-9,
    }
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    out = tmp_path / "report.json"
    rc = main(["transfer", cfg_path, "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["stochastic_sup_err"] == 0.0
    assert doc["pipelines_agree"] is True
    assert doc["deterministic_bound_holds"] is True
    assert doc["n_paths"] == 8
    assert "pipelines agree:         true" in capsys.readouterr().out


def test_transfer_bound_violation_fails(tmp_path, capsys):
    cfg = {
        "seed": 5,
        "target": system_to_json(small_sas(seed=14)),
        "approx": system_to_json(small_sas(seed=15)),
        "ensemble": {"kind": "clipped_ar1", "phi": 0.5, "sigma": 0.5, "bound": 1.0},
        "n_paths": 8,
        "window": 48,
        "deterministic_bound": 1e-15,
    }
    cfg_path = write_json(tmp_path / "cfg.json", cfg)
    rc = main(["transfer", cfg_path])
    assert rc == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_transfer_missing_key(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", {"target": "x.json"})
    assert main(["transfer", cfg_path]) == 2
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("n_paths", "many"),
                                       ("deterministic_bound", "tight"),
                                       ("window", None)])
def test_transfer_bad_config_value_exits_2(tmp_path, capsys, key, value):
    s = system_to_json(small_sas(seed=13))
    cfg = {"target": s, "approx": s, "ensemble": {"kind": "iid_uniform", "bound": 1.0},
           "n_paths": 4, "window": 16, key: value}
    assert main(["transfer", write_json(tmp_path / "cfg.json", cfg)]) == 2
    assert "cannot parse config" in capsys.readouterr().err


TANH_TARGET = {"kind": "tanh_of_linear", "weights": [0.5, -0.2]}


@pytest.mark.parametrize("command,edit", [
    ("transfer", {"ensemble": {"kind": "iid_uniform", "bound": float("nan")}}),
    ("transfer", {"ensemble": {"kind": "iid_uniform", "bound": float("inf")}}),
    ("transfer", {"ensemble": {"kind": "brownian", "bound": 1.0}}),
    ("transfer", {"ensemble": {"kind": "clipped_ar1", "phi": float("nan"), "sigma": 0.5}}),
    ("transfer", {"ensemble": {"kind": "clipped_ar1", "phi": "slow", "sigma": 0.5}}),
    ("transfer", {"n_paths": 0}),
    ("transfer", {"ensemble": "iid_uniform"}),
    ("approximate", {"target": {"kind": "finite_volterra", "memory": 2,
                                "k1": [0.5, float("nan")]}}),
    ("approximate", {"target": TANH_TARGET, "readout_degree": "2"}),
    ("approximate", {"target": TANH_TARGET, "n_train": "many"}),
    ("approximate", {"target": TANH_TARGET, "budget": 1.5}),
    ("approximate", {"target": TANH_TARGET, "readout_degree": 0}),
    ("approximate", {"target": TANH_TARGET, "readout_degree": -1}),
    ("approximate", {"target": TANH_TARGET, "budget": -1}),
    ("approximate", {"target": TANH_TARGET, "n_train": 0}),
    ("approximate", {"target": TANH_TARGET, "n_test": 0}),
    ("approximate", {"target": TANH_TARGET, "window": 0}),
    ("approximate", {"target": TANH_TARGET, "restarts": 0}),
], ids=["bound-nan", "bound-inf", "unknown-kind", "phi-nan", "phi-text", "no-paths",
        "ensemble-text", "volterra-nan", "degree-text", "n-train-text", "budget-fraction",
        "degree-zero", "degree-negative", "budget-negative", "no-train", "no-test",
        "no-window", "no-restarts"])
def test_bad_experiment_config_exits_2(tmp_path, capsys, command, edit):
    s = system_to_json(small_sas(seed=13))
    if command == "transfer":
        cfg = {"target": s, "approx": s, "ensemble": {"kind": "iid_uniform", "bound": 1.0},
               "n_paths": 4, "window": 16}
    else:
        cfg = {"schedule": [{"family": "SAS_eps", "N": 2}], "n_train": 8, "n_test": 4,
               "window": 16, "restarts": 1}
    cfg.update(edit)
    argv = [command, write_json(tmp_path / "cfg.json", cfg)]
    assert main(argv + (["--out-dir", str(tmp_path)] if command == "approximate" else [])) == 2
    err = capsys.readouterr().err
    assert "cannot parse config" in err and "Traceback" not in err


def _malformed_json(tmp_path, case):
    """A JSON file that parses but is no polynomial, system or config."""
    if case == "top-list":
        return write_json(tmp_path / "bad.json", [1, 2])
    if case == "p-list":
        doc = system_to_json(small_sas(seed=4))
        doc["p"] = [1]
    else:  # an exponent that is not a tuple
        doc = {"type": "linear", "A": [[0.5]], "c": [[1.0]], "eps": 0.1,
               "h": {"arity": 1, "terms": [{"alpha": 1, "coeff": 1.0}]}}
    return write_json(tmp_path / "bad.json", doc)


@pytest.mark.parametrize("command,case", [
    ("certify", "top-list"), ("simulate", "top-list"), ("compose", "top-list"),
    ("approximate", "top-list"), ("transfer", "top-list"),
    ("certify", "p-list"), ("simulate", "p-list"), ("compose", "alpha-int"),
])
def test_malformed_json_exits_2(tmp_path, capsys, command, case):
    bad = _malformed_json(tmp_path, case)
    in_path, _ = write_input(tmp_path / "z.csv", 8)
    out = str(tmp_path / "out")
    argv = {"certify": [bad], "simulate": [bad, in_path, "-o", out],
            "compose": [bad, bad, "--mode", "sum", "-o", out],
            "approximate": [bad, "--out-dir", out], "transfer": [bad]}[command]
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert "cannot parse" in err and "Traceback" not in err


def test_each_polynomial_is_certified_once(tmp_path, monkeypatch):
    from affinerc import algebra, cli, polynomials, sas_add, sas_multiply, systems

    s1, s2 = small_sas(seed=20, n=2), small_sas(seed=21, n=3)
    p = MatrixPolynomial.from_coeffs([np.eye(4) * 0.3, np.ones((4, 4)) * 0.05])
    path = write_json(tmp_path / "p.json", poly_to_json(p))
    shapes = []

    def counting(poly, *args, **kwargs):
        shapes.append((poly.rows, poly.cols))
        return norm_certificate(poly, *args, **kwargs)

    for module in (algebra, cli, polynomials, systems):
        monkeypatch.setattr(module, "norm_certificate", counting)
    assert main(["certify", path]) == 0
    sas_add(s1, s2, 0.5)
    sas_multiply(s1, s2)
    assert shapes.count((4, 4)) == 1  # certify
    assert shapes.count((5, 5)) == 1  # the sum's p
    assert shapes.count((11, 11)) == 1  # the product's p


# ---------------------------------------------------------------------------------
# verify


def test_verify_all_suites_pass(capsys):
    rc = main(["verify", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("sequences", "polynomials", "systems", "algebra",
                 "approximation", "ensembles"):
        assert f"[pass] {name}:" in out


def test_verify_subset(capsys):
    rc = main(["verify", "sequences", "polynomials", "--seed", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_verify_unknown_suite(capsys):
    rc = main(["verify", "calculus"])
    assert rc == 2
    assert "unknown suite" in capsys.readouterr().err


# ---------------------------------------------------------------------------------
# parser plumbing


def test_parser_defaults():
    ap = _build_parser()
    sim = ap.parse_args(["simulate", "s.json", "z.csv"])
    assert sim.tol == 1e-9 and sim.method == "recursion"
    cert = ap.parse_args(["certify", "p.json"])
    assert cert.lam == 0.5 and cert.grid_step == 1e-3
    comp = ap.parse_args(["compose", "a.json", "b.json", "--mode", "sum"])
    assert comp.lam == 1.0


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["simulate"])  # missing required positionals
    assert e.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "affinerc" in capsys.readouterr().out


def test_roundtrip_of_written_input(tmp_path):
    in_path, z = write_input(tmp_path / "z.csv", 20, seed=16, dim=2, bound=0.5)
    back = sequence_from_csv((tmp_path / "z.csv").read_text())
    np.testing.assert_array_equal(back.window, z.window)
    assert back.bound == z.bound
