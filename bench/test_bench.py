"""Tests of the benchmark itself:  python -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import affinerc  # noqa: E402
import affinerc.cli as cli  # noqa: E402
import check  # noqa: E402
import fixtures  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------------------------
# self time


def test_self_time_of_nested_spans():
    t = tracing.Tracer()
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]; a second root [20, 22]
    t.spans = [
        ["cli.main", "cli", 0.0, 10.0, -1, False],
        ["polynomials.norm_certificate", "polynomials", 1.0, 4.0, 0, False],
        ["systems.sas_run_series", "systems", 5.0, 9.0, 0, False],
        ["polynomials.norm_certificate", "polynomials", 6.0, 7.0, 2, True],
        ["cli.main", "cli", 20.0, 22.0, -1, False],
    ]
    assert t.self_times() == [3.0, 3.0, 3.0, 1.0, 2.0]
    m = tracing.layer_metrics(t)
    assert (m["cli.self_s"], m["polynomials.self_s"], m["systems.self_s"]) == (5.0, 4.0, 3.0)
    assert (m["polynomials.calls"], m["polynomials.errors"]) == (2, 1)
    assert m["polynomials.norm_certificate.total_s"] == 4.0
    assert m["systems.sas_run_series.total_s"] == 4.0


def test_total_counts_reentrant_spans_once():
    t = tracing.Tracer()
    t.spans = [
        ["systems.evaluate_filter", "systems", 0.0, 5.0, -1, False],
        ["systems.evaluate_filter", "systems", 1.0, 3.0, 0, False],
    ]
    assert [t.outermost(i) for i in range(2)] == [True, False]
    assert t.self_times() == [3.0, 2.0]


# ---------------------------------------------------------------------------------
# wrappers


def _bindings():
    """Identity of every attribute of every affinerc namespace and traced class."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "affinerc" or name.startswith("affinerc.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = id(value)
    for layer, cls_name, _ in tracing.METHODS:
        cls = getattr(sys.modules[f"affinerc.{layer}"], cls_name)
        for attr, value in vars(cls).items():
            out[(cls_name, attr)] = id(value)
    return out


def test_install_then_uninstall_restores_every_binding():
    before = _bindings()
    original = affinerc.cli.norm_certificate
    with tracing.Tracer() as t:
        assert affinerc.cli.norm_certificate is not original
        assert affinerc.polynomials.norm_certificate is affinerc.cli.norm_certificate
        assert affinerc.norm_certificate is affinerc.cli.norm_certificate
        assert _bindings() != before
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "polynomials", "--seed", "1"]) == 0
    assert _bindings() == before
    names = {s[0] for s in t.spans}
    assert {"cli.main", "cli.cmd_verify", "polynomials.norm_certificate",
            "polynomials.check_conditions"} <= names
    assert t.counts["polynomials.poly_eval"] > 0
    assert "polynomials.poly_eval" not in names  # hot accessors are only counted
    roots = [s for s in t.spans if s[4] == -1]
    assert [s[0] for s in roots] == ["cli.main"]


def test_traced_spans_nest_within_their_parents():
    with tracing.Tracer() as t:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "algebra", "--seed", "2"])
    for name, _, start, end, parent, _ in t.spans:
        assert start <= end
        if parent >= 0:
            assert t.spans[parent][2] <= start and end <= t.spans[parent][3], name
    m = tracing.layer_metrics(t)
    assert m["algebra.certified_ratio"] == 1.0
    assert m["systems.create.total_s"] > 0.0


# ---------------------------------------------------------------------------------
# fixtures


def _tree(path: Path) -> dict:
    """File contents under ``path``, with ``path`` itself cut out of them."""
    return {str(p.relative_to(path)): p.read_bytes().replace(str(path).encode(), b"")
            for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", fixtures.WORKLOADS)
def test_fixtures_repeat_for_a_seed_and_differ_across_seeds(tmp_path, workload):
    a = fixtures.make_round(workload, 3, 0, str(tmp_path / "a"))
    b = fixtures.make_round(workload, 3, 0, str(tmp_path / "b"))
    c = fixtures.make_round(workload, 4, 0, str(tmp_path / "c"))
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    strip = [[x.replace(str(tmp_path / d), "") for x in op.argv]
             for d, ops in (("a", a), ("b", b)) for op in ops]
    assert strip[: len(a)] == strip[len(a):]
    assert fixtures.make_round(workload, 3, 1, str(tmp_path / "d")) and \
        _tree(tmp_path / "d") != _tree(tmp_path / "a")


# ---------------------------------------------------------------------------------
# the checker


def _run(op, out: Path):
    out.mkdir()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op.args(str(out)))
    check.check(op, str(out), code, buf.getvalue())  # the unperturbed output passes
    return code, buf.getvalue()


def _rejects(op, out: Path, stdout: str, code: int = 0):
    with pytest.raises(check.CheckFailed):
        check.check(op, str(out), code, stdout)


def _edit_json(path: Path, **changes):
    doc = json.loads(path.read_text())
    for key, fn in changes.items():
        doc[key] = fn(doc[key])
    path.write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    base = tmp_path_factory.mktemp("rounds")
    return {w: fixtures.make_round(w, 7, 0, str(base / w)) for w in
            ("certify-compose", "trajectories")}


def test_checker_rejects_perturbed_trajectory(rounds, tmp_path):
    op = next(o for o in rounds["trajectories"]
              if o.kind == "simulate" and o.meta["method"] == "series")
    code, stdout = _run(op, tmp_path / "o")
    path = tmp_path / "o" / "trajectory.csv"
    rows = list(csv.reader(path.read_text().splitlines()))
    rows[-1][1] = repr(float(rows[-1][1]) + 1e-6)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    _rejects(op, tmp_path / "o", stdout)
    _rejects(op, tmp_path / "o", stdout, code=1)


def test_checker_rejects_perturbed_certificate(rounds, tmp_path):
    op = next(o for o in rounds["certify-compose"] if o.kind == "certify")
    code, stdout = _run(op, tmp_path / "o")
    path = tmp_path / "o" / "cert.json"
    good = path.read_text()
    for change in ({"B_p": lambda v: v * (1 + 1e-9)},
                   {"cond_iii": lambda v: not v},
                   {"M_p_upper": lambda v: 0.5 * v},
                   {"M_p_lower": lambda v: 2.0 * v},
                   {"nilpotent": lambda v: not v}):
        path.write_text(good)
        _edit_json(path, **change)
        _rejects(op, tmp_path / "o", stdout)


def test_checker_rejects_an_upper_bound_without_slack(rounds, tmp_path):
    from reference import grid_lower

    op = next(o for o in rounds["certify-compose"] if o.kind == "certify"
              and grid_lower(o.meta["coeffs"], 2.5e-4) > grid_lower(o.meta["coeffs"], 1e-3))
    code, stdout = _run(op, tmp_path / "o")
    cert = json.loads((tmp_path / "o" / "cert.json").read_text())
    cert["M_p_upper"] = cert["M_p_lower"]  # the program's own grid maximum
    (tmp_path / "o" / "cert.json").write_text(json.dumps(cert))
    _rejects(op, tmp_path / "o", stdout)


def test_checker_rejects_perturbed_composition(rounds, tmp_path):
    for k, op in enumerate(o for o in rounds["certify-compose"] if o.kind == "compose"):
        if k > 1:
            break
        out = tmp_path / f"o{k}"
        code, stdout = _run(op, out)
        key = "W" if op.meta["parents"][0]["type"] == "sas" else "c"
        _edit_json(out / "composed.json", **{key: lambda v: (np.asarray(v) * 1.001).tolist()})
        _rejects(op, out, stdout)


def test_checker_rejects_perturbed_experiment_outputs(tmp_path):
    d = tmp_path / "in"
    d.mkdir()
    cfg = {"seed": 5, "n_train": 24, "n_test": 8, "window": 32, "restarts": 1,
           "tol": 1e-12, "target": {"kind": "tanh_of_linear", "weights": [0.5, -0.3]},
           "schedule": [{"family": f, "N": 3} for f in ("SAS_eps", "L_eps", "NS_eps")]}
    op = fixtures._approximate_op(str(d), 0, cfg)
    code, stdout = _run(op, tmp_path / "a")
    path = tmp_path / "a" / "results.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-5))
    path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
    _rejects(op, tmp_path / "a", stdout)

    rng = np.random.default_rng(0)
    tcfg = {"seed": 2, "ensemble": {"kind": "clipped_ar1", "phi": 0.7, "sigma": 0.5},
            "n_paths": 6, "window": 32, "tol": 1e-12,
            "target": fixtures.sas_doc(*fixtures._small_sas(rng)),
            "approx": fixtures.sas_doc(*fixtures._small_sas(rng))}
    op = fixtures._transfer_op(str(d), 0, tcfg)
    code, stdout = _run(op, tmp_path / "t")
    _edit_json(tmp_path / "t" / "report.json",
               stochastic_sup_err=lambda v: v + 1e-8, deterministic_sup_err=lambda v: v + 1e-8)
    _rejects(op, tmp_path / "t", stdout)

    verify = fixtures.Op("verify", ["verify"], {})
    _rejects(verify, tmp_path, "[pass] a\n[FAIL] b: x\n" + "[pass] c\n" * 4)
    check.check(verify, str(tmp_path), 0, "[pass] a\n" * 6)


# ---------------------------------------------------------------------------------
# speed normalization


def test_speed_factor_weighs_samples_by_the_time_they_stand_for():
    import speed

    ref, dt = speed.REF_S_PER_ITERATION, speed.INTERVAL_S
    meter = speed.Speedometer()
    # no ticks: the mean of the two boundaries, whatever the interval's length
    assert meter.factor(ref, 3 * ref, 0.001) == pytest.approx(2.0)
    assert meter.factor(ref, 3 * ref, 10.0) == pytest.approx(2.0)
    # three ticks at 2x: they stand for 3*dt, the boundaries at 1x for dt
    meter.ticks = [2 * ref] * 3
    assert meter.factor(ref, ref, 1.0) == pytest.approx((dt + 3 * dt * 2) / (4 * dt))


def test_speedometer_ticks_during_an_interval_and_restores_the_signal():
    import signal
    import time

    import speed

    previous = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as meter:
        end = time.perf_counter() + 6 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(meter.ticks) >= 2 and meter.interrupted > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
