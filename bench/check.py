"""Per-operation output checks against the NumPy references.

``check(op, out_dir, code, stdout)`` raises :class:`CheckFailed` naming the first
violated property.  Tolerances are the ones the library documents (series and
washout tails, criterion 3's homomorphism allowance), never bit equality, so a
correct optimisation passes.
"""

from __future__ import annotations

import csv
import json
import os
import re

import numpy as np

import reference as ref


class CheckFailed(Exception):
    """An operation's output violates its reference property."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _printed(stdout: str, label: str) -> str | None:
    m = re.search(rf"^{label}:\s*(\S+)", stdout, re.M)
    return None if m is None else m.group(1)


# ---------------------------------------------------------------------------------


def check_simulate(meta, out, stdout):
    """Rows past the washout lie within 2 tol + the reported tail of the exact
    filter value; outputs are the readout of the reported states."""
    rows = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",", skiprows=1,
                      ndmin=2)
    z = meta["z"]
    T = z.size
    _require(rows.shape[0] == T, f"{rows.shape[0]} trajectory rows, expected {T}")
    _require(np.array_equal(rows[:, 0], np.arange(-(T - 1), 1)), "time column is wrong")
    states, y = rows[:, 1:-1], rows[:, -1]
    doc = meta["system"]
    tail = float(_printed(stdout, "truncation tail"))
    washout = int(_printed(stdout, "washout rows") or 0)
    # the series and the linear sum stop once the tail is below tol; the recursion's
    # washout does too, unless the default washout was cut at the window length
    _require(0.0 <= tail < meta["tol"] or (meta["method"] == "recursion"
                                           and doc["type"] == "sas" and washout == T),
             f"truncation tail {tail!r} is not below tol = {meta['tol']!r}")
    allow = 2 * meta["tol"] + tail
    if doc["type"] == "sas":
        P, Q = ref.poly_coeffs(doc["p"]), ref.poly_coeffs(doc["q"])
        exact = ref.sas_states(P, Q, z[None, :])[0]
        W = np.asarray(doc["W"])
        _require(np.allclose(y, states @ W, rtol=1e-12, atol=1e-12),
                 "outputs are not W^T x")
    else:
        A, c = np.asarray(doc["A"]), np.asarray(doc["c"])
        exact = ref.linear_states(A, c, z[None, :])[0]
        readout = ref.scalar_poly(ref.h_terms(doc["h"]), states)
        _require(np.allclose(y, readout, rtol=1e-12, atol=1e-12), "outputs are not h(x)")
    gap = np.linalg.norm(states[washout:] - exact[washout:], axis=1)
    _require(gap.size == 0 or float(np.max(gap)) <= allow * (1 + 1e-9) + 1e-13,
             f"state gap {float(np.max(gap)):.3e} exceeds 2 tol + tail = {allow:.3e}")


def check_certify(meta, out, stdout):
    """Sound bounds and the seed's verdicts.  The reference lower bound is taken on
    a grid four times finer than the program's, so an upper bound that only
    repeats the program's own grid maximum fails."""
    cert = _load_json(os.path.join(out, "cert.json"))
    coeffs = meta["coeffs"]
    r = ref.certificate(coeffs, meta["grid_step"])
    fine_lower = ref.grid_lower(coeffs, meta["grid_step"] / 4)
    n = coeffs[0].shape[0]
    _require(cert["M_p_upper"] >= fine_lower * (1 - 1e-12),
             f"M_p_upper {cert['M_p_upper']!r} below the reference lower {fine_lower!r}")
    _require(cert["M_p_lower"] <= r["M_p_upper"] * (1 + 1e-12),
             f"M_p_lower {cert['M_p_lower']!r} above the reference upper {r['M_p_upper']!r}")
    _require(cert["M_p_lower"] <= cert["M_p_upper"], "M_p_lower > M_p_upper")
    _require(abs(cert["B_p"] - r["B_p"]) <= 1e-12 * r["B_p"],
             f"B_p {cert['B_p']!r} differs from {r['B_p']!r}")
    lam = meta["lam"]
    flags = {
        "cond_i": all(ref.spec_norm(c) < lam for c in coeffs) and lam * len(coeffs) < 1.0,
        "cond_ii": r["B_p"] < 1.0,
        "cond_iii": r["M_p_upper"] < 1.0,
    }
    for key, want in flags.items():
        _require(cert[key] == want, f"{key} is {cert[key]}, expected {want}")
    nil, index = ref.nilpotency(coeffs, n)
    _require(cert["nilpotent"] == nil and cert["nilpotency_index"] == index,
             "nilpotency result differs")
    _require((cert["rows"], cert["cols"], cert["degree"]) == (n, n, len(coeffs) - 1),
             "shape or degree differs")


def check_compose(meta, out, stdout):
    """Dimension law, and the homomorphism on probe inputs within criterion 3's
    allowance (criterion 4's 1e-8 for linear systems)."""
    comp = _load_json(os.path.join(out, "composed.json"))
    d1, d2 = meta["parents"]
    mode, lam, probes = meta["mode"], meta["lam"], meta["probes"]
    h1, h2 = ref.filter_values(d1, probes), ref.filter_values(d2, probes)
    hc = ref.filter_values(comp, probes)
    want = h1 + lam * h2 if mode == "sum" else h1 * h2
    if d1["type"] == "sas":
        N1, N2 = len(d1["W"]), len(d2["W"])
        N = N1 + N2 + (N1 * N2 if mode == "product" else 0)
        got = len(comp["W"])
        w1, w2, wc = (np.linalg.norm(d["W"]) for d in (d1, d2, comp))
        tol = 1e-10
        if mode == "sum":
            allow = 1e-8 + (wc + w1 + abs(lam) * w2) * tol
        else:
            allow = 1e-8 + (wc + w1 * (np.abs(h2) + 1) + w2 * (np.abs(h1) + 1)) * tol
        _require(0.0 < comp["eps"] < 1.0, f"composed margin {comp['eps']!r} out of (0, 1)")
        kind = f"sas_{mode}"
    else:
        N, got = len(d1["A"]) + len(d2["A"]), len(comp["A"])
        allow = 1e-8
        kind = f"linear_{mode}"
    _require(got == N, f"composed dimension {got}, expected {N}")
    _require(comp["composition"]["kind"] == kind, f"kind {comp['composition']['kind']!r}")
    gap = np.abs(hc - want)
    _require(np.all(gap <= allow), f"homomorphism gap {float(np.max(gap)):.3e}")


def check_approximate(meta, out, stdout):
    """results.csv keys equal the reference's, errors within 1e-6 relative."""
    with open(os.path.join(out, "results.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    want = ref.approximate_rows(meta["config"])
    _require(len(rows) == len(want), f"{len(rows)} result rows, expected {len(want)}")
    for got, (fam, N, r, seed, tr, te) in zip(rows, want):
        key = (got["family"], int(got["N"]), int(got["restart"]), int(got["seed"]))
        _require(key == (fam, N, r, seed), f"result key {key} != {(fam, N, r, seed)}")
        for name, value in (("train_err", tr), ("test_err", te)):
            _require(abs(float(got[name]) - value) <= 1e-6 * abs(value) + 1e-12,
                     f"{key} {name} {got[name]} differs from reference {value!r}")
    best = _load_json(os.path.join(out, "best_model.json"))
    _require(best["test_error"] == min(float(g["test_err"]) for g in rows),
             "best_model.json is not the minimum test error")


def check_transfer(meta, out, stdout):
    """Both pipelines agree and match the reference sup error within 1e-9."""
    rep = _load_json(os.path.join(out, "report.json"))
    cfg = meta["config"]
    Z = ref.ensemble(cfg["ensemble"], int(cfg["n_paths"]), int(cfg["window"]),
                     int(cfg["seed"]))
    docs = []
    for key in ("target", "approx"):
        doc = cfg[key]
        docs.append(_load_json(doc) if isinstance(doc, str) else doc)
    sup = float(np.max(np.abs(ref.filter_values(docs[0], Z) - ref.filter_values(docs[1], Z))))
    _require(rep["pipelines_agree"] is True, "pipelines disagree")
    _require(rep["n_paths"] == cfg["n_paths"], "path count differs")
    for key in ("stochastic_sup_err", "deterministic_sup_err"):
        _require(abs(rep[key] - sup) <= 1e-9, f"{key} {rep[key]!r} vs reference {sup!r}")


def check_verify(meta, out, stdout):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    _require(len(lines) == 6 and all(ln.startswith("[pass]") for ln in lines),
             "verify did not pass all six suites")


CHECKS = {
    "simulate": check_simulate,
    "certify": check_certify,
    "compose": check_compose,
    "approximate": check_approximate,
    "transfer": check_transfer,
    "verify": check_verify,
}


def check(op, out: str, code: int, stdout: str) -> None:
    """Raise CheckFailed unless ``op`` exited 0 and its outputs match the reference."""
    _require(code == 0, f"exit code {code}")
    try:
        CHECKS[op.kind](op.meta, out, stdout)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailed(f"unreadable output: {exc!r}") from exc
