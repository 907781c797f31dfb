"""Command-line workbench.

Subcommands::

    affinerc simulate SYSTEM INPUT [--method recursion|series] [--washout K]
                      [--tol 1e-9] [-o trajectory.csv]
    affinerc certify FILE [--lam 0.5] [--grid-step 1e-3] [-o cert.json]
    affinerc compose SYS1 SYS2 --mode sum|product [--lam 1.0] [-o composed.json]
    affinerc approximate CONFIG [--out-dir DIR]
    affinerc transfer CONFIG [-o report.json]
    affinerc verify [SUITE ...] [--seed 0]

Exit codes: 0 success, 1 check failure, 2 usage or parse error.  Every command is
deterministic given its files, flags and seeds.  Set NO_COLOR to suppress the
pass/fail coloring of ``verify``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import __version__
from .algebra import CompositionError, linear_combine, sas_add, sas_multiply
from .approximation import (
    FamilySpec,
    TargetFilter,
    _scaled_poly,
    approximate,
    generate_uniform_inputs,
    separation_witness,
    target_bounded_arma,
    target_finite_volterra,
    target_linear_iir,
    target_tanh_of_linear,
    train_readout,
)
from .ensembles import (
    bounded_moment_check,
    generate_ensemble,
    linf_norm,
    linf_weighted_norm,
    pathwise_apply,
    transfer_check,
)
from .polynomials import (
    MatrixPolynomial,
    check_conditions,
    is_nilpotent,
    norm_certificate,
    poly_derivative,
    poly_eval,
    poly_from_json,
    poly_kron,
    poly_mul,
    scalar_poly_from_json,
)
from .sequences import (
    BoundedSequence,
    WeightingSequence,
    geometric_weighted_sum,
    time_shift,
    weighted_distance,
    weighted_norm,
)
from .systems import (
    LinearSystem,
    SASSystem,
    _linear_state_bound,
    default_washout,
    esp_margin,
    evaluate_batch,
    linear_run,
    sas_functional,
    sas_run_recursion,
    sas_run_series,
    state_bound,
    system_from_json,
    system_to_json,
    trajectory_to_csv,
)


class CliError(Exception):
    """File or parse problem — reported with exit code 2."""


def _load_text(path: str) -> str:
    if not os.path.exists(path):
        raise CliError(f"file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_json(path: str) -> dict:
    text = _load_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"cannot parse {path}: the top level is not a JSON object")
    return doc


def _load_system(source):
    """A system from an inline JSON object, or from the JSON file at the path ``source``
    (whose errors are reported with that path)."""
    if isinstance(source, dict):
        return system_from_json(source)
    if not isinstance(source, str):
        raise ValueError(f"a system is a file path or a JSON object, not {source!r}")
    doc = _load_json(source)
    try:
        return system_from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"cannot parse system file {source}: {exc}") from exc


@contextlib.contextmanager
def _config_errors(path: str):
    """Report a config's missing key or malformed value as a parse error (exit 2)."""
    try:
        yield
    except KeyError as exc:
        raise CliError(f"cannot parse config {path}: missing {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise CliError(f"cannot parse config {path}: {exc}") from exc


def _count(value) -> int:
    """A JSON whole number of at least 1 (``2`` or ``2.0``); anything else is a
    ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not a whole number")
    if value < 1:
        raise ValueError(f"{value!r} is below 1")
    return value


def _load_sequence(path: str) -> BoundedSequence:
    text = _load_text(path)
    try:
        from .sequences import sequence_from_csv

        return sequence_from_csv(text)
    except (ValueError, IndexError) as exc:
        raise CliError(f"cannot parse input file {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    system = _load_system(args.system)
    z = _load_sequence(args.input)
    if isinstance(system, SASSystem):
        if args.method == "recursion":
            washout = (
                args.washout if args.washout is not None
                else min(default_washout(system, args.tol), z.length)
            )
            traj = sas_run_recursion(system, z, washout=washout)
        else:
            traj = sas_run_series(system, z, tol=args.tol)
        bound = state_bound(system)
    else:
        traj = linear_run(system, z, tol=args.tol)
        bound = _linear_state_bound(system, z.bound)
    _write_text(args.output, trajectory_to_csv(traj))
    print(f"state bound:     {bound!r}")
    print(f"esp margin:      {esp_margin(system)!r}")
    print(f"truncation tail: {traj.truncation_tail_bound!r}")
    if traj.washout_len:
        print(f"washout rows:    {traj.washout_len}")
    print(f"wrote {args.output} ({traj.states.shape[0]} rows)")
    return 0


# ---------------------------------------------------------------------------------
# certify


def _polynomial_from_file(path: str) -> MatrixPolynomial:
    doc = _load_json(path)
    try:
        if "coeffs" in doc:
            return poly_from_json(doc)
        if doc.get("type") == "sas":
            return poly_from_json(doc["p"])
        if doc.get("type") == "linear":
            return MatrixPolynomial.constant(doc["A"])
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"cannot parse {path}: {exc}") from exc
    raise CliError(f"cannot parse {path}: neither a polynomial nor a system file")


def cmd_certify(args) -> int:
    p = _polynomial_from_file(args.file)
    report = check_conditions(p, args.lam, grid_step=args.grid_step)
    cert = report.certificate
    nil = is_nilpotent(p)
    doc = {
        "rows": p.rows,
        "cols": p.cols,
        "degree": p.degree,
        "B_p": cert.B_p,
        "M_p_lower": cert.M_p_lower,
        "M_p_upper": cert.M_p_upper,
        "M_pprime": cert.M_pprime,
        "grid_step": cert.grid_step,
        "evaluations": cert.evaluations,
        "bound_by": cert.bound_by,
        "rounding": cert.rounding,
        "lam": args.lam,
        "cond_i": report.cond_i,
        "cond_ii": report.cond_ii,
        "cond_iii": report.cond_iii,
        "nilpotent": nil.nilpotent,
        "nilpotency_index": nil.index,
    }
    print(f"B_p:        {cert.B_p!r}")
    print(f"M_p range:  [{cert.M_p_lower!r}, {cert.M_p_upper!r}]")
    print(f"cond (i):   {str(report.cond_i).lower()}  (lam = {args.lam})")
    print(f"cond (ii):  {str(report.cond_ii).lower()}")
    print(f"cond (iii): {str(report.cond_iii).lower()}")
    if nil.nilpotent:
        print(f"nilpotent:  true (index {nil.index})")
    else:
        print("nilpotent:  false")
    if args.output:
        _write_text(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------------
# compose


def cmd_compose(args) -> int:
    s1 = _load_system(args.system1)
    s2 = _load_system(args.system2)
    if isinstance(s1, SASSystem) and isinstance(s2, SASSystem):
        if args.mode == "sum":
            comp = sas_add(s1, s2, args.lam, parents=(args.system1, args.system2))
        else:
            comp = sas_multiply(s1, s2, parents=(args.system1, args.system2))
    elif isinstance(s1, LinearSystem) and isinstance(s2, LinearSystem):
        comp = linear_combine(
            s1, s2, mode=args.mode, lam=args.lam,
            parents=(args.system1, args.system2),
        )
    else:
        print("error: cannot compose a state-affine with a linear system",
              file=sys.stderr)
        return 1
    doc = system_to_json(comp.result, parents=list(comp.parents))
    doc["composition"] = {
        "kind": comp.kind,
        "lam": comp.lam,
        "theoretical_margin": comp.theoretical_margin,
    }
    _write_text(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"kind:            {comp.kind}")
    print(f"state dimension: {comp.result.N}")
    print(f"margin eps:      {comp.result.eps!r} (theoretical {comp.theoretical_margin!r})")
    print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------------
# approximate


def _target_from_config(doc: dict):
    kind = doc["kind"]
    if kind == "finite_volterra":
        return target_finite_volterra(
            memory=int(doc["memory"]),
            k0=float(doc.get("k0", 0.0)),
            k1=doc.get("k1"),
            k2=doc.get("k2"),
            k3=doc.get("k3"),
            bound=float(doc.get("bound", 1.0)),
        )
    if kind == "tanh_of_linear":
        return target_tanh_of_linear(doc["weights"], bound=float(doc.get("bound", 1.0)))
    if kind == "linear_iir":
        return target_linear_iir(
            A=np.asarray(doc["A"], dtype=float),
            c=np.asarray(doc["c"], dtype=float),
            h=scalar_poly_from_json(doc["h"]),
            eps=float(doc.get("eps", 0.05)),
            bound=float(doc.get("bound", 1.0)),
        )
    if kind == "bounded_arma":
        return target_bounded_arma(
            ar=doc.get("ar", []), ma=doc.get("ma", []),
            clip=float(doc["clip"]), bound=float(doc.get("bound", 1.0)),
        )
    if kind == "system":
        return TargetFilter(name="system", bound=float(doc.get("bound", 1.0)),
                            fn=_load_system(doc["system"] if "system" in doc else doc["path"]))
    raise CliError(f"unknown target kind {kind!r}")


def cmd_approximate(args) -> int:
    cfg = _load_json(args.config)
    with _config_errors(args.config):
        seed = int(cfg.get("seed", 0))
        target = _target_from_config(cfg["target"])
        schedule = []
        for i, row in enumerate(cfg["schedule"]):
            schedule.append(FamilySpec(
                family=row["family"],
                N=int(row["N"]),
                deg_p=int(row.get("deg_p", 1)),
                deg_q=int(row.get("deg_q", 1)),
                eps=float(row.get("eps", 0.1)),
                seed=int(row.get("seed", seed * 1009 + i)),
            ))
        planted = [_load_system(doc) for doc in cfg.get("planted", [])]
        sizes = {key: _count(cfg.get(key, default)) for key, default in
                 (("n_train", 512), ("n_test", 128), ("window", 256), ("restarts", 8))}
        optional = {key: None if cfg.get(key) is None else _count(cfg[key])
                    for key in ("readout_degree", "budget")}
        lam_reg = float(cfg.get("lam_reg", 1e-6))
        tol = float(cfg.get("tol", 1e-9))

    result = approximate(target, schedule, **sizes, **optional, lam_reg=lam_reg, tol=tol,
                         seed=seed, planted=planted or None)
    os.makedirs(args.out_dir, exist_ok=True)
    results_path = os.path.join(args.out_dir, "results.csv")
    _write_text(results_path, result.to_csv())
    best_path = os.path.join(args.out_dir, "best_model.json")
    best = result.best
    best_doc = {
        "system": system_to_json(best.system),
        "readout": [float(v) for v in best.readout],
        "readout_degree": best.readout_degree,
        "lam_reg": best.lam_reg,
        "train_error": best.train_error,
        "test_error": best.test_error,
        "family": result.best_row.family,
        "N": result.best_row.N,
        "restart": result.best_row.restart,
        "seed": result.best_row.seed,
    }
    _write_text(best_path, json.dumps(best_doc, indent=2, sort_keys=True) + "\n")
    print("family,N,best_test_err")
    for fam, N, err in result.curve():
        print(f"{fam},{N},{err!r}")
    print(f"best: family={result.best_row.family} N={result.best_row.N} "
          f"test_err={best.test_error!r}")
    print(f"wrote {results_path}")
    print(f"wrote {best_path}")
    return 0


# ---------------------------------------------------------------------------------
# transfer


def cmd_transfer(args) -> int:
    cfg = _load_json(args.config)
    with _config_errors(args.config):
        seed = int(cfg.get("seed", 0))
        desc = cfg["ensemble"]
        n_paths = int(cfg.get("n_paths", 64))
        window = int(cfg.get("window", 128))
        target, approx = (
            _target_from_config(doc) if isinstance(doc, dict) and "kind" in doc
            else _load_system(doc) for doc in (cfg["target"], cfg["approx"]))
        det_bound = cfg.get("deterministic_bound")
        det_bound = None if det_bound is None else float(det_bound)
        tol = float(cfg.get("tol", 1e-9))
        ensemble = generate_ensemble(desc, n_paths=n_paths, window=window, seed=seed)
    report = transfer_check(
        target, approx, ensemble, deterministic_bound=det_bound, tol=tol,
    )
    doc = {
        "stochastic_sup_err": report.stochastic_sup_err,
        "deterministic_sup_err": report.deterministic_sup_err,
        "pipelines_agree": report.pipelines_agree,
        "deterministic_bound": report.deterministic_bound,
        "deterministic_bound_holds": report.deterministic_bound_holds,
        "n_paths": report.n_paths,
        "worst_path": report.worst_path,
    }
    print(f"stochastic sup error:    {report.stochastic_sup_err!r}")
    print(f"deterministic sup error: {report.deterministic_sup_err!r}")
    print(f"pipelines agree:         {str(report.pipelines_agree).lower()}")
    if report.deterministic_bound is not None:
        print(f"deterministic bound:     {report.deterministic_bound!r} "
              f"({'holds' if report.deterministic_bound_holds else 'VIOLATED'})")
    print(f"paths: {report.n_paths}, worst path index: {report.worst_path}")
    if args.output:
        _write_text(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0 if (report.pipelines_agree and report.deterministic_bound_holds) else 1


# ---------------------------------------------------------------------------------
# verify: a fast, seeded spot-check of every module's invariants


def _random_bounded(rng, window: int, dim: int = 1, bound: float = 1.0,
                    extension: str = "zero") -> BoundedSequence:
    data = rng.uniform(-bound, bound, size=(window, dim))
    return BoundedSequence(window=data, bound=bound, extension=extension)


def _random_sas(rng, N: int, deg: int = 2, eps: float = 0.1,
                scale: float = 0.8) -> SASSystem:
    target = scale * (1.0 - eps)
    return SASSystem.create(  # arguments draw from rng in order: p, q, W
        p=_scaled_poly(rng, N, N, deg, target),
        q=_scaled_poly(rng, N, 1, deg, target),
        W=rng.standard_normal(N),
        eps=eps,
        grid_step=0.05,
    )


def _check_sequences(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        z = _random_bounded(rng, int(rng.integers(4, 40)),
                            extension=("zero", "repeat_last_oldest")[int(rng.integers(2))])
        lam = float(rng.uniform(0.2, 0.95))
        rho = float(rng.uniform(0.1, 0.9))
        w = WeightingSequence.exponential(lam)
        lhs = geometric_weighted_sum(z, lam)
        if lhs > weighted_norm(z, w.power(1.0 - rho)) / (1.0 - lam**rho) + 1e-10:
            return False, "tail inequality (1) violated"
        if lhs > weighted_norm(z, w.power(rho)) / (1.0 - lam ** (1.0 - rho)) + 1e-10:
            return False, "tail inequality (2) violated"
        s = _random_bounded(rng, z.length)
        a = float(rng.uniform(0.1, 0.9))
        w_small = WeightingSequence.explicit(
            [a * lam**t for t in range(z.length + 1)], lam
        )
        if weighted_distance(z, s, w_small) > a * weighted_distance(z, s, w) + 1e-12:
            return False, "monotone domination violated"
        t1, t2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        twice = time_shift(time_shift(z, t1), t2)
        if not np.array_equal(twice.window, time_shift(z, t1 + t2).window):
            return False, "time-shift composition violated"
    return True, "25 random triples"


def _check_polynomials(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        deg = int(rng.integers(0, 4))
        p = MatrixPolynomial.from_coeffs(
            [rng.standard_normal((m, m)) for _ in range(deg + 1)], rows=m, cols=m
        )
        rep = check_conditions(p, 0.45, grid_step=0.02)
        cert = rep.certificate
        if not (cert.M_p_lower <= cert.M_p_upper <= cert.B_p + 1e-9):
            return False, "certificate ordering violated"
        # an upper bound that only repeated its own grid maximum would fail here
        if cert.M_p_upper < norm_certificate(p, grid_step=0.005).M_p_lower * (1 - 1e-12):
            return False, "upper bound below a finer grid's lower bound"
        if rep.cond_i and not rep.cond_ii:
            return False, "condition chain i => ii violated"
        if rep.cond_ii and not rep.cond_iii:
            return False, "condition chain ii => iii violated"
        q = MatrixPolynomial.from_coeffs(
            [rng.standard_normal((m, m)) for _ in range(deg + 1)], rows=m, cols=m
        )
        for z in rng.uniform(-1, 1, size=4):
            z = float(z)
            if not np.allclose(poly_eval(poly_mul(p, q), z),
                               poly_eval(p, z) @ poly_eval(q, z), atol=1e-10):
                return False, "product evaluation violated"
            lhs = poly_eval(poly_kron(p, q), z)
            if not np.allclose(lhs, np.kron(poly_eval(p, z), poly_eval(q, z)),
                               atol=1e-10):
                return False, "kron evaluation violated"
        d = poly_derivative(p)
        h = 1e-6
        for z in (-0.5, 0.3):
            fd = (poly_eval(p, z + h) - poly_eval(p, z - h)) / (2 * h)
            if not np.allclose(poly_eval(d, z), fd, atol=1e-5):
                return False, "derivative violated"
    return True, "25 random polynomials"


def _check_systems(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        s = _random_sas(rng, int(rng.integers(2, 5)))
        z = _random_bounded(rng, 256)
        tol = 1e-9
        washout = min(default_washout(s, tol), z.length - 1)
        rec = sas_run_recursion(s, z, washout=washout)
        ser = sas_run_series(s, z, tol=tol)
        allowed = tol + rec.truncation_tail_bound
        post = slice(rec.washout_len, None)
        if np.max(np.linalg.norm(rec.states[post] - ser.states[post], axis=1)) > allowed:
            return False, "series/recursion disagreement"
        sb = state_bound(s)
        if np.max(np.linalg.norm(ser.states, axis=1)) > sb + 1e-9:
            return False, "state bound violated"
        shifted = time_shift(z, 1)
        hv = sas_functional(s, shifted, tol=tol)
        if abs(hv - float(ser.outputs[-2])) > 2 * tol * (1 + np.linalg.norm(s.W)):
            return False, "time invariance violated"
    return True, "5 random systems, window 256"


def _check_algebra(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        s1 = _random_sas(rng, int(rng.integers(1, 4)), scale=0.45)
        s2 = _random_sas(rng, int(rng.integers(1, 4)), scale=0.45)
        lam = float(rng.uniform(-2, 2))
        added = sas_add(s1, s2, lam, grid_step=0.05)
        if added.result.N != s1.N + s2.N:
            return False, "sum dimension law violated"
        prod = sas_multiply(s1, s2, grid_step=0.05)
        if prod.result.N != s1.N + s2.N + s1.N * s2.N:
            return False, "product dimension law violated"
        zs = [_random_bounded(rng, 48) for _ in range(3)]
        h1, h2 = evaluate_batch(s1, zs), evaluate_batch(s2, zs)
        if np.max(np.abs(evaluate_batch(added.result, zs) - (h1 + lam * h2))) > 1e-7:
            return False, "sum homomorphism violated"
        if np.max(np.abs(evaluate_batch(prod.result, zs) - h1 * h2)) > 1e-7:
            return False, "product homomorphism violated"
    return True, "5 random pairs, 3 probes each"


def _check_approximation(seed: int):
    rng = np.random.default_rng(seed)
    planted = _random_sas(rng, 4)
    inputs = generate_uniform_inputs(48, 48, seed=seed)
    from .approximation import harvest_states

    X = harvest_states(planted, inputs, tol=1e-12)
    y = X @ planted.W
    w = train_readout(X, y, 0.0)
    if np.max(np.abs(X @ w - y)) > 1e-8:
        return False, "planted readout recovery failed"
    for _ in range(10):
        a = _random_bounded(rng, int(rng.integers(2, 12)))
        b = _random_bounded(rng, int(rng.integers(2, 12)))
        if a.length == b.length and np.array_equal(a.window, b.window):
            continue
        for method in ("nilpotent_shift", "diagonal_scan"):
            res = separation_witness(a, b, method=method)
            if not res.separation > 1e-12:
                return False, f"{method} witness failed to separate"
    return True, "planted recovery + 10 witness pairs"


def _check_ensembles(seed: int):
    rng = np.random.default_rng(seed)
    desc = {"kind": "clipped_ar1", "phi": 0.7, "sigma": 0.5, "bound": 1.0}
    e = generate_ensemble(desc, n_paths=16, window=32, seed=seed)
    e2 = generate_ensemble(desc, n_paths=16, window=32, seed=seed)
    for p1, p2 in zip(e.paths, e2.paths):
        if not np.array_equal(p1.window, p2.window):
            return False, "reproducibility violated"
    linf_norm(e)  # asserts the swap-sups identity internally
    linf_weighted_norm(e, WeightingSequence.exponential(0.8))
    if not bounded_moment_check(e, 4).ok:
        return False, "moment check failed"
    s = _random_sas(rng, 3)
    outs = pathwise_apply(s, e)
    for i in (0, e.n_paths - 1):
        if outs[i] != sas_functional(s, e.paths[i]):
            return False, "pathwise application mismatch"
    rep = transfer_check(s, s, e)
    if rep.stochastic_sup_err != 0.0 or not rep.pipelines_agree:
        return False, "self-transfer not exact"
    return True, "16-path ensemble"


_SUITES = {
    "sequences": _check_sequences,
    "polynomials": _check_polynomials,
    "systems": _check_systems,
    "algebra": _check_algebra,
    "approximation": _check_approximation,
    "ensembles": _check_ensembles,
}


def cmd_verify(args) -> int:
    names = args.suites or list(_SUITES)
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise CliError(
            f"unknown suite(s): {', '.join(unknown)} "
            f"(available: {', '.join(_SUITES)})"
        )
    use_color = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
    all_ok = True
    for name in names:
        ok, detail = _SUITES[name](args.seed)
        all_ok = all_ok and ok
        tag = "pass" if ok else "FAIL"
        if use_color:
            tag = f"\033[32m{tag}\033[0m" if ok else f"\033[31m{tag}\033[0m"
        print(f"[{tag}] {name}: {detail}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="affinerc",
        description="workbench for state-affine and linear reservoir computers",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a system on an input history")
    sim.add_argument("system", help="system JSON file")
    sim.add_argument("input", help="input sequence CSV file")
    sim.add_argument("--method", choices=("recursion", "series"), default="recursion")
    sim.add_argument("--washout", type=int, default=None,
                     help="washout rows for the recursion (default: derived from tol)")
    sim.add_argument("--tol", type=float, default=1e-9)
    sim.add_argument("-o", "--output", default="trajectory.csv")
    sim.set_defaults(func=cmd_simulate)

    cert = sub.add_parser("certify", help="norm certificate and contraction conditions")
    cert.add_argument("file", help="polynomial or system JSON file")
    cert.add_argument("--lam", type=float, default=0.5)
    cert.add_argument("--grid-step", type=float, default=1e-3)
    cert.add_argument("-o", "--output", default=None)
    cert.set_defaults(func=cmd_certify)

    comp = sub.add_parser("compose", help="sum or product of two systems")
    comp.add_argument("system1")
    comp.add_argument("system2")
    comp.add_argument("--mode", choices=("sum", "product"), required=True)
    comp.add_argument("--lam", type=float, default=1.0)
    comp.add_argument("-o", "--output", default="composed.json")
    comp.set_defaults(func=cmd_compose)

    appr = sub.add_parser("approximate", help="train readouts across a family schedule")
    appr.add_argument("config", help="experiment config JSON")
    appr.add_argument("--out-dir", default=".")
    appr.set_defaults(func=cmd_approximate)

    tr = sub.add_parser("transfer", help="stochastic-ensemble transfer check")
    tr.add_argument("config", help="experiment config JSON")
    tr.add_argument("-o", "--output", default=None)
    tr.set_defaults(func=cmd_transfer)

    ver = sub.add_parser("verify", help="run seeded invariant spot-checks")
    ver.add_argument("suites", nargs="*",
                     help=f"subset of: {', '.join(_SUITES)} (default: all)")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
