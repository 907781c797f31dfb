"""Stochastic input ensembles: seeded path families, ess-sup norms, transfer checks.

An ensemble is a *finite* family of input paths drawn from a declared generator.
Probability enters only through the seeds: every quantity below is a deterministic
function of (descriptor, n_paths, window, seed), and the essential supremum over a
finite family is the plain maximum.  Deterministic sup-norm guarantees therefore
transfer verbatim — ``transfer_check`` exercises exactly that, byte for byte.
Filters take an ensemble as one batch (``evaluate_batch``), whose values do not
depend on the batch they share.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .sequences import BoundedSequence, WeightingSequence, _finite, weighted_norm
from .systems import _InputRejected, evaluate_batch

__all__ = [
    "InputEnsemble",
    "generate_ensemble",
    "linf_norm",
    "linf_weighted_norm",
    "pathwise_apply",
    "transfer_check",
    "TransferReport",
    "bounded_moment_check",
    "MomentReport",
    "ensemble_to_csv",
    "ensemble_from_csv",
]


@dataclass(frozen=True)
class InputEnsemble:
    """Finitely many bounded input paths plus the recipe that generated them."""

    paths: tuple
    descriptor: dict
    seed: int

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("ensemble needs at least one path")
        dims = {p.dim for p in self.paths}
        if len(dims) != 1:
            raise ValueError("all paths must share their dimension")

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def bound(self) -> float:
        return max(p.bound for p in self.paths)


def _path_rng(seed: int, index: int) -> np.random.Generator:
    # one independent stream per path; reordering paths never perturbs the others
    return np.random.default_rng((seed, index))


def _clipped_arma(u: np.ndarray, ar, ma, clip: float) -> np.ndarray:
    """``y_t = u_t + sum_k ar_k y_{t-k} + sum_k ma_k u_{t-k}``, summed in that order and
    clipped to [-clip, clip], from zero along every row of the (B, T) drive ``u``."""
    ar, ma = np.ravel(ar), np.ravel(ma)
    y = np.zeros_like(u)
    for t in range(u.shape[1]):
        acc = u[:, t].copy()
        for k, phi in enumerate(ar[:t], start=1):
            acc += phi * y[:, t - k]
        for k, theta in enumerate(ma[:t], start=1):
            acc += theta * u[:, t - k]
        y[:, t] = np.minimum(np.maximum(acc, -clip), clip)
    return y


def generate_ensemble(descriptor: dict, n_paths: int, window: int, seed: int) -> InputEnsemble:
    """Draw ``n_paths`` seeded paths of the given window length.

    Descriptor kinds:
      {"kind": "iid_uniform", "bound": M}
      {"kind": "clipped_ar1", "phi": ..., "sigma": ..., "bound": M}
      {"kind": "bounded_arma", "ar": [...], "ma": [...], "bound": M}

    Each path draws from its own seeded stream; clipped AR(1) is ARMA on
    ``sigma * u`` with ``ar = [phi]``.  Bad kinds and parameters raise ValueError.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    descriptor = dict(descriptor)  # a copy; a non-mapping raises here
    kind = descriptor.get("kind")
    M = float(descriptor.get("bound", 1.0))
    if not (math.isfinite(M) and M > 0.0):
        raise ValueError("bound must be finite and positive")
    if kind not in ("iid_uniform", "clipped_ar1", "bounded_arma"):
        raise ValueError(f"unknown ensemble kind {kind!r}")
    lo = -M if kind == "iid_uniform" else -1.0
    data = np.empty((n_paths, window))
    for i, row in enumerate(data):
        row[:] = _path_rng(seed, i).uniform(lo, -lo, size=window)
    if kind == "clipped_ar1":
        data *= _finite("sigma", float(descriptor["sigma"]))
        data = _clipped_arma(data, _finite("phi", float(descriptor["phi"])), [], M)
    elif kind == "bounded_arma":
        data = _clipped_arma(data, _finite("ar", descriptor.get("ar", [])),
                             _finite("ma", descriptor.get("ma", [])), M)
    paths = tuple(BoundedSequence(window=row[:, None], bound=M, extension="zero")
                  for row in data)
    return InputEnsemble(paths=paths, descriptor=descriptor, seed=seed)


# ---------------------------------------------------------------------------------
# norms: the two sup orders are computed independently and must agree exactly


def _swap_sup(rows: list) -> float:
    """Max of ragged non-negative value rows, computed in both reduction orders.

    Row-first and column-first sups over a finite table are the same number; both
    are computed independently here and must agree to the bit.  Rows are padded
    with 0.0, which can never raise a column maximum of non-negative values.
    """
    paths_first = max(max(row) for row in rows)
    width = max(len(row) for row in rows)
    time_first = 0.0
    for t in range(width):
        col = max(row[t] if t < len(row) else 0.0 for row in rows)
        time_first = max(time_first, col)
    if not paths_first == time_first:
        raise RuntimeError(f"sup orders disagree: {paths_first!r} vs {time_first!r}")
    return paths_first


def linf_norm(ensemble: InputEnsemble) -> float:
    """ess-sup over paths of ``sup_t ||z_{-t}||`` (Euclidean per entry, exact tail)."""
    rows = [np.linalg.norm(p.window[::-1], axis=1).tolist()
            + [float(np.linalg.norm(p.extension_value()))] for p in ensemble.paths]
    return _swap_sup(rows)


def linf_weighted_norm(ensemble: InputEnsemble, w: WeightingSequence) -> float:
    """ess-sup over paths of the weighted norm; both sup orders computed and compared.

    Each row reproduces :func:`affinerc.sequences.weighted_norm` term by term (head
    products plus the exact tail), so the returned value equals
    ``max_p weighted_norm(p, w)`` bitwise as well.
    """
    rows = []
    for p in ensemble.paths:
        T = p.length
        head = np.linalg.norm(p.window[::-1], axis=1) * w.weights(T)
        tail = float(np.linalg.norm(p.extension_value())) * w.weight(T)
        rows.append([float(v) for v in head] + [tail])
    value = _swap_sup(rows)
    direct = max(weighted_norm(p, w) for p in ensemble.paths)
    if not value == direct:
        raise RuntimeError(f"weighted sup {value!r} differs from weighted_norm {direct!r}")
    return value


def pathwise_apply(filt, ensemble: InputEnsemble, tol: float = 1e-9) -> np.ndarray:
    """Apply a filter to every path as one batch; a rejected path is named by index."""
    try:
        return evaluate_batch(filt, ensemble.paths, tol)
    except _InputRejected as exc:
        raise ValueError(f"path {exc.index} rejected: {exc.reason}") from exc


@dataclass(frozen=True)
class TransferReport:
    stochastic_sup_err: float
    deterministic_sup_err: float
    pipelines_agree: bool
    deterministic_bound: float | None
    deterministic_bound_holds: bool
    n_paths: int
    worst_path: int


def transfer_check(target, approximant, ensemble: InputEnsemble,
                   deterministic_bound: float | None = None,
                   tol: float = 1e-9) -> TransferReport:
    """Sup of |target - approximant| over the ensemble, cross-checked two ways.

    The stochastic sup (ess sup over paths, via :func:`pathwise_apply`) must equal —
    bitwise — the deterministic sup error over the identical paths treated as a plain
    input set (:func:`sup_error`); the two pipelines make separate batch calls.  A
    ``deterministic_bound`` certified for a superset input family may be supplied;
    the report states whether it holds here too.
    """
    from .approximation import sup_error

    y_t = pathwise_apply(target, ensemble, tol=tol)
    y_a = pathwise_apply(approximant, ensemble, tol=tol)
    errs = np.abs(y_t - y_a)
    worst = int(np.argmax(errs))
    sup_err = float(errs[worst])
    det = sup_error(approximant, target, list(ensemble.paths), tol=tol).value
    holds = True if deterministic_bound is None else sup_err <= deterministic_bound
    return TransferReport(
        stochastic_sup_err=sup_err,
        deterministic_sup_err=det,
        pipelines_agree=sup_err == det,
        deterministic_bound=None if deterministic_bound is None else float(deterministic_bound),
        deterministic_bound_holds=holds,
        n_paths=ensemble.n_paths,
        worst_path=worst,
    )


@dataclass(frozen=True)
class MomentReport:
    ok: bool
    k_max: int
    worst_ratio: float
    failures: tuple


def bounded_moment_check(ensemble: InputEnsemble, k_max: int) -> MomentReport:
    """Empirical moments E[|z_t|^k] <= M^k for k = 1..k_max, every time slot.

    A uniform bound M forces every moment under M^k; this check is the converse
    diagnostic — a failure certifies the declared bound is violated somewhere.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    M = ensemble.bound
    T = max(p.length for p in ensemble.paths)
    norms = np.stack([np.linalg.norm(p.values_newest_first(T), axis=1)
                      for p in ensemble.paths])
    failures = []
    worst = 0.0
    for k in range(1, k_max + 1):
        moments = np.mean(norms**k, axis=0)  # one value per time slot
        ratios = moments / M**k
        worst = max(worst, float(np.max(ratios)))
        bad = np.flatnonzero(ratios > 1.0 + 1e-12)
        failures.extend((k, int(t)) for t in bad)
    return MomentReport(
        ok=not failures, k_max=k_max, worst_ratio=worst, failures=tuple(failures)
    )


# ---------------------------------------------------------------------------------
# serialization: CSV of (path_id, t, z_1..z_n) plus a JSON descriptor line


def ensemble_to_csv(ensemble: InputEnsemble) -> str:
    dim = ensemble.paths[0].dim
    buf = io.StringIO()
    buf.write("# " + json.dumps({
        "descriptor": ensemble.descriptor, "seed": ensemble.seed,
        "n_paths": ensemble.n_paths,
    }, sort_keys=True) + "\n")
    buf.write("path_id,t," + ",".join(f"z_{j + 1}" for j in range(dim)) + "\n")
    for i, p in enumerate(ensemble.paths):
        T = p.length
        for row in range(T):
            t = -(T - 1) + row  # oldest first, times ... , -1, 0
            vals = ",".join(repr(float(v)) for v in p.window[row])
            buf.write(f"{i},{t},{vals}\n")
    return buf.getvalue()


def ensemble_from_csv(text: str) -> InputEnsemble:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing ensemble metadata line")
    meta = json.loads(lines[0][1:].strip())
    header = lines[1].split(",")
    dim = len(header) - 2
    by_path: dict = {}
    for ln in lines[2:]:
        parts = ln.split(",")
        pid = int(parts[0])
        by_path.setdefault(pid, []).append([float(x) for x in parts[2:]])
    M = float(meta["descriptor"].get("bound", 1.0))
    paths = [
        BoundedSequence(window=np.array(by_path[pid]).reshape(-1, dim), bound=M,
                        extension="zero")
        for pid in sorted(by_path)
    ]
    return InputEnsemble(paths=tuple(paths), descriptor=meta["descriptor"],
                         seed=int(meta["seed"]))
