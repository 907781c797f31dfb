"""Training pipeline, candidate families, sup-error reports, separation witnesses.

The approximation workflow is: sample a candidate reservoir from a declared family,
harvest its terminal states on a batch of training inputs, fit the readout by
(regularized) linear regression, then measure the empirical sup error against the
target on held-out inputs.  The empirical sup over a finite input set is a *lower*
bound of the true sup norm and is always reported together with the input count.

Families
--------
SAS_eps  random dense matrix-polynomial coefficients, rescaled so that the
         coefficient-norm sums hit 0.95 * (1 - eps) — comfortably certifiable.
NS_eps   nilpotent state-affine: p(z) = z * J with strictly upper-triangular J.
L_eps    dense linear reservoir with sigma_max(A) = 0.95 * (1 - eps).
DL_eps   diagonal A with entries uniform in (-(1-eps), 1-eps).
NL       the order-N delay-line shift matrix (nilpotent) with random c.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .ensembles import _clipped_arma
from .polynomials import (
    MatrixPolynomial,
    ScalarPolynomial,
    _monomial_products,
    spectral_norm,
)
from .sequences import BoundedSequence, _finite, _window_block
from .systems import (
    LinearSystem,
    SASSystem,
    _geometric_terms,
    _rowwise,
    _terminal_states,
    evaluate_batch,
)

__all__ = [
    "TargetFilter",
    "FamilySpec",
    "TrainedModel",
    "SupError",
    "WitnessResult",
    "IllConditionedError",
    "sample_candidate",
    "harvest_states",
    "train_readout",
    "sup_error",
    "separation_witness",
    "approximate",
    "ApproximationResult",
    "CurveRow",
    "generate_uniform_inputs",
    "monomial_exponents",
    "monomial_features",
    "target_linear_iir",
    "target_finite_volterra",
    "target_tanh_of_linear",
    "target_bounded_arma",
]


# ---------------------------------------------------------------------------------
# targets


@dataclass(frozen=True)
class TargetFilter:
    """Causal, time-invariant functional with a declared input bound.

    ``fn`` is a filter (a system or anything :func:`evaluate_batch` takes), evaluated
    in one batch; every built-in target is one.  A user's opaque one-input function
    ``BoundedSequence -> float`` is also accepted and called on each input in turn.
    """

    name: str
    bound: float
    fn: object

    def evaluate_batch(self, inputs, tol: float = 1e-9) -> np.ndarray:
        """A filter ``fn`` in one batch, evaluated at ``tol``; a one-input function on
        each input in turn."""
        if callable(self.fn):
            return np.array([float(self.fn(z)) for z in inputs])
        return evaluate_batch(self.fn, inputs, tol)

    def evaluate(self, z: BoundedSequence, tol: float = 1e-9) -> float:
        return float(self.evaluate_batch([z], tol)[0])


@dataclass(frozen=True)
class _BatchTarget:
    """A built-in target as a batch filter: ``values(inputs, tol)`` computes the (B,)
    values of an input list at once, each row by itself, so a value does not depend
    on the rest of its batch."""

    values: object

    def evaluate_batch(self, inputs, tol: float = 1e-9) -> np.ndarray:
        return self.values(list(inputs), tol)


def _newest_block(inputs, n: int) -> np.ndarray:
    """The (B, n) block of each scalar input's ``n`` newest entries, newest first,
    extended past its window by its own rule."""
    return np.ascontiguousarray(_window_block(inputs, n)[:, ::-1, 0])


def _row_dot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The (B,) dot products of the rows of two (B, n) blocks, summed over the
    columns left to right (``cumsum`` is sequential).  A per-row BLAS dot may round
    a row by its memory alignment, which moves with the batch."""
    return np.cumsum(U * V, axis=1)[:, -1]


def target_linear_iir(A, c, h: ScalarPolynomial, eps: float = 0.05,
                      bound: float = 1.0) -> TargetFilter:
    """The functional of a linear reservoir with polynomial readout: the system is the
    target's ``fn``, evaluated in one batch at the caller's ``tol``."""
    return TargetFilter(name="linear_iir", bound=bound,
                        fn=LinearSystem.create(A=A, c=c, h=h, eps=eps))


def target_finite_volterra(memory: int, k0: float = 0.0, k1=None, k2=None, k3=None,
                           bound: float = 1.0) -> TargetFilter:
    """Finite Volterra functional of order <= 3 on scalar inputs.

    H(z) = k0 + sum_i k1[i] z_{-i} + sum_{ij} k2[i,j] z_{-i} z_{-j}
         + sum_{ijl} k3[i,j,l] z_{-i} z_{-j} z_{-l},   all indices < memory.

    A batch filter: the ``memory`` newest entries of every input form one (B, memory)
    block, and each kernel is contracted with it row by row.
    """
    k0 = float(_finite("k0", k0))
    k1 = None if k1 is None else _finite("k1", k1)
    k2 = None if k2 is None else _finite("k2", k2)
    k3 = None if k3 is None else _finite("k3", k3)

    def values(inputs, tol):
        U = _newest_block(inputs, memory)
        out = np.full(len(inputs), k0)
        if k1 is not None:
            out += _rowwise(U, k1)
        if k2 is not None:
            out += _row_dot(_rowwise(U, k2), U)
        if k3 is not None:
            k3U = _rowwise(U, k3.reshape(memory, -1)).reshape(-1, memory, memory)
            out += _row_dot(np.matmul(k3U, U[:, :, None])[:, :, 0], U)
        return out

    return TargetFilter(name="finite_volterra", bound=bound, fn=_BatchTarget(values))


def target_tanh_of_linear(weights, bound: float = 1.0) -> TargetFilter:
    """H(z) = tanh(sum_i w_i z_{-i}) — a saturating fading-memory nonlinearity.

    A batch filter: one (B, len(w)) block of the newest entries, contracted row by row.
    """
    w = _finite("weights", weights)

    def values(inputs, tol):
        return np.tanh(_rowwise(_newest_block(inputs, w.size), w))

    return TargetFilter(name="tanh_of_linear", bound=bound, fn=_BatchTarget(values))


def _arma_prehistory(ar, ma, clip: float, tol: float) -> int:
    """Steps S such that the clipped ARMA run from zero over the S newest entries of
    an input is within ``tol`` of its value on the left-infinite input.

    Clipping is 1-Lipschitz and two runs on one drive lie in [-clip, clip], so their
    gap starts at most 2 clip, is free of MA terms after ``len(ma)`` steps, and then
    shrinks by rho = sum |ar_k| < 1 every ``len(ar)`` steps.  n such blocks with
    ``2 clip rho**n < tol`` (``_geometric_terms``) need ``len(ma) + n len(ar)`` steps.
    """
    rho = float(np.sum(np.abs(ar)))
    if not rho < 1.0:
        raise ValueError(f"ARMA target with sum |ar_k| = {rho:.6g} >= 1 has no certified "
                         "value on a non-zero extension")
    n = _geometric_terms(2.0 * clip, rho, tol)[0] if rho > 0.0 else 1
    return ma.size + max(1, n * ar.size)


def target_bounded_arma(ar, ma, clip: float, bound: float = 1.0) -> TargetFilter:
    """ARMA recursion driven by the input, hard-clipped to +-clip each step.

    A batch filter: one ``_clipped_arma`` call over a (B, n) block.  Each row holds its
    input's own drive, left-padded with zeros, on which the recursion stays at 0.0, so
    the padding changes no bit.  Under the ``zero`` extension the drive is the window,
    which is exact: the zero prehistory leaves the state at zero.  Any other extension
    is a constant prehistory, run for the certified number of steps that brings the
    value within ``tol`` of the left-infinite one; that needs sum |ar_k| < 1, and a
    ValueError says otherwise.
    """
    ar, ma = _finite("ar", ar).ravel(), _finite("ma", ma).ravel()
    clip = float(_finite("clip", clip))

    def values(inputs, tol):
        steps = 0
        if any(z.extension != "zero" for z in inputs):
            steps = _arma_prehistory(ar, ma, clip, tol)
        lengths = [z.length if z.extension == "zero" else max(z.length, steps)
                   for z in inputs]
        U = np.zeros((len(inputs), max(lengths)))
        for row, z, n in zip(U, inputs, lengths):
            row[row.size - n:] = z.values_newest_first(n)[::-1, 0]
        return _clipped_arma(U, ar, ma, clip)[:, -1]

    return TargetFilter(name="bounded_arma", bound=bound, fn=_BatchTarget(values))


# ---------------------------------------------------------------------------------
# candidate families


FAMILIES = ("SAS_eps", "NS_eps", "L_eps", "DL_eps", "NL")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    N: int
    deg_p: int = 1
    deg_q: int = 1
    eps: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if self.deg_p < 0 or self.deg_q < 0:
            raise ValueError("degrees must be >= 0")


def _scaled_poly(rng, rows: int, cols: int, deg: int, target: float) -> MatrixPolynomial:
    """Random coefficients rescaled so the coefficient-norm sum equals ``target``."""
    coeffs = [rng.standard_normal((rows, cols)) for _ in range(deg + 1)]
    total = sum(spectral_norm(c) for c in coeffs)
    if total > 0.0:
        coeffs = [c * (target / total) for c in coeffs]
    return MatrixPolynomial.from_coeffs(coeffs, rows=rows, cols=cols)


def _shift_matrix(n: int) -> np.ndarray:
    """Delay-line shift: ones on the subdiagonal, so states stack recent inputs."""
    A = np.zeros((n, n))
    for i in range(1, n):
        A[i, i - 1] = 1.0
    return A


def sample_candidate(spec: FamilySpec):
    """Draw one admissible system from the family, deterministically in the seed."""
    rng = np.random.default_rng(spec.seed)
    target = 0.95 * (1.0 - spec.eps)
    N = spec.N
    if spec.family in ("SAS_eps", "NS_eps"):  # draws p, then q, then W
        if spec.family == "SAS_eps":
            p = _scaled_poly(rng, N, N, spec.deg_p, target)
        else:
            J = np.triu(rng.standard_normal((N, N)), k=1)
            nrm = spectral_norm(J)
            if nrm > 0.0:
                J = J * (target / nrm)
            p = MatrixPolynomial.from_coeffs([np.zeros((N, N)), J], rows=N, cols=N)
        q = _scaled_poly(rng, N, 1, spec.deg_q, target)
        W = rng.standard_normal(N)
        return SASSystem.create(p=p, q=q, W=W, eps=spec.eps, grid_step=0.25)
    if spec.family == "L_eps":  # draws A, then c, then the readout
        A = rng.standard_normal((N, N))
        sig = spectral_norm(A)
        if sig > 0.0:
            A = A * (target / sig)
    elif spec.family == "DL_eps":
        A = np.diag(rng.uniform(-(1.0 - spec.eps), 1.0 - spec.eps, size=N))
    else:  # NL: exact delay line, nilpotent of index N
        A = _shift_matrix(N)
    c = rng.standard_normal((N, 1))
    h = ScalarPolynomial.linear_form(rng.standard_normal(N))
    return LinearSystem.create(A=A, c=c, h=h, eps=spec.eps)


# ---------------------------------------------------------------------------------
# feature harvesting and readout training


def monomial_exponents(arity: int, degree: int) -> list:
    """Exponent tuples of the monomials of degree 1..``degree`` in ``arity`` variables.

    The constant monomial is deliberately absent: a zero state must map to a zero
    feature row, so trained polynomial readouts carry no intercept.
    """
    out = []
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(arity), d):
            alpha = [0] * arity
            for i in combo:
                alpha[i] += 1
            out.append(tuple(alpha))
    return out


def monomial_features(states: np.ndarray, degree: int) -> np.ndarray:
    """Map raw states (B, N) to monomial features of degree 1..``degree``."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    alphas = monomial_exponents(states.shape[1], degree)
    return _monomial_products(states, alphas, np.ones(len(alphas)))


def harvest_states(system, inputs, tol: float = 1e-9, readout_degree: int | None = None):
    """Design matrix of terminal states, one row per input.

    The batch goes through the one batched kernel call of each system family, and a
    row is the series state of :func:`sas_state` / :func:`linear_state`, exact to
    ``tol`` whatever the window lengths.  With ``readout_degree`` set, rows are the
    monomial features of the terminal state up to that degree.
    """
    inputs = list(inputs)
    if not inputs:
        raise ValueError("need at least one input")
    if not isinstance(system, (SASSystem, LinearSystem)):
        raise TypeError(f"unsupported system type {type(system).__name__}")
    rows = _terminal_states(system, inputs, tol)
    if readout_degree is not None:
        rows = monomial_features(rows, readout_degree)
    return rows


class IllConditionedError(ValueError):
    """Unregularized regression rejected on an ill-conditioned design matrix."""


def train_readout(features, targets, lam_reg: float) -> np.ndarray:
    """Ridge weights (X^T X + lam I)^{-1} X^T y via a stable stacked least squares.

    ``lam_reg = 0`` is permitted only when the normal-equation condition number is
    below 1e12; otherwise an :class:`IllConditionedError` asks for regularization.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise ValueError("row count of features must match targets")
    if X.shape[0] < 1:
        raise ValueError("need at least one row")
    if lam_reg < 0.0:
        raise ValueError("lam_reg must be >= 0")
    if lam_reg == 0.0:
        svals = np.linalg.svd(X, compute_uv=False)
        smin = float(svals[-1])
        cond = math.inf if smin == 0.0 else (float(svals[0]) / smin) ** 2
        if cond >= 1e12:
            raise IllConditionedError(
                f"normal equations have condition estimate {cond:.3g} >= 1e12; "
                "pass lam_reg > 0"
            )
        w, *_ = np.linalg.lstsq(X, y, rcond=None)
        return w
    F = X.shape[1]
    Xa = np.vstack([X, math.sqrt(lam_reg) * np.eye(F)])
    ya = np.concatenate([y, np.zeros(F)])
    w, *_ = np.linalg.lstsq(Xa, ya, rcond=None)
    return w


@dataclass(frozen=True)
class TrainedModel:
    """Reservoir plus trained readout weights (over states or monomial features)."""

    system: object
    readout: np.ndarray
    readout_degree: int | None
    lam_reg: float
    train_error: float
    test_error: float
    tol: float = 1e-9

    def evaluate_batch(self, inputs, tol: float | None = None) -> np.ndarray:
        """The readout contracted with each harvested row, row by row; an empty batch
        gives an empty array."""
        inputs = list(inputs)
        if not inputs:
            return np.zeros(0)
        rows = harvest_states(self.system, inputs, tol=self.tol if tol is None else tol,
                              readout_degree=self.readout_degree)
        return _rowwise(rows, self.readout)

    def evaluate(self, z: BoundedSequence, tol: float | None = None) -> float:
        return float(self.evaluate_batch([z], tol)[0])


@dataclass(frozen=True)
class SupError:
    value: float
    n_inputs: int


def sup_error(model, target, test_inputs, tol: float = 1e-9) -> SupError:
    """Empirical sup |model - target| over the inputs (NaN if a difference is NaN);
    a lower bound of the true sup."""
    test_inputs = list(test_inputs)
    if not test_inputs:
        raise ValueError("need at least one test input")
    diffs = np.abs(evaluate_batch(model, test_inputs, tol)
                   - evaluate_batch(target, test_inputs, tol))
    return SupError(value=float(np.max(diffs)), n_inputs=len(test_inputs))


# ---------------------------------------------------------------------------------
# separation witnesses


@dataclass(frozen=True)
class WitnessResult:
    system: LinearSystem
    method: str
    t0: int
    i0: int
    b: float | None
    value_z1: float
    value_z2: float

    @property
    def separation(self) -> float:
        return abs(self.value_z1 - self.value_z2)


def _first_difference(z1: BoundedSequence, z2: BoundedSequence):
    depth = max(z1.length, z2.length) + 1  # one slot past both windows decides the tails
    hits = np.argwhere(z1.values_newest_first(depth) != z2.values_newest_first(depth))
    return (int(hits[0, 0]), int(hits[0, 1])) if hits.size else None


def separation_witness(
    z1: BoundedSequence,
    z2: BoundedSequence,
    method: str = "nilpotent_shift",
    eps: float = 0.05,
    grid_points: int = 4001,
    witness_tol: float = 1e-12,
) -> WitnessResult:
    """An explicit linear reservoir whose outputs provably differ on z1 and z2.

    ``nilpotent_shift`` builds the delay line of dimension t0+1 reading the first
    differing entry back out — the output difference is that entry difference,
    exactly.  ``diagonal_scan`` scans the one-dimensional diagonal family
    f(b) = sum_j b^j (z1 - z2)^{(i0)}_{-j} over a grid of b in (-1+eps, 1-eps) and
    returns the first b whose value clears ``witness_tol``.
    """
    if z1.dim != z2.dim:
        raise ValueError("sequences must share their dimension")
    hit = _first_difference(z1, z2)
    if hit is None:
        raise ValueError("sequences indistinguishable at this resolution")
    t0, i0 = hit

    if method == "nilpotent_shift":
        N = t0 + 1
        A = _shift_matrix(N)
        c = np.zeros((N, z1.dim))
        c[0, i0] = 1.0
        h = ScalarPolynomial.coordinate(N, N - 1)
        system = LinearSystem.create(A=A, c=c, h=h, eps=eps)
        # exact: the readout is z^{(i0)}_{-t0}
        v1 = float(z1.entry(t0)[i0])
        v2 = float(z2.entry(t0)[i0])
        return WitnessResult(
            system=system, method=method, t0=t0, i0=i0, b=None,
            value_z1=v1, value_z2=v2,
        )

    if method != "diagonal_scan":
        raise ValueError("method must be 'nilpotent_shift' or 'diagonal_scan'")

    depth = max(z1.length, z2.length)

    def output(u, u_ext, b):  # sum_j b^j u_j plus the constant tail, at b
        return np.polyval(u[::-1], b) + u_ext * b**depth / (1.0 - b)

    u1 = z1.values_newest_first(depth)[:, i0]
    u1_ext = float(z1.extension_value()[i0])
    s = u1 - z2.values_newest_first(depth)[:, i0]
    s_ext = float(u1_ext - z2.extension_value()[i0])
    grid = np.linspace(-1.0 + eps, 1.0 - eps, grid_points)
    hits = np.flatnonzero(np.abs(output(s, s_ext, grid)) > witness_tol)
    if not hits.size:
        raise ValueError("sequences indistinguishable at this resolution")
    # reported values use Python's scalar power, which may round unlike NumPy's vector one
    b = float(grid[hits[0]])
    val = float(output(s, s_ext, b))
    c = np.zeros((1, z1.dim))
    c[0, i0] = 1.0
    system = LinearSystem.create(
        A=np.array([[b]]), c=c, h=ScalarPolynomial.coordinate(1, 0),
        eps=min(eps, 0.5 * (1.0 - abs(b))),
    )
    # f(b) is the exact output difference of the diagonal system
    g1 = float(output(u1, u1_ext, b))
    return WitnessResult(
        system=system, method=method, t0=t0, i0=i0, b=b,
        value_z1=g1, value_z2=g1 - val,
    )


# ---------------------------------------------------------------------------------
# the approximation driver


def generate_uniform_inputs(
    n: int, window: int, bound: float = 1.0, seed: int = 0, extension: str = "zero"
):
    """n scalar input histories with entries i.i.d. uniform in [-bound, bound]."""
    rng = np.random.default_rng((seed, 0x75))
    return [
        BoundedSequence(window=rng.uniform(-bound, bound, size=(window, 1)),
                        bound=bound, extension=extension)
        for _ in range(n)
    ]


@dataclass(frozen=True)
class CurveRow:
    family: str
    N: int
    restart: int
    train_err: float
    test_err: float
    seed: int


@dataclass(frozen=True)
class ApproximationResult:
    best: TrainedModel
    best_row: CurveRow
    rows: tuple

    def curve(self) -> list:
        """Per-(family, N) minimum test error, in schedule order."""
        seen: dict = {}  # insertion-ordered: the schedule order
        for r in self.rows:
            key = (r.family, r.N)
            seen[key] = min(seen.get(key, r.test_err), r.test_err)
        return [(fam, N, err) for (fam, N), err in seen.items()]

    def to_csv(self) -> str:
        lines = ["family,N,restart,train_err,test_err,seed"]
        for r in self.rows:
            lines.append(
                f"{r.family},{r.N},{r.restart},{r.train_err!r},{r.test_err!r},{r.seed}"
            )
        return "\n".join(lines) + "\n"


def _fit_candidate(system, train_inputs, train_targets, test_inputs, test_targets,
                   lam_reg, tol, readout_degree):
    X = harvest_states(system, train_inputs, tol=tol, readout_degree=readout_degree)
    w = train_readout(X, train_targets, lam_reg)
    train_err = float(np.max(np.abs(X @ w - train_targets)))
    Xt = harvest_states(system, test_inputs, tol=tol, readout_degree=readout_degree)
    test_err = float(np.max(np.abs(Xt @ w - test_targets)))
    return TrainedModel(
        system=system, readout=w, readout_degree=readout_degree, lam_reg=lam_reg,
        train_error=train_err, test_error=test_err, tol=tol,
    )


def approximate(
    target: TargetFilter,
    schedule,
    n_train: int = 512,
    n_test: int = 128,
    window: int = 256,
    restarts: int = 8,
    lam_reg: float = 1e-6,
    tol: float = 1e-9,
    seed: int = 0,
    readout_degree: int | None = None,
    budget: int | None = None,
    planted=None,
) -> ApproximationResult:
    """Sample/train/evaluate across the schedule; return the best model and curve.

    ``planted`` systems are appended to the candidate pool (restart indices continue
    past ``restarts`` under family label "planted").  Deterministic given the seeds;
    ties in test error break toward the earlier candidate.  ``budget`` caps the total
    number of candidate evaluations.  Inputs are uniform in [-b, b] with
    b = min(1, ``target.bound``), and the targets are evaluated at ``tol``.
    """
    schedule = list(schedule)
    if not schedule:
        raise ValueError("schedule must be non-empty")
    bound = min(1.0, target.bound)
    train_inputs = generate_uniform_inputs(n_train, window, bound=bound, seed=seed * 2 + 1)
    test_inputs = generate_uniform_inputs(n_test, window, bound=bound, seed=seed * 2 + 2)
    train_targets = evaluate_batch(target, train_inputs, tol)
    test_targets = evaluate_batch(target, test_inputs, tol)

    rows: list = []
    best: TrainedModel | None = None
    best_row: CurveRow | None = None
    # (family, restart, seed, spec or planted system), in evaluation order
    pool = [(spec.family, r, spec.seed * 100003 + r, spec)
            for spec in schedule for r in range(restarts)]
    pool += [("planted", restarts + i, -1, system) for i, system in enumerate(planted or [])]
    for family, restart, cand_seed, source in itertools.islice(pool, budget):
        system = (sample_candidate(replace(source, seed=cand_seed))
                  if isinstance(source, FamilySpec) else source)
        model = _fit_candidate(system, train_inputs, train_targets, test_inputs,
                               test_targets, lam_reg, tol, readout_degree)
        row = CurveRow(family=family, N=system.N, restart=restart,
                       train_err=model.train_error, test_err=model.test_error, seed=cand_seed)
        rows.append(row)
        if best is None or model.test_error < best.test_error:
            best, best_row = model, row

    if best is None:
        raise ValueError("budget exhausted before any candidate was evaluated")
    return ApproximationResult(best=best, best_row=best_row, rows=tuple(rows))
