"""State-affine and linear reservoir systems with certified convergence data.

Two system families are implemented:

* ``SASSystem`` — the non-homogeneous state-affine system
  ``x_t = p(z_t) x_{t-1} + q(z_t)``, ``y_t = W^T x_t`` with matrix-polynomial
  coefficients and scalar inputs confined to ``I = [-1, 1]``.  Construction demands a
  certified contraction margin: the norm certificate of ``p`` must show
  ``M_p_upper < 1 - eps``, which yields the echo state property, a hard state bound
  ``||x_t|| <= K2 / (1 - K1)`` and geometric forgetting of initial conditions.

* ``LinearSystem`` — ``x_t = A x_{t-1} + c z_t`` with a polynomial readout
  ``y_t = h(x_t)`` and vector inputs.  Construction requires ``sigma_max(A) < 1 - eps``
  unless ``A`` is nilpotent, in which case the system has exact finite memory and the
  spectral constraint is waived.

Every evaluation path runs on one kernel per family.  ``_sas_scan`` steps
``X <- p(z) X + q(z)`` along a (B, T) block of scalar inputs, one gemm per step and
block of ``SCAN_BLOCK`` inputs against p's and q's stacked coefficients; ``_linear_sum``
contracts the stack ``[A^J c, ..., c]`` against (B, J+1, d) input windows.  The
contraction series ``x_t = sum_{j>=0} (prod_{k=0}^{j-1} p(z_{t-k})) q(z_{t-j})``
truncated at J is exactly the recursion run from the zero state over the J+1 newest
inputs, so the series at every slot, the state at t = 0 and the batched terminal
states are all that scan over ``sliding_window_view`` windows, older entries coming
from the sequence's extension rule (``_window_block``, one block per batch).  J is
the smallest count whose certified geometric tail is below ``tol``
(``_geometric_terms``, which also sets the washout), or N - 1 with a zero tail when
p's coefficients are all strictly upper triangular, so that every product of N
factors of p vanishes.

The plain recursion from a caller-supplied initial state remains the independent
solution path: its agreement with the series past the washout is a core
correctness check.

Every filter is evaluated by ``evaluate_batch(f, inputs, tol)``, the (B,) values at
t = 0 of a list of histories; the one-input evaluators are its B = 1 case.  A value
must not depend, to the bit, on the other inputs of its batch, since the transfer
check expects exact agreement.  So no BLAS call has a shape that changes with B: the
SAS scan pads the batch to whole blocks of ``SCAN_BLOCK`` inputs, each block one
gemm of a fixed shape, and the readouts multiply row by row (``_rowwise``), never
by one ``X @ C`` whose blocking changes with B.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .polynomials import (
    MatrixPolynomial,
    NormCertificate,
    ScalarPolynomial,
    _poly_values,
    _spectral_norms,
    is_nilpotent,
    norm_certificate,
    poly_from_json,
    poly_to_json,
    scalar_poly_from_json,
    scalar_poly_to_json,
    spectral_norm,
)
from .sequences import BoundedSequence, _window_block

__all__ = [
    "SASSystem",
    "LinearSystem",
    "Trajectory",
    "sas_run_recursion",
    "sas_run_series",
    "sas_functional",
    "sas_state",
    "sas_terminal_states_batch",
    "state_bound",
    "linear_run",
    "linear_functional",
    "linear_state",
    "evaluate_filter",
    "evaluate_batch",
    "fmp_lipschitz_constant",
    "fmp_weighting",
    "esp_margin",
    "default_washout",
    "system_to_json",
    "system_from_json",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class Trajectory:
    """Simulated states and outputs aligned to the input window (oldest first).

    ``washout_len`` marks the prefix whose states still depend on the initial
    condition beyond ``truncation_tail_bound``; downstream training should discard it.
    """

    states: np.ndarray  # (T, N)
    outputs: np.ndarray  # (T,)
    washout_len: int
    truncation_tail_bound: float

    def __post_init__(self) -> None:
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        outputs = np.asarray(self.outputs, dtype=float).ravel()
        if states.shape[0] != outputs.shape[0]:
            raise ValueError("states and outputs must have equal length")
        if self.truncation_tail_bound < 0.0:
            raise ValueError("truncation_tail_bound must be >= 0")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "outputs", outputs)

    @property
    def times(self) -> np.ndarray:
        """Time labels -(T-1), ..., -1, 0 matching the window alignment."""
        T = self.states.shape[0]
        return np.arange(-(T - 1), 1)


# ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class SASSystem:
    """Non-homogeneous state-affine reservoir with linear readout.

    Use :meth:`create`, which computes and checks the norm certificates; the raw
    constructor trusts its arguments.
    """

    p: MatrixPolynomial
    q: MatrixPolynomial
    W: np.ndarray
    eps: float
    p_cert: NormCertificate
    q_cert: NormCertificate

    @classmethod
    def create(
        cls,
        p: MatrixPolynomial,
        q: MatrixPolynomial,
        W,
        eps: float,
        grid_step: float = 0.01,
    ) -> "SASSystem":
        if p.rows != p.cols:
            raise ValueError("p must be square")
        if q.rows != p.rows or q.cols != 1:
            raise ValueError("q must be N x 1 with N matching p")
        W = _readout_vector(W, p.rows)
        if not (0.0 < eps < 1.0):
            raise ValueError("margin eps must lie in (0, 1)")
        p_cert = norm_certificate(p, grid_step=grid_step)
        q_cert = norm_certificate(q, grid_step=grid_step)
        if not p_cert.M_p_upper < 1.0 - eps:
            raise ValueError(
                f"echo state precondition failed: certified M_p upper bound "
                f"{p_cert.M_p_upper:.6g} is not below 1 - eps = {1.0 - eps:.6g}"
            )
        return cls(p=p, q=q, W=W, eps=eps, p_cert=p_cert, q_cert=q_cert)

    @property
    def N(self) -> int:
        return self.p.rows

    @property
    def K1(self) -> float:
        """Certified contraction factor: upper bound of sup ||p(z)||_2."""
        return self.p_cert.M_p_upper

    @property
    def K2(self) -> float:
        """Certified upper bound of sup ||q(z)||_2."""
        return self.q_cert.M_p_upper


def _readout_vector(W, N: int) -> np.ndarray:
    W = np.asarray(W, dtype=float).ravel()
    if W.size != N:
        raise ValueError("readout W must have length N")
    if not np.all(np.isfinite(W)):
        raise ValueError("readout W must be finite")
    return W


@dataclass(frozen=True)
class LinearSystem:
    """Linear reservoir ``x_t = A x_{t-1} + c z_t`` with polynomial readout."""

    A: np.ndarray
    c: np.ndarray
    h: ScalarPolynomial
    eps: float
    sigma: float
    diagonal: bool
    nilpotent: bool
    nilpotency_index: int | None

    @classmethod
    def create(cls, A, c, h: ScalarPolynomial, eps: float) -> "LinearSystem":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        N = A.shape[0]
        c = np.asarray(c, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        if c.shape[0] != N:
            raise ValueError("c must have N rows")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(c))):
            raise ValueError("A and c must be finite")
        if h.arity != N:
            raise ValueError("readout arity must equal the state dimension")
        if not (0.0 < eps < 1.0):
            raise ValueError("margin eps must lie in (0, 1)")
        sigma = spectral_norm(A)
        diagonal = bool(np.all(A == np.diag(np.diagonal(A))))
        nil = is_nilpotent(MatrixPolynomial.constant(A))
        if not nil.nilpotent and not sigma < 1.0 - eps:
            raise ValueError(
                f"sigma_max(A) = {sigma:.6g} is not below 1 - eps = {1.0 - eps:.6g}"
            )
        return cls(
            A=A, c=c, h=h, eps=eps, sigma=sigma,
            diagonal=diagonal, nilpotent=nil.nilpotent, nilpotency_index=nil.index,
        )

    @property
    def N(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.c.shape[1]


# ---------------------------------------------------------------------------------
# shared kernels


def _geometric_terms(scale: float, rate: float, tol: float) -> tuple[int, float]:
    """Smallest n >= 0 with ``scale * rate**n < tol``, and that tail value.

    ``rate`` lies in [0, 1); a zero ``scale`` needs no terms at all.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    if scale < tol:
        return 0, scale
    # log-formula guess, then exact integer fix-up
    n = max(0, int(math.ceil(math.log(tol / scale) / math.log(rate))))
    while scale * rate**n >= tol:
        n += 1
    while n > 0 and scale * rate ** (n - 1) < tol:
        n -= 1
    return n, scale * rate**n


def _rowwise(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """``X @ C`` for a (B, n) block X as B one-row BLAS calls, alike for any B; a plain
    ``X @ C`` splits the rows into kernels that round differently as B changes.  Used
    for readouts and kernels contracted once per batch, not inside the scan."""
    return np.matmul(X[:, None, :], C)[:, 0]


SCAN_BLOCK = 32  # inputs per gemm: a multiple of every x86 dgemm register tile


def _sas_scan(s: SASSystem, Z: np.ndarray, X0: np.ndarray, out=None) -> np.ndarray:
    """Step ``X <- p(z) X + q(z)`` along the columns of the (B, T) input block ``Z``.

    ``X0`` holds one (N,) start state per row.  Returns the (B, N) terminal states
    and, given ``out`` of shape (T, B, N), stores every state there.

    The states are held transposed, one (N + 1, R) slab per block of R =
    ``SCAN_BLOCK`` inputs whose last row is the constant 1; the last block is padded
    with zero inputs.  Block k of one (D N, N + 1) operand, built once per call,
    holds ``[A | b]`` for the coefficients A of p and b of q of degree D - 1 - k
    (zero past either's degree).  So each step makes one stacked gemm for every
    ``A x + b`` of every input, then runs Horner in z on contiguous (N, R) slices of
    the result.  The working memory is O(B N D) whatever T is.

    A state does not depend, to the bit, on the other inputs of its batch: every
    gemm has one shape whatever B is, gemm packs its operands so that neither
    alignment nor neighbouring inputs reach a column, and R fills whole register
    tiles, so that no input lands in an edge tile.  NumPy would send a one-row
    operand (N = 1, degree 0) to gemv instead, so the operand has at least two rows.
    """
    N, R = s.N, SCAN_BLOCK
    B, T = Z.shape
    nb = -(-B // R)
    pc = s.p.coeffs or (np.zeros((N, N)),)
    qc = s.q.coeffs or (np.zeros((N, 1)),)
    D = max(len(pc), len(qc))
    P = np.zeros((max(D * N, 2), N + 1))
    for k, c in enumerate(pc):
        P[(D - 1 - k) * N:(D - k) * N, :N] = c
    for k, c in enumerate(qc):
        P[(D - 1 - k) * N:(D - k) * N, N] = c[:, 0]
    XT = np.ones((nb, N + 1, R))
    rows = np.zeros((nb * R, N))
    rows[:B] = X0
    XT[:, :N] = rows.reshape(nb, R, N).transpose(0, 2, 1)
    ZT = np.zeros((T, nb * R))
    ZT[:, :B] = Z.T
    prods = np.empty((nb, P.shape[0], R))
    # Horner runs in a contiguous X against z spread over every entry: in the slab
    # view, or with z broadcast, NumPy's loops run over short pieces, 1.5-2x slower
    X, zx = np.empty((nb, N, R)), np.empty((nb, N, R))
    for t, zt in enumerate(ZT.reshape(T, nb, 1, R)):
        np.matmul(P, XT, out=prods)
        np.copyto(zx, zt)
        np.copyto(X, prods[:, :N])
        for k in range(N, D * N, N):
            X *= zx
            X += prods[:, k:k + N]
        XT[:, :N] = X
        if out is not None:
            out[t] = _scan_rows(X, B)
    return _scan_rows(X, B)


def _scan_rows(X: np.ndarray, B: int) -> np.ndarray:
    """The first B states of (nb, N, R) transposed blocks as contiguous (B, N) rows,
    so that a readout sees one layout whatever the batch."""
    nb, N, R = X.shape
    return np.ascontiguousarray(X.transpose(0, 2, 1).reshape(nb * R, N)[:B])


def _linear_powers(s: LinearSystem, J: int) -> np.ndarray:
    """The (J+1, N, d) stack ``[A^J c, ..., A c, c]``, matching oldest-first windows."""
    mats = [np.array(s.c)]
    for _ in range(J):
        mats.append(s.A @ mats[-1])
    return np.stack(mats[::-1])


def _linear_terms(s: LinearSystem, input_bound: float, tol: float) -> tuple[int, float]:
    """Terms J of the state sum and its tail: exact for nilpotent systems, otherwise
    the smallest J with ``M * sigma_max(c) * sigma**(J+1) / (1 - sigma) < tol``."""
    if s.nilpotent:
        return s.nilpotency_index - 1, 0.0
    if tol is None or tol <= 0.0:
        raise ValueError("tol must be > 0 for non-nilpotent systems")
    scale = input_bound * spectral_norm(s.c) * s.sigma / (1.0 - s.sigma)
    return _geometric_terms(scale, s.sigma, tol)


def _linear_sum(s: LinearSystem, windows: np.ndarray, J: int) -> np.ndarray:
    """``sum_i A^i c u_{-i}`` for each oldest-first (J+1, d) window of the (B, J+1, d)
    block ``windows``, as one contraction; returns (B, N)."""
    return np.einsum("kni,bki->bn", _linear_powers(s, J), windows)


def _linear_state_bound(s: LinearSystem, input_bound: float) -> float:
    """sum_i ||A^i c|| * M — exact finite sum when nilpotent, geometric otherwise."""
    if s.nilpotent:
        powers = _linear_powers(s, s.nilpotency_index - 1)[::-1]
        return input_bound * float(_spectral_norms(powers).sum())
    return input_bound * spectral_norm(s.c) / (1.0 - s.sigma)


# ---------------------------------------------------------------------------------
# SAS simulation


def _check_unit_interval(Z: np.ndarray) -> None:
    """Reject any input entry outside I = [-1, 1] (NaN included): the certificates
    hold on I only."""
    if not np.all(np.abs(Z) <= 1.0):
        raise ValueError("input entry outside [-1, 1]")


def _check_sas_input(s: SASSystem, z: BoundedSequence) -> None:
    if z.dim != 1:
        raise ValueError("state-affine systems take scalar inputs")
    _check_unit_interval(z.window)


def state_bound(s: SASSystem) -> float:
    """Certified invariant-ball radius K2 / (1 - K1); every state stays inside."""
    if s.K2 == 0.0:
        return 0.0
    return s.K2 / (1.0 - s.K1)


def sas_run_recursion(
    s: SASSystem,
    z: BoundedSequence,
    x_init=None,
    washout: int = 0,
) -> Trajectory:
    """Iterate ``x_t = p(z_t) x_{t-1} + q(z_t)`` across the window from ``x_init``.

    The first ``washout`` states depend on the initial condition up to
    ``2 * state_bound * (1 - eps)**washout`` (geometric forgetting with contraction
    factor K1 <= 1 - eps); that value is recorded as the truncation tail bound.
    """
    _check_sas_input(s, z)
    if washout < 0:
        raise ValueError("washout must be >= 0")
    sb = state_bound(s)
    if x_init is None:
        x = np.zeros(s.N)
    else:
        x = np.asarray(x_init, dtype=float).ravel()
        if x.size != s.N:
            raise ValueError("x_init must have length N")
        if np.linalg.norm(x) > sb + 1.0:
            raise ValueError("x_init lies outside the sanity cap state_bound + 1")
    states = np.empty((z.length, 1, s.N))
    _sas_scan(s, z.window.T, x[None, :], out=states)
    states = states[:, 0]
    outputs = _rowwise(states, s.W)
    tail = 2.0 * sb * (1.0 - s.eps) ** washout
    return Trajectory(
        states=states, outputs=outputs, washout_len=washout,
        truncation_tail_bound=tail,
    )


def _series_terms(s: SASSystem, tol: float) -> tuple[int, float]:
    """Terms J of the series and its tail: the smallest J with
    K2 * K1**(J+1) / (1 - K1) < tol, or J = N - 1 with a zero tail when that is
    shorter and every coefficient of p is strictly upper triangular.  Then every
    product p(z_1) ... p(z_N) vanishes, whatever the z_k, and every later term has
    at least N factors.  A symbolic ``p(z)**k == 0`` (``is_nilpotent``) does not
    make products over distinct z_k vanish."""
    J, tail = _geometric_terms(s.K2 * s.K1 / (1.0 - s.K1), s.K1, tol)
    if J > s.N - 1 and all(not np.any(np.tril(c)) for c in s.p.coeffs):
        return s.N - 1, 0.0
    return J, tail


def sas_run_series(s: SASSystem, z: BoundedSequence, tol: float) -> Trajectory:
    """Evaluate the contraction series at every window slot, tail below ``tol``.

    Slot t runs the recursion from zero over the J+1 entries ending at t, all slots
    at once; entries older than the window are supplied by the sequence's extension
    rule, so the result is the exact filter value up to the certified truncation
    tail.
    """
    _check_sas_input(s, z)
    J, tail = _series_terms(s, tol)
    T = z.length
    windows = sliding_window_view(_window_block([z], T + J)[0, :, 0], J + 1)  # (T, J+1)
    states = _sas_scan(s, windows, np.zeros((T, s.N)))
    outputs = _rowwise(states, s.W)
    return Trajectory(
        states=states, outputs=outputs, washout_len=0, truncation_tail_bound=tail
    )


def sas_state(s: SASSystem, z: BoundedSequence, tol: float = 1e-9) -> np.ndarray:
    """Series state at t = 0 (the readout-free value of the filter)."""
    return _terminal_states(s, [z], tol)[0]


def sas_functional(s: SASSystem, z: BoundedSequence, tol: float = 1e-9) -> float:
    """W^T (series state at t = 0); absolute error at most ||W|| * tol."""
    return float(evaluate_batch(s, [z], tol)[0])


def sas_terminal_states_batch(s: SASSystem, Z: np.ndarray) -> np.ndarray:
    """Recursion from the zero state for a batch of scalar input windows.

    ``Z`` has shape (B, T), oldest first; returns the (B, N) terminal states.  The
    initial-condition error of each row is at most K1**T * state_bound, so windows
    of the J+1 newest entries give the series state of :func:`sas_state`.
    """
    Z = np.asarray(Z, dtype=float)
    _check_unit_interval(Z)
    return _sas_scan(s, Z, np.zeros((Z.shape[0], s.N)))


# ---------------------------------------------------------------------------------
# linear simulation


def _check_linear_input(s: LinearSystem, z: BoundedSequence) -> None:
    if z.dim != s.input_dim:
        raise ValueError(f"input dim {z.dim} does not match c with {s.input_dim} columns")


def linear_run(s: LinearSystem, z: BoundedSequence, tol: float = 1e-9) -> Trajectory:
    """Evaluate ``x_t = sum_i A^i c z_{t-i}`` at every window slot.

    Nilpotent systems use the exact finite sum (index terms, zero tail); otherwise the
    sum is truncated at the smallest J with
    ``M * sigma_max(c) * sigma**(J+1) / (1 - sigma) < tol``.
    """
    _check_linear_input(s, z)
    J, tail = _linear_terms(s, z.bound, tol)
    windows = sliding_window_view(_window_block([z], z.length + J)[0], J + 1, axis=0)
    states = _linear_sum(s, windows.transpose(0, 2, 1), J)
    outputs = _poly_values(s.h, states)
    return Trajectory(
        states=states, outputs=outputs, washout_len=0, truncation_tail_bound=tail
    )


def linear_state(s: LinearSystem, z: BoundedSequence, tol: float = 1e-9) -> np.ndarray:
    """State sum_i A^i c z_{-i} at t = 0, exact for nilpotent systems."""
    return _terminal_states(s, [z], tol)[0]


def linear_functional(s: LinearSystem, z: BoundedSequence, tol: float = 1e-9) -> float:
    """h(state at t = 0)."""
    return float(evaluate_batch(s, [z], tol)[0])


# ---------------------------------------------------------------------------------
# the batch protocol


class _InputRejected(ValueError):
    """An input a system cannot take; ``index`` is its place in the batch."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"input {index} is not admissible: {reason}")
        self.index, self.reason = index, reason


def _check_batch(system, inputs) -> None:
    """Reject a batch holding an input the system cannot take.  A batch of the
    system's input dimension is range-checked on its concatenated windows in one
    pass; only a failing batch is checked input by input, to name the first bad one."""
    sas = isinstance(system, SASSystem)
    dim = 1 if sas else system.input_dim
    if all(z.dim == dim for z in inputs) and (
            not sas or np.all(np.abs(np.concatenate([z.window for z in inputs])) <= 1.0)):
        return
    for i, z in enumerate(inputs):
        try:
            (_check_sas_input if sas else _check_linear_input)(system, z)
        except ValueError as exc:
            raise _InputRejected(i, str(exc)) from exc


def _terminal_states(system, inputs, tol: float) -> np.ndarray:
    """(B, N) series states at t = 0 of a batch of inputs.

    The batch is checked at once (``_InputRejected`` names the first bad input),
    then each input is cut to, or extended by its own rule to, the J+1 newest
    entries the tail below ``tol`` needs, in one (B, J+1, d) block
    (``_window_block``).  A linear input takes the J of its own bound; inputs
    sharing a J share one block and one kernel call.
    """
    _check_batch(system, inputs)
    if isinstance(system, SASSystem):
        J, _ = _series_terms(system, tol)
        return sas_terminal_states_batch(system, _window_block(inputs, J + 1)[:, :, 0])
    J_of = {M: _linear_terms(system, M, tol)[0] for M in {z.bound for z in inputs}}
    states = np.empty((len(inputs), system.N))
    for J in set(J_of.values()):
        rows = [i for i, z in enumerate(inputs) if J_of[z.bound] == J]
        states[rows] = _linear_sum(system, _window_block([inputs[i] for i in rows], J + 1), J)
    return states


def evaluate_batch(f, inputs, tol: float = 1e-9) -> np.ndarray:
    """Evaluate a filter at time 0 on every history of ``inputs``; returns (B,).

    The two system types read out their batched terminal states (``W^T x``,
    ``h(x)``); any other filter provides ``evaluate_batch(inputs, tol)``.  A value
    does not depend, to the bit, on the other inputs of its batch.  An empty batch
    gives an empty array.
    """
    inputs = list(inputs)
    if not (isinstance(f, (SASSystem, LinearSystem)) or hasattr(f, "evaluate_batch")):
        raise TypeError(f"cannot evaluate object of type {type(f).__name__} as a filter")
    if not inputs:
        return np.zeros(0)
    if isinstance(f, SASSystem):
        return _rowwise(_terminal_states(f, inputs, tol), f.W)
    if isinstance(f, LinearSystem):
        return _poly_values(f.h, _terminal_states(f, inputs, tol))
    return np.asarray(f.evaluate_batch(inputs, tol), dtype=float)


def evaluate_filter(f, z: BoundedSequence, tol: float = 1e-9) -> float:
    """Evaluate any filter at time 0 on the history ``z``: the B = 1 case of
    :func:`evaluate_batch`, with the very bits any batch gives for ``z``, so that
    one-input targets and batched pipelines agree exactly in transfer checks."""
    return float(evaluate_batch(f, [z], tol)[0])


# ---------------------------------------------------------------------------------
# certified constants


def fmp_lipschitz_constant(s: SASSystem, rho: float) -> float:
    """Fading-memory modulus: |H(z) - H(s)| <= C * ||z - s||_w for w_t = K1**(rho t).

    C = ||W|| * (L_q + M_q * L_p / (1 - K1**rho)) / (1 - K1**(1-rho)).

    The two terms track the two ways the series x = sum_j (prod_{k<j} p) q can move:
    the q-argument changing (Lipschitz L_q per step, geometric weight K1**j against
    the w_t = K1**(rho t) discount), and each p-factor changing (Lipschitz L_p,
    telescoped over the product, against the certified magnitude M_q of the q term
    it multiplies).  Every factor is a certified upper bound, so the guarantee is
    sound; a varying p forces a nonzero C even when q is constant.  With K1 = 0 the
    filter depends on z_0 only and C degenerates to ||W|| * L_q.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    normW = float(np.linalg.norm(s.W))
    L_q = s.q_cert.M_pprime  # sqrt(N) * certified sup ||q'(z)||_2
    lam = s.K1
    if lam == 0.0:
        return normW * L_q
    L_p = s.p_cert.M_pprime
    M_q = s.q_cert.M_p_upper
    return (
        normW
        * (L_q + M_q * L_p / (1.0 - lam**rho))
        / (1.0 - lam ** (1.0 - rho))
    )


def fmp_weighting(s: SASSystem, rho: float):
    """The weighting sequence w_t = K1**(rho t) paired with the modulus above."""
    from .sequences import WeightingSequence

    lam = s.K1 if s.K1 > 0.0 else 0.5  # any w with w_0 = 1 works in the degenerate case
    return WeightingSequence.exponential_power(lam, rho)


def esp_margin(system) -> float:
    """1 - (certified contraction factor); positive except for nilpotent systems."""
    if isinstance(system, SASSystem):
        return 1.0 - system.K1
    if isinstance(system, LinearSystem):
        margin = 1.0 - system.sigma
        if system.nilpotent:
            return max(margin, 0.0)
        return margin
    raise TypeError(f"unsupported system type {type(system).__name__}")


def default_washout(s: SASSystem, tol: float) -> int:
    """Smallest T with (1 - eps)**T * 2 * state_bound < tol."""
    return _geometric_terms(2.0 * state_bound(s), 1.0 - s.eps, tol)[0]


# ---------------------------------------------------------------------------------
# serialization


def system_to_json(system, parents=None) -> dict:
    if isinstance(system, SASSystem):
        doc = {
            "type": "sas",
            "p": poly_to_json(system.p),
            "q": poly_to_json(system.q),
            "W": [float(v) for v in system.W],
            "eps": float(system.eps),
        }
    elif isinstance(system, LinearSystem):
        doc = {
            "type": "linear",
            "A": [[float(v) for v in row] for row in system.A],
            "c": [[float(v) for v in row] for row in system.c],
            "h": scalar_poly_to_json(system.h),
            "eps": float(system.eps),
        }
    else:
        raise TypeError(f"unsupported system type {type(system).__name__}")
    if parents is not None:
        doc["parents"] = list(parents)
    return doc


def system_from_json(doc: dict, grid_step: float = 0.01):
    kind = doc.get("type")
    if kind == "sas":
        return SASSystem.create(
            p=poly_from_json(doc["p"]),
            q=poly_from_json(doc["q"]),
            W=np.asarray(doc["W"], dtype=float),
            eps=float(doc["eps"]),
            grid_step=grid_step,
        )
    if kind == "linear":
        return LinearSystem.create(
            A=np.asarray(doc["A"], dtype=float),
            c=np.asarray(doc["c"], dtype=float),
            h=scalar_poly_from_json(doc["h"]),
            eps=float(doc["eps"]),
        )
    raise ValueError(f"unknown system type {kind!r}")


def trajectory_to_csv(traj: Trajectory) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    N = traj.states.shape[1]
    writer.writerow(["t"] + [f"x_{i + 1}" for i in range(N)] + ["y"])
    for t, x, y in zip(traj.times, traj.states, traj.outputs):
        writer.writerow([int(t)] + [repr(float(v)) for v in x] + [repr(float(y))])
    return out.getvalue()
