"""Matrix-valued polynomials, scalar readout polynomials, certified norm bounds.

``MatrixPolynomial`` carries coefficients A_0..A_r of p(z) = A_0 + z A_1 + ... + z^r A_r
with m x n real matrix coefficients.  All state-affine structure in this package is
built from these through evaluation, products, direct sums and Kronecker products.

``norm_certificate`` produces sound two-sided estimates of M_p = sup_{|z|<=1} ||p(z)||_2:
a grid lower bound and an upper bound combining the grid with a Mean-Value-Inequality
slack, capped by the coefficient-norm sum B_p = sum_i ||A_i||_2 (a certified upper bound
on [-1, 1] in its own right).  The slack needs a bound on sup ||p'||, which is obtained
by the same grid device applied down the (finite) derivative tower, each level capped by
its own coefficient-norm sum.

Spectral norms are computed by power iteration on A^T A with a deterministic start
vector, tolerance 1e-12 and an iteration cap of 10 000, so certificates are reproducible
run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MatrixPolynomial",
    "ScalarPolynomial",
    "NormCertificate",
    "ConditionReport",
    "NilpotencyReport",
    "spectral_norm",
    "poly_eval",
    "poly_mul",
    "poly_direct_sum",
    "poly_vstack",
    "poly_kron",
    "poly_derivative",
    "norm_certificate",
    "check_conditions",
    "is_nilpotent",
    "scalar_poly_eval",
    "poly_to_json",
    "poly_from_json",
    "scalar_poly_to_json",
    "scalar_poly_from_json",
]


# ---------------------------------------------------------------------------------
# spectral norm by power iteration


def _power_iteration(ata: np.ndarray, v: np.ndarray, tol: float, max_iter: int):
    """Iterate v <- A^T A v; return (largest-eigenvalue estimate, converged)."""
    lam = 0.0
    for _ in range(max_iter):
        w = ata @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return None, False  # start vector lies in the null space
        v = w / nw
        lam_new = float(v @ (ata @ v))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new, True
        lam = lam_new
    return lam, True  # hit the cap; best available estimate


def spectral_norm(a: np.ndarray, tol: float = 1e-15, max_iter: int = 100000) -> float:
    """Largest singular value of ``a`` via power iteration on ``a.T @ a``.

    The start vector is the normalized all-ones vector; if that collapses into the
    null space (possible for hand-built sign-symmetric matrices) two further
    deterministic starts are tried, so results stay reproducible.  The stopping
    tolerance is deliberately near float resolution: the change-based rule under-
    estimates the remaining error by 1/(1 - (s2/s1)^4), so a loose tolerance leaks
    visible error exactly when the top two singular values nearly tie (as happens
    for every direct sum of similarly-scaled blocks).
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0 or not np.any(a):
        return 0.0
    ata = a.T @ a
    n = ata.shape[0]
    starts = [np.ones(n) / math.sqrt(n), None, None]

    def _fallbacks():
        v = np.arange(1.0, n + 1.0)
        yield v / np.linalg.norm(v)
        # a column of (A^T A)^2 cannot lie in the null space of a PSD A^T A
        for j in range(n):
            c = ata @ ata[:, j]
            nc = np.linalg.norm(c)
            if nc > 0.0:
                yield c / nc
                return

    lam, _ = _power_iteration(ata, starts[0], tol, max_iter)
    if lam is None:
        for v in _fallbacks():
            lam, _ = _power_iteration(ata, v, tol, max_iter)
            if lam is not None:
                break
    if lam is None:
        return 0.0
    return math.sqrt(max(lam, 0.0))


def _spectral_norms(mats: np.ndarray, tol: float = 1e-12, max_iter: int = 10000) -> np.ndarray:
    """Vectorized power iteration for a stack of matrices (G, m, n).

    Same iteration, start vector and stopping rule as :func:`spectral_norm`, run for
    all G matrices simultaneously with a per-matrix active mask; degenerate entries
    fall back to the scalar routine.
    """
    mats = np.asarray(mats, dtype=float)
    G, _, n = mats.shape
    ata = np.einsum("gji,gjk->gik", mats, mats)
    v = np.full((G, n), 1.0 / math.sqrt(n))
    lam = np.zeros(G)
    active = np.ones(G, dtype=bool)
    collapsed = np.zeros(G, dtype=bool)
    for _ in range(max_iter):
        if not np.any(active):
            break
        w = np.einsum("gik,gk->gi", ata[active], v[active])
        nw = np.linalg.norm(w, axis=1)
        zero = nw == 0.0
        idx = np.flatnonzero(active)
        if np.any(zero):
            collapsed[idx[zero]] = True
            active[idx[zero]] = False
            if not np.any(active):
                break
            keep = ~zero
            idx = idx[keep]
            w = w[keep]
            nw = nw[keep]
        vi = w / nw[:, None]
        lam_new = np.einsum("gi,gik,gk->g", vi, ata[idx], vi)
        done = np.abs(lam_new - lam[idx]) <= tol * np.maximum(1.0, np.abs(lam_new))
        v[idx] = vi
        lam[idx] = lam_new
        active[idx[done]] = False
    out = np.sqrt(np.maximum(lam, 0.0))
    for g in np.flatnonzero(collapsed):
        out[g] = spectral_norm(mats[g], tol=tol, max_iter=max_iter)
    return out


# ---------------------------------------------------------------------------------
# matrix polynomials


@dataclass(frozen=True)
class MatrixPolynomial:
    """p(z) = A_0 + z A_1 + ... + z^r A_r with m x n coefficients.

    Canonical form: trailing all-zero coefficients are stripped, so ``degree`` is the
    index of the last nonzero coefficient (-1 for the zero polynomial, whose
    coefficient list is empty).
    """

    rows: int
    cols: int
    coeffs: tuple

    def __post_init__(self) -> None:
        mats = []
        for c in self.coeffs:
            c = np.asarray(c, dtype=float)
            if c.shape != (self.rows, self.cols):
                raise ValueError(
                    f"coefficient shape {c.shape} != ({self.rows}, {self.cols})"
                )
            if not np.all(np.isfinite(c)):
                raise ValueError("coefficients must be finite")
            mats.append(c)
        while mats and not np.any(mats[-1]):
            mats.pop()
        object.__setattr__(self, "coeffs", tuple(mats))

    @classmethod
    def from_coeffs(cls, coeffs, rows: int | None = None, cols: int | None = None):
        mats = [np.atleast_2d(np.asarray(c, dtype=float)) for c in coeffs]
        if not mats:
            if rows is None or cols is None:
                raise ValueError("zero polynomial needs explicit rows/cols")
            return cls(rows=rows, cols=cols, coeffs=())
        r, c = mats[0].shape
        return cls(rows=r if rows is None else rows, cols=c if cols is None else cols, coeffs=tuple(mats))

    @classmethod
    def zero(cls, rows: int, cols: int):
        return cls(rows=rows, cols=cols, coeffs=())

    @classmethod
    def constant(cls, mat):
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        return cls(rows=mat.shape[0], cols=mat.shape[1], coeffs=(mat,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> np.ndarray:
        """A_i, returning the zero matrix past the stored degree."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return np.zeros((self.rows, self.cols))

    def __call__(self, z: float) -> np.ndarray:
        return poly_eval(self, z)


def poly_eval(p: MatrixPolynomial, z: float) -> np.ndarray:
    """Evaluate by Horner's scheme."""
    if not p.coeffs:
        return np.zeros((p.rows, p.cols))
    acc = np.array(p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        acc = acc * z + c
    return acc


def poly_mul(a: MatrixPolynomial, b: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient convolution; pointwise it is the matrix product a(z) b(z)."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: ({a.rows},{a.cols}) @ ({b.rows},{b.cols})")
    if not a.coeffs or not b.coeffs:
        return MatrixPolynomial.zero(a.rows, b.cols)
    out = [np.zeros((a.rows, b.cols)) for _ in range(a.degree + b.degree + 1)]
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ai @ bj
    return MatrixPolynomial(rows=a.rows, cols=b.cols, coeffs=tuple(out))


def _padded(p: MatrixPolynomial, upto: int):
    return [p.coeff(i) for i in range(upto + 1)]


def poly_direct_sum(a: MatrixPolynomial, b: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient-wise block diagonal; the shorter coefficient list is zero-padded."""
    deg = max(a.degree, b.degree)
    rows, cols = a.rows + b.rows, a.cols + b.cols
    if deg < 0:
        return MatrixPolynomial.zero(rows, cols)
    out = []
    for ai, bi in zip(_padded(a, deg), _padded(b, deg)):
        blk = np.zeros((rows, cols))
        blk[: a.rows, : a.cols] = ai
        blk[a.rows :, a.cols :] = bi
        out.append(blk)
    return MatrixPolynomial(rows=rows, cols=cols, coeffs=tuple(out))


def poly_vstack(a: MatrixPolynomial, b: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient-wise vertical stack [a; b]; shapes must share the column count."""
    if a.cols != b.cols:
        raise ValueError("vstack needs equal column counts")
    deg = max(a.degree, b.degree)
    rows = a.rows + b.rows
    if deg < 0:
        return MatrixPolynomial.zero(rows, a.cols)
    out = [
        np.vstack([ai, bi]) for ai, bi in zip(_padded(a, deg), _padded(b, deg))
    ]
    return MatrixPolynomial(rows=rows, cols=a.cols, coeffs=tuple(out))


def poly_kron(a: MatrixPolynomial, b: MatrixPolynomial) -> MatrixPolynomial:
    """Kronecker product: coefficient at degree d is sum_{i+j=d} kron(A_i, B_j)."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    if not a.coeffs or not b.coeffs:
        return MatrixPolynomial.zero(rows, cols)
    out = [np.zeros((rows, cols)) for _ in range(a.degree + b.degree + 1)]
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = out[i + j] + np.kron(ai, bj)
    return MatrixPolynomial(rows=rows, cols=cols, coeffs=tuple(out))


def poly_derivative(p: MatrixPolynomial) -> MatrixPolynomial:
    """Term-by-term derivative."""
    if p.degree <= 0:
        return MatrixPolynomial.zero(p.rows, p.cols)
    out = tuple(i * p.coeffs[i] for i in range(1, p.degree + 1))
    return MatrixPolynomial(rows=p.rows, cols=p.cols, coeffs=out)


# ---------------------------------------------------------------------------------
# certified norm bounds over I = [-1, 1]


@dataclass(frozen=True)
class NormCertificate:
    """Two-sided bounds on M_p = sup_{|z|<=1} ||p(z)||_2.

    B_p        -- sum of coefficient spectral norms; certified upper bound on I.
    M_p_lower  -- grid maximum of ||p(z)||_2 (a true lower bound).
    M_p_upper  -- grid maximum plus Mean-Value-Inequality slack, capped by B_p.
    M_pprime   -- sqrt(rows) * certified upper bound of sup ||p'(z)||_2.
    grid_step  -- the actual grid spacing used.
    """

    B_p: float
    M_p_lower: float
    M_p_upper: float
    M_pprime: float
    grid_step: float


def _coeff_norm_sum(p: MatrixPolynomial) -> float:
    return float(sum(spectral_norm(c) for c in p.coeffs))


def _grid_max(p: MatrixPolynomial, grid: np.ndarray) -> float:
    if not p.coeffs:
        return 0.0
    # Horner across the whole grid at once, then batched spectral norms
    acc = np.broadcast_to(p.coeffs[-1], (grid.size, p.rows, p.cols)).copy()
    for c in reversed(p.coeffs[:-1]):
        acc = acc * grid[:, None, None] + c
    return float(np.max(_spectral_norms(acc)))


def _sup_upper(p: MatrixPolynomial, grid: np.ndarray, step: float) -> float:
    """Certified upper bound of sup_{|z|<=1} ||p(z)||_2 (grid + slack, capped by B)."""
    if not p.coeffs:
        return 0.0
    b = _coeff_norm_sum(p)
    lower = _grid_max(p, grid)
    if p.degree <= 0:
        return min(lower, b)  # constant in z: the grid value is exact
    slack = 0.5 * step * math.sqrt(p.rows * p.cols) * _sup_upper(
        poly_derivative(p), grid, step
    )
    # the grid max and the coefficient-norm sum round in different orders, so the
    # cap can dip a ulp below the realized maximum; never report less than seen
    return max(min(lower + slack, b), lower)


def norm_certificate(p: MatrixPolynomial, grid_step: float = 1e-3) -> NormCertificate:
    """Certify sup_{|z|<=1} ||p(z)||_2 from a grid plus Lipschitz slack.

    ``grid_step`` must lie in (0, 1]; the grid always includes both endpoints and the
    realized spacing (recorded in the certificate) never exceeds the request.
    """
    if not (0.0 < grid_step <= 1.0):
        raise ValueError("grid_step must lie in (0, 1]")
    npts = int(math.ceil(2.0 / grid_step)) + 1
    grid = np.linspace(-1.0, 1.0, npts)
    step = 2.0 / (npts - 1)

    b = _coeff_norm_sum(p)
    lower = _grid_max(p, grid)
    deriv = poly_derivative(p)
    d_upper = _sup_upper(deriv, grid, step)
    if p.degree <= 0:
        upper = lower
    else:
        upper = min(lower + 0.5 * step * math.sqrt(p.rows * p.cols) * d_upper, b)
        upper = max(upper, lower)  # see _sup_upper: the B cap can round below the grid max
    return NormCertificate(
        B_p=b,
        M_p_lower=lower,
        M_p_upper=upper,
        M_pprime=math.sqrt(p.rows) * d_upper,
        grid_step=step,
    )


@dataclass(frozen=True)
class ConditionReport:
    cond_i: bool
    cond_ii: bool
    cond_iii: bool


def check_conditions(p: MatrixPolynomial, lam: float, grid_step: float = 1e-3) -> ConditionReport:
    """The contraction condition chain (i) => (ii) => (iii).

    (i)   every ||A_i||_2 < lam and lam * (deg + 1) < 1;
    (ii)  B_p < 1;
    (iii) M_p_upper < 1 (certified).
    """
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    cert = norm_certificate(p, grid_step=grid_step)
    cond_i = all(spectral_norm(c) < lam for c in p.coeffs) and lam * (p.degree + 1) < 1.0
    cond_ii = cert.B_p < 1.0
    cond_iii = cert.M_p_upper < 1.0
    return ConditionReport(cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii)


@dataclass(frozen=True)
class NilpotencyReport:
    nilpotent: bool
    index: int | None


def is_nilpotent(
    p: MatrixPolynomial, max_index: int | None = None, zero_tol: float = 0.0
) -> NilpotencyReport:
    """Whether some symbolic power p(z)^k vanishes identically for k <= max_index.

    Powers are computed by coefficient convolution, so the answer is exact for
    exactly-constructed inputs with ``zero_tol = 0``; pass ``zero_tol = 1e-12`` for
    coefficients carrying float noise.
    """
    if p.rows != p.cols:
        raise ValueError("nilpotency is defined for square polynomials only")
    if max_index is None:
        max_index = p.rows
    if max_index < 1:
        raise ValueError("max_index must be >= 1")

    def _vanishes(q: MatrixPolynomial) -> bool:
        return all(np.max(np.abs(c)) <= zero_tol for c in q.coeffs)

    power = p
    for k in range(1, max_index + 1):
        if _vanishes(power):
            return NilpotencyReport(nilpotent=True, index=k)
        if k < max_index:
            power = poly_mul(power, p)
    return NilpotencyReport(nilpotent=False, index=None)


# ---------------------------------------------------------------------------------
# scalar readout polynomials


@dataclass(frozen=True)
class ScalarPolynomial:
    """Real polynomial in ``arity`` variables, stored as {exponent tuple: coeff}.

    Zero-coefficient terms are dropped on construction; the empty term dict is the
    zero polynomial.
    """

    arity: int
    terms: tuple  # sorted tuple of (alpha, coeff) pairs

    def __post_init__(self) -> None:
        canon = {}
        for alpha, coeff in (
            self.terms.items() if isinstance(self.terms, dict) else self.terms
        ):
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != self.arity:
                raise ValueError(f"exponent tuple {alpha} does not match arity {self.arity}")
            if any(e < 0 for e in alpha):
                raise ValueError("exponents must be >= 0")
            coeff = float(coeff)
            if coeff != 0.0:
                canon[alpha] = canon.get(alpha, 0.0) + coeff
        canon = {a: c for a, c in canon.items() if c != 0.0}
        object.__setattr__(self, "terms", tuple(sorted(canon.items())))

    @classmethod
    def from_terms(cls, arity: int, terms) -> "ScalarPolynomial":
        return cls(arity=arity, terms=dict(terms))

    @classmethod
    def constant(cls, arity: int, value: float) -> "ScalarPolynomial":
        return cls(arity=arity, terms={(0,) * arity: value})

    @classmethod
    def coordinate(cls, arity: int, i: int) -> "ScalarPolynomial":
        """The projection x -> x_i (0-based)."""
        alpha = [0] * arity
        alpha[i] = 1
        return cls(arity=arity, terms={tuple(alpha): 1.0})

    @classmethod
    def linear_form(cls, weights) -> "ScalarPolynomial":
        w = np.asarray(weights, dtype=float)
        terms = {}
        for i, wi in enumerate(w):
            alpha = [0] * w.size
            alpha[i] = 1
            terms[tuple(alpha)] = float(wi)
        return cls(arity=w.size, terms=terms)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def __call__(self, x) -> float:
        return scalar_poly_eval(self, x)

    def add(self, other: "ScalarPolynomial") -> "ScalarPolynomial":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        terms = dict(self.terms)
        for alpha, c in other.terms:
            terms[alpha] = terms.get(alpha, 0.0) + c
        return ScalarPolynomial(arity=self.arity, terms=terms)

    def scale(self, s: float) -> "ScalarPolynomial":
        return ScalarPolynomial(
            arity=self.arity, terms={a: s * c for a, c in self.terms}
        )

    def mul(self, other: "ScalarPolynomial") -> "ScalarPolynomial":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        terms: dict = {}
        for a1, c1 in self.terms:
            for a2, c2 in other.terms:
                alpha = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
                terms[alpha] = terms.get(alpha, 0.0) + c1 * c2
        return ScalarPolynomial(arity=self.arity, terms=terms)

    def embed(self, new_arity: int, offset: int) -> "ScalarPolynomial":
        """View this polynomial on a larger variable block starting at ``offset``."""
        if offset < 0 or offset + self.arity > new_arity:
            raise ValueError("embedding does not fit the new arity")
        terms = {}
        for alpha, c in self.terms:
            new_alpha = (0,) * offset + alpha + (0,) * (new_arity - offset - self.arity)
            terms[new_alpha] = c
        return ScalarPolynomial(arity=new_arity, terms=terms)


def scalar_poly_eval(h: ScalarPolynomial, x) -> float:
    """sum over terms of coeff * prod x_i**alpha_i."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != h.arity:
        raise ValueError(f"arity mismatch: polynomial has {h.arity}, got {x.size}")
    total = 0.0
    for alpha, coeff in h.terms:
        term = coeff
        for xi, e in zip(x, alpha):
            if e:
                term *= xi**e
        total += term
    return float(total)


# ---------------------------------------------------------------------------------
# JSON serialization (shared by the CLI and the test corpus)


def poly_to_json(p: MatrixPolynomial) -> dict:
    """{"rows": m, "cols": n, "coeffs": [[...row-major...], ...]}"""
    return {
        "rows": p.rows,
        "cols": p.cols,
        "coeffs": [[float(v) for v in c.ravel()] for c in p.coeffs],
    }


def poly_from_json(doc: dict) -> MatrixPolynomial:
    rows, cols = int(doc["rows"]), int(doc["cols"])
    coeffs = tuple(
        np.asarray(flat, dtype=float).reshape(rows, cols) for flat in doc["coeffs"]
    )
    return MatrixPolynomial(rows=rows, cols=cols, coeffs=coeffs)


def scalar_poly_to_json(h: ScalarPolynomial) -> dict:
    return {
        "arity": h.arity,
        "terms": [{"alpha": list(a), "coeff": c} for a, c in h.terms],
    }


def scalar_poly_from_json(doc: dict) -> ScalarPolynomial:
    terms = [(tuple(t["alpha"]), float(t["coeff"])) for t in doc["terms"]]
    return ScalarPolynomial(arity=int(doc["arity"]), terms=terms)
