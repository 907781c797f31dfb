"""Matrix-valued polynomials, scalar readout polynomials, certified norm bounds.

``MatrixPolynomial`` carries coefficients A_0..A_r of p(z) = A_0 + z A_1 + ... + z^r A_r
with m x n real matrix coefficients.  All state-affine structure in this package is
built from these through evaluation, products, direct sums and Kronecker products.
Products and Kronecker products are one coefficient convolution (``_convolve``);
direct sums, vertical stacks, the derivative tower below and the block-triangular
realization of SAS products are one block assembler (``_assemble``) that lays
polynomials out on a grid of row and column blocks.

``norm_certificate`` produces sound two-sided estimates of M_p = sup_{|z|<=1} ||p(z)||_2:
a grid lower bound (up to the rounding of its norms) and an upper bound combining the
grid with a Mean-Value-Inequality slack, capped by the coefficient-norm sum
B_p = sum_i ||A_i||_2 (a certified upper bound on [-1, 1] in its own right).  The
mean-value inequality holds in the operator norm, so the slack is half the grid step
times a bound on sup ||p'||, with no factor for the matrix shape; that bound is
obtained by the same grid device applied down the (finite) derivative tower, each
level capped by its own coefficient-norm sum.  The floating-point errors the grid
hides are added as explicit terms, each rounded upward: the Horner error at the grid
points, the rounding of the linspace points, the rounding of the stored derivative
coefficients, and the sums themselves.

The tower p, p', ..., p^(deg) is stacked into one polynomial, evaluated by Horner's
scheme on blocks of grid points with one batched spectral-norm call per block; its
coefficients take one more call, and the level bounds are folded from the constant
bottom level up.  Every spectral norm is LAPACK's largest singular value rounded up by a
relative factor derived from LAPACK's error bound (``_SVD_REL_ERR``, below 1e-12 up
to 500 x 500), and coefficient-norm sums are rounded toward +inf, so each norm and
each sum is an upper bound under floating point; 1 x 1 matrices get their exact
norm.

Each level's grid maximum is the maximum over every grid point, but most points
take no SVD.  A coarse pass evaluates every 16th point and both endpoints.  Between
coarse neighbours a < b, level k's norm is Lipschitz with constant at most the next
level's coefficient-norm sum b_{k+1}, so no point inside can exceed the envelope
(F(a) + F(b) + (b - a) b_{k+1}) / 2; the inside points are evaluated only where
that envelope, widened by explicit margins for the Horner error at both ends and the
SVD's rounding factor, can still beat the coarse maximum.  The constant top level
takes one point.  A skipped point's computed norm therefore cannot exceed the
computed maximum (the proof is in ``norm_certificate``), and the certificate is the
full grid's, bit for bit.
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
# spectral norms by LAPACK's SVD, rounded up

# Per unit of max(m, n): LAPACK's SVD is backward stable, so the computed top singular
# value is the exact one of A + E with ||E||_2 <= p(m, n) * u * ||A||_2 (u = 2**-53,
# p "a modestly growing function" of the shape; LAPACK Users' Guide, "Error Bounds
# for the Singular Value Decomposition").  Weyl's inequality then gives
# sigma_1 <= s / (1 - p u) for the computed s.  Taking p(m, n) = 8 max(m, n) -- the
# underestimate against 40-digit mpmath stays below 8 u up to 32 x 32, even for
# near-tied top pairs -- the factor 1 + 2 p u covers both 1 / (1 - p u) and the
# rounding of the product s * (1 + 2 p u).
_SVD_REL_ERR = 8.0 * np.finfo(float).eps


def _spectral_norms(mats) -> np.ndarray:
    """Certified upper bounds of ``||A||_2`` for a (..., m, n) stack of matrices.

    The top singular value from one batched LAPACK SVD, multiplied by
    ``1 + _SVD_REL_ERR * max(m, n)``; 1 x 1 matrices get their exact norm ``|a|``.
    """
    mats = np.asarray(mats, dtype=float)
    m, n = mats.shape[-2:]
    if m == 0 or n == 0:
        return np.zeros(mats.shape[:-2])
    if m == n == 1:
        return np.abs(mats[..., 0, 0])
    return np.linalg.svd(mats, compute_uv=False)[..., 0] * (1.0 + _SVD_REL_ERR * max(m, n))


def _upward_sum(values) -> float:
    """The float sum of ``values`` rounded toward +inf, so a sum of upper bounds stays
    one: the correctly rounded sum, moved up one ulp unless it is exact.  The
    residual ``sum(values) - total`` is a sum of floats, so ``fsum`` rounds it to a
    number of its own sign."""
    values = list(values)
    total = math.fsum(values)
    if math.fsum([*values, -total]) > 0.0:
        total = math.nextafter(total, math.inf)
    return total


def _upward_product(a: float, b: float) -> float:
    """An upper bound of ``a * b`` for ``a, b >= 0``: the rounded product moved up one
    ulp, which covers its rounding, unless a factor is zero."""
    prod = a * b
    return math.nextafter(prod, math.inf) if a and b else prod


def spectral_norm(a: np.ndarray) -> float:
    """Certified upper bound of the largest singular value of the matrix ``a``.

    The one-matrix case of :func:`_spectral_norms`: LAPACK's value rounded up by the
    relative factor ``1 + _SVD_REL_ERR * max(m, n)`` (below 1e-12 for every shape up
    to 500 x 500); exact for 1 x 1 matrices and the zero matrix.
    """
    return float(_spectral_norms(np.asarray(a, dtype=float)[None])[0])


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


def poly_eval(p: MatrixPolynomial, z) -> np.ndarray:
    """Evaluate by Horner's scheme at a point (an (m, n) matrix) or at every point
    of an array ``z`` at once (shape ``z.shape + (m, n)``)."""
    z = np.asarray(z, dtype=float)[..., None, None]
    acc = np.zeros(z.shape[:-2] + (p.rows, p.cols))
    if p.coeffs:
        acc[...] = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc *= z
        acc += c
    return acc


def _convolve(a: MatrixPolynomial, b: MatrixPolynomial, rows: int, cols: int,
              product) -> MatrixPolynomial:
    """Coefficient convolution: degree d is sum_{i+j=d} product(A_i, B_j), summed in
    the order of i (a zero factor leaves zeros, which the canonical form strips)."""
    out = [np.zeros((rows, cols)) for _ in range(a.degree + b.degree + 1)]
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = out[i + j] + product(ai, bj)
    return MatrixPolynomial(rows=rows, cols=cols, coeffs=tuple(out))


def poly_mul(a: MatrixPolynomial, b: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient convolution; pointwise it is the matrix product a(z) b(z)."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: ({a.rows},{a.cols}) @ ({b.rows},{b.cols})")
    return _convolve(a, b, a.rows, b.cols, np.matmul)


def poly_kron(a: MatrixPolynomial, b: MatrixPolynomial) -> MatrixPolynomial:
    """Kronecker product: coefficient at degree d is sum_{i+j=d} kron(A_i, B_j)."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    return _convolve(a, b, rows, cols, lambda x, y: (
        x[:, None, :, None] * y[None, :, None, :]).reshape(rows, cols))


def _assemble(blocks: dict, row_sizes, col_sizes) -> MatrixPolynomial:
    """The block polynomial whose (i, j) block is ``blocks[(i, j)]`` on the grid of
    ``row_sizes`` x ``col_sizes``; absent blocks are zero, and each block's shape
    must match its grid cell."""
    r0, c0 = np.cumsum([0, *row_sizes]).tolist(), np.cumsum([0, *col_sizes]).tolist()
    deg = max((b.degree for b in blocks.values()), default=-1)
    out = np.zeros((deg + 1, r0[-1], c0[-1]))
    for (i, j), b in blocks.items():
        if b.coeffs:
            out[: b.degree + 1, r0[i] : r0[i + 1], c0[j] : c0[j + 1]] = b.coeffs
    return MatrixPolynomial(rows=r0[-1], cols=c0[-1], coeffs=tuple(out))


def poly_direct_sum(a: MatrixPolynomial, b: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient-wise block diagonal; the shorter coefficient list is zero-padded."""
    return _assemble({(0, 0): a, (1, 1): b}, (a.rows, b.rows), (a.cols, b.cols))


def poly_vstack(a: MatrixPolynomial, b: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient-wise vertical stack [a; b]; shapes must share the column count."""
    if a.cols != b.cols:
        raise ValueError("vstack needs equal column counts")
    return _assemble({(0, 0): a, (1, 0): b}, (a.rows, b.rows), (a.cols,))


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

    B_p         -- sum of coefficient spectral norms; certified upper bound on I.
    M_p_lower   -- grid maximum of ||p(z)||_2, each norm rounded up by the SVD factor
                   (``_SVD_REL_ERR``), so a lower bound of M_p up to that factor.
    M_p_upper   -- grid maximum plus Mean-Value-Inequality slack and rounding terms,
                   capped by B_p but never below M_p_lower; a certified upper bound
                   of M_p.
    M_pprime    -- sqrt(rows) * certified upper bound of sup ||p'(z)||_2.
    grid_step   -- the actual grid spacing used.
    evaluations -- the number of (grid point, tower level) spectral norms computed,
                   coefficients excluded: at most (grid points) x (degree + 1), fewer
                   by every point the Lipschitz envelope rules out.
    coeff_norms -- the certified spectral norms of p's coefficients A_0, ..., A_deg,
                   whose upward sum is B_p.
    bound_by    -- which term set M_p_upper: ``"grid"`` when it is the grid bound
                   (grid maximum + grid_step/2 * sup ||p'|| + rounding, or the grid
                   maximum alone), ``"coefficients"`` when the cap B_p was lower.
    rounding    -- the explicit rounding terms of the grid bound at level 0, summed
                   upward: the Horner error of the grid values and the linspace
                   term (see ``norm_certificate``).  So M_p_upper - M_p_lower is at
                   most grid_step/2 * M_pprime / sqrt(rows) + rounding, up to the
                   ulps of the upward-rounded sums.
    """

    B_p: float
    M_p_lower: float
    M_p_upper: float
    M_pprime: float
    grid_step: float
    evaluations: int
    coeff_norms: tuple = ()
    bound_by: str = "grid"
    rounding: float = 0.0


_GRID_BLOCK = 256
# the coarse pass of ``norm_certificate`` takes every _COARSE-th grid point and both ends
_COARSE = 16


def _grid_norms(tower: MatrixPolynomial, zs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The (len(zs), L) spectral norms of the tower's L levels at the points ``zs``,
    computed where ``mask`` is set and 0.0 elsewhere.  Points go in blocks of at most
    ``_GRID_BLOCK``: held whole, the evaluated tower is a (G, L m, n) array, 9 MB for
    m = n = 12, degree 3 and 2,001 points."""
    out = np.zeros(mask.shape)
    for lo in range(0, len(zs), _GRID_BLOCK):
        rows = slice(lo, lo + _GRID_BLOCK)
        vals = poly_eval(tower, zs[rows]).reshape(*mask[rows].shape, -1, tower.cols)
        out[rows][mask[rows]] = _spectral_norms(vals[mask[rows]])
    return out


def norm_certificate(p: MatrixPolynomial, grid_step: float = 1e-3) -> NormCertificate:
    """Certify sup_{|z|<=1} ||p(z)||_2 from a grid plus Lipschitz slack.

    ``grid_step`` must lie in (0, 1]; the grid always includes both endpoints and the
    realized spacing (recorded in the certificate) never exceeds the request.  The
    tower p, p', ..., p^(deg) is stacked into one (L m) x n polynomial, so each Horner
    sweep evaluates every level at once.  Level k is bounded by

        u_k = max(min(up(g_k + h_k + rho d_k), b_k), g_k),   d_k = up(u_{k+1} + e_{k+1}),

    bottom (constant) level first, with u and e zero past it.  Here g_k is the grid
    maximum of level k, b_k its coefficient-norm sum (summed toward +inf), and up()
    rounds a sum or product toward +inf.  The rounding terms are
    ``h_k = (deg + 1) eps sqrt(r) b_k`` (Horner), ``rho = step/2 + 4 eps`` (the
    linspace points) and ``e_k = eps sqrt(r) b_k`` (the stored derivative
    coefficients), with ``r = min(m, n)`` and eps the machine epsilon (u = eps / 2).
    The ``max`` keeps the bound from dipping below the grid maximum, whose Horner
    values round differently from b_k.  ``M_pprime`` is ``sqrt(m) d_0`` and
    ``rounding`` is ``up(h_0 + rho d_0 - step/2 d_0)``.

    Why u_k >= sup_I ||P_k||, for the stored level-k polynomial P_k = sum_j C_j z^j
    taken exactly, assuming it of level k + 1:

    - Grid: ``np.linspace`` computes point i as fl(fl(i s) - 1) with
      s = fl(2 / (npts - 1)) = step, the last point being exactly 1.  That is
      within 5u of -1 + 2i / (npts - 1), whose spacing is at most step (1 + u), and
      step <= 1.  So every z in I lies within step/2 + 3 eps of a grid point z_i,
      and rho, rounded to nearest, still exceeds that.
    - Mean value: ||P_k(z) - P_k(z_i)|| <= |z - z_i| sup ||P_k'|| holds in the
      operator norm itself (integrate P_k' from z_i to z), so no factor for the
      shape is needed.  Level k + 1 stores fl(j C_j), each entry within
      u / (1 - u) |fl(j C_j)| of j C_j, so the derivative differs from P_{k+1} by at
      most (u / (1 - u)) sqrt(r) b_{k+1} <= e_{k+1} in the 2-norm (the Frobenius
      norm of an m x n matrix is at most sqrt(r) times its 2-norm).  Hence
      sup ||P_k'|| <= u_{k+1} + e_{k+1} <= d_k.
    - Horner: ||P_k(z_i)|| <= F_k(z_i) + h_k <= g_k + h_k, by the Horner and SVD
      bounds proved below for the pruning.
    - Cap: ||P_k(z)|| <= sum_j ||C_j||_2 |z|^j <= b_k on I.

    So sup ||P_k|| <= min(g_k + h_k + rho d_k, b_k) <= u_k.  h_k exceeds the Horner
    bound gamma_{2 deg} sqrt(r) b_k by a relative 1 / deg, e_k its bound by a factor
    of 2 and rho its bound by 0.7 eps, far more than the few units of u their own
    computation loses; the sums and the product with rho are rounded upward.  d_0
    likewise bounds sup ||p'||.

    Each g_k is the maximum of the computed norms F_k(z) over the whole grid, but an
    SVD is taken only where it can change that maximum:

    1. Coarse pass: F_k at every ``_COARSE``-th grid point and both endpoints, for
       every level but the constant top one, which takes its first point only (its
       Horner value is the same matrix at every z, so is its norm).  G_k is the
       maximum found.
    2. Envelope test: between coarse neighbours a < b, level k < top is refined
       unless ``E (1 + rel) + 4 h_k <= G_k``, where
       ``E = (F_k(a) + F_k(b) + (b - a) b_{k+1}) / 2``, ``rel = 2 c + (sqrt(r) + 8)
       eps`` and ``h_k = (deg + 1) eps sqrt(r) b_k``, with ``c = _SVD_REL_ERR max(m, n)``,
       ``r = min(m, n)`` and eps the machine epsilon (u = eps / 2).
    3. Refine pass: F_k at the interior points of every refined (interval, level)
       pair, in blocks of at most ``_GRID_BLOCK`` points.

    Why a skipped point z in (a, b) has F_k(z) <= G_k.  Let f(z) = ||P(z)||_2 for the
    stored level-k polynomial P = sum_j C_j z^j, exactly.

    - Lipschitz envelope: ||P(z) - P(y)|| <= |z - y| sup ||P'|| and
      sup ||P'|| <= L = sum_j j ||C_j||_2.  Level k+1 stores fl(j C_j), off by at
      most eps |fl(j C_j)| per entry, so L <= (1 + eps sqrt(r)) b_{k+1} (the
      Frobenius norm of an m x n matrix is at most sqrt(r) times its 2-norm).  The
      cones from a and b meet no higher than (f(a) + f(b) + (b - a) L) / 2.
    - Horner: the computed matrix is within h_k of P(z) in the 2-norm, as the
      entrywise bound gamma_{2 deg} sum_j |C_j| |z|^j (Higham, *Accuracy and
      Stability*, section 5.1), |z| <= 1, is at most (deg + 1) eps sqrt(r) b_k.
    - SVD: a computed norm is an upper bound of its matrix's norm and at most
      (1 + 2 c) times it (see ``_SVD_REL_ERR``); 1 x 1 norms are exact.  So
      f(a) <= F_k(a) + h_k, likewise at b, and F_k(z) <= (1 + 2 c)(f(z) + h_k).

    Together F_k(z) <= (1 + 2 c)(1 + eps sqrt(r))(E' + 2 h_k), with E' the value of
    E in exact arithmetic.  The float E is four roundings from E', so
    E' <= (1 + 2 eps) E to first order; the test's own three roundings cost at most
    2 eps more, which leaves ``rel`` 4 eps for the second-order terms, and 4 h_k
    covers 2 (1 + 2 c)(1 + eps sqrt(r)) h_k.  Hence F_k(z) <= G_k: the maximum is
    unchanged, and every field but ``evaluations`` equals that of the full-grid pass
    bit for bit.
    """
    if not (0.0 < grid_step <= 1.0):
        raise ValueError("grid_step must lie in (0, 1]")
    npts = int(math.ceil(2.0 / grid_step)) + 1
    grid = np.linspace(-1.0, 1.0, npts)
    step = 2.0 / (npts - 1)
    if not p.coeffs:
        return NormCertificate(B_p=0.0, M_p_lower=0.0, M_p_upper=0.0, M_pprime=0.0,
                               grid_step=step, evaluations=0)

    levels = [p]
    for _ in range(p.degree):
        levels.append(poly_derivative(levels[-1]))
    top = p.degree
    tower = _assemble({(k, 0): level for k, level in enumerate(levels)},
                      [p.rows] * len(levels), [p.cols])
    coeff_norms = _spectral_norms(np.reshape(tower.coeffs, (-1, len(levels), p.rows, p.cols)))
    b = [_upward_sum(level) for level in coeff_norms.T.tolist()]

    coarse = np.r_[0:npts - 1:_COARSE, npts - 1]
    at_coarse = np.ones((len(coarse), len(levels)), dtype=bool)
    at_coarse[1:, top] = False
    f = _grid_norms(tower, grid[coarse], at_coarse)
    g = f.max(axis=0)

    r = min(p.rows, p.cols)
    eps = np.finfo(float).eps
    rel = 2.0 * _SVD_REL_ERR * max(p.rows, p.cols) + (math.sqrt(r) + 8.0) * eps
    horner = [(p.degree + 1) * eps * math.sqrt(r) * bk for bk in b]
    envelope = 0.5 * (f[:-1, :top] + f[1:, :top] + np.diff(grid[coarse])[:, None] * b[1:])
    refine = envelope * (1.0 + rel) + 4.0 * np.asarray(horner[:top]) > g[:top]
    todo = np.zeros((npts, len(levels)), dtype=bool)
    todo[:-1, :top] = np.repeat(refine, np.diff(coarse), axis=0)
    todo[coarse] = False
    points = np.flatnonzero(todo.any(axis=1))
    refined = _grid_norms(tower, grid[points], todo[points]).max(axis=0, initial=0.0)
    g = np.maximum(g, refined).tolist()

    rho = 0.5 * step + 4.0 * eps
    deriv = [eps * math.sqrt(r) * bk for bk in b[1:]] + [0.0]
    u, d = 0.0, 0.0
    for k in reversed(range(len(levels))):
        d = _upward_sum([u, deriv[k]])
        grid_bound = _upward_sum([g[k], horner[k], _upward_product(rho, d)])
        u = max(min(grid_bound, b[k]), g[k])
    return NormCertificate(
        B_p=b[0],
        M_p_lower=g[0],
        M_p_upper=u,
        M_pprime=math.sqrt(p.rows) * d,
        grid_step=step,
        evaluations=int(at_coarse.sum() + todo.sum()),
        coeff_norms=tuple(coeff_norms[:, 0].tolist()),
        bound_by="coefficients" if g[0] <= b[0] < grid_bound else "grid",
        rounding=_upward_sum([horner[0], _upward_product(rho, d), -0.5 * step * d]),
    )


@dataclass(frozen=True)
class ConditionReport:
    """The three conditions, with the norm certificate that decided (ii) and (iii)."""

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    certificate: NormCertificate


def check_conditions(p: MatrixPolynomial, lam: float, grid_step: float = 1e-3) -> ConditionReport:
    """The contraction condition chain (i) => (ii) => (iii).

    (i)   every ||A_i||_2 < lam and lam * (deg + 1) < 1, from the certificate's
          coefficient norms;
    (ii)  B_p < 1;
    (iii) M_p_upper < 1 (certified).
    """
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    cert = norm_certificate(p, grid_step=grid_step)
    cond_i = all(nrm < lam for nrm in cert.coeff_norms) and lam * (p.degree + 1) < 1.0
    return ConditionReport(cond_i=cond_i, cond_ii=cert.B_p < 1.0,
                           cond_iii=cert.M_p_upper < 1.0, certificate=cert)


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
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite")
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
        return cls(arity=w.size, terms=zip(map(tuple, np.eye(w.size, dtype=int)), w))

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


def _monomial_products(X: np.ndarray, alphas, start) -> np.ndarray:
    """Column k is ``start[k] * prod_i X[:, i]**alphas[k][i]`` over the (B, n) block X,
    multiplied in variable order, elementwise, so no row depends on the others."""
    out = np.tile(np.asarray(start, dtype=float), (X.shape[0], 1))
    alphas = np.asarray(alphas, dtype=int).reshape(-1, X.shape[1])
    for i, col in enumerate(alphas.T):
        for e in np.unique(col[col > 0]).tolist():
            hit = col == e
            out[:, hit] *= X[:, i:i + 1] ** e
    return out


def _poly_values(h: ScalarPolynomial, X: np.ndarray) -> np.ndarray:
    """h at every row of the (B, arity) block X: 0.0 and then the terms in stored
    order, summed left to right (``cumsum`` is sequential; a reduction may regroup)."""
    alphas, coeffs = zip(((0,) * h.arity, 0.0), *h.terms)
    return np.cumsum(_monomial_products(X, alphas, coeffs), axis=1)[:, -1]


def scalar_poly_eval(h: ScalarPolynomial, x) -> float:
    """sum over terms of coeff * prod x_i**alpha_i (one row of ``_poly_values``)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != h.arity:
        raise ValueError(f"arity mismatch: polynomial has {h.arity}, got {x.size}")
    return float(_poly_values(h, x[None])[0])


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
