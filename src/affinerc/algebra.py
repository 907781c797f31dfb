"""Sums, scalings and products of reservoir functionals as new reservoir systems.

The constructions are purely structural:

* SAS sum      H1 + lam*H2  -> state R^{N1} (+) R^{N2}, p = p1 (+) p2 (block diag),
  q = [q1; q2], W = [W1; lam*W2].
* SAS product  H1 * H2      -> state R^{N1} (+) R^{N2} (+) (R^{N1} (x) R^{N2}); the
  third state block carries x1 (x) x2, whose update
  (p1 x1 + q1) (x) (p2 x2 + q2) expands into the block-lower-triangular polynomial
  assembled below; q gains the block q1 (x) q2 and the readout is [0; 0; W1 (x) W2].
* linear sum/product        -> A = A1 (+) A2, c = [c1; c2], readout h1 + lam*h2 or
  h1 * h2 on the partitioned state.

Composed systems are always re-certified numerically instead of trusting the
min-margin argument; the theoretical margin is recorded alongside.  For products the
off-diagonal blocks can push the certified operator norm of the composed polynomial
to 1 or beyond even though each factor is contractive — in that case composition
fails with an error carrying the offending certificate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .polynomials import (
    NormCertificate,
    ScalarPolynomial,
    _assemble,
    _poly_values,
    norm_certificate,
    poly_direct_sum,
    poly_kron,
    poly_vstack,
)
from .sequences import BoundedSequence
from .systems import (
    LinearSystem,
    SASSystem,
    _readout_vector,
    evaluate_batch,
    system_to_json,
)

__all__ = [
    "ComposedSystem",
    "CompositionError",
    "sas_add",
    "sas_multiply",
    "linear_combine",
    "generic_parallel_compose",
    "ParallelFilter",
    "short_id",
]


class CompositionError(ValueError):
    """Raised when a composed polynomial fails numerical recertification."""

    def __init__(self, message: str, certificate: NormCertificate):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class ComposedSystem:
    kind: str  # sas_sum | sas_product | linear_sum | linear_product
    result: object  # SASSystem or LinearSystem
    parents: tuple
    lam: float | None
    theoretical_margin: float


def short_id(system) -> str:
    """Stable 8-hex-digit identifier derived from the serialized system."""
    blob = json.dumps(system_to_json(system), sort_keys=True).encode()
    return hashlib.sha1(blob).hexdigest()[:8]


def _effective_margin(theory: float, cert: NormCertificate) -> float:
    # keep the theoretical margin when the certificate confirms it, otherwise
    # fall back to half the certified headroom below 1
    if cert.M_p_upper < 1.0 - theory:
        return theory
    return 0.5 * (1.0 - cert.M_p_upper)


def _build_sas(p, q, W, theory: float, kind: str, grid_step: float) -> SASSystem:
    cert = norm_certificate(p, grid_step=grid_step)
    if not cert.M_p_upper < 1.0:
        raise CompositionError(
            f"{kind}: composed polynomial is not certifiably contractive "
            f"(M_p upper bound {cert.M_p_upper:.6g} >= 1)",
            cert,
        )
    eps = _effective_margin(theory, cert)
    # what SASSystem.create would check holds by construction (p square, q N x 1,
    # M_p_upper < 1 - eps), so p keeps its one certificate
    return SASSystem(p=p, q=q, W=_readout_vector(W, p.rows), eps=eps, p_cert=cert,
                     q_cert=norm_certificate(q, grid_step=grid_step))


def sas_add(
    s1: SASSystem,
    s2: SASSystem,
    lam: float,
    parents=None,
    grid_step: float = 0.01,
) -> ComposedSystem:
    """Realize H1 + lam*H2 on the direct-sum state space."""
    p = poly_direct_sum(s1.p, s2.p)
    q = poly_vstack(s1.q, s2.q)
    W = np.concatenate([s1.W, lam * s2.W])
    theory = min(s1.eps, s2.eps)
    if parents is None:
        parents = (short_id(s1), short_id(s2))
    result = _build_sas(p, q, W, theory, "sas_add", grid_step)
    return ComposedSystem(
        kind="sas_sum", result=result, parents=tuple(parents), lam=float(lam),
        theoretical_margin=theory,
    )


def sas_multiply(
    s1: SASSystem,
    s2: SASSystem,
    parents=None,
    grid_step: float = 0.01,
) -> ComposedSystem:
    """Realize H1 * H2 on R^{N1} (+) R^{N2} (+) (R^{N1} (x) R^{N2})."""
    N1, N2 = s1.N, s2.N
    sizes = (N1, N2, N1 * N2)  # the three state blocks, in rows and columns
    p = _assemble({
        (0, 0): s1.p,
        (1, 1): s2.p,
        (2, 0): poly_kron(s1.p, s2.q),  # v1 -> (p1 v1) (x) q2
        (2, 1): poly_kron(s1.q, s2.p),  # v2 -> q1 (x) (p2 v2)
        (2, 2): poly_kron(s1.p, s2.p),
    }, sizes, sizes)
    q = _assemble({(0, 0): s1.q, (1, 0): s2.q, (2, 0): poly_kron(s1.q, s2.q)}, sizes, (1,))
    W = np.concatenate([np.zeros(N1), np.zeros(N2), np.kron(s1.W, s2.W)])
    theory = min(s1.eps, s2.eps)
    if parents is None:
        parents = (short_id(s1), short_id(s2))
    result = _build_sas(p, q, W, theory, "sas_multiply", grid_step)
    return ComposedSystem(
        kind="sas_product", result=result, parents=tuple(parents), lam=None,
        theoretical_margin=theory,
    )


def linear_combine(
    s1: LinearSystem,
    s2: LinearSystem,
    mode: str,
    lam: float = 1.0,
    parents=None,
) -> ComposedSystem:
    """Sum (with scaling) or product of linear-reservoir functionals.

    The composed reservoir is shared: A = A1 (+) A2, c = [c1; c2]; only the readout
    differs.  sigma_max(A1 (+) A2) = max(sigma1, sigma2), so the min margin is exact.
    """
    if mode not in ("sum", "product"):
        raise ValueError("mode must be 'sum' or 'product'")
    if s1.input_dim != s2.input_dim:
        raise ValueError(
            f"input dimension mismatch: {s1.input_dim} vs {s2.input_dim}"
        )
    N1, N2 = s1.N, s2.N
    A = np.zeros((N1 + N2, N1 + N2))
    A[:N1, :N1] = s1.A
    A[N1:, N1:] = s2.A
    c = np.vstack([s1.c, s2.c])
    h1 = s1.h.embed(N1 + N2, 0)
    h2 = s2.h.embed(N1 + N2, N1)
    if mode == "sum":
        h = h1.add(h2.scale(lam))
    else:
        h = h1.mul(h2)
    theory = min(s1.eps, s2.eps)
    if parents is None:
        parents = (short_id(s1), short_id(s2))
    result = LinearSystem.create(A=A, c=c, h=h, eps=theory)
    return ComposedSystem(
        kind=f"linear_{mode}", result=result, parents=tuple(parents),
        lam=float(lam) if mode == "sum" else None, theoretical_margin=theory,
    )


@dataclass(frozen=True)
class ParallelFilter:
    """Two filters run side by side, outputs merged by a two-variable polynomial.

    The state is the pair of sub-states; nothing is trained here.  Because the parts
    may themselves be ParallelFilters, this is the closure device generating the
    polynomial algebra over any admissible family.
    """

    left: object
    right: object
    combiner: ScalarPolynomial

    def __post_init__(self) -> None:
        if self.combiner.arity != 2:
            raise ValueError("combiner must be a polynomial in exactly 2 variables")

    def evaluate_batch(self, inputs, tol: float = 1e-9) -> np.ndarray:
        """Both parts as batches, then the combiner on the (B, 2) output pairs."""
        pairs = np.column_stack([evaluate_batch(self.left, inputs, tol),
                                 evaluate_batch(self.right, inputs, tol)])
        return _poly_values(self.combiner, pairs)

    def evaluate(self, z: BoundedSequence, tol: float = 1e-9) -> float:
        return float(self.evaluate_batch([z], tol)[0])


def generic_parallel_compose(f1, f2, combiner: ScalarPolynomial) -> ParallelFilter:
    """Pair two reservoir runners and combine their outputs polynomially."""
    return ParallelFilter(left=f1, right=f2, combiner=combiner)
