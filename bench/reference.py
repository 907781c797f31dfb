"""Independent NumPy references for the benchmark's output checks.

Nothing here imports ``affinerc``: every value the checker compares against is
recomputed from the generated fixture with plain NumPy, following the definitions
the seed code documents (certificate formula, candidate families, input and
ensemble generators, ridge readout).  Spectral norms come from LAPACK's SVD rather
than power iteration, and filter values are exact recursions rather than truncated
series, so the references differ from a correct program only by the program's own
documented tolerances.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------------
# matrix polynomials and certificates


def spec_norm(a) -> float:
    a = np.asarray(a, dtype=float)
    if a.size == 0 or not np.any(a):
        return 0.0
    return float(np.linalg.norm(a, 2))


def strip(coeffs) -> list:
    """Drop trailing all-zero coefficients (the seed's canonical form)."""
    out = [np.asarray(c, dtype=float) for c in coeffs]
    while out and not np.any(out[-1]):
        out.pop()
    return out


def poly_at(coeffs, z):
    """p(z) by Horner's scheme; ``z`` may be a scalar or a 1-D array of points."""
    z = np.asarray(z, dtype=float)
    acc = np.broadcast_to(coeffs[-1], z.shape + coeffs[-1].shape).copy()
    for c in reversed(coeffs[:-1]):
        acc = acc * z[..., None, None] + c
    return acc


def derivative(coeffs) -> list:
    return strip(i * coeffs[i] for i in range(1, len(coeffs)))


def _grid_max(coeffs, grid) -> float:
    if not coeffs:
        return 0.0
    return float(np.max(np.linalg.svd(poly_at(coeffs, grid), compute_uv=False)[:, 0]))


def _sup_upper(coeffs, shape, grid, step) -> float:
    if not coeffs:
        return 0.0
    b = sum(spec_norm(c) for c in coeffs)
    lower = _grid_max(coeffs, grid)
    if len(coeffs) <= 1:
        return min(lower, b)
    slack = 0.5 * step * math.sqrt(shape[0] * shape[1]) * _sup_upper(
        derivative(coeffs), shape, grid, step)
    return max(min(lower + slack, b), lower)


def _grid(grid_step: float):
    npts = int(math.ceil(2.0 / grid_step)) + 1
    return np.linspace(-1.0, 1.0, npts), 2.0 / (npts - 1)


def grid_lower(coeffs, grid_step: float) -> float:
    """max ||p(z)||_2 over the grid of that step: a lower bound of the sup."""
    return _grid_max(strip(coeffs), _grid(grid_step)[0])


def certificate(coeffs, grid_step: float) -> dict:
    """The seed's grid-plus-slack certificate of sup_{|z|<=1} ||p(z)||_2, by SVD."""
    coeffs = strip(coeffs)
    shape = coeffs[0].shape if coeffs else (0, 0)
    grid, step = _grid(grid_step)
    b = sum(spec_norm(c) for c in coeffs)
    lower = _grid_max(coeffs, grid)
    if len(coeffs) <= 1:
        upper = lower
    else:
        slack = 0.5 * step * math.sqrt(shape[0] * shape[1]) * _sup_upper(
            derivative(coeffs), shape, grid, step)
        upper = max(min(lower + slack, b), lower)
    return {"B_p": b, "M_p_lower": lower, "M_p_upper": upper}


def nilpotency(coeffs, n: int):
    """(nilpotent, index): smallest k <= n with p(z)^k identically zero."""
    p = strip(coeffs)
    power = p
    for k in range(1, n + 1):
        if all(not np.any(c) for c in power):
            return True, k
        if k < n:
            out = [np.zeros((n, n)) for _ in range(len(power) + len(p) - 1)]
            for i, a in enumerate(power):
                for j, b in enumerate(p):
                    out[i + j] = out[i + j] + a @ b
            power = strip(out)
    return False, None


# ---------------------------------------------------------------------------------
# filters, evaluated exactly on zero-extended windows


def sas_fixed_point(P, Q):
    """State the zero-extended past leaves behind: solve x = p(0) x + q(0)."""
    N = P[0].shape[0]
    q0 = Q[0][:, 0] if Q else np.zeros(N)
    return np.linalg.solve(np.eye(N) - P[0], q0)


def sas_states(P, Q, Z, last_only=False):
    """Recursion x_t = p(z_t) x_{t-1} + q(z_t) over a batch Z (B, T).

    It starts from the zero-extension fixed point, which makes every state the
    exact filter value.  Returns (B, T, N), or the (B, N) states at t = 0.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    B, T = Z.shape
    N = P[0].shape[0]
    X = np.tile(sas_fixed_point(P, Q), (B, 1))
    out = None if last_only else np.empty((B, T, N))
    Pt = [c.T for c in P]
    qv = [c[:, 0] for c in Q]
    for t in range(T):
        zt = Z[:, t][:, None]
        acc = X @ Pt[-1] if Pt else np.zeros_like(X)
        for c in reversed(Pt[:-1]):
            acc = acc * zt + X @ c
        if qv:
            qacc = np.broadcast_to(qv[-1], X.shape).copy()
            for c in reversed(qv[:-1]):
                qacc = qacc * zt + c
            acc = acc + qacc
        X = acc
        if out is not None:
            out[:, t] = X
    return X if last_only else out


def linear_states(A, c, Z, last_only=False):
    """x_t = A x_{t-1} + c z_t from the zero state over Z (B, T, d): exact for a
    zero-extended input.  Returns (B, T, N), or the (B, N) states at t = 0."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 2:
        Z = Z[:, :, None]
    B, T, _ = Z.shape
    X = np.zeros((B, A.shape[0]))
    out = None if last_only else np.empty((B, T, A.shape[0]))
    for t in range(T):
        X = X @ A.T + Z[:, t] @ c.T
        if out is not None:
            out[:, t] = X
    return X if last_only else out


def scalar_poly(terms, X):
    """Evaluate sum coeff * prod x_i**alpha_i on rows of X (..., arity)."""
    X = np.asarray(X, dtype=float)
    total = np.zeros(X.shape[:-1])
    for alpha, coeff in terms:
        term = np.full(X.shape[:-1], float(coeff))
        for i, e in enumerate(alpha):
            if e:
                term = term * X[..., i] ** e
        total = total + term
    return total


def h_terms(doc) -> list:
    return [(tuple(t["alpha"]), float(t["coeff"])) for t in doc["terms"]]


def poly_coeffs(doc) -> list:
    r, c = int(doc["rows"]), int(doc["cols"])
    return strip(np.asarray(f, dtype=float).reshape(r, c) for f in doc["coeffs"])


def filter_values(doc, Z):
    """Time-0 value of a system or target document on each window of Z (B, T)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    kind = doc.get("type") or doc.get("kind")
    if kind == "sas":
        P, Q = poly_coeffs(doc["p"]), poly_coeffs(doc["q"])
        return sas_states(P, Q, Z, last_only=True) @ np.asarray(doc["W"], dtype=float)
    if kind in ("linear", "linear_iir"):
        A = np.asarray(doc["A"], dtype=float)
        c = np.asarray(doc["c"], dtype=float).reshape(A.shape[0], -1)
        return scalar_poly(h_terms(doc["h"]), linear_states(A, c, Z, last_only=True))
    if kind == "finite_volterra":
        m = int(doc["memory"])
        U = Z[:, ::-1][:, :m]
        out = np.full(Z.shape[0], float(doc.get("k0", 0.0)))
        if doc.get("k1") is not None:
            out = out + U @ np.asarray(doc["k1"], dtype=float)
        if doc.get("k2") is not None:
            out = out + np.einsum("bi,ij,bj->b", U, np.asarray(doc["k2"], dtype=float), U)
        return out
    if kind == "tanh_of_linear":
        w = np.asarray(doc["weights"], dtype=float)
        return np.tanh(Z[:, ::-1][:, : w.size] @ w)
    if kind == "bounded_arma":
        return arma(Z, doc.get("ar", []), doc.get("ma", []), float(doc["clip"]))[:, -1]
    raise ValueError(f"no reference for filter kind {kind!r}")


def arma(U, ar, ma, clip):
    """Clipped ARMA recursion driven by each row of U (B, T), in the seed's term order."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    B, T = U.shape
    y = np.zeros((B, T))
    for t in range(T):
        acc = U[:, t].copy()
        for i, phi in enumerate(ar, start=1):
            if t - i >= 0:
                acc = acc + phi * y[:, t - i]
        for j, theta in enumerate(ma, start=1):
            if t - j >= 0:
                acc = acc + theta * U[:, t - j]
        y[:, t] = np.minimum(np.maximum(acc, -clip), clip)
    return y


# ---------------------------------------------------------------------------------
# input generators


def uniform_inputs(n: int, window: int, bound: float, seed: int):
    """The seed's ``generate_uniform_inputs`` as one (n, window) array."""
    rng = np.random.default_rng((seed, 0x75))
    return rng.uniform(-bound, bound, size=(n, window))


def ensemble(desc: dict, n_paths: int, window: int, seed: int):
    """The seed's ``generate_ensemble`` paths as one (n_paths, window) array."""
    M = float(desc.get("bound", 1.0))
    kind = desc["kind"]
    if kind == "iid_uniform":
        return np.stack([np.random.default_rng((seed, i)).uniform(-M, M, size=window)
                         for i in range(n_paths)])
    U = np.stack([np.random.default_rng((seed, i)).uniform(-1.0, 1.0, size=window)
                  for i in range(n_paths)])
    if kind == "clipped_ar1":
        phi, sigma = float(desc["phi"]), float(desc["sigma"])
        out = np.zeros_like(U)
        prev = np.zeros(n_paths)
        for t in range(window):
            prev = np.minimum(np.maximum(phi * prev + sigma * U[:, t], -M), M)
            out[:, t] = prev
        return out
    if kind == "bounded_arma":
        return arma(U, desc.get("ar", []), desc.get("ma", []), M)
    raise ValueError(f"unknown ensemble kind {kind!r}")


# ---------------------------------------------------------------------------------
# the approximation pipeline


def _scaled(rng, rows, cols, deg, target):
    coeffs = [rng.standard_normal((rows, cols)) for _ in range(deg + 1)]
    total = sum(spec_norm(c) for c in coeffs)
    if total > 0.0:
        coeffs = [c * (target / total) for c in coeffs]
    return strip(coeffs)


def candidate(family: str, N: int, deg_p: int, deg_q: int, eps: float, seed: int):
    """The seed's ``sample_candidate`` as a state map: Z (B, T) -> terminal states."""
    rng = np.random.default_rng(seed)
    target = 0.95 * (1.0 - eps)
    if family in ("SAS_eps", "NS_eps"):
        if family == "SAS_eps":
            P = _scaled(rng, N, N, deg_p, target)
        else:
            J = np.triu(rng.standard_normal((N, N)), k=1)
            nrm = spec_norm(J)
            if nrm > 0.0:
                J = J * (target / nrm)
            P = strip([np.zeros((N, N)), J])
            if not P:
                P = [np.zeros((N, N))]
        Q = _scaled(rng, N, 1, deg_q, target)
        return lambda Z: sas_states(P, Q, Z, last_only=True)
    if family == "L_eps":
        A = rng.standard_normal((N, N))
        sig = spec_norm(A)
        if sig > 0.0:
            A = A * (target / sig)
    elif family == "DL_eps":
        A = np.diag(rng.uniform(-(1.0 - eps), 1.0 - eps, size=N))
    elif family == "NL":
        A = np.eye(N, k=-1)
    else:
        raise ValueError(f"unknown family {family!r}")
    c = rng.standard_normal((N, 1))
    return lambda Z: linear_states(A, c, Z, last_only=True)


def ridge(X, y, lam):
    F = X.shape[1]
    if lam == 0.0:
        w, *_ = np.linalg.lstsq(X, y, rcond=None)
        return w
    Xa = np.vstack([X, math.sqrt(lam) * np.eye(F)])
    w, *_ = np.linalg.lstsq(Xa, np.concatenate([y, np.zeros(F)]), rcond=None)
    return w


def approximate_rows(cfg: dict) -> list:
    """(family, N, restart, seed, train_err, test_err) per candidate, as the seed's
    ``approximate`` command reports them for this config."""
    seed = int(cfg.get("seed", 0))
    bound = min(1.0, float(cfg["target"].get("bound", 1.0)))
    window = int(cfg.get("window", 256))
    lam = float(cfg.get("lam_reg", 1e-6))
    Ztr = uniform_inputs(int(cfg.get("n_train", 512)), window, bound, seed * 2 + 1)
    Zte = uniform_inputs(int(cfg.get("n_test", 128)), window, bound, seed * 2 + 2)
    ytr = filter_values(cfg["target"], Ztr)
    yte = filter_values(cfg["target"], Zte)
    rows = []
    for i, row in enumerate(cfg["schedule"]):
        spec_seed = int(row.get("seed", seed * 1009 + i))
        for r in range(int(cfg.get("restarts", 8))):
            cand_seed = spec_seed * 100003 + r
            states = candidate(row["family"], int(row["N"]), int(row.get("deg_p", 1)),
                               int(row.get("deg_q", 1)), float(row.get("eps", 0.1)),
                               cand_seed)
            X, Xt = states(Ztr), states(Zte)
            w = ridge(X, ytr, lam)
            rows.append((row["family"], int(row["N"]), r, cand_seed,
                         float(np.max(np.abs(X @ w - ytr))),
                         float(np.max(np.abs(Xt @ w - yte)))))
    return rows
