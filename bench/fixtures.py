"""Seeded fixture generator: every file the benchmark's operations consume.

``make_round(workload, seed, index, directory)`` writes one round of fresh
instances -- systems, polynomials, input CSVs and configs -- and returns the
operations that use them, in a seeded order.  It uses NumPy only, and the same
(workload, seed, index) always writes the same bytes.  Every operation gets its own
instance, because a real CLI call is a fresh process and must not profit from
anything an earlier call left in memory.

Instances are scaled away from every decision threshold the checks compare on
(contraction, B_p < 1, lam), so any sound certificate reaches the same verdicts.

The polynomials and state-affine systems are seeded orthogonal rotations of a
fixed base set (:data:`BASE_SEED`).  Rotation keeps every singular value, hence
every certificate, contraction factor and series length, so each run does the
same amount of certificate and series work while every input file is new; with
freshly drawn matrices a few near-tied spectra per run swing a run's time by a
quarter.  Inputs, linear systems, targets, ensembles and the operation order are
drawn from the run's seed.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from reference import certificate, spec_norm

WORKLOADS = ("certify-compose", "trajectories", "experiments")


@dataclass
class Op:
    """One CLI call: ``argv`` may hold ``{out}``, the directory for its outputs."""

    kind: str
    argv: list
    meta: dict = field(default_factory=dict)
    slot: int = 0  # position in the round before shuffling: the same instance shape

    def args(self, out: str) -> list:
        return [a.replace("{out}", out) for a in self.argv]


# ---------------------------------------------------------------------------------
# documents in the CLI's file formats


def poly_doc(coeffs) -> dict:
    coeffs = [np.atleast_2d(c) for c in coeffs]
    r, c = coeffs[0].shape
    return {"rows": r, "cols": c, "coeffs": [[float(v) for v in m.ravel()] for m in coeffs]}


def sas_doc(P, Q, W, eps) -> dict:
    return {"type": "sas", "p": poly_doc(P), "q": poly_doc(Q),
            "W": [float(v) for v in W], "eps": float(eps)}


def h_doc(terms) -> dict:
    return {"arity": len(terms[0][0]),
            "terms": [{"alpha": list(a), "coeff": float(c)} for a, c in terms]}


def linear_doc(A, c, terms, eps) -> dict:
    return {"type": "linear", "A": [[float(v) for v in row] for row in A],
            "c": [[float(v) for v in row] for row in c], "h": h_doc(terms),
            "eps": float(eps)}


def sequence_csv(window, bound: float = 1.0) -> str:
    lines = ["dim,bound,extension", f"1,{bound!r},zero"]
    lines += [repr(float(v)) for v in window]
    return "\n".join(lines) + "\n"


def _write(path: str, content) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content if isinstance(content, str) else json.dumps(content))
    return path


# ---------------------------------------------------------------------------------
# random instances


def _rand_poly(rng, rows, cols, deg, total):
    coeffs = [rng.standard_normal((rows, cols)) for _ in range(deg + 1)]
    s = sum(spec_norm(c) for c in coeffs)
    return [c * (total / s) for c in coeffs]


def rand_sas(rng, N, b_p, b_q=None, deg_max=2):
    """SAS with coefficient-norm sums b_p, b_q (so K1 <= b_p) and margin eps = 0.1."""
    P = _rand_poly(rng, N, N, int(rng.integers(1, deg_max + 1)), b_p)
    Q = _rand_poly(rng, N, 1, int(rng.integers(1, deg_max + 1)),
                   b_p if b_q is None else b_q)
    return P, Q, rng.standard_normal(N), 0.1


def rand_readout(rng, N, quadratic: int = 0):
    """Linear form plus ``quadratic`` random products x_i x_j."""
    terms = []
    for i, w in enumerate(rng.standard_normal(N) / np.sqrt(N)):
        alpha = [0] * N
        alpha[i] = 1
        terms.append((tuple(alpha), float(w)))
    quad = {}
    for _ in range(quadratic):
        alpha = [0] * N
        for i in rng.integers(0, N, size=2):
            alpha[int(i)] += 1
        quad[tuple(alpha)] = quad.get(tuple(alpha), 0.0) + float(rng.uniform(-0.5, 0.5))
    return terms + sorted(quad.items())


def rand_linear(rng, N, sigma):
    A = rng.standard_normal((N, N))
    A *= sigma / spec_norm(A)
    c = rng.standard_normal((N, 1))
    return A, c / spec_norm(c)


def haar(rng, n):
    """A uniformly distributed random orthogonal n x n matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rotate_sas(rng, P, Q, W, eps):
    """The same filter in rotated state coordinates x' = U x."""
    U = haar(rng, P[0].shape[0])
    return [U @ c @ U.T for c in P], [U @ c for c in Q], U @ W, eps


def product_poly(P1, Q1, P2, Q2):
    """p of the SAS product realization (see ``affinerc.algebra``), for screening."""
    N1, N2 = P1[0].shape[0], P2[0].shape[0]
    n = N1 + N2 + N1 * N2

    def conv(A, B):
        out = [0.0] * (len(A) + len(B) - 1)
        for i, a in enumerate(A):
            for j, b in enumerate(B):
                out[i + j] = out[i + j] + np.kron(a, b)
        return out

    blocks = {(0, 0): P1, (1, 1): P2, (2, 0): conv(P1, Q2), (2, 1): conv(Q1, P2),
              (2, 2): conv(P1, P2)}
    off = {0: 0, 1: N1, 2: N1 + N2}
    deg = max(len(b) for b in blocks.values())
    out = []
    for d in range(deg):
        m = np.zeros((n, n))
        for (r, c), coeffs in blocks.items():
            if d < len(coeffs):
                blk = coeffs[d]
                m[off[r]:off[r] + blk.shape[0], off[c]:off[c] + blk.shape[1]] = blk
        out.append(m)
    return out


# ---------------------------------------------------------------------------------
# certify-compose


CERT_GRID = 1e-3
COMPOSE_GRID = 0.01  # the grid the CLI certifies loaded and composed systems on


def _certify_instance(rng, N, deg, tie, interior=False):
    """A polynomial whose certificate verdicts are unambiguous, plus its lam.

    ``interior`` makes p(z) = (1 - 1.5 z^2) A_0 + small odd terms, whose norm peaks
    between grid points near z = 0 rather than at z = +-1, so an upper bound that
    drops the slack falls below the true supremum there.
    """
    while True:
        if tie:  # p = b (+) U b U^T: the two blocks share every singular value
            U, _ = np.linalg.qr(rng.standard_normal((N // 2, N // 2)))
            coeffs = []
            for _ in range(deg + 1):
                b = rng.standard_normal((N // 2, N // 2))
                m = np.zeros((N, N))
                m[: N // 2, : N // 2] = b
                m[N // 2:, N // 2:] = U @ b @ U.T
                coeffs.append(m)
        else:
            coeffs = [rng.standard_normal((N, N)) for _ in range(deg + 1)]
        if interior:
            coeffs = [c * (0.3 if i % 2 else 1.0) for i, c in enumerate(coeffs)]
            coeffs[2] = -1.5 * coeffs[0]
        ref = certificate(coeffs, CERT_GRID)
        if rng.random() < 0.5:  # contractive: certified upper bound well below 1
            scale = rng.uniform(0.5, 0.9) / ref["M_p_upper"]
        else:  # not contractive: even the grid lower bound is above 1
            scale = rng.uniform(1.1, 1.4) / ref["M_p_lower"]
        lam = float(rng.choice([0.2, 0.3, 0.45]))
        coeffs = [c * scale for c in coeffs]
        norms = [spec_norm(c) for c in coeffs]
        if abs(ref["B_p"] * scale - 1.0) > 0.02 and all(abs(n - lam) > 1e-3 for n in norms):
            return coeffs, lam


def _sas_pair(rng, product: bool):
    while True:
        s1 = rand_sas(rng, int(rng.integers(2, 4)), 0.45 * rng.uniform(0.6, 1.0),
                      0.45 * rng.uniform(0.6, 1.0))
        s2 = rand_sas(rng, int(rng.integers(2, 4)), 0.45 * rng.uniform(0.6, 1.0),
                      0.45 * rng.uniform(0.6, 1.0))
        if not product or certificate(
                product_poly(s1[0], s1[1], s2[0], s2[1]), COMPOSE_GRID)["M_p_upper"] < 0.97:
            return s1, s2


BASE_SEED = 20171202


@functools.lru_cache(maxsize=None)
def _base_certify_compose():
    base = np.random.default_rng((BASE_SEED, 0))
    certs = [_certify_instance(base, N, deg, tie=(deg == 2 and N > 4),
                               interior=(N, deg) in ((4, 2), (8, 3), (12, 3)))
             for N in (4, 8, 12) for deg in (1, 2, 3)]
    pairs = [(mode, _sas_pair(base, mode == "product")) for mode in ("sum", "product") * 4]
    # a fixed lam per pair: the composed certificate's work grows with |lam| by up to
    # a third, which drawn per round would add to the spread across seeds
    lams = base.uniform(-2.0, 2.0, size=len(pairs)).tolist()
    return certs, [(mode, pair, lam) for (mode, pair), lam in zip(pairs, lams)]


def _round_certify_compose(rng, d):
    ops = []
    certs, pairs = _base_certify_compose()
    for base_coeffs, lam in certs:
        i = len(ops)
        U, V = haar(rng, base_coeffs[0].shape[0]), haar(rng, base_coeffs[0].shape[1])
        coeffs = [U @ c @ V.T for c in base_coeffs]
        path = _write(os.path.join(d, f"p{i}.json"), poly_doc(coeffs))
        ops.append(Op("certify", ["certify", path, "--lam", repr(lam), "--grid-step",
                                  repr(CERT_GRID), "-o", "{out}/cert.json"],
                      {"coeffs": coeffs, "lam": lam, "grid_step": CERT_GRID}))
    for mode, pair, lam in pairs:
        i = len(ops)
        docs = [sas_doc(*rotate_sas(rng, *s)) for s in pair]
        paths = [_write(os.path.join(d, f"s{i}_{k}.json"), doc) for k, doc in enumerate(docs)]
        ops.append(Op("compose", ["compose", *paths, "--mode", mode, "--lam", repr(lam),
                                  "-o", "{out}/composed.json"],
                      {"mode": mode, "lam": lam, "parents": docs,
                       "probes": rng.uniform(-1.0, 1.0, size=(3, 64))}))
    for mode in ("sum", "product"):
        i = len(ops)
        docs = []
        for _ in range(2):
            A, c = rand_linear(rng, 10, rng.uniform(0.5, 0.85))
            docs.append(linear_doc(A, c, rand_readout(rng, 10, quadratic=2), 0.1))
        paths = [_write(os.path.join(d, f"l{i}_{k}.json"), doc) for k, doc in enumerate(docs)]
        lam = float(rng.uniform(-2.0, 2.0))
        ops.append(Op("compose", ["compose", *paths, "--mode", mode, "--lam", repr(lam),
                                  "-o", "{out}/composed.json"],
                      {"mode": mode, "lam": lam, "parents": docs,
                       "probes": rng.uniform(-1.0, 1.0, size=(3, 64))}))
    return ops


# ---------------------------------------------------------------------------------
# trajectories


SIM_TOL = 1e-9


def _simulate_ops(rng, d, i, doc, T, methods):
    spath = _write(os.path.join(d, f"sys{i}.json"), doc)
    z = rng.uniform(-1.0, 1.0, size=T)
    zpath = _write(os.path.join(d, f"z{i}.csv"), sequence_csv(z))
    return [Op("simulate", ["simulate", spath, zpath, "--method", m, "--tol", repr(SIM_TOL),
                            "-o", "{out}/trajectory.csv"],
               {"system": doc, "z": z, "method": m, "tol": SIM_TOL})
            for m in methods]


@functools.lru_cache(maxsize=None)
def _base_trajectories():
    base = np.random.default_rng((BASE_SEED, 1))
    systems = [(rand_sas(base, N, base.uniform(0.5, 0.8), base.uniform(0.5, 1.0)), T)
               for N in (4, 8) for T in (256, 1024)]
    # slow forgetting: certified K1 near 0.9, so the series needs hundreds of terms
    P, Q, W, _ = rand_sas(base, 4, 1.0, 0.5, deg_max=1)
    scale = base.uniform(0.9, 0.91) / certificate(P, COMPOSE_GRID)["M_p_upper"]
    systems.append((([c * scale for c in P], Q, W, 0.08), 512))
    return systems


def _round_trajectories(rng, d):
    ops = []
    for s, T in _base_trajectories():
        ops += _simulate_ops(rng, d, len(ops), sas_doc(*rotate_sas(rng, *s)), T,
                             ("recursion", "series"))
    A, c = rand_linear(rng, 20, rng.uniform(0.6, 0.85))
    ops += _simulate_ops(rng, d, len(ops), linear_doc(A, c, rand_readout(rng, 20, 2), 0.1),
                         256, ("recursion",))
    A = np.diag(rng.uniform(-0.9, 0.9, size=20))
    c = rng.standard_normal((20, 1))
    ops += _simulate_ops(rng, d, len(ops), linear_doc(A, c / spec_norm(c),
                                                      rand_readout(rng, 20, 2), 0.05),
                         256, ("recursion",))
    c = rng.standard_normal((16, 1))
    ops += _simulate_ops(rng, d, len(ops), linear_doc(np.eye(16, k=-1), c / spec_norm(c),
                                                      rand_readout(rng, 16, 2), 0.1),
                         256, ("recursion",))
    return ops


# ---------------------------------------------------------------------------------
# experiments


TRANSFER_TOL = 1e-12  # series tails far below the 1e-9 sup-error check


def _approximate_op(d, i, cfg):
    path = _write(os.path.join(d, f"approx{i}.json"), cfg)
    return Op("approximate", ["approximate", path, "--out-dir", "{out}"], {"config": cfg})


def _transfer_op(d, i, cfg):
    path = _write(os.path.join(d, f"transfer{i}.json"), cfg)
    return Op("transfer", ["transfer", path, "-o", "{out}/report.json"], {"config": cfg})


LINEAR_TARGET_NORM = 0.65


def _small_sas(rng):
    return rand_sas(rng, int(rng.integers(2, 4)), 0.6 * rng.uniform(0.4, 1.0),
                    rng.uniform(0.4, 1.0))


@functools.lru_cache(maxsize=None)
def _base_experiments():
    base = np.random.default_rng((BASE_SEED, 2))
    return [_small_sas(base) for _ in range(8)]


def _round_experiments(rng, d, seed, index):
    """``seed`` draws the targets and ensembles.  The seeds that pick the candidate
    systems of ``approximate`` and the random checks of ``verify`` follow the round
    index only, so every run does the same training and verify work per round."""
    ops = []
    k1 = np.array([0.6, -0.3, 0.2, -0.1, 0.05]) * rng.uniform(0.5, 1.5, size=5)
    k2 = np.diag(np.array([0.5, 0.3, 0.2, 0.1, 0.05]) * rng.uniform(0.5, 1.5, size=5))
    ops.append(_approximate_op(d, 0, {
        "seed": index, "n_train": 512, "n_test": 128, "window": 256, "restarts": 2,
        "target": {"kind": "finite_volterra", "memory": 5, "k1": k1.tolist(),
                   "k2": k2.tolist(), "bound": 1.0},
        "schedule": [{"family": "SAS_eps", "N": N, "deg_p": 2, "deg_q": 2, "eps": 0.1}
                     for N in (5, 10, 20, 40)]}))
    families = [{"family": f, "N": 10, "deg_p": 1, "deg_q": 1, "eps": 0.1}
                for f in ("L_eps", "DL_eps", "NL", "NS_eps")]
    targets = [
        {"kind": "tanh_of_linear", "weights": rng.uniform(-0.5, 0.5, size=6).tolist()},
        {"kind": "bounded_arma", "ar": [float(rng.uniform(0.2, 0.6)),
                                        float(rng.uniform(-0.3, 0.0))],
         "ma": [float(rng.uniform(0.0, 0.4))], "clip": 1.0},
    ]
    for k, target in enumerate(targets):
        ops.append(_approximate_op(d, k + 1, {
            "seed": index + 1000 * (k + 1), "n_train": 256, "n_test": 64, "window": 128,
            "restarts": 2, "tol": TRANSFER_TOL, "target": target, "schedule": families}))
    ensembles = [
        {"kind": "iid_uniform", "bound": 1.0},
        {"kind": "clipped_ar1", "phi": float(rng.uniform(0.5, 0.9)),
         "sigma": float(rng.uniform(0.3, 0.6)), "bound": 1.0},
        {"kind": "bounded_arma", "ar": [float(rng.uniform(0.3, 0.6)),
                                        float(rng.uniform(-0.3, 0.0))],
         "ma": [float(rng.uniform(0.0, 0.4))], "bound": 1.0},
    ]
    sas = [sas_doc(*rotate_sas(rng, *s)) for s in _base_experiments()]
    for k, desc in enumerate(ensembles):
        ops.append(_transfer_op(d, k, {
            "seed": seed + k, "ensemble": desc, "n_paths": 256, "window": 256,
            "tol": TRANSFER_TOL, "target": sas[2 * k], "approx": sas[2 * k + 1]}))
    # the linear targets' norm is fixed: their series length, hence the call's time,
    # grows as 1 / -log(norm), by up to 3x between 0.5 and 0.8
    A, c = rand_linear(rng, 6, LINEAR_TARGET_NORM)
    ops.append(_transfer_op(d, 3, {
        "seed": seed + 3, "ensemble": ensembles[0], "n_paths": 128, "window": 256,
        "tol": TRANSFER_TOL, "approx": sas[6],
        "target": {"kind": "linear_iir", "A": A.tolist(), "c": c.tolist(),
                   "h": h_doc(rand_readout(rng, 6, 1)), "eps": 0.05, "bound": 1.0}}))
    A, c = rand_linear(rng, 8, LINEAR_TARGET_NORM)
    lin = _write(os.path.join(d, "linear_target.json"),
                 linear_doc(A, c, rand_readout(rng, 8, 1), 0.1))
    ops.append(_transfer_op(d, 4, {
        "seed": seed + 4, "ensemble": ensembles[1], "n_paths": 8, "window": 64,
        "tol": TRANSFER_TOL, "target": lin, "approx": sas[7]}))
    ops.append(Op("verify", ["verify", "--seed", str(index)], {}))
    return ops


# ---------------------------------------------------------------------------------


def make_round(workload: str, seed: int, index: int, directory: str) -> list:
    """Write round ``index`` of ``workload`` under ``directory``; return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng((seed, index, WORKLOADS.index(workload)))
    os.makedirs(directory, exist_ok=True)
    if workload == "certify-compose":
        ops = _round_certify_compose(rng, directory)
    elif workload == "trajectories":
        ops = _round_trajectories(rng, directory)
    else:
        ops = _round_experiments(rng, directory, seed * 1000 + index, index)
    for i, op in enumerate(ops):
        op.slot = i
    return [ops[i] for i in rng.permutation(len(ops))]


def make_warmup(workload: str, directory: str) -> list:
    """One small instance of each operation kind the workload times (fixed seed)."""
    rng = np.random.default_rng(12345)
    os.makedirs(directory, exist_ok=True)
    d = directory
    if workload == "certify-compose":
        coeffs, lam = _certify_instance(rng, 2, 1, tie=False)
        path = _write(os.path.join(d, "p.json"), poly_doc(coeffs))
        s1, s2 = _sas_pair(rng, True)
        sp = [_write(os.path.join(d, f"s{k}.json"), sas_doc(*s))
              for k, s in enumerate((s1, s2))]
        lp = []
        for k in range(2):
            A, c = rand_linear(rng, 2, 0.5)
            lp.append(_write(os.path.join(d, f"l{k}.json"),
                             linear_doc(A, c, rand_readout(rng, 2), 0.1)))
        return [["certify", path, "--lam", repr(lam), "-o", os.path.join(d, "c.json")],
                ["compose", *sp, "--mode", "sum", "-o", os.path.join(d, "sum.json")],
                ["compose", *sp, "--mode", "product", "-o", os.path.join(d, "prod.json")],
                ["compose", *lp, "--mode", "product", "-o", os.path.join(d, "lin.json")]]
    if workload == "trajectories":
        sas = _simulate_ops(rng, d, 0, sas_doc(*rand_sas(rng, 2, 0.5)), 16,
                            ("recursion", "series"))
        A, c = rand_linear(rng, 2, 0.5)
        lin = _simulate_ops(rng, d, 1, linear_doc(A, c, rand_readout(rng, 2), 0.1), 16,
                            ("recursion",))
        return [op.args(d) for op in sas + lin]
    sas = sas_doc(*_small_sas(rng))
    cfg = {"seed": 1, "n_train": 16, "n_test": 8, "window": 16, "restarts": 1,
           "target": {"kind": "tanh_of_linear", "weights": [0.5, -0.2]},
           "schedule": [{"family": "SAS_eps", "N": 2}, {"family": "L_eps", "N": 2}]}
    tcfg = {"seed": 1, "ensemble": {"kind": "iid_uniform", "bound": 1.0}, "n_paths": 4,
            "window": 16, "target": sas, "approx": sas}
    return [["approximate", _write(os.path.join(d, "a.json"), cfg), "--out-dir", d],
            ["transfer", _write(os.path.join(d, "t.json"), tcfg)],
            ["verify", "sequences", "--seed", "0"]]
