"""Unit tests for matrix polynomials, readout polynomials and norm certificates."""

import json
import math
import unittest
from fractions import Fraction

import numpy as np
import pytest

from affinerc import (
    LinearSystem,
    MatrixPolynomial,
    ScalarPolynomial,
    check_conditions,
    is_nilpotent,
    norm_certificate,
    poly_derivative,
    poly_direct_sum,
    poly_eval,
    poly_from_json,
    poly_kron,
    poly_mul,
    poly_to_json,
    poly_vstack,
    SASSystem,
    scalar_poly_eval,
    scalar_poly_from_json,
    scalar_poly_to_json,
    spectral_norm,
)
from affinerc.polynomials import _assemble, _spectral_norms, _upward_product, _upward_sum


def random_poly(rng, rows, cols, deg, scale=1.0):
    return MatrixPolynomial.from_coeffs(
        [scale * rng.standard_normal((rows, cols)) for _ in range(deg + 1)]
    )


def naive_eval(p, z):
    out = np.zeros((p.rows, p.cols))
    for i in range(p.degree + 1):
        out = out + p.coeff(i) * z**i
    return out


def dense_grid_max(p, step=1e-4):
    grid = np.linspace(-1.0, 1.0, int(round(2.0 / step)) + 1)
    return max(np.linalg.norm(poly_eval(p, z), 2) for z in grid)


class TestPolynomialArithmetic(unittest.TestCase):
    def test_eval_matches_power_sum(self):
        rng = np.random.default_rng(0)
        p = random_poly(rng, 3, 2, deg=4)
        np.testing.assert_allclose(poly_eval(p, 0.3), naive_eval(p, 0.3), atol=1e-14)
        np.testing.assert_allclose(poly_eval(p, -1.0), naive_eval(p, -1.0), atol=1e-14)

    def test_zero_polynomial(self):
        p = MatrixPolynomial.zero(2, 3)
        self.assertEqual(p.degree, -1)
        np.testing.assert_array_equal(poly_eval(p, 0.7), np.zeros((2, 3)))

    def test_trailing_zero_coefficients_stripped(self):
        p = MatrixPolynomial.from_coeffs([np.eye(2), np.zeros((2, 2))])
        self.assertEqual(p.degree, 0)

    def test_coefficient_shape_mismatch(self):
        with self.assertRaises(ValueError):
            MatrixPolynomial(rows=2, cols=2, coeffs=(np.zeros((3, 2)),))

    def test_mul_identity(self):
        rng = np.random.default_rng(1)
        p = random_poly(rng, 2, 2, deg=3)
        ident = MatrixPolynomial.constant(np.eye(2))
        for z in (-0.5, 0.0, 1.0):
            np.testing.assert_allclose(
                poly_eval(poly_mul(ident, p), z), poly_eval(p, z), atol=1e-15
            )

    def test_mul_z_times_z(self):
        z_poly = MatrixPolynomial.from_coeffs([np.zeros((1, 1)), np.ones((1, 1))])
        sq = poly_mul(z_poly, z_poly)
        self.assertEqual(sq.degree, 2)
        for z in np.linspace(-1, 1, 9):
            self.assertAlmostEqual(float(poly_eval(sq, z)[0, 0]), z * z, places=15)

    def test_mul_pointwise(self):
        rng = np.random.default_rng(2)
        a = random_poly(rng, 2, 3, deg=2)
        b = random_poly(rng, 3, 4, deg=3)
        ab = poly_mul(a, b)
        self.assertEqual(ab.degree, 5)
        for z in rng.uniform(-1, 1, size=20):
            np.testing.assert_allclose(
                poly_eval(ab, z), poly_eval(a, z) @ poly_eval(b, z), atol=1e-12
            )

    def test_mul_shape_mismatch(self):
        a = MatrixPolynomial.constant(np.zeros((2, 3)))
        b = MatrixPolynomial.constant(np.zeros((2, 3)))
        with self.assertRaises(ValueError):
            poly_mul(a, b)

    def test_direct_sum_blockdiag(self):
        rng = np.random.default_rng(3)
        a = random_poly(rng, 2, 2, deg=1)
        b = random_poly(rng, 3, 3, deg=3)  # different degrees: shorter is padded
        s = poly_direct_sum(a, b)
        self.assertEqual((s.rows, s.cols), (5, 5))
        self.assertEqual(s.degree, 3)
        for z in (-1.0, 0.25):
            top = np.hstack([poly_eval(a, z), np.zeros((2, 3))])
            bottom = np.hstack([np.zeros((3, 2)), poly_eval(b, z)])
            np.testing.assert_allclose(poly_eval(s, z), np.vstack([top, bottom]), atol=1e-15)

    def test_direct_sum_with_zero(self):
        a = MatrixPolynomial.constant(np.array([[2.0]]))
        z = MatrixPolynomial.zero(1, 1)
        s = poly_direct_sum(a, z)
        np.testing.assert_array_equal(poly_eval(s, 0.5), np.diag([2.0, 0.0]))

    def test_vstack(self):
        a = MatrixPolynomial.constant(np.array([[1.0, 2.0]]))
        b = MatrixPolynomial.from_coeffs([np.zeros((1, 2)), np.array([[3.0, 4.0]])])
        v = poly_vstack(a, b)
        np.testing.assert_allclose(
            poly_eval(v, 0.5), np.array([[1.0, 2.0], [1.5, 2.0]]), atol=1e-15
        )
        with self.assertRaises(ValueError):
            poly_vstack(a, MatrixPolynomial.constant(np.zeros((1, 3))))

    def test_kron_scalar_z_squared(self):
        z_poly = MatrixPolynomial.from_coeffs([np.zeros((1, 1)), np.ones((1, 1))])
        sq = poly_kron(z_poly, z_poly)
        for z in np.linspace(-1, 1, 7):
            self.assertAlmostEqual(float(poly_eval(sq, z)[0, 0]), z * z, places=15)

    def test_kron_identities(self):
        i2 = MatrixPolynomial.constant(np.eye(2))
        i3 = MatrixPolynomial.constant(np.eye(3))
        np.testing.assert_array_equal(poly_eval(poly_kron(i2, i3), 0.0), np.eye(6))

    def test_kron_pointwise(self):
        rng = np.random.default_rng(4)
        a = random_poly(rng, 2, 2, deg=2)
        b = random_poly(rng, 2, 3, deg=1)
        k = poly_kron(a, b)
        for z in rng.uniform(-1, 1, size=10):
            np.testing.assert_allclose(
                poly_eval(k, z), np.kron(poly_eval(a, z), poly_eval(b, z)), atol=1e-12
            )

    def test_kron_degree_additivity(self):
        rng = np.random.default_rng(5)
        a = random_poly(rng, 2, 2, deg=3)
        b = random_poly(rng, 2, 2, deg=2)
        # generic leading coefficients have nonzero Kronecker product
        self.assertEqual(poly_kron(a, b).degree, 5)

    def test_derivative(self):
        const = MatrixPolynomial.constant(np.eye(3))
        self.assertEqual(poly_derivative(const).degree, -1)
        rng = np.random.default_rng(6)
        a0, a1 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        affine = MatrixPolynomial.from_coeffs([a0, a1])
        np.testing.assert_array_equal(poly_derivative(affine).coeff(0), a1)

    def test_derivative_matches_central_difference(self):
        rng = np.random.default_rng(7)
        p = random_poly(rng, 3, 3, deg=4)
        dp = poly_derivative(p)
        h = 1e-6
        for z in (-0.6, 0.0, 0.8):
            fd = (poly_eval(p, z + h) - poly_eval(p, z - h)) / (2 * h)
            np.testing.assert_allclose(poly_eval(dp, z), fd, atol=1e-6)


class TestSpectralNorm(unittest.TestCase):
    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            a = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            self.assertAlmostEqual(spectral_norm(a), np.linalg.norm(a, 2), places=9)

    def test_zero_matrix(self):
        self.assertEqual(spectral_norm(np.zeros((4, 3))), 0.0)

    def test_start_vector_in_null_space(self):
        # sign-symmetric: the all-ones vector lies in the null space of a^T a
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        self.assertAlmostEqual(spectral_norm(a), np.linalg.norm(a, 2), places=10)

    def test_oplus_is_max(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((4, 4))
            blk = np.zeros((7, 7))
            blk[:3, :3] = a
            blk[3:, 3:] = b
            self.assertAlmostEqual(
                spectral_norm(blk), max(spectral_norm(a), spectral_norm(b)), places=10
            )

    def test_kron_is_product(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.standard_normal((2, 3))
            b = rng.standard_normal((3, 2))
            self.assertAlmostEqual(
                spectral_norm(np.kron(a, b)),
                spectral_norm(a) * spectral_norm(b),
                places=9,
            )

    def test_frobenius_sandwich(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.standard_normal((4, 5))
            two = spectral_norm(a)
            fro = np.linalg.norm(a, "fro")
            r = np.linalg.matrix_rank(a)
            self.assertLessEqual(two, fro * (1 + 1e-12))
            self.assertLessEqual(fro, np.sqrt(r) * two * (1 + 1e-12))


class TestNormCertificate(unittest.TestCase):
    def test_diagonal_affine_example(self):
        p = MatrixPolynomial.from_coeffs([0.3 * np.eye(2), 0.4 * np.eye(2)])
        cert = norm_certificate(p)
        self.assertAlmostEqual(cert.B_p, 0.7, places=12)
        self.assertAlmostEqual(cert.M_p_lower, 0.7, places=12)
        self.assertAlmostEqual(cert.M_p_upper, 0.7, places=12)

    def test_zero_polynomial_certificate(self):
        cert = norm_certificate(MatrixPolynomial.zero(3, 3))
        self.assertEqual(
            (cert.B_p, cert.M_p_lower, cert.M_p_upper, cert.M_pprime), (0, 0, 0, 0)
        )

    def test_interval_ordering_on_random_polynomials(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            p = random_poly(rng, 3, 3, deg=int(rng.integers(0, 4)), scale=0.4)
            cert = norm_certificate(p, grid_step=0.02)
            self.assertLessEqual(cert.M_p_lower, cert.M_p_upper)
            self.assertLessEqual(cert.M_p_upper, cert.B_p + 1e-9)

    def test_interval_brackets_dense_grid(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            p = random_poly(rng, 2, 2, deg=3, scale=0.3)
            cert = norm_certificate(p, grid_step=0.05)
            dense = dense_grid_max(p, step=1e-4)
            self.assertLessEqual(cert.M_p_lower, dense + 1e-12)
            self.assertLessEqual(dense, cert.M_p_upper + 1e-12)

    def test_refinement_tightens_interval(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            p = random_poly(rng, 2, 2, deg=3, scale=0.3)
            coarse = norm_certificate(p, grid_step=0.1)
            fine = norm_certificate(p, grid_step=0.01)
            self.assertGreaterEqual(fine.M_p_lower, coarse.M_p_lower - 1e-12)
            self.assertLessEqual(fine.M_p_upper, coarse.M_p_upper + 1e-12)

    def test_mpprime_bounds_derivative_sup(self):
        rng = np.random.default_rng(23)
        p = random_poly(rng, 3, 3, deg=3, scale=0.3)
        cert = norm_certificate(p, grid_step=0.02)
        self.assertGreaterEqual(
            cert.M_pprime, np.sqrt(3) * dense_grid_max(poly_derivative(p)) - 1e-9
        )

    def test_grid_step_validation(self):
        p = MatrixPolynomial.constant(np.eye(2))
        for bad in (0.0, -1.0, 1.5):
            with self.assertRaises(ValueError):
                norm_certificate(p, grid_step=bad)


class TestConditionChain(unittest.TestCase):
    def test_all_three_hold(self):
        p = MatrixPolynomial.from_coeffs([0.2 * np.eye(2), 0.2 * np.eye(2)])
        rep = check_conditions(p, lam=0.3)
        self.assertEqual((rep.cond_i, rep.cond_ii, rep.cond_iii), (True, True, True))

    def test_first_fails_rest_hold(self):
        p = MatrixPolynomial.constant(0.9 * np.eye(3))
        rep = check_conditions(p, lam=0.5)
        self.assertEqual((rep.cond_i, rep.cond_ii, rep.cond_iii), (False, True, True))

    def test_only_certified_sup_holds(self):
        # coefficient norms sum to 1.5 but the coefficients act on orthogonal
        # coordinates, so the pointwise norm never exceeds 0.75
        a0 = np.diag([0.75, 0.0])
        a1 = np.diag([0.0, 0.75])
        p = MatrixPolynomial.from_coeffs([a0, a1])
        rep = check_conditions(p, lam=0.5, grid_step=0.01)
        self.assertEqual((rep.cond_i, rep.cond_ii, rep.cond_iii), (False, False, True))
        self.assertLess(dense_grid_max(p), 1.0)
        self.assertAlmostEqual(norm_certificate(p).B_p, 1.5, places=12)

    def test_implication_chain_on_random_inputs(self):
        rng = np.random.default_rng(30)
        for _ in range(60):
            deg = int(rng.integers(0, 4))
            scale = float(rng.uniform(0.05, 0.6))
            n = int(rng.integers(1, 5))
            p = MatrixPolynomial.from_coeffs(
                [scale * rng.standard_normal((n, n)) for _ in range(deg + 1)]
            )
            lam = float(rng.uniform(0.05, 0.95))
            rep = check_conditions(p, lam=lam, grid_step=0.05)
            if rep.cond_i:
                self.assertTrue(rep.cond_ii)
            if rep.cond_ii:
                self.assertTrue(rep.cond_iii)

    def test_lambda_validation(self):
        p = MatrixPolynomial.constant(np.eye(2))
        for lam in (0.0, 1.0, -0.5):
            with self.assertRaises(ValueError):
                check_conditions(p, lam=lam)


class TestNilpotency(unittest.TestCase):
    def test_shift_matrix(self):
        shift = np.zeros((3, 3))
        shift[0, 1] = shift[1, 2] = 1.0
        rep = is_nilpotent(MatrixPolynomial.constant(shift))
        self.assertTrue(rep.nilpotent)
        self.assertEqual(rep.index, 3)

    def test_identity_is_not(self):
        rep = is_nilpotent(MatrixPolynomial.constant(np.eye(4)))
        self.assertFalse(rep.nilpotent)
        self.assertIsNone(rep.index)

    def test_strictly_triangular_z_polynomial(self):
        rng = np.random.default_rng(40)
        j = np.triu(rng.standard_normal((4, 4)), k=1)
        p = MatrixPolynomial.from_coeffs([np.zeros((4, 4)), j])
        rep = is_nilpotent(p)
        self.assertTrue(rep.nilpotent)
        self.assertLessEqual(rep.index, 4)
        # numerical cross-check on a grid of sample points
        for z in np.linspace(-1, 1, 50):
            power = np.linalg.matrix_power(poly_eval(p, z), rep.index)
            self.assertLess(np.max(np.abs(power)), 1e-10)

    def test_non_square_rejected(self):
        with self.assertRaises(ValueError):
            is_nilpotent(MatrixPolynomial.constant(np.zeros((2, 3))))

    def test_max_index_validation(self):
        p = MatrixPolynomial.constant(np.zeros((2, 2)))
        with self.assertRaises(ValueError):
            is_nilpotent(p, max_index=0)


class TestScalarPolynomials(unittest.TestCase):
    def test_constant(self):
        h = ScalarPolynomial.constant(3, 5.0)
        self.assertEqual(scalar_poly_eval(h, (0.1, -2.0, 7.0)), 5.0)

    def test_coordinate_projection(self):
        h = ScalarPolynomial.coordinate(2, 0)
        self.assertEqual(scalar_poly_eval(h, (3.0, 7.0)), 3.0)

    def test_random_quadratic_matches_term_oracle(self):
        rng = np.random.default_rng(50)
        terms = {
            (2, 0, 0): 1.5,
            (1, 1, 0): -0.25,
            (0, 0, 2): 2.0,
            (1, 0, 0): 0.5,
            (0, 0, 0): -1.0,
        }
        h = ScalarPolynomial.from_terms(3, terms)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=3)
            expected = sum(
                c * np.prod([xi**e for xi, e in zip(x, alpha)])
                for alpha, c in terms.items()
            )
            self.assertAlmostEqual(scalar_poly_eval(h, x), expected, places=12)

    def test_arity_mismatch(self):
        h = ScalarPolynomial.coordinate(3, 1)
        with self.assertRaises(ValueError):
            scalar_poly_eval(h, (1.0, 2.0))

    def test_algebra_operations(self):
        f = ScalarPolynomial.linear_form([1.0, 2.0])
        g = ScalarPolynomial.coordinate(2, 1)
        x = (0.5, -0.25)
        self.assertAlmostEqual(f.add(g)(x), f(x) + g(x), places=15)
        self.assertAlmostEqual(f.scale(-3.0)(x), -3.0 * f(x), places=15)
        self.assertAlmostEqual(f.mul(g)(x), f(x) * g(x), places=15)

    def test_embed(self):
        h = ScalarPolynomial.linear_form([2.0, -1.0])
        wide = h.embed(5, offset=2)
        self.assertAlmostEqual(wide((9.0, 9.0, 0.5, 0.25, 9.0)), 2.0 * 0.5 - 0.25, places=15)

    def test_non_finite_coefficient_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with self.assertRaisesRegex(ValueError, "finite"):
                ScalarPolynomial.from_terms(2, {(1, 0): 1.0, (0, 1): bad})
        doc = {"arity": 1, "terms": [{"alpha": [1], "coeff": float("nan")}]}
        with self.assertRaisesRegex(ValueError, "finite"):
            scalar_poly_from_json(json.loads(json.dumps(doc)))

    def test_zero_terms_dropped(self):
        h = ScalarPolynomial.from_terms(2, {(1, 0): 0.0, (0, 1): 1.0})
        self.assertEqual(len(h.terms), 1)


class TestSerialization(unittest.TestCase):
    def test_matrix_polynomial_round_trip(self):
        rng = np.random.default_rng(60)
        p = random_poly(rng, 2, 3, deg=2)
        back = poly_from_json(poly_to_json(p))
        self.assertEqual((back.rows, back.cols, back.degree), (2, 3, 2))
        for i in range(3):
            np.testing.assert_array_equal(back.coeff(i), p.coeff(i))

    def test_scalar_polynomial_round_trip(self):
        h = ScalarPolynomial.from_terms(2, {(2, 0): 0.5, (0, 1): -2.0})
        back = scalar_poly_from_json(scalar_poly_to_json(h))
        self.assertEqual(back.terms, h.terms)

    def test_duplicate_json_terms_sum(self):
        doc = {"arity": 2, "terms": [{"alpha": [1, 0], "coeff": 2.0},
                                     {"alpha": [0, 1], "coeff": 1.0},
                                     {"alpha": [1, 0], "coeff": 3.0}]}
        h = scalar_poly_from_json(json.loads(json.dumps(doc)))
        self.assertEqual(h.as_dict(), {(1, 0): 5.0, (0, 1): 1.0})
        self.assertEqual(scalar_poly_from_json(scalar_poly_to_json(h)).terms, h.terms)

    def test_non_finite_coefficients_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with self.assertRaisesRegex(ValueError, "finite"):
                MatrixPolynomial.from_coeffs([np.eye(2), [[0.0, bad], [0.0, 0.0]]])
        doc = {"rows": 1, "cols": 1, "coeffs": [[0.5], [float("nan")]]}
        with self.assertRaisesRegex(ValueError, "finite"):
            poly_from_json(doc)


def _near_tied(rng, rows, cols):
    """A random matrix whose top two singular values differ by 1e-9 to 1e-3 relative."""
    k = min(rows, cols)
    u = np.linalg.qr(rng.standard_normal((rows, rows)))[0][:, :k]
    v = np.linalg.qr(rng.standard_normal((cols, cols)))[0][:, :k]
    s = np.sort(rng.uniform(0.1, 1.0, size=k))[::-1]
    if k > 1:
        s[1] = s[0] * (1.0 - 10.0 ** rng.uniform(-9.0, -3.0))
    return (u * s) @ v.T


def test_certified_bounds_are_sound_against_mpmath():
    """Every documented upper bound is at least its 30-digit value, on near-tied top
    singular pairs, where an iterative estimate converges slowest."""
    mpmath = pytest.importorskip("mpmath")

    def sigma1(terms, z=1.0):
        """Largest singular value of sum_i z**i * a_i, in 30-digit arithmetic."""
        acc = mpmath.zeros(*terms[0][1].shape)
        for i, a in terms:
            acc += mpmath.mpf(z) ** i * mpmath.matrix(a.tolist())
        return max(mpmath.svd_r(acc, compute_uv=False))

    rng = np.random.default_rng(70)
    with mpmath.workdps(30):
        for _ in range(40):
            n, rows, cols = (int(k) for k in rng.integers(1, 9, size=3))
            p_coeffs = [_near_tied(rng, n, n) for _ in range(3)]
            q_coeffs = [rng.standard_normal((n, 1)) for _ in range(2)]
            for a in p_coeffs + [_near_tied(rng, rows, cols)]:
                t = sigma1([(0, a)])
                assert t <= spectral_norm(a) <= t * (1 + 1e-12)

            cert = norm_certificate(MatrixPolynomial.from_coeffs(p_coeffs), grid_step=0.25)
            assert cert.B_p >= sum(sigma1([(0, a)]) for a in p_coeffs)
            # tight: the gap is the mean-value slack on the certified sup ||p'||, with no
            # factor for the shape, plus the recorded rounding terms, up to the ulps of
            # the upward-rounded sums; and those terms are rounding-sized
            slack = 0.5 * cert.grid_step * cert.M_pprime / math.sqrt(n)
            assert cert.M_p_upper - cert.M_p_lower <= (
                slack + cert.rounding + 4 * math.ulp(cert.M_p_upper))
            assert 0.0 < cert.rounding <= 1e-13 * (cert.B_p + cert.M_pprime)
            p_terms = list(enumerate(p_coeffs))
            dp_terms = [(i - 1, i * a) for i, a in p_terms[1:]]
            q_terms = list(enumerate(q_coeffs))
            for z in (-1.0, 0.5, 1.0):
                assert cert.M_p_upper >= sigma1(p_terms, z)
                assert cert.M_pprime >= mpmath.sqrt(n) * sigma1(dp_terms, z)

            # scaling by 1/8 is exact, so the 30-digit values scale with it
            s = SASSystem.create(MatrixPolynomial.from_coeffs([a / 8 for a in p_coeffs]),
                                 MatrixPolynomial.from_coeffs([a / 8 for a in q_coeffs]),
                                 np.ones(n), eps=0.1, grid_step=0.25)
            for z in (-1.0, 0.5, 1.0):
                assert s.K1 >= sigma1(p_terms, z) / 8
                assert s.K2 >= sigma1(q_terms, z) / 8
            lin = LinearSystem.create(p_coeffs[0] / 8, np.ones(n),
                                      ScalarPolynomial.coordinate(n, 0), eps=0.1)
            assert lin.sigma >= sigma1(p_terms[:1]) / 8

def test_upward_rounding_helpers_bound_the_exact_values():
    rng = np.random.default_rng(72)
    cases = [[0.5, 0.25], [0.1, 0.2], [1.0, 1e-300, -1.0], [0.7, -0.7], [], [3.0]]
    cases += [(rng.standard_normal(int(rng.integers(1, 6)))
               * 10.0 ** rng.integers(-20, 20, size=1)).tolist() for _ in range(2000)]
    for values in cases:
        exact = sum(map(Fraction, values), Fraction(0))
        up = _upward_sum(values)
        # the smallest float at or above the exact sum
        assert Fraction(up) >= exact > Fraction(math.nextafter(up, -math.inf)), values
    for a, b in rng.uniform(0.0, 2.0, size=(2000, 2)).tolist() + [(0.0, 3.0), (0.5, 0.25)]:
        prod = _upward_product(a, b)
        assert Fraction(a) * Fraction(b) <= prod <= math.nextafter(a * b, math.inf)
    assert _upward_product(0.0, 0.7) == 0.0


def test_linspace_points_lie_within_five_units_of_roundoff():
    """The covering radius step/2 + 4 eps of ``norm_certificate`` rests on each
    np.linspace point lying within 5u = 2.5 eps of -1 + 2i / (npts - 1)."""
    for grid_step in (1.0, 0.5, 0.25, 0.05, 0.02, 0.0137, 0.01, 0.005, 1e-3, 1e-4):
        npts = int(math.ceil(2.0 / grid_step)) + 1
        grid = np.linspace(-1.0, 1.0, npts)
        worst = max(abs(Fraction(x) + 1 - Fraction(2 * i, npts - 1))
                    for i, x in enumerate(grid.tolist()))
        assert worst <= Fraction(5, 2**54), grid_step
        assert grid[0] == -1.0 and grid[-1] == 1.0


def full_grid_certificate(p, grid_step):
    """(B_p, M_p_lower, M_p_upper, M_pprime, grid_step) from a spectral norm at every
    grid point on every tower level, on 256-point blocks: the reference the pruned
    passes of ``norm_certificate`` must reproduce bit for bit."""
    npts = int(math.ceil(2.0 / grid_step)) + 1
    grid = np.linspace(-1.0, 1.0, npts)
    step = 2.0 / (npts - 1)
    if not p.coeffs:
        return (0.0, 0.0, 0.0, 0.0, step)
    levels = [p]
    for _ in range(p.degree):
        levels.append(poly_derivative(levels[-1]))
    tower = _assemble({(k, 0): level for k, level in enumerate(levels)},
                      [p.rows] * len(levels), [p.cols])
    shape = (-1, len(levels), p.rows, p.cols)
    g = np.max([_spectral_norms(poly_eval(tower, zs).reshape(shape)).max(axis=0)
                for zs in np.array_split(grid, -(-npts // 256))], axis=0).tolist()
    coeff_norms = _spectral_norms(np.reshape(tower.coeffs, shape))
    b = [_upward_sum(level) for level in coeff_norms.T.tolist()]
    eps, r = np.finfo(float).eps, min(p.rows, p.cols)
    rho = 0.5 * step + 4.0 * eps
    u = [0.0] * (len(levels) + 1)
    d = [0.0] * (len(levels) + 1)
    for k in reversed(range(len(levels))):
        e_above = eps * math.sqrt(r) * b[k + 1] if k + 1 < len(levels) else 0.0
        d[k] = _upward_sum([u[k + 1], e_above])
        h = (p.degree + 1) * eps * math.sqrt(r) * b[k]
        u[k] = max(min(_upward_sum([g[k], h, _upward_product(rho, d[k])]), b[k]), g[k])
    return (b[0], g[0], u[0], math.sqrt(p.rows) * d[0], step)


def _oracle_case(rng, i):
    """The i-th polynomial of the pruning sweep: plain Gaussian, exactly tied top
    singular pairs, a peak at z = 0, constant norm, or a zero middle coefficient;
    shapes 1 x n, m x 1 and m x n; scales 1e-8 to 1e8."""
    m, n = (int(k) for k in rng.integers(1, 7, size=2))
    m, n = ((1, n), (m, 1), (m, n))[i % 3]
    deg = int(rng.integers(0, 5))
    scale = 10.0 ** rng.uniform(-8.0, 8.0)
    coeffs = [scale * rng.standard_normal((m, n)) for _ in range(deg + 1)]
    kind = i % 5
    if kind == 1:  # every coefficient has a tied top pair
        k = min(m, n)
        for j in range(deg + 1):
            u = np.linalg.qr(rng.standard_normal((m, m)))[0][:, :k]
            v = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k]
            s = np.sort(rng.uniform(0.1, 1.0, size=k))[::-1]
            s[1:2] = s[0]
            coeffs[j] = scale * (u * s) @ v.T
    elif kind == 2:  # a(1 - z^2) plus a small perturbation peaks inside I
        coeffs = [coeffs[0], 1e-3 * coeffs[1 % len(coeffs)], -coeffs[0]]
    elif kind == 3:  # ||diag(c, c z, ..., c z^j)|| = |c| on all of I
        k = min(m, n, deg + 1)
        coeffs = [np.zeros((m, n)) for _ in range(k)]
        for j in range(k):
            coeffs[j][j, j] = 0.5 * scale
    elif kind == 4 and deg >= 2:
        coeffs[1] = np.zeros((m, n))
    return MatrixPolynomial.from_coeffs(coeffs, rows=m, cols=n)


def test_pruned_certificate_is_bit_identical_to_the_full_grid():
    """The envelope test only skips points whose norm cannot reach the coarse
    maximum, so every field but ``evaluations`` equals the full-grid pass exactly."""
    rng = np.random.default_rng(90)
    steps = (1.0, 0.25, 0.0137, 1e-3)
    cases = [(MatrixPolynomial.from_coeffs([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])]),
              step) for step in steps]
    cases += [(_oracle_case(rng, i), steps[i % 4]) for i in range(1000)]
    for p, step in cases:
        cert = norm_certificate(p, grid_step=step)
        want = full_grid_certificate(p, step)
        assert (cert.B_p, cert.M_p_lower, cert.M_p_upper, cert.M_pprime,
                cert.grid_step) == want, (p, step)
        npts = int(math.ceil(2.0 / step)) + 1
        assert 1 <= cert.evaluations <= npts * (p.degree + 1)


def test_condition_i_reads_the_certificates_coefficient_norms():
    # the verdict of the former per-coefficient SVDs, at lam on both sides of each norm
    rng = np.random.default_rng(71)
    for i in range(60):
        rows, cols = [(1, 1), (3, 3), (2, 5), (6, 1), (4, 4)][i % 5]
        deg = i % 4
        p = MatrixPolynomial.from_coeffs(
            [rng.standard_normal((rows, cols)) * rng.uniform(0.01, 0.3) for _ in range(deg + 1)])
        norms = [spectral_norm(c) for c in p.coeffs]
        assert norm_certificate(p, grid_step=0.5).coeff_norms == tuple(norms)
        for lam in (*norms, *(math.nextafter(v, 2.0) for v in norms), 0.2, 0.999):
            if not 0.0 < lam < 1.0:
                continue
            want = all(v < lam for v in norms) and lam * (deg + 1) < 1.0
            assert check_conditions(p, lam, grid_step=0.5).cond_i == want, (i, lam)


def test_certificate_prunes_most_evaluations():
    """A 12 x 12 degree-3 certificate at step 1e-3 needs under a quarter of the
    full grid's 4 x 2001 spectral norms."""
    p = random_poly(np.random.default_rng(91), 12, 12, deg=3, scale=0.3)
    cert = norm_certificate(p, grid_step=1e-3)
    assert cert.evaluations <= 0.25 * 4 * 2001
    assert (cert.B_p, cert.M_p_lower, cert.M_p_upper, cert.M_pprime,
            cert.grid_step) == full_grid_certificate(p, 1e-3)


if __name__ == "__main__":
    unittest.main()
