"""The reference implementations of oracles.py: the 2x2 matrix norms and the
reduced state's evolution, each checked on its own before other tests compare
qslkit against it."""

import math

import numpy as np
import pytest

from qslkit.model import (
    ModelParams,
    amplitude_series,
    decay_rate,
    excited_population,
    lamb_shift,
    population_rate,
)
from qslkit.smatrix import DensityMatrix2

from oracles import evolve, liouvillian, schatten_norm, singular_values, trace_distance_measure

LAM = 50.0

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]])


def charpoly_singular_values(m):
    """Independent oracle: roots of the characteristic polynomial of M^dag M."""
    g = np.conj(m.T) @ m
    tr = g[0, 0].real + g[1, 1].real
    det = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    e1 = 0.5 * (tr + disc)
    e2 = 0.5 * (tr - disc)
    return math.sqrt(max(e1, 0.0)), math.sqrt(max(e2, 0.0))


def random_matrices(n, seed=7):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


class TestSingularValues:
    def test_identity(self):
        assert singular_values(np.eye(2)) == (1.0, 1.0)

    def test_sign_symmetric_diagonal(self):
        s1, s2 = singular_values(np.diag([0.3, -0.3]))
        assert s1 == pytest.approx(0.3, abs=1e-15)
        assert s2 == pytest.approx(0.3, abs=1e-15)

    def test_matches_charpoly_oracle(self):
        for m in random_matrices(200):
            got = singular_values(m)
            want = charpoly_singular_values(m)
            assert got[0] == pytest.approx(want[0], rel=1e-10)
            assert got[1] == pytest.approx(want[1], rel=1e-10, abs=1e-12)

    def test_product_and_frobenius_identities(self):
        for m in random_matrices(100, seed=11):
            s1, s2 = singular_values(m)
            det = abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
            fro2 = float(np.sum(np.abs(m) ** 2))
            assert s1 * s2 == pytest.approx(det, rel=1e-10)
            assert s1**2 + s2**2 == pytest.approx(fro2, rel=1e-10)

    def test_invariant_under_adjoint_and_negation(self):
        for m in random_matrices(50, seed=3):
            base = singular_values(m)
            assert singular_values(np.conj(m.T)) == pytest.approx(base, rel=1e-12)
            assert singular_values(-m) == pytest.approx(base, rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            singular_values([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError):
            singular_values([[np.inf, 0], [0, 1]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            singular_values(np.eye(3))


class TestSchattenNorm:
    def test_diagonal_trace_norm(self):
        assert schatten_norm(np.diag([0.5, -0.5]), 1) == pytest.approx(1.0)

    def test_diagonal_operator_norm(self):
        assert schatten_norm(np.diag([0.5, -0.5]), math.inf) == pytest.approx(0.5)

    def test_norm_ordering(self):
        for m in random_matrices(100, seed=5):
            n1 = schatten_norm(m, 1)
            n2 = schatten_norm(m, 2)
            ninf = schatten_norm(m, math.inf)
            assert n1 >= n2 - 1e-12
            assert n2 >= ninf - 1e-12
            assert n1 <= 2.0 * ninf + 1e-12

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 3)


class TestTraceDistanceMeasure:
    def test_identical_states(self):
        rho = DensityMatrix2.diagonal(0.3)
        assert trace_distance_measure(rho, rho) == pytest.approx(1.0)

    def test_orthogonal_pure_states(self):
        a = DensityMatrix2([[1.0, 0.0], [0.0, 0.0]])
        b = DensityMatrix2([[0.0, 0.0], [0.0, 1.0]])
        assert trace_distance_measure(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_hand_evaluated_diagonal(self):
        a = DensityMatrix2([[1.0, 0.0], [0.0, 0.0]])
        b = DensityMatrix2([[0.25, 0.0], [0.0, 0.75]])
        # trace norm 2*0.75, so 1 - (1/4)*(1.5)^2 = 0.4375
        assert trace_distance_measure(a, b) == pytest.approx(0.4375, abs=1e-14)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            pops = rng.uniform(0.0, 1.0, size=2)
            states = []
            for pop in pops:
                coh_max = math.sqrt(pop * (1.0 - pop))
                coh = rng.uniform(-coh_max, coh_max) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                states.append(
                    DensityMatrix2([[1 - pop, np.conj(coh)], [coh, pop]])
                )
            d_ab = trace_distance_measure(states[0], states[1])
            d_ba = trace_distance_measure(states[1], states[0])
            assert d_ab == pytest.approx(d_ba, abs=1e-14)
            assert -1e-12 <= d_ab <= 1.0 + 1e-12

    def test_rejects_raw_arrays(self):
        with pytest.raises(ValueError):
            trace_distance_measure(np.eye(2), np.eye(2))


class TestEvolveAndLiouvillian:
    def test_identity_at_zero_time(self):
        p = ModelParams(5.0, LAM, 120.0)
        rho0 = DensityMatrix2([[0.4, 0.2 - 0.1j], [0.2 + 0.1j, 0.6]])
        assert np.allclose(evolve(p, rho0, 0.0).matrix, rho0.matrix, atol=1e-15)

    def test_excited_state_stays_diagonal(self):
        p = ModelParams(500.0, LAM, 0.0)
        rho_t = evolve(p, DensityMatrix2.excited(), 0.07)
        pop = excited_population(p, 0.07)
        assert np.allclose(rho_t.matrix, np.diag([1.0 - pop, pop]), atol=1e-14)

    def test_ground_state_stationary(self):
        p = ModelParams(5.0, LAM, 300.0)
        for t in (0.0, 0.3, 2.0):
            assert np.allclose(evolve(p, DensityMatrix2.ground(), t).matrix, np.diag([1.0, 0.0]))

    def test_output_valid_density_matrix(self):
        rng = np.random.default_rng(8)
        rho0 = DensityMatrix2([[0.7, 0.3j], [-0.3j, 0.3]])
        for _ in range(20):
            p = ModelParams(rng.uniform(1.0, 800.0), LAM, rng.uniform(-400.0, 400.0))
            evolve(p, rho0, rng.uniform(0.0, 1.0))  # constructor validates

    def test_liouvillian_zero_at_start(self):
        p = ModelParams(5.0, LAM, 120.0)
        rho0 = DensityMatrix2([[0.4, 0.2j], [-0.2j, 0.6]])
        assert np.allclose(liouvillian(p, rho0, 0.0), 0.0)

    def test_liouvillian_excited_is_population_rate(self):
        p = ModelParams(500.0, LAM, 300.0)
        got = liouvillian(p, DensityMatrix2.excited(), 0.04)
        pdot = population_rate(p, 0.04)
        assert np.allclose(got, np.diag([-pdot, pdot]), atol=1e-14)

    def test_liouvillian_traceless_hermitian(self):
        p = ModelParams(500.0, LAM, 300.0)
        rho0 = DensityMatrix2([[0.2, 0.25 - 0.15j], [0.25 + 0.15j, 0.8]])
        for t in (0.01, 0.1, 0.4):
            ld = liouvillian(p, rho0, t)
            assert abs(np.trace(ld)) < 1e-12
            assert np.allclose(ld, np.conj(ld.T), atol=1e-12)

    def test_matches_master_equation_form(self):
        # Assemble the generator from the decay rate and Lamb shift and compare
        # with the entrywise-differentiated evolution wherever |C| > 1e-6.
        # The coherent part uses the number-operator commutator [s+ s-, rho];
        # with the sigma_z convention the shift coefficient would be halved.
        rho0 = DensityMatrix2([[0.35, 0.2 + 0.1j], [0.2 - 0.1j, 0.65]])
        number_op = SIGMA_PLUS @ SIGMA_MINUS
        for g0, delta in ((5.0, 0.0), (500.0, 300.0)):
            p = ModelParams(g0, LAM, delta)
            for t in (0.02, 0.1, 0.3):
                c, _ = amplitude_series(p, t)
                if abs(complex(c)) <= 1e-6:
                    continue
                rho_t = evolve(p, rho0, t).matrix
                gamma = decay_rate(p, t)
                shift = lamb_shift(p, t)
                sandwich = SIGMA_MINUS @ rho_t @ SIGMA_PLUS
                anti = number_op @ rho_t + rho_t @ number_op
                rhs = (
                    -0.5j * shift * (number_op @ rho_t - rho_t @ number_op)
                    + gamma * (sandwich - 0.5 * anti)
                )
                lhs = liouvillian(p, rho0, t)
                scale = max(np.max(np.abs(lhs)), 1e-30)
                assert np.max(np.abs(lhs - rhs)) / scale < 1e-8
