"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Every comparison here is exact integer equality except the Monte
Carlo criterion, whose tolerances (2% relative error, 3-sigma coverage on
100 seeds) are stated inline.  Stated runtime budgets are asserted.
"""

import itertools
import math
import time
import warnings
from contextlib import contextmanager
from math import comb

import numpy as np

import gammahodge as gh
from formula_oracles import (
    algebra_space,
    catalog,
    fiber_decomposition_check,
    project_vector,
    projected_norm_sq,
    sparse_rows,
)
from gammahodge.betti import InfiniteVolumeWarning
from gammahodge.graded_algebra import GradedSpace, enumerate_words, project
from gammahodge.poisson_mc import (
    LocalFunctional,
    Polynomial,
    ScalarFunction,
    Window,
    check_laplace,
    check_local_expansion,
    check_mecke,
)

warnings.simplefilter("ignore", InfiniteVolumeWarning)


@contextmanager
def criterion(num, budget_s, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL ({time.perf_counter() - t0:.1f}s) {desc}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {num}: PASS ({elapsed:.1f}s) {desc}")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def bruteforce_b(vector, n):
    space = algebra_space(vector)
    return sum(gh.graded_algebra.sym_component_dim_bruteforce(space, m, n) for m in range(n + 1))


def test_criterion_1_dimension_formula_vs_bruteforce():
    with criterion(1, 120, "b_n formula == brute-force algebra ranks, d<=3, beta<=2, n<=6"):
        checked = 0
        for d in (1, 2, 3):
            for beta in itertools.product(range(3), repeat=d):
                vector = gh.BettiVector(d=d, beta=(0, *beta))
                for n in range(7):
                    assert gh.betti.config_betti(vector, n) == bruteforce_b(vector, n), (
                        vector,
                        n,
                    )
                    checked += 1
        assert checked == (3 + 9 + 27) * 7


def test_criterion_2_vanishing_threshold():
    with criterion(2, 5, "odd-only vectors, K_0 <= 12: b_{K_0} = 1 and zero beyond"):
        swept = 0
        for d in (1, 2, 3, 4, 5):
            odd_degrees = [k for k in range(1, d + 1) if k % 2]
            for values in itertools.product(range(4), repeat=len(odd_degrees)):
                beta = [0] * (d + 1)
                for k, v in zip(odd_degrees, values):
                    beta[k] = v
                vector = gh.BettiVector(d=d, beta=tuple(beta))
                K0, valid = gh.vanishing_threshold(vector)
                assert valid
                if K0 > 12:
                    continue
                assert gh.betti.config_betti(vector, K0) == 1
                for n in range(K0 + 1, K0 + 7):
                    assert gh.betti.config_betti(vector, n) == 0
                swept += 1
        assert swept >= 40


def test_criterion_3_surface_binomials():
    with criterion(3, 5, "beta = (0, B, 0) gives b_k = C(B, k) for B <= 6"):
        for B in range(1, 7):
            vector = gh.BettiVector(d=2, beta=(0, B, 0))
            for k in range(B + 7):
                assert gh.betti.config_betti(vector, k) == comb(B, k)


def test_criterion_4_projector_laws():
    with criterion(4, 60, "projector laws + norm formula, l<=2, m<=4, degrees {1,2,3}"):
        degree_sets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 1), (2, 2), (3, 3)]
        for degrees in degree_sets:
            space = GradedSpace(tuple((p, 2) for p in degrees))
            for m in range(5):
                for n in range(m * max(degrees) + 1):
                    words = enumerate_words(space, m, n)
                    if not words:
                        continue
                    projections = {w: project(space, w) for w in words}
                    for w, p in projections.items():
                        # idempotence, exactly
                        assert project_vector(space, p) == p
                        # graded commutation under adjacent transpositions
                        degs = [space.letter_degree(L) for L in w]
                        for r in range(m - 1):
                            swapped = list(w)
                            swapped[r], swapped[r + 1] = swapped[r + 1], swapped[r]
                            sign = (-1) ** (degs[r] * degs[r + 1])
                            assert p == {v: sign * c for v, c in projections[tuple(swapped)].items()}
                        # norm formula against the Gram entry
                        if tuple(sorted(w)) == w:
                            assert projected_norm_sq(space, w) == p.get(w, 0)
                    # self-adjointness on every word pair
                    for u in words:
                        pu = projections[u]
                        for v in words:
                            assert pu.get(v, 0) == projections[v].get(u, 0)


def test_criterion_5_kron_sum_kernels():
    with criterion(5, 10, "Kronecker-sum kernel = product of kernels, 50 PSD pairs"):
        rng = np.random.Generator(np.random.Philox(key=np.array([2024, 0], dtype=np.uint64)))
        for _ in range(50):
            mats = []
            for _ in range(2):
                size = int(rng.integers(1, 7))
                factor = rng.integers(-3, 4, size=(size + int(rng.integers(0, 3)), size))
                mats.append(gh.linalg.gram(factor.tolist(), size))
            computed, predicted = gh.kron_sum_kernel_dim(mats[0], mats[1])
            assert computed == predicted
        for za, zb in ((1, 1), (2, 3), (4, 2)):
            A = [[0] * za for _ in range(za)]
            B = [[0] * zb for _ in range(zb)]
            assert gh.kron_sum_kernel_dim(A, B) == (za * zb, za * zb)


def test_criterion_6_hodge_decomposition():
    with criterion(6, 10, "harmonic = Betti and three-way split fills C_k, 7 complexes"):
        cat = catalog()
        assert len(cat) == 7
        for K in cat.values():
            beta = gh.betti_numbers(K)
            split = gh.hodge_decomposition_dims(K)
            for k in range(K.max_dim + 1):
                L = gh.hodge_discrete.hodge_laplacian(K, k)
                kernel = K.chain_dim(k) - gh.linalg.rank(sparse_rows(L))
                assert kernel == beta[k]
                harmonic, exact, coexact = split[k]
                assert harmonic == beta[k]
                assert harmonic + exact + coexact == K.chain_dim(k)


def test_criterion_7_fiber_decomposition():
    with criterion(7, 5, "wedge-power fiber identity, N<=6, d<=3, n<=8"):
        for N in range(1, 7):
            for d in range(1, 4):
                for n in range(min(N * d, 8) + 1):
                    lhs, rhs = fiber_decomposition_check(N, d, n)
                    assert lhs == rhs


def test_criterion_8_poisson_identities():
    with criterion(8, 120, "Poisson checks < 2% at 1e5 samples + 3-sigma calibration"):
        window = Window(lengths=(1.0, 2.0))
        indicator = ScalarFunction(kind="indicator")
        const = Polynomial(coeffs=(1.0,))
        linear = Polynomial(coeffs=(0.0, 1.0))
        checks = {
            "laplace": lambda seed, n: check_laplace(
                ScalarFunction(kind="indicator", scale=0.3), window, n, seed
            ),
            "local": lambda seed, n: check_local_expansion(
                LocalFunctional(kind="count_indicator", k=2), window, n, seed
            ),
            "mecke_m1": lambda seed, n: check_mecke(
                1, indicator, linear, indicator, window, n, seed
            ),
            "mecke_m2": lambda seed, n: check_mecke(
                2, indicator, const, None, window, n, seed
            ),
        }
        closed_forms = {
            "laplace": math.exp(window.volume * (math.exp(0.3) - 1)),
            "local": math.exp(-window.volume) * window.volume**2 / 2,
            "mecke_m1": window.volume**2,
            "mecke_m2": window.volume**2 / 2,
        }
        for name, fn in checks.items():
            report = fn(42, 100_000)
            assert math.isclose(report["reference"], closed_forms[name], rel_tol=1e-12), name
            assert report["rel_error"] < 0.02, (name, report["rel_error"])
        # 3-sigma coverage over 100 seeds, binomial slack of one miss
        for name, fn in checks.items():
            hits = 0
            for seed in range(100):
                report = fn(seed, 16_000)
                if abs(report["estimate"] - report["reference"]) <= 3 * report["std_error"]:
                    hits += 1
            assert hits >= 99, (name, hits)


def test_criterion_9_kunneth_pipeline():
    with criterion(9, 10, "convolution associativity + marked path == direct vector"):
        # random factors routinely violate the beta_0 conventions; that is
        # exactly what the warnings flag, so silence them here
        warnings.simplefilter("ignore")
        rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))

        def random_vector():
            d = int(rng.integers(1, 4))
            return gh.BettiVector(
                d=d, beta=tuple(int(b) for b in rng.integers(0, 4, size=d + 1))
            )

        for _ in range(20):
            a, b, c = random_vector(), random_vector(), random_vector()
            assert gh.kunneth_product(gh.kunneth_product(a, b), c) == gh.kunneth_product(
                a, gh.kunneth_product(b, c)
            )
        for _ in range(20):
            base, mark = random_vector(), random_vector()
            zeroed = gh.BettiVector(d=base.d, beta=(0, *base.beta[1:]))
            product = gh.kunneth_product(zeroed, mark)
            convolved = [0] * (zeroed.d + mark.d + 1)
            for i, bi in enumerate(zeroed.beta):
                for j, bj in enumerate(mark.beta):
                    convolved[i + j] += bi * bj
            direct = gh.BettiVector(d=len(convolved) - 1, beta=tuple(convolved))
            for n in range(8):
                assert gh.betti.config_betti(product, n) == gh.betti.config_betti(direct, n)
