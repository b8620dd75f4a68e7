"""Configuration Betti formula, vanishing, convolution, fiber identity.

Oracles here: subset/multiset counting by literal enumeration, polynomial
convolution done by hand, the closed-form sum over word lengths, and the
graded-algebra brute-force rank sum for the central dimension identity.
"""

import itertools
import sys
import warnings
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_oracles import beta_super, fiber_decomposition_check
from gammahodge import betti
from gammahodge.betti import (
    BettiVector,
    InfiniteVolumeWarning,
    betti_report,
    config_betti,
    config_betti_series,
    kunneth_product,
    truncated_product,
    vanishing_threshold,
)
from gammahodge.errors import ResourceError
from gammahodge.graded_algebra import (
    GradedSpace,
    sym_component_dim_bruteforce,
    sym_component_dim_closed,
)

betti_vectors = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.tuples(*([st.just(0)] + [st.integers(0, 3)] * d)),
    )
).map(lambda t: BettiVector(d=t[0], beta=t[1]))


def algebra_space(vector):
    return GradedSpace(tuple((k, vector.beta[k]) for k in range(1, vector.d + 1)))


def closed_form_b(vector, n):
    """b_n as the closed-form algebra dimension summed over word lengths."""
    space = algebra_space(vector)
    return sum(sym_component_dim_closed(space, m, n) for m in range(n + 1))


@st.composite
def odd_only_vectors(draw, d_max=7, k0_max=60):
    """Odd-only Betti vectors with d <= d_max and K_0 = sum k beta_k <= k0_max."""
    d = draw(st.integers(1, d_max))
    beta = [0] * (d + 1)
    budget = k0_max
    for k in range(1, d + 1, 2):
        beta[k] = draw(st.integers(0, budget // k))
        budget -= k * beta[k]
    return BettiVector(d=d, beta=tuple(beta))


# ---------------------------------------------------------------------------
# beta_super

def test_beta_super_odd_counts_subsets():
    assert beta_super(3, 1, 2) == len(list(itertools.combinations(range(3), 2)))
    assert beta_super(3, 1, 2) == 3


def test_beta_super_even_counts_multisets():
    oracle = len(list(itertools.combinations_with_replacement(range(2), 3)))
    assert beta_super(2, 2, 3) == oracle
    assert beta_super(2, 2, 3) == 4


def test_beta_super_empty_generators():
    for k in (1, 2, 3):
        for s in (1, 2, 5):
            assert beta_super(0, k, s) == 0


def test_beta_super_validation():
    with pytest.raises(ValueError):
        beta_super(2, 1, 0)
    with pytest.raises(ValueError):
        beta_super(2, 0, 1)


# ---------------------------------------------------------------------------
# config_betti

def test_surface_like_base_gives_binomials():
    for B in range(7):
        vector = BettiVector(d=2, beta=(0, B, 0))
        for k in range(B + 4):
            assert config_betti(vector, k) == comb(B, k)


def test_trivial_base():
    vector = BettiVector(d=3, beta=(0, 0, 0, 0))
    assert config_betti(vector, 0) == 1
    for n in range(1, 8):
        assert config_betti(vector, n) == 0


def test_matches_bruteforce_algebra_dimensions():
    # central identity at small scale; the acceptance suite runs the full grid
    for beta in itertools.product(range(3), repeat=2):
        vector = BettiVector(d=2, beta=(0, *beta))
        space = algebra_space(vector)
        for n in range(5):
            brute = sum(sym_component_dim_bruteforce(space, m, n) for m in range(n + 1))
            assert config_betti(vector, n) == brute


@settings(max_examples=60)
@given(vector=betti_vectors, n_max=st.integers(0, 10))
def test_series_path_equals_enumeration(vector, n_max):
    series = config_betti_series(vector, n_max)
    assert series == [closed_form_b(vector, n) for n in range(n_max + 1)]


@settings(max_examples=40)
@given(vector=betti_vectors, k=st.integers(1, 4), n=st.integers(0, 8))
def test_monotone_in_every_beta(vector, k, n):
    k = min(k, vector.d)
    bumped = list(vector.beta)
    bumped[k] += 1
    bigger = BettiVector(d=vector.d, beta=tuple(bumped))
    assert config_betti(bigger, n) >= config_betti(vector, n)


# shaped like _power_factor output: nonzero only at multiples of a spacing, and
# often longer than n_max + 1, so the kernel's stop at degree n_max is exercised
spaced_factors = st.builds(
    lambda spacing, values: [v if j % spacing == 0 else 0 for j, v in enumerate(values)],
    st.integers(1, 5), st.lists(st.integers(-3, 3), max_size=30),
)


@settings(max_examples=120)
@given(
    factors=st.lists(
        st.one_of(st.lists(st.integers(-3, 3), max_size=6), spaced_factors, st.just([])),
        max_size=4,
    ),
    n_max=st.integers(0, 12),
)
def test_truncated_product_matches_literal_convolution(factors, n_max):
    full = [1]
    for factor in factors:
        out = [0] * (len(full) + len(factor))
        for i, a in enumerate(full):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        full = out
    full += [0] * (n_max + 1)
    assert truncated_product(factors, n_max) == full[: n_max + 1]


def test_nonzero_beta0_warns():
    vector = BettiVector(d=1, beta=(1, 1))
    with pytest.warns(InfiniteVolumeWarning):
        config_betti(vector, 1)
    # beta_0 is ignored by the formula
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zero = BettiVector(d=1, beta=(0, 1))
        assert [config_betti(vector, n) for n in range(4)] == [
            config_betti(zero, n) for n in range(4)
        ]


def test_sparse_steps_closed_form_is_the_sum_over_the_running_product():
    for spacing in range(1, 8):
        for n_max in range(30):
            assert betti._sparse_steps(spacing, n_max) == sum(
                (n_max - i) // spacing + 1 for i in range(n_max + 1))


def test_series_budget_counts_factors_up_to_n_max_and_is_inclusive(monkeypatch):
    # beta_3 is skipped at n_max 2: its factor is 1 modulo x^3.  The product steps
    # 3 + 2 + 1 times through the degree-1 factor and 2 + 1 + 1 through the degree-2 one
    vector = BettiVector(d=3, beta=(0, 1, 1, 7))
    monkeypatch.setattr(betti, "MAX_SERIES_WORK", 6 + 4)
    assert config_betti_series(vector, 2) == [1, 1, 1]
    monkeypatch.setattr(betti, "MAX_SERIES_WORK", 6 + 4 - 1)
    with pytest.raises(ResourceError, match="over 2 nonzero beta_k"):
        config_betti_series(vector, 2)


@pytest.mark.parametrize("beta, n_max, served", [
    # the shapes the budget was sized on, at their last admitted n_max: small
    # operands weigh nothing extra.  Forty beta_k = 6 took 0.08 s at n_max 865 and
    # was refused at 866 while the budget counted every factor as dense
    ([0] + [6] * 40, 3739, True),
    ([0] + [6] * 40, 3740, False),
    ([0] + [0, 6] * 20, 5768, True),
    ([0] + [0, 6] * 20, 5769, False),
    # thousand-digit operands: 0.36 s at n_max 1000, 1.4 s at 1500
    ([0, 14000, 0, 14000], 1000, True),
    ([0, 14000, 0, 14000], 1500, False),
])
def test_series_budget_weighs_operand_sizes(monkeypatch, beta, n_max, served):
    monkeypatch.setattr(betti, "truncated_product", lambda factors, n: [1] + [0] * n)
    vector = BettiVector(d=len(beta) - 1, beta=tuple(beta))
    if served:
        config_betti_series(vector, n_max)
    else:
        with pytest.raises(ResourceError, match="weighted by operand size"):
            config_betti_series(vector, n_max)


def test_series_budget_refuses_before_warning(monkeypatch):
    monkeypatch.setattr(betti, "MAX_SERIES_WORK", 10)
    # no factor at all still counts as one of degree 1 (1 + 2 + 3 + 4 steps at
    # n_max 3): the reply holds n_max + 1 coefficients
    assert config_betti_series(BettiVector(d=1, beta=(0, 0)), 3) == [1, 0, 0, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceError):
            config_betti_series(BettiVector(d=1, beta=(1, 0)), 4)


@settings(max_examples=80)
@given(
    beta_k=st.one_of(st.integers(0, 40), st.integers(0, 10**15)),
    k=st.integers(1, 4),
    n_max=st.integers(0, 30),
)
def test_series_factor_coefficients_are_beta_super(beta_k, k, n_max):
    # with one nonzero beta_k the series is that factor alone, whose ratio
    # recurrence must give every C(n, s) that comb gives
    beta = [0] * (k + 1)
    beta[k] = beta_k
    series = config_betti_series(BettiVector(d=k, beta=tuple(beta)), n_max)
    assert series == [1] + [
        0 if n % k else beta_super(beta_k, k, n // k) for n in range(1, n_max + 1)
    ]


def test_digit_limit_is_exact_at_a_power_of_ten():
    limit = sys.get_int_max_str_digits()
    # b_1 = beta_1: 10**limit - 1 has limit digits, 10**limit one more
    assert len(betti_report(BettiVector(d=1, beta=(0, 10**limit - 1)), 1)["b"][1]) == limit
    with pytest.raises(ResourceError, match=f"more than {limit} decimal digits"):
        betti_report(BettiVector(d=1, beta=(0, 10**limit)), 1)


def test_reply_over_the_digit_limit_is_refused_before_the_product_and_the_warning(monkeypatch):
    def no_product(*args):
        raise AssertionError("the product ran")

    monkeypatch.setattr(betti, "truncated_product", no_product)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceError, match="decimal digits, over Python's limit"):
            betti_report(BettiVector(d=2, beta=(1, 0, 10**9)), 1400)


# ---------------------------------------------------------------------------
# vanishing threshold

def test_vanishing_odd_surface():
    vector = BettiVector(d=2, beta=(0, 2, 0))
    K0, valid = vanishing_threshold(vector)
    assert (K0, valid) == (2, True)
    assert config_betti(vector, 2) == 1
    assert config_betti(vector, 3) == 0


def test_vanishing_two_odd_degrees():
    vector = BettiVector(d=3, beta=(0, 1, 0, 1))
    K0, valid = vanishing_threshold(vector)
    assert (K0, valid) == (4, True)
    assert config_betti(vector, 4) == 1
    # brute-force oracle for the single top class
    space = algebra_space(vector)
    assert sum(sym_component_dim_bruteforce(space, m, 4) for m in range(5)) == 1


def test_vanishing_hypothesis_fails_with_even_generator():
    K0, valid = vanishing_threshold(BettiVector(d=2, beta=(0, 0, 1)))
    assert valid is False
    assert K0 == 2


@settings(max_examples=40, deadline=None)
@given(
    b1=st.integers(0, 4),
    b3=st.integers(0, 2),
)
def test_vanishing_sweep_odd_only(b1, b3):
    vector = BettiVector(d=3, beta=(0, b1, 0, b3))
    K0, valid = vanishing_threshold(vector)
    assert valid
    assert K0 == b1 + 3 * b3
    assert config_betti(vector, K0) == 1
    for n in range(K0 + 1, K0 + 5):
        assert config_betti(vector, n) == 0


@settings(max_examples=60, deadline=None)
@given(vector=odd_only_vectors())
def test_vanishing_block_of_odd_only_series(vector):
    # what vanishing_threshold claims without evaluating anything
    K0, valid = vanishing_threshold(vector)
    assert valid
    top = config_betti_series(vector, K0 + vector.d)
    assert top[K0] == 1
    assert top[K0 + 1 :] == [0] * vector.d
    if K0 <= 12:
        for n in range(K0, K0 + vector.d + 1):
            assert top[n] == closed_form_b(vector, n)


# ---------------------------------------------------------------------------
# products

def test_point_factor_is_identity():
    x = BettiVector(d=2, beta=(0, 3, 1))
    point = BettiVector(d=1, beta=(1, 0))
    y = kunneth_product(x, point)
    assert y.beta == (0, 3, 1, 0)


def test_circle_factor_convolution():
    x = BettiVector(d=1, beta=(0, 2))
    circle = BettiVector(d=1, beta=(1, 1))
    y = kunneth_product(x, circle)
    assert y == BettiVector(d=2, beta=(0, 2, 2))


def test_kunneth_warns_on_finite_volume_first_factor():
    with pytest.warns(InfiniteVolumeWarning):
        kunneth_product(BettiVector(d=1, beta=(1, 1)), BettiVector(d=1, beta=(1, 1)))


@settings(max_examples=40)
@given(vs=st.tuples(betti_vectors, betti_vectors, betti_vectors))
def test_kunneth_associative(vs):
    a, b, c = vs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        left = kunneth_product(kunneth_product(a, b), c)
        right = kunneth_product(a, kunneth_product(b, c))
    assert left == right


@given(x=betti_vectors, m=betti_vectors)
def test_kunneth_matches_hand_convolution(x, m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        y = kunneth_product(x, m)
    expected = [0] * (x.d + m.d + 1)
    for i, bi in enumerate(x.beta):
        for j, bj in enumerate(m.beta):
            expected[i + j] += bi * bj
    assert list(y.beta) == expected


# ---------------------------------------------------------------------------
# fiber decomposition

def test_fiber_two_points_on_a_line():
    assert fiber_decomposition_check(2, 1, 2) == (1, 1)


def test_fiber_scalar_component():
    assert fiber_decomposition_check(3, 2, 0) == (1, 1)


def test_fiber_identity_on_a_sweep():
    for N in range(1, 5):
        for d in range(1, 4):
            for n in range(min(N * d, 7) + 1):
                lhs, rhs = fiber_decomposition_check(N, d, n)
                assert lhs == rhs
                assert lhs == comb(N * d, n)


def test_fiber_validation():
    with pytest.raises(ValueError):
        fiber_decomposition_check(0, 1, 0)
    with pytest.raises(ValueError):
        fiber_decomposition_check(2, 2, 5)


# ---------------------------------------------------------------------------
# reports and JSON

def test_report_fields_and_vanishing_block():
    report = betti_report(BettiVector(d=2, beta=(0, 3, 0)), 5)
    assert report["b"] == ["1", "3", "3", "1", "0", "0"]
    assert report["vanishing"]["K0"] == "3"
    report = betti_report(BettiVector(d=2, beta=(0, 1, 1)), 4)
    assert "vanishing" not in report
    assert report["b"][0] == "1"


def test_report_warns_once_on_nonzero_beta0():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = betti_report(BettiVector(d=1, beta=(1, 1)), 4)
    assert [w.category for w in caught] == [InfiniteVolumeWarning]
    assert report["b"] == ["1", "1", "0", "0", "0"]


def test_report_json_round_trip():
    vector = BettiVector(d=3, beta=(0, 2, 0, 1))
    doc = betti_report(vector, 8)
    assert doc["b"] == [str(v) for v in config_betti_series(vector, 8)]
    assert all(isinstance(v, str) for v in doc["b"])


def test_report_json_round_trip_without_vanishing():
    doc = betti_report(BettiVector(d=2, beta=(0, 1, 2)), 4)
    assert "vanishing" not in doc


def test_vector_validation():
    with pytest.raises(ValueError):
        BettiVector(d=0, beta=(1,))
    with pytest.raises(ValueError):
        BettiVector(d=2, beta=(0, 1))
    with pytest.raises(ValueError):
        BettiVector(d=1, beta=(0, -1))
    with pytest.raises(ValueError):
        BettiVector.from_json({"beta": [0, 1]})
    with pytest.raises(ValueError, match=r"beta\[1\]"):
        BettiVector(d=1, beta=(0, 1.0))
    with pytest.raises(ValueError, match="beta must be a list"):
        BettiVector.from_json({"d": 2, "beta": "010"})


def test_vector_json_round_trip():
    vector = BettiVector(d=3, beta=(0, 2, 0, 1))
    assert BettiVector.from_json(betti_report(vector, 0)["input"]) == vector
    # decimal strings are accepted on input too
    assert BettiVector.from_json({"d": "3", "beta": ["0", "2", "0", "1"]}) == vector
