"""Configuration-space Betti numbers from the Betti data of a base manifold.

The order-n Betti number b_n of the configuration space over a base with
Betti numbers beta_1..beta_d is the degree-n dimension of the supercommutative
algebra generated in degree k by beta_k classes: the coefficient of x^n in

    prod_{k odd} (1 + x^k)^{beta_k} * prod_{k even} (1 - x^k)^{-beta_k},

whose x^{s k} coefficients are the per-degree power counts

    C(beta_k, s)          for odd k   (wedge powers),
    C(beta_k + s - 1, s)  for even k  (symmetric powers).

_power_factor builds such a factor and truncated_product multiplies them:
the package's one kernel for exact counts (b_n, the graded-algebra closed
form, word counts one length at a time, the Kunneth product).  The series is
the only route to b_n.  It is refused with ResourceError when its
multiply-adds would pass MAX_SERIES_WORK: counted before any work, then
weighted by operand size from the built factors before their product.  It is
refused as soon as a coefficient passes Python's integer-string digit limit
too.  betti_report returns the CLI reply itself, a plain dict.  b_0 is 1.
beta_0 is ignored by the formula, which presumes an infinite-volume base; a
nonzero beta_0 input triggers InfiniteVolumeWarning, never an error, because
product-space pipelines legitimately carry beta_0 = 1 on a compact factor.
algebra-check checks the series against the projector brute force, one table
per Betti vector whose column n, summed over the word lengths m <= n, is
b_n; the tests check the power counts against math.comb and confirm the
vanishing block of vanishing_threshold.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable, Sequence

from .errors import InvariantError, ResourceError, fields, strict_int

# Bound on the work of config_betti_series: the steps truncated_product takes
# through each factor of degree k, _sparse_steps(k, n_max) (no factor counts as
# one of degree 1: the reply still holds n_max + 1 coefficients), plus
# b * c // BIT_PRODUCT_PER_STEP more for each multiply-add of a b-bit by a c-bit
# integer.  The slowest shapes measured at the bound take 0.9-1.3 s of series on
# a 2-core Xeon VM: forty beta_k = 6 at n_max 3739, eighty at 3467, beta_k = 6
# for the twenty even k <= 40 at n_max 5768, sixty beta_k = 2 at 3573; their
# operands weigh nothing extra.  beta = [0, 14000, 0, 14000] weighs 2.4e7 at
# n_max 1000 and takes 0.4-0.5 s; at n_max 3000 it weighs 1.0e9 and took 19-22 s.
MAX_SERIES_WORK = 3 * 10**7
BIT_PRODUCT_PER_STEP = 2**15
# Python's integer-string digit limit, read at each call; 0 (none) before 3.10.7
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


class InfiniteVolumeWarning(UserWarning):
    """The configuration formula assumes beta_0 = 0 (infinite-volume base)."""


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers beta_0..beta_d of a d-dimensional base."""

    d: int
    beta: tuple[int, ...]

    def __post_init__(self):
        d = strict_int(self.d, "d")
        beta = tuple(strict_int(b, f"beta[{i}]") for i, b in enumerate(self.beta))
        if d < 1:
            raise ValueError("dimension d must be >= 1")
        if len(beta) != d + 1:
            raise ValueError(f"need d + 1 = {d + 1} Betti numbers, got {len(beta)}")
        if any(b < 0 for b in beta):
            raise ValueError("Betti numbers must be non-negative")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def from_json(cls, doc: dict) -> "BettiVector":
        doc = fields(doc, "Betti vector", ("d", "beta"))
        if not isinstance(doc["beta"], list):
            raise ValueError(f"beta must be a list of integers, got {doc['beta']!r}")
        return cls(d=doc["d"], beta=tuple(doc["beta"]))


def _warn_if_finite_volume(betti: BettiVector) -> None:
    if betti.beta[0] != 0:
        warnings.warn(
            f"beta_0 = {betti.beta[0]} != 0: the configuration formula assumes an "
            "infinite-volume base and ignores beta_0",
            InfiniteVolumeWarning,
            stacklevel=3,
        )


def truncated_product(factors: Iterable[Sequence[int]], n_max: int) -> list[int]:
    """Coefficients 0..n_max of the product of the given polynomials.

    Each factor is a coefficient list, constant term first; terms above
    degree n_max are dropped.  The empty product is 1.  Each factor's nonzero
    terms are listed once, so a factor nonzero only at multiples of k costs
    about 1/k of a dense one.
    """
    poly = [1] + [0] * n_max
    for factor in factors:
        terms = [(j, fj) for j, fj in enumerate(factor[: n_max + 1]) if fj]
        poly = _times_terms(poly, terms, n_max)
    return poly


def _times_terms(poly: list[int], terms: list[tuple[int, int]], n_max: int) -> list[int]:
    """Coefficients 0..n_max of poly (n_max + 1 of them) times sum fj x^j over the
    nonzero terms (j, fj), j ascending: one step of truncated_product."""
    out = [0] * (n_max + 1)
    for i, ci in enumerate(poly):
        if ci:
            top = n_max - i
            for j, fj in terms:
                if j > top:
                    break
                out[i + j] += ci * fj
    return out


def config_betti(betti: BettiVector, n: int) -> int:
    """Order-n Betti number of the configuration space over the given base.

    The degree-n coefficient of config_betti_series; b_0 = 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return config_betti_series(betti, n)[n]


def config_betti_series(betti: BettiVector, n_max: int) -> list[int]:
    """b_0..b_{n_max}: the series truncated at n_max, one _power_factor per beta_k.

    A coefficient of 10**limit or more (Python's integer-string digit limit)
    is a ResourceError: a factor's as it is made, then the product's.  No
    factor coefficient exceeds some b_n: every factor has non-negative
    coefficients and constant term 1.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    # a factor of degree k > n_max is 1 modulo x^(n_max + 1)
    degrees = [k for k in range(1, min(betti.d, n_max) + 1) if betti.beta[k]]
    work = sum(_sparse_steps(k, n_max) for k in degrees or [1])
    _refuse_work(work, n_max, len(degrees))
    limit = _digit_limit()
    factors = [_power_factor(betti.beta[k], k % 2, k, n_max, limit) for k in degrees]
    # factor[j] multiplies the n_max + 1 - j running-product coefficients of degree
    # at most n_max - j, each of at most `bits` bits: they are non-negative and at
    # most the product of the earlier factors' coefficient sums
    bits = 0
    for factor in factors:
        if bits * max(factor).bit_length() >= BIT_PRODUCT_PER_STEP:  # else every weight is 0
            work += sum(
                (n_max + 1 - j) * (bits * c.bit_length() // BIT_PRODUCT_PER_STEP)
                for j, c in enumerate(factor) if c
            )
        bits += sum(factor).bit_length()
    _refuse_work(work, n_max, len(degrees))
    _warn_if_finite_volume(betti)
    b = truncated_product(factors, n_max)
    _refuse_digits(max(b), limit)
    return b


def _sparse_steps(spacing: int, n_max: int) -> int:
    """Steps of truncated_product through one factor nonzero at multiples of k = spacing.

    Coefficient i = 0..n_max of the running product meets the factor's terms
    up to degree n_max - i, floor((n_max - i) / k) + 1 of them.  With
    n_max = q k + r the floors sum to k q (q - 1) / 2 + (r + 1) q.
    """
    q, r = divmod(n_max, spacing)
    return spacing * q * (q - 1) // 2 + (r + 1) * q + n_max + 1


def _power_factor(dim: int, odd: int, spacing: int, n_max: int, limit: int) -> list[int]:
    """Coefficients 0..n_max of (1 + x^spacing)^dim if odd, else (1 - x^spacing)^-dim.

    The x^(spacing s) term C(dim, s), or C(dim + s - 1, s), comes exactly from the
    last by C(n, s) = C(n, s - 1) (n - s + 1) / s and is digit-checked as it is made.
    """
    factor = [1] + [0] * n_max
    top = min(n_max // spacing, dim) if odd else n_max // spacing
    c = 1
    for s in range(1, top + 1):
        c = c * (dim - s + 1 if odd else dim + s - 1) // s
        _refuse_digits(c, limit)
        factor[s * spacing] = c
    return factor


def _refuse_work(work: int, n_max: int, n_factors: int) -> None:
    if work > MAX_SERIES_WORK:
        raise ResourceError(
            f"the series to n_max = {n_max} over {n_factors} nonzero beta_k needs about "
            # Decimal, not float: the work of a 400-digit n_max overflows a float
            f"{Decimal(work):.3g} multiply-adds, weighted by operand size, over the budget "
            f"of {Decimal(MAX_SERIES_WORK):.3g}"
        )


def _refuse_digits(value: int, limit: int) -> None:
    # value >= 10**limit has more than limit * log2(10) > limit * 3.32 bits; the
    # bit test spares building 10**limit, which costs as much as a small request
    if limit and value.bit_length() > limit * 3.32 and value >= 10**limit:
        raise ResourceError(
            f"an integer in the reply has more than {limit} decimal digits, over "
            f"Python's limit of {limit} for an integer string (sys.set_int_max_str_digits)"
        )


def vanishing_threshold(betti: BettiVector) -> tuple[int, bool]:
    """(K_0, valid): K_0 = sum_i i * beta_i; valid iff all even beta vanish.

    When valid, b_{K_0} = 1 and b_n = 0 for every n > K_0: the series is then
    prod_{k odd} (1 + x^k)^{beta_k}, a polynomial of degree K_0 with leading
    coefficient 1.  valid = False claims nothing.
    """
    K0 = sum(i * betti.beta[i] for i in range(1, betti.d + 1))
    valid = all(betti.beta[k] == 0 for k in range(2, betti.d + 1, 2))
    return K0, valid


def kunneth_product(betti_x: BettiVector, betti_m: BettiVector) -> BettiVector:
    """Betti vector of a product base: the convolution of the factors.

    The second factor is the compact one (beta_0 >= 1 expected, UserWarning
    otherwise).  A first factor with beta_0 != 0 makes the product's beta_0
    nonzero too, which the series warns of once, as it does for any base.
    """
    if betti_m.beta[0] < 1:
        warnings.warn(
            "compact factor has beta_0 = 0; expected beta_0 >= 1",
            UserWarning,
            stacklevel=2,
        )
    d = betti_x.d + betti_m.d
    return BettiVector(d=d, beta=tuple(truncated_product([betti_x.beta, betti_m.beta], d)))


def betti_report(betti: BettiVector, n_max: int) -> dict:
    """The betti reply: b_0..b_{n_max} from one series, plus the vanishing block.

    Exact integers are decimal strings; the input echo keeps JSON integers.
    Costs follow n_max alone: the threshold K_0 is read off beta, never
    confirmed by evaluating b_n up to K_0 (the test suite confirms it).  A b_n
    past Python's integer-string digit limit is refused by the series itself,
    and K_0 by the same check before it is written.
    """
    b = config_betti_series(betti, n_max)
    if b[0] != 1:
        raise InvariantError("b_0 must be 1")
    if any(v < 0 for v in b):
        raise InvariantError("negative Betti number in report")
    doc = {
        "input": {"d": betti.d, "beta": list(betti.beta)},
        "n_max": str(n_max),
        "b": [str(v) for v in b],
    }
    K0, valid = vanishing_threshold(betti)
    if valid:
        _refuse_digits(K0, _digit_limit())
        doc["vanishing"] = {"K0": str(K0)}
    return doc
