"""Configuration-space Betti numbers from the Betti data of a base manifold.

The order-n Betti number b_n of the configuration space over a base with
Betti numbers beta_1..beta_d is the degree-n dimension of the supercommutative
algebra generated in degree k by beta_k classes: the coefficient of x^n in

    prod_{k odd} (1 + x^k)^{beta_k} * prod_{k even} (1 - x^k)^{-beta_k},

whose x^{s k} coefficients are the per-degree power counts

    C(beta_k, s)          for odd k   (wedge powers),
    C(beta_k + s - 1, s)  for even k  (symmetric powers).

That truncated series is the only production route to b_n; it is refused
with ResourceError, before any work, when its multiply-adds would pass
MAX_SERIES_WORK.  betti_report returns the CLI reply itself, a plain dict,
and refuses with ResourceError a b_n past Python's integer-string digit
limit, before the series when a lower bound already shows it.
b_0 is 1, the scalar component.  beta_0 is ignored by the formula, which
presumes an infinite-volume base; a nonzero beta_0 input triggers
InfiniteVolumeWarning, never an error, because product-space pipelines
legitimately carry beta_0 = 1 on a compact factor.

The same numbers arise as dimensions of the graded algebra with degrees
p(i) = i and component dims beta_i.  The CLI's algebra-check command checks
the series against the projector brute force; the test suite checks it
against the closed-form sum over word lengths and confirms the vanishing
block that vanishing_threshold reports.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from math import comb, lgamma, log
from typing import Iterable, Sequence

from .errors import InvariantError, ResourceError, strict_int

# Bound on F * (n_max + 1)^2, the multiply-adds of config_betti_series for F
# nonzero factors (F counted as 1 when there are none: the reply still holds
# n_max + 1 coefficients).  The slowest shapes measured at the bound, forty
# beta_k = 6 at n_max 865 and ten beta_k = 9 at n_max 1730, took 0.7-0.8 s
# on a 2-core Xeon VM.
MAX_SERIES_WORK = 3 * 10**7


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
        try:
            d, beta = doc["d"], doc["beta"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"Betti vector document needs 'd' and 'beta': {exc}") from exc
        if not isinstance(beta, list):
            raise ValueError(f"beta must be a list of integers, got {beta!r}")
        return cls(d=d, beta=tuple(beta))


def _warn_if_finite_volume(betti: BettiVector) -> None:
    if betti.beta[0] != 0:
        warnings.warn(
            f"beta_0 = {betti.beta[0]} != 0: the configuration formula assumes an "
            "infinite-volume base and ignores beta_0",
            InfiniteVolumeWarning,
            stacklevel=3,
        )


def beta_super(beta_k: int, k: int, s: int) -> int:
    """Dimension of the s-th power of a beta_k-dimensional degree-k space.

    Wedge power C(beta_k, s) for odd k, symmetric power C(beta_k + s - 1, s)
    for even k.
    """
    if s < 1 or k < 1:
        raise ValueError("need s >= 1 and k >= 1")
    if beta_k < 0:
        raise ValueError("beta_k must be non-negative")
    return comb(beta_k, s) if k % 2 else comb(beta_k + s - 1, s)


def truncated_product(factors: Iterable[Sequence[int]], n_max: int) -> list[int]:
    """Coefficients 0..n_max of the product of the given polynomials.

    Each factor is a coefficient list, constant term first; terms above
    degree n_max are dropped.  The empty product is 1.
    """
    poly = [1] + [0] * n_max
    for factor in factors:
        out = [0] * (n_max + 1)
        for i, ci in enumerate(poly):
            if ci:
                for j, fj in enumerate(factor[: n_max - i + 1]):
                    if fj:
                        out[i + j] += ci * fj
        poly = out
    return poly


def config_betti(betti: BettiVector, n: int) -> int:
    """Order-n Betti number of the configuration space over the given base.

    The degree-n coefficient of config_betti_series; b_0 = 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return config_betti_series(betti, n)[n]


def config_betti_series(betti: BettiVector, n_max: int) -> list[int]:
    """b_0..b_{n_max} via the product generating function.

    Coefficients of prod_{k odd} (1 + x^k)^{beta_k} * prod_{k even}
    (1 - x^k)^{-beta_k} truncated at degree n_max, the x^{s k} coefficient of
    each factor being beta_super(beta_k, k, s).
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    # a factor of degree k > n_max is 1 modulo x^(n_max + 1)
    degrees = [k for k in range(1, min(betti.d, n_max) + 1) if betti.beta[k]]
    work = max(len(degrees), 1) * (n_max + 1) ** 2
    if work > MAX_SERIES_WORK:
        raise ResourceError(
            f"the series to n_max = {n_max} over {len(degrees)} nonzero beta_k needs about "
            f"{work:.3g} multiply-adds, over the budget of {MAX_SERIES_WORK:.3g}"
        )
    _warn_if_finite_volume(betti)
    factors = []
    for k in degrees:
        factor = [1] + [0] * n_max
        for s in range(1, n_max // k + 1):
            factor[s * k] = beta_super(betti.beta[k], k, s)
        factors.append(factor)
    return truncated_product(factors, n_max)


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

    The second factor is the compact one (beta_0 >= 1 expected); the first
    should have beta_0 = 0, otherwise InfiniteVolumeWarning fires.
    """
    if betti_x.beta[0] != 0:
        warnings.warn(
            "first factor has beta_0 != 0; expected an infinite-volume factor",
            InfiniteVolumeWarning,
            stacklevel=2,
        )
    if betti_m.beta[0] < 1:
        warnings.warn(
            "compact factor has beta_0 = 0; expected beta_0 >= 1",
            UserWarning,
            stacklevel=2,
        )
    d = betti_x.d + betti_m.d
    beta = [0] * (d + 1)
    for i, bi in enumerate(betti_x.beta):
        for j, bj in enumerate(betti_m.beta):
            beta[i + j] += bi * bj
    return BettiVector(d=d, beta=tuple(beta))


def fiber_decomposition_check(N: int, d: int, n: int) -> tuple[int, int]:
    """Both sides of the fiber dimension identity for an N-point configuration.

    lhs: dim of the n-th wedge power of a direct sum of N copies of R^d,
    C(N*d, n).  rhs: group the wedge by which points carry positive degree,
    C(N, m) times the weighted count of ordered degree tuples summing to n.
    Returns (lhs, rhs) for the caller to compare.
    """
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 and d >= 1")
    if not 0 <= n <= N * d:
        raise ValueError("need 0 <= n <= N*d")
    lhs = comb(N * d, n)
    weights = [0] + [comb(d, k) for k in range(1, d + 1)]
    rhs = sum(
        comb(N, m) * truncated_product([weights] * m, n)[n]
        for m in range(min(n, N) + 1)
    )
    return lhs, rhs


def _log10_lower_bound(betti: BettiVector, n_max: int) -> float:
    """A lower bound on log10 max(b_0..b_{n_max}), from the single factors.

    Every factor has non-negative coefficients and constant term 1, so
    b_{sk} >= beta_super(beta_k, k, s) for s <= n_max / k.  That is C(n, r)
    with n = beta_k (odd k, r = s up to beta_k / 2, where C(n, r) peaks) or
    n = beta_k + s - 1 (even k, r = s); and C(n, r) >= (n - r + 1)^r / r!,
    whose log needs no lgamma of n, so no cancellation however large n is.
    """
    best = 0.0
    for k in range(1, min(betti.d, n_max) + 1):
        beta_k = betti.beta[k]
        if not beta_k:
            continue
        if k % 2:
            r = min(n_max // k, (beta_k + 1) // 2)
            n = beta_k
        else:
            r = n_max // k
            n = beta_k + r - 1
        best = max(best, r * log(n - r + 1) - lgamma(r + 1))
    return best / log(10)


def _too_many_digits(digits: str, limit: int) -> ResourceError:
    return ResourceError(
        f"a Betti number in the reply has {digits} decimal digits, over Python's limit of "
        f"{limit} for an integer string (sys.set_int_max_str_digits)"
    )


def betti_report(betti: BettiVector, n_max: int) -> dict:
    """The betti reply: b_0..b_{n_max} from one series, plus the vanishing block.

    Exact integers are decimal strings; the input echo keeps JSON integers.
    Costs follow n_max alone: the threshold K_0 is read off beta, never
    confirmed by evaluating b_n up to K_0 (the test suite confirms it).
    A b_n past Python's integer-string digit limit is a ResourceError: before
    the series when _log10_lower_bound already passes the limit (with one
    digit to spare for float rounding), else when the reply is written.
    """
    # 0 means no limit, as on Pythons before 3.10.7, which lack the call
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and _log10_lower_bound(betti, n_max) > limit + 1:
        raise _too_many_digits(f"at least {limit + 1}", limit)
    b = config_betti_series(betti, n_max)
    if b[0] != 1:
        raise InvariantError("b_0 must be 1")
    if any(v < 0 for v in b):
        raise InvariantError("negative Betti number in report")
    try:
        decimals = [str(v) for v in b]
    except ValueError:
        raise _too_many_digits(f"more than {limit}", limit) from None
    doc = {
        "input": {"d": betti.d, "beta": list(betti.beta)},
        "n_max": str(n_max),
        "b": decimals,
    }
    K0, valid = vanishing_threshold(betti)
    if valid:
        doc["vanishing"] = {"K0": str(K0)}
    return doc
