"""Independent per-request oracles: a fast wrong answer never counts.

``check(request, exit_code, stdout)`` returns None when the reply is right and
a one-line reason otherwise.  The exact oracles recompute every number from
the request alone, by routes the library does not use: iterated
multiplication of truncated power series for Betti numbers and graded
dimensions, and the rank recursion r_{k+1} = c_k - beta_k - r_k for the Hodge
split of a complex whose homology is known by construction.  The Monte Carlo
oracle works out each check's reference in closed form (error functions for
Gaussians) and bounds the standard error it will accept from the spec alone.
"""

from __future__ import annotations

import json
import math
from math import comb

MAX_SIGMAS = 6.0
# Relative agreement asked of the reply's reference (the library's quadrature
# tolerance is 1e-10).
REFERENCE_REL_TOL = 1e-7
# How far a reported standard error may exceed the exact one.  Over 1e5 draws
# the ratio stayed below 1.05 in 846 laplace and local checks.  Subset sums
# are heavy-tailed: in 5128 one-dimensional m = 3 Mecke checks it reached 1.78.
SIGMA_SLACK = {"laplace": 1.25, "local": 1.25, "mecke": 3.0}


def config_betti_oracle(beta: list[int], n_max: int) -> list[int]:
    """b_0..b_{n_max}: prod over k of (1+x^k)^beta_k (odd k), (1-x^k)^-beta_k (even k).

    beta[0] is ignored.  Each factor is applied one linear term at a time:
    multiply by (1 + x^k), or divide by (1 - x^k) as a running sum with
    stride k.
    """
    poly = [1] + [0] * n_max
    for k in range(1, len(beta)):
        for _ in range(beta[k]):
            if k % 2:
                for i in range(n_max, k - 1, -1):
                    poly[i] += poly[i - k]
            else:
                for i in range(k, n_max + 1):
                    poly[i] += poly[i - k]
    return poly


def graded_dims_oracle(components, m_max: int, n_max: int) -> list[list[int]]:
    """dims[m][n] of the supersymmetric algebra on (degree, dim) components.

    Bivariate series in t (word length) and x (degree): every basis letter of
    odd degree p contributes (1 + t x^p), every letter of even degree
    1 / (1 - t x^p).
    """
    dims = [[0] * (n_max + 1) for _ in range(m_max + 1)]
    dims[0][0] = 1
    for p, dim in components:
        for _ in range(dim):
            if p % 2:
                for m in range(m_max, 0, -1):
                    for n in range(n_max, p - 1, -1):
                        dims[m][n] += dims[m - 1][n - p]
            else:
                for m in range(1, m_max + 1):
                    for n in range(p, n_max + 1):
                        dims[m][n] += dims[m - 1][n - p]
    return dims


def convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _check_betti_doc(doc: dict, beta: list[int], n_max: int) -> str | None:
    d = len(beta) - 1
    if doc.get("input") != {"d": d, "beta": beta}:
        return f"input echo {doc.get('input')} != d={d}, beta={beta}"
    if doc.get("n_max") != str(n_max):
        return f"n_max echo {doc.get('n_max')} != {n_max}"
    want = [str(v) for v in config_betti_oracle(beta, n_max)]
    if doc.get("b") != want:
        return f"b {doc.get('b')} != oracle {want}"
    odd_only = all(beta[k] == 0 for k in range(2, d + 1, 2))
    if odd_only:
        K0 = sum(k * beta[k] for k in range(1, d + 1))
        if doc.get("vanishing") != {"K0": str(K0)}:
            return f"vanishing {doc.get('vanishing')} != K0 {K0}"
    elif "vanishing" in doc:
        return "vanishing block reported for a vector with even Betti numbers"
    return None


def _betti(expect: dict, doc: dict) -> str | None:
    return _check_betti_doc(doc, expect["beta"], expect["n_max"])


def _pipeline(expect: dict, doc: dict) -> str | None:
    raw = expect["complex_betti"]
    source = doc.get("beta_source", {})
    if source.get("complex_betti") != [str(b) for b in raw]:
        return f"complex_betti {source.get('complex_betti')} != {raw}"
    if source.get("infinite_volume_override") is not expect["infinite_volume"]:
        return "infinite_volume_override echo is wrong"
    beta = list(raw)
    if expect["infinite_volume"]:
        beta[0] = 0
    beta += [0] * (2 - len(beta))
    if "mark_betti" in expect:
        mark = expect["mark_betti"]
        if source.get("mark_betti") != [str(b) for b in mark]:
            return f"mark_betti {source.get('mark_betti')} != {mark}"
        beta = convolve(beta, mark)
    return _check_betti_doc(doc, beta, expect["n_max"])


def _simplicial(expect: dict, doc: dict) -> str | None:
    betti, chains = expect["betti"], expect["chain_dims"]
    if doc.get("betti") != [str(b) for b in betti]:
        return f"betti {doc.get('betti')} != {betti}"
    if doc.get("num_vertices") != str(chains[0]) or doc.get("max_dim") != str(len(chains) - 1):
        return "vertex count or dimension echo is wrong"
    rows = doc.get("decomposition", [])
    if len(rows) != len(chains):
        return f"{len(rows)} decomposition rows for {len(chains)} degrees"
    incoming = 0  # rank of the boundary into C_k
    for k, (row, c, b) in enumerate(zip(rows, chains, betti)):
        outgoing = c - b - incoming
        want = {"k": str(k), "chain_dim": str(c), "harmonic": str(b),
                "exact": str(incoming), "coexact": str(outgoing)}
        if row != want:
            return f"decomposition row {row} != {want}"
        incoming = outgoing
    if incoming != 0:
        return "top-degree coexact part is not zero"
    probes = doc.get("kron_probes", [])
    if len(probes) != expect["probes"]:
        return f"{len(probes)} Kronecker probes for {expect['probes']} requested"
    for probe in probes:
        if probe["computed"] != probe["predicted"]:
            return f"Kronecker probe {probe['probe']}: computed != predicted"
    return None


def grid_instances(grid: dict) -> int:
    """Rows algebra-check reports for a grid, counted from the grid alone."""
    pairs = grid["degree_max"] * grid["dim_max"]
    spaces = sum(comb(pairs + size - 1, size) for size in range(1, grid["l_max"] + 1))
    dims_rows = spaces * (grid["m_max"] + 1) * (grid["n_max"] + 1)
    betti_rows = (grid["betti_beta_max"] + 1) ** grid["betti_d_max"] * (grid["betti_n_max"] + 1)
    return dims_rows + betti_rows


def _algebra(expect: dict, doc: dict) -> str | None:
    grid = expect["grid"]
    summary, rows = doc.get("summary", {}), doc.get("rows", [])
    want = str(grid_instances(grid))
    if summary.get("instances") != want or len(rows) != int(want):
        return f"instances {summary.get('instances')} / {len(rows)} rows != {want} from the grid"
    if summary.get("mismatches") != "0" or summary.get("skipped") != "0" or summary.get("ok") != want:
        return f"summary {summary} is not all ok"
    dims_cache: dict = {}
    for row in rows:
        if row.get("status") != "ok":
            return f"row {row} is not ok"
        n = int(row["n"])
        if row["kind"] == "dims":
            space = tuple(tuple(c) for c in row["space"])
            if space not in dims_cache:
                dims_cache[space] = graded_dims_oracle(space, grid["m_max"], grid["n_max"])
            value = dims_cache[space][int(row["m"])][n]
            got = (row["closed"], row["brute"])
        else:
            value = config_betti_oracle(row["beta"], n)[n]
            got = (row["formula"], row["brute"])
        if got != (str(value), str(value)):
            return f"{row['kind']} row {row} != oracle {value}"
    return None


def product_integral(factors, lengths: list[float]) -> float:
    """Integral over the window [0, lengths] of prod f^power over (f, power) factors.

    Every f is a box or a Gaussian, so the product separates by coordinate:
    in each, the Gaussians combine into one, integrated with erf over the
    intersection of the boxes and the window.
    """
    factors = [(f, power) for f, power in factors if power]
    total = math.prod(f["scale"] ** power for f, power in factors)
    for i, length in enumerate(lengths):
        lo, hi, a, b, c = 0.0, length, 0.0, 0.0, 0.0  # exponent -(a x^2 - 2 b x + c)
        for f, power in factors:
            if f["kind"] == "box":
                lo, hi = max(lo, f["lo"][i]), min(hi, f["hi"][i])
            else:
                weight = power / f["width"][i] ** 2
                a, b, c = a + weight, b + weight * f["center"][i], c + weight * f["center"][i] ** 2
        if hi <= lo:
            return 0.0
        if a == 0.0:
            total *= hi - lo
        else:
            root, mid = math.sqrt(a), b / a
            total *= (math.exp(b * mid - c) * math.sqrt(math.pi) / (2 * root)
                      * (math.erf(root * (hi - mid)) - math.erf(root * (lo - mid))))
    return total


def expm1_integral(f: dict, lengths: list[float], factor: float = 1.0) -> float:
    """Integral of exp(factor * f) - 1 over the window, as a series in powers of f."""
    total, coefficient = 0.0, 1.0
    for power in range(1, 80):
        coefficient *= factor / power
        term = coefficient * product_integral([(f, power)], lengths)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total


def _sum_moments(phi: dict, lengths: list[float]) -> list[float]:
    """E[S^j], j = 0..4, of S = <phi, gamma>, from its cumulants int phi^n."""
    k1, k2, k3, k4 = (product_integral([(phi, n)], lengths) for n in range(1, 5))
    return [1.0, k1, k2 + k1**2, k3 + 3 * k2 * k1 + k1**3,
            k4 + 4 * k3 * k1 + 3 * k2**2 + 6 * k2 * k1**2 + k1**4]


def _quadratic(coeffs) -> tuple[float, float, float]:
    return tuple((list(coeffs) + [0.0] * 3)[:3])


def _mecke_lhs_moments(m: int, g: dict, phi: dict, coeffs, lengths, moments):
    """E[X] and E[X^2] of X = sum over m-subsets A of prod g(A) h(<phi, gamma - A>).

    E[X^2] sums over the overlap j = |A & B| of two subsets; by the Mecke
    formula that is the integral over j shared points x and r = m - j points
    y, z in A or B alone of prod g(x)^2 prod g(y) prod g(z) times
    E[h(S + phi(z)) h(S + phi(y))], over j! r!^2.  With h(S + u) =
    a0(u) + a1(u) S + c2 S^2 the inner mean is the quadratic form of the
    y- and z-integrals of (a0, a1, c2) in the Hankel matrix of E[S^j].
    """
    c0, c1, c2 = _quadratic(coeffs)
    J = {(a, b): product_integral([(g, a), (phi, b)], lengths) for a in (1, 2) for b in (0, 1, 2)}
    hankel = [[moments[p + q] for q in range(3)] for p in range(3)]
    second = 0.0
    for j in range(m + 1):
        r = m - j
        # integrals over r points of prod g times u^k, u the sum of phi over them
        u0 = J[1, 0] ** r
        u1 = r * J[1, 1] * J[1, 0] ** (r - 1) if r else 0.0
        u2 = ((r * J[1, 2] * J[1, 0] ** (r - 1) if r else 0.0)
              + (r * (r - 1) * J[1, 1] ** 2 * J[1, 0] ** (r - 2) if r > 1 else 0.0))
        A = (c0 * u0 + c1 * u1 + c2 * u2, c1 * u0 + 2 * c2 * u1, c2 * u0)
        form = sum(A[p] * hankel[p][q] * A[q] for p in range(3) for q in range(3))
        second += J[2, 0] ** j / (math.factorial(j) * math.factorial(r) ** 2) * form
    mean_h = c0 + c1 * moments[1] + c2 * moments[2]
    return J[1, 0] ** m / math.factorial(m) * mean_h, second


def _poly_mean_var(coeffs, moments: list[float]) -> tuple[float, float]:
    """Mean and variance of h(S) for a quadratic h, from E[S^j]."""
    c0, c1, c2 = _quadratic(coeffs)
    mean = c0 + c1 * moments[1] + c2 * moments[2]
    square = [c0 * c0, 2 * c0 * c1, c1 * c1 + 2 * c0 * c2, 2 * c1 * c2, c2 * c2]
    return mean, sum(a * m for a, m in zip(square, moments)) - mean * mean


def poisson_truth(spec: dict) -> tuple[float, float]:
    """Exact reference and the exact standard deviation of one sample.

    laplace: E[e^S] = exp(int (e^f - 1)) and E[e^2S] = exp(int (e^2f - 1)).
    local: mean and variance of h(S) from the moments of S.  mecke: the
    subset-sum side's mean and variance (see _mecke_lhs_moments) pooled with
    the augmented side's, as the reply's pooled standard error is.
    """
    lengths = spec["window"]["lengths"]
    if spec["check"] == "laplace":
        reference = math.exp(expm1_integral(spec["f"], lengths))
        second = math.exp(expm1_integral(spec["f"], lengths, 2.0))
        return reference, math.sqrt(max(second - reference**2, 0.0))
    f = spec["f"]
    moments = _sum_moments(f["phi"], lengths)
    mean_h, var_h = _poly_mean_var(f["h"]["coeffs"], moments)
    if spec["check"] == "local":
        return mean_h, math.sqrt(max(var_h, 0.0))
    m = spec["m"]
    mean, second = _mecke_lhs_moments(m, f["g"], f["phi"], f["h"]["coeffs"], lengths, moments)
    weight = product_integral([(f["g"], 1)], lengths) ** m / math.factorial(m)
    return mean, math.sqrt(max(second - mean**2, 0.0) + weight**2 * max(var_h, 0.0))


def _poisson(expect: dict, doc: dict) -> str | None:
    if doc.get("check") != expect["check"] or doc.get("samples") != str(expect["samples"]):
        return "check name or sample count echo is wrong"
    if expect["check"] == "mecke":
        sigma = doc.get("extra", {}).get("pooled_std_error")
    else:
        sigma = doc.get("std_error")
    estimate, reference = doc.get("estimate"), doc.get("reference")
    if not all(isinstance(v, float) for v in (sigma, estimate, reference)) or not sigma > 0:
        return f"estimate {estimate}, reference {reference}, sigma {sigma} are not usable"
    truth, spread = poisson_truth(expect["spec"])
    if abs(reference - truth) > REFERENCE_REL_TOL * max(abs(truth), 1e-8):
        return f"reference {reference} != closed form {truth}"
    sigma_max = SIGMA_SLACK[expect["check"]] * spread / math.sqrt(expect["samples"])
    if sigma > sigma_max:
        return f"standard error {sigma} above {sigma_max} from the spec"
    z = abs(estimate - truth) / sigma
    if not z <= MAX_SIGMAS:
        return f"estimate {estimate} is {z:.1f} sigma from reference {truth}"
    return None


_ORACLES = {
    "betti": _betti,
    "pipeline": _pipeline,
    "simplicial": _simplicial,
    "algebra-check": _algebra,
    "poisson": _poisson,
}


def check(request, exit_code: int, stdout: str) -> str | None:
    """None if the reply to ``request`` is correct, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"reply is not JSON: {exc}"
    return _ORACLES[request.command](request.expect, doc)
