"""Seeded Monte Carlo checks of Poisson point-process identities on boxes.

The process has unit intensity on a box window, so the point count is
Poisson(volume) and points are i.i.d. uniform.  Three checks compare a
Monte Carlo estimate against an independently computed reference, each
returning its JSON reply as a plain dict:

* ``check_laplace``: the exponential moment E[exp<f, gamma>] against
  exp(integral of (e^f - 1) over the window).
* ``check_local_expansion``: the mean of a local functional F against the
  exponentially weighted series sum_n e^{-v} / n! * (integral of F over n
  i.i.d. points), summed until an analytic bound on the dropped terms falls
  below the tail tolerance and the float resolution of the sum.
* ``check_mecke``: the expected sum of f(gamma, x_1..x_m) over m-point
  subsets of gamma against 1/m! times the expectation of the integral of f
  evaluated on the configuration augmented by the integration points.  The
  built-in family is f(gamma, xs) = prod_i g(x_i) * h(<phi, gamma \\ xs>),
  so the augmented side collapses to h(<phi, gamma>) * (integral g)^m / m!.
  The subset side needs no enumeration: the subset sum is the elementary
  symmetric polynomial e_m of the point weights g e^{-t phi} in R[t]/(t^3),
  which Newton's identities build from per-sample power sums (_subset_sums).

Test functions are a closed world: window/box indicator steps, Gaussian
bumps truncated to the window, and polynomials of <phi, gamma> of degree at
most two (a Polynomial holds exactly three coefficients).  Every reference
is then available in closed form or through convergent tensor-product
Gauss-Legendre quadrature, and the quadrature value must agree with the
closed form to 1e-10 relative before any sampling runs
(ReferenceMismatchError otherwise; QuadratureError, a resource limit, when a
Gaussian's box is cut too narrow for the float resolution of its nodes).

Each value of a check spec has one reader, its constructor (Window, ScalarFunction,
Polynomial, LocalFunctional); _KIND_FIELDS and _FUNCTIONAL_FIELDS map each kind to its
fields.  The JSON readers only check an object's keys, hand its raw values over and put
the JSON path in front of a refusal (_at); the window-axis rule lives in ScalarFunction.support.

RNG scheme ``philox4x64-block16384-v1``: sample index i draws from the
Philox4x64 counter stream keyed (seed, i // 16384), all of a block's counts
before its points, so the configuration at (seed, index) never depends on the
sample count.  ``_sampling_plan``, the pre-flight of every check, is the one
reader of its sample count and seed; ``_blocks`` trusts its plan and draws a
block's points one slice of whole samples at a time, each slice expecting about
SLICE_TARGET_BYTES of points, so that its few point-length arrays stay
cache-sized.  Each check
reduces one slice at a time into one array of per-sample values (memory O(one
slice) plus 8 bytes a sample per value), bitwise equal to reducing the whole
batch.  MAX_SLICE_BYTES only refuses a configuration too large to sample.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvariantError, ResourceError, fields, strict_int, strict_seed

RNG_SCHEME = "philox4x64-block16384-v1"
STREAM_BLOCK = 16_384
REL_FLOOR = 1e-8
QUAD_REL_TOL = 1e-10
SHORT_CIRCUIT_REL_TOL = 1e-10
TAIL_REL_TOL = 1e-12
# Variates (a count, then dim coordinates per point) all blocks of a check may draw.
MAX_DRAWS = 2**30
# Expected bytes of one slice's points: a slice's few point-length arrays then stay near
# a 2 MiB L2 cache.  A slice holds whole samples, from 1 up to a whole block.
SLICE_TARGET_BYTES = 2**20
# Expected bytes of one configuration's points above which sampling is refused, its only
# job; a one-sample slice at this edge holds about eight times it at once (Mecke on a line).
MAX_SLICE_BYTES = 32 * 2**20
# exp() of anything larger overflows a float, and JSON cannot carry inf.
EXP_LIMIT = math.log(sys.float_info.max)


class QuadratureError(ResourceError):
    """Adaptive quadrature failed to reach its relative tolerance."""


class ReferenceMismatchError(InvariantError):
    """Quadrature and closed-form reference disagree beyond tolerance."""


def _real(value, field: str) -> float:
    """A finite real number as a float; bools, strings, NaN and infinities are rejected."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{field} must be a finite number, got {value!r}")


def _reals(value, field: str) -> tuple[float, ...]:
    """A list or tuple of finite numbers, each read by _real."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field} must be a list of numbers, got {value!r}")
    return tuple(_real(x, f"{field}[{i}]") for i, x in enumerate(value))


def _at(where: str, build, *args, **values):
    """build(*args, **values) with the JSON path ``where`` in front of its ValueError: a message
    about one of ``values`` opens with its name and reads ``where.name ...``, any other
    ``where: ...``.  A null is refused first: the constructors read None as an absent key.
    """
    for name, value in values.items():
        if value is None:
            raise ValueError(f"{where}.{name} must not be null")
    try:
        return build(*args, **values)
    except ValueError as exc:
        text = str(exc)
        joint = "." if re.match(r"\w*", text)[0] in values else ": "
        raise ValueError(f"{where}{joint}{text}") from None


@dataclass(frozen=True)
class Window:
    """Axis-aligned box [0, L_1] x ... x [0, L_dim] with unit intensity."""

    lengths: tuple[float, ...]
    # the product in axis order, the same bits as float(np.prod(lengths))
    volume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lengths = _reals(self.lengths, "lengths")
        volume = math.prod(lengths)
        if not lengths or not all(x > 0 for x in lengths) or not 0 < volume < math.inf:
            raise ValueError(f"lengths must be one or more positive numbers, volume finite "
                             f"and above 0, got {list(lengths)}")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "volume", volume)

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @classmethod
    def from_json(cls, doc: dict) -> "Window":
        doc = fields(doc, "window", ("lengths",), ("dim",))
        win = _at("window", cls, lengths=doc["lengths"])
        if "dim" in doc and strict_int(doc["dim"], "window.dim") != win.dim:
            raise ValueError(f"window dim {doc['dim']} does not match {win.dim} lengths")
        return win


# ---------------------------------------------------------------------------
# sampling

def _stream(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


def _sampling_plan(window: Window, n_samples, seed, least: int = 2) -> tuple[int, int, int]:
    """(samples, seed, samples per slice); every check runs it before any quadrature or draw.

    A slice holds as many whole samples as expect SLICE_TARGET_BYTES of points, at
    least one and at most a block.  ValueError below ``least`` samples (one for
    sample_configuration) or for a seed outside [0, 2**64), ResourceError when one
    configuration expects more than MAX_SLICE_BYTES of points or the samples would draw
    more than MAX_DRAWS variates.  What reads the plan checks nothing again.
    """
    n_samples = strict_int(n_samples, "samples")
    if n_samples < least:
        raise ValueError("need at least one sample" if n_samples < 1
                         else "need at least two samples for a standard error")
    seed = strict_seed(seed)
    config_bytes = window.volume * window.dim * 8
    if config_bytes > MAX_SLICE_BYTES:
        raise ResourceError(f"a configuration expects {config_bytes / 2**20:.3g} MiB of points, "
                            f"over the {MAX_SLICE_BYTES / 2**20:.3g} MiB budget; shrink the window")
    if n_samples > MAX_DRAWS / (1 + window.volume * window.dim):
        raise ResourceError(f"{n_samples} samples would draw more than {MAX_DRAWS} variates")
    return n_samples, seed, max(1, int(min(STREAM_BLOCK, SLICE_TARGET_BYTES / config_bytes)))


def _blocks(window: Window, plan: tuple[int, int, int], first: int = 0):
    """Yield counts, slice-local sample ids and points of the plan's samples from block ``first``.

    Each block draws all its counts, then its points one slice of whole samples at a
    time from the same stream: the same bits for every sample count and slice size.
    The uniform draws are scaled to the window one column at a time, in place.
    """
    n_samples, seed, size = plan
    for start in range(0, n_samples, STREAM_BLOCK):
        g = _stream(seed, first + start // STREAM_BLOCK)
        counts = g.poisson(window.volume, size=STREAM_BLOCK)[: n_samples - start]
        for lo in range(0, counts.size, size):
            part = counts[lo : lo + size]
            points = g.random((int(part.sum()), window.dim))
            for col, length in zip(points.T, window.lengths):
                col *= length
            yield part, np.repeat(np.arange(part.size), part), points


def _per_sample(window: Window, plan: tuple[int, int, int], per_slice) -> np.ndarray:
    """per_slice(counts, sample_ids, points) of every slice, joined along samples.

    Each slice's values go straight into one array allocated for every sample.
    """
    out, done = None, 0
    for counts, sample_ids, points in _blocks(window, plan):
        values = per_slice(counts, sample_ids, points)
        if out is None:
            out = np.empty(values.shape[:-1] + (plan[0],), values.dtype)
        out[..., done : done + counts.size] = values
        done += counts.size
    return out


def sample_configuration(
    window: Window, seed: int, index: int = 0
) -> tuple[tuple[float, ...], ...]:
    """The points of configuration number ``index`` of the stream for this seed.

    Count ~ Poisson(volume), points i.i.d. uniform in the box; bitwise
    reproducible and read through the same slices of the block as the checks.
    """
    block, offset = divmod(strict_int(index, "index"), STREAM_BLOCK)
    if block < 0:
        raise ValueError("index must be non-negative")
    for counts, _, points in _blocks(window, _sampling_plan(window, offset + 1, seed, 1), block):
        pass
    return tuple(map(tuple, points[len(points) - int(counts[-1]) :].tolist()))


# ---------------------------------------------------------------------------
# test-function families

def _erf_diff(x: float, y: float) -> float:
    """erf(x) - erf(y) for x >= y, through erfc only in a tail (|x|, |y| >= 0.5): erfc < erf."""
    if y >= 0.5:
        return math.erfc(y) - math.erfc(x)
    if x <= -0.5:
        return math.erfc(-x) - math.erfc(-y)
    return math.erf(x) - math.erf(y)


def _kind_fields(table: dict, family: str, kind, given: dict) -> tuple[str, ...]:
    """The fields ``kind`` takes in ``table``; ValueError names an unknown kind, then a field
    of ``given`` (name: value, None when absent) the kind needs and lacks, or does not take."""
    if not isinstance(kind, str) or kind not in table:
        raise ValueError(f"unknown {family} kind {kind!r}")
    for name, value in given.items():
        if (value is None) == (name in table[kind]):
            verb = "needs" if value is None else "takes no"
            raise ValueError(f"{kind} {family.split()[-1]} {verb} {name}")
    return table[kind]


_KIND_FIELDS = {"indicator": (), "box": ("lo", "hi"), "gaussian": ("center", "width")}


@dataclass(frozen=True)
class ScalarFunction:
    """Pointwise test function on the window.

    kinds: "indicator" (scale on the whole window), "box" (scale on
    [lo, hi] clipped to the window), "gaussian"
    (scale * exp(-sum ((x_i - center_i) / width_i)^2), truncated to the
    window).  Each kind needs exactly its axis fields in _KIND_FIELDS; a
    missing one, or one another kind uses, raises ValueError naming it.
    """

    kind: str
    scale: float = 1.0
    lo: tuple[float, ...] | None = None
    hi: tuple[float, ...] | None = None
    center: tuple[float, ...] | None = None
    width: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "scale", _real(self.scale, "scale"))
        axes = {name: getattr(self, name) for name in ("lo", "hi", "center", "width")}
        for name in _kind_fields(_KIND_FIELDS, "scalar function", self.kind, axes):
            object.__setattr__(self, name, _reals(axes[name], name))
        if self.kind == "box" and (
            len(self.lo) != len(self.hi) or any(a > b for a, b in zip(self.lo, self.hi))
        ):
            raise ValueError(f"box needs lo <= hi on every axis, got {self.lo}, {self.hi}")
        if self.kind == "gaussian" and (
            len(self.center) != len(self.width) or not all(w > 0 for w in self.width)
        ):
            raise ValueError(
                f"gaussian needs one positive width per center axis, got {self.width}"
            )

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values at an (N, dim) array of points, one column at a time.

        A box ANDs and a Gaussian sums its columns into one vector: the bits of
        np.all / np.sum along the short axis 1, at a fraction of their cost.
        Each kernel works in place in point-length buffers of its own, in the
        operation order of the plain expressions.  A box or Gaussian needs
        one column per axis (ValueError); an indicator takes any (N, dim).
        """
        pts = np.asarray(points, dtype=float)
        if self.kind == "indicator":
            return np.full(len(pts), self.scale)
        axes = self.lo if self.kind == "box" else self.center
        if pts.ndim != 2 or pts.shape[1] != len(axes):
            raise ValueError(
                f"{self.kind} function has {len(axes)} axes, got points of shape {pts.shape}"
            )
        if self.kind == "box":
            inside, test = np.ones(len(pts), dtype=bool), np.empty(len(pts), dtype=bool)
            for col, lo, hi in zip(pts.T, self.lo, self.hi):
                inside &= np.greater_equal(col, lo, out=test)
                inside &= np.less_equal(col, hi, out=test)
            values = inside.astype(float)
            values *= self.scale  # 0.0 * a negative scale is -0.0, as scale * 0.0 is
            return values
        total, z = np.zeros(len(pts)), np.empty(len(pts))
        with np.errstate(over="ignore"):  # far from the center z * z may reach inf: exp(-inf) = 0
            for col, c, w in zip(pts.T, self.center, self.width):
                np.subtract(col, c, out=z)
                z /= w
                z *= z
                total += z
            np.negative(total, out=total)
            np.exp(total, out=total)
            total *= self.scale
            return total

    def support(self, window: Window) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Smallest box outside which the function vanishes, clipped to the window.

        The one home of the window-axis rule: ValueError unless a box's lo/hi or a
        Gaussian's center/width has one entry per window axis, where zip would
        silently drop or skip the axes that differ.
        """
        axes = self.lo if self.kind == "box" else self.center
        if axes is not None and len(axes) != window.dim:
            raise ValueError(
                f"{self.kind} function has {len(axes)} axes, the window has {window.dim}"
            )
        top = window.lengths
        if self.kind == "box":
            lo = tuple(min(max(a, 0.0), t) for a, t in zip(self.lo, top))
            hi = tuple(min(max(b, 0.0), t) for b, t in zip(self.hi, top))
            return lo, hi
        return tuple(0.0 for _ in top), top

    def closed_form_integral(self, window: Window, power: int = 1) -> float:
        """integral of f^power over the window; a Gaussian separates into erf factors."""
        return self._integral(window, power, self.scale**power)

    def _integral(self, window: Window, power: int, total: float) -> float:
        """total times the integral of (f / scale)^power: the support's volume, or the
        product of a Gaussian's erf factors, one per axis."""
        lo, hi = self.support(window)
        if self.kind != "gaussian":
            return total * math.prod(max(b - a, 0.0) for a, b in zip(lo, hi))
        root = math.sqrt(power)
        for a, b, c, w in zip(lo, hi, self.center, self.width):
            x, y = root * (b - c) / w, root * (a - c) / w
            erf_diff = (_erf_diff(x, y) if x != y  # x == y when b - a is lost to rounding
                        else 2 / math.sqrt(math.pi) * math.exp(-x * x) * root * (b - a) / w)
            total *= 0.5 * w * math.sqrt(math.pi / power) * erf_diff
        return total

    def closed_form_expm1_integral(self, window: Window) -> float:
        """integral of (e^f - 1) over the window; a Gaussian sums its power series.

        That is sum_j a^j / j! * E_j, E_j the integral of exp(-j sum z^2), which falls
        with j: the sum stops once the tail c_{j+1} E_j / (1 - |a| / (j + 2)) is below
        its float resolution.  ResourceError refuses a scale whose alternating terms
        could round by a tenth of the 1e-10 check.
        """
        if self.kind != "gaussian":
            return self._integral(window, 1, math.expm1(self.scale))
        a, eps = abs(self.scale), sys.float_info.epsilon
        total = magnitude = 0.0
        coefficient, j = 1.0, 0  # |a|^j / j!, grown by |a| / j: finite for |a| <= EXP_LIMIT
        while a <= EXP_LIMIT:
            j += 1
            coefficient *= a / j
            term = coefficient * self._integral(window, j, 1.0)
            total += -term if self.scale < 0 and j % 2 else term
            magnitude += term
            if j + 2 > a and term * a / (j + 1) <= eps * abs(total) * (1 - a / (j + 2)):
                break
        rounding = 4 * j * eps * magnitude
        if a > EXP_LIMIT or rounding > 0.1 * SHORT_CIRCUIT_REL_TOL * max(abs(total), REL_FLOOR):
            raise ResourceError(f"no e^f - 1 series verifies a gaussian of scale {self.scale!r}")
        return total


@dataclass(frozen=True)
class Polynomial:
    """h(t) = coeffs[0] + coeffs[1] t + coeffs[2] t^2: three floats, zero-padded."""

    coeffs: tuple[float, float, float]

    def __post_init__(self):
        coeffs = _reals(self.coeffs, "coeffs")
        if any(coeffs[3:]):
            raise ValueError("polynomial degree above 2 not supported")
        object.__setattr__(self, "coeffs", (coeffs + (0.0, 0.0, 0.0))[:3])

    def __call__(self, t):
        c0, c1, c2 = self.coeffs
        t = np.asarray(t, dtype=float)
        return c0 + t * (c1 + t * c2)


_FUNCTIONAL_FIELDS = {"one": (), "count_indicator": ("k",), "poly_of_sum": ("phi", "h")}


@dataclass(frozen=True)
class LocalFunctional:
    """Local functional of the configuration, one of three built-in kinds.

    "one": F = 1, read as h = 1 of a zero phi, as check_mecke reads no phi.  "count_indicator":
    F = 1 when exactly k points are present.  "poly_of_sum": F = h(<phi, gamma>), deg h <= 2.
    Each kind needs exactly its fields in _FUNCTIONAL_FIELDS; a missing one, or one
    another kind uses, raises ValueError naming it.
    """

    kind: str
    k: int | None = None
    phi: ScalarFunction | None = None
    h: Polynomial | None = None

    def __post_init__(self):
        _kind_fields(_FUNCTIONAL_FIELDS, "functional", self.kind,
                     {"k": self.k, "phi": self.phi, "h": self.h})
        if self.kind == "count_indicator":
            k = strict_int(self.k, "k")
            if not 0 <= k <= sys.float_info.max:
                raise ValueError(f"count_indicator needs 0 <= k <= max float, got {k!r}")
            object.__setattr__(self, "k", k)
        if self.kind == "one":
            object.__setattr__(self, "phi", ScalarFunction(kind="indicator", scale=0.0))
            object.__setattr__(self, "h", Polynomial(coeffs=(1.0,)))


# ---------------------------------------------------------------------------
# quadrature and verified references

_QUAD_LEVELS = {1: (8, 16, 32, 64, 128, 256, 512), 2: (8, 16, 32, 64, 128, 256), 3: (8, 16, 32, 64, 96)}


def gauss_legendre_box(fn, lo, hi) -> float:
    """Adaptive tensor-product Gauss-Legendre integral of fn over [lo, hi].

    fn maps an (N, dim) array to (N,) values.  Node counts double per level
    until two successive levels agree to QUAD_REL_TOL; failure to converge
    raises QuadratureError.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dim = lo.size
    if dim not in _QUAD_LEVELS:
        raise ValueError("quadrature supports dim 1..3")
    if np.any(hi <= lo):
        return 0.0
    jacobian = float(np.prod((hi - lo) / 2.0))
    previous = None
    for nodes in _QUAD_LEVELS[dim]:
        x, w = np.polynomial.legendre.leggauss(nodes)
        axes = [0.5 * (h - l) * x + 0.5 * (h + l) for l, h in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        weight = w
        for _ in range(dim - 1):
            weight = np.multiply.outer(weight, w)
        value = jacobian * float(np.dot(weight.ravel(), fn(pts)))
        if previous is not None and abs(value - previous) <= QUAD_REL_TOL * max(
            abs(value), REL_FLOOR
        ):
            return value
        previous = value
    raise QuadratureError(f"no convergence to relative {QUAD_REL_TOL} over {lo}..{hi}")


def _refuse_overflow(log_size: float, what: str) -> None:
    """ResourceError, before the work, unless exp(log_size) lies inside the float range."""
    if not log_size <= EXP_LIMIT:
        raise ResourceError(f"{what} lies outside the float range: exp({log_size:.6g})")


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x else -math.inf


def _verified(quad_value: float, closed: float, what: str, resolved: bool = True) -> float:
    """Closed-form short circuit: the quadrature must match the closed form, or raise
    ReferenceMismatchError; QuadratureError when its box was not ``resolved``."""
    if abs(quad_value - closed) > SHORT_CIRCUIT_REL_TOL * max(abs(closed), REL_FLOOR):
        text = f"{what}: quadrature {quad_value!r} vs closed form {closed!r}"
        if not resolved:
            raise QuadratureError(f"{text} over a box under {MIN_BOX_ULPS:.3g} ulps wide")
        raise ReferenceMismatchError(text)
    return closed


# exp(-z^2) falls to 1e-20 of exp(-z0^2) once z^2 - z0^2 reaches this
GAUSSIAN_REACH_SQ = math.log(1e20)
# A Gaussian's box cut to fewer ulps of its edges than this is below the quadrature's float
# resolution: its nodes round by enough to miss the 1e-10 check (seen up to 2**33.5 ulps).
MIN_BOX_ULPS = 2**36


def _quadrature_box(fn: ScalarFunction, window: Window):
    """(lo, hi, resolved): fn.support(window), cut for a Gaussian to where it matters.

    On each axis the Gaussian factor is largest at the window point nearest the
    center, z0 widths away; the box keeps the z with z^2 <= z0^2 + ln 1e20, so
    what it drops is below 1e-20 of that largest value.  A bump much narrower
    than the window then fills the box instead of slipping between the nodes;
    a wide one keeps the whole window.  resolved is False when an axis was cut
    to fewer than MIN_BOX_ULPS ulps: a width too near its center's float resolution.
    """
    lo, hi = fn.support(window)
    if fn.kind != "gaussian":
        return lo, hi, True
    box, resolved = [], True
    for a, b, c, w in zip(lo, hi, fn.center, fn.width):
        reach = w * math.hypot((min(max(c, a), b) - c) / w, math.sqrt(GAUSSIAN_REACH_SQ))
        cut = max(a, c - reach), min(b, c + reach)
        if cut != (a, b) and cut[1] - cut[0] < MIN_BOX_ULPS * math.ulp(max(map(abs, cut))):
            resolved = False
        box.append(cut)
    return (*zip(*box), resolved)


@lru_cache(maxsize=None)
def integral_of_power(fn: ScalarFunction, window: Window, power: int = 1) -> float:
    """integral of fn(x)^power over the window, quadrature checked vs closed form."""
    room = math.log(max(window.volume, 2.0**window.dim))  # quadrature weights add up to 2^dim
    what = f"integral {fn.kind}^{power}"
    _refuse_overflow(power * _log_abs(fn.scale) + room, what)
    lo, hi, resolved = _quadrature_box(fn, window)
    quad = gauss_legendre_box(lambda p: fn.evaluate(p) ** power, lo, hi)
    return _verified(quad, fn.closed_form_integral(window, power), what, resolved)


@lru_cache(maxsize=None)
def integral_expm1(fn: ScalarFunction, window: Window) -> float:
    """integral of (e^{fn(x)} - 1) over the window (vanishes off the support)."""
    lo, hi, resolved = _quadrature_box(fn, window)
    quad = gauss_legendre_box(lambda p: np.expm1(fn.evaluate(p)), lo, hi)
    return _verified(quad, fn.closed_form_expm1_integral(window), f"expm1 integral {fn.kind}",
                     resolved)


# ---------------------------------------------------------------------------
# replies

def _reply(check, estimate, reference, std_error, samples, seed, extra) -> dict:
    """A check's JSON reply: floats, with the exact integers as decimal strings."""
    abs_error = abs(estimate - reference)
    return {
        "check": check,
        "estimate": float(estimate),
        "reference": float(reference),
        "abs_error": float(abs_error),
        "rel_error": float(abs_error / max(abs(reference), REL_FLOOR)),
        "std_error": float(std_error),
        "samples": str(samples),
        "seed": str(seed),
        "extra": {k: float(v) for k, v in extra.items()},
    }


def _mc_stats(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


# ---------------------------------------------------------------------------
# the three checks

def check_laplace(f: ScalarFunction, window: Window, samples: int, seed: int) -> dict:
    """Exponential moment E[exp<f, gamma>] vs exp(integral of (e^f - 1))."""
    samples, seed, _ = plan = _sampling_plan(window, samples, seed)
    # e^f - 1 < e^scale pointwise, bounded like integral_of_power's powers
    _refuse_overflow(f.scale + math.log(max(window.volume, 2.0**window.dim)), "laplace e^f.scale")
    reference_exponent = integral_expm1(f, window)
    _refuse_overflow(reference_exponent, "laplace reference")
    reference = math.exp(reference_exponent)

    def per_slice(counts, sample_ids, points):
        return np.exp(np.bincount(sample_ids, weights=f.evaluate(points), minlength=counts.size))

    estimate, std_error = _mc_stats(_per_sample(window, plan, per_slice))
    return _reply(
        "laplace", estimate, reference, std_error, samples, seed,
        {"integral_expm1": reference_exponent},
    )


def _conditional_mean(functional: LocalFunctional, n_pts: int, window: Window) -> float:
    """E[F | exactly n_pts i.i.d. uniform points] (the n-th series factor)."""
    if functional.kind == "count_indicator":
        return 1.0 if n_pts == functional.k else 0.0
    c0, c1, c2 = functional.h.coeffs
    v = window.volume
    i1 = integral_of_power(functional.phi, window, 1)
    i2 = integral_of_power(functional.phi, window, 2)
    return (
        c0
        + c1 * n_pts * i1 / v
        + c2 * (n_pts * i2 / v + n_pts * (n_pts - 1) * (i1 / v) ** 2)
    )


def _sup_bound(functional: LocalFunctional, n_pts: int) -> float:
    if functional.kind == "count_indicator":
        return 1.0
    c0, c1, c2 = functional.h.coeffs
    s = abs(functional.phi.scale) * n_pts
    return abs(c0) + abs(c1) * s + abs(c2) * s * s


def _closed_form_mean(functional: LocalFunctional, window: Window) -> float:
    if functional.kind == "count_indicator":
        v, k = window.volume, functional.k
        return math.exp(-v + k * math.log(v) - math.lgamma(k + 1))
    return _mean_of_poly(functional.h, functional.phi, window)


def _mean_of_poly(h: Polynomial, phi: ScalarFunction, window: Window) -> float:
    """E[h(<phi, gamma>)] from the first two moments of <phi, gamma>."""
    c0, c1, c2 = h.coeffs
    i1 = integral_of_power(phi, window, 1)
    i2 = integral_of_power(phi, window, 2)
    return c0 + c1 * i1 + c2 * (i2 + i1 * i1)


def check_local_expansion(
    functional: LocalFunctional, window: Window, samples: int, seed: int
) -> dict:
    """Mean of a local functional vs its fixed-count series expansion.

    The series is e^{-v} sum_n (1/n!) integral of F over n points, with the
    n-point integrals assembled from 1-point quadratures through the product
    structure of the families.  A dropped term is at most b(n) = pmf(n) *
    _sup_bound(n), and b(n+1) / b(n) <= r_n = v (n + 1) / n^2 for n >= 1,
    which falls with n; so once r_N < 1 the terms from N on sum to at most
    b(N) / (1 - r_N).  The sum stops at the first N where that bound is at
    most 1e-12 of the reference scale and below half an ulp of the sum, so
    every later term would round away and the sum is the float sum of all
    of them; the pmf underflowing to 0 ends it at the latest.  A term
    outside the float range is refused with ResourceError.
    """
    samples, seed, _ = plan = _sampling_plan(window, samples, seed)
    v = window.volume
    closed = _closed_form_mean(functional, window)
    # the standard error squares samples of about the reference's size
    _refuse_overflow(2 * _log_abs(closed), "the local reference squared")
    _refuse_overflow(v, "the local series weight 1 / e^-volume")
    tolerance = TAIL_REL_TOL * max(abs(closed), REL_FLOOR)
    pmf, series, n_pts = math.exp(-v), 0.0, 0
    while True:
        series += pmf * _conditional_mean(functional, n_pts, window)
        pmf *= v / (n_pts + 1)
        n_pts += 1
        bound = pmf * _sup_bound(functional, n_pts)
        if not math.isfinite(series + bound):
            raise ResourceError(f"local series term {n_pts} lies outside the float range")
        ratio = v * (n_pts + 1) / n_pts**2
        tail = bound / (1 - ratio) if ratio < 1 else math.inf
        if tail <= tolerance and 2 * tail < math.ulp(series):
            break
    reference = _verified(series, closed, "local expansion series")

    def per_slice(counts, sample_ids, points):
        if functional.kind == "count_indicator":
            return (counts == functional.k).astype(float)
        phi_vals = functional.phi.evaluate(points)
        return functional.h(np.bincount(sample_ids, weights=phi_vals, minlength=counts.size))

    estimate, std_error = _mc_stats(_per_sample(window, plan, per_slice))
    return _reply(
        "local", estimate, reference, std_error, samples, seed,
        {"series_reference": series, "tail_bound": tail},
    )


def _subset_sums(m, g, phi, totals, sample_ids, n_samples, coeffs):
    """Per-sample sums over m-point subsets of prod g * h(S - sum phi).

    Each point weighs g e^{-t phi} in R[t]/(t^3), so the subset sum is e_m of the
    weights read at (prod g) (1, -Phi, Phi^2 / 2), Phi the subset's phi sum.
    Newton's identities j e_j = sum_{k=1..j} (-1)^{k-1} e_{j-k} p_k build it from
    the power sums p_k = (sum g^k, -k sum g^k phi, k^2/2 sum g^k phi^2), and
    h(S - Phi), of degree <= 2, is read off e_m's three coefficients.
    """
    def red(weights):
        return np.bincount(sample_ids, weights=weights, minlength=n_samples)

    q, e = [], []  # q_k = (-1)^{k-1} p_k and e_1..e_{j-1}; e_0 = 1 stays implicit
    buf = np.empty_like(phi)  # g^k phi, then g^k phi^2
    for j in range(1, m + 1):
        # g^k = g^(k-1) g, raised in place from g^3 on, so that g^(k-1) and g^k are not both alive
        gk = g if j == 1 else np.multiply(gk, g, out=gk if j > 2 else None)
        sign, p0 = (-1) ** (j - 1), red(gk)
        p1 = red(np.multiply(gk, phi, out=buf))
        buf *= phi
        q.append((sign * p0, -sign * j * p1, sign * j * j / 2 * red(buf)))
        acc = q[-1]
        for (a0, a1, a2), (b0, b1, b2) in zip(e, reversed(q[:-1])):  # e_{j-k} q_k, k < j
            acc = (acc[0] + a0 * b0, acc[1] + a0 * b1 + a1 * b0, acc[2] + a0 * b2 + a1 * b1 + a2 * b0)
        e.append(tuple(x / j for x in acc))
    (E0, E1, E2), (c0, c1, c2), S = e[-1], coeffs, totals
    return c0 * E0 + c1 * (S * E0 + E1) + c2 * (S * S * E0 + 2 * S * E1 + 2 * E2)


def check_mecke(
    m: int,
    g: ScalarFunction,
    h: Polynomial,
    phi: ScalarFunction | None,
    window: Window,
    samples: int,
    seed: int,
) -> dict:
    """Subset-sum side vs augmented side of the m-point Poisson identity.

    Built-in family f(gamma, xs) = prod_i g(x_i) * h(<phi, gamma \\ xs>).
    Removing the subset before applying h makes the augmented evaluation
    f(gamma + xs, xs) = prod_i g(x_i) * h(<phi, gamma>), so the right-hand
    side is the Monte Carlo mean of h(<phi, gamma>) * (integral g)^m / m!.
    The analytic reference uses the first two moments of <phi, gamma>
    (mean integral(phi), variance integral(phi^2)).

    estimate/std_error describe the subset-sum side; the augmented side and
    the pooled two-sided standard error are in extra.
    """
    m = strict_int(m, "m")
    if m not in (1, 2, 3):
        raise ValueError("subset order m must be 1, 2 or 3")
    samples, seed, _ = plan = _sampling_plan(window, samples, seed)
    if phi is None:
        if any(h.coeffs[1:]):
            raise ValueError("a non-constant h needs phi")
        phi = ScalarFunction(kind="indicator", scale=0.0)

    _refuse_overflow(m * _log_abs(g.scale), "mecke g.scale^m")
    ig = integral_of_power(g, window, 1)
    _refuse_overflow(m * _log_abs(ig), "mecke (integral of g)^m")
    reference = ig**m / math.factorial(m) * _mean_of_poly(h, phi, window)
    _refuse_overflow(2 * _log_abs(reference), "the mecke reference squared")

    def per_slice(counts, sample_ids, points):
        g_vals = g.evaluate(points)
        phi_vals = phi.evaluate(points)
        totals = np.bincount(sample_ids, weights=phi_vals, minlength=counts.size)
        lhs = _subset_sums(m, g_vals, phi_vals, totals, sample_ids, counts.size, h.coeffs)
        return np.stack([lhs, h(totals) * (ig**m / math.factorial(m))])

    lhs_values, rhs_values = _per_sample(window, plan, per_slice)
    lhs, lhs_se = _mc_stats(lhs_values)
    rhs, rhs_se = _mc_stats(rhs_values)
    pooled = math.hypot(lhs_se, rhs_se)
    return _reply(
        "mecke", lhs, reference, lhs_se, samples, seed,
        {"order": m, "rhs_estimate": rhs, "rhs_std_error": rhs_se, "pooled_std_error": pooled},
    )


# ---------------------------------------------------------------------------
# JSON dispatch

_SHORTHAND = {
    "scalar": {"indicator": ScalarFunction(kind="indicator", scale=1.0)},
    "polynomial": {"const": Polynomial(coeffs=(1.0,)), "linear": Polynomial(coeffs=(0.0, 1.0))},
    "functional": {"one": LocalFunctional(kind="one")},
}


def _shorthand(family: str, name: str, field: str):
    if name not in _SHORTHAND[family]:
        raise ValueError(f"unknown {family} shorthand {name!r} for {field}")
    return _SHORTHAND[family][name]


def scalar_from_json(spec, field: str, window: Window) -> ScalarFunction:
    if isinstance(spec, str):
        return _shorthand("scalar", spec, field)
    spec = fields(spec, field, ("kind",), ("scale", "lo", "hi", "center", "width"))
    fn = _at(field, ScalarFunction, **spec)
    _at(field, fn.support, window)
    return fn


def polynomial_from_json(spec, field: str) -> Polynomial:
    if isinstance(spec, str):
        return _shorthand("polynomial", spec, field)
    return _at(field, Polynomial, **fields(spec, field, ("coeffs",)))


def functional_from_json(spec, field: str, window: Window) -> LocalFunctional:
    if isinstance(spec, str):
        return _shorthand("functional", spec, field)
    kind = fields(spec, field, ("kind",), ("k", "phi", "h"))["kind"]
    # an unknown kind is named before its keys
    own = _at(field, _kind_fields, _FUNCTIONAL_FIELDS, "functional", kind=kind, given={})
    values = dict(fields(spec, field, ("kind", *own)))
    if "phi" in own:
        values["phi"] = scalar_from_json(values["phi"], f"{field}.phi", window)
        values["h"] = polynomial_from_json(values["h"], f"{field}.h")
    return _at(field, LocalFunctional, **values)


def run_check(spec: dict) -> dict:
    """Dispatch a JSON check specification to the matching check function.

    Each check starts with empty quadrature caches, so a long-lived caller's
    memory stays bounded and every check costs what it would in a fresh process.
    """
    integral_of_power.cache_clear()
    integral_expm1.cache_clear()
    name = fields(spec, "check spec", ("check",), ("window", "samples", "seed", "f", "m"))["check"]
    if name not in ("laplace", "local", "mecke"):
        raise ValueError(f"unknown check {name!r}")
    mecke = name == "mecke"
    fields(spec, "check spec", ("check", "window", "samples", "seed", "m" if mecke else "f"),
           ("f",) if mecke else ())
    window = Window.from_json(spec["window"])
    sampling = (window, spec["samples"], spec["seed"])  # read once, by the check's plan
    if name == "laplace":
        return check_laplace(scalar_from_json(spec["f"], "f", window), *sampling)
    if name == "local":
        return check_local_expansion(functional_from_json(spec["f"], "f", window), *sampling)
    f = fields(spec.get("f", {}), "f", optional=("g", "h", "phi"))
    phi = scalar_from_json(f["phi"], "f.phi", window) if "phi" in f else None
    return check_mecke(
        spec["m"],
        scalar_from_json(f.get("g", "indicator"), "f.g", window),
        polynomial_from_json(f.get("h", "const"), "f.h"),
        phi,
        *sampling,
    )
