"""Sampling determinism, closed-form references, and the three identity checks.

The subset-sum oracle is a literal itertools.combinations enumeration; the
vectorized power-sum path must match it to near machine precision on every
sampled configuration.  The sampling oracle ``sample_blocks`` draws every
block of a request before any reduction; the streamed checks must match it
bitwise.
"""

import itertools
import json
import math
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_oracles import evaluate_rowwise
from gammahodge import poisson_mc
from gammahodge.errors import ResourceError
from gammahodge.poisson_mc import (
    GAUSSIAN_REACH_SQ,
    LocalFunctional,
    Polynomial,
    QuadratureError,
    REL_FLOOR,
    STREAM_BLOCK,
    ScalarFunction,
    TAIL_REL_TOL,
    Window,
    _conditional_mean,
    _blocks,
    _mc_stats,
    _quadrature_box,
    _reply,
    _sampling_plan,
    _stream,
    _subset_sums,
    _sup_bound,
    check_laplace,
    check_local_expansion,
    check_mecke,
    gauss_legendre_box,
    integral_expm1,
    integral_of_power,
    run_check,
    sample_configuration,
)

WINDOW = Window(lengths=(1.0, 2.0))
INDICATOR = ScalarFunction(kind="indicator")
CONST = Polynomial(coeffs=(1.0,))
LINEAR = Polynomial(coeffs=(0.0, 1.0))


def subset_sum_oracle(m, g_vals, phi_vals, total, coeffs):
    acc = 0.0
    for idx in itertools.combinations(range(len(g_vals)), m):
        prod, rest = 1.0, total
        for i in idx:
            prod *= g_vals[i]
            rest -= phi_vals[i]
        acc += prod * (coeffs[0] + coeffs[1] * rest + coeffs[2] * rest * rest)
    return acc


def sample_blocks(window, seed, n_samples):
    """counts (n,), sample ids (total,), points (total, dim) for samples 0..n-1."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    lengths = np.asarray(window.lengths)
    counts_parts = []
    points_parts = []
    n_blocks = -(-n_samples // STREAM_BLOCK)
    for block in range(n_blocks):
        g = _stream(seed, block)
        c = g.poisson(window.volume, size=STREAM_BLOCK)
        pts = g.random((int(c.sum()), window.dim)) * lengths
        counts_parts.append(c)
        points_parts.append(pts)
    counts = np.concatenate(counts_parts)[:n_samples]
    total = int(counts.sum())
    points = np.concatenate(points_parts)[:total]
    sample_ids = np.repeat(np.arange(n_samples), counts)
    return counts, sample_ids, points


# ---------------------------------------------------------------------------
# windows and sampling

def test_window_validation_and_volume():
    assert WINDOW.volume == 2.0
    assert WINDOW.dim == 2
    with pytest.raises(ValueError):
        Window(lengths=())
    with pytest.raises(ValueError):
        Window(lengths=(1.0, -2.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Window(lengths=(1.0, bad))
    with pytest.raises(ValueError):
        Window.from_json({"dim": 3, "lengths": [1.0, 2.0]})


def test_window_volume_is_fixed_at_construction_with_numpy_bits(monkeypatch):
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    windows = [
        Window(lengths=tuple(10.0 ** rng.uniform(-3, 3, size=dim)))
        for dim in (1, 2, 3)
        for _ in range(2000)
    ]
    monkeypatch.setattr(np, "prod", None)  # a read must not recompute the product
    volumes = [w.volume for w in windows]
    monkeypatch.undo()
    assert volumes == [float(np.prod(w.lengths)) for w in windows]
    assert Window(lengths=(1.0, 2.0)) == WINDOW and repr(WINDOW) == "Window(lengths=(1.0, 2.0))"


def test_scalar_function_validation():
    with pytest.raises(ValueError, match="lo <= hi"):
        ScalarFunction(kind="box", lo=(0.5, 0.0), hi=(0.4, 1.0))
    with pytest.raises(ValueError, match="lo <= hi"):
        ScalarFunction(kind="box", lo=(0.0,), hi=(0.4, 1.0))
    for width in ((0.3,), (0.3, 0.0), (0.3, -0.2)):
        with pytest.raises(ValueError, match="positive width"):
            ScalarFunction(kind="gaussian", center=(0.5, 0.5), width=width)
    # a degenerate box is a legitimate zero-measure support
    flat = ScalarFunction(kind="box", lo=(0.5, 0.0), hi=(0.5, 1.0))
    assert flat.closed_form_integral(WINDOW) == 0.0


# One valid 1-D set of axis fields per kind, and every field another kind uses.
KIND_AXES = {"indicator": {}, "box": {"lo": (0.2,), "hi": (0.5,)},
             "gaussian": {"center": (0.5,), "width": (0.3,)}}
FOREIGN_FIELDS = [(kind, name) for kind, own in KIND_AXES.items()
                  for name in ("lo", "hi", "center", "width") if name not in own]


@pytest.mark.parametrize("kind, name", FOREIGN_FIELDS)
def test_a_field_of_another_kind_is_refused(kind, name):
    # An indicator with lo/hi once read the whole window: laplace on [2.0]
    # gave exp(expm1(0.3) * 2) = 2.0132 where the box [0.2, 0.5] gives 1.1107.
    axes = dict(KIND_AXES[kind], **{name: (0.5,)})
    with pytest.raises(ValueError, match=f"^{kind} function takes no {name}$"):
        ScalarFunction(kind=kind, scale=0.3, **axes)


@pytest.mark.parametrize("kind, name", [(k, n) for k, own in KIND_AXES.items() for n in own])
def test_a_missing_field_of_the_kind_is_refused(kind, name):
    axes = {n: v for n, v in KIND_AXES[kind].items() if n != name}
    with pytest.raises(ValueError, match=f"^{kind} function needs {name}$"):
        ScalarFunction(kind=kind, **axes)


def test_sampling_is_deterministic():
    a = sample_configuration(WINDOW, seed=42, index=7)
    b = sample_configuration(WINDOW, seed=42, index=7)
    assert a == b
    assert sample_configuration(WINDOW, seed=43, index=7) != a


def test_single_configuration_matches_batch():
    counts, ids, pts = sample_blocks(WINDOW, 42, 50)
    for index in (0, 3, 49):
        config = sample_configuration(WINDOW, 42, index)
        assert len(config) == counts[index]
        assert np.array_equal(np.asarray(config).reshape(-1, 2), pts[ids == index])


def test_points_stay_inside_the_window():
    counts, _, pts = sample_blocks(WINDOW, 9, 2000)
    assert pts.shape[1] == 2
    assert np.all(pts >= 0.0)
    assert np.all(pts <= np.array(WINDOW.lengths))


STREAM_SIZES = (2, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 1, 40_000)
# Slice targets for WINDOW, whose configurations expect 2 * 2 * 8 = 32 bytes of points:
# 32 MiB (a whole block a slice), then slices of 1, 7 and 1,000 samples.
SLICE_TARGETS = {poisson_mc.MAX_SLICE_BYTES: STREAM_BLOCK, 32: 1, 7 * 32 + 31: 7, 32_000: 1000}


@pytest.mark.parametrize("n", STREAM_SIZES)
def test_streamed_blocks_merge_into_the_whole_batch(monkeypatch, n):
    counts, ids, pts = sample_blocks(WINDOW, 42, n)
    for target, size in SLICE_TARGETS.items():
        monkeypatch.setattr(poisson_mc, "SLICE_TARGET_BYTES", target)
        parts = list(_blocks(WINDOW, _sampling_plan(WINDOW, n, 42)))
        sizes = [c.size for c, _, _ in parts]
        # whole samples, and no slice across a block boundary
        block_sizes = [min(STREAM_BLOCK, n - s) for s in range(0, n, STREAM_BLOCK)]
        assert sizes == [min(size, b - s) for b in block_sizes for s in range(0, b, size)]
        starts = np.cumsum([0] + sizes[:-1])
        assert np.array_equal(np.concatenate([c for c, _, _ in parts]), counts)
        assert np.array_equal(np.concatenate([i + s for (_, i, _), s in zip(parts, starts)]), ids)
        assert np.array_equal(np.concatenate([p for _, _, p in parts]), pts)


def test_single_configuration_matches_batch_across_a_block_boundary(monkeypatch):
    counts, ids, pts = sample_blocks(WINDOW, 42, STREAM_BLOCK + 2)
    for target in SLICE_TARGETS:
        monkeypatch.setattr(poisson_mc, "SLICE_TARGET_BYTES", target)
        for index in (0, 999, 1000, STREAM_BLOCK - 2, STREAM_BLOCK - 1, STREAM_BLOCK,
                      STREAM_BLOCK + 1):
            config = sample_configuration(WINDOW, 42, index)
            assert len(config) == counts[index]
            assert np.array_equal(np.asarray(config).reshape(-1, 2), pts[ids == index])


def test_count_moments_in_three_sigma_bands():
    big = Window(lengths=(2.0, 2.0))
    counts, _, _ = sample_blocks(big, 123, 100_000)
    n = counts.size
    vol = big.volume
    mean = counts.mean()
    assert abs(mean - vol) <= 3 * math.sqrt(vol / n)
    var = counts.var(ddof=1)
    # Var(sample variance) ~ (mu4 - sigma^4)/n with mu4 = lam + 3 lam^2
    mu4 = vol + 3 * vol * vol
    assert abs(var - vol) <= 3 * math.sqrt((mu4 - vol * vol) / n)


# ---------------------------------------------------------------------------
# quadrature

def test_quadrature_constant_and_gaussian():
    val = gauss_legendre_box(lambda p: np.full(len(p), 2.5), (0.0, 0.0), (1.0, 2.0))
    assert val == pytest.approx(5.0, rel=1e-12)
    # 1-d gaussian with known error function value
    g = gauss_legendre_box(
        lambda p: np.exp(-p[:, 0] ** 2), (0.0,), (1.0,)
    )
    assert g == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(1.0), rel=1e-10)


def test_quadrature_rejects_non_smooth_integrand():
    with pytest.raises(QuadratureError):
        gauss_legendre_box(lambda p: (p[:, 0] > 1 / 3).astype(float), (0.0,), (1.0,))


def test_integral_short_circuit_for_box_kind():
    phi = ScalarFunction(kind="box", lo=(0.0, 0.5), hi=(0.8, 1.7), scale=0.7)
    assert integral_of_power(phi, WINDOW, 1) == pytest.approx(0.7 * 0.8 * 1.2, rel=1e-12)
    assert integral_of_power(phi, WINDOW, 2) == pytest.approx(0.49 * 0.96, rel=1e-12)


@pytest.mark.parametrize("center, width, lengths", [
    ((0.5, 1.0), (0.4, 0.6), (1.0, 2.0)),
    ((1.3,), (0.2,), (2.0,)),
    ((5.0,), (0.5,), (2.0,)),  # a far tail: plain erf differences cancel to 0 here
    ((-1.0, 0.5, 0.7), (0.6, 0.3, 2.0), (1.0, 1.0, 1.5)),
])
def test_gaussian_integral_closed_form_matches_quadrature(center, width, lengths):
    g = ScalarFunction(kind="gaussian", center=center, width=width, scale=1.7)
    window = Window(lengths=lengths)
    for power in (1, 2, 3):
        quad = gauss_legendre_box(lambda p: g.evaluate(p) ** power, (0.0,) * len(lengths), lengths)
        closed = g.closed_form_integral(window, power)
        assert closed > 0
        assert closed == pytest.approx(quad, rel=1e-10)
        assert integral_of_power(g, window, power) == closed


def test_gaussian_integral_closed_form_on_the_whole_line():
    # a window wide enough to hold the whole bump: integral = a^p w sqrt(pi / p)
    g = ScalarFunction(kind="gaussian", center=(10.0,), width=(0.7,), scale=0.9)
    for power in (1, 2):
        expected = 0.9**power * 0.7 * math.sqrt(math.pi / power)
        assert g.closed_form_integral(Window(lengths=(20.0,)), power) == pytest.approx(expected, rel=1e-14)


def test_gaussian_far_from_its_center_is_zero_without_a_warning():
    f = ScalarFunction(kind="gaussian", center=(0.5, 1e200), width=(0.3, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f.evaluate(np.array([[0.5, 0.0], [0.1, 1.0]])).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# evaluate: one column at a time, the bits of the row-wise oracle

# finite coordinates, with window edges, box edges and far-away values among them
COORD = st.one_of(st.sampled_from([0.0, -0.0, 0.2, 0.5, 1.0, 2.0, 1e150, -1e200]),
                  st.floats(-3.0, 3.0))


@st.composite
def scalar_and_points(draw):
    dim = draw(st.integers(1, 3))
    scale = draw(st.one_of(st.sampled_from([0.0, -0.0, -0.8, 1.0]), st.floats(-1e300, 1e300)))
    if draw(st.booleans()):
        lo = draw(st.lists(COORD, min_size=dim, max_size=dim))
        hi = [a + draw(st.sampled_from([0.0, 0.5, 1e300])) for a in lo]
        f = ScalarFunction(kind="box", scale=scale, lo=lo, hi=hi)
        edges = lo + hi  # points exactly on a box face
    else:
        center = draw(st.lists(COORD, min_size=dim, max_size=dim))
        width = draw(st.lists(st.sampled_from([1e-300, 1e-3, 0.3, 1.0, 1e200]),
                              min_size=dim, max_size=dim))
        f = ScalarFunction(kind="gaussian", scale=scale, center=center, width=width)
        edges = center
    coord = st.one_of(COORD, st.sampled_from(edges))
    rows = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), max_size=40))
    return f, np.array(rows, dtype=float).reshape(len(rows), dim)


@settings(max_examples=300, deadline=None)
@given(scalar_and_points())
def test_evaluate_equals_the_rowwise_oracle_bitwise(case):
    f, points = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # z overflowing to inf is silent here
        got = f.evaluate(points)
    with np.errstate(over="ignore"):  # the oracle divides outside its errstate
        want = evaluate_rowwise(f, points)
    assert got.shape == want.shape == (len(points),)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("f", [
    ScalarFunction(kind="box", lo=(0.0, 0.0), hi=(1.0, 1.0)),
    ScalarFunction(kind="gaussian", center=(0.5, 0.5), width=(0.3, 0.3)),
], ids=["box", "gaussian"])
@pytest.mark.parametrize("points", [[[0.5], [0.2]], [[0.5, 0.2, 0.1]], [0.5, 0.2], [[[0.5, 0.2]]]],
                         ids=["one column", "three columns", "flat", "three-dimensional"])
def test_evaluate_refuses_points_with_other_axes(f, points):
    # broadcasting would give [0.2096, 0.0067] for the one-column points of the gaussian
    with pytest.raises(ValueError, match="function has 2 axes, got points of shape"):
        f.evaluate(points)


# one of each kernel: a box whose negative scale leaves -0.0 outside it, and a Gaussian
# so narrow that z * z overflows to inf, and exp(-inf) = 0, far from its center
LAYOUT_CASES = [
    ScalarFunction(kind="indicator", scale=-0.4),
    ScalarFunction(kind="box", scale=-0.7, lo=(0.2, 0.1, 0.0), hi=(0.8, 0.5, 0.9)),
    ScalarFunction(kind="gaussian", scale=1.3, center=(0.5, 0.4, 0.3), width=(1e-160, 0.3, 2.0)),
]


@pytest.mark.parametrize("f", LAYOUT_CASES, ids=["indicator", "negative box", "overflowing gaussian"])
def test_evaluate_gives_the_same_bits_on_every_memory_layout(f):
    rows = np.random.default_rng(5).random((257, 3))
    rows[:3] = f.center or f.lo or 0.0  # one row on the box's lower corner or at the center
    wide = np.zeros((257, 7))
    wide[:, 1:7:2] = rows
    layouts = {"C": np.ascontiguousarray(rows), "F": np.asfortranarray(rows),
               "strided": wide[:, 1:7:2], "reversed": rows[::-1].copy()[::-1]}
    assert layouts["F"].flags.f_contiguous and not layouts["F"].flags.c_contiguous
    assert layouts["strided"].strides == (56, 16) and layouts["reversed"].strides == (-24, 8)
    with np.errstate(over="ignore"):  # the oracle divides outside its errstate
        want = evaluate_rowwise(f, rows).view(np.uint64).tolist()
    for name, points in layouts.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # z overflowing to inf is silent here
            got = f.evaluate(points)
        assert got.flags.c_contiguous and got.view(np.uint64).tolist() == want, name
    values = f.evaluate(rows)
    if f.kind == "box":
        assert (values == -0.7).any() and (values == 0.0).any()
        assert np.signbit(values[values == 0.0]).all()
    if f.kind == "gaussian":
        assert values[0] == 1.3 and (values[3:] == 0.0).all()


def test_indicator_takes_points_of_any_number_of_axes():
    f = ScalarFunction(kind="indicator", scale=0.3)
    for points in (np.zeros((2, 1)), np.zeros((3, 3)), np.zeros((0, 2))):
        assert f.evaluate(points).tolist() == [0.3] * len(points)


# ---------------------------------------------------------------------------
# narrow gaussians: the quadrature box keeps what is above 1e-20 of the peak

NARROW_CASES = [
    (width, dim, scale)
    for width in (1e-2, 1e-3, 1e-4) for dim in (1, 2, 3) for scale in (0.5, -0.8)
]


@pytest.mark.parametrize("width, dim, scale", NARROW_CASES)
def test_narrow_gaussians_verify_against_the_closed_form(width, dim, scale):
    window = Window(lengths=(2.0, 1.5, 1.0)[:dim])
    f = ScalarFunction(kind="gaussian", scale=scale, center=(1.0, 0.6, 0.3)[:dim],
                       width=(width, 2 * width, width / 2)[:dim])
    lo, hi, resolved = _quadrature_box(f, window)
    assert resolved
    reach = math.sqrt(GAUSSIAN_REACH_SQ)
    assert lo == tuple(c - reach * w for c, w in zip(f.center, f.width))
    assert hi == tuple(c + reach * w for c, w in zip(f.center, f.width))
    for power in (1, 2):
        closed = f.closed_form_integral(window, power)
        quad = gauss_legendre_box(lambda p: f.evaluate(p) ** power, lo, hi)
        assert quad == pytest.approx(closed, rel=1e-12)
        assert integral_of_power(f, window, power) == closed
    closed = f.closed_form_expm1_integral(window)
    quad = gauss_legendre_box(lambda p: np.expm1(f.evaluate(p)), lo, hi)
    assert quad == pytest.approx(closed, rel=1e-12)
    assert integral_expm1(f, window) == closed


def test_wide_gaussians_keep_the_whole_window_as_their_quadrature_box():
    # widths of 0.3 window lengths or more reach past both edges from any center inside
    window = Window(lengths=(1.0, 2.0, 1.5))
    for center in [(0.2, 0.4, 0.3), (0.8, 1.6, 1.2), (0.5, 1.0, 0.75)]:
        f = ScalarFunction(kind="gaussian", center=center, width=(0.3, 0.6, 0.45))
        assert _quadrature_box(f, window) == (*f.support(window), True)
        assert f.support(window) == ((0.0,) * 3, window.lengths)


def test_a_center_outside_the_window_keeps_the_tail_it_sees():
    # the bump peaks 7 widths left of the window; the box runs from the edge to where the
    # tail falls to 1e-20 of its edge value, so the 4e-17 integral still verifies
    window = Window(lengths=(20.0,))
    f = ScalarFunction(kind="gaussian", scale=1e6, center=(-7.0,), width=(1.0,))
    (lo,), (hi,), _ = _quadrature_box(f, window)
    assert lo == 0.0 and hi == pytest.approx(-7.0 + math.sqrt(49 + GAUSSIAN_REACH_SQ))
    closed = f.closed_form_integral(window)
    assert closed == pytest.approx(3.7078e-17, rel=1e-4)
    assert integral_of_power(f, window, 1) == closed


def test_a_reach_beyond_the_float_range_keeps_the_whole_axis_without_overflow():
    # 1e300 widths of 1e-300 overflow to an infinite reach: that axis keeps [0, 1]
    window = Window(lengths=(1.0, 2.0))
    f = ScalarFunction(kind="gaussian", center=(-1e300, 1.0), width=(1e-300, 0.1))
    reach = 0.1 * math.sqrt(GAUSSIAN_REACH_SQ)
    assert _quadrature_box(f, window) == ((0.0, 1.0 - reach), (1.0, 1.0 + reach), True)
    assert integral_of_power(f, window, 1) == 0.0


def test_a_box_below_float_resolution_refuses_only_a_disputed_reference():
    # width 1e-17 at 1.0: the box is one ulp wide, and its quadrature reads 1.1e-16 * scale
    window = Window(lengths=(2.0,))
    narrow = ScalarFunction(kind="gaussian", center=(1.0,), width=(1e-17,))
    assert _quadrature_box(narrow, window)[2] is False
    with pytest.raises(QuadratureError, match="vs closed form 1.77.* ulps wide$"):
        integral_of_power(narrow, window, 1)
    # a faint bump misses by less than the 1e-18 floor of the check: served
    faint = ScalarFunction(kind="gaussian", center=(1.0,), width=(1e-17,), scale=1e-3)
    assert integral_of_power(faint, window, 1) == faint.closed_form_integral(window) > 0


@pytest.mark.parametrize("center, width, lengths, scale", [
    ((0.5, 1.0), (0.4, 0.6), (1.0, 2.0), 0.3),
    ((1.3,), (0.2,), (2.0,), -1.0),
    ((5.0,), (0.5,), (2.0,), 0.8),  # a far tail
    ((-1.0, 0.5, 0.7), (0.6, 0.3, 2.0), (1.0, 1.0, 1.5), -0.4),
    ((0.7, 1.2), (0.5, 0.9), (1.5, 2.0), 5.0),
    ((0.7, 1.2), (0.5, 0.9), (1.5, 2.0), -6.0),
])
def test_gaussian_expm1_series_matches_quadrature(center, width, lengths, scale):
    f = ScalarFunction(kind="gaussian", center=center, width=width, scale=scale)
    window = Window(lengths=lengths)
    quad = gauss_legendre_box(lambda p: np.expm1(f.evaluate(p)), (0.0,) * len(lengths), lengths)
    closed = f.closed_form_expm1_integral(window)
    assert closed == pytest.approx(quad, rel=1e-13)
    assert integral_expm1(f, window) == closed


def test_gaussian_expm1_series_on_a_narrow_bump():
    # the whole bump of width 0.01 lies in the window: sum_j 0.01 sqrt(pi / j) / j!
    f = ScalarFunction(kind="gaussian", center=(1.0,), width=(0.01,))
    expected = math.fsum(0.01 * math.sqrt(math.pi / j) / math.factorial(j) for j in range(1, 40))
    assert f.closed_form_expm1_integral(Window(lengths=(2.0,))) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(0.0261435, rel=1e-6)


def test_gaussian_expm1_series_terms_stay_finite_up_to_the_exp_limit():
    # |a|^j / j! reaches e^700 / sqrt(2 pi 700) and is never formed as a^j
    f = ScalarFunction(kind="gaussian", center=(0.5,), width=(1e-300,), scale=700.0)
    value = f.closed_form_expm1_integral(Window(lengths=(1.0,)))
    assert math.isfinite(value) and value > 0


@pytest.mark.parametrize("scale", [-10.0, -1e200, 1e200])
def test_gaussian_expm1_series_refuses_what_it_cannot_verify(scale):
    # -10 alternates with terms near e^10 / 10 against a sum near 1; +-1e200 overflow a^j / j!
    f = ScalarFunction(kind="gaussian", center=(0.7,), width=(0.5,), scale=scale)
    with pytest.raises(ResourceError, match="no e\\^f - 1 series"):
        f.closed_form_expm1_integral(Window(lengths=(1.5,)))


def test_reference_mismatch_is_an_invariant_violation():
    from gammahodge.poisson_mc import ReferenceMismatchError, _verified

    assert _verified(1.0 + 1e-13, 1.0, "near") == 1.0
    with pytest.raises(ReferenceMismatchError):
        _verified(1.001, 1.0, "off")


# ---------------------------------------------------------------------------
# check_laplace

def test_laplace_constant_step():
    f = ScalarFunction(kind="indicator", scale=0.3)
    report = check_laplace(f, WINDOW, 20_000, 42)
    assert report["reference"] == pytest.approx(math.exp(2 * (math.exp(0.3) - 1)), rel=1e-12)
    assert abs(report["estimate"] - report["reference"]) <= 4 * report["std_error"]


def test_laplace_zero_function_is_exact():
    f = ScalarFunction(kind="indicator", scale=0.0)
    report = check_laplace(f, WINDOW, 500, 7)
    assert report["estimate"] == 1.0
    assert report["reference"] == 1.0
    assert report["rel_error"] == 0.0


def test_laplace_negative_step():
    f = ScalarFunction(kind="indicator", scale=-1.0)
    report = check_laplace(f, WINDOW, 20_000, 5)
    assert report["reference"] == pytest.approx(math.exp(2 * (math.exp(-1.0) - 1)), rel=1e-12)
    assert abs(report["estimate"] - report["reference"]) <= 4 * report["std_error"]


def test_laplace_is_bitwise_deterministic():
    f = ScalarFunction(kind="gaussian", center=(0.5, 1.0), width=(0.4, 0.6), scale=0.8)
    assert check_laplace(f, WINDOW, 5_000, 11) == check_laplace(f, WINDOW, 5_000, 11)


# ---------------------------------------------------------------------------
# check_local_expansion

def test_local_count_indicator_matches_pmf():
    for k in (0, 2, 5):
        report = check_local_expansion(
            LocalFunctional(kind="count_indicator", k=k), WINDOW, 20_000, 42
        )
        pmf = math.exp(-2.0) * 2.0**k / math.factorial(k)
        assert report["reference"] == pytest.approx(pmf, rel=1e-12)
        assert abs(report["estimate"] - report["reference"]) <= 4 * max(report["std_error"], 1e-4)


def test_local_constant_functional_telescopes():
    report = check_local_expansion(LocalFunctional(kind="one"), WINDOW, 200, 3)
    assert report["estimate"] == 1.0
    assert report["reference"] == 1.0
    assert abs(report["extra"]["series_reference"] - 1.0) < 1e-12


def test_local_linear_functional_is_campbell():
    functional = LocalFunctional(kind="poly_of_sum", phi=INDICATOR, h=LINEAR)
    report = check_local_expansion(functional, WINDOW, 50_000, 42)
    assert report["reference"] == pytest.approx(WINDOW.volume, rel=1e-12)
    assert abs(report["estimate"] - report["reference"]) <= 4 * report["std_error"]


def test_local_quadratic_functional():
    phi = ScalarFunction(kind="box", lo=(0.0, 0.0), hi=(1.0, 1.0), scale=1.0)
    h = Polynomial(coeffs=(0.5, 1.0, 2.0))
    functional = LocalFunctional(kind="poly_of_sum", phi=phi, h=h)
    report = check_local_expansion(functional, WINDOW, 50_000, 42)
    # moments of <phi, gamma>: mean 1, variance 1 for this unit sub-box
    assert report["reference"] == pytest.approx(0.5 + 1.0 + 2.0 * 2.0, rel=1e-12)
    assert abs(report["estimate"] - report["reference"]) <= 4 * report["std_error"]


SERIES_FUNCTIONALS = [
    LocalFunctional(kind="one"),
    LocalFunctional(kind="count_indicator", k=3),
    LocalFunctional(kind="poly_of_sum", phi=ScalarFunction(kind="indicator", scale=0.5),
                    h=Polynomial(coeffs=(0.5, -1.0, 2.0))),
]


def summed_terms(monkeypatch, functional, window):
    """Report of a local check and N, the first series term it dropped (its last bound term)."""
    seen = []

    def spy(functional, n_pts):
        seen.append(n_pts)
        return _sup_bound(functional, n_pts)

    monkeypatch.setattr(poisson_mc, "_sup_bound", spy)
    return check_local_expansion(functional, window, 10, 1), seen[-1]


def pmf_terms(volume, count):
    pmf = math.exp(-volume)
    for n_pts in range(count):
        yield n_pts, pmf
        pmf *= volume / (n_pts + 1)


@pytest.mark.parametrize("volume", [1.0, 100.0, 700.0])
@pytest.mark.parametrize("functional", SERIES_FUNCTIONALS, ids=lambda f: f.kind)
def test_local_series_sizes_itself_and_bounds_what_it_drops(monkeypatch, functional, volume):
    report, first_dropped = summed_terms(monkeypatch, functional, Window(lengths=(volume,)))
    tail = report["extra"]["tail_bound"]
    assert tail <= TAIL_REL_TOL * max(abs(report["reference"]), REL_FLOOR)
    # the dropped bound terms, summed one by one over 3000 of them
    brute = sum(pmf * _sup_bound(functional, n_pts)
                for n_pts, pmf in pmf_terms(volume, first_dropped + 3000) if n_pts >= first_dropped)
    assert tail >= brute


def gaussian_sum(window):
    phi = ScalarFunction(kind="gaussian", scale=0.8, center=tuple(0.4 * x for x in window.lengths),
                         width=tuple(0.5 * x for x in window.lengths))
    return LocalFunctional(kind="poly_of_sum", phi=phi, h=Polynomial(coeffs=(0.3, 0.7, -0.4)))


@pytest.mark.parametrize("lengths", [(14.0,), (19.4,), (1.2, 1.7), (4.0, 5.0), (2.0, 2.5, 4.0)])
@pytest.mark.parametrize("make", [lambda w, f=f: f for f in SERIES_FUNCTIONALS] + [gaussian_sum],
                         ids=["one", "count_indicator", "poly_of_sum", "gaussian_sum"])
def test_local_series_equals_the_fixed_81_term_sum_at_workload_volumes(make, lengths):
    window = Window(lengths=lengths)
    functional = make(window)
    fixed = 0.0
    for n_pts, pmf in pmf_terms(window.volume, 81):
        fixed += pmf * _conditional_mean(functional, n_pts, window)
    report = check_local_expansion(functional, window, 10, 1)
    assert report["extra"]["series_reference"] == fixed


@pytest.mark.parametrize("h", [(2.0**1023, -(2.0**1023)), (2.0**1023, 0.0, -(2.0**1022))])
def test_local_series_term_outside_the_float_range_is_refused(h):
    # the reference is exactly 0, but the series' n and n^2 terms overflow at n = 1 or 2
    functional = LocalFunctional(kind="poly_of_sum", phi=INDICATOR, h=Polynomial(coeffs=h))
    with pytest.raises(ResourceError, match="local series term"):
        check_local_expansion(functional, Window(lengths=(1.0,)), 10, 1)


# ---------------------------------------------------------------------------
# check_mecke

def test_mecke_order_one_mean_measure():
    report = check_mecke(1, INDICATOR, CONST, None, WINDOW, 20_000, 42)
    assert report["reference"] == pytest.approx(WINDOW.volume, rel=1e-12)
    assert abs(report["estimate"] - report["reference"]) <= 4 * report["std_error"]


def test_mecke_order_one_factorial_moment():
    report = check_mecke(1, INDICATOR, LINEAR, INDICATOR, WINDOW, 50_000, 42)
    assert report["reference"] == pytest.approx(WINDOW.volume**2, rel=1e-12)
    assert abs(report["estimate"] - report["reference"]) <= 4 * report["std_error"]


def test_mecke_order_two_pair_count():
    report = check_mecke(2, INDICATOR, CONST, None, WINDOW, 50_000, 42)
    assert report["reference"] == pytest.approx(WINDOW.volume**2 / 2, rel=1e-12)
    assert abs(report["estimate"] - report["reference"]) <= 4 * report["std_error"]
    extra = report["extra"]
    assert abs(report["estimate"] - extra["rhs_estimate"]) <= 4 * extra["pooled_std_error"]


def test_mecke_order_three_triple_count():
    report = check_mecke(3, INDICATOR, CONST, None, WINDOW, 50_000, 42)
    assert report["reference"] == pytest.approx(WINDOW.volume**3 / 6, rel=1e-12)
    assert abs(report["estimate"] - report["reference"]) <= 4 * report["std_error"]


@pytest.mark.parametrize("g, phi, h, window", [
    (ScalarFunction(kind="gaussian", center=(0.4, 1.0), width=(0.5, 0.8), scale=1.3),
     ScalarFunction(kind="box", lo=(0.0, 0.5), hi=(0.8, 1.7), scale=0.7),
     Polynomial(coeffs=(0.5, -1.0, 0.25)), WINDOW),
    # a negative Gaussian phi, and a volume of 0.72: most samples hold fewer than m points
    (ScalarFunction(kind="box", lo=(0.1, 0.0), hi=(0.7, 0.6), scale=2.4),
     ScalarFunction(kind="gaussian", center=(0.3, 0.5), width=(0.4, 0.3), scale=-1.6),
     Polynomial(coeffs=(-0.3, 0.8, -1.1)), Window(lengths=(0.8, 0.9))),
])
def test_mecke_vectorized_sums_match_enumeration(g, phi, h, window):
    n = 300
    counts, ids, pts = sample_blocks(window, 11, n)
    g_vals, phi_vals = g.evaluate(pts), phi.evaluate(pts)
    totals = np.bincount(ids, weights=phi_vals, minlength=n)
    for m in (1, 2, 3):
        fast = _subset_sums(m, g_vals, phi_vals, totals, ids, n, h.coeffs)
        for s in range(n):
            slow = subset_sum_oracle(
                m, g_vals[ids == s], phi_vals[ids == s], totals[s], h.coeffs
            )
            assert fast[s] == pytest.approx(slow, rel=1e-9, abs=1e-9)
    if window != WINDOW:
        assert np.mean(counts < 2) > 0.5 and np.mean(counts < 3) > 0.8


@pytest.mark.parametrize("check", ["laplace", "local", "mecke"])
@pytest.mark.parametrize("f", [
    ScalarFunction(kind="box", lo=(0.0,), hi=(0.5,), scale=0.5),
    ScalarFunction(kind="gaussian", center=(0.5,), width=(0.3,), scale=0.5),
])
def test_a_function_on_other_axes_than_the_window_is_refused(check, f):
    # zip over the axes would otherwise drop the window's second axis unchecked
    with pytest.raises(ValueError, match="has 1 axes, the window has 2"):
        if check == "laplace":
            check_laplace(f, WINDOW, 100, 1)
        elif check == "local":
            functional = LocalFunctional(kind="poly_of_sum", phi=f, h=LINEAR)
            check_local_expansion(functional, WINDOW, 100, 1)
        else:
            check_mecke(1, f, CONST, None, WINDOW, 100, 1)


def test_mecke_reduces_to_campbell_for_constant_h():
    # same functional through the two identities, independent seeds
    mecke = check_mecke(1, INDICATOR, CONST, None, WINDOW, 30_000, 21)
    local = check_local_expansion(
        LocalFunctional(kind="poly_of_sum", phi=INDICATOR, h=LINEAR), WINDOW, 30_000, 22
    )
    pooled = math.hypot(mecke["std_error"], local["std_error"])
    assert abs(mecke["estimate"] - local["estimate"]) <= 3 * pooled


def test_mecke_validation():
    with pytest.raises(ValueError):
        check_mecke(4, INDICATOR, CONST, None, WINDOW, 100, 1)
    with pytest.raises(ValueError):
        check_mecke(1, INDICATOR, LINEAR, None, WINDOW, 100, 1)
    with pytest.raises(ValueError, match="degree above 2"):
        Polynomial(coeffs=(0, 0, 0, 1.0))  # at construction, before any check reads it
    assert Polynomial(coeffs=(1, 2, 3, 0.0)).coeffs == (1.0, 2.0, 3.0)
    assert Polynomial(coeffs=()).coeffs == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("k, message", [
    (2.5, "k must be an integer"), (True, "k must be an integer"),
    (None, "^count_indicator functional needs k$"), ("2.5", "k must be an integer"),
])
def test_count_indicator_needs_an_integer_k(k, message):
    # k = 2.5 was accepted and only failed the reference check, as exit 1
    with pytest.raises(ValueError, match=message):
        LocalFunctional(kind="count_indicator", k=k)
    assert LocalFunctional(kind="count_indicator", k="3").k == 3


BOX_1D = ScalarFunction(kind="box", lo=(0.2,), hi=(0.5,))
# One valid set of fields per functional kind, and a stray field of another kind for each.
FUNCTIONAL_FIELDS = {"one": {}, "count_indicator": {"k": 2},
                     "poly_of_sum": {"phi": BOX_1D, "h": LINEAR}}
STRAY_FUNCTIONAL_FIELDS = [("one", "phi"), ("one", "h"), ("count_indicator", "phi"),
                           ("poly_of_sum", "k")]


@pytest.mark.parametrize("kind, name", STRAY_FUNCTIONAL_FIELDS)
def test_a_functional_field_of_another_kind_is_refused(kind, name):
    # "one" with h = 3 was read as F = 1, and a stray k or phi was kept and ignored
    strays = {"k": 3, "phi": BOX_1D, "h": Polynomial(coeffs=(3.0,))}
    with pytest.raises(ValueError, match=f"^{kind} functional takes no {name}$"):
        LocalFunctional(kind=kind, **FUNCTIONAL_FIELDS[kind], **{name: strays[name]})


@pytest.mark.parametrize("kind, name", [(k, n) for k, own in FUNCTIONAL_FIELDS.items() for n in own])
def test_a_missing_functional_field_of_the_kind_is_refused(kind, name):
    fields = {n: v for n, v in FUNCTIONAL_FIELDS[kind].items() if n != name}
    with pytest.raises(ValueError, match=f"^{kind} functional needs {name}$"):
        LocalFunctional(kind=kind, **fields)


GAUSS_1D = ScalarFunction(kind="gaussian", center=(0.5,), width=(0.3,), scale=0.5)
SAMPLING_CALLS = {  # each takes (window, samples, seed); sample_configuration draws index 1
    "laplace": lambda *args: check_laplace(GAUSS_1D, *args),
    "local": lambda *args: check_local_expansion(
        LocalFunctional(kind="poly_of_sum", phi=GAUSS_1D, h=LINEAR), *args),
    "mecke": lambda *args: check_mecke(3, GAUSS_1D, CONST, None, *args),
    "sample_configuration": lambda window, samples, seed: sample_configuration(window, seed, 1),
}
SEED_RANGE = "^seed must fit in an unsigned 64-bit integer$"
PLAN_REFUSALS = [
    # volume 5e6 on a line: one configuration's points take about 38 MiB
    ((5e6,), 2, 1, ResourceError, r"^a configuration expects 38\.1 MiB of points, over the 32 MiB"),
    ((2.0,), 2, -1, ValueError, SEED_RANGE),
    ((2.0,), 2, 2**64, ValueError, SEED_RANGE),
    # the three checks' standard error needs two samples; sample_configuration draws one
    ((2.0,), 1, 1, ValueError, "^need at least two samples for a standard error$"),
    ((2.0,), 0, 1, ValueError, "^need at least one sample$"),
]


@pytest.mark.parametrize("name", sorted(SAMPLING_CALLS))
def test_the_sampling_plan_refuses_before_any_quadrature_or_draw(monkeypatch, name):
    calls = []

    def spy(attr):
        real = getattr(poisson_mc, attr)
        monkeypatch.setattr(poisson_mc, attr, lambda *args: calls.append(attr) or real(*args))

    for attr in ("_sampling_plan", "_stream", "gauss_legendre_box"):
        spy(attr)
    integral_of_power.cache_clear()
    integral_expm1.cache_clear()
    SAMPLING_CALLS[name](Window(lengths=(2.0,)), 2, 1)
    # the spies see a served request's work, the plan first
    assert calls[0] == "_sampling_plan" and "_stream" in calls
    assert ("gauss_legendre_box" in calls) == (name != "sample_configuration")
    refusals = PLAN_REFUSALS[:3] if name == "sample_configuration" else PLAN_REFUSALS
    for lengths, samples, seed, error, message in refusals:
        calls.clear()
        integral_of_power.cache_clear()  # a cached reference would hide a quadrature
        integral_expm1.cache_clear()
        with pytest.raises(error, match=message):
            SAMPLING_CALLS[name](Window(lengths=lengths), samples, seed)
        assert calls == ["_sampling_plan"], (lengths, samples, seed)


def test_a_subnormal_volume_takes_whole_blocks():
    # SLICE_TARGET_BYTES / 4e-323 is inf: the slice size is capped before int()
    window = Window(lengths=(5e-324,))
    assert _sampling_plan(window, "1", "7", 1) == (1, 7, STREAM_BLOCK)
    assert sample_configuration(window, 1, STREAM_BLOCK + 3) == ()


def test_mecke_memory_stays_within_a_constant_of_one_slice(monkeypatch):
    # volume 1900 on a line: 15,200 bytes of points a configuration, so a 2 MiB slice holds
    # 137 samples, and 4,000 samples draw about 58 MiB of points in 30 slices
    monkeypatch.setattr(poisson_mc, "SLICE_TARGET_BYTES", 2 * 2**20)
    window = Window(lengths=(1900.0,))
    check_mecke(3, INDICATOR, CONST, None, window, 2, 1)  # warm the quadrature caches
    tracemalloc.start()
    try:
        check_mecke(3, INDICATOR, CONST, None, window, 4000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * poisson_mc.SLICE_TARGET_BYTES


def test_a_check_on_the_heaviest_benchmark_shape_holds_a_few_slice_targets():
    # mecke m = 3 on a volume-20 3-D box: 480 bytes of points a configuration, so each
    # slice holds 2,184 samples and expects one slice target (1 MiB) of points.  Besides
    # those points a slice holds about six point-length vectors of a third of that
    # (sample ids, g and phi, two powers of g and the subset sums' buffer); the
    # per-sample values of the block (two floats a sample) outlive every slice.
    window = Window(lengths=(2.0, 2.0, 5.0))
    check_mecke(3, INDICATOR, CONST, None, window, 100, 1)  # warm the quadrature caches
    tracemalloc.start()
    try:
        check_mecke(3, INDICATOR, CONST, None, window, STREAM_BLOCK, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * poisson_mc.SLICE_TARGET_BYTES + 2 * 8 * STREAM_BLOCK


@pytest.mark.parametrize("call, field", [
    (lambda: sample_configuration(WINDOW, 1.5), "seed"),
    (lambda: sample_configuration(WINDOW, True), "seed"),
    (lambda: sample_configuration(WINDOW, 1, 2.5), "index"),
    (lambda: check_mecke(2.0, INDICATOR, CONST, None, WINDOW, 100, 1), "m"),
    (lambda: check_mecke(True, INDICATOR, CONST, None, WINDOW, 100, 1), "m"),
    (lambda: check_laplace(INDICATOR, WINDOW, 2.5, 1), "samples"),
    (lambda: check_local_expansion(LocalFunctional(kind="one"), WINDOW, True, 1), "samples"),
    (lambda: ScalarFunction(kind="indicator", scale=True), "scale"),
    (lambda: ScalarFunction(kind="indicator", scale="0.5"), "scale"),
    (lambda: ScalarFunction(kind="indicator", scale=math.nan), "scale"),
    (lambda: ScalarFunction(kind="box", lo=(0.0, True), hi=(1.0, 1.0)), "lo[1]"),
    (lambda: ScalarFunction(kind="gaussian", center=(0.5, math.inf), width=(1.0, 1.0)),
     "center[1]"),
    (lambda: Polynomial(coeffs=(1.0, "2")), "coeffs[1]"),
    (lambda: Polynomial(coeffs=(math.nan,)), "coeffs[0]"),
    (lambda: Window(lengths=(2.0, True)), "lengths[1]"),
    (lambda: Window(lengths=(math.nan,)), "lengths[0]"),
])
def test_api_numbers_follow_the_cli_rules(call, field):
    # each used to run as another number, or to end in a TypeError or ResourceError
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be an? [a-z ]+, got .+$"):
        call()


def test_api_takes_tuples_lists_and_numpy_scalars():
    f = ScalarFunction(kind="gaussian", scale=np.float32(0.5), center=[np.float64(0.5)],
                       width=(np.int64(1),))
    assert (f.scale, f.center, f.width) == (0.5, (0.5,), (1.0,))
    assert Window(lengths=[np.float64(2.0)]) == Window(lengths=(2,))
    points = sample_configuration(WINDOW, np.uint64(7), np.int64(3))
    assert points == sample_configuration(WINDOW, 7, 3)
    report = check_mecke(np.int64(2), INDICATOR, CONST, None, WINDOW, 100, 1)
    assert report == check_mecke(2, INDICATOR, CONST, None, WINDOW, 100, 1)


# ---------------------------------------------------------------------------
# streaming: every check reduces block by block, bitwise equal to the batch

STREAM_G = ScalarFunction(kind="gaussian", center=(0.4, 1.0), width=(0.5, 0.8), scale=0.6)
STREAM_PHI = ScalarFunction(kind="box", lo=(0.0, 0.5), hi=(0.8, 1.7), scale=0.7)
STREAM_H = Polynomial(coeffs=(0.5, -1.0, 0.25))


def run_streamed(check, n):
    if check == "laplace":
        return check_laplace(STREAM_G, WINDOW, n, 42)
    if check == "local":
        functional = LocalFunctional(kind="poly_of_sum", phi=STREAM_PHI, h=STREAM_H)
        return check_local_expansion(functional, WINDOW, n, 42)
    return check_mecke(3, STREAM_G, STREAM_H, STREAM_PHI, WINDOW, n, 42)


def batch_values(check, n):
    """Per-sample values of each check from the whole batch at once."""
    _, ids, pts = sample_blocks(WINDOW, 42, n)
    if check == "laplace":
        return [np.exp(np.bincount(ids, weights=STREAM_G.evaluate(pts), minlength=n))]
    phi_vals = STREAM_PHI.evaluate(pts)
    totals = np.bincount(ids, weights=phi_vals, minlength=n)
    if check == "local":
        return [STREAM_H(totals)]
    g_vals = STREAM_G.evaluate(pts)
    lhs = _subset_sums(3, g_vals, phi_vals, totals, ids, n, STREAM_H.coeffs)
    return [lhs, STREAM_H(totals) * (integral_of_power(STREAM_G, WINDOW, 1) ** 3 / 6)]


@pytest.mark.parametrize("n", STREAM_SIZES)
@pytest.mark.parametrize("check", ["laplace", "local", "mecke"])
def test_streamed_checks_equal_the_whole_batch_bitwise(monkeypatch, check, n):
    seen = []

    def spy(values):
        seen.append(np.array(values))
        return _mc_stats(values)

    monkeypatch.setattr(poisson_mc, "_mc_stats", spy)
    report = run_streamed(check, n)
    expected = batch_values(check, n)
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert np.array_equal(got, want)
    # the reference and the series extras do not depend on the samples
    estimate, std_error = _mc_stats(expected[0])
    extra = report["extra"]
    if check == "mecke":
        rhs, rhs_se = _mc_stats(expected[1])
        pooled = math.hypot(std_error, rhs_se)
        extra = {"order": 3, "rhs_estimate": rhs, "rhs_std_error": rhs_se,
                 "pooled_std_error": pooled}
    batch = _reply(check, estimate, report["reference"], std_error, n, 42, extra)
    assert report == batch


def test_mecke_memory_stays_at_one_block():
    window = Window(lengths=(2.0, 2.0, 5.0))
    check_mecke(3, INDICATOR, CONST, None, window, 100, 1)  # warm the quadrature caches
    peaks = []
    for blocks in (1, 6):
        tracemalloc.start()
        try:
            check_mecke(3, INDICATOR, CONST, None, window, blocks * STREAM_BLOCK, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


# ---------------------------------------------------------------------------
# dispatch and JSON

def test_run_check_dispatch_and_shorthand():
    spec = {
        "check": "mecke",
        "m": 2,
        "window": {"dim": 2, "lengths": [1.0, 2.0]},
        "samples": 2000,
        "seed": 42,
        "f": {"g": "indicator", "h": "const"},
    }
    report = run_check(spec)
    assert report["check"] == "mecke"
    assert report["samples"] == "2000"
    assert report == run_check(spec)


# Every field of every check.  No two numbers are equal, so no two share an object.
FULL_SPECS = [
    '{"check": "laplace", "window": {"dim": 2, "lengths": [1.5, 2.0]}, "samples": 300,'
    ' "seed": 1001, "f": {"kind": "gaussian", "scale": 0.5, "center": [0.5, 1.0],'
    ' "width": [0.3, 0.4]}}',
    '{"check": "local", "window": {"dim": 2, "lengths": [1.5, 2.0]}, "samples": 300,'
    ' "seed": 1001, "f": {"kind": "count_indicator", "k": 3}}',
    '{"check": "local", "window": {"dim": 2, "lengths": [1.5, 2.0]}, "samples": 300,'
    ' "seed": 1001, "f": {"kind": "poly_of_sum", "phi": {"kind": "box", "scale": 0.7,'
    ' "lo": [0.0, 0.5], "hi": [0.8, 1.7]}, "h": {"coeffs": [0.6, -1.0, 0.25]}}}',
    '{"check": "mecke", "m": 3, "window": {"dim": 2, "lengths": [1.5, 2.0]},'
    ' "samples": 300, "seed": 1001, "f": {"g": {"kind": "gaussian", "scale": 0.6,'
    ' "center": [0.4, 1.1], "width": [0.55, 0.8]}, "phi": {"kind": "box", "scale": 0.7,'
    ' "lo": [0.0, 0.5], "hi": [0.9, 1.7]}, "h": {"coeffs": [0.65, -1.0, 0.25]}}}',
]


def values_in(doc):
    """The numbers of a JSON document and its lists of numbers."""
    if isinstance(doc, dict):
        return [x for item in doc.values() for x in values_in(item)]
    if isinstance(doc, list):
        return [doc, *(x for item in doc for x in values_in(item))]
    return [doc] if isinstance(doc, (int, float)) else []


@pytest.mark.parametrize("text", FULL_SPECS, ids=["laplace", "local-count", "local-poly", "mecke"])
def test_run_check_reads_each_value_once(monkeypatch, text):
    seen = []

    def spy(name):
        real = getattr(poisson_mc, name)
        monkeypatch.setattr(poisson_mc, name,
                            lambda value, *args: seen.append(value) or real(value, *args))

    for name in ("_real", "_reals", "strict_int", "strict_seed"):
        spy(name)
    spec = json.loads(text)
    run_check(spec)
    reads = Counter(map(id, seen))
    assert sorted(reads.values()) == [1] * len(seen)
    assert reads.keys() == {id(x) for x in values_in(spec)}


def test_each_run_check_starts_with_empty_quadrature_caches():
    first = {"check": "laplace", "window": {"lengths": [1.0, 2.0]}, "samples": 100, "seed": 1,
             "f": {"kind": "gaussian", "center": [0.5, 1.0], "width": [0.3, 0.4], "scale": 0.5}}
    second = {"check": "mecke", "m": 2, "window": {"lengths": [2.0, 3.0]}, "samples": 100,
              "seed": 1, "f": {"g": "indicator", "h": "const"}}
    caches = (integral_of_power, integral_expm1)
    run_check(second)
    alone = [cache.cache_info().currsize for cache in caches]
    run_check(first)
    assert integral_expm1.cache_info().currsize > alone[1]
    run_check(second)
    assert [cache.cache_info().currsize for cache in caches] == alone


def test_run_check_validation():
    with pytest.raises(ValueError):
        run_check({"check": "nope", "window": {"lengths": [1.0]}, "samples": 10, "seed": 1})
    with pytest.raises(ValueError):
        run_check({"check": "laplace", "samples": 10, "seed": 1})


def test_report_json_round_trip():
    doc = check_mecke(2, INDICATOR, CONST, None, WINDOW, 2_000, 42)
    assert doc["samples"] == "2000"
    assert doc["seed"] == "42"


def test_rel_error_floor_avoids_blowup():
    # zero-mean functional: reference 0, rel_error uses the documented floor
    functional = LocalFunctional(kind="poly_of_sum", phi=INDICATOR, h=Polynomial(coeffs=(0.0,)))
    report = check_local_expansion(functional, WINDOW, 200, 5)
    assert report["reference"] == 0.0
    assert report["rel_error"] == 0.0
