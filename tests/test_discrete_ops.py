import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from congested_ns.core import ValidationError, make_grid
from congested_ns.discrete_ops import (
    MonotoneInterpolant,
    NormKind,
    cumulative_trapezoid,
    derivative,
    monotone_interpolator,
    norm,
    row_trapezoid,
    shift_sample,
    stencil_derivative,
    tail_integral,
    trace0,
)
from conftest import run_python


@pytest.fixture(scope="module")
def g10():
    return make_grid(10.0, 501)


coeffs = st.floats(-3.0, 3.0)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("rows", [1, 3, 8])
def test_stencil_derivative_of_columns_is_each_field_alone(order, rows):
    # a block of stored rows viewed out of a longer history, node-major as
    # the certificates pass it: one column per row
    history = np.random.default_rng(rows).normal(size=(rows + 6, 257))
    block = history[3:3 + rows]
    columns = stencil_derivative(block.T, 0.1, order)
    np.testing.assert_array_equal(columns.T, [stencil_derivative(r, 0.1, order) for r in block])
    np.testing.assert_array_equal(stencil_derivative(np.ascontiguousarray(block.T), 0.1, order),
                                  columns)


@given(a=coeffs, b=coeffs, c=coeffs)
@settings(max_examples=50, deadline=None)
def test_derivative_exact_on_quadratics(a, b, c):
    g = make_grid(4.0, 33)
    f = a * g.x**2 + b * g.x + c
    np.testing.assert_allclose(derivative(f, g, 1), 2 * a * g.x + b, rtol=0, atol=1e-10)
    np.testing.assert_allclose(derivative(f, g, 2), 2 * a, rtol=0, atol=1e-9)


def test_derivative_refinement_order_on_sine():
    errs = []
    for n in (101, 201, 401):
        g = make_grid(np.pi, n)
        err = np.max(np.abs(derivative(np.sin(g.x), g, 1) - np.cos(g.x)))
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)


def test_derivative_rejects_unsupported_order(g10):
    with pytest.raises(Exception, match="order"):
        derivative(np.zeros(g10.n), g10, 3)


def test_norm_zero_field(g10):
    for kind in NormKind:
        assert norm(np.zeros(g10.n), g10, kind) == 0.0


def test_norm_constant_l2(g10):
    assert norm(np.ones(g10.n), g10, NormKind.L2) == pytest.approx(np.sqrt(10.0), rel=1e-14)


def test_weighted_sqrtx_norm_against_quadrature():
    g = make_grid(40.0, 4001)
    f = np.exp(-g.x)
    # oracle: independent adaptive quadrature of int x e^{-2x}
    expected = np.sqrt(quad(lambda x: x * np.exp(-2 * x), 0, np.inf)[0])
    assert expected == pytest.approx(0.5, rel=1e-10)
    assert norm(f, g, NormKind.WEIGHTED_SQRT_X) == pytest.approx(expected, rel=5e-5)


def test_weighted_one_plus_sqrtx_norm_against_quadrature():
    g = make_grid(40.0, 4001)
    f = np.exp(-g.x)
    expected = np.sqrt(quad(lambda x: (1 + np.sqrt(x)) ** 2 * np.exp(-2 * x), 0, np.inf)[0])
    # the sqrt-weight kink at 0 costs half an order locally
    assert norm(f, g, NormKind.WEIGHTED_ONE_PLUS_SQRT_X) == pytest.approx(expected, rel=5e-4)


def test_l1_and_linf_norms(g10):
    f = np.sin(g10.x)
    assert norm(f, g10, NormKind.LINF) == pytest.approx(np.max(np.abs(f)))
    oracle = quad(lambda x: abs(np.sin(x)), 0, 10.0, limit=200)[0]
    assert norm(f, g10, NormKind.L1) == pytest.approx(oracle, rel=1e-4)


def test_sobolev_pythagoras(g10, rng):
    f = np.sin(g10.x) * np.exp(-0.3 * g10.x) + 0.1 * rng.normal(size=g10.n)
    h1 = norm(f, g10, NormKind.H1)
    l2 = norm(f, g10, NormKind.L2)
    dl2 = norm(derivative(f, g10, 1), g10, NormKind.L2)
    assert h1**2 == pytest.approx(l2**2 + dl2**2, rel=1e-13)


def test_h3_norm_stacks_three_derivatives(g10):
    f = np.exp(-g10.x) * np.sin(g10.x)
    total = norm(f, g10, NormKind.L2) ** 2
    d1 = derivative(f, g10, 1)
    d2 = derivative(f, g10, 2)
    d3 = derivative(d2, g10, 1)
    for d in (d1, d2, d3):
        total += norm(d, g10, NormKind.L2) ** 2
    assert norm(f, g10, NormKind.H3) == pytest.approx(np.sqrt(total), rel=1e-13)


def test_trace_exact_on_linear_and_quadratic():
    g = make_grid(5.0, 51)
    f = 3.0 + 2.0 * g.x
    assert trace0(f, g, 1) == pytest.approx(2.0, abs=1e-12)
    assert trace0(g.x**2, g, 2) == pytest.approx(2.0, abs=1e-9)
    assert trace0(f, g, 0) == 3.0


def test_trace_exact_on_cubic():
    g = make_grid(5.0, 51)
    f = g.x**3 - 2.0 * g.x**2 + 4.0
    assert trace0(f, g, 1) == pytest.approx(0.0, abs=1e-10)
    assert trace0(f, g, 2) == pytest.approx(-4.0, abs=1e-8)


def test_trace_of_wave_slope(params, grid, wave):
    expected = params.s * (params.v_plus - 1.0) / params.mu
    assert trace0(wave.v_bar, grid, 1) == pytest.approx(expected, abs=2e-5)


def test_trace_rejects_unsupported_order(g10):
    with pytest.raises(Exception, match="order"):
        trace0(np.zeros(g10.n), g10, 3)


def test_shift_identity(g10):
    f = np.cos(g10.x)
    np.testing.assert_array_equal(shift_sample(monotone_interpolator(f, g10, 0.0), 0.0), f)


def test_shift_constant(g10):
    f = np.full(g10.n, 2.5)
    np.testing.assert_allclose(shift_sample(monotone_interpolator(f, g10, 2.5), 3.7), 2.5,
                               rtol=0, atol=1e-14)


def test_shift_exponential_oracle():
    g = make_grid(10.0, 1001)  # dx = 1e-2
    f = np.exp(-g.x)
    for y in (0.3775, 1.005):
        shifted = shift_sample(monotone_interpolator(f, g, 0.0), y)
        inside = g.x + y <= g.R
        exact = np.exp(-(g.x + y)[inside])
        assert np.max(np.abs(shifted[inside] - exact)) <= 1e-6


def test_shift_uses_tail_beyond_domain(g10):
    f = np.exp(-g10.x)
    shifted = shift_sample(monotone_interpolator(f, g10, -1.0), 8.0)
    assert np.all(shifted[g10.x + 8.0 > g10.R] == -1.0)


def test_shift_rejects_negative_offset(g10):
    with pytest.raises(Exception, match="nonnegative"):
        shift_sample(monotone_interpolator(np.zeros(g10.n), g10, 0.0), -0.5)


@pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf, [0.5, np.nan]])
def test_shift_rejects_non_finite_offset(g10, y):
    # a NaN shift used to pass the sign check and give an all-tail row
    with pytest.raises(ValidationError, match="finite"):
        shift_sample(monotone_interpolator(np.exp(-g10.x), g10, -1.0), y)


@given(seed=st.integers(0, 10_000), y=st.floats(0.0, 5.0),
       more=st.lists(st.floats(0.0, 15.0), max_size=4))
@settings(max_examples=40, deadline=None)
def test_shift_preserves_monotonicity(seed, y, more):
    g = make_grid(10.0, 201)
    r = np.random.default_rng(seed)
    f = np.cumsum(r.uniform(0.0, 1.0, g.n))  # nondecreasing data
    evaluate = monotone_interpolator(f, g, float(f[-1]))
    shifted = shift_sample(evaluate, y)
    assert np.all(np.diff(shifted) >= -1e-12)
    # an array of shifts (zero and past R included) is the stack of single shifts
    ys = np.array([0.0, y, 12.5, *more])
    batch = shift_sample(evaluate, ys)
    singles = np.stack([shift_sample(evaluate, float(yk)) for yk in ys])
    np.testing.assert_array_equal(batch, singles)
    assert np.all(np.diff(batch, axis=1) >= -1e-12)


def _nominal_row(evaluate, g, y: float, tail: float) -> np.ndarray:
    """f0(x_i + y) as shifted defines it: node i in interval i + m,
    m = floor(y / dx), at the nominal offset s = y - m dx, summed in Python
    floats in `at`'s order; the tail past the last interval.  Nodes that
    rounding puts on the other side of R than their interval (one on R
    among them) take the evaluator's value at x_i + y."""
    m = int(y // g.dx)
    s = y - m * g.dx
    s2 = s * s
    c3, c2, c1, c0 = (term.tolist() for term in evaluate._terms)
    row = np.array([c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s) if i < g.n - 1 else tail
                    for i in range(m, m + g.n)])
    points = g.x + y
    inside = np.arange(m, m + g.n) < g.n - 1
    moved = np.where(inside, points >= g.R, points <= g.R)
    row[moved] = evaluate(points[moved])
    return row


def _roundoff_bound(evaluate, g, y: float) -> float:
    """A bound on |shifted(y) - evaluate(x + y)|.  Each offset of the
    evaluator, x_i + y - x_{i+m}, is the nominal one to within a few
    ulp(R + y), which the cubic turns into that times its largest slope on
    an interval; a node rounding puts in the next interval adds the
    roundoff of the cubic's terms at the interval's end."""
    c3, c2, c1, c0 = (np.abs(term) for term in evaluate._terms)
    slope = np.max(c2 + 2.0 * c1 * g.dx + 3.0 * c0 * g.dx**2)
    terms = np.max(c3 + c2 * g.dx + c1 * g.dx**2 + c0 * g.dx**3)
    return 4.0 * math.ulp(g.R + y) * slope + 4.0 * np.finfo(float).eps * terms


@given(seed=st.integers(0, 10_000), frac=st.floats(0.0, 1.2), multiple=st.integers(0, 260),
       node=st.integers(100, 200), tail=st.floats(-2.0, 2.0), nodes=st.integers(1, 201))
@settings(max_examples=60, deadline=None)
def test_shifted_rows_are_the_nominal_power_sum(seed, frac, multiple, node, tail, nodes):
    g = make_grid(10.0, 201)
    r = np.random.default_rng(seed)
    f = np.cumsum(r.normal(size=g.n))
    f[r.integers(0, g.n, 20)] = -0.0
    f[150:170] = 0.5  # a flat stretch
    evaluate = monotone_interpolator(f, g, tail)
    on_r = g.R - g.x[node]  # exact, so node `node` lands on R
    assert g.x[node] + on_r == g.R
    for y in (0.0, frac * g.R, multiple * g.dx, on_r, g.R, g.R + 1e-9, 2.0 * g.R):
        row = evaluate.shifted(y)
        assert row.tobytes() == _nominal_row(evaluate, g, y, tail).tobytes()
        general = evaluate(g.x + y)
        assert np.max(np.abs(row - general)) <= _roundoff_bound(evaluate, g, y)
        past = g.x + y > g.R
        assert np.all(row[past] == tail)
        # the row on the first nodes only is the whole row's prefix
        assert evaluate.shifted(y, nodes).tobytes() == row[:nodes].tobytes()
    # a node on R takes the PCHIP value there, not the tail
    assert evaluate.shifted(on_r)[node] == float(evaluate(g.R)) == pytest.approx(f[-1])


def test_shifted_row_reads_the_table_without_interval_search(monkeypatch):
    g = make_grid(10.0, 201)
    evaluate = monotone_interpolator(np.exp(-g.x) * np.cos(g.x), g, 0.0)
    expected = _nominal_row(evaluate, g, 1.2345, 0.0)
    general = evaluate(g.x + 1.2345)

    def no_general_path(self, x):
        raise AssertionError("shifted row took the general path")

    monkeypatch.setattr(MonotoneInterpolant, "__call__", no_general_path)
    row = evaluate.shifted(1.2345)
    assert row.tobytes() == expected.tobytes()
    assert np.max(np.abs(row - general)) <= _roundoff_bound(evaluate, g, 1.2345)
    assert evaluate.shifted(1.2345, 60).tobytes() == expected[:60].tobytes()


def test_shifted_row_writes_into_out_and_allocates_no_row():
    g = make_grid(50.0, 2049)
    evaluate = monotone_interpolator(np.exp(-g.x) * np.cos(g.x), g, 0.0)
    expected = evaluate.shifted(7.654321)
    out = np.full(g.n, np.nan)
    assert evaluate.shifted(7.654321, None, out) is out
    assert out.tobytes() == expected.tobytes()
    head = np.full(934, np.nan)
    assert evaluate.shifted(7.654321, 934, head).tobytes() == expected[:934].tobytes()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        evaluate.shifted(7.654321, None, out)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.n // 4  # small objects, no array of the row


def _reductions(call) -> int:
    """The ufunc reductions (min, max, all, ...) made while `call` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and getattr(arg, "__name__", "") == "reduce":
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


def test_shifted_rows_near_a_node_make_no_reduction():
    # for shifts a few ulps from a node, rounding can put a node of the
    # evaluator's x + y in the next interval, or a node on R; the row is
    # still the nominal power sum (a node on R the PCHIP value there), within
    # roundoff of the evaluator, and no row tests its offsets
    g = make_grid(10.0, 201)
    evaluate = monotone_interpolator(np.exp(-g.x) * np.cos(g.x), g, 0.0)
    for node in (1, 37, 120, 199):
        near = g.x[node]
        for y in [near + ulps * math.ulp(g.R + near) for ulps in range(-40, 41)] + [
                near - 0.5 * g.dx]:
            expected = _nominal_row(evaluate, g, y, 0.0)
            for size in (g.n, 60):
                assert evaluate.shifted(y, size).tobytes() == expected[:size].tobytes()
            bound = _roundoff_bound(evaluate, g, y)
            assert np.max(np.abs(expected - evaluate(g.x + y))) <= bound
            assert _reductions(lambda: evaluate.shifted(y)) == 0


def _pchip_data(kind: str, seed: int, n: int) -> np.ndarray:
    r = np.random.default_rng(seed)
    if kind == "random":
        return r.normal(size=n) * 10.0 ** r.uniform(-3, 3)
    if kind == "flat":
        return np.full(n, r.normal())
    if kind == "monotone":
        return np.cumsum(r.uniform(0.0, 1.0, n))
    # sign-changing secants, signed zeros and a flat stretch
    f = np.sin(r.uniform(0.5, 8.0) * np.linspace(0.0, 1.0, n))
    f[r.integers(0, n, n // 4)] = -0.0
    f[n // 3:n // 3 + 5] = 0.5
    return f


@given(kind=st.sampled_from(["random", "flat", "monotone", "sign_changing"]),
       seed=st.integers(0, 10_000), n=st.integers(16, 300), R=st.floats(0.5, 60.0),
       tail=st.floats(-2.0, 2.0), inner=st.lists(st.floats(0.0, 1.0), max_size=20))
@settings(max_examples=120, deadline=None)
def test_table_and_evaluation_equal_scipy_pchip_bit_for_bit(kind, seed, n, R, tail, inner):
    # scipy stays the reference the in-house PCHIP table is built to reproduce
    from scipy.interpolate import PchipInterpolator

    g = make_grid(R, n)
    f = _pchip_data(kind, seed, n)
    evaluate = monotone_interpolator(f, g, tail)
    reference = PchipInterpolator(g.x, f, extrapolate=False)
    c3, c2, c1, c0 = evaluate._terms
    assert np.stack((c0, c1, c2)).tobytes() == reference.c[:3].tobytes()
    # scipy's evaluation starts its sum from 0.0, which turns -0.0 into 0.0
    assert c3.tobytes() == (0.0 + reference.c[3]).tobytes()
    points = np.concatenate((g.x, [0.0, -0.0, g.R, g.R * (1.0 + 1e-15), 1.5 * g.R,
                                   -1e-12, -g.R, np.nan],
                             g.R * np.asarray(inner), g.x[1:] - 1e-13))
    got = evaluate(points)
    # NaN below 0, tail past R (and for NaN, as the x <= R test fails)
    expected = np.where(points <= g.R, reference(points), tail)
    assert got.tobytes() == expected.tobytes()
    assert np.all(np.isnan(got[points < 0.0]))
    for p, value in zip(points[::7], got[::7]):
        assert evaluate(p).tobytes() == value.tobytes()


@given(kind=st.sampled_from(["random", "flat", "monotone", "sign_changing"]),
       seed=st.integers(0, 10_000), n=st.integers(16, 300), R=st.floats(0.5, 60.0),
       tail=st.floats(-2.0, 2.0),
       where=st.sampled_from(["inside", "node", "beyond", "below"]),
       frac=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_scalar_evaluation_equals_the_array_path_bit_for_bit(kind, seed, n, R, tail, where,
                                                             frac):
    g = make_grid(R, n)
    evaluate = monotone_interpolator(_pchip_data(kind, seed, n), g, tail)
    p = {"inside": frac * R, "node": float(g.x[int(frac * (n - 1))]),
         "beyond": R * (1.0 + frac) + 1e-12, "below": -frac * R - 1e-300}[where]
    got = evaluate(p)
    assert isinstance(got, float)
    assert np.float64(got).tobytes() == evaluate(np.array([p]))[0].tobytes()
    if where == "beyond":
        assert got == tail
    if where == "below":
        assert np.isnan(got)


def test_import_leaves_scipy_interpolate_and_integrate_unloaded():
    # each of the three packages adds tenths of a second to every start of
    # the package, which imports none: PCHIP is built in discrete_ops,
    # simpson imported on use, and dgtsv loaded from the compiled module.
    # The process pool (concurrent.futures, multiprocessing) adds about 20
    # ms; only a stability sweep with workers > 1 imports it
    out = run_python("-c", "import sys, congested_ns.cli; print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['scipy.linalg._flapack']"


def test_tail_integral_matches_exponential():
    g = make_grid(40.0, 4001)
    f = np.exp(-g.x)
    # -int_x^inf e^{-z} dz = -e^{-x}
    np.testing.assert_allclose(tail_integral(f, g), -np.exp(-g.x), rtol=0, atol=2e-5)
    assert tail_integral(f, g)[-1] == 0.0


def test_tail_integral_inverts_derivative(g10):
    f = np.exp(-((g10.x - 4.0) ** 2))
    V = tail_integral(f, g10)
    np.testing.assert_allclose(derivative(V, g10, 1)[1:-1], f[1:-1], rtol=0, atol=1e-3)


def test_monotone_interpolant_arrays_are_read_only(g10):
    # a zero shift samples the values, every other shift the PCHIP terms:
    # neither can change under the table it was built from
    evaluate = monotone_interpolator(np.sin(g10.x), g10, 0.0)
    for arr in (evaluate.values, *evaluate._terms):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert shift_sample(evaluate, 0.0).tolist() == np.sin(g10.x).tolist()


def test_monotone_interpolator_flat_data_is_silent():
    g = make_grid(1.0, 21)
    vals = np.ones(g.n)
    with np.errstate(all="raise"):
        interp = monotone_interpolator(vals, g, 1.0)
    assert float(interp(0.55)) == pytest.approx(1.0)


def test_monotone_interpolator_nodes_and_tail(g10):
    f = np.exp(-g10.x) * np.cos(3.0 * g10.x)
    evaluate = monotone_interpolator(f, g10, -2.0)
    np.testing.assert_allclose(evaluate(g10.x), f, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(evaluate(g10.R + np.array([1e-12, 0.5, 40.0])), -2.0)
    assert float(evaluate(3.3)) == float(evaluate(np.array([3.3]))[0])


@pytest.mark.parametrize("layout", ["rows", "columns"])
def test_row_trapezoid_is_the_trapezoid_over_each_rows_own_nodes(rng, layout):
    # whole rows, heads past numpy's 128-term pairwise block and short heads,
    # given row-major or as the transpose of node-major columns
    x = make_grid(50.0, 2049).x
    widths = np.diff(x)
    for rows, nodes in ((8, 2049), (3, 8), (8, 300), (5, 2), (8, 2048), (1, 129)):
        F = rng.standard_normal((rows, nodes)) ** 2
        if layout == "columns":
            F = np.ascontiguousarray(F.T).T
        assert (row_trapezoid(F, widths).tolist()
                == [np.trapezoid(row, x[:nodes]) for row in F])


def test_cumulative_trapezoid_integrates_each_column_alone(rng):
    values = rng.standard_normal((300, 5))
    whole = cumulative_trapezoid(values, 0.17)
    assert whole.shape == values.shape
    for j in range(values.shape[1]):
        assert whole[:, j].tobytes() == cumulative_trapezoid(values[:, j].copy(), 0.17).tobytes()
