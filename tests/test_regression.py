"""Exponential decay fitter tests: recovery, determinism, diagnostics."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from domainport import regression
from domainport.data import load_curve
from domainport.errors import ComputationError
from domainport.hashing import dump_json, fields_from_dict
from domainport.regression import (
    FitLog,
    FitModel,
    _grid_candidates,
    _grid_search,
    _jacobian,
    _residuals,
    _sse,
    _validate_points,
    curve_points,
    fit,
    mean_absolute_error,
    predict,
)

EXACT_POINTS = [(x, 50.0 * math.exp(-1.2 * x) + 40.0) for x in (0.0, 0.5, 1.0, 1.5, 2.0)]


def make_model(a, b, c, percent_scale=True):
    base = fit(EXACT_POINTS)
    return FitModel(
        a=a, b=b, c=c,
        predictor="x",
        sse=0.0, mae=0.0, n=5,
        percent_scale=percent_scale,
        fit_log=base.fit_log,
    )


# ---------------------------------------------------------------- fit


def test_exact_model_recovery():
    model = fit(EXACT_POINTS)
    assert abs(model.a - 50.0) < 1e-6
    assert abs(model.b - 1.2) < 1e-6
    assert abs(model.c - 40.0) < 1e-6
    assert model.sse < 1e-10
    assert model.mae < 1e-6
    assert not model.fit_log.diverged


def test_constant_data_puts_the_signal_in_the_offset():
    model = fit([(0.0, 40.0), (1.0, 40.0), (2.0, 40.0), (3.5, 40.0)])
    assert model.a == 0.0
    assert model.b == 0.0  # SSE ties across the whole grid resolve to the smallest b
    assert model.c == 40.0
    assert model.sse == 0.0
    assert model.mae == 0.0


def test_frozen_reference_fit():
    # 7-point decay curve; values frozen from a verified run of this optimizer
    points = load_curve("curve_ner_kl_f1")["elmo"]
    model = fit(points, predictor_name="kl_divergence")
    assert model.a == pytest.approx(222.74050309375468, rel=1e-9)
    assert model.b == pytest.approx(0.1817252816715541, rel=1e-9)
    assert model.c == pytest.approx(-117.92546754819016, rel=1e-9)
    assert model.sse == pytest.approx(143.5132783521927, rel=1e-9)
    assert model.mae == pytest.approx(3.499360949332416, rel=1e-9)
    assert model.fit_log.grid_b == pytest.approx(0.18082449348779517, rel=1e-9)
    assert model.fit_log.polish_steps == 7
    assert model.fit_log.step_rejected is True
    assert model.fit_log.diverged is False
    assert model.sse <= model.fit_log.grid_sse


def _failing_solve(mode):
    """Stand-in for np.linalg.lstsq: solve normally until the call that fails in ``mode``."""
    real, calls = np.linalg.lstsq, []

    def solve(jac, rhs, rcond=None):
        calls.append(None)
        if len(calls) < (2 if mode == "after_one_step" else 1):
            return real(jac, rhs, rcond=rcond)
        if mode == "non_finite_step":
            return np.array([math.nan, 0.0, 0.0]), None, 3, None
        if mode == "sse_overflows":
            return np.array([1e200, 0.0, 0.0]), None, 3, None
        raise np.linalg.LinAlgError("singular")

    return solve


@pytest.mark.parametrize("mode", ["raises_at_first_step", "non_finite_step", "sse_overflows", "after_one_step"])
def test_a_diverged_polish_keeps_its_last_accepted_iterate(monkeypatch, mode):
    points = load_curve("curve_ner_kl_f1")["elmo"]
    x, y = _validate_points(points, True)
    ga, gb, gc, gsse = _grid_search(x, y)
    if mode == "after_one_step":
        delta = np.linalg.lstsq(_jacobian(ga, gb, gc, x), -_residuals(ga, gb, gc, x, y), rcond=None)[0]
        want = (ga + float(delta[0]), max(0.0, gb + float(delta[1])), gc + float(delta[2]))
        assert _sse(*want, x, y) < gsse  # the first step of this curve is accepted
    else:
        want = (ga, gb, gc)
    monkeypatch.setattr(np.linalg, "lstsq", _failing_solve(mode))
    with np.errstate(over="ignore"):
        model = fit(points)
    assert (model.a, model.b, model.c) == want
    assert model.sse == _sse(*want, x, y)
    assert model.fit_log.diverged is True
    assert model.fit_log.polish_steps == (1 if mode == "after_one_step" else 0)


def test_fit_is_input_order_invariant():
    points = load_curve("curve_ner_kl_f1")["elmo"]
    shuffled = list(points)
    random.Random(7).shuffle(shuffled)
    m1, m2 = fit(points), fit(shuffled)
    assert (m1.a, m1.b, m1.c, m1.sse, m1.mae) == (m2.a, m2.b, m2.c, m2.sse, m2.mae)


def test_fit_validation_errors():
    with pytest.raises(ComputationError, match="underdetermined"):
        fit([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ComputationError, match="no predictor variation"):
        fit([(1.0, 10.0), (1.0, 20.0), (1.0, 30.0)])
    with pytest.raises(ComputationError, match="negative similarity"):
        fit([(-0.5, 10.0), (1.0, 20.0), (2.0, 30.0)])
    with pytest.raises(ComputationError, match="non-finite"):
        fit([(0.0, float("nan")), (1.0, 20.0), (2.0, 30.0)])
    with pytest.raises(ComputationError, match="outside \\[0, 100\\]"):
        fit([(0.0, 150.0), (1.0, 20.0), (2.0, 30.0)])
    # the same y values are fine off the percent scale
    fit([(0.0, 150.0), (1.0, 20.0), (2.0, 30.0)], percent_scale=False)


def test_fitted_sse_never_exceeds_the_flat_baseline():
    # b=0 with c=mean(y) sits on the grid, so no fit can do worse
    points = [(0.0, 90.0), (1.0, 70.0), (2.0, 30.0), (4.0, 20.0)]
    y = [p[1] for p in points]
    mean_y = sum(y) / len(y)
    baseline = sum((v - mean_y) ** 2 for v in y)
    assert fit(points).sse <= baseline + 1e-9


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            st.floats(min_value=1.0, max_value=99.0, allow_nan=False),
        ),
        min_size=3,
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_fit_determinism_and_permutation_invariance(points, rng):
    xs = {p[0] for p in points}
    if len(xs) < 2:
        return
    shuffled = list(points)
    rng.shuffle(shuffled)
    m1, m2 = fit(points), fit(shuffled)
    assert (m1.a, m1.b, m1.c, m1.sse) == (m2.a, m2.b, m2.c, m2.sse)
    assert m1.b >= 0.0
    assert m1.sse >= 0.0


def _reference_solve_linear(e, y):
    n = e.size
    mean_e = float(np.sum(e)) / n
    mean_y = float(np.sum(y)) / n
    var_e = float(np.sum((e - mean_e) ** 2))
    if var_e <= 1e-12 * max(float(np.sum(e * e)), 1e-300):
        return 0.0, mean_y
    cov_ey = float(np.sum((e - mean_e) * (y - mean_y)))
    a = cov_ey / var_e
    return a, mean_y - a * mean_e


def _reference_grid_search(x, y):
    """The grid search as one closed-form solve and SSE per candidate b."""
    best = None
    for b in _grid_candidates():
        a, c = _reference_solve_linear(np.exp(-b * x), y)
        s = _sse(a, b, c, x, y)
        if best is None or s < best[3] - 1e-12:
            best = (a, float(b), c, s)
    return best


def _grid_point_sets(case, rng):
    n = {"n3": 3, "n3000": 3000, "decay_n8": 8}.get(case) or int(rng.integers(4, 12))
    if case == "repeated_x":
        # with only two distinct x values every b > 0 fits the two group
        # means, so the SSE plateaus and the tie rule picks the b
        pool = rng.uniform(0.0, 3.0, size=int(rng.integers(2, 4)))
        x = rng.choice(pool, size=n)
        x[:2] = pool[:2]
    elif case == "x_to_50":
        x = rng.uniform(8.0, 50.0, size=n)  # exp(-100 * x) underflows to 0 on every point
    elif case == "decay_n8":
        x = rng.uniform(0.1, 0.9, size=n)  # the shape of the many-systems benchmark fits
    else:
        x = rng.uniform(0.0, 5.0, size=n)
    if case == "constant_y":
        y = np.full(n, float(rng.uniform(0.0, 100.0)))
    elif case == "decay_n8":
        a, b, c = rng.uniform(20.0, 40.0), rng.uniform(1.5, 4.0), rng.uniform(30.0, 50.0)
        y = a * np.exp(-b * x) + c
    else:
        y = rng.uniform(0.0, 100.0, size=n)
    order = np.lexsort((y, x))  # fit() hands the grid points sorted by (x, y)
    return x[order], y[order]


def _assert_bitwise_equal(got, want):
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def _count_sse_calls(monkeypatch):
    """Calls of regression._sse from now on; one means the batched sums decided the grid."""
    calls = []
    monkeypatch.setattr(regression, "_sse", lambda *args: calls.append(args) or _sse(*args))
    return calls


GRID_CASES = ["n3", "constant_y", "repeated_x", "x_to_50", "n3000", "decay_n8"]


@pytest.mark.parametrize("case", GRID_CASES)
def test_grid_search_is_bitwise_equal_to_the_per_candidate_loop(case, monkeypatch):
    # n3000 spreads the grid over several array blocks, the last one partial
    rng = np.random.default_rng(GRID_CASES.index(case))
    calls = _count_sse_calls(monkeypatch)
    exact_paths = 0
    for _ in range(2 if case == "n3000" else 6):
        x, y = _grid_point_sets(case, rng)
        calls.clear()
        got = _grid_search(x, y)
        exact_paths += len(calls) > 1
        _assert_bitwise_equal(got, _reference_grid_search(x, y))
        if case == "constant_y":
            assert got[1] == 0.0
        if case == "x_to_50":
            assert not np.any(np.exp(-100.0 * x))  # the largest-b rows are flat
    if case == "decay_n8":
        assert exact_paths == 0  # well-separated sums never need the exact rescan
    if case == "repeated_x":
        assert exact_paths > 0  # plateau ties sit within the rounding margin


def test_grid_search_takes_one_dot_product(monkeypatch):
    # the batched row sums decide the grid; np.dot runs only for the winner's SSE
    x, y = _grid_point_sets("decay_n8", np.random.default_rng(0))
    calls = []
    dot = np.dot
    monkeypatch.setattr(np, "dot", lambda *args: calls.append(args) or dot(*args))
    _grid_search(x, y)
    assert len(calls) <= 1  # one per grid candidate would be 1001


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_grid_search_matches_the_per_candidate_loop_on_drawn_points(data):
    n = data.draw(st.integers(3, 40), label="n")
    if data.draw(st.booleans(), label="ties"):
        # two or three distinct x values force SSE plateaus and exact ties
        pool = data.draw(st.lists(st.floats(0.0, 60.0), min_size=2, max_size=3, unique=True), label="pool")
        xs = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n), label="x")
    else:
        xs = data.draw(st.lists(st.floats(0.0, 60.0), min_size=n, max_size=n), label="x")  # exp underflows
    assume(len(set(xs)) > 1)
    ys = data.draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n), label="y")
    ordered = sorted(zip(xs, ys))
    x = np.array([p[0] for p in ordered])
    y = np.array([p[1] for p in ordered])
    _assert_bitwise_equal(_grid_search(x, y), _reference_grid_search(x, y))


def test_grid_rows_that_overflow_do_not_stop_a_finite_winner(monkeypatch):
    x = np.linspace(0.0, 2.0, 24)
    y = 1e150 * (1e4 * np.exp(-2.0 * x) + 5.0)  # a decay curve whose spread squares past 1.8e308
    with np.errstate(over="ignore"):
        assert _sse(0.0, 0.0, float(np.mean(y)), x, y) == math.inf  # the b = 0 row
        want = _reference_grid_search(x, y)
    calls = _count_sse_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _grid_search(x, y)
    assert len(calls) > 1  # a non-finite row sum sends the grid to the exact rescan
    assert math.isfinite(got[3])
    _assert_bitwise_equal(got, want)


def test_a_fit_whose_squared_error_overflows_everywhere_is_refused():
    points = [(x, 1e158 * y) for x, y in load_curve("curve_ner_kl_f1")["elmo"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ComputationError, match="squared error overflows"):
            fit(points, percent_scale=False)


def test_fit_memory_does_not_scale_with_the_grid():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 5.0, 5000)
    y = np.clip(40.0 * np.exp(-x) + 20.0 + rng.normal(0.0, 1.0, x.size), 0.0, 100.0)
    points = list(zip(x.tolist(), y.tolist()))
    tracemalloc.start()
    try:
        fit(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (1001 x 5000) float64 array alone would be 40 MB
    assert peak < 8e6


# ---------------------------------------------------------------- predict


def test_predict_algebra():
    model = fit(EXACT_POINTS)
    assert predict(model, 0.0) == pytest.approx(model.a + model.c, rel=1e-12)
    assert predict(model, 1.0) == pytest.approx(55.059710595610106, abs=1e-6)


def test_predict_limit_is_the_offset():
    model = make_model(50.0, 1.2, 40.0)
    assert abs(predict(model, 1e6) - model.c) < 1e-6


def test_predict_clamps_only_percent_scales():
    over = make_model(80.0, 0.5, 60.0, percent_scale=True)  # a + c = 140
    assert predict(over, 0.0) == 100.0
    under = make_model(-50.0, 0.5, 20.0, percent_scale=True)  # a + c = -30
    assert predict(under, 0.0) == 0.0
    free = make_model(80.0, 0.5, 60.0, percent_scale=False)
    assert predict(free, 0.0) == 140.0


def test_predict_input_validation():
    model = fit(EXACT_POINTS)
    with pytest.raises(ComputationError):
        predict(model, float("inf"))
    with pytest.raises(ComputationError):
        predict(model, -0.1)


def test_monotone_decrease_for_positive_decay():
    model = make_model(50.0, 1.2, 10.0, percent_scale=False)
    values = [predict(model, x) for x in np.linspace(0.0, 5.0, 50)]
    assert all(earlier > later for earlier, later in zip(values, values[1:]))


# ---------------------------------------------------------------- mae


def test_mae_on_curve_is_zero():
    model = fit(EXACT_POINTS)
    assert mean_absolute_error(model, EXACT_POINTS) < 1e-9


def test_mae_of_symmetric_offsets():
    model = make_model(50.0, 1.2, 40.0, percent_scale=False)
    delta = 2.5
    points = [(0.0, 90.0 + delta), (1.0, predict(model, 1.0) - delta)]
    assert mean_absolute_error(model, points) == pytest.approx(delta, rel=1e-12)


def test_mae_requires_points():
    with pytest.raises(ComputationError, match="no points"):
        mean_absolute_error(fit(EXACT_POINTS), [])


# ---------------------------------------------------------------- curve


def test_curve_points_span_the_requested_range():
    model = fit(EXACT_POINTS)
    pts = curve_points(model, 2.0, n=21)
    assert len(pts) == 21
    assert pts[0][0] == 0.0
    assert pts[-1][0] == 2.0
    with pytest.raises(ComputationError):
        curve_points(model, 2.0, n=1)
    with pytest.raises(ComputationError):
        curve_points(model, 0.0)


# ---------------------------------------------------------------- jacobian


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(20260817)
    h = 1e-6
    for _ in range(100):
        a = rng.uniform(-80.0, 80.0)
        b = rng.uniform(0.01, 3.0)
        c = rng.uniform(-50.0, 50.0)
        x = rng.uniform(0.0, 4.0, size=6)
        y = rng.uniform(0.0, 100.0, size=6)
        jac = _jacobian(a, b, c, x)
        for j, (lo, hi) in enumerate((( a - h, a + h), (b - h, b + h), (c - h, c + h))):
            params_lo = [a, b, c]
            params_hi = [a, b, c]
            params_lo[j], params_hi[j] = lo, hi
            numeric = (_residuals(*params_hi, x, y) - _residuals(*params_lo, x, y)) / (2 * h)
            scale = np.maximum(np.abs(jac[:, j]), 1.0)
            assert np.all(np.abs(jac[:, j] - numeric) / scale < 1e-4)


# ---------------------------------------------------------------- serialization


def test_model_json_round_trip():
    model = fit(EXACT_POINTS, predictor_name="kl_divergence")
    payload = json.loads(dump_json(dataclasses.asdict(model)))
    assert set(payload) == {"a", "b", "c", "predictor", "sse", "mae", "n", "percent_scale", "fit_log"}
    assert payload["n"] == 5
    assert payload["predictor"] == "kl_divergence"
    restored = fields_from_dict(FitModel, payload, "model")
    assert (restored.a, restored.b, restored.c) == (model.a, model.b, model.c)
    assert restored.n == model.n
    assert fields_from_dict(FitLog, restored.fit_log, "fit_log") == model.fit_log
