"""The full-search oracles' 1-D search: incumbent rule, accuracy, edges,
batch count."""

import numpy as np
import pytest

from oracles import maximize_1d


class Counted:
    """Wraps an elementwise objective and records each batch's size."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        self.sizes.append(xs.size)
        return self.f(xs)


def _bumpy(seed):
    rng = np.random.default_rng(seed)
    amp, freq, phase = rng.uniform(0.1, 1.0, (3, 4))
    freq *= 40.0
    # a row-wise sum, so a candidate's value does not depend on its batch
    return lambda x: np.sum(amp * np.sin(np.multiply.outer(x, freq) + phase),
                            axis=-1)


def test_incumbent_never_beaten_by_worse_result():
    rng = np.random.default_rng(0)
    for seed in range(50):
        f = _bumpy(seed)
        lo, hi = sorted(rng.uniform(-1.0, 1.0, 2))
        inc = rng.uniform(lo, hi)
        x, fx = maximize_1d(f, lo, hi, n_grid=201, incumbent=inc)
        assert lo <= x <= hi
        assert fx >= f(np.array([inc]))[0]
        assert fx == f(np.array([x]))[0]


def test_off_grid_incumbent_kept_when_best():
    """A spike narrower than the grid spacing, sitting on the incumbent."""
    x0 = 0.123456789

    def spike(xs):
        return np.exp(-((xs - x0) / 1e-9) ** 2)

    x, fx = maximize_1d(spike, 0.0, 1.0, n_grid=201, incumbent=x0)
    assert x == x0
    assert fx == 1.0


def test_tie_goes_to_incumbent():
    x, fx = maximize_1d(lambda xs: np.ones_like(xs), -2.0, 3.0, n_grid=201,
                        incumbent=0.7)
    assert (x, fx) == (0.7, 1.0)


_PEAKS = (-0.9317, -0.25, 0.0, 0.3141, 0.77777)


def _peaked(peak):
    """Smooth, asymmetric, with its maximum 0 at ``peak``."""
    return lambda xs: (-np.log(np.cosh(3.0 * (xs - peak)))
                       + 0.3 * (xs - peak) ** 3)


@pytest.mark.parametrize("peak", _PEAKS)
def test_accuracy_within_tol_of_known_maximum(peak):
    lo, hi, tol = -1.0, 1.0, 1e-7
    x, fx = maximize_1d(_peaked(peak), lo, hi, n_grid=201, tol=tol)
    assert abs(x - peak) <= tol * (hi - lo)
    assert fx == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_grid,max_batches", [(41, 5), (201, 4)])
@pytest.mark.parametrize("with_incumbent", [False, True])
def test_default_depth_and_accuracy(n_grid, max_batches, with_incumbent):
    """The default tol stops the zoom early (grid, 3 levels at 41 points or
    2 at 201, parabolic step), and the parabolic step still lands far
    inside the last bracket."""
    rng = np.random.default_rng(0)
    for seed in range(50):
        f = Counted(_bumpy(seed))
        lo, hi = sorted(rng.uniform(-1.0, 1.0, 2))
        inc = rng.uniform(lo, hi)
        maximize_1d(f, lo, hi, n_grid=n_grid,
                    incumbent=inc if with_incumbent else None)
        assert len(f.sizes) <= max_batches

    for peak in _PEAKS:
        x, _ = maximize_1d(_peaked(peak), -1.0, 1.0, n_grid=n_grid)
        assert abs(x - peak) <= 1e-9 * 2.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_peak_at_bracket_edge(sign):
    x, fx = maximize_1d(lambda xs: sign * xs, 2.0, 5.0, n_grid=201)
    assert x == (5.0 if sign > 0 else 2.0)
    assert fx == sign * x


def test_reversed_bracket_is_swapped():
    x, _ = maximize_1d(lambda xs: -(xs - 1.5) ** 2, 4.0, 0.0, n_grid=201)
    assert abs(x - 1.5) < 1e-7 * 4.0


def test_zero_width_bracket():
    f = Counted(lambda xs: -xs ** 2)
    assert maximize_1d(f, 0.5, 0.5) == (0.5, -0.25)
    assert maximize_1d(f, 0.5, 0.5, incumbent=0.25) == (0.25, -0.0625)
    assert f.sizes == [1, 1]


@pytest.mark.parametrize("n_grid,tol", [(201, 1e-7), (3, 1e-7), (51, 1e-9),
                                        (201, 1e-12)])
@pytest.mark.parametrize("with_incumbent", [False, True])
def test_batch_count_bound(n_grid, tol, with_incumbent):
    """At most 10 batches per search, and at most one single candidate."""
    for seed in range(5):
        f = Counted(_bumpy(seed))
        maximize_1d(f, -0.4, 0.6, n_grid=n_grid, tol=tol,
                    incumbent=0.1 if with_incumbent else None)
        assert len(f.sizes) <= 10
        assert sum(size == 1 for size in f.sizes) <= 1
        assert f.sizes[0] == n_grid + with_incumbent


@pytest.mark.parametrize("n_grid", [41, 201])
@pytest.mark.parametrize("with_incumbent", [False, True])
def test_zoom_candidates_are_linspace_interiors(n_grid, with_incumbent):
    """Each zoom batch equals np.linspace(...)[1:-1] over the bracket kept
    from the level before it, bit for bit."""
    rng = np.random.default_rng(3)
    for seed in range(10):
        f = _bumpy(seed)
        batches = []

        def record(xs, f=f):
            batches.append(np.array(xs, dtype=float))
            return f(batches[-1])

        lo, hi = sorted(rng.uniform(-1.0, 1.0, 2))
        maximize_1d(record, lo, hi, n_grid=n_grid,
                    incumbent=0.5 * (lo + hi) if with_incumbent else None)
        px = np.linspace(lo, hi, n_grid)
        zooms = [b for b in batches[1:] if b.size > 1]
        assert zooms
        for batch in zooms:
            j = int(np.argmax(f(px)))
            xa, xb = px[max(j - 1, 0)], px[min(j + 1, px.size - 1)]
            expected = np.linspace(xa, xb, batch.size + 2)[1:-1]
            assert np.array_equal(batch, expected)
            px = np.concatenate(([xa], expected, [xb]))


def _nan_beside(peak, inc):
    """_peaked(peak) with a NaN hole just right of ``inc``."""
    f = _peaked(peak)
    return lambda xs: np.where((xs > inc) & (xs < inc + 1e-4), np.nan, f(xs))


def test_nan_hole_never_beats_the_incumbent():
    """A NaN hole right of the incumbent: the full search returns a finite
    value no worse than the incumbent's (it returned the NaN point)."""
    f = _nan_beside(0.3141, 0.32)
    x, fx = maximize_1d(f, -1.0, 1.0, n_grid=201, incumbent=0.32)
    assert np.isfinite(fx) and fx == f(np.array([x]))[0]
    assert fx >= f(np.array([0.32]))[0]
    assert abs(x - 0.3141) < 1e-6
