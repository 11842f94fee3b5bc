import math
import random

import numpy as np
import pytest

from pathgauge import numeric
from pathgauge.errors import DomainError, EndpointMismatch, NotClosed, SingularityTooClose

# 1/(1 + e^(8/3)) evaluated at 50 digits
BUMP_QUARTER = 0.0649691691286640621275428099673


class TestBump:
    def test_endpoints_exact(self):
        assert numeric.bump(0.0) == 0.0
        assert numeric.bump(1.0) == 1.0

    def test_midpoint(self):
        assert numeric.bump(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_golden_quarter(self):
        assert abs(numeric.bump(0.25) - BUMP_QUARTER) < 1e-12

    def test_symmetry_on_dense_grid(self):
        ts = np.linspace(0.0, 1.0, 10_001)
        vals = numeric.bump(ts)
        assert np.max(np.abs(vals + vals[::-1] - 1.0)) <= 1e-12

    def test_monotone_on_dense_grid(self):
        vals = numeric.bump(np.linspace(0.0, 1.0, 10_001))
        assert np.all(np.diff(vals) >= 0.0)

    def test_array_values_equal_scalar_calls(self):
        """The grid check of `numeric-check` evaluates the bump on arrays; the
        values must be the scalar ones bit for bit, so the defect it reports is too."""
        grid = [i / 10_000 for i in range(10_001)]
        arr = np.arange(10_001) / 10_000
        assert arr.tolist() == grid
        assert numeric.bump(arr).tolist() == [numeric.bump(t) for t in grid]
        assert numeric.bump(1.0 - arr).tolist() == [numeric.bump(1.0 - t) for t in grid]

    def test_flat_near_endpoints(self):
        assert numeric.bump(0.01) < 1e-40
        assert numeric.bump(0.99) >= 1.0 - 1e-15

    def test_domain_error(self):
        with pytest.raises(DomainError):
            numeric.bump(-0.1)
        with pytest.raises(DomainError):
            numeric.bump(1.1)


def zigzag(n=101):
    ts = np.linspace(0.0, 1.0, n)
    return numeric.make_path(np.column_stack([ts, np.sin(3.0 * np.pi * ts)]))


class TestSegment:
    def test_full_range_is_identity(self):
        alpha = zigzag()
        assert numeric.segment(alpha, 0.0, 1.0) == alpha

    def test_point_segment_is_constant(self):
        alpha = zigzag()
        seg = numeric.segment(alpha, 0.37, 0.37)
        assert np.allclose(seg.samples, seg.samples[0])

    def test_reversal(self):
        alpha = zigzag()
        rev = numeric.segment(alpha, 1.0, 0.0)
        assert np.allclose(rev.samples, alpha.samples[::-1], atol=1e-12)

    def test_composition_identity(self):
        """segment(segment(a, r, s), u, v) traverses a between r+u(s-r) and
        r+v(s-r); exact on knot-aligned parameters."""
        alpha = zigzag(101)
        cases = [
            (0.2, 0.7, 0.0, 1.0),
            (0.2, 0.7, 0.2, 0.8),
            (0.0, 1.0, 0.3, 0.9),
            (0.9, 0.1, 0.25, 0.75),
        ]
        for r, s, u, v in cases:
            inner = numeric.segment(alpha, r, s)
            lhs = numeric.segment(inner, u, v)
            rhs = numeric.segment(alpha, r + u * (s - r), r + v * (s - r))
            assert numeric.paths_close(lhs, rhs, tol=1e-9)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            numeric.segment(zigzag(), -0.2, 0.5)


class TestRadial:
    def test_constant_when_equal(self):
        path = numeric.radial_plot((1.0, 2.0), (1.0, 2.0))
        assert np.allclose(path.samples, [1.0, 2.0])

    def test_midpoint(self):
        path = numeric.radial_plot((0.0, 0.0), (1.0, 0.0))
        assert np.allclose(path.at(0.5), [0.5, 0.0])

    def test_endpoints_exact(self):
        path = numeric.radial_plot((0.25, -3.5), (2.0, 11.0))
        assert tuple(path.start()) == (0.25, -3.5)
        assert tuple(path.end()) == (2.0, 11.0)


def square_loop(center=(0.0, 0.0), half=1.0):
    cx, cy = center
    return numeric.make_path(
        [
            (cx + half, cy - half),
            (cx + half, cy + half),
            (cx - half, cy + half),
            (cx - half, cy - half),
            (cx + half, cy - half),
        ]
    )


class TestU1Holonomy:
    def test_winding_around_puncture(self):
        total = numeric.u1_holonomy(numeric.angular_form(), square_loop())
        assert abs(total - 2.0 * math.pi) < 1e-6

    def test_no_winding_outside(self):
        total = numeric.u1_holonomy(numeric.angular_form(), square_loop(center=(4.0, 0.0)))
        assert abs(total) < 1e-6

    def test_double_loop(self):
        once = square_loop()
        twice = numeric.concat_paths(once, once)
        total = numeric.u1_holonomy(numeric.angular_form(), twice)
        assert abs(total - 4.0 * math.pi) < 1e-6
        assert numeric.winding_number(numeric.angular_form(), twice) == 2

    def test_reversal_negates(self):
        form = numeric.angular_form()
        loop = square_loop()
        assert abs(
            numeric.u1_holonomy(form, loop) + numeric.u1_holonomy(form, loop.reverse())
        ) < 1e-9

    def test_reparameterization_invariance(self):
        form = numeric.angular_form()
        loop = square_loop()
        dense = numeric.resample(loop, 4 * (loop.n - 1) + 1)
        assert abs(numeric.u1_holonomy(form, loop) - numeric.u1_holonomy(form, dense)) < 1e-9

    def test_constant_form_exact_zero_on_loops(self):
        form = numeric.constant_form(2.5, -1.25)
        assert abs(numeric.u1_holonomy(form, square_loop())) < 1e-12

    def test_not_closed(self):
        path = numeric.make_path([(1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(NotClosed):
            numeric.u1_holonomy(numeric.angular_form(), path)

    def test_singularity_margin(self):
        grazing = numeric.make_path(
            [(1.0, 1e-9), (-1.0, 1e-9), (-1.0, 1.0), (1.0, 1.0), (1.0, 1e-9)]
        )
        with pytest.raises(SingularityTooClose):
            numeric.u1_holonomy(numeric.angular_form(), grazing)

    def test_mod_two_pi(self):
        total = numeric.u1_holonomy(numeric.angular_form(), square_loop(), mod_two_pi=True)
        assert abs(total) < 1e-6 or abs(abs(total) - 2 * math.pi) < 1e-6

    def test_simpson_matches_analytic_angular(self):
        def evaluator(x, y):
            r2 = x * x + y * y
            return (-y / r2, x / r2)

        form = numeric.custom_form(evaluator, singular=[(0.0, 0.0)])
        loop = square_loop()
        analytic = numeric.u1_holonomy(numeric.angular_form(), loop)
        simpson = numeric.u1_holonomy(form, loop)
        assert abs(simpson - analytic) < 1e-8

    def test_concat_mismatch_rejected(self):
        a = numeric.make_path([(0.0, 0.0), (1.0, 0.0)])
        b = numeric.make_path([(2.0, 0.0), (3.0, 0.0)])
        with pytest.raises(EndpointMismatch):
            numeric.concat_paths(a, b)


class TestRetraceInvariance:
    def test_randomized_triples(self):
        from pathgauge.cli import _retrace_defect

        rng = random.Random(2024)
        worst = max(_retrace_defect(rng) for _ in range(100))
        assert worst <= 1e-9
