"""Unit tests for tools/bench_guard.py's kernel-scaling checks.

Synthetic BENCH_kernel_scaling.json payloads pin the grid growth-slope
check (an absolute property of the fresh run) and the missing-row rule
(a baseline row absent from the fresh run fails a full run but is
skipped by a --quick run, which only produces a subset of the rows).

Run via ctest (`ctest -R bench_guard_test`) or directly:
    python3 -m unittest discover -s tests -p bench_guard_test.py
"""

import contextlib
import io
import sys
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import bench_guard  # noqa: E402

GRID_UNKNOWNS = (194, 677, 2030, 10094)


def row(label, config, unknowns, wall_s):
    return {"label": label, "config": config, "unknowns": unknowns,
            "wall_s": wall_s, "nr_iterations": 100,
            "lu_factorizations": 100}


def grid_rows(slope):
    """sparse-amd grid rows whose wall time grows as unknowns**slope."""
    return [row(f"grid-{i}", "sparse-amd", n, 1e-3 * (n / 100.0) ** slope)
            for i, n in enumerate(GRID_UNKNOWNS)]


def run_guard(base_samples, fresh_samples, mode="full"):
    """Failures recorded by guard_kernel_scaling on the two payloads."""
    bench_guard.FAILURES.clear()
    base = {"mode": "full", "samples": base_samples}
    fresh = {"mode": mode, "samples": fresh_samples}
    with contextlib.redirect_stdout(io.StringIO()):
        bench_guard.guard_kernel_scaling(base, fresh, 0.25, 0.40)
    failures = list(bench_guard.FAILURES)
    bench_guard.FAILURES.clear()
    return failures


class GridSlopeTest(unittest.TestCase):
    def test_near_linear_growth_passes(self):
        rows = grid_rows(1.05)
        self.assertAlmostEqual(
            bench_guard.loglog_slope([(r["unknowns"], r["wall_s"])
                                      for r in rows]), 1.05)
        self.assertEqual([], run_guard(rows, rows))

    def test_quadratic_growth_fails(self):
        rows = grid_rows(2.0)
        self.assertEqual(["kernel_scaling.grid.sparse_amd_slope"],
                         run_guard(rows, rows))


class MissingRowTest(unittest.TestCase):
    def test_missing_row_fails_full_and_is_skipped_quick(self):
        base = grid_rows(1.05)
        fresh = base[:2]
        self.assertEqual(
            [f"missing:{(r['label'], r['config'])}" for r in base[2:]],
            run_guard(base, fresh, mode="full"))
        # Two grid rows: too few for a slope, so quick mode judges only
        # the rows it ran.
        self.assertEqual([], run_guard(base, fresh, mode="quick"))


if __name__ == "__main__":
    unittest.main()
