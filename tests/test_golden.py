"""Outputs against tests/golden.json, the reference that make_golden.py writes.

Floats may differ by a few ulp across numpy and BLAS builds; flags, the
argmax nu and the simulator's integer tallies compare exactly, as do a loss
table's K, clamp flag and float32 digest and an attempt trace's record count
and SHA-256.  An error estimate is a difference of two sums of the PLR's
size, so its tolerance is a few ulp of the PLR.
"""
import json
import math

import pytest

from make_golden import GOLDEN, golden_outputs

# numpy's SIMD exp and log may differ by an ulp between builds and CPUs, and
# a capacity moves with its PLR samples through the solver's secant steps
ULPS = 8


def _close(got: float, want: float, scale: float | None = None) -> bool:
    return abs(got - want) <= ULPS * math.ulp(abs(want if scale is None else scale))


@pytest.fixture(scope="module")
def outputs():
    return golden_outputs(), json.loads(GOLDEN.read_text())


def test_plr_matches_golden(outputs):
    got, want = (o["plr"] for o in outputs)
    assert [row[:4] for row in got] == [row[:4] for row in want]
    assert [row[6] for row in got] == [row[6] for row in want]
    for (*key, value, err, _), (*_, value0, err0, _) in zip(got, want):
        assert _close(value, value0), (key, value, value0)
        assert _close(err, err0, value0), (key, err, err0)


def test_loss_tables_match_golden(outputs):
    got, want = (o["loss_recursion"] for o in outputs)
    assert [row[:7] + row[8:] for row in got] == [row[:7] + row[8:] for row in want]
    for (*key, plr_r, _), (*_, plr_r0, _) in zip(got, want):
        assert _close(plr_r, plr_r0), (key, plr_r, plr_r0)


def test_capacity_matches_golden(outputs):
    got, want = (o["capacity"] for o in outputs)
    assert [(nu, t, flags) for nu, t, _, flags in got] == \
        [(nu, t, flags) for nu, t, _, flags in want]
    for (nu, target, value, _), (*_, value0, _) in zip(got, want):
        assert _close(value, value0), (nu, target, value, value0)

    def argmax(rows, target):
        return max((c, nu) for nu, t, c, _ in rows if t == target)[1]

    for target in {t for _, t, _, _ in want}:
        assert argmax(got, target) == argmax(want, target)


def test_acceptance_capacities_match_golden(outputs):
    got, want = (o["acceptance_capacity"] for o in outputs)
    assert [row[:4] + row[5:] for row in got] == [row[:4] + row[5:] for row in want]
    for (*key, value, _), (*_, value0, _) in zip(got, want):
        assert _close(value, value0), (key, value, value0)

    def argmax(rows, grid):
        return max((c, nu) for b, phi, nu, t, c, _ in rows if (b, phi, t) == grid)[1]

    for grid in {(b, phi, t) for b, phi, _, t, _, _ in want}:
        assert argmax(got, grid) == argmax(want, grid), grid


def test_sim_reports_match_golden(outputs):
    got, want = (o["sim"] for o in outputs)
    assert len(got) == len(want)
    for (nu, lam, estimate, ci, *tallies), (nu0, lam0, estimate0, ci0, *tallies0) in \
            zip(got, want):
        assert (nu, lam, tallies) == (nu0, lam0, tallies0)
        assert _close(estimate, estimate0) and _close(ci, ci0), (nu, lam)


def test_traces_match_golden(outputs):
    got, want = (o["trace"] for o in outputs)
    assert got == want
