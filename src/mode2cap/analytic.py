"""Analytical packet-loss chain: collision probabilities, loss recursion,
quadrature over distance, and the capacity solver.

The chain per TX-RX distance r (the collision probabilities also take an array):
  * success_prob -- no collision with the background flow of transmissions,
    from the exclusion radii thinned by a Poisson line process;
  * repetition_noncollision_prob -- a repetition avoids the interferer that
    broke the first attempt, given they repeat in the same slot;
  * loss_recursion -- failure probability over all 1+nu attempts, tracking
    the number of interferers known to be mid-repetition;
then PLR(lambda) integrates the per-distance loss uniformly over (0, R], and
capacity() inverts it against the QoS bound.
"""
from __future__ import annotations

import math
import operator
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .config import (ConfigError, ScenarioConfig, TrafficIntensityError, pool_map,
                     repetition_probability, transmit_probability, truncation_depth,
                     validate_config)
from .link import (exclusion_radius, overlap_distribution, reception_breakpoints,
                   sinr_no_interference)

# Beyond this many geometric terms the recursion table gets unreasonably wide;
# capping trades a tail below p**256 for bounded memory and flags the result.
MAX_TRUNCATION_DEPTH = 256

# Ignore clamping events within float dust of 1.
_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class RecursionTable:
    """Result of one loss-recursion evaluation at a fixed distance.

    values[t, c] is the probability of still failing after t attempts with c
    interferers known to be mid-repetition.  Columns beyond valid_c_max(t)
    are padding-influenced and excluded from invariant checks; the returned
    plr_r = values[nu+1, 0] is exact with respect to the truncation depth.
    """

    plr_r: float
    p_s: float
    p_nc: float
    truncation_k: int
    clamped: bool
    values: np.ndarray

    def valid_c_max(self, t: int) -> int:
        # the c = 0 column is exact at every level by construction
        return max(0, self.values.shape[1] - 1 - t * self.truncation_k)


@dataclass(frozen=True)
class PlrCurvePoint:
    lambda_rate: float
    plr: float
    error_estimate: float
    validity_warning: bool = False


@dataclass(frozen=True)
class CapacityResult:
    capacity: float
    above_search_limit: bool = False
    monotonicity_warning: bool = False
    validity_warning: bool = False

    @property
    def flags(self) -> tuple[str, ...]:
        named = (("above_search_limit", self.above_search_limit),
                 ("nonmonotonic_plr", self.monotonicity_warning),
                 ("model_validity", self.validity_warning))
        return tuple(name for name, on in named if on)


def _weighted_sum(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_m weights[m] * values[..., m], with the same summation order for
    every shape of values (a BLAS dot or matmul may reorder it)."""
    return (values * weights).sum(axis=-1)


def _link_terms(r: ArrayLike,
                config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load-free link terms at distances r, from one set of exclusion radii
    rho_m(r), m = 1..M: where success_prob is 0 (doomed), the radius sum
    S(r) = sum_m P_m * rho_m(r), and repetition_noncollision_prob."""
    weights = np.asarray(overlap_distribution(
        config.num_subchannels_b, config.packet_width_m)[1:], dtype=float)
    r = np.asarray(r, dtype=float)
    rho = exclusion_radius(r[..., None], np.arange(1, config.packet_width_m + 1), config)
    active = weights > 0.0
    doomed = (sinr_no_interference(r, config) <= config.sinr_threshold_t) \
        | np.any(np.isinf(rho) & active, axis=-1)
    radius_sum = _weighted_sum(np.where(active, rho, 0.0), weights)
    return doomed, radius_sum, _noncollision_from_profile(weights, rho)


def success_prob(r: ArrayLike, config: ScenarioConfig) -> float | np.ndarray:
    """Probability that one attempt survives the background flow at distance r.

    Closed form exp(-2*phi*p * S(r)) with S(r) = sum_m P_m * rho_m(r): each
    of the Poisson neighbors independently transmits with probability p and
    kills the packet iff it falls inside the exclusion radius of the realized
    overlap.  Zero when noise alone already breaks reception (SINR0 <= T) or
    when some possible overlap has an unbounded exclusion radius.  Only p
    depends on the load: `plr` keeps the rest per node, from the same
    `_link_terms`.
    """
    doomed, radius_sum, _ = _link_terms(r, config)
    return _success_from_terms(doomed, radius_sum, config)


def _success_from_terms(doomed: np.ndarray, radius_sum: np.ndarray,
                        config: ScenarioConfig) -> float | np.ndarray:
    """success_prob at the config's load, from _link_terms."""
    exponent = 2.0 * config.phi * transmit_probability(config) * radius_sum
    return np.where(doomed, 0.0, np.exp(-exponent))[()]


def repetition_noncollision_prob(r: ArrayLike,
                                 config: ScenarioConfig) -> float | np.ndarray:
    """Probability that a repetition escapes the interferer that collided with
    the first attempt, given both repeat in the same slot."""
    return _link_terms(r, config)[2]


def _noncollision_from_profile(weights: np.ndarray,
                               rho: np.ndarray) -> float | np.ndarray:
    """Core of the repetition non-collision probability, for radii rho[..., m].

    1 - (joint first+repetition failure) / (first-attempt failure), both
    expressed through overlap-weighted exclusion radii.  Unbounded radii are
    handled as the limit of a growing radius: the ratio tends to the total
    weight of the unbounded overlaps.
    """
    weights = np.asarray(weights, dtype=float)
    rho = np.where(weights > 0.0, np.asarray(rho, dtype=float), 0.0)
    inf_weight = _weighted_sum(np.isinf(rho), weights)
    denom = _weighted_sum(rho, weights)
    pair_min = np.minimum(rho[..., :, None], rho[..., None, :])
    # rows with an unbounded radius or a zero denominator give inf/inf or 0/0
    # here; np.where replaces them below
    with np.errstate(invalid="ignore"):
        numer = _weighted_sum(_weighted_sum(pair_min, weights), weights)
        ratio = numer / denom
    return np.where(inf_weight > 0.0, 1.0 - inf_weight,
                    np.where(denom == 0.0, 1.0, 1.0 - ratio))[()]


# a capacity solve meets a few truncation depths, hence widths (at most three
# over B = 3..20, nu = 0..8 and PLR 1e-2..1e-5)
@lru_cache(maxsize=8)
def _mixing_matrices(width: int, p_rep: float,
                     q_last: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binomial mixing matrices of the loss recursion, read-only.

    g_rep[c, i] = P(i of c mid-repetition interferers transmit in a slot) and
    g_last[i, j] = P(j of those i transmit their last repetition).  h is the
    two mixings composed and re-indexed, h[c, d] = (g_rep @ g_last)[c, c - d]
    for d <= c and 0 above the diagonal, so that
    sum_j (g_rep @ g_last)[c, j] * x[c - j] = sum_d h[c, d] * x[d].  None of
    them depends on lambda, so a capacity solve builds them once per width.
    """
    g_rep = _binomial_rows(width, p_rep)
    g_last = _binomial_rows(width, q_last)
    h = _diagonal_index(g_rep @ g_last)
    for a in (g_rep, g_last, h):
        a.setflags(write=False)
    return g_rep, g_last, h


def _binomial_rows(width: int, q: float) -> np.ndarray:
    """pmf[c, i] = C(c, i) q^i (1-q)^(c-i) for c, i < width, by Pascal's rule."""
    pmf = np.zeros((width, width))
    pmf[0, 0] = 1.0
    for c in range(1, width):
        pmf[c, :c] = (1.0 - q) * pmf[c - 1, :c]
        pmf[c, 1:c + 1] += q * pmf[c - 1, :c]
    return pmf


def _diagonal_index(a: np.ndarray) -> np.ndarray:
    """out[..., c, d] = a[..., c, c - d] for d <= c, and 0 for d > c."""
    w = a.shape[-1]
    c = np.arange(w)
    # flat index c * w + (c - d) of a[c, c - d], with c - d clipped at 0
    flat = c[:, None] * w + np.maximum(c[:, None] - c, 0)
    return np.tril(np.take(a.reshape(*a.shape[:-2], w * w), flat, axis=-1))


class _RecursionOperator:
    """Loss-recursion evaluator for one (config, lambda) pair, run on a batch
    of distances (quadrature nodes) at once.

    State is an (N, width) array, one row per node; each level costs two
    matrix products, one with a stack of (N, width, width) per-node matrices,
    so nodes are processed in chunks of `chunk` to bound that memory.
    """

    # largest (chunk, width, width) temporary, in elements (8 MiB of float64)
    _BATCH_ELEMENTS = 2 ** 20

    def __init__(self, config: ScenarioConfig, truncation_k: int | None = None):
        self.p = transmit_probability(config)
        self.nu = config.repetitions_nu
        k = truncation_k if truncation_k is not None else truncation_depth(config)
        self.capped = k > MAX_TRUNCATION_DEPTH
        self.k = min(k, MAX_TRUNCATION_DEPTH)
        # without repetitions no interferer is ever mid-repetition: c = 0 only
        width = self.width = (self.nu + 1) * self.k + 1 if self.nu else 1
        self.chunk = max(1, self._BATCH_ELEMENTS // width ** 2)
        self.g_rep, self.g_last, h = _mixing_matrices(
            width, repetition_probability(config), 1.0 / (self.nu + 1.0))
        # u_c = (1 - p_s) * sum_d h[c, d] * sum_{s=1..K} p^(s-1) * v[d + s] with v = 1
        # past the last column, as (1 - p_s) * (v @ u_from_v + u_const), band by band
        self.u_from_v, self.u_const = np.zeros((width, width)), np.zeros(width)
        for s, weight in enumerate(self.p ** np.arange(self.k), start=1):
            self.u_from_v[s:] += weight * h.T[:-s]
            self.u_const += weight * h[:, max(width - s, 0):].sum(axis=1)

    def hy(self, p_nc: np.ndarray) -> np.ndarray:
        """hy[n] with y_c = p_s * sum_d hy[n, c, d] * v[d]; lambda enters only by the width."""
        yfac = 1.0 - p_nc[:, None] ** np.arange(self.width)
        return _diagonal_index((self.g_rep * yfac[:, None, :]) @ self.g_last)

    def levels(self, p_s: np.ndarray, p_nc: np.ndarray,
               hy: np.ndarray | None = None) -> tuple[list[np.ndarray], np.ndarray]:
        """Recursion rows for nodes with success probabilities p_s[n] and
        repetition non-collision probabilities p_nc[n] (or hy(p_nc), if given).

        Returns rows[t][n, c], the failure probability after t attempts with c
        interferers mid-repetition, for t = 0..nu+1, and a per-node flag
        that is set when any probability had to be clamped into [0, 1].
        """
        p_s = p_s[:, None]
        q_s = 1.0 - p_s
        hy = self.hy(p_nc) if hy is None else hy
        rows = [np.ones((p_s.shape[0], self.width))]
        # u, y and the new state are products and sums of non-negative terms,
        # so clamping into [0, 1] only needs the upper bound; peak is the
        # largest of them before that clamp, element by element.  hy @ v is
        # finite, so y is 0.0 where p_s is
        peak = np.zeros_like(rows[0])
        for _ in range(self.nu + 1):
            v = rows[-1]
            u = q_s * (v @ self.u_from_v + self.u_const)
            y = p_s * np.matmul(hy, v[:, :, None])[:, :, 0]
            np.maximum(peak, u, out=peak)
            np.maximum(peak, y, out=peak)
            v = self.p * v + (1.0 - self.p) * (np.minimum(u, 1.0) + np.minimum(y, 1.0))
            np.maximum(peak, v, out=peak)
            rows.append(np.minimum(v, 1.0))
        return rows, self.capped | (peak.max(axis=1) > 1.0 + _CLAMP_TOL)

    def plr_r(self, p_s: np.ndarray, p_nc: np.ndarray,
              hy: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Per-node plr_r and clamp flag, chunk by chunk; a given hy is all nodes'."""
        values, clamped = [], []
        for lo in range(0, len(p_s), self.chunk):
            rows, cl = self.levels(p_s[lo:lo + self.chunk], p_nc[lo:lo + self.chunk], hy)
            values.append(rows[-1][:, 0])
            clamped.append(cl)
        return np.concatenate(values), np.concatenate(clamped)


def loss_recursion(r: float, config: ScenarioConfig, *,
                   p_s: float | None = None, p_nc: float | None = None,
                   truncation_k: int | None = None) -> RecursionTable:
    """Failure probability over all 1+nu attempts at distance r.

    p_s / p_nc may be supplied to evaluate the recursion under forced
    collision probabilities (degenerate-regime checks); by default they are
    computed from the config at distance r.
    """
    if p_s is None or p_nc is None:
        doomed, radius_sum, link_nc = _link_terms(r, config)
        p_s = _success_from_terms(doomed, radius_sum, config) if p_s is None else p_s
        p_nc = link_nc if p_nc is None else p_nc
    op = _RecursionOperator(config, truncation_k)
    rows, clamped = op.levels(np.array([p_s], dtype=float), np.array([p_nc], dtype=float))
    table = np.stack(rows)[:, 0, :]
    return RecursionTable(plr_r=float(table[-1, 0]), p_s=p_s, p_nc=p_nc,
                          truncation_k=op.k, clamped=bool(clamped[0]), values=table)


# capacity's search: steps along the PLR's slope from LAMBDA_START to the
# first load on the other side of the target, inside [LAMBDA_LO, LAMBDA_CAP],
# then a safeguarded secant on log(lambda) down to a bracket ratio of 1 + REL_TOL
LAMBDA_START = 1.0
LAMBDA_LO = 1e-4
LAMBDA_CAP = 1e6
REL_TOL = 1e-3

# plr's quadrature: a 24- and a 32-node Gauss-Legendre rule on each piece of
# (0, R] between the link's breakpoints, inside which the loss is smooth (the
# reference scenario has none: one piece, 56 nodes); the 32-node sum is
# reported and its distance from the 24-node sum is the error estimate
_RULES = [np.polynomial.legendre.leggauss(n) for n in (24, 32)]


class _PlrNodes:
    """plr's lambda-free arrays for one load-free config: nodes and weights,
    p_nc and success_prob's load-free part (the doomed mask and the radius
    sum S) from one set of exclusion radii, and hy of one (width, nu).

    When r_T, the largest breakpoint, is below R, p_s falls to 0 there as
    exp(-k (r_T - r)^(-1/3)), a boundary layer that plain Gauss-Legendre
    misses; both rules then grade the piece that ends at r_T toward it, with
    r = r_T - h (1 - s)^3 and s = (x + 1) / 2 for a piece of length h.
    """

    def __init__(self, config: ScenarioConfig):
        breaks = reception_breakpoints(config)
        ends = np.array([0.0, *(b for b in breaks if 0.0 < b < config.range_r),
                         config.range_r])
        mid, half = (0.5 * (ends[1:] + ends[:-1]))[:, None], (0.5 * np.diff(ends))[:, None]
        r, weights = [], []
        for x, w in _RULES:
            # r[i, j] = mid_i + half_i * x_j with weight half_i * w_j
            nodes, wts = mid + half * x, half * w
            if breaks[-1] < config.range_r:  # the next-to-last piece ends at r_T
                t = 0.5 * (1.0 - x)  # 1 - s
                nodes[-2] = ends[-2] - 2.0 * half[-2] * t ** 3
                wts[-2] = 3.0 * half[-2] * t ** 2 * w
            r.append(nodes.ravel())
            weights.append(wts.ravel().tolist())
        self.r, self.weights = np.concatenate(r), weights
        self.doomed, self.radius_sum, self.p_nc = _link_terms(self.r, config)
        self.hy_key, self.hy = None, None


# what _PlrNodes depends on: every field but the load, nu and the PLR target
_load_free_key = operator.attrgetter(*(
    f.name for f in fields(ScenarioConfig)
    if f.name not in ("lambda_rate", "repetitions_nu", "plr_target")))

# the node arrays plr reuses, by load-free key: those of the running capacity
# solve, or of every config the running sweep batch has met; unset otherwise
_SHARED_NODES: ContextVar[dict | None] = ContextVar("_SHARED_NODES", default=None)


def plr(lambda_rate: float, config: ScenarioConfig, *,
        truncation_k: int | None = None) -> PlrCurvePoint:
    """Packet loss rate at the given load, integrated uniformly over distance.

    Gauss-Legendre rules of 24 and 32 nodes on each piece of (0, R] between
    the link's reception breakpoints (graded toward r_T on the piece that
    ends there, when r_T < R), with the recursion run on the nodes of both
    rules at once; the reported value is the 32-node sum and the error
    estimate its difference from the 24-node sum.  p_s at the nodes is
    success_prob's, bit for bit, from their load-free radius sum.  The
    validity flag is set when the recursion clamped at some node, so it
    samples the load's clamped region at the nodes only.  On a flagged point
    the clamp puts a kink that no breakpoint splits, and the error estimate
    is no bound there.  Inside a capacity solve or sweep batch that has met
    a config of the same load-free key, the lambda-free node arrays are that
    config's, with the same result bit for bit.
    """
    if not 0.0 < lambda_rate < math.inf:
        raise ConfigError(f"lambda_rate must be finite and > 0, got {lambda_rate!r}")
    shared = _SHARED_NODES.get() or {}
    nodes = shared.get(_load_free_key(config)) or _PlrNodes(config)
    cfg = config.with_lambda(lambda_rate)
    p_s = _success_from_terms(nodes.doomed, nodes.radius_sum, cfg)
    op = _RecursionOperator(cfg, truncation_k)
    if (op.width, op.nu) != nodes.hy_key:  # hy is kept only if it fits the chunk bound
        nodes.hy_key = op.width, op.nu
        nodes.hy = op.hy(nodes.p_nc) if op.chunk >= len(p_s) else None
    values, clamped = op.plr_r(p_s, nodes.p_nc, nodes.hy)
    # summed node by node, in order
    coarse_w, fine_w = nodes.weights
    values = values.tolist()
    coarse = sum(map(operator.mul, coarse_w, values[:len(coarse_w)])) / config.range_r
    fine = sum(map(operator.mul, fine_w, values[len(coarse_w):])) / config.range_r
    return PlrCurvePoint(lambda_rate, plr=float(fine), error_estimate=float(abs(fine - coarse)),
                         validity_warning=bool(clamped.any()))


def _slope(p: tuple[float, float], q: tuple[float, float]) -> float:
    """Slope of the line through points p and q."""
    return (q[1] - p[1]) / (q[0] - p[0])


def capacity(config: ScenarioConfig) -> CapacityResult:
    """Largest load whose loss rate stays within the QoS bound.

    With f = log(PLR / target) against x = log(lambda), the search starts at
    LAMBDA_START and steps toward the crossing by |f| / s + 0.1, with s the
    slope between the last two finite samples (1 at first, at least 0.5).
    A step is at least 0.1 * 2^i at the i-th load and at most one decade,
    and a load with no finite f (PLR = 0, or p >= 1: infeasible) steps a
    decade; loads are clamped to [LAMBDA_LO, LAMBDA_CAP], those ends
    exactly.  Once the last two loads bracket the crossing, each load is
    aimed where the line through the two newest finite samples crosses
    f = 0.  With tol = log(1 + REL_TOL): an aim within tol of a bracket end
    puts the load just under tol from that end, so that one correct guess
    closes the bracket; any other aim puts it tol / 2 further, away from the
    newest sample; and every load stays at least tol / 2 inside the
    bracket.  A load bisects after two in a row that failed to halve the
    log-bracket, or when the two newest samples give no aim.  So at most
    11 + 3 * 12 loads, and typically 5 or 6.  Monotonicity is checked on the
    PLR samples and flagged, not assumed; the validity flag is that of the
    returned capacity's PLR.
    """
    samples: dict[float, PlrCurvePoint] = {}
    trail: list[tuple[float, float]] = []  # (log(lambda), f) of the finite samples, in order

    def excess(lam: float) -> float:  # log(PLR / target), <= 0 where lam is feasible
        try:
            samples[lam] = plr(lam, config)
        except TrafficIntensityError:
            return math.inf
        if (value := samples[lam].plr) <= 0.0:
            return -math.inf
        trail.append((math.log(lam), math.log(value / config.plr_target)))
        return trail[-1][1]

    shared = _SHARED_NODES.get()
    shared = {} if shared is None else shared
    if (key := _load_free_key(config)) not in shared:
        shared[key] = _PlrNodes(config)
    token = _SHARED_NODES.set(shared)
    try:
        # step away from LAMBDA_START until f changes sign or an end is reached
        lam, f = LAMBDA_START, excess(LAMBDA_START)
        up, last, floor = f <= 0.0, lam, 0.1
        while (f <= 0.0) == up and lam != (LAMBDA_CAP if up else LAMBDA_LO):
            last, x, step = lam, math.log(lam), math.log(10.0)
            if math.isfinite(f):
                slope = 1.0 if len(trail) < 2 else max(_slope(*trail[-2:]), 0.5)
                step = min(max(abs(f) / slope + 0.1, floor), step)
            x, floor = x + (step if up else -step), 2.0 * floor
            lam = (LAMBDA_CAP if x >= math.log(LAMBDA_CAP) else
                   LAMBDA_LO if x <= math.log(LAMBDA_LO) else math.exp(x))
            f = excess(lam)
        if (f <= 0.0) == up:  # no crossing: feasible at the cap, or not at the floor
            last = lam if up else 0.0
        lo, hi = sorted([last, lam])
        tol, stalls = math.log1p(REL_TOL), 0
        while lo > 0.0 and hi / lo > 1.0 + REL_TOL:
            a, b = math.log(lo), math.log(hi)
            x = math.nan  # the aim
            if stalls < 2 and len(trail) > 1 and (slope := _slope(*trail[-2:])) != 0.0:
                x = trail[-1][0] - trail[-1][1] / slope
            if not (secant := math.isfinite(x)):
                x = 0.5 * (a + b)
            elif x < a + tol:
                x = a + (1.0 - 1e-6) * tol
            elif x > b - tol:
                x = b - (1.0 - 1e-6) * tol
            else:  # a secant tends to keep its loads on one side of the crossing
                x += 0.5 * tol if x > trail[-1][0] else -0.5 * tol
            mid = math.exp(min(max(x, a + 0.5 * tol), b - 0.5 * tol))
            if excess(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
            stalls = stalls + 1 if secant and math.log(hi / lo) > 0.5 * (b - a) else 0
    finally:
        _SHARED_NODES.reset(token)

    values = np.array([samples[lam].plr for lam in sorted(samples)])
    nonmonotonic = np.any(np.diff(values) < -1e-9 * np.maximum(np.abs(values[:-1]), 1e-300))
    return CapacityResult(lo, above_search_limit=lo == LAMBDA_CAP,
                          monotonicity_warning=bool(nonmonotonic),
                          validity_warning=lo in samples and samples[lo].validity_warning)


def _sweep_batch(config: ScenarioConfig, batch: list[dict]) -> list[CapacityResult]:
    """capacity of each row of a sweep batch; rows of one load-free key share
    their node arrays."""
    token = _SHARED_NODES.set({})
    try:
        return [capacity(validate_config(replace(config, **o))) for o in batch]
    finally:
        _SHARED_NODES.reset(token)


def capacity_sweep(config: ScenarioConfig, grid: Mapping[str, Sequence], *,
                   workers: int = 1) -> list[tuple[dict, CapacityResult]]:
    """Capacity over the cartesian product of parameter value lists.

    grid maps ScenarioConfig field names (e.g. repetitions_nu,
    num_subchannels_b, plr_target) to value lists.  The rows are dealt
    round-robin to one batch per worker, each batch one pool task.  Rows come
    back in grid order, and bit for bit the same, regardless of the number
    of workers.
    """
    if "lambda_rate" in grid:
        raise ValueError("lambda_rate is the quantity capacity solves for; it cannot be swept")
    combos = [dict(zip(grid, values)) for values in product(*grid.values())]
    n = max(1, min(workers, len(combos)))
    batches = pool_map(_sweep_batch, [(config, combos[k::n]) for k in range(n)], workers)
    results: list = [None] * len(combos)
    for k, batch in enumerate(batches):
        results[k::n] = batch
    return list(zip(combos, results))
