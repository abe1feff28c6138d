"""Driver scenarios: pair-detector quadrilaterals, tripartite area surfaces,
critical-point classification, and detector-angle violation searches."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .born import joint_probs
from .entropy import EntropyTable, subset_entropies
from .geometry import VIOLATION_TOL, PathCheck, distance, quad_path_check, triangle
from .states import StateVector, make_named_state

SWEEP_STATES = ("ghz", "w", "product_v")
DEFAULT_GRID = 91  # one-degree steps over [0, pi/2]


# ---------------------------------------------------------------------------
# Two observers, two detectors each: the quadrilateral


def _cross_distances(state: StateVector, a1, a2, b1, b2) -> np.ndarray:
    """[d_a1b1, d_a1b2, d_a2b1, d_a2b2] over N angle quadruples, as one 2-qubit batch."""
    alice = np.concatenate([a1, a1, a2, a2])
    bob = np.concatenate([b1, b2, b1, b2])
    probs = joint_probs(state, np.stack([alice, bob], axis=1))
    return distance(EntropyTable(("A", "B"), subset_entropies(probs)), "A", "B").reshape(4, -1)


@dataclass(frozen=True)
class QuadrilateralReport:
    """Distances among {A1, A2} x {B1, B2} and the direct-vs-detour check.

    Same-observer detector pairs are mutually exclusive choices, so only the
    four cross distances exist; the check compares the direct edge A1-B2
    against the detour A1-B1-A2-B2.
    """

    angles: dict
    d_a1b1: float
    d_a1b2: float
    d_a2b1: float
    d_a2b2: float
    check: PathCheck

    def as_dict(self) -> dict:
        return {
            "angles": dict(self.angles),
            "d_a1b1": self.d_a1b1,
            "d_a1b2": self.d_a1b2,
            "d_a2b1": self.d_a2b1,
            "d_a2b2": self.d_a2b2,
            "direct": self.check.direct,
            "path_sum": self.check.path_sum,
            "margin": self.check.margin,
            "violated": self.check.violated,
        }


def quadrilateral_report(
    state: StateVector,
    alice_polars: Sequence[float],
    bob_polars: Sequence[float],
) -> QuadrilateralReport:
    a1, a2 = alice_polars
    b1, b2 = bob_polars
    d_a1b1, d_a1b2, d_a2b1, d_a2b2 = _cross_distances(state, [a1], [a2], [b1], [b2])[:, 0].tolist()
    return QuadrilateralReport(
        angles={"a1": a1, "a2": a2, "b1": b1, "b2": b2},
        d_a1b1=d_a1b1,
        d_a1b2=d_a1b2,
        d_a2b1=d_a2b1,
        d_a2b2=d_a2b2,
        check=quad_path_check(d_a1b2, d_a1b1, d_a2b1, d_a2b2),
    )


@dataclass(frozen=True)
class QuadrilateralPreset:
    name: str
    state_name: str
    alice_polars: tuple[float, float]
    bob_polars: tuple[float, float]
    note: str

    def evaluate(self) -> QuadrilateralReport:
        state = make_named_state(self.state_name, 2)
        return quadrilateral_report(state, self.alice_polars, self.bob_polars)


_DELTA_STAR = 0.15234

PRESETS = {
    "schumacher-symmetric": QuadrilateralPreset(
        name="schumacher-symmetric",
        state_name="singlet_sym",
        alice_polars=(0.0, 2 * _DELTA_STAR),
        bob_polars=(_DELTA_STAR, 3 * _DELTA_STAR),
        note="symmetric photon pair at the maximal-violation polarizer chain",
    ),
    "schumacher-original": QuadrilateralPreset(
        name="schumacher-original",
        state_name="singlet_antisym",
        # spin-half analyzer rotations 0, pi/4 and pi/8, 3pi/8; a physical
        # analyzer rotation enters the polarization projector at half angle
        alice_polars=(0.0, math.pi / 8),
        bob_polars=(math.pi / 16, 3 * math.pi / 16),
        note="antisymmetric spin-half pair at the classic analyzer chain",
    ),
}


def _point(batch, i: int = 0):
    """Point ``i`` of a batch of columns, with a Python scalar in every field."""
    return type(batch)(*(getattr(batch, f.name)[i].item() for f in fields(batch)))


@dataclass(frozen=True)
class ViolationScanRow:
    """The symmetric chain at one delta, or at many as one array per field
    (``scan_delta``).  Field order is the scan CSV order."""

    delta: float
    d_a1b2: float
    d_a1b1: float
    d_a2b1: float
    d_a2b2: float
    margin: float
    violated: bool


def schumacher_scenario(delta: float, state: StateVector | None = None) -> ViolationScanRow:
    """One point of the symmetric detector chain a1=0, b1=d, a2=2d, b2=3d.

    Three detour hops then sit at relative angle d while the direct edge
    sits at 3d; the margin is direct minus detour.
    """
    return _point(_scan_rows(state, np.array([delta], dtype=float)))


def _scan_rows(state: StateVector | None, deltas: np.ndarray) -> ViolationScanRow:
    if state is None:
        state = make_named_state("singlet_sym", 2)
    d = _cross_distances(state, np.zeros_like(deltas), 2 * deltas, deltas, 3 * deltas)
    check = quad_path_check(d[1], d[0], d[2], d[3])
    return ViolationScanRow(deltas, d[1], d[0], d[2], d[3], check.margin, check.violated)


@dataclass(frozen=True)
class ScanResult:
    rows: ViolationScanRow  # columns, one entry per delta
    best: ViolationScanRow
    best_on_boundary: bool


def scan_delta(lo: float, hi: float, steps: int, state: StateVector | None = None) -> ScanResult:
    """Scan the symmetric chain over [lo, hi] and return the margin argmax."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    rows = _scan_rows(state, np.linspace(lo, hi, steps))
    idx = int(np.argmax(rows.margin))  # the first of equal margins
    return ScanResult(rows=rows, best=_point(rows, idx), best_on_boundary=idx in (0, steps - 1))


# ---------------------------------------------------------------------------
# Tripartite area surfaces


@dataclass(frozen=True)
class SweepRow:
    """Triangle geometry at detector angles (0, beta, gamma), or at many as one
    array per field (``sweep_surface``).  Field order is the sweep CSV order."""

    beta: float
    gamma: float
    d_ab: float
    d_ac: float
    d_bc: float
    area_info: float
    area_euclid: float  # UNDEFINED sentinel when the triangle inequality fails
    euclid_defined: bool
    ratio: float  # UNDEFINED sentinel when either area is unavailable


def surface_point(state: StateVector, beta: float, gamma: float) -> SweepRow:
    """Triangle geometry of a tripartite state at detector angles (0, beta, gamma)."""
    return _point(_surface_rows(state, np.array([beta], float), np.array([gamma], float)))


def _surface_rows(state: StateVector, betas: np.ndarray, gammas: np.ndarray) -> SweepRow:
    """Columns at detector angles (0, beta, gamma), all points in one batch."""
    probs = joint_probs(state, np.stack([np.zeros_like(betas), betas, gammas], axis=1))
    table = EntropyTable(("A", "B", "C"), subset_entropies(probs))
    d_ab, d_ac, d_bc, a_info, a_euclid, defined, _, ratio = triangle(table, "A", "B", "C")
    return SweepRow(betas, gammas, d_ab, d_ac, d_bc, a_info, a_euclid, defined, ratio)


def sweep_surface(state_name: str, grid_n: int = DEFAULT_GRID) -> SweepRow:
    """Grid the (beta, gamma) square [0, pi/2]^2 for one named tripartite state.

    The first observer's angle is pinned to 0; the columns run beta-major.
    """
    if state_name not in SWEEP_STATES:
        raise ValueError(f"sweep states are {SWEEP_STATES}, got {state_name!r}")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    state = make_named_state(state_name, 3)
    angles = np.linspace(0.0, np.pi / 2, grid_n)
    betas, gammas = np.meshgrid(angles, angles, indexing="ij")
    return _surface_rows(state, betas.ravel(), gammas.ravel())


def area_surface_fn(state_name: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Information-area surface of a named state: angle arrays in, an array
    of the same shape out, all points in one batch."""
    state = make_named_state(state_name, 3)

    def area_info(beta, gamma):
        beta, gamma = np.asarray(beta, dtype=float), np.asarray(gamma, dtype=float)
        return _surface_rows(state, beta.ravel(), gamma.ravel()).area_info.reshape(beta.shape)

    return area_info


# ---------------------------------------------------------------------------
# Discrete critical points


@dataclass(frozen=True)
class CriticalPoint:
    beta: float
    gamma: float
    value: float
    kind: str  # max | min | saddle | flat | degenerate


def _classify_stencil(v: np.ndarray, i: int, j: int, tol: float) -> str:
    """Classify grid point (i, j) of ``v`` from second differences along the
    four grid directions.

    Directional differences are used instead of a Hessian eigen-test: the
    area surfaces contain p log p creases whose cross-stencil pollution
    would otherwise flip saddle verdicts.
    """
    center = v[i, j]
    seconds = [
        v[i - 1, j] - 2 * center + v[i + 1, j],
        v[i, j - 1] - 2 * center + v[i, j + 1],
        v[i - 1, j - 1] - 2 * center + v[i + 1, j + 1],
        v[i - 1, j + 1] - 2 * center + v[i + 1, j - 1],
    ]
    if all(abs(s) <= tol for s in seconds):
        return "flat"
    if all(s <= -tol for s in seconds):
        return "max"
    if all(s >= tol for s in seconds):
        return "min"
    if any(s <= -tol for s in seconds) and any(s >= tol for s in seconds):
        return "saddle"
    return "degenerate"


def _grid_from_rows(rows: SweepRow, field: str):
    betas, bi = np.unique(rows.beta, return_inverse=True)
    gammas, gi = np.unique(rows.gamma, return_inverse=True)
    values = np.full((betas.size, gammas.size), np.nan)
    values[bi, gi] = getattr(rows, field)
    if np.any(np.isnan(values)):
        raise ValueError("rows do not cover a full rectangular grid")
    return betas, gammas, values


def critical_points(
    rows: SweepRow,
    field: str = "area_info",
    surface_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    refine_levels: int = 3,
) -> list[CriticalPoint]:
    """Locate and classify stationary points of a swept surface.

    Interior grid points are stationary candidates when the surface has a
    one-dimensional extremum along both axes (first differences change sign)
    or a vanishing central gradient.  Classification reads the sign pattern
    of second differences along the two axes and the two diagonals.  With
    ``surface_fn`` given, each candidate is re-gridded locally at halving
    cell sizes (``refine_levels`` times) to sharpen its location and verdict.

    ``surface_fn`` maps a beta and a gamma array of one shape to the surface
    values in that shape (``area_surface_fn``); each 5x5 patch is one call.
    """
    betas, gammas, v = _grid_from_rows(rows, field)
    if betas.size < 5 or gammas.size < 5:
        raise ValueError("critical-point detection needs at least a 5x5 grid")
    span = float(v.max() - v.min())
    tol = 1e-9 + 1e-6 * span
    grad_scale = max(
        float(np.abs(np.diff(v, axis=0)).max()),
        float(np.abs(np.diff(v, axis=1)).max()),
        1e-12,
    )
    grad_tol = 1e-6 * grad_scale

    # dx[:-1] / dx[1:] are the backward / forward differences at interior points
    dx, dy = np.diff(v, axis=0)[:, 1:-1], np.diff(v, axis=1)[1:-1]
    extremal_x = (dx[:-1] * dx[1:] <= 0) | (np.abs(dx[1:] + dx[:-1]) <= 2 * grad_tol)
    extremal_y = (dy[:, :-1] * dy[:, 1:] <= 0) | (np.abs(dy[:, 1:] + dy[:, :-1]) <= 2 * grad_tol)
    found = []
    for i, j in (np.argwhere(extremal_x & extremal_y) + 1).tolist():
        kind = _classify_stencil(v, i, j, tol)
        point = CriticalPoint(float(betas[i]), float(gammas[j]), float(v[i, j]), kind)
        if surface_fn is not None:
            point = _refine_candidate(
                point,
                surface_fn,
                float(betas[i + 1] - betas[i]),
                float(gammas[j + 1] - gammas[j]),
                tol,
                refine_levels,
            )
        found.append(point)
    return found


def _refine_candidate(point, surface_fn, h_beta, h_gamma, tol, levels):
    beta, gamma = point.beta, point.gamma
    kind = point.kind
    for _ in range(max(0, levels)):
        h_beta, h_gamma = h_beta / 2.0, h_gamma / 2.0
        # 5x5 local re-grid; recentre on the interior point with the
        # flattest central gradient before classifying
        bs = beta + h_beta * np.arange(-2, 3)
        gs = gamma + h_gamma * np.arange(-2, 3)
        patch = np.asarray(surface_fn(*np.meshgrid(bs, gs, indexing="ij")), dtype=float)
        gsq = (patch[2:, 1:-1] - patch[:-2, 1:-1]) ** 2 + (patch[1:-1, 2:] - patch[1:-1, :-2]) ** 2
        i, j = (int(k) + 1 for k in np.unravel_index(np.argmin(gsq), gsq.shape))
        beta, gamma = float(bs[i]), float(gs[j])
        kind = _classify_stencil(patch, i, j, tol)
    return CriticalPoint(beta, gamma, float(surface_fn(np.array(beta), np.array(gamma))), kind)


# ---------------------------------------------------------------------------
# Violation search


@dataclass(frozen=True)
class SearchResult:
    parameterization: str
    angles: dict
    margin: float
    evaluations: int


def search_violation(
    state: StateVector,
    parameterization: str = "symmetric-delta",
    initial: Sequence[float] | None = None,
    budget: int = 10_000,
    bounds: Sequence[tuple[float, float]] | None = None,
) -> SearchResult:
    """Maximize the quadrilateral margin over detector angles.

    Two parameterizations: "symmetric-delta" walks the one-parameter chain
    a1=0, b1=d, a2=2d, b2=3d; "free" optimizes (a2, b1, b2) with a1 pinned
    to 0.  Derivative free: a coarse grid seeds a Nelder-Mead polytope that
    spends the remaining evaluation budget.  Deterministic for fixed inputs.
    The default "free" box is [0, pi] per angle, whose coarse grid leaves out
    pi (the same detector as 0); a caller's ``bounds`` are gridded inclusive.

    The budget is a hard cap on evaluations.  The coarse grid has at least
    2 points ("symmetric-delta") or 27 points ("free"); a budget that cannot
    pay for that grid, the initial point if given, and one polish step is
    rejected.
    """
    if parameterization not in ("symmetric-delta", "free"):
        raise ValueError(f"unknown parameterization {parameterization!r}")
    minimum = (2 if parameterization == "symmetric-delta" else 27) + (initial is not None) + 1
    if budget < minimum:
        raise ValueError(
            f"budget {budget} is below the minimum {minimum} of a {parameterization} search: "
            "its coarse grid, the initial point if given, and one polish step"
        )
    evaluations = 0

    def margins(points: np.ndarray) -> np.ndarray:
        """Margin at each row of (a2, b1, b2) angles, with a1 = 0."""
        nonlocal evaluations
        evaluations += len(points)
        a2, b1, b2 = points.T
        d = _cross_distances(state, np.zeros_like(a2), a2, b1, b2)
        return quad_path_check(d[1], d[0], d[2], d[3]).margin

    if parameterization == "symmetric-delta":
        lo, hi = bounds[0] if bounds else (0.005, 0.6)
        to_angles = lambda deltas: np.outer(deltas, [2.0, 1.0, 3.0])
        grid = np.linspace(lo, hi, max(2, min(budget // 2, 256)))[:, None]
        box = [(lo, hi)]
    else:
        box = list(bounds) if bounds else [(0.0, np.pi)] * 3
        per_axis = max(3, int(round((max(budget // 2, 27)) ** (1 / 3))))
        per_axis = min(per_axis, 12)
        # the default box is half-open: a polarizer turned by pi is the same detector
        axes = [np.linspace(lo, hi, per_axis, endpoint=bool(bounds)) for lo, hi in box]
        axes = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([axis.ravel() for axis in axes], axis=1)
        to_angles = lambda points: points
    if initial is not None:
        grid = np.vstack([grid, np.asarray(initial, dtype=float)[None, : grid.shape[1]]])
    # the whole grid is one batch; symmetric settings tie up to rounding, so
    # the seed is the first point within VIOLATION_TOL of the best margin
    grid_margins = margins(to_angles(grid))
    x0 = grid[int(np.argmax(grid_margins >= grid_margins.max() - VIOLATION_TOL))]
    objective = lambda x: -float(margins(to_angles(x[None]))[0])

    result = minimize(
        objective,
        x0=x0,
        method="Nelder-Mead",
        bounds=box,
        options={"maxfev": budget - evaluations, "xatol": 1e-7, "fatol": 1e-12},
    )
    # the initial simplex contains x0, so the polytope never loses to the seed
    best = result.x
    best_margin = -float(result.fun)
    a2, b1, b2 = to_angles(best[None])[0].tolist()
    angles = {"a1": 0.0, "a2": a2, "b1": b1, "b2": b2}
    if parameterization == "symmetric-delta":
        angles["delta"] = float(best[0])
    return SearchResult(
        parameterization=parameterization,
        angles=angles,
        margin=float(best_margin),
        evaluations=evaluations,
    )
