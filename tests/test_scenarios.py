"""Tests for quadrilateral scans, area surfaces, critical points, and the
violation search."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import binary_entropy, pair_distance_oracle, random_state

import qig.born
import qig.scenarios
from qig import (
    PRESETS,
    SweepRow,
    area_surface_fn,
    critical_points,
    make_named_state,
    quadrilateral_report,
    scan_delta,
    schumacher_scenario,
    search_violation,
    surface_point,
    sweep_surface,
)

PI4 = np.pi / 4


class TestSchumacherScenario:
    def test_reference_point(self):
        """delta = 0.15234: direct 1.42252, detour 0.948753, violated."""
        row = schumacher_scenario(0.15234)
        assert abs(row.d_a1b2 - 1.42252) < 5e-4
        assert abs((row.d_a1b1 + row.d_a2b1 + row.d_a2b2) - 0.948753) < 5e-4
        assert row.violated
        assert row.margin > 0.47

    def test_tiny_delta_all_settings_coincide(self):
        row = schumacher_scenario(1e-9)
        for d in (row.d_a1b1, row.d_a1b2, row.d_a2b1, row.d_a2b2):
            assert d < 1e-6
        assert not row.violated

    def test_pi_twelfth_against_closed_form(self):
        """Hand-evaluated margin from the binary-entropy closed form."""
        d = math.pi / 12
        oracle_margin = pair_distance_oracle(3 * d) - 3 * pair_distance_oracle(d)
        assert abs(oracle_margin - (-0.12747341599161954)) < 1e-12  # frozen oracle value
        row = schumacher_scenario(d)
        assert abs(row.margin - oracle_margin) < 1e-12
        assert not row.violated

    def test_machinery_matches_closed_form_on_grid(self):
        """Every pipeline distance equals 2*h2(sin^2 theta) for this state."""
        for d in np.linspace(0.02, 0.5, 17):
            row = schumacher_scenario(d)
            assert abs(row.d_a1b1 - pair_distance_oracle(d)) < 1e-12
            assert abs(row.d_a2b1 - pair_distance_oracle(d)) < 1e-12
            assert abs(row.d_a2b2 - pair_distance_oracle(d)) < 1e-12
            assert abs(row.d_a1b2 - pair_distance_oracle(3 * d)) < 1e-12


class TestScanDelta:
    def test_recovers_reference_maximum(self):
        result = scan_delta(0.01, 0.5, 1024)
        assert abs(result.best.delta - 0.15234) < 1e-3
        assert result.best.margin > 0.47
        assert not result.best_on_boundary

    def test_range_excluding_peak_hits_boundary(self):
        result = scan_delta(0.3, 0.5, 64)
        assert result.best_on_boundary
        assert abs(result.best.delta - 0.3) < 1e-12

    def test_margin_continuity(self):
        """Adjacent margins move no faster than the closed-form slope bound.

        max |dm/dd| over (0.01, 0.5) is 21.87 (from the binary-entropy
        derivative, peaked near d = 0.414), so 22x the step is the honest
        Lipschitz sanity bound for this range.
        """
        steps = 500
        result = scan_delta(0.01, 0.5, steps)
        step = (0.5 - 0.01) / (steps - 1)
        margins = result.rows.margin
        assert np.max(np.abs(np.diff(margins))) < 22 * step

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            scan_delta(0.2, 0.1, 10)
        with pytest.raises(ValueError):
            scan_delta(0.1, 0.2, 1)


class TestPresets:
    def test_both_presets_violate(self):
        for name, preset in PRESETS.items():
            report = preset.evaluate()
            assert report.check.violated, name
            assert report.check.margin > 0.3, name

    def test_symmetric_preset_matches_scan_point(self):
        report = PRESETS["schumacher-symmetric"].evaluate()
        row = schumacher_scenario(0.15234)
        assert abs(report.check.margin - row.margin) < 1e-12

    def test_original_preset_margin_value(self):
        """Frozen from the closed form at the classic quarter-chain: the
        spin-half analyzer angles pi/8 apart sit pi/16 apart on the
        polarization projector."""
        report = PRESETS["schumacher-original"].evaluate()
        oracle = pair_distance_oracle(3 * math.pi / 16) - 3 * pair_distance_oracle(math.pi / 16)
        assert abs(oracle - 0.38327743181065577) < 1e-12
        assert abs(report.check.margin - oracle) < 1e-12


def w_closed_form_row(beta, gamma):
    """Independent oracle for the single-excitation state: geometry computed
    straight from the stated joint-probability table, bypassing the state
    and projector machinery entirely."""
    sb, cb = math.sin(beta) ** 2, math.cos(beta) ** 2
    sg, cg = math.sin(gamma) ** 2, math.cos(gamma) ** 2
    spg, cpg = math.sin(beta + gamma) ** 2, math.cos(beta + gamma) ** 2

    def H(ps):
        return -sum(p * math.log2(p) for p in ps if p > 1e-15)

    joint = [x / 3 for x in (sb * sg, sb * cg, cb * sg, cb * cg, spg, cpg, cpg, spg)]
    h_abc = H(joint)
    h_a = H([1 / 3, 2 / 3])
    h_b = H([(sb + 1) / 3, (cb + 1) / 3])
    h_c = H([(sg + 1) / 3, (cg + 1) / 3])
    h_ab = H([sb / 3, cb / 3, 1 / 3, 1 / 3])
    h_ac = H([sg / 3, cg / 3, 1 / 3, 1 / 3])
    h_bc = H([(sb * sg + spg) / 3, (sb * cg + cpg) / 3, (cb * sg + cpg) / 3, (cb * cg + spg) / 3])
    d_ab = 2 * h_ab - h_a - h_b
    d_ac = 2 * h_ac - h_a - h_c
    d_bc = 2 * h_bc - h_b - h_c
    conds = (h_abc - h_bc, h_abc - h_ac, h_abc - h_ab)
    area = conds[0] * conds[1] + conds[1] * conds[2] + conds[2] * conds[0]
    return d_ab, d_ac, d_bc, area


class TestSweepSurface:
    def test_ghz_reference_point(self):
        state = make_named_state("ghz", 3)
        row = surface_point(state, PI4, PI4)
        assert abs(row.d_ab - 2.0) < 1e-10
        assert abs(row.area_info - 3.0) < 1e-10
        assert abs(row.area_euclid - 1.7320508) < 1e-6

    def test_product_reference_point(self):
        state = make_named_state("product_v", 3)
        row = surface_point(state, PI4, PI4)
        assert abs(row.d_ab - 1.0) < 1e-10
        assert abs(row.d_bc - 2.0) < 1e-10
        assert abs(row.area_info - 1.0) < 1e-10
        assert row.euclid_defined and abs(row.area_euclid) < 1e-9

    def test_w_reference_point_against_oracle(self):
        """Area matches the published 0.512; distances/Heron come from the
        joint-table oracle (the pairwise records are NOT all fair bits at
        this point, so the distances differ from naive expectations)."""
        state = make_named_state("w", 3)
        row = surface_point(state, PI4, PI4)
        d_ab, d_ac, d_bc, area = w_closed_form_row(PI4, PI4)
        assert abs(row.area_info - 0.512) < 5e-4
        assert abs(row.area_info - area) < 1e-12
        assert abs(row.d_ab - d_ab) < 1e-12
        assert abs(row.d_ac - d_ac) < 1e-12
        assert abs(row.d_bc - d_bc) < 1e-12
        # frozen oracle values at the saddle
        assert abs(d_ab - 1.9182958340544896) < 1e-12
        assert abs(d_bc - 1.3000448432967087) < 1e-12
        assert abs(row.area_euclid - 1.1731652780553354) < 1e-10

    def test_w_oracle_random_angles(self):
        state = make_named_state("w", 3)
        rng = np.random.default_rng(41)
        for _ in range(10):
            beta, gamma = rng.uniform(0.05, np.pi / 2 - 0.05, size=2)
            row = surface_point(state, beta, gamma)
            d_ab, d_ac, d_bc, area = w_closed_form_row(beta, gamma)
            assert abs(row.d_ab - d_ab) < 1e-12
            assert abs(row.d_bc - d_bc) < 1e-12
            assert abs(row.area_info - area) < 1e-12

    def test_grid_shape_and_order(self):
        rows = sweep_surface("ghz", grid_n=7)
        assert all(getattr(rows, f.name).shape == (49,) for f in dataclasses.fields(rows))
        assert rows.beta[0] == 0.0 and rows.gamma[0] == 0.0
        assert rows.beta[6] == 0.0 and abs(rows.gamma[6] - np.pi / 2) < 1e-15
        assert abs(rows.beta[48] - np.pi / 2) < 1e-15

    def test_rows_match_scratch_recomputation(self):
        """Pipeline rows equal values recomputed without the cached table."""
        from qig import DetectorSetting, conditional_entropy, joint_distribution, shannon

        state = make_named_state("w", 3)
        rng = np.random.default_rng(42)
        for _ in range(5):
            beta, gamma = rng.uniform(0, np.pi / 2, size=2)
            row = surface_point(state, beta, gamma)
            dist = joint_distribution(
                state,
                [DetectorSetting("A", 0.0), DetectorSetting("B", beta), DetectorSetting("C", gamma)],
            )
            d_ab = 2 * shannon(dist, ("A", "B")) - shannon(dist, ("A",)) - shannon(dist, ("B",))
            a = conditional_entropy(dist, ("A",), ("B", "C"))
            b = conditional_entropy(dist, ("B",), ("A", "C"))
            c = conditional_entropy(dist, ("C",), ("A", "B"))
            assert abs(row.d_ab - d_ab) < 1e-12
            assert abs(row.area_info - (a * b + b * c + c * a)) < 1e-12

    @pytest.mark.parametrize("name", ["ghz", "w"])
    def test_beta_gamma_exchange_symmetry(self, name):
        state = make_named_state(name, 3)
        rng = np.random.default_rng(43)
        for _ in range(10):
            beta, gamma = rng.uniform(0, np.pi / 2, size=2)
            assert abs(
                surface_point(state, beta, gamma).area_info
                - surface_point(state, gamma, beta).area_info
            ) < 1e-10

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            sweep_surface("singlet_sym", grid_n=5)


class TestCriticalPoints:
    def test_ghz_maximum_at_quarter_turn(self):
        rows = sweep_surface("ghz", grid_n=31)
        points = critical_points(rows)
        hits = [p for p in points if abs(p.beta - PI4) < 0.06 and abs(p.gamma - PI4) < 0.06]
        assert hits and any(p.kind == "max" for p in hits)

    def test_w_saddle_at_quarter_turn(self):
        rows = sweep_surface("w", grid_n=31)
        points = critical_points(rows)
        hits = [p for p in points if abs(p.beta - PI4) < 0.06 and abs(p.gamma - PI4) < 0.06]
        assert hits and any(p.kind == "saddle" for p in hits)

    def test_constant_surface_flat_everywhere(self):
        grid = np.linspace(0, 1, 9)
        betas, gammas = np.meshgrid(grid, grid, indexing="ij")
        ones = np.ones(81)
        rows = SweepRow(beta=betas.ravel(), gamma=gammas.ravel(), d_ab=ones, d_ac=ones, d_bc=ones,
                        area_info=0.75 * ones, area_euclid=0.4 * ones,
                        euclid_defined=np.ones(81, bool), ratio=0.5 * ones)
        points = critical_points(rows)
        assert len(points) == 49  # every interior point of the 9x9 grid
        assert all(p.kind == "flat" for p in points)

    def test_refinement_stays_in_cell_and_keeps_kind(self):
        rows = sweep_surface("w", grid_n=31)
        cell = (np.pi / 2) / 30
        refined = critical_points(rows, surface_fn=area_surface_fn("w"), refine_levels=3)
        hits = [p for p in refined if abs(p.beta - PI4) <= cell and abs(p.gamma - PI4) <= cell]
        assert hits and any(p.kind == "saddle" for p in hits)

    def test_needs_minimum_grid(self):
        rows = sweep_surface("ghz", grid_n=4)
        with pytest.raises(ValueError):
            critical_points(rows)


class TestSearchViolation:
    def test_symmetric_delta_recovers_reference(self):
        state = make_named_state("singlet_sym", 2)
        result = search_violation(state, "symmetric-delta", budget=10_000)
        assert abs(result.angles["delta"] - 0.15234) < 1e-3
        assert result.margin > 0.47
        assert result.evaluations <= 10_000 + 5  # polytope may finish its last step

    def test_free_search_contains_symmetric_optimum(self):
        state = make_named_state("singlet_sym", 2)
        sym = search_violation(state, "symmetric-delta", budget=2_000)
        free = search_violation(state, "free", budget=4_000)
        assert free.margin >= sym.margin - 1e-6

    def test_product_state_never_violates(self):
        """Exhaustive 50^3 closed-form grid: independent records make every
        margin -2(H_A2 + H_B1) <= 0; the search agrees."""
        grid = np.linspace(0.0, np.pi, 50)
        h = np.array([binary_entropy(np.cos(t) ** 2) for t in grid])
        margins = -2.0 * (h[:, None] + h[None, :])  # over (a2, b1); b2 drops out
        assert margins.max() <= 0.0
        state = make_named_state("product_v", 2)
        result = search_violation(state, "free", budget=2_000)
        assert result.margin <= 1e-9

    def test_deterministic(self):
        state = make_named_state("singlet_sym", 2)
        a = search_violation(state, "symmetric-delta", budget=500)
        b = search_violation(state, "symmetric-delta", budget=500)
        assert a == b

    def test_initial_point_honored_and_bad_param_rejected(self):
        state = make_named_state("singlet_sym", 2)
        result = search_violation(state, "symmetric-delta", initial=[0.15], budget=300)
        assert abs(result.angles["delta"] - 0.15234) < 5e-3
        with pytest.raises(ValueError):
            search_violation(state, "simulated-annealing", budget=10)


class _Seeded(Exception):
    """Stops a search at its polish step, carrying the grid point it starts from."""


def grid_seed(monkeypatch, state, budget, ulps=None):
    """The coarse-grid point a free search polishes from, with every Born
    table entry moved by ``ulps`` (-1, 0 or +1 per entry) when given."""
    def joint_probs(*args):
        probs = qig.born.joint_probs(*args)
        if ulps is None:
            return probs
        signs = ulps.choice([-1.0, 0.0, 1.0], size=probs.shape)
        return np.where(signs == 0, probs, np.nextafter(probs, 2.0 * signs))

    def minimize(fun, x0, **options):
        raise _Seeded(tuple(x0.tolist()))

    monkeypatch.setattr(qig.scenarios, "joint_probs", joint_probs)
    monkeypatch.setattr(qig.scenarios, "minimize", minimize)
    with pytest.raises(_Seeded) as seeded:
        search_violation(state, "free", budget=budget)
    return seeded.value.args[0]


class TestSearchGridTies:
    """Grid points related by a symmetry have margins equal up to rounding
    (a polarizer turned by pi, the reflection of every angle, any b2 when
    a2 = a1); a 1-ulp change of the Born table must not move the seed."""

    @pytest.mark.parametrize("budget", [60, 300, 1000, 4000])
    @pytest.mark.parametrize("name", ["singlet_sym", "singlet_antisym", "product_v", "random"])
    def test_one_ulp_keeps_the_grid_seed(self, monkeypatch, name, budget):
        if name == "random":
            state = random_state(np.random.default_rng(budget), 2)
        else:
            state = make_named_state(name, 2)
        seed = grid_seed(monkeypatch, state, budget)
        for k in range(4):
            assert grid_seed(monkeypatch, state, budget, np.random.default_rng(k)) == seed

    def test_default_box_grid_leaves_out_pi(self, monkeypatch):
        """The default [0, pi] box grids each angle half-open; given bounds
        stay inclusive."""
        grids = []
        real_cross_distances = qig.scenarios._cross_distances

        def cross_distances(state, a1, a2, b1, b2):
            grids.append(np.stack([a2, b1, b2]))
            return real_cross_distances(state, a1, a2, b1, b2)

        monkeypatch.setattr(qig.scenarios, "_cross_distances", cross_distances)
        state = make_named_state("singlet_sym", 2)
        search_violation(state, "free", budget=300)
        assert grids[0].shape == (3, 125)
        assert grids[0].min() == 0.0 and grids[0].max() == 4 * np.pi / 5
        grids.clear()
        search_violation(state, "free", budget=300, bounds=[(0.0, np.pi)] * 3)
        assert grids[0].min() == 0.0 and grids[0].max() == np.pi


class TestQuadrilateralReport:
    def test_payload_shape(self):
        state = make_named_state("singlet_sym", 2)
        payload = quadrilateral_report(state, (0.0, 0.2), (0.1, 0.3)).as_dict()
        assert set(payload) == {
            "angles", "d_a1b1", "d_a1b2", "d_a2b1", "d_a2b2",
            "direct", "path_sum", "margin", "violated",
        }


class TestBatchEqualsBatchOfOne:
    @pytest.mark.parametrize("name", ["ghz", "w", "product_v"])
    def test_sweep_rows_equal_surface_points(self, name):
        state = make_named_state(name, 3)
        rows = sweep_surface(name, grid_n=13)
        for k in range(rows.beta.size):
            point = surface_point(state, rows.beta[k], rows.gamma[k])
            for f in dataclasses.fields(rows):
                assert getattr(point, f.name) == getattr(rows, f.name)[k], (k, f.name)

    @pytest.mark.parametrize("name", ["singlet_sym", "singlet_antisym"])
    def test_scan_rows_equal_scenario_points(self, name):
        state = make_named_state(name, 2)
        rows = scan_delta(0.01, 0.6, 41, state=state).rows
        for k in range(rows.delta.size):
            point = schumacher_scenario(rows.delta[k], state)
            for f in dataclasses.fields(rows):
                assert getattr(point, f.name) == getattr(rows, f.name)[k], (k, f.name)

    def test_rows_hold_python_scalars(self):
        """A batch holds arrays; its one-point case holds Python scalars."""
        rows = sweep_surface("w", grid_n=3)
        assert all(type(getattr(rows, f.name)) is np.ndarray for f in dataclasses.fields(rows))
        row = surface_point(make_named_state("w", 3), rows.beta[4], rows.gamma[4])
        assert all(type(v) is float for v in (row.beta, row.d_ab, row.area_info, row.ratio))
        assert type(row.euclid_defined) is bool
        assert type(schumacher_scenario(0.1).violated) is bool


SEARCH_FLOORS = {"symmetric-delta": 3, "free": 28}


class TestSearchBudgetCap:
    @pytest.mark.parametrize(
        "param, budget",
        [(p, b) for p, floor in SEARCH_FLOORS.items() for b in range(floor, 61)],
    )
    def test_evaluations_within_budget(self, param, budget):
        result = search_violation(make_named_state("singlet_sym", 2), param, budget=budget)
        assert result.evaluations <= budget

    @pytest.mark.parametrize("param", sorted(SEARCH_FLOORS))
    def test_initial_point_counts_against_budget(self, param):
        initial = [0.15] if param == "symmetric-delta" else [0.3, 0.15, 0.45]
        state = make_named_state("singlet_antisym", 2)
        for budget in range(SEARCH_FLOORS[param] + 1, 61):
            result = search_violation(state, param, initial=initial, budget=budget)
            assert result.evaluations <= budget

    @pytest.mark.parametrize("param", sorted(SEARCH_FLOORS))
    def test_budget_below_floor_rejected(self, param):
        state = make_named_state("singlet_sym", 2)
        floor = SEARCH_FLOORS[param]
        with pytest.raises(ValueError, match=f"minimum {floor}"):
            search_violation(state, param, budget=floor - 1)
        with pytest.raises(ValueError, match=f"minimum {floor + 1}"):
            search_violation(state, param, initial=[0.1, 0.2, 0.3], budget=floor)
