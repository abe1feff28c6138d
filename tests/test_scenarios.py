"""Tests for quadrilateral scans, area surfaces, critical points, and the
violation search."""

import math

import numpy as np
import pytest

from conftest import binary_entropy, pair_distance_oracle

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
        margins = np.array([row.margin for row in result.rows])
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
        assert len(rows) == 49
        assert rows[0].beta == 0.0 and rows[0].gamma == 0.0
        assert rows[6].beta == 0.0 and abs(rows[6].gamma - np.pi / 2) < 1e-15
        assert abs(rows[48].beta - np.pi / 2) < 1e-15

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
        rows = [
            SweepRow(beta=b, gamma=g, d_ab=1, d_ac=1, d_bc=1,
                     area_info=0.75, area_euclid=0.4, euclid_defined=True, ratio=0.5)
            for b in grid for g in grid
        ]
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
        for row in sweep_surface(name, grid_n=13):
            assert surface_point(state, row.beta, row.gamma) == row

    @pytest.mark.parametrize("name", ["singlet_sym", "singlet_antisym"])
    def test_scan_rows_equal_scenario_points(self, name):
        state = make_named_state(name, 2)
        for row in scan_delta(0.01, 0.6, 41, state=state).rows:
            assert schumacher_scenario(row.delta, state) == row

    def test_rows_hold_python_scalars(self):
        row = sweep_surface("w", grid_n=3)[4]
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
