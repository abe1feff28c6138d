"""Acceptance suite: one test per exit criterion, with stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here, not calibrated elsewhere.
"""

import itertools
import math
import time

import numpy as np

from conftest import binary_entropy, random_settings, random_state

from qig import (
    DetectorSetting,
    area,
    build_entropy_table,
    critical_points,
    distance,
    empirical_distribution,
    joint_distribution,
    make_named_state,
    octahedron_report,
    sample_runs,
    scan_delta,
    schumacher_scenario,
    sequential_distribution,
    surface_point,
    sweep_surface,
    total_variation,
)

PI4 = np.pi / 4
GRID_N = 91
CELL = (np.pi / 2) / (GRID_N - 1)


def _report(num: int, title: str, checks: list) -> None:
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[ACCEPTANCE] criterion {num:2d} {status}: {title}")
    for label, ok, detail in checks:
        print(f"    {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    assert not failed, f"criterion {num} failed: " + "; ".join(
        f"{label} ({detail})" for label, detail in failed
    )


def close(value, target, tol):
    return abs(value - target) <= tol, f"{value!r} vs {target} (tol {tol:g})"


def test_criterion_01_pair_violation_and_scan():
    t0 = time.perf_counter()
    row = schumacher_scenario(0.15234)
    path_sum = row.d_a1b1 + row.d_a2b1 + row.d_a2b2
    scan = scan_delta(0.01, 0.5, 4096)
    elapsed = time.perf_counter() - t0
    checks = [
        ("direct distance at delta=0.15234", *close(row.d_a1b2, 1.42252, 5e-4)),
        ("three-leg path sum", *close(path_sum, 0.948753, 5e-4)),
        ("scan argmax delta*", *close(scan.best.delta, 0.15234, 1e-3)),
        ("runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f}s"),
    ]
    _report(1, "pair-detector chain violation and delta scan", checks)


def test_criterion_02_ghz_point_values():
    row = surface_point(make_named_state("ghz", 3), PI4, PI4)
    checks = [
        ("d_ab", *close(row.d_ab, 2.0, 1e-10)),
        ("d_ac", *close(row.d_ac, 2.0, 1e-10)),
        ("d_bc", *close(row.d_bc, 2.0, 1e-10)),
        ("information area", *close(row.area_info, 3.0, 1e-10)),
        ("euclidean area", *close(row.area_euclid, math.sqrt(3.0), 1e-9)),
    ]
    _report(2, "maximally correlated triple at (pi/4, pi/4)", checks)


def _heron(a, b, c):
    """Heron's formula, written out so the checks below do not call qig."""
    s = (a + b + c) / 2
    return math.sqrt(s * (s - a) * (s - b) * (s - c))


def test_criterion_03_w_point_values():
    # Born rule at (0, pi/4, pi/4): p(A=1) = 1/3, p(B=1) = p(C=1) = 1/2, A is
    # independent of B and C, and B, C disagree with probability 1/6.  The
    # quoted 2 / 2 / 1.463 / 1.362 follow from the same pair entropies with
    # every single-observer entropy replaced by h(1/3): d_xy = 2 H(XY) - 2 h(1/3).
    state = make_named_state("w", 3)
    row = surface_point(state, PI4, PI4)
    d_ab = math.log2(3) + 1 / 3
    d_bc = 2 * binary_entropy(1 / 6)
    table = build_entropy_table(
        joint_distribution(
            state,
            [DetectorSetting("A", 0.0), DetectorSetting("B", PI4), DetectorSetting("C", PI4)],
        )
    )
    h_third = float(binary_entropy(1 / 3))
    q_ab = 2 * table.joint("A", "B") - 2 * h_third
    q_ac = 2 * table.joint("A", "C") - 2 * h_third
    q_bc = 2 * table.joint("B", "C") - 2 * h_third
    checks = [
        ("d_ab", *close(row.d_ab, d_ab, 1e-10)),
        ("d_ac", *close(row.d_ac, d_ab, 1e-10)),
        ("d_bc", *close(row.d_bc, d_bc, 1e-10)),
        ("information area", *close(row.area_info, 5 / 9 * math.log2(5) - 7 / 9, 1e-10)),
        ("euclidean area", *close(row.area_euclid, _heron(d_ab, d_ab, d_bc), 1e-10)),
        ("quoted d_ab = 2 H(AB) - 2 h(1/3)", *close(q_ab, 2.0, 5e-4)),
        ("quoted d_ac = 2 H(AC) - 2 h(1/3)", *close(q_ac, 2.0, 5e-4)),
        ("quoted d_bc = 2 H(BC) - 2 h(1/3)", *close(q_bc, 1.463, 5e-4)),
        ("quoted information area", *close(row.area_info, 0.512, 5e-4)),
        ("quoted euclidean area = Heron of quoted edges",
         *close(_heron(q_ab, q_ac, q_bc), 1.362, 5e-4)),
    ]
    _report(3, "single-excitation triple at (pi/4, pi/4)", checks)


def test_criterion_04_separable_point_values_and_flat_grid():
    row = surface_point(make_named_state("product_v", 3), PI4, PI4)
    rows = sweep_surface("product_v", GRID_N)
    worst = float(rows.area_euclid[rows.euclid_defined].max())
    all_defined = bool(rows.euclid_defined.all())
    checks = [
        ("d_ab", *close(row.d_ab, 1.0, 1e-10)),
        ("d_ac", *close(row.d_ac, 1.0, 1e-10)),
        ("d_bc", *close(row.d_bc, 2.0, 1e-10)),
        ("information area", *close(row.area_info, 1.0, 1e-10)),
        ("euclidean area at the point", row.area_euclid <= 1e-9, f"{row.area_euclid!r}"),
        ("heron defined across 91x91 grid", all_defined, "every row"),
        ("heron <= 1e-9 across 91x91 grid", worst <= 1e-9, f"max {worst!r}"),
    ]
    _report(4, "separable triple: point values and flat grid", checks)


def test_criterion_05_no_triangle_violations_on_grids():
    t0 = time.perf_counter()
    counts = {}
    for name in ("ghz", "w", "product_v"):
        rows = sweep_surface(name, GRID_N)
        counts[name] = int((~rows.euclid_defined).sum())
    elapsed = time.perf_counter() - t0
    checks = [
        (f"{name}: zero Heron violations on 91x91", n == 0, f"{n} violations")
        for name, n in counts.items()
    ]
    checks.append(("runtime < 60 s", elapsed < 60.0, f"{elapsed:.2f}s"))
    _report(5, "no triangle-inequality violations on the swept grids", checks)


def test_criterion_06_critical_point_classification():
    ghz_points = critical_points(sweep_surface("ghz", GRID_N))
    w_points = critical_points(sweep_surface("w", GRID_N))

    def near(points, kind):
        hits = [
            p for p in points
            if abs(p.beta - PI4) <= CELL + 1e-12 and abs(p.gamma - PI4) <= CELL + 1e-12
        ]
        return [p for p in hits if p.kind == kind]

    ghz_max = near(ghz_points, "max")
    w_saddle = near(w_points, "saddle")
    checks = [
        ("ghz surface max-like at (pi/4, pi/4)", bool(ghz_max),
         f"{[p.kind for p in ghz_max] or 'no max within one cell'}"),
        ("w surface saddle at (pi/4, pi/4)", bool(w_saddle),
         f"{[p.kind for p in w_saddle] or 'no saddle within one cell'}"),
    ]
    _report(6, "critical-point classification on the area surfaces", checks)


def test_criterion_07_sequential_equals_joint():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        state = random_state(rng, n)
        settings = random_settings(rng, n)
        order = rng.permutation(n).tolist()
        reference = joint_distribution(state, settings)
        seq = sequential_distribution(state, settings, order)
        worst = max(worst, float(np.max(np.abs(seq.probs - reference.probs))))
    checks = [("max |sequential - joint| over 100 triples", worst <= 1e-12, f"{worst!r}")]
    _report(7, "collapse-chain route matches the one-shot route", checks)


def test_criterion_08_bounds_and_symmetry_suites():
    checks = []
    # distance/area bounds on the three 91x91 grids
    for name in ("ghz", "w", "product_v"):
        rows = sweep_surface(name, GRID_N)
        d = np.stack([rows.d_ab, rows.d_ac, rows.d_bc])
        d_ok = bool(np.all((-1e-12 <= d) & (d <= 2.0 + 1e-12)))
        a_ok = bool(np.all((-1e-10 <= rows.area_info) & (rows.area_info <= 3.0 + 1e-10)))
        checks.append((f"{name}: every distance in [0, 2]", d_ok, "91x91 grid"))
        checks.append((f"{name}: every area in [0, 3]", a_ok, "91x91 grid"))
        # dual-form agreement, sampled across the same grid
        state = make_named_state(name, 3)
        sampled = zip(rows.beta[:: 97].tolist(), rows.gamma[:: 97].tolist())
        worst_gap = 0.0
        for beta, gamma in sampled:
            table = build_entropy_table(
                joint_distribution(
                    state,
                    [
                        DetectorSetting("A", 0.0),
                        DetectorSetting("B", beta),
                        DetectorSetting("C", gamma),
                    ],
                )
            )
            h3 = table.joint("A", "B", "C")
            hab, hbc, hac = (
                table.joint("A", "B"), table.joint("B", "C"), table.joint("A", "C")
            )
            poly = 3 * h3**2 - 2 * (hab + hbc + hac) * h3 + (
                hac * hbc + hab * hac + hab * hbc
            )
            worst_gap = max(worst_gap, abs(area(table, "A", "B", "C") - poly))
        checks.append(
            (f"{name}: area dual forms agree", worst_gap <= 1e-10, f"max gap {worst_gap!r}")
        )
    # permutation invariance on random measured tables
    rng = np.random.default_rng(88)
    perm_ok = True
    for _ in range(20):
        table = build_entropy_table(
            joint_distribution(random_state(rng, 3), random_settings(rng, 3))
        )
        base_a = area(table, "A", "B", "C")
        base_d = distance(table, "A", "B")
        for perm in itertools.permutations("ABC"):
            perm_ok &= abs(area(table, *perm) - base_a) <= 1e-12
        perm_ok &= distance(table, "B", "A") == base_d
    checks.append(("permutation invariance (area exact, distance symmetric)", perm_ok, "random tables"))
    # beta-gamma exchange symmetry of the swept surfaces
    for name in ("ghz", "w"):
        state = make_named_state(name, 3)
        rng2 = np.random.default_rng(99)
        sym_ok = all(
            abs(
                surface_point(state, b, g).area_info - surface_point(state, g, b).area_info
            ) <= 1e-10
            for b, g in rng2.uniform(0, np.pi / 2, size=(15, 2))
        )
        checks.append((f"{name}: area(beta,gamma) = area(gamma,beta)", sym_ok, "15 samples"))
    _report(8, "bounds, symmetry, and dual-form suites", checks)


def test_criterion_09_monte_carlo_convergence():
    t0 = time.perf_counter()
    state = make_named_state("ghz", 3)
    settings = [
        DetectorSetting("A", 0.0),
        DetectorSetting("B", PI4),
        DetectorSetting("C", PI4),
    ]
    exact = joint_distribution(state, settings)
    record = sample_runs(exact, 1_000_000, seed=20_240_601)
    emp = empirical_distribution(record)
    emp_table = build_entropy_table(emp)
    d_ab = distance(emp_table, "A", "B")
    tv = total_variation(emp, exact)
    elapsed = time.perf_counter() - t0
    checks = [
        ("empirical d_ab within 0.01 of 2", *close(d_ab, 2.0, 0.01)),
        ("total variation < 0.005", tv < 0.005, f"{tv!r}"),
        ("runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f}s"),
    ]
    _report(9, "seeded million-run stream reproduces the exact geometry", checks)


def test_criterion_10_octahedron_structure():
    state = make_named_state("ghz", 3)
    rng = np.random.default_rng(7)
    structural_ok = True
    for _ in range(5):
        angles = rng.uniform(0, np.pi / 2, size=(3, 2))
        report = octahedron_report(
            state,
            [
                (DetectorSetting(lbl, a0), DetectorSetting(lbl, a1))
                for lbl, (a0, a1) in zip("ABC", angles)
            ],
        )
        structural_ok &= len(report.edges) == 12 and len(report.faces) == 8

    beta, gamma = 0.7, 0.35
    degenerate = octahedron_report(
        state,
        [
            (DetectorSetting("A", 0.0), DetectorSetting("A", 0.0)),
            (DetectorSetting("B", beta), DetectorSetting("B", beta)),
            (DetectorSetting("C", gamma), DetectorSetting("C", gamma)),
        ],
    )
    single = build_entropy_table(
        joint_distribution(
            state,
            [
                DetectorSetting("A", 0.0),
                DetectorSetting("B", beta),
                DetectorSetting("C", gamma),
            ],
        )
    )
    expected_edges = {
        ("A", "B"): distance(single, "A", "B"),
        ("A", "C"): distance(single, "A", "C"),
        ("B", "C"): distance(single, "B", "C"),
    }
    expected_area = area(single, "A", "B", "C")
    edge_gap = max(
        abs(d - expected_edges[(u[0], v[0])]) for (u, v), d in degenerate.edges.items()
    )
    face_gap = max(abs(f.area_info - expected_area) for f in degenerate.faces)
    checks = [
        ("five random reports: 12 edges, 8 faces", structural_ok, "structure counts"),
        ("degenerate edges match single triangle", edge_gap <= 1e-12, f"max gap {edge_gap!r}"),
        ("degenerate faces match single triangle", face_gap <= 1e-12, f"max gap {face_gap!r}"),
    ]
    _report(10, "two-detector octahedron structure and degeneracy", checks)
