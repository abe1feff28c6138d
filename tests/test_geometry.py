"""Tests for information distances, areas, volumes, Euclidean comparisons,
embeddability checks, and the six-vertex two-detector report."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import binary_entropy, product_distribution, random_settings, random_state

from qig import (
    DetectorSetting,
    EntropyTable,
    OutcomeDistribution,
    area,
    build_entropy_table,
    cayley_menger_embeddable,
    distance,
    heron_area,
    joint_distribution,
    k_volume,
    make_named_state,
    octahedron_report,
    joint_probs,
    quad_path_check,
    simplex_report,
    subset_entropies,
    triangle,
    volume,
)


def table_for(state_name, polars, n=None):
    n = n if n is not None else len(polars)
    state = make_named_state(state_name, n)
    labels = [chr(ord("A") + k) for k in range(n)]
    settings = [DetectorSetting(lbl, th) for lbl, th in zip(labels, polars)]
    return build_entropy_table(joint_distribution(state, settings))


def uniform_table(n):
    labels = tuple(chr(ord("A") + k) for k in range(n))
    dist = OutcomeDistribution(labels, np.full(2**n, 2.0**-n))
    return build_entropy_table(dist)


class TestDistance:
    def test_ghz_quarter_turn(self):
        table = table_for("ghz", [0.0, np.pi / 4, np.pi / 4])
        for pair in itertools.combinations("ABC", 2):
            assert abs(distance(table, *pair) - 2.0) < 1e-10

    def test_product_quarter_turn(self):
        table = table_for("product_v", [0.0, np.pi / 4, np.pi / 4])
        assert abs(distance(table, "A", "B") - 1.0) < 1e-10
        assert abs(distance(table, "B", "C") - 2.0) < 1e-10

    def test_copies_have_zero_distance(self):
        """Perfectly correlated records are the same variable: distance 0."""
        table = table_for("ghz", [0.0, 0.0, 0.0])
        assert abs(distance(table, "A", "B")) < 1e-12

    def test_symmetry_and_bounds_random(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dist = joint_distribution(random_state(rng, 2), random_settings(rng, 2))
            table = build_entropy_table(dist)
            d_ab = distance(table, "A", "B")
            d_ba = distance(table, "B", "A")
            assert d_ab == d_ba
            assert -1e-12 <= d_ab <= 2.0 + 1e-12

    def test_uncorrelated_reduction(self):
        """Independent observers: distance collapses to H_X + H_Y."""
        rng = np.random.default_rng(32)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            dist, _ = product_distribution(rng, n)
            table = build_entropy_table(dist)
            for x, y in itertools.combinations(dist.observers, 2):
                expected = table.joint(x) + table.joint(y)
                assert abs(distance(table, x, y) - expected) < 1e-12

    def test_same_label_rejected(self):
        table = uniform_table(2)
        with pytest.raises(ValueError):
            distance(table, "A", "A")


class TestArea:
    def test_ghz_quarter_turn_is_three(self):
        table = table_for("ghz", [0.0, np.pi / 4, np.pi / 4])
        assert abs(area(table, "A", "B", "C") - 3.0) < 1e-10

    def test_w_quarter_turn(self):
        table = table_for("w", [0.0, np.pi / 4, np.pi / 4])
        assert abs(area(table, "A", "B", "C") - 0.512) < 5e-4

    def test_independent_fair_bits_hit_bound(self):
        assert abs(area(uniform_table(3), "A", "B", "C") - 3.0) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            table = build_entropy_table(
                joint_distribution(random_state(rng, 3), random_settings(rng, 3))
            )
            base = area(table, "A", "B", "C")
            for perm in itertools.permutations("ABC"):
                assert abs(area(table, *perm) - base) < 1e-12

    def test_matches_joint_entropy_polynomial(self):
        """Independent expansion purely in joint entropies, as an oracle."""
        rng = np.random.default_rng(34)
        for _ in range(20):
            table = build_entropy_table(
                joint_distribution(random_state(rng, 3), random_settings(rng, 3))
            )
            h3 = table.joint("A", "B", "C")
            hab, hbc, hac = table.joint("A", "B"), table.joint("B", "C"), table.joint("A", "C")
            poly = 3 * h3**2 - 2 * (hab + hbc + hac) * h3 + (hac * hbc + hab * hac + hab * hbc)
            assert abs(area(table, "A", "B", "C") - poly) < 1e-10

    def test_bounds_random(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            table = build_entropy_table(
                joint_distribution(random_state(rng, 3), random_settings(rng, 3))
            )
            a = area(table, "A", "B", "C")
            assert -1e-10 <= a <= 3.0 + 1e-10


class TestVolume:
    def test_independent_fair_bits(self):
        assert abs(volume(uniform_table(4), "A", "B", "C", "D") - 4.0) < 1e-12

    def test_fully_correlated_four_qubits(self):
        """All detectors vertical on the 4-party correlated state: every
        conditioned entropy vanishes, so the volume is 0."""
        table = table_for("ghz", [0.0] * 4)
        assert abs(volume(table, "A", "B", "C", "D")) < 1e-12

    def test_deterministic_vertex_leaves_triple_product(self):
        """One deterministic observer: volume = product of the other three
        conditioned entropies (here: independent marginals, closed form)."""
        polars = [0.0, 0.3, 0.7, 1.1]
        table = table_for("product_v", polars)
        expected = math.prod(binary_entropy(np.cos(th) ** 2) for th in polars[1:])
        assert abs(volume(table, "A", "B", "C", "D") - expected) < 1e-12

    def test_permutation_invariance_vs_printed_asymmetric_variant(self):
        """The four-term expansion with a repeated/missing triple is not a
        symmetric function; the implemented e3 form is.  Keep the deviation
        visible so the choice of the symmetric form stays documented."""
        rng = np.random.default_rng(36)
        table = build_entropy_table(
            joint_distribution(random_state(rng, 4), random_settings(rng, 4))
        )
        labels = ("A", "B", "C", "D")
        cond = {
            v: table.conditional(v, [u for u in labels if u != v]) for v in labels
        }
        a, b, c, d = (cond[v] for v in labels)
        printed_variant = a * b * c + b * c * d + c * d * b + d * a * b
        e3 = a * b * c + a * b * d + a * c * d + b * c * d
        implemented = volume(table, *labels)
        assert abs(implemented - e3) < 1e-12
        deviation = abs(printed_variant - e3)  # = |acd - bcd| for generic tables
        assert abs(deviation - abs(a * c * d - b * c * d)) < 1e-12
        for perm in itertools.permutations(labels):
            assert abs(volume(table, *perm) - implemented) < 1e-12


class TestKVolume:
    def test_pair_reduces_to_distance(self):
        rng = np.random.default_rng(37)
        table = build_entropy_table(
            joint_distribution(random_state(rng, 2), random_settings(rng, 2))
        )
        assert abs(k_volume(table, ("A", "B")) - distance(table, "A", "B")) < 1e-12

    def test_triple_reduces_to_area(self):
        table = table_for("ghz", [0.0, np.pi / 4, np.pi / 4])
        assert abs(k_volume(table, ("A", "B", "C")) - 3.0) < 1e-10

    def test_independent_fair_bits_give_m(self):
        for m in (2, 3, 4, 5):
            table = uniform_table(m)
            labels = tuple(chr(ord("A") + k) for k in range(m))
            assert abs(k_volume(table, labels) - m) < 1e-12


class TestHeron:
    def test_equilateral(self):
        result = heron_area(2.0, 2.0, 2.0)
        assert not result.violated
        assert abs(result.area - math.sqrt(3.0)) < 1e-12

    def test_degenerate_collinear(self):
        result = heron_area(1.0, 1.0, 2.0)
        assert not result.violated
        assert result.area == 0.0

    def test_violation(self):
        result = heron_area(1.0, 1.0, 3.0)
        assert result.violated
        assert result.area is None
        assert abs(result.deficit - (-1.0)) < 1e-12

    def test_float_noise_on_degenerate_edge_is_not_violation(self):
        result = heron_area(1.0, 1.0, 2.0 + 1e-14)
        assert not result.violated
        assert result.area == 0.0

    def test_negative_side_rejected(self):
        with pytest.raises(ValueError):
            heron_area(-0.5, 1.0, 1.0)


class TestQuadPathCheck:
    def test_reference_violation_numbers(self):
        check = quad_path_check(1.42252, 0.316245, 0.316245, 0.316263)
        assert check.violated
        assert abs(check.margin - (1.42252 - 0.948753)) < 1e-9

    def test_unit_square_satisfied(self):
        check = quad_path_check(1.0, 1.0, 1.0, 1.0)
        assert not check.violated
        assert check.margin == -2.0

    def test_tolerance_band(self):
        assert not quad_path_check(1.0 + 5e-13, 0.5, 0.25, 0.25).violated
        assert quad_path_check(1.0 + 1e-10, 0.5, 0.25, 0.25).violated


class TestCayleyMenger:
    def _matrix(self, d_ab, d_ac, d_bc):
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = d_ab
        m[0, 2] = m[2, 0] = d_ac
        m[1, 2] = m[2, 1] = d_bc
        return m

    def test_equilateral_embeds_in_plane(self):
        report = cayley_menger_embeddable(self._matrix(2, 2, 2), target_dim=2)
        assert report.embeddable

    def test_equilateral_not_flat(self):
        report = cayley_menger_embeddable(self._matrix(2, 2, 2), target_dim=1)
        assert not report.embeddable
        assert report.failures()

    def test_collinear_embeds_on_a_line(self):
        report = cayley_menger_embeddable(self._matrix(1, 2, 1), target_dim=1)
        assert report.embeddable

    def test_triangle_violation_embeds_nowhere(self):
        for dim in (1, 2, 3, 5):
            report = cayley_menger_embeddable(self._matrix(1, 3, 1), target_dim=dim)
            assert not report.embeddable

    def test_unit_square(self):
        """Four points with unit sides and sqrt(2) diagonals: a plane figure."""
        m = np.zeros((4, 4))
        coords = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        for i, j in itertools.combinations(range(4), 2):
            m[i, j] = m[j, i] = np.linalg.norm(coords[i] - coords[j])
        assert cayley_menger_embeddable(m, target_dim=2).embeddable
        assert not cayley_menger_embeddable(m, target_dim=1).embeddable

    def test_regular_tetrahedron(self):
        m = np.full((4, 4), 2.0)
        np.fill_diagonal(m, 0.0)
        assert cayley_menger_embeddable(m, target_dim=3).embeddable
        assert not cayley_menger_embeddable(m, target_dim=2).embeddable

    def test_incomplete_rejected(self):
        m = self._matrix(1, 1, 1)
        m[1, 2] = m[2, 1] = np.nan
        with pytest.raises(ValueError, match="incomplete"):
            cayley_menger_embeddable(m, target_dim=2)

    def test_asymmetric_rejected(self):
        m = self._matrix(1, 1, 1)
        m[0, 1] = 2.0
        with pytest.raises(ValueError):
            cayley_menger_embeddable(m, target_dim=2)


class TestSimplexReport:
    def test_triangle_counts_and_values(self):
        table = table_for("ghz", [0.0, np.pi / 4, np.pi / 4])
        report = simplex_report(table)
        assert len(report.edges) == 3
        assert len(report.faces) == 1
        assert report.volume is None
        face = report.faces[0]
        assert abs(face.area_info - 3.0) < 1e-10
        assert abs(face.heron.area - math.sqrt(3.0)) < 1e-9
        assert abs(face.ratio - math.sqrt(3.0) / 3.0) < 1e-9

    def test_pair_report(self):
        table = table_for("singlet_sym", [0.0, 0.3], n=2)
        report = simplex_report(table)
        assert len(report.edges) == 1
        assert not report.faces
        assert report.volume is None
        assert abs(report.content - report.edges[("A", "B")]) < 1e-12

    def test_four_observers_have_volume_and_faces(self):
        table = table_for("ghz", [0.0, 0.2, 0.4, 0.6])
        report = simplex_report(table)
        assert len(report.edges) == 6
        assert len(report.faces) == 4
        assert report.volume is not None

    def test_serialization_shape(self):
        table = table_for("w", [0.0, 0.5, 1.0])
        payload = simplex_report(table).as_dict()
        assert set(payload) == {"vertices", "edges", "faces", "volume", "content"}
        assert set(payload["faces"][0]) == {
            "vertices", "area_info", "area_euclid", "euclid_defined",
            "triangle_violated", "ratio", "cm_embeddable_2d",
        }

    def test_batched_table_rejected(self):
        state = make_named_state("w", 3)
        probs = joint_probs(state, [[0.0, 0.5, 1.0], [0.2, 0.4, 0.6]])
        table = EntropyTable(("A", "B", "C"), subset_entropies(probs))
        with pytest.raises(ValueError, match="batch of 2"):
            simplex_report(table)


class TestSimplexFacesProperty:
    """Every face and edge of a report is the one triangle() and distance()
    give on that face alone, bit for bit, in any observer order."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7), shuffled=st.booleans())
    @settings(max_examples=40)
    def test_faces_and_edges_equal_single_calls(self, seed, n, shuffled):
        rng = np.random.default_rng(seed)
        state = random_state(rng, n)
        detectors = random_settings(rng, n)
        if shuffled:  # observers out of label order
            labels = rng.permutation([d.observer for d in detectors])
            detectors = [DetectorSetting(lbl, d.polar, d.azimuth) for lbl, d in zip(labels, detectors)]
        table = build_entropy_table(joint_distribution(state, detectors))
        report = simplex_report(table)
        observers = table.observers
        assert list(report.edges) == list(itertools.combinations(observers, 2))
        for (x, y), d in report.edges.items():
            assert d == distance(table, x, y)
        assert [f.vertices for f in report.faces] == list(itertools.combinations(observers, 3))
        for face in report.faces:
            d_xy, d_xz, d_yz, a_info, a_euclid, defined, deficit, ratio = triangle(
                table, *face.vertices
            )
            assert face.area_info == a_info
            assert face.heron.defined == defined
            assert face.heron.area == (float(a_euclid) if defined else None)
            assert face.heron.deficit == (0.0 if defined else float(deficit))
            assert face.ratio == ratio
            lengths = [[0.0, d_xy, d_xz], [d_xy, 0.0, d_yz], [d_xz, d_yz, 0.0]]
            assert face.cm_embeddable_2d == cayley_menger_embeddable(lengths, 2).embeddable

    @pytest.mark.parametrize("sides, ok", [((1.0, 1.0, 2.0), True), ((1.0, 1.0, 3.0), False)])
    def test_heron_and_cayley_menger_agree(self, sides, ok):
        """For three points the Cayley-Menger determinant is -16 Heron^2, so
        the two plane-embeddability verdicts agree, degenerate case included,
        and a report's face carries that verdict."""
        a, b, c = sides
        heron = heron_area(a, b, c)
        lengths = [[0.0, a, b], [a, 0.0, c], [b, c, 0.0]]
        assert heron.defined is ok
        assert cayley_menger_embeddable(lengths, 2).embeddable is ok
        if ok:
            assert heron.area == 0.0
        # single-observer entropies 0, so D(X, Y) = 2 H(XY): sides a, b, c on
        # AB, AC, BC (no distribution has these entropies; the face check
        # reads lengths only)
        table = EntropyTable(("A", "B", "C"), [0.0, 0.0, 0.0, a / 2, 0.0, b / 2, c / 2, 2.0])
        (face,) = simplex_report(table).faces
        assert face.heron.defined is ok
        assert face.cm_embeddable_2d is ok


def two_settings(label, th0, th1):
    return (DetectorSetting(label, th0), DetectorSetting(label, th1))


class TestOctahedronReport:
    def test_structure_counts(self):
        state = make_named_state("ghz", 3)
        report = octahedron_report(
            state,
            [two_settings("A", 0.0, np.pi / 4),
             two_settings("B", 0.1, 0.5),
             two_settings("C", 0.2, 0.9)],
        )
        assert len(report.vertices) == 6
        assert len(report.edges) == 12
        assert len(report.faces) == 8
        for d in report.edges.values():
            assert -1e-12 <= d <= 2.0 + 1e-12
        for face in report.faces:
            assert -1e-10 <= face.area_info <= 3.0 + 1e-10

    def test_duplicated_settings_degenerate_to_single_triangle(self):
        state = make_named_state("ghz", 3)
        beta, gamma = 0.6, 1.1
        report = octahedron_report(
            state,
            [two_settings("A", 0.0, 0.0),
             two_settings("B", beta, beta),
             two_settings("C", gamma, gamma)],
        )
        single = table_for("ghz", [0.0, beta, gamma])
        expected_area = area(single, "A", "B", "C")
        expected_edges = {
            ("A", "B"): distance(single, "A", "B"),
            ("A", "C"): distance(single, "A", "C"),
            ("B", "C"): distance(single, "B", "C"),
        }
        for face in report.faces:
            assert abs(face.area_info - expected_area) < 1e-12
        for (u, v), d in report.edges.items():
            assert abs(d - expected_edges[(u[0], v[0])]) < 1e-12

    def test_separable_state_flat_faces(self):
        """With the first observer's settings at 0 and pi/2 its record stays
        deterministic, so every face of |vvv> collapses to a line."""
        state = make_named_state("product_v", 3)
        report = octahedron_report(
            state,
            [two_settings("A", 0.0, np.pi / 2),
             two_settings("B", 0.35, 0.8),
             two_settings("C", 0.15, 1.2)],
        )
        for face in report.faces:
            assert face.heron.defined
            assert face.heron.area <= 1e-9

    def test_edges_do_not_depend_on_third_observer(self):
        """The pairwise marginal ignores the absent observer's setting."""
        state = make_named_state("w", 3)
        pairs = [two_settings("A", 0.0, 0.7),
                 two_settings("B", 0.2, 1.0),
                 two_settings("C", 0.4, 1.3)]
        report = octahedron_report(state, pairs)
        for i, j in itertools.product((0, 1), repeat=2):
            for k in (0, 1):
                settings = [pairs[0][i], pairs[1][j], pairs[2][k]]
                table = build_entropy_table(joint_distribution(state, settings))
                expected = distance(table, "A", "B")
                assert abs(report.edges[(f"A{i}", f"B{j}")] - expected) < 1e-12

    def test_path_checks_present_and_consistent(self):
        state = make_named_state("ghz", 3)
        report = octahedron_report(
            state,
            [two_settings("A", 0.0, 0.3),
             two_settings("B", 0.1, 0.6),
             two_settings("C", 0.2, 0.8)],
        )
        assert report.path_checks
        for labels, check in zip(report.path_labels, report.path_checks):
            assert len(set(labels)) == 4
            assert check.violated == (check.margin > 1e-12)

    def test_full_embeddability_needs_diagonals(self):
        state = make_named_state("ghz", 3)
        pairs = [two_settings("A", 0.0, 0.3),
                 two_settings("B", 0.1, 0.6),
                 two_settings("C", 0.2, 0.8)]
        plain = octahedron_report(state, pairs)
        assert plain.full_embeddability is None
        completed = octahedron_report(
            state, pairs, diagonals={"A": 1.0, "B": 1.0, "C": 1.0}
        )
        assert completed.full_embeddability is not None
        with pytest.raises(ValueError, match="diagonals"):
            octahedron_report(state, pairs, diagonals={"A": 1.0})

    def test_wrong_arity_rejected(self):
        state2 = make_named_state("ghz", 2)
        with pytest.raises(ValueError):
            octahedron_report(state2, [two_settings("A", 0, 1), two_settings("B", 0, 1)])
        state3 = make_named_state("ghz", 3)
        with pytest.raises(ValueError):
            octahedron_report(
                state3,
                [two_settings("A", 0, 1), two_settings("B", 0, 1),
                 (DetectorSetting("C", 0.0),)],
            )
