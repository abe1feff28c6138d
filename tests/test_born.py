"""Tests for exact joint/marginal/conditional distributions and collapse."""

import itertools

import numpy as np
import pytest

from conftest import random_settings, random_state

from qig import (
    DetectorSetting,
    OutcomeDistribution,
    conditional,
    joint_distribution,
    joint_probs,
    make_named_state,
    marginalize,
    post_measurement_state,
    sequential_distribution,
)


def settings_abc(beta, gamma, alpha=0.0):
    return [
        DetectorSetting("A", alpha),
        DetectorSetting("B", beta),
        DetectorSetting("C", gamma),
    ]


def ghz_joint_closed_form(beta, gamma):
    """Eight-outcome table for the 3-party maximally correlated state, first
    detector vertical: every entry is half a product of cos^2/sin^2 factors."""
    cb, sb = np.cos(beta) ** 2, np.sin(beta) ** 2
    cg, sg = np.cos(gamma) ** 2, np.sin(gamma) ** 2
    return {
        (1, 1, 1): cb * cg / 2, (0, 1, 1): sb * sg / 2,
        (1, 1, 0): cb * sg / 2, (0, 1, 0): sb * cg / 2,
        (1, 0, 1): sb * cg / 2, (0, 0, 1): cb * sg / 2,
        (1, 0, 0): sb * sg / 2, (0, 0, 0): cb * cg / 2,
    }


def ghz_pairwise_closed_form(beta, gamma):
    """The twelve pairwise joints implied by the table above."""
    cb, sb = np.cos(beta) ** 2, np.sin(beta) ** 2
    cg, sg = np.cos(gamma) ** 2, np.sin(gamma) ** 2
    same = (cb * cg + sb * sg) / 2
    diff = (cb * sg + sb * cg) / 2
    return {
        ("A", "B"): {(1, 1): cb / 2, (1, 0): sb / 2, (0, 1): sb / 2, (0, 0): cb / 2},
        ("A", "C"): {(1, 1): cg / 2, (1, 0): sg / 2, (0, 1): sg / 2, (0, 0): cg / 2},
        ("B", "C"): {(1, 1): same, (1, 0): diff, (0, 1): diff, (0, 0): same},
    }


class TestJointDistribution:
    def test_ghz_full_table(self):
        rng = np.random.default_rng(3)
        state = make_named_state("ghz", 3)
        for _ in range(20):
            beta, gamma = rng.uniform(0, np.pi / 2, size=2)
            dist = joint_distribution(state, settings_abc(beta, gamma))
            expected = ghz_joint_closed_form(beta, gamma)
            for outcome, p in expected.items():
                assert abs(dist.prob(outcome) - p) < 1e-12

    def test_w_011_entry(self):
        """Single-excitation state: both far detectors triggering with the
        first one dark has probability sin^2(beta+gamma)/3."""
        state = make_named_state("w", 3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            beta, gamma = rng.uniform(0, np.pi / 2, size=2)
            dist = joint_distribution(state, settings_abc(beta, gamma))
            assert abs(dist.prob((0, 1, 1)) - np.sin(beta + gamma) ** 2 / 3) < 1e-12

    def test_w_pairwise_closed_forms(self):
        """Pairwise marginals of the single-excitation state: the lit-lit
        entry carries the angle product, dark rows are flat thirds, and the
        far pair mixes in the sin^2(beta+gamma) interference term."""
        state = make_named_state("w", 3)
        rng = np.random.default_rng(17)
        for _ in range(15):
            beta, gamma = rng.uniform(0, np.pi / 2, size=2)
            sb, cb = np.sin(beta) ** 2, np.cos(beta) ** 2
            sg, cg = np.sin(gamma) ** 2, np.cos(gamma) ** 2
            spg, cpg = np.sin(beta + gamma) ** 2, np.cos(beta + gamma) ** 2
            dist = joint_distribution(state, settings_abc(beta, gamma))
            ab = marginalize(dist, ("A", "B"))
            assert abs(ab.prob((1, 1)) - sb / 3) < 1e-12
            assert abs(ab.prob((1, 0)) - cb / 3) < 1e-12
            assert abs(ab.prob((0, 1)) - 1 / 3) < 1e-12
            assert abs(ab.prob((0, 0)) - 1 / 3) < 1e-12
            bc = marginalize(dist, ("B", "C"))
            assert abs(bc.prob((1, 1)) - (sb * sg + spg) / 3) < 1e-12
            assert abs(bc.prob((1, 0)) - (sb * cg + cpg) / 3) < 1e-12
            assert abs(bc.prob((0, 1)) - (cb * sg + cpg) / 3) < 1e-12
            assert abs(bc.prob((0, 0)) - (cb * cg + spg) / 3) < 1e-12

    def test_separable_full_table(self):
        """|vvv> with the first detector vertical: only first-bit-lit
        outcomes survive, with plain product weights."""
        state = make_named_state("product_v", 3)
        rng = np.random.default_rng(18)
        for _ in range(15):
            beta, gamma = rng.uniform(0, np.pi / 2, size=2)
            sb, cb = np.sin(beta) ** 2, np.cos(beta) ** 2
            sg, cg = np.sin(gamma) ** 2, np.cos(gamma) ** 2
            dist = joint_distribution(state, settings_abc(beta, gamma))
            assert abs(dist.prob((1, 1, 1)) - cb * cg) < 1e-12
            assert abs(dist.prob((1, 1, 0)) - cb * sg) < 1e-12
            assert abs(dist.prob((1, 0, 1)) - sb * cg) < 1e-12
            assert abs(dist.prob((1, 0, 0)) - sb * sg) < 1e-12

    def test_product_state_first_detector_always_fires(self):
        state = make_named_state("product_v", 3)
        dist = joint_distribution(state, settings_abc(0.6, 1.1))
        for outcome in dist.outcomes():
            if outcome[0] == 0:
                assert dist.prob(outcome) == 0.0

    def test_setting_count_mismatch(self):
        state = make_named_state("ghz", 3)
        with pytest.raises(ValueError):
            joint_distribution(state, settings_abc(0.1, 0.2)[:2])

    def test_sums_to_one_random(self):
        """Normalization over 100 random states/settings up to 6 qubits."""
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            dist = joint_distribution(random_state(rng, n), random_settings(rng, n))
            assert abs(float(dist.probs.sum()) - 1.0) < 1e-10

    def test_matches_bruteforce_projector_route(self):
        """Independent oracle: assemble the full tensor-product projector for
        every outcome with explicit Kronecker products and take the squared
        norm of the projected state."""
        from qig import detector_projectors

        rng = np.random.default_rng(55)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            state = random_state(rng, n)
            settings = random_settings(rng, n)
            dist = joint_distribution(state, settings)
            pairs = [detector_projectors(s) for s in settings]
            for outcome in itertools.product((0, 1), repeat=n):
                op = np.eye(1)
                for k, bit in enumerate(outcome):
                    op = np.kron(op, pairs[k][bit].matrix)
                projected = op @ state.amplitudes
                expected = float(np.sum(np.abs(projected) ** 2))
                assert abs(dist.prob(outcome) - expected) < 1e-12

    def test_ghz_pairwise_grid(self):
        """Pairwise joints match the closed forms on a 19x19 angle grid."""
        state = make_named_state("ghz", 3)
        angles = np.linspace(0, np.pi / 2, 19)
        for beta in angles:
            for gamma in angles:
                dist = joint_distribution(state, settings_abc(beta, gamma))
                for (x, y), table in ghz_pairwise_closed_form(beta, gamma).items():
                    marg = marginalize(dist, (x, y))
                    for outcome, p in table.items():
                        assert abs(marg.prob(outcome) - p) < 1e-12


class TestMarginalize:
    def test_ghz_single_observer(self):
        state = make_named_state("ghz", 3)
        dist = joint_distribution(state, settings_abc(0.37, 1.02))
        marg = marginalize(dist, ("A",))
        assert abs(marg.prob((0,)) - 0.5) < 1e-12
        assert abs(marg.prob((1,)) - 0.5) < 1e-12

    def test_w_single_observer(self):
        """Single observers of the single-excitation state: the first (angle 0)
        is lit with probability 1/3; the others with (1 + sin^2 angle)/3."""
        state = make_named_state("w", 3)
        dist = joint_distribution(state, settings_abc(0.81, 0.44))
        marg = marginalize(dist, ("A",))
        assert abs(marg.prob((1,)) - 1 / 3) < 1e-12
        assert abs(marg.prob((0,)) - 2 / 3) < 1e-12
        rng = np.random.default_rng(19)
        for _ in range(10):
            beta, gamma = rng.uniform(0, np.pi / 2, size=2)
            dist = joint_distribution(state, settings_abc(beta, gamma))
            for label, angle in (("B", beta), ("C", gamma)):
                marg = marginalize(dist, (label,))
                lit = (1 + np.sin(angle) ** 2) / 3
                assert abs(marg.prob((1,)) - lit) < 1e-12
                assert abs(marg.prob((0,)) - (1 - lit)) < 1e-12

    def test_identity(self):
        rng = np.random.default_rng(6)
        dist = joint_distribution(random_state(rng, 3), random_settings(rng, 3))
        again = marginalize(dist, dist.observers)
        assert np.array_equal(again.probs, dist.probs)

    def test_commutes_with_nesting(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            dist = joint_distribution(random_state(rng, n), random_settings(rng, n))
            labels = dist.observers
            big = rng.choice(len(labels), size=min(3, n), replace=False)
            big_labels = tuple(labels[i] for i in sorted(big))
            small_labels = big_labels[:1]
            via = marginalize(marginalize(dist, big_labels), small_labels)
            direct = marginalize(dist, small_labels)
            assert np.array_equal(via.probs, direct.probs)

    def test_empty_subset_rejected(self):
        rng = np.random.default_rng(8)
        dist = joint_distribution(random_state(rng, 2), random_settings(rng, 2))
        with pytest.raises(ValueError):
            marginalize(dist, ())


class TestConditional:
    def test_entangled_pair_alignment(self):
        """p(A dark | B dark) = cos^2 of the polarizer angle difference."""
        state = make_named_state("singlet_sym", 2)
        rng = np.random.default_rng(9)
        for _ in range(20):
            a1, b1 = rng.uniform(0, np.pi / 2, size=2)
            dist = joint_distribution(
                state, [DetectorSetting("A", a1), DetectorSetting("B", b1)]
            )
            table = conditional(dist, ("A",), ("B",))
            assert abs(table.prob((0,), (0,)) - np.cos(b1 - a1) ** 2) < 1e-12

    def test_undefined_entries_for_impossible_condition(self):
        state = make_named_state("product_v", 3)
        dist = joint_distribution(state, settings_abc(0.93, 0.21))
        table = conditional(dist, ("B",), ("A",))
        assert table.prob((0,), (0,)) is None  # A never dark
        assert abs(table.prob((0,), (1,)) - np.sin(0.93) ** 2) < 1e-12

    def test_defined_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            dist = joint_distribution(random_state(rng, n), random_settings(rng, n))
            labels = dist.observers
            table = conditional(dist, labels[:1], labels[1:])
            for g_bits in itertools.product((0, 1), repeat=n - 1):
                values = [table.prob((t,), g_bits) for t in (0, 1)]
                if values[0] is None:
                    assert values[1] is None
                else:
                    assert abs(sum(values) - 1.0) < 1e-10

    def test_overlapping_sets_rejected(self):
        rng = np.random.default_rng(20)
        dist = joint_distribution(random_state(rng, 2), random_settings(rng, 2))
        with pytest.raises(ValueError):
            conditional(dist, ("A",), ("A", "B"))


class TestPostMeasurement:
    def test_collapse_to_all_vertical(self):
        """Detector at 0 triggering on the correlated triple leaves |vvv>."""
        state = make_named_state("ghz", 3)
        collapsed = post_measurement_state(state, 0, DetectorSetting("A", 0.0), 1)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        # global phase free
        assert abs(abs(np.vdot(expected, collapsed.amplitudes)) - 1.0) < 1e-12

    def test_zero_probability_outcome_rejected(self):
        state = make_named_state("product_v", 3)
        with pytest.raises(ValueError, match="zero probability"):
            post_measurement_state(state, 0, DetectorSetting("A", 0.0), 0)

    def test_projective_idempotence(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            state = random_state(rng, n)
            slot = int(rng.integers(0, n))
            setting = DetectorSetting("X", rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            outcome = int(rng.integers(0, 2))
            try:
                once = post_measurement_state(state, slot, setting, outcome)
            except ValueError:
                continue
            twice = post_measurement_state(once, slot, setting, outcome)
            assert np.allclose(once.amplitudes, twice.amplitudes, atol=1e-12)


class TestSequential:
    def test_matches_joint_all_orders(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            state = random_state(rng, n)
            settings = random_settings(rng, n)
            reference = joint_distribution(state, settings)
            for order in itertools.permutations(range(n)):
                seq = sequential_distribution(state, settings, order)
                assert np.max(np.abs(seq.probs - reference.probs)) < 1e-12

    def test_ghz_reverse_order_closed_form(self):
        state = make_named_state("ghz", 3)
        beta, gamma = 0.52, 1.13
        seq = sequential_distribution(state, settings_abc(beta, gamma), (2, 1, 0))
        for outcome, p in ghz_joint_closed_form(beta, gamma).items():
            assert abs(seq.prob(outcome) - p) < 1e-12

    def test_entangled_pair_joint_is_half_conditional(self):
        """Fair marginals make each joint entry half its conditional."""
        state = make_named_state("singlet_sym", 2)
        a1, b1 = 0.31, 0.87
        settings = [DetectorSetting("A", a1), DetectorSetting("B", b1)]
        cond = conditional(joint_distribution(state, settings), ("A",), ("B",))
        for order in ((0, 1), (1, 0)):
            seq = sequential_distribution(state, settings, order)
            for a, b in itertools.product((0, 1), repeat=2):
                assert abs(seq.prob((a, b)) - 0.5 * cond.prob((a,), (b,))) < 1e-12

    def test_bad_order_rejected(self):
        state = make_named_state("ghz", 2)
        settings = [DetectorSetting("A", 0.0), DetectorSetting("B", 0.0)]
        with pytest.raises(ValueError):
            sequential_distribution(state, settings, (0, 0))


class TestOutcomeDistribution:
    def test_duplicate_observers_rejected(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(("A", "A"), np.full(4, 0.25))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(("A",), np.array([0.6, 0.6]))

    def test_json_dict_keys(self):
        dist = OutcomeDistribution(("A", "B"), np.array([0.5, 0.25, 0.25, 0.0]))
        assert dist.as_dict() == {"00": 0.5, "01": 0.25, "10": 0.25, "11": 0.0}


class TestJointProbs:
    def test_batch_rows_equal_single_tables(self):
        """Each row of a batch is bit-identical to the batch-of-one table."""
        rng = np.random.default_rng(57)
        for n in (1, 2, 3, 5):
            state = random_state(rng, n)
            polars = rng.uniform(0.0, np.pi, size=(7, n))
            azimuths = rng.uniform(0.0, 2 * np.pi, size=(7, n))
            batch = joint_probs(state, polars, azimuths)
            assert batch.shape == (7, 2**n)
            for row, pol, azi in zip(batch, polars, azimuths):
                labels = [chr(ord("A") + k) for k in range(n)]
                settings = [DetectorSetting(*s) for s in zip(labels, pol, azi)]
                assert np.array_equal(row, joint_distribution(state, settings).probs)

    def test_azimuths_default_to_zero(self):
        state = make_named_state("w", 3)
        polars = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        assert np.array_equal(joint_probs(state, polars), joint_probs(state, polars, np.zeros((2, 3))))

    def test_angle_count_mismatch(self):
        with pytest.raises(ValueError):
            joint_probs(make_named_state("ghz", 3), np.zeros((4, 2)))
