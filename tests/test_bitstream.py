"""Tests for seeded sampling, empirical tables, and convergence reporting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qig import (
    BitRecord,
    DetectorSetting,
    OutcomeDistribution,
    area,
    build_entropy_table,
    convergence_report,
    distance,
    empirical_distribution,
    format_bit_record,
    joint_distribution,
    make_named_state,
    parse_bit_record,
    sample_runs,
    total_variation,
)

from conftest import random_settings, random_state


def ghz_quarter():
    state = make_named_state("ghz", 3)
    settings = [
        DetectorSetting("A", 0.0),
        DetectorSetting("B", np.pi / 4),
        DetectorSetting("C", np.pi / 4),
    ]
    return state, settings, joint_distribution(state, settings)


class TestSampleRuns:
    def test_point_mass(self):
        dist = OutcomeDistribution(("A", "B"), np.array([1.0, 0.0, 0.0, 0.0]))
        record = sample_runs(dist, 5, seed=1)
        assert record.runs.shape == (5, 2)
        assert not record.runs.any()

    def test_fair_coin_within_four_sigma(self):
        dist = OutcomeDistribution(("A",), np.array([0.5, 0.5]))
        n = 1_000_000
        record = sample_runs(dist, n, seed=123)
        ones = record.runs.sum() / n
        sigma = 0.5 / np.sqrt(n)
        assert abs(ones - 0.5) < 4 * sigma

    def test_ghz_all_fire_within_four_sigma(self):
        _, _, dist = ghz_quarter()
        n = 1_000_000
        record = sample_runs(dist, n, seed=77)
        p_hat = np.all(record.runs == 1, axis=1).mean()
        sigma = np.sqrt((1 / 8) * (7 / 8) / n)
        assert abs(p_hat - 1 / 8) < 4 * sigma

    def test_reproducible_bit_exact(self):
        _, _, dist = ghz_quarter()
        a = sample_runs(dist, 10_000, seed=42)
        b = sample_runs(dist, 10_000, seed=42)
        assert np.array_equal(a.runs, b.runs)
        c = sample_runs(dist, 10_000, seed=43)
        assert not np.array_equal(a.runs, c.runs)

    def test_empirical_input_rejected(self):
        dist = OutcomeDistribution(
            ("A",), np.array([0.5, 0.5]), provenance="empirical",
            counts=np.array([1, 1]), n_samples=2,
        )
        with pytest.raises(ValueError, match="exact"):
            sample_runs(dist, 10, seed=0)

    def test_bad_run_count(self):
        dist = OutcomeDistribution(("A",), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            sample_runs(dist, 0, seed=0)


class TestEmpiricalDistribution:
    def test_nineteen_run_column(self):
        """Ten triggers in nineteen runs: p(1) = 10/19, p(0) = 9/19."""
        column = np.array([[1], [0], [1], [1], [0], [1], [0], [1], [0], [1],
                           [0], [1], [0], [1], [0], [1], [0], [1], [0]], dtype=np.uint8)
        assert column.sum() == 10 and column.size == 19
        record = BitRecord(("A",), column, seed=0)
        emp = empirical_distribution(record)
        assert emp.provenance == "empirical"
        assert emp.prob((1,)) == 10 / 19
        assert emp.prob((0,)) == 9 / 19
        assert emp.counts.sum() == 19

    def test_single_run_point_mass(self):
        record = BitRecord(("A", "B", "C"), np.array([[1, 0, 1]], dtype=np.uint8), seed=0)
        emp = empirical_distribution(record)
        assert emp.prob((1, 0, 1)) == 1.0

    def test_self_concatenation_invariance(self):
        _, _, dist = ghz_quarter()
        record = sample_runs(dist, 500, seed=3)
        doubled = BitRecord(record.observers, np.vstack([record.runs, record.runs]), seed=3)
        a, b = empirical_distribution(record), empirical_distribution(doubled)
        assert np.array_equal(a.probs, b.probs)

    def test_counts_sum_exact(self):
        _, _, dist = ghz_quarter()
        for n in (1, 7, 1000):
            emp = empirical_distribution(sample_runs(dist, n, seed=5))
            assert int(emp.counts.sum()) == n
            assert abs(float(emp.probs.sum()) - 1.0) < 1e-12


class TestConvergenceReport:
    def test_deterministic_distribution_zero_tv(self):
        state = make_named_state("product_v", 2)
        settings = [DetectorSetting("A", 0.0), DetectorSetting("B", 0.0)]
        rows = convergence_report(state, settings, [10, 100, 1000], seed=0)
        assert all(row.tv_distance == 0.0 for row in rows)

    def test_fair_coin_tv_shrinks(self):
        """Median TV over 20 seeds drops from N=100 to N=10000."""
        from qig import StateVector

        coin = StateVector(1, np.array([1.0, 0.0]))  # diagonal polarizer: fair bit
        settings = [DetectorSetting("A", np.pi / 4)]
        small, large = [], []
        for seed in range(20):
            rows = convergence_report(coin, settings, [100, 10_000], seed=seed)
            small.append(rows[0].tv_distance)
            large.append(rows[1].tv_distance)
        assert np.median(large) < np.median(small)

    def test_ghz_distance_deviation_small_at_1e6(self):
        state, settings, _ = ghz_quarter()
        rows = convergence_report(state, settings, [1_000_000], seed=11)
        assert rows[0].distance_dev[("A", "B")] < 0.01
        assert rows[0].area_dev is not None

    def test_median_tv_monotone_along_schedule(self):
        state, settings, _ = ghz_quarter()
        schedule = [1_000, 10_000, 100_000, 1_000_000]
        tv = np.array([
            [row.tv_distance for row in convergence_report(state, settings, schedule, seed=s)]
            for s in range(20)
        ])
        medians = np.median(tv, axis=0)
        assert np.all(np.diff(medians) <= 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batched_rows_equal_per_entry_tables(self, n):
        """Each row equals the deviations of its own entry's entropy table."""
        rng = np.random.default_rng(40 + n)
        state = random_state(rng, n)
        settings = random_settings(rng, n)
        schedule, seed = [1, 10, 100, 1_000, 10_000], 17
        rows = convergence_report(state, settings, schedule, seed=seed)
        exact = joint_distribution(state, settings)
        exact_table = build_entropy_table(exact)
        labels = exact.observers
        pairs = [(x, y) for i, x in enumerate(labels) for y in labels[i + 1:]]
        children = np.random.SeedSequence(seed).spawn(len(schedule))
        assert [row.n_samples for row in rows] == schedule
        for row, n_runs, child in zip(rows, schedule, children):
            sub_seed = int(child.generate_state(1, np.uint64)[0])
            emp = empirical_distribution(sample_runs(exact, n_runs, seed=sub_seed))
            table = build_entropy_table(emp)
            assert row.tv_distance == total_variation(emp, exact)
            assert row.distance_dev == {
                pair: abs(distance(table, *pair) - distance(exact_table, *pair))
                for pair in pairs
            }
            assert all(type(dev) is float for dev in row.distance_dev.values())
            if n == 3:
                assert type(row.area_dev) is float
                assert row.area_dev == abs(area(table, *labels) - area(exact_table, *labels))
            else:
                assert row.area_dev is None

    def test_empty_schedule(self):
        state, settings, _ = ghz_quarter()
        assert convergence_report(state, settings, [], seed=0) == []

    def test_schedule_must_increase(self):
        state, settings, _ = ghz_quarter()
        with pytest.raises(ValueError):
            convergence_report(state, settings, [100, 100], seed=0)


class TestRecordText:
    def test_round_trip(self):
        _, _, dist = ghz_quarter()
        record = sample_runs(dist, 50, seed=9)
        text = format_bit_record(record)
        back = parse_bit_record(text)
        assert back.observers == record.observers
        assert back.seed == record.seed
        assert np.array_equal(back.runs, record.runs)

    def test_header_and_rows(self):
        record = BitRecord(("A", "B"), np.array([[0, 1], [1, 1]], dtype=np.uint8), seed=7)
        text = format_bit_record(record)
        lines = text.strip().split("\n")
        assert lines[0] == "# observers=A,B seed=7"
        assert lines[1:] == ["01", "11"]

    def test_total_variation_requires_same_observers(self):
        a = OutcomeDistribution(("A",), np.array([0.5, 0.5]))
        b = OutcomeDistribution(("B",), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            total_variation(a, b)


class TestRecordErrors:
    def test_missing_observers_field(self):
        with pytest.raises(ValueError, match="'observers='"):
            parse_bit_record("# seed=1\n01\n")

    def test_missing_seed_field(self):
        with pytest.raises(ValueError, match="'seed='"):
            parse_bit_record("# observers=A,B\n01\n")

    def test_ragged_rows(self):
        with pytest.raises(ValueError, match=r"line 3: .* got '1'"):
            parse_bit_record("# observers=A,B seed=1\n01\n1\n11\n")

    def test_rows_wider_than_observers(self):
        with pytest.raises(ValueError, match=r"line 2: expected 2 .* got '011'"):
            parse_bit_record("# observers=A,B seed=1\n011\n010\n")

    def test_non_bit_characters(self):
        """Line numbers count blank lines, which the parser otherwise skips."""
        with pytest.raises(ValueError, match=r"line 5: .* got '12'"):
            parse_bit_record("# observers=A,B seed=1\n\n01\n\n12\n")


CLEAN = "# observers=A,B,C seed=5\n011\n100\n111\n"


class TestRecordTextForms:
    """Every text form the parser accepts reads as the clean text does."""

    @pytest.mark.parametrize(
        "text",
        [
            CLEAN.replace("\n", "\r\n"),
            "# observers=A,B,C seed=5\n\n011\n\n\n100\n \n111\n\n",
            "  # observers=A,B,C seed=5  \n 011\n100  \n\t111 \n",
            CLEAN.rstrip("\n"),
        ],
        ids=["crlf", "blank-lines", "padded", "no-final-newline"],
    )
    def test_same_record_as_clean_text(self, text):
        clean, back = parse_bit_record(CLEAN), parse_bit_record(text)
        assert back.observers == clean.observers == ("A", "B", "C")
        assert back.seed == clean.seed == 5
        assert back.runs.dtype == clean.runs.dtype == np.uint8
        assert np.array_equal(back.runs, clean.runs)
        assert np.array_equal(clean.runs, [[0, 1, 1], [1, 0, 0], [1, 1, 1]])

    def test_non_ascii_row_names_its_line(self):
        with pytest.raises(ValueError, match=r"line 3: expected 2 .* got '0é'"):
            parse_bit_record("# observers=A,B seed=1\n01\n0é\n")

    def test_unencodable_row_names_its_line(self):
        with pytest.raises(ValueError, match=r"line 2: expected 2 .* got '0\\ud800'"):
            parse_bit_record("# observers=A,B seed=1\n0\ud800\n11\n")

    def test_header_only_record(self):
        with pytest.raises(ValueError, match=r"runs must be N x 2 with N >= 1, got \(0,\)"):
            parse_bit_record("# observers=A,B seed=1\n")


def reference_text(record):
    """The record text written one row and one bit at a time."""
    body = "\n".join("".join(str(int(b)) for b in row) for row in record.runs)
    return f"# observers={','.join(record.observers)} seed={record.seed}\n" + body + "\n"


@st.composite
def bit_records(draw):
    n = draw(st.integers(1, 8))
    n_runs = draw(st.integers(1, 300))
    runs = draw(hnp.arrays(np.uint8, (n_runs, n), elements=st.integers(0, 1)))
    seed = draw(st.integers(0, 2**63 - 1))
    return BitRecord(tuple(chr(ord("A") + k) for k in range(n)), runs, seed=seed)


class TestRecordTextProperty:
    @given(bit_records())
    def test_format_matches_per_row_reference(self, record):
        assert format_bit_record(record) == reference_text(record)

    @given(bit_records())
    def test_parse_inverts_format(self, record):
        back = parse_bit_record(format_bit_record(record))
        assert back.observers == record.observers
        assert back.seed == record.seed
        assert back.runs.dtype == np.uint8
        assert np.array_equal(back.runs, record.runs)
