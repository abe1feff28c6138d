"""Tests for Shannon entropy machinery and the subset-entropy table."""

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import random_settings, random_state

from qig import (
    DetectorSetting,
    OutcomeDistribution,
    build_entropy_table,
    conditional_entropy,
    empirical_distribution,
    joint_distribution,
    make_named_state,
    sample_runs,
    shannon,
    subset_entropies,
)
from qig import entropy as entropy_module

LOG2_3 = np.log2(3.0)


def fair_bit():
    return OutcomeDistribution(("A",), np.array([0.5, 0.5]))


def independent_fair_bits(n):
    labels = tuple(chr(ord("A") + k) for k in range(n))
    return OutcomeDistribution(labels, np.full(2**n, 2.0**-n))


def tripartite(state_name, beta, gamma):
    state = make_named_state(state_name, 3)
    settings = [
        DetectorSetting("A", 0.0),
        DetectorSetting("B", beta),
        DetectorSetting("C", gamma),
    ]
    return joint_distribution(state, settings)


class TestShannon:
    def test_fair_bit_is_one(self):
        assert abs(shannon(fair_bit()) - 1.0) < 1e-15

    def test_point_mass_is_zero(self):
        assert shannon(OutcomeDistribution(("A",), np.array([1.0, 0.0]))) == 0.0

    def test_one_third_two_thirds(self):
        """The single-excitation state's first observer: log2(3) - 2/3 bits."""
        dist = tripartite("w", 0.7, 0.3)
        assert abs(shannon(dist, ("A",)) - (LOG2_3 - 2 / 3)) < 1e-12


class TestJointEntropy:
    def test_ghz_pair_at_quarter_turn(self):
        """Pairwise table (1/4, 1/4, 1/4, 1/4) carries 2 bits."""
        dist = tripartite("ghz", np.pi / 4, 0.1)
        assert abs(shannon(dist, ("A", "B")) - 2.0) < 1e-12

    def test_independent_bits_add(self):
        assert abs(shannon(independent_fair_bits(2), ("A", "B")) - 2.0) < 1e-15

    def test_w_pair_entropy_closed_form(self):
        """H_AB = log2(3) - (sin^2 b log sin^2 b + cos^2 b log cos^2 b)/3."""
        rng = np.random.default_rng(19)
        for _ in range(10):
            beta, gamma = rng.uniform(0.05, np.pi / 2 - 0.05, size=2)
            sb, cb = np.sin(beta) ** 2, np.cos(beta) ** 2
            expected = LOG2_3 - (sb * np.log2(sb) + cb * np.log2(cb)) / 3
            dist = tripartite("w", beta, gamma)
            assert abs(shannon(dist, ("A", "B")) - expected) < 1e-12

    def test_deterministic_observer_adds_nothing(self):
        """First observer of |vvv> always fires: H_ABC equals H_BC."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            beta, gamma = rng.uniform(0, np.pi / 2, size=2)
            dist = tripartite("product_v", beta, gamma)
            h_abc = shannon(dist, ("A", "B", "C"))
            h_bc = shannon(dist, ("B", "C"))
            assert abs(h_abc - h_bc) < 1e-12


class TestConditionalEntropy:
    def test_independence(self):
        dist = independent_fair_bits(2)
        assert abs(conditional_entropy(dist, ("A",), ("B",)) - 1.0) < 1e-15

    def test_chain_rule(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            dist = joint_distribution(random_state(rng, 3), random_settings(rng, 3))
            h_abc = shannon(dist, ("A", "B", "C"))
            chained = (
                shannon(dist, ("A",))
                + conditional_entropy(dist, ("B",), ("A",))
                + conditional_entropy(dist, ("C",), ("A", "B"))
            )
            assert abs(h_abc - chained) < 1e-10

    def test_perfect_correlation(self):
        dist = OutcomeDistribution(("A", "B"), np.array([0.5, 0.0, 0.0, 0.5]))
        assert abs(conditional_entropy(dist, ("A",), ("B",))) < 1e-15

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            conditional_entropy(independent_fair_bits(2), ("A",), ("A",))


class TestEntropyTable:
    def test_single_fair_bit(self):
        table = build_entropy_table(fair_bit())
        assert abs(table.joint("A") - 1.0) < 1e-15

    def test_ghz_quarter_turn_table(self):
        """All eight outcomes equally likely: singles 1, pairs 2, triple 3."""
        table = build_entropy_table(tripartite("ghz", np.pi / 4, np.pi / 4))
        for single in ("A", "B", "C"):
            assert abs(table.joint(single) - 1.0) < 1e-12
        for pair in itertools.combinations("ABC", 2):
            assert abs(table.joint(*pair) - 2.0) < 1e-12
        assert abs(table.joint("A", "B", "C") - 3.0) < 1e-12

    def test_product_quarter_turn_table(self):
        table = build_entropy_table(tripartite("product_v", np.pi / 4, np.pi / 4))
        assert abs(table.joint("A")) < 1e-12
        assert abs(table.joint("B") - 1.0) < 1e-12
        assert abs(table.joint("C") - 1.0) < 1e-12
        assert abs(table.joint("A", "B") - 1.0) < 1e-12
        assert abs(table.joint("A", "C") - 1.0) < 1e-12
        assert abs(table.joint("B", "C") - 2.0) < 1e-12
        assert abs(table.joint("A", "B", "C") - 2.0) < 1e-12

    def test_conditional_via_difference(self):
        table = build_entropy_table(tripartite("ghz", 0.4, 1.0))
        lhs = table.conditional("C", ("A", "B"))
        rhs = table.joint("A", "B", "C") - table.joint("A", "B")
        assert abs(lhs - rhs) < 1e-15

    def test_unknown_observer(self):
        table = build_entropy_table(fair_bit())
        with pytest.raises(ValueError):
            table.joint("Z")

    def test_restrict_gathers_each_group(self):
        table = build_entropy_table(tripartite("w", 0.4, 1.0))
        groups = [("A", "C"), ("C", "B")]
        sub = table.restrict(groups, "xy")
        for f, (u, v) in enumerate(groups):
            assert sub.joint("x")[f] == table.joint(u)
            assert sub.joint("y")[f] == table.joint(v)
            assert sub.joint("x", "y")[f] == table.joint(u, v)

    def test_restrict_rejects_groups_of_the_wrong_size(self):
        """Two 3-observer groups hold six labels, which would fill three
        2-observer rows; the groups are refused by name instead."""
        table = build_entropy_table(tripartite("w", 0.4, 1.0))
        with pytest.raises(ValueError, match=r"groups \[\['A', 'B', 'C'\], \['C', 'B', 'A'\]\]"):
            table.restrict([("A", "B", "C"), ("C", "B", "A")], "ab")
        with pytest.raises(ValueError, match=r"groups \[\['A'\]\]"):
            table.restrict([("A", "B"), ("A",)], "ab")

    def test_restrict_unknown_observer(self):
        table = build_entropy_table(tripartite("w", 0.4, 1.0))
        with pytest.raises(ValueError, match=r"unknown observers \['Z'\]"):
            table.restrict([("A", "Z")], "ab")


class TestEntropyProperties:
    def test_bounds_and_monotonicity(self):
        """0 <= H_S <= |S| and H_S <= H_T for S inside T."""
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            dist = joint_distribution(random_state(rng, n), random_settings(rng, n))
            table = build_entropy_table(dist)
            subsets = table.subsets()
            for key, h in subsets.items():
                assert -1e-12 <= h <= len(key) + 1e-12
            for key, h in subsets.items():
                for other, h2 in subsets.items():
                    if key < other:
                        assert h <= h2 + 1e-10

    def test_strong_subadditivity(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            dist = joint_distribution(random_state(rng, 3), random_settings(rng, 3))
            table = build_entropy_table(dist)
            lhs = table.joint("A", "B") + table.joint("B", "C")
            rhs = table.joint("A", "B", "C") + table.joint("B")
            assert lhs >= rhs - 1e-10

    def test_conditioning_reduces_entropy(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            dist = joint_distribution(random_state(rng, n), random_settings(rng, n))
            table = build_entropy_table(dist)
            labels = dist.observers
            assert table.conditional(labels[0], labels[1:]) <= table.joint(labels[0]) + 1e-10

    def test_relabeling_equivariance(self):
        """Permuting observer labels permutes the table keys, nothing else."""
        rng = np.random.default_rng(26)
        dist = joint_distribution(random_state(rng, 3), random_settings(rng, 3))
        base = build_entropy_table(dist)
        names = dist.observers
        for perm in itertools.permutations(range(3)):
            tensor = dist.probs.reshape((2, 2, 2)).transpose(perm)
            relabeled = OutcomeDistribution(
                tuple(names[i] for i in perm), tensor.reshape(-1)
            )
            table = build_entropy_table(relabeled)
            for r in (1, 2, 3):
                for subset in itertools.combinations(names, r):
                    assert abs(table.joint(*subset) - base.joint(*subset)) < 1e-12

    def test_plugin_estimator_converges(self):
        """Median |empirical - exact| entropy error at 1e6 draws < 0.005 bits."""
        dist = tripartite("ghz", np.pi / 4, np.pi / 4)
        exact = shannon(dist)
        errors = []
        for seed in range(20):
            record = sample_runs(dist, 1_000_000, seed=seed)
            errors.append(abs(shannon(empirical_distribution(record)) - exact))
        assert float(np.median(errors)) < 0.005


def direct_subset_entropies(probs, n):
    """H of every nonempty slot subset by summing the full table directly."""
    tensor = probs.reshape((2,) * n)
    out = {}
    for r in range(1, n + 1):
        for slots in itertools.combinations(range(n), r):
            drop = tuple(i for i in range(n) if i not in slots)
            p = (tensor.sum(axis=drop) if drop else tensor).reshape(-1)
            p = p[p > 1e-15]
            out[slots] = float(-(p * np.log2(p)).sum())
    return out


def depth_first_subset_entropies(probs):
    """The depth-first lattice walk that the level walk replaced, kept as the
    bit-for-bit reference: each marginal summed from its canonical parent over
    one length-2 axis, each entropy a contiguous row reduction."""
    probs = np.asarray(probs, dtype=float)
    rows, size = probs.shape
    h = np.zeros((size, rows))

    def row_entropies(p):
        logs = np.log2(p, out=np.zeros(p.shape), where=p > 1e-15)
        return -(p * logs).sum(axis=-1)

    def walk(marg, observers, mask, first):
        h[mask] = row_entropies(marg.reshape(rows, -1))
        for pos in range(first, len(observers)):
            rest = observers[:pos] + observers[pos + 1:]
            walk(marg.sum(axis=1 + pos), rest, mask & ~(1 << observers[pos]), pos)

    n = size.bit_length() - 1
    walk(probs.reshape((rows,) + (2,) * n), tuple(range(n)), size - 1, 0)
    return h


def tables_with_zeros(rng, n, rows):
    """float[rows, 2^n] outcome tables with exact zeros: the GHZ, W and product
    tables at zero polars first (n >= 2), then skewed random rows that also
    hold entries below the 1e-15 cut."""
    p = rng.random((rows, 2**n)) ** 4
    p[rng.random(p.shape) < 0.3] = 0.0
    p[rng.random(p.shape) < 0.05] = 1e-17
    p[:, 0] += 1e-3
    p /= p.sum(axis=1, keepdims=True)
    named = [joint_distribution(make_named_state(name, n), [DetectorSetting(f"O{k}", 0.0)
                                                          for k in range(n)]).probs
             for name in ("ghz", "w", "product_v")] if n >= 2 else []
    return np.concatenate([np.array(named).reshape(-1, 2**n), p])[:rows]


def assert_matches_depth_first(probs):
    got, want = subset_entropies(probs), depth_first_subset_entropies(probs)
    assert got.shape == want.shape
    assert np.array_equal(got[1:], want[1:])
    assert np.all(got[0] == 0.0)


class TestSubsetLattice:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_direct_marginal_sums(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            dist = joint_distribution(random_state(rng, n), random_settings(rng, n))
            table = build_entropy_table(dist)
            for slots, h in direct_subset_entropies(dist.probs, n).items():
                assert abs(table.joint(*(dist.observers[i] for i in slots)) - h) < 1e-12

    def test_named_states_with_zero_outcomes(self):
        """Tables with exact zeros (GHZ, W, product) follow the 0 log 0 rule."""
        for name in ("ghz", "w", "product_v"):
            dist = joint_distribution(
                make_named_state(name, 5), [DetectorSetting(c, 0.0) for c in "ABCDE"]
            )
            table = build_entropy_table(dist)
            for slots, h in direct_subset_entropies(dist.probs, 5).items():
                assert abs(table.joint(*(dist.observers[i] for i in slots)) - h) < 1e-12

    def test_batch_rows_equal_single_tables(self):
        """Each row of a batched lattice walk is bit-identical to its own table."""
        rng = np.random.default_rng(31)
        dists = [joint_distribution(random_state(rng, 4), random_settings(rng, 4)) for _ in range(6)]
        batch = subset_entropies(np.stack([d.probs for d in dists]))
        for k, dist in enumerate(dists):
            single = build_entropy_table(dist).subsets()
            for key, h in single.items():
                mask = sum(1 << dist.observers.index(o) for o in key)
                assert batch[mask, k] == h

    @pytest.mark.parametrize("shape", [(8,), (2, 6), (3, 1)])
    def test_bad_table_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            subset_entropies(np.full(shape, 0.5))

    def test_observer_cap(self):
        dist = OutcomeDistribution(tuple(f"O{k}" for k in range(21)), np.full(2**21, 2.0**-21))
        with pytest.raises(ValueError, match="20 observers"):
            build_entropy_table(dist)

    # every nonempty row equals the depth-first walk's bit for bit; the empty
    # subset's row is exactly zero
    @pytest.mark.parametrize("n", range(1, 14))
    def test_one_table_bit_identical_to_depth_first(self, n):
        for table in tables_with_zeros(np.random.default_rng(n), n, 4):
            assert_matches_depth_first(table[None])

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("rows", [2, 4, 125, 441])
    def test_batch_bit_identical_to_depth_first(self, n, rows):
        assert_matches_depth_first(tables_with_zeros(np.random.default_rng(10 * n + rows), n, rows))

    @pytest.mark.parametrize("limit", [10, 40, 300])
    @pytest.mark.parametrize("n", range(2, 12))
    def test_depth_first_above_levels_below(self, monkeypatch, limit, n):
        """A small subtree size moves the split between the depth-first part
        and the level walk to every depth these tables have."""
        monkeypatch.setattr(entropy_module, "_LEVEL_WALK_ENTRIES", limit)
        tables = tables_with_zeros(np.random.default_rng(1000 * limit + n), n, 4)
        for table in tables:
            assert_matches_depth_first(table[None])
        assert_matches_depth_first(tables)

    def test_memory_stays_order_two_to_the_n(self):
        """One 16-observer table: no whole level, and never the 3^n lattice
        (43 million entries, 330 MiB), is held at once."""
        probs = tables_with_zeros(np.random.default_rng(16), 16, 1)
        tracemalloc.start()
        try:
            subset_entropies(probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
