"""The reference pinned to hand values and to its own closed forms.

Run with ``python3 -m pytest perfbench``.  These tests do not import qig.
"""

import itertools
import math

import numpy as np
import pytest

import reference as ref

PI4 = math.pi / 4


def test_ghz_point_distance_2_area_3():
    probs = ref.born_table(ref.named_state("ghz", 3), [0.0, PI4, PI4])
    tri = ref.triangle(probs, 3, (0, 1, 2))
    assert tri["d"] == pytest.approx((2.0, 2.0, 2.0), abs=1e-12)
    assert tri["area_info"] == pytest.approx(3.0, abs=1e-12)


def test_w_point_of_criterion_03():
    probs = ref.born_table(ref.named_state("w", 3), [0.0, PI4, PI4])
    tri = ref.triangle(probs, 3, (0, 1, 2))
    d_ab, d_ac, d_bc = tri["d"]
    assert (d_ab, d_ac, d_bc) == pytest.approx((1.91830, 1.91830, 1.30004), abs=5e-6)
    assert tri["area_info"] == pytest.approx(0.51218, abs=5e-6)
    assert tri["area_euclid"] == pytest.approx(1.17317, abs=5e-6)
    assert d_ab == pytest.approx(math.log2(3) + 1 / 3, abs=1e-12)
    assert d_bc == pytest.approx(2 * ref.h2(1 / 6), abs=1e-12)
    assert tri["area_info"] == pytest.approx(5 / 9 * math.log2(5) - 7 / 9, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_born_table_is_a_distribution(n):
    rng = np.random.default_rng(n)
    probs = ref.born_table(ref.random_state(rng, n), rng.uniform(0, math.pi, n),
                           rng.uniform(0, 2 * math.pi, n))
    assert probs.min() >= 0.0
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_product_closed_form():
    rng = np.random.default_rng(1)
    n = 5
    polars = rng.uniform(0, math.pi, n)
    probs = ref.born_table(ref.named_state("product", n), polars)
    h = ref.product_entropies(polars)
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            assert ref.subset_entropy(probs, n, subset) == pytest.approx(
                sum(h[i] for i in subset), abs=1e-12)
    assert ref.pair_distance(probs, n, 1, 3) == pytest.approx(h[1] + h[3], abs=1e-12)


@pytest.mark.parametrize("n", [3, 6, 11])
def test_w_and_ghz_closed_forms_at_zero_polars(n):
    w = ref.born_table(ref.named_state("w", n), [0.0] * n)
    ghz = ref.born_table(ref.named_state("ghz", n), [0.0] * n)
    for k in range(1, n + 1):
        slots = tuple(range(n - k, n))
        assert ref.subset_entropy(w, n, slots) == pytest.approx(ref.w_subset_entropy(n, k), abs=1e-12)
        assert ref.subset_entropy(ghz, n, slots) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["singlet-sym", "singlet-antisym"])
def test_singlet_distance(name):
    rng = np.random.default_rng(7)
    amps = ref.named_state(name, 2)
    for a, b in rng.uniform(0, math.pi, (10, 2)):
        probs = ref.born_table(amps, [a, b])
        assert ref.pair_distance(probs, 2, 0, 1) == pytest.approx(ref.singlet_distance(a, b), abs=1e-12)


def test_elementary_symmetric_and_heron():
    values = [0.3, 1.2, 0.7, 2.0, 0.1]
    for k in range(len(values) + 1):
        brute = sum(math.prod(c) for c in itertools.combinations(values, k))
        assert ref.elementary_symmetric(values, k) == pytest.approx(brute, rel=1e-14)
    assert ref.heron(3.0, 4.0, 5.0) == pytest.approx(6.0, rel=1e-14)
    assert ref.heron(1.0, 2.0, 3.0 + 1e-13) == 0.0
    assert ref.heron(1.0, 1.0, 3.0) is None


def test_record_format_and_counts_round_trip():
    runs = np.array([[0, 1, 1], [1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    data = ref.format_record(("A", "B", "C"), 7, runs)
    assert data == b"# observers=A,B,C seed=7\n011\n110\n011\n"
    counts = ref.record_counts(data.split(b"\n", 1)[1], 3)
    assert counts.tolist() == [0, 0, 0, 2, 0, 0, 1, 0]
    with pytest.raises(ValueError):
        ref.record_counts(b"012\n", 3)
