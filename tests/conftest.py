"""Shared helpers for the test suite: random instances and closed-form oracles."""

import numpy as np
from hypothesis import settings

from qig import DetectorSetting, OutcomeDistribution, StateVector

# Every property test is seeded (the same examples on every run) and has no
# per-example deadline, since wall time on a shared machine drifts.
settings.register_profile("qig", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("qig")


def random_state(rng, n):
    """Gaussian-amplitude random pure state on n qubits."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_settings(rng, n, equatorial=False):
    labels = [chr(ord("A") + k) for k in range(n)]
    polars = rng.uniform(0.0, np.pi, size=n)
    azimuths = np.zeros(n) if equatorial else rng.uniform(0.0, 2 * np.pi, size=n)
    return [DetectorSetting(lbl, p, a) for lbl, p, a in zip(labels, polars, azimuths)]


def random_distribution(rng, n):
    """Random exact probability table over n observers."""
    weights = rng.exponential(size=2**n)
    labels = tuple(chr(ord("A") + k) for k in range(n))
    return OutcomeDistribution(labels, weights / weights.sum(), provenance="exact")


def product_distribution(rng, n):
    """Random distribution with independent per-observer bits."""
    p_one = rng.uniform(0.05, 0.95, size=n)
    probs = np.ones(1)
    for p in p_one:
        probs = np.concatenate([probs * (1 - p), probs * p])
    # build order above makes observer 0 the LEAST significant bit; flip
    probs = probs.reshape((2,) * n).transpose(tuple(reversed(range(n)))).reshape(-1)
    labels = tuple(chr(ord("A") + k) for k in range(n))
    return OutcomeDistribution(labels, probs, provenance="exact"), p_one


def binary_entropy(x):
    """h2 in bits with the 0 log 0 convention."""
    x = float(x)
    if x <= 1e-15 or x >= 1 - 1e-15:
        return 0.0
    return -x * np.log2(x) - (1 - x) * np.log2(1 - x)


def pair_distance_oracle(theta):
    """Closed-form information distance for the symmetric entangled photon
    pair at relative polarizer angle theta: both detector bits are fair and
    disagree with probability sin^2(theta)."""
    return 2.0 * binary_entropy(np.sin(theta) ** 2)
