"""Exact outcome statistics for n observers measuring a shared pure state.

All distributions here are over length-n outcome bit vectors (one bit per
observer, 1 = detector triggered), stored as a flat probability vector of
length 2^n in lexicographic order with observer 0 as the most significant
bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .states import DetectorSetting, StateVector, detector_projectors

# probabilities at or below this are treated as exact zeros
ZERO_EPS = 1e-15

PROB_SUM_TOL = 1e-10


def _bits_to_index(bits: Sequence[int]) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def _index_to_bits(idx: int, n: int) -> tuple[int, ...]:
    return tuple((idx >> (n - 1 - k)) & 1 for k in range(n))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability table over {0,1}^n outcomes with observer labels.

    ``provenance`` is "exact" for Born-rule tables and "empirical" for
    frequency tables; empirical tables also carry the integer counts so the
    underlying rational weights are preserved.
    """

    observers: tuple[str, ...]
    probs: np.ndarray
    provenance: str = "exact"
    counts: np.ndarray | None = field(default=None, repr=False)
    n_samples: int | None = None
    # marginals keep a handle on the table they came from so that repeated
    # marginalization reduces the same root array along the same path and
    # stays bit-identical however the subsets are nested
    base_probs: np.ndarray | None = field(default=None, repr=False)
    base_slots: tuple[int, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        obs = tuple(self.observers)
        if len(set(obs)) != len(obs):
            raise ValueError(f"observer labels must be unique, got {obs}")
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size != 2 ** len(obs):
            raise ValueError(f"expected {2 ** len(obs)} probabilities, got shape {p.shape}")
        if np.any(p < -ZERO_EPS):
            raise ValueError("negative probability entry")
        if self.provenance not in ("exact", "empirical"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        p = np.where(p < 0.0, 0.0, p)
        p.setflags(write=False)
        object.__setattr__(self, "observers", obs)
        object.__setattr__(self, "probs", p)
        if self.counts is not None:
            c = np.asarray(self.counts, dtype=np.int64)
            c.setflags(write=False)
            object.__setattr__(self, "counts", c)
        if self.base_probs is None:
            object.__setattr__(self, "base_probs", p)
            object.__setattr__(self, "base_slots", tuple(range(len(obs))))

    @property
    def n_observers(self) -> int:
        return len(self.observers)

    def prob(self, outcome: Sequence[int]) -> float:
        """Probability of one outcome bit vector (observer order)."""
        if len(outcome) != self.n_observers:
            raise ValueError(f"outcome length {len(outcome)} != {self.n_observers} observers")
        return float(self.probs[_bits_to_index(outcome)])

    def outcomes(self) -> Iterable[tuple[int, ...]]:
        n = self.n_observers
        return (_index_to_bits(i, n) for i in range(2**n))

    def as_dict(self) -> dict[str, float]:
        """Outcome bit-string -> probability (the JSON wire form)."""
        n = self.n_observers
        return {format(i, f"0{n}b"): float(self.probs[i]) for i in range(2**n)}


@dataclass(frozen=True)
class ConditionalTable:
    """p(target outcome | given outcome); entries on zero-probability
    conditions are None (explicitly undefined, never 0/0)."""

    target: tuple[str, ...]
    given: tuple[str, ...]
    entries: dict

    def prob(self, target_outcome: Sequence[int], given_outcome: Sequence[int]):
        return self.entries[(tuple(int(b) for b in target_outcome),
                             tuple(int(b) for b in given_outcome))]


def joint_probs(state: StateVector, polars, azimuths=None) -> np.ndarray:
    """Born tables float[N, 2^n] for N rows of per-slot detector angles.

    ``polars`` and ``azimuths`` (zero when omitted) are [N, n].  Slot k of
    row r is turned by the unitary whose row o is the bra of the outcome-o
    direction, so outcome probabilities become squared amplitudes.
    """
    n, polars = state.n_qubits, np.asarray(polars, dtype=float)
    if polars.ndim != 2 or polars.shape[1] != n:
        raise ValueError(f"need {n} settings (one per qubit) per row, got shape {polars.shape}")
    phase = np.exp(-1j * (0.0 if azimuths is None else np.asarray(azimuths, dtype=float)))
    cos, sin = np.cos(polars), np.sin(polars)
    rot = np.stack([np.stack([-sin, phase * cos], -1), np.stack([cos, phase * sin], -1)], -2)
    rows = len(polars)
    psi = np.broadcast_to(state.amplitudes, (rows, 2**n))
    for k in range(n):
        # one 2x2 matrix product per row, with slot k moved to the front:
        # each row then rounds exactly as a batch of one does
        front = psi.reshape(rows, 2**k, 2, -1).transpose(0, 2, 1, 3)
        out = np.matmul(rot[:, k], front.reshape(rows, 2, -1))
        psi = out.reshape(rows, 2, 2**k, -1).transpose(0, 2, 1, 3)
    return np.abs(psi.reshape(rows, -1)) ** 2


def joint_distribution(
    state: StateVector, settings: Sequence[DetectorSetting]
) -> OutcomeDistribution:
    """Exact joint outcome distribution, one detector per qubit slot.

    p(outcome) is the squared norm of the state after applying each slot's
    outcome projector, which for rank-1 projectors equals the squared
    amplitude in the rotated product basis; the one-row case of
    :func:`joint_probs`.
    """
    probs = joint_probs(state, [[s.polar for s in settings]], [[s.azimuth for s in settings]])
    return OutcomeDistribution(
        observers=tuple(s.observer for s in settings),
        probs=probs[0],
        provenance="exact",
    )


def _keep_slots(dist: OutcomeDistribution, keep: Sequence[str]) -> list[int]:
    keep_set = set(keep)
    unknown = keep_set - set(dist.observers)
    if unknown:
        raise ValueError(f"unknown observers {sorted(unknown)}")
    return [i for i, o in enumerate(dist.observers) if o in keep_set]


def marginalize(dist: OutcomeDistribution, keep: Sequence[str]) -> OutcomeDistribution:
    """Sum out every observer not in ``keep`` (original observer order kept).

    The reduction always runs over the root table the distribution came
    from, so nested marginalization is bit-identical to marginalizing to the
    final subset directly.
    """
    slots = _keep_slots(dist, keep)
    if not slots:
        raise ValueError("cannot marginalize to an empty observer subset")
    n = dist.n_observers
    base = dist.base_probs
    base_keep = tuple(dist.base_slots[i] for i in slots)
    n_base = int(np.log2(base.size))
    drop = tuple(i for i in range(n_base) if i not in base_keep)
    tensor = base.reshape((2,) * n_base)
    probs = tensor.sum(axis=drop).reshape(-1) if drop else base
    counts = None
    if dist.counts is not None:
        drop_cur = tuple(i for i in range(n) if i not in slots)
        counts = dist.counts.reshape((2,) * n).sum(axis=drop_cur).reshape(-1)
    return OutcomeDistribution(
        observers=tuple(dist.observers[i] for i in slots),
        probs=probs,
        provenance=dist.provenance,
        counts=counts,
        n_samples=dist.n_samples,
        base_probs=base,
        base_slots=base_keep,
    )


def conditional(
    dist: OutcomeDistribution, target: Sequence[str], given: Sequence[str]
) -> ConditionalTable:
    """Conditional probability table p(target | given) from the joint.

    Computed as a ratio of marginals; conditions with zero marginal
    probability yield None entries.
    """
    target = tuple(target)
    given = tuple(given)
    if set(target) & set(given):
        raise ValueError("target and given observer sets must be disjoint")
    both = marginalize(dist, tuple(target) + tuple(given))
    given_marg = marginalize(dist, given)
    # slot positions of target/given inside the combined marginal
    t_pos = [both.observers.index(o) for o in target]
    g_pos = [both.observers.index(o) for o in given]
    entries = {}
    nt, ng = len(target), len(given)
    for t_bits in itertools.product((0, 1), repeat=nt):
        for g_bits in itertools.product((0, 1), repeat=ng):
            p_g = given_marg.prob([g_bits[given.index(o)] for o in given_marg.observers])
            if p_g <= ZERO_EPS:
                entries[(t_bits, g_bits)] = None
                continue
            combined = [0] * (nt + ng)
            for pos, b in zip(t_pos, t_bits):
                combined[pos] = b
            for pos, b in zip(g_pos, g_bits):
                combined[pos] = b
            entries[(t_bits, g_bits)] = both.prob(combined) / p_g
    return ConditionalTable(target=target, given=given, entries=entries)


def post_measurement_state(
    state: StateVector, slot: int, setting: DetectorSetting, outcome: int
) -> StateVector:
    """Collapse the state after one observer records ``outcome``.

    Applies the outcome projector on the given qubit slot and renormalizes;
    a zero-probability outcome is rejected.
    """
    if not 0 <= slot < state.n_qubits:
        raise ValueError(f"slot {slot} out of range for {state.n_qubits} qubits")
    proj = detector_projectors(setting)[int(outcome)]
    psi = state.as_tensor()
    psi = np.moveaxis(np.tensordot(proj.matrix, psi, axes=([1], [slot])), 0, slot)
    flat = psi.reshape(-1)
    p = float(np.sum(np.abs(flat) ** 2))
    if p <= ZERO_EPS:
        raise ValueError(
            f"outcome {outcome} on slot {slot} has zero probability; state cannot collapse onto it"
        )
    return StateVector(state.n_qubits, flat / np.sqrt(p))


def sequential_distribution(
    state: StateVector, settings: Sequence[DetectorSetting], order: Sequence[int]
) -> OutcomeDistribution:
    """Joint distribution built by measuring one observer at a time.

    ``order`` is a permutation of qubit slots; each step multiplies in the
    current outcome probability and collapses the state before the next
    observer measures.  Local projectors commute, so the result matches
    ``joint_distribution`` up to floating-point noise; kept as an
    independent route for cross-checking.
    """
    n = state.n_qubits
    if len(settings) != n:
        raise ValueError(f"need {n} settings, got {len(settings)}")
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}, got {order}")
    probs = np.zeros(2**n)

    def walk(current: StateVector, step: int, bits: dict[int, int], weight: float):
        if step == len(order):
            outcome = [bits[k] for k in range(n)]
            probs[_bits_to_index(outcome)] = weight
            return
        slot = order[step]
        p0, p1 = detector_projectors(settings[slot])
        psi = current.as_tensor()
        for proj in (p0, p1):
            branch = np.moveaxis(
                np.tensordot(proj.matrix, psi, axes=([1], [slot])), 0, slot
            ).reshape(-1)
            p = float(np.sum(np.abs(branch) ** 2))
            if p <= ZERO_EPS:
                continue
            collapsed = StateVector(n, branch / np.sqrt(p))
            bits[slot] = proj.outcome
            walk(collapsed, step + 1, bits, weight * p)
        bits.pop(slot, None)

    walk(state, 0, {}, 1.0)
    return OutcomeDistribution(
        observers=tuple(s.observer for s in settings),
        probs=probs,
        provenance="exact",
    )
