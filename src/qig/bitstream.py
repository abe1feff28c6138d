"""Seeded Monte Carlo bit streams from exact outcome distributions.

One prepared copy of the state yields one row of detector bits, so all
cross-observer correlation lives inside rows.  The generator is NumPy's
PCG64 (``numpy.random.default_rng``), which produces identical streams for
a given seed on every platform; golden sampling tests rely on that pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .born import OutcomeDistribution, joint_distribution
from .entropy import EntropyTable, build_entropy_table, subset_entropies
from .geometry import area, distance
from .states import DetectorSetting, StateVector

DEFAULT_RUNS = 100_000


@dataclass(frozen=True)
class BitRecord:
    """N x n matrix of detector bits; row = one prepared copy, column = observer."""

    observers: tuple[str, ...]
    runs: np.ndarray
    seed: int
    settings: tuple[DetectorSetting, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.runs, dtype=np.uint8)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] != len(self.observers):
            raise ValueError(
                f"runs must be N x {len(self.observers)} with N >= 1, got {m.shape}"
            )
        if np.any(m > 1):
            raise ValueError("bit matrix entries must be 0 or 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "observers", tuple(self.observers))
        object.__setattr__(self, "runs", m)

    @property
    def n_runs(self) -> int:
        return int(self.runs.shape[0])


def sample_runs(dist: OutcomeDistribution, n_runs: int, seed: int) -> BitRecord:
    """Draw n_runs i.i.d. outcome rows by inverse-CDF over the joint table."""
    if dist.provenance != "exact":
        raise ValueError("sampling requires an exact distribution, not an empirical one")
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(dist.probs)
    cdf[-1] = 1.0  # guard against float undershoot at the top
    draws = np.searchsorted(cdf, rng.random(n_runs), side="right")
    n = dist.n_observers
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = ((draws[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return BitRecord(observers=dist.observers, runs=bits, seed=int(seed))


def empirical_distribution(record: BitRecord) -> OutcomeDistribution:
    """Relative outcome frequencies of a bit record.

    The counts are carried alongside the float probabilities, so the
    underlying rational weights (which sum to exactly 1) stay recoverable.
    """
    n = len(record.observers)
    weights = (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
    idx = record.runs.astype(np.int64) @ weights
    counts = np.bincount(idx, minlength=2**n)
    total = record.n_runs
    return OutcomeDistribution(
        observers=record.observers,
        probs=counts / total,
        provenance="empirical",
        counts=counts,
        n_samples=total,
    )


def total_variation(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Total-variation distance between two distributions on the same observers."""
    if p.observers != q.observers:
        raise ValueError("distributions must share observers in the same order")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


@dataclass(frozen=True)
class ConvergenceRow:
    n_samples: int
    tv_distance: float
    distance_dev: dict
    area_dev: float | None


def convergence_report(
    state: StateVector,
    settings: Sequence[DetectorSetting],
    n_schedule: Sequence[int],
    seed: int,
) -> list[ConvergenceRow]:
    """Empirical-vs-exact error at each sample size in an increasing schedule.

    Each schedule entry samples from an independent substream spawned
    deterministically from the master seed.  Rows report total-variation
    distance to the exact joint plus absolute deviations of every pairwise
    information distance (and the triangle area for three observers).  The
    entries' entropy tables are computed as one batch.
    """
    schedule = [int(n) for n in n_schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"n_schedule must be strictly increasing, got {schedule}")
    exact = joint_distribution(state, settings)
    exact_table = build_entropy_table(exact)
    labels = exact.observers
    pairs = [(x, y) for i, x in enumerate(labels) for y in labels[i + 1:]]
    exact_d = {pair: distance(exact_table, *pair) for pair in pairs}
    exact_area = area(exact_table, *labels) if len(labels) == 3 else None
    if not schedule:
        return []

    children = np.random.SeedSequence(seed).spawn(len(schedule))
    emps = [
        empirical_distribution(
            sample_runs(exact, n_runs, seed=int(child.generate_state(1, np.uint64)[0]))
        )
        for n_runs, child in zip(schedule, children)
    ]
    # row k of every batched entropy, distance and area is schedule entry k
    emp_table = EntropyTable(labels, subset_entropies(np.stack([e.probs for e in emps])))
    d_dev = {pair: abs(distance(emp_table, *pair) - exact_d[pair]) for pair in pairs}
    a_dev = abs(area(emp_table, *labels) - exact_area) if exact_area is not None else None
    return [
        ConvergenceRow(
            n_samples=n_runs,
            tv_distance=total_variation(emp, exact),
            distance_dev={pair: float(dev[k]) for pair, dev in d_dev.items()},
            area_dev=None if a_dev is None else float(a_dev[k]),
        )
        for k, (n_runs, emp) in enumerate(zip(schedule, emps))
    ]


def format_bit_record(record: BitRecord) -> str:
    """Render a record as text: one '0'/'1' row per run, observer columns."""
    header = f"# observers={','.join(record.observers)} seed={record.seed}\n"
    text = np.empty((record.n_runs, len(record.observers) + 1), dtype=np.uint8)
    text[:, :-1] = record.runs + ord("0")
    text[:, -1] = ord("\n")
    return header + text.tobytes().decode("ascii")


def write_bit_record(record: BitRecord, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_bit_record(record))


def parse_bit_record(text: str) -> BitRecord:
    """Inverse of :func:`format_bit_record`.

    Malformed text raises a ValueError naming the missing header field, or
    the line number and the row at fault.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("bit record text must start with a '# observers=... seed=...' header")
    header = lines[0][1:].strip()
    fields = dict(part.split("=", 1) for part in header.split() if "=" in part)
    for key in ("observers", "seed"):
        if key not in fields:
            raise ValueError(f"bit record header {lines[0]!r} has no '{key}=' field")
    observers = tuple(fields["observers"].split(","))
    seed = int(fields["seed"])
    width = len(observers)
    rows = lines[1:]
    # one byte per bit; any other character encodes to a byte above '1'
    bits = np.frombuffer("".join(rows).encode(errors="replace"), dtype=np.uint8) - ord("0")
    if set(map(len, rows)) - {width} or np.any(bits > 1):
        numbered = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        k, row = next((k, r) for k, r in numbered[1:] if len(r) != width or r.strip("01"))
        raise ValueError(
            f"line {k}: expected {width} '0'/'1' characters (one per observer), got {row!r}"
        )
    runs = bits.reshape(len(rows), width) if rows else bits
    return BitRecord(observers=observers, runs=runs, seed=seed)
