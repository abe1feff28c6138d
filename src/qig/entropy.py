"""Shannon entropy machinery over outcome distributions, in bits.

Base-2 logarithms throughout: a fair detector bit carries exactly 1 bit.
The 0 log 0 convention is applied, with probabilities below 1e-15 treated
as exact zeros to keep floating-point log noise out of the sums.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .born import ZERO_EPS, OutcomeDistribution, marginalize


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """-sum p log2 p along the last axis of float[N, m], with 0 log 0 = 0."""
    logs = np.log2(p, out=np.zeros(p.shape), where=p > ZERO_EPS)
    return -(p * logs).sum(axis=-1)


def entropy_bits(probs) -> float:
    """-sum p log2 p over a probability vector, with 0 log 0 = 0."""
    return float(_row_entropies(np.asarray(probs, dtype=float).reshape(1, -1))[0])


def shannon(dist: OutcomeDistribution, subset: Sequence[str] | None = None) -> float:
    """Entropy of the distribution restricted to ``subset`` (default: all)."""
    if subset is not None and tuple(subset) != dist.observers:
        dist = marginalize(dist, subset)
    return entropy_bits(dist.probs)


def conditional_entropy(
    dist: OutcomeDistribution, target: Sequence[str], given: Sequence[str]
) -> float:
    """H(target | given) = H(target+given) - H(given).

    The difference form is used instead of summing conditional terms
    directly: it is identical for strictly positive distributions and stays
    well defined where individual conditionals are undefined.
    """
    target, given = tuple(target), tuple(given)
    if set(target) & set(given):
        raise ValueError("target and given observer sets must be disjoint")
    if not given:
        return shannon(dist, target)
    return shannon(dist, target + given) - shannon(dist, given)


_LEVEL_WALK_ENTRIES = 1 << 20  # largest subtree (entries over all its nodes) walked by level


@functools.cache
def _level_plan(width: int, first: int):
    """Per level of the subtree below a node of ``width`` observers whose children
    drop positions ``first`` and up: int[nodes, width], 1 where a node keeps that
    observer, and (pos, m, at) steps: parents ``level[:m]`` drop position pos into
    ``next[at:at + m]``.  Nodes go in order of the position they dropped."""
    levels, nodes = [], [(first, tuple(range(width)))]  # (dropped position, kept)
    for w in range(width, max(first, 1) - 1, -1):  # deepest nodes keep ``first`` observers
        steps, children = [], []
        for pos in range(first, w if w > 1 else 0):
            m = sum(dropped <= pos for dropped, _ in nodes)
            steps.append((pos, m, len(children)))
            children += [(pos, keep[:pos] + keep[pos + 1:]) for _, keep in nodes[:m]]
        kept = np.array([[i in keep for i in range(width)] for _, keep in nodes], dtype=np.int64)
        levels.append((kept, steps, len(children)))
        nodes = children
    return levels


def subset_entropies(probs) -> np.ndarray:
    """Joint entropies float[2^n, N] of every observer subset of N tables [N, 2^n].

    Row s belongs to the subset holding observer k where bit k of s is set;
    row 0, the empty subset, is 0.  Each marginal is summed from its parent's
    over one observer, dropped in increasing position (Yates' method): about
    2 * 3^n work per table.  Subtrees of up to ``_LEVEL_WALK_ENTRIES`` entries
    go one level (subset size) at a time, one entropy call per level and one
    add per level and dropped position; larger ones depth first, so O(2^n)
    memory is live.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[1] < 2 or probs.shape[1] & (probs.shape[1] - 1):
        raise ValueError(f"need outcome tables of shape [N, 2^n], got {probs.shape}")
    rows, size = probs.shape
    h = np.zeros((size, rows))

    def walk(marg, observers, first):
        # marg is float[rows, 2^w] over the global observer indices ``observers``
        w = len(observers)
        if rows * 2**first * 3 ** (w - first) <= _LEVEL_WALK_ENTRIES:
            return walk_levels(marg[None], np.left_shift(1, observers), first)
        h[sum(1 << k for k in observers)] = _row_entropies(marg)
        for pos in range(first, w if w > 1 else 0):
            pairs = marg.reshape(rows, 2**pos, 2, -1)
            walk((pairs[:, :, 0] + pairs[:, :, 1]).reshape(rows, -1),
                 observers[:pos] + observers[pos + 1:], pos)

    def walk_levels(level, weights, first):
        # level is float[nodes, rows, 2^w]; the same pairwise sums as walk()
        for kept, steps, count in _level_plan(len(weights), first):
            nodes, _, width = level.shape
            h[kept @ weights] = _row_entropies(level.reshape(-1, width)).reshape(nodes, rows)
            below = np.empty((count, rows, width // 2))
            for pos, m, at in steps:
                pairs = level[:m].reshape(m, rows, 2**pos, 2, -1)
                np.add(pairs[:, :, :, 0], pairs[:, :, :, 1],
                       out=below[at:at + m].reshape(m, rows, 2**pos, -1))
            level = below

    walk(probs, tuple(range(size.bit_length() - 1)), 0)
    return h


class EntropyTable:
    """Joint entropies for every nonempty observer subset, indexed as in
    :func:`subset_entropies`: floats for one table, arrays over a batch."""

    def __init__(self, observers: Sequence[str], entropies):
        self.observers = tuple(observers)
        self._bits = {o: 1 << k for k, o in enumerate(self.observers)}
        self._h = np.asarray(entropies, dtype=float)

    def joint(self, *labels: str):
        """H of the given observer subset (order irrelevant)."""
        try:
            mask = sum({self._bits[label] for label in labels})
        except KeyError:
            unknown = set(labels) - set(self.observers)
            raise ValueError(f"unknown observers {sorted(unknown)}") from None
        if not mask:
            raise ValueError("joint entropy needs at least one observer")
        return self._h[mask] if self._h.ndim > 1 else float(self._h[mask])

    def conditional(self, target: Sequence[str] | str, given: Sequence[str] | str):
        """H(target | given) via the joint-entropy difference."""
        t = frozenset([target] if isinstance(target, str) else target)
        g = frozenset([given] if isinstance(given, str) else given)
        if t & g:
            raise ValueError("target and given observer sets must be disjoint")
        if not g:
            return self.joint(*t)
        return self.joint(*(t | g)) - self.joint(*g)

    def restrict(self, groups: Sequence[Sequence[str]], names: Sequence[str]) -> EntropyTable:
        """Batched table over ``names``, which in row f stand for ``groups[f]``."""
        h, k = self._h, len(names)
        if h.ndim != 1:
            raise ValueError(f"need one run's entropy table, got a batch of {h.shape[1]}")
        if bad := [list(g) for g in groups if len(g) != k]:
            raise ValueError(f"groups {bad} do not have the {k} observers of {list(names)}")
        if unknown := {o for g in groups for o in g} - set(self.observers):
            raise ValueError(f"unknown observers {sorted(unknown)}")
        bits = np.array([[self._bits[o] for o in g] for g in groups], dtype=int).reshape(-1, k)
        return EntropyTable(names, h[(np.arange(2**k)[:, None] >> np.arange(k) & 1) @ bits.T])

    def subsets(self):
        h = self._h if self._h.ndim > 1 else self._h.tolist()
        return {
            frozenset(o for o, bit in self._bits.items() if mask & bit): h[mask]
            for mask in range(1, 2 ** len(self.observers))
        }


def build_entropy_table(dist: OutcomeDistribution) -> EntropyTable:
    """Compute H for all 2^n - 1 nonempty observer subsets.

    The one-table case of :func:`subset_entropies`: about 2 * 3^n work and
    O(2^n) memory (on a 2-vCPU x86-64 VM, n = 16 / 18 / 20 took 0.45 / 4.1 /
    34 s and raised peak RSS by 10 / 14 / 19 MiB).  Tables over more than 20
    observers are refused.  Row 0, the empty subset, is 0 and never read.
    """
    n = dist.n_observers
    if n > 20:
        raise ValueError(f"entropy table capped at 20 observers, got {n}")
    return EntropyTable(dist.observers, subset_entropies(dist.probs[None])[:, 0])
