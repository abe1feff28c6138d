"""Reference geometry for the benchmark's output checks, built with numpy only.

Nothing here imports qig.  Every quantity is computed from the definitions
the package documents: the Born rule for rank-1 polarizer projectors, base-2
Shannon entropies with the ``0 log 0 = 0`` convention (probabilities at or
below 1e-15 count as zeros), the Rajski distance ``D = 2 H(XY) - H(X) - H(Y)``,
the information area as ``e2`` of the fully conditioned entropies, and
Heron's formula with factors within 1e-12 of zero snapped to zero.  The
closed forms at the end hold for the named states and serve as a second,
formula-level check on the numerical reference.
"""

from __future__ import annotations

import math

import numpy as np

ZERO_EPS = 1e-15
SNAP_TOL = 1e-12
UNDEFINED = -1.0


# ---------------------------------------------------------------------------
# states and the Born table


def named_state(name: str, n: int) -> np.ndarray:
    """Amplitudes of ghz / w / product / singlet-sym / singlet-antisym.

    Basis index is the bit string with slot 0 as the most significant bit;
    basis 0 is vertical polarization.
    """
    amps = np.zeros(2**n, dtype=complex)
    if name == "ghz":
        amps[0] = amps[-1] = math.sqrt(0.5)
    elif name == "w":
        # every string with exactly one 0 bit
        for k in range(n):
            amps[(2**n - 1) - 2**k] = 1.0 / math.sqrt(n)
    elif name == "product":
        amps[0] = 1.0
    elif name == "singlet-sym":
        amps[0b00] = amps[0b11] = math.sqrt(0.5)
    elif name == "singlet-antisym":
        amps[0b01], amps[0b10] = math.sqrt(0.5), -math.sqrt(0.5)
    else:
        raise ValueError(f"unknown state {name!r}")
    return amps


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense pure state with independent Gaussian real and imaginary parts."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def born_table(amps, polars, azimuths=None) -> np.ndarray:
    """Joint outcome probabilities, one detector per qubit slot.

    Outcome 1 of a detector at (t, p) projects onto
    ``cos t |v> + e^{ip} sin t |h>``, outcome 0 onto the orthogonal
    direction ``-sin t |v> + e^{ip} cos t |h>``.  The amplitude of an
    outcome string is the overlap of the state with the product of those
    directions, contracted one slot at a time.
    """
    n = len(polars)
    azimuths = np.zeros(n) if azimuths is None else azimuths
    psi = np.asarray(amps, dtype=complex).reshape(2**n)
    for k, (t, p) in enumerate(zip(polars, azimuths)):
        phase = np.exp(1j * p)
        directions = np.array(
            [[-math.sin(t), phase * math.cos(t)], [math.cos(t), phase * math.sin(t)]]
        )
        block = psi.reshape(2**k, 2, 2 ** (n - k - 1))
        psi = np.einsum("ob,lbr->lor", directions.conj(), block).reshape(-1)
    return np.abs(psi) ** 2


# ---------------------------------------------------------------------------
# entropies


def entropy(probs) -> float:
    """Shannon entropy in bits with the 0 log 0 convention."""
    p = np.asarray(probs, dtype=float).ravel()
    p = p[p > ZERO_EPS]
    return float(-(p * np.log2(p)).sum())


def h2(x: float) -> float:
    """Binary entropy in bits."""
    return entropy([x, 1.0 - x])


def marginal(probs, n: int, slots) -> np.ndarray:
    """Probabilities of the observers in ``slots`` (others summed out)."""
    drop = tuple(k for k in range(n) if k not in set(slots))
    table = np.asarray(probs, dtype=float).reshape((2,) * n)
    return table.sum(axis=drop) if drop else table


def subset_entropy(probs, n: int, slots) -> float:
    return entropy(marginal(probs, n, slots))


def pair_distance(probs, n: int, i: int, j: int) -> float:
    """Rajski distance 2 H(ij) - H(i) - H(j)."""
    return (
        2.0 * subset_entropy(probs, n, (i, j))
        - subset_entropy(probs, n, (i,))
        - subset_entropy(probs, n, (j,))
    )


def conditioned(probs, n: int, slots) -> list[float]:
    """H(v | the other listed observers) for each v in ``slots``."""
    h_all = subset_entropy(probs, n, slots)
    return [h_all - subset_entropy(probs, n, [u for u in slots if u != v]) for v in slots]


def elementary_symmetric(values, k: int) -> float:
    """e_k by the generating-polynomial recurrence prod (1 + v x)."""
    coeffs = [1.0] + [0.0] * len(values)
    for v in values:
        for j in range(len(values), 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs[k]


def heron(a: float, b: float, c: float) -> float | None:
    """Euclidean area of sides a, b, c; None when a triangle inequality fails."""
    factors = [a + b - c, a - b + c, -a + b + c]
    if min(factors) < -SNAP_TOL:
        return None
    snapped = [0.0 if abs(f) <= SNAP_TOL else f for f in factors]
    return 0.25 * math.sqrt(snapped[0] * snapped[1] * snapped[2] * (a + b + c))


def face(d, a_info: float) -> dict:
    """A face with edges ``d`` and information area ``a_info``: its Heron area,
    or the -1 sentinel when a triangle inequality fails, and the ratio of the
    two areas, or -1 when either is unavailable."""
    a_euclid = heron(*d)
    defined = a_euclid is not None
    return {
        "d": tuple(d),
        "area_info": a_info,
        "area_euclid": a_euclid if defined else UNDEFINED,
        "euclid_defined": defined,
        "ratio": a_euclid / a_info if defined and a_info >= SNAP_TOL else UNDEFINED,
    }


def triangle(probs, n: int, slots) -> dict:
    """:func:`face` of one observer triple, edges in the order ij, ik, jk."""
    i, j, k = slots
    d = [pair_distance(probs, n, *e) for e in ((i, j), (i, k), (j, k))]
    return face(d, elementary_symmetric(conditioned(probs, n, slots), 2))


def margin(d, a1: float, a2: float, b1: float, b2: float) -> float:
    """Detour margin d(a1,b2) - [d(a1,b1) + d(a2,b1) + d(a2,b2)] of a pair,
    where ``d(a, b)`` is the distance between detectors at polars a and b."""
    return d(a1, b2) - (d(a1, b1) + d(a2, b1) + d(a2, b2))


def total_variation(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


# ---------------------------------------------------------------------------
# bit records


def format_record(observers, seed: int, runs: np.ndarray) -> bytes:
    """Header line then one '0'/'1' row per run, each ending in a newline."""
    runs = np.asarray(runs, dtype=np.uint8)
    body = np.empty((runs.shape[0], runs.shape[1] + 1), dtype=np.uint8)
    body[:, :-1] = runs + ord("0")
    body[:, -1] = ord("\n")
    header = f"# observers={','.join(observers)} seed={seed}\n".encode()
    return header + body.tobytes()


def record_counts(body: bytes, n: int) -> np.ndarray:
    """Outcome counts of a record body of fixed-width '0'/'1' rows."""
    if len(body) % (n + 1):
        raise ValueError("record body is not made of equal rows")
    rows = np.frombuffer(body, dtype=np.uint8).reshape(-1, n + 1)
    if np.any(rows[:, -1] != ord("\n")):
        raise ValueError("record row without a newline at its end")
    bits = rows[:, :-1].astype(np.int64) - ord("0")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("record row holds a character other than 0 or 1")
    index = bits @ (1 << np.arange(n - 1, -1, -1))
    return np.bincount(index, minlength=2**n)


# ---------------------------------------------------------------------------
# closed forms


def product_entropies(polars) -> list[float]:
    """Per-observer entropies h(cos^2 t) of the all-vertical product state;
    H(S) is the sum over S, so d(i, j) = h_i + h_j."""
    return [h2(math.cos(t) ** 2) for t in polars]


def w_subset_entropy(n: int, k: int) -> float:
    """H of any k observers of wN with every polar at 0: one trigger sits
    among the k with probability k/n, each place 1/n."""
    rest = (n - k) / n
    return (-rest * math.log2(rest) if rest > 0 else 0.0) + (k / n) * math.log2(n)


def singlet_distance(a: float, b: float) -> float:
    """D(a, b) = 2 h(sin^2(a - b)) for either photon singlet."""
    return 2.0 * h2(math.sin(a - b) ** 2)
