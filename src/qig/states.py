"""Pure n-photon polarization states and single-detector projectors.

Basis convention, fixed across the package: each qubit slot is one photon,
basis 0 is vertical polarization |v>, basis 1 is horizontal |h>.  Amplitude
index is the lexicographic bit string with slot 0 (observer A) as the most
significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12
# inputs with |norm - 1| up to this are silently renormalized on load
LOAD_NORM_TOL = 1e-6

NAMED_STATES = ("ghz", "w", "product_v", "singlet_sym", "singlet_antisym")


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector for n qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = int(self.n_qubits)
        if n < 1:
            raise ValueError(f"n_qubits must be positive, got {n}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != 2**n:
            raise ValueError(
                f"expected {2**n} amplitudes for {n} qubits, got shape {amps.shape}"
            )
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm2!r}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amps)

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis of length 2 per qubit slot."""
        return self.amplitudes.reshape((2,) * self.n_qubits)


@dataclass(frozen=True)
class DetectorSetting:
    """One observer's measurement axis.

    ``polar`` is the linear-polarizer rotation angle from vertical; the
    triggering direction is cos(polar)|v> + e^{i azimuth} sin(polar)|h>.
    All tabletop scenarios in this package sit at azimuth 0 (linearly
    polarized light); the phase is kept for generality.
    """

    observer: str
    polar: float
    azimuth: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.polar) and np.isfinite(self.azimuth)):
            raise ValueError(f"detector angles must be finite, got {self!r}")


@dataclass(frozen=True)
class Projector:
    """Rank-1 outcome projector for a single detector; outcome 1 = trigger."""

    outcome: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {self.outcome}")
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"projector must be 2x2, got {m.shape}")
        if not np.allclose(m, m.conj().T, atol=NORM_TOL):
            raise ValueError("projector is not Hermitian")
        if not np.allclose(m @ m, m, atol=NORM_TOL):
            raise ValueError("projector is not idempotent")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError("projector trace must be 1 (rank-1 outcome)")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def detector_projectors(setting: DetectorSetting) -> tuple[Projector, Projector]:
    """Return the (outcome-0, outcome-1) projector pair for one detector.

    Outcome 1 projects onto cos(t)|v> + e^{i p} sin(t)|h>, outcome 0 onto the
    orthogonal direction.  The pair resolves the identity exactly.
    """
    t, p = setting.polar, setting.azimuth
    trig = np.array([np.cos(t), np.exp(1j * p) * np.sin(t)], dtype=complex)
    dark = np.array([-np.sin(t), np.exp(1j * p) * np.cos(t)], dtype=complex)
    p1 = np.outer(trig, trig.conj())
    p0 = np.outer(dark, dark.conj())
    return Projector(0, p0), Projector(1, p1)


def make_named_state(name: str, n: int) -> StateVector:
    """Build one of the named states on n qubits.

    ghz      (|0...0> + |1...1>)/sqrt(2), any n >= 2
    w        uniform superposition of the n strings with exactly one 0, n >= 2
    product_v |0>^n, fully separable, any n >= 2
    singlet_sym     (|00> + |11>)/sqrt(2), n = 2 only
    singlet_antisym (|01> - |10>)/sqrt(2), n = 2 only
    """
    if name not in NAMED_STATES:
        raise ValueError(f"unknown state name {name!r}; choose from {NAMED_STATES}")
    if n < 2:
        raise ValueError(f"named states need n >= 2, got n={n}")
    dim = 2**n
    amps = np.zeros(dim, dtype=complex)
    if name == "ghz":
        amps[0] = amps[dim - 1] = 1.0 / np.sqrt(2.0)
    elif name == "w":
        # strings with exactly one 0 bit: all-ones minus one power of two
        for k in range(n):
            amps[(dim - 1) ^ (1 << k)] = 1.0 / np.sqrt(n)
    elif name == "product_v":
        amps[0] = 1.0
    elif name == "singlet_sym":
        if n != 2:
            raise ValueError("singlet_sym is a 2-qubit state")
        amps[0b00] = amps[0b11] = 1.0 / np.sqrt(2.0)
    else:  # singlet_antisym
        if n != 2:
            raise ValueError("singlet_antisym is a 2-qubit state")
        amps[0b01] = 1.0 / np.sqrt(2.0)
        amps[0b10] = -1.0 / np.sqrt(2.0)
    return StateVector(n, amps)


def load_state(path) -> StateVector:
    """Read a state from a text file.

    Format: optional '#' comment lines, then a header line holding n, then
    2^n lines each holding "re im" for one amplitude in index order.  Inputs
    whose norm deviates from 1 by more than 1e-6 are rejected; smaller
    deviations are renormalized.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty state file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}: header line must hold the qubit count") from None
    if n < 1:
        raise ValueError(f"{path}: qubit count must be positive, got {n}")
    body = lines[1:]
    if len(body) != 2**n:
        raise ValueError(f"{path}: expected {2**n} amplitude lines, found {len(body)}")
    amps = np.empty(2**n, dtype=complex)
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: line {i + 2}: expected 're im' pair, got {ln!r}")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"{path}: line {i + 2}: non-numeric amplitude {ln!r}") from None
        amps[i] = complex(re, im)
    norm = float(np.linalg.norm(amps))
    if norm < LOAD_NORM_TOL:
        raise ValueError(f"{path}: zero state vector")
    if abs(norm - 1.0) > LOAD_NORM_TOL:
        raise ValueError(f"{path}: norm {norm!r} deviates from 1 by more than {LOAD_NORM_TOL}")
    return StateVector(n, amps / norm)
