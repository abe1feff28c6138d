"""Information geometry over entropy tables: lengths, areas, volumes.

The edge length between two measurement records is the Rokhlin-Rajski
distance D(X,Y) = H(X|Y) + H(Y|X) = 2 H(XY) - H(X) - H(Y).  Its simplex
generalizations used here are elementary symmetric polynomials of the fully
conditioned entropies: e2 over three vertices gives a triangle area (bits^2),
e3 over four gives a tetrahedron volume (bits^3), and e_{m-1} over m vertices
extends the ladder.  The m > 4 rungs are an extrapolation of that pattern,
not an independently established quantity; they reduce exactly to the lower
rungs for m <= 4.

Euclidean comparisons (Heron areas, Cayley-Menger embeddability) treat the
information distances as if they were straight-line lengths, which is
exactly where entangled states can break the rules of flat geometry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .born import joint_probs
from .entropy import EntropyTable, subset_entropies
from .states import DetectorSetting, StateVector

# margins / Heron factors within this of zero count as exact zeros, so
# float noise on exactly-degenerate triangles never raises a flag
VIOLATION_TOL = 1e-12

# dual-form agreement guard for the triangle area
AREA_FORM_TOL = 1e-10

# sentinel for undefined ratio / Euclidean area fields (kept NaN-free so
# CSV and JSON round-trip identically); real values are never negative
UNDEFINED = -1.0


def _conditioned(table: EntropyTable, labels: Sequence[str]) -> list[float]:
    """H(v | all other listed vertices) for each vertex v."""
    labels = list(labels)
    return [
        table.conditional(v, [u for u in labels if u != v])
        for v in labels
    ]


def _elementary_symmetric(values: Sequence[float], k: int) -> float:
    total = 0.0
    for combo in itertools.combinations(values, k):
        total += math.prod(combo)
    return total


def _snap(x):
    """Float or array ``x`` with values within VIOLATION_TOL of zero set to 0.0."""
    return x * (abs(x) > VIOLATION_TOL) + 0.0  # + 0.0 turns -0.0 into 0.0


def distance(table: EntropyTable, x: str, y: str) -> float:
    """Information distance 2 H(XY) - H(X) - H(Y), in bits."""
    if x == y:
        raise ValueError("distance needs two distinct observers")
    x, y = sorted((x, y))  # canonical evaluation order: symmetry is bit-exact
    return 2.0 * table.joint(x, y) - table.joint(x) - table.joint(y)


def area(table: EntropyTable, x: str, y: str, z: str) -> float:
    """Information area of a triangle of observers, in bits^2.

    Symmetric sum of pairwise products of the three fully conditioned
    entropies.  An equivalent expansion purely in joint entropies is
    evaluated alongside as a self-check; disagreement beyond 1e-10 means a
    broken entropy table and raises.  Values within 1e-12 of zero snap to 0.
    A batched table gives one area per row, each row self-checked.
    """
    labels = tuple(sorted((x, y, z)))
    if len(set(labels)) != 3:
        raise ValueError("area needs three distinct observers")
    x, y, z = labels
    cond = _conditioned(table, labels)
    value = _elementary_symmetric(cond, 2)

    h3 = table.joint(*labels)
    h_xy, h_yz, h_xz = table.joint(x, y), table.joint(y, z), table.joint(x, z)
    poly = (
        3.0 * h3 * h3
        - 2.0 * (h_xy + h_yz + h_xz) * h3
        + (h_xz * h_yz + h_xy * h_xz + h_xy * h_yz)
    )
    gap = abs(value - poly)
    if np.any(gap > AREA_FORM_TOL):
        k = np.argmax(gap)  # the worst row of a batch
        raise ArithmeticError(
            "triangle area forms disagree: conditioned "
            f"{np.ravel(value)[k]!r} vs polynomial {np.ravel(poly)[k]!r}"
        )
    return _snap(value)


def volume(table: EntropyTable, w: str, x: str, y: str, z: str) -> float:
    """Information volume of a tetrahedron of observers, in bits^3.

    e3 of the four fully conditioned entropies, i.e. the sum of the four
    distinct triple products, the symmetric continuation of the
    distance/area ladder.
    """
    labels = tuple(sorted((w, x, y, z)))
    if len(set(labels)) != 4:
        raise ValueError("volume needs four distinct observers")
    return _elementary_symmetric(_conditioned(table, labels), 3)


def k_volume(table: EntropyTable, vertices: Sequence[str]) -> float:
    """Generalized simplex content e_{m-1} over m vertices, in bits^(m-1).

    m = 2, 3, 4 reduce exactly to distance, area and volume.  Higher m
    extrapolates the same elementary-symmetric pattern (see module notes).
    """
    labels = sorted(vertices)
    if len(labels) < 2:
        raise ValueError("k_volume needs at least two vertices")
    if len(set(labels)) != len(labels):
        raise ValueError("k_volume vertices must be distinct")
    return _elementary_symmetric(_conditioned(table, labels), len(labels) - 1)


@dataclass(frozen=True)
class HeronResult:
    """Euclidean triangle area from three side lengths, or the violation.

    ``area`` is set when the three lengths close a (possibly degenerate)
    Euclidean triangle; otherwise ``violated`` is True and ``deficit``
    carries the most negative Heron factor.
    """

    area: float | None
    violated: bool
    deficit: float = 0.0

    @property
    def defined(self) -> bool:
        return self.area is not None


def _heron(d_ab, d_ac, d_bc):
    """(area, defined, deficit) of side lengths, floats or arrays alike.

    Where a factor is below -1e-12 the area is UNDEFINED, ``defined`` False
    and ``deficit`` the most negative factor; see :func:`heron_area`.
    """
    f1, f2, f3 = d_ab + d_ac - d_bc, d_ab - d_ac + d_bc, -d_ab + d_ac + d_bc
    f4 = d_ab + d_ac + d_bc
    deficit = np.minimum(np.minimum(f1, f2), f3)
    defined = deficit >= -VIOLATION_TOL
    product = _snap(f1) * _snap(f2) * _snap(f3) * _snap(f4)
    area = np.where(defined, 0.25 * np.sqrt(np.where(defined, product, 0.0)), UNDEFINED)
    return area, defined, deficit


def _heron_result(area, defined, deficit) -> HeronResult:
    if defined:
        return HeronResult(area=float(area), violated=False)
    return HeronResult(area=None, violated=True, deficit=float(deficit))


def heron_area(d_ab: float, d_ac: float, d_bc: float) -> HeronResult:
    """Heron's formula with explicit triangle-inequality detection.

    Factors within 1e-12 of zero are snapped to zero so exactly degenerate
    triangles report area 0 rather than square-rooted float noise; a factor
    below -1e-12 is a genuine inequality violation and makes the radicand
    imaginary.
    """
    if min(d_ab, d_ac, d_bc) < -VIOLATION_TOL:
        raise ValueError("side lengths must be nonnegative")
    return _heron_result(*_heron(d_ab, d_ac, d_bc))


@dataclass(frozen=True)
class PathCheck:
    """Direct edge vs a three-edge detour; violated when direct is longer."""

    direct: float
    path_sum: float
    margin: float
    violated: bool


def quad_path_check(d_direct: float, d_1: float, d_2: float, d_3: float) -> PathCheck:
    """Check the quadrilateral inequality direct <= leg1 + leg2 + leg3.

    Array lengths check a batch of quadrilaterals, one value per field each.
    """
    if any(np.any(d < -VIOLATION_TOL) for d in (d_direct, d_1, d_2, d_3)):
        raise ValueError("lengths must be nonnegative")
    path_sum = d_1 + d_2 + d_3
    margin = d_direct - path_sum
    return PathCheck(
        direct=d_direct,
        path_sum=path_sum,
        margin=margin,
        violated=margin > VIOLATION_TOL,
    )


# ---------------------------------------------------------------------------
# Cayley-Menger embeddability


@dataclass(frozen=True)
class SubsetCheck:
    points: tuple[int, ...]
    determinant: float
    kind: str  # "sign" for simplex-volume sign, "flatness" for excess dimensions
    ok: bool


@dataclass(frozen=True)
class EmbeddabilityReport:
    dim: int
    embeddable: bool
    checks: tuple[SubsetCheck, ...]

    def failures(self) -> list[SubsetCheck]:
        return [c for c in self.checks if not c.ok]


def _cayley_menger_det(sq: np.ndarray) -> float:
    m = sq.shape[0]
    bordered = np.ones((m + 1, m + 1))
    bordered[0, 0] = 0.0
    bordered[1:, 1:] = sq
    return float(np.linalg.det(bordered))


def cayley_menger_embeddable(lengths, target_dim: int) -> EmbeddabilityReport:
    """Decide Euclidean embeddability of a finite metric in ``target_dim``.

    ``lengths`` is a complete symmetric distance matrix; a missing (NaN)
    entry is rejected, since the test needs every pairwise length.  For every
    point subset, the sign of its Cayley-Menger determinant must be
    compatible with a nonnegative squared simplex volume; subsets larger
    than target_dim + 1 points must additionally be flat (zero volume).
    Each subset's verdict is reported so failures can be localized.
    """
    d = np.asarray(lengths, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"expected a square distance matrix, got shape {d.shape}")
    if np.any(np.isnan(d)):
        raise ValueError("incomplete edge set: distance matrix holds NaN entries")
    if not np.allclose(d, d.T, atol=1e-9) or np.any(np.abs(np.diag(d)) > 1e-12):
        raise ValueError("distance matrix must be symmetric with zero diagonal")
    if np.any(d < -VIOLATION_TOL):
        raise ValueError("distances must be nonnegative")
    if target_dim < 1:
        raise ValueError(f"target_dim must be >= 1, got {target_dim}")
    m = d.shape[0]
    sq = d * d
    scale = max(1.0, float(sq.max()))
    checks = []
    embeddable = True
    for size in range(3, m + 1):
        for points in itertools.combinations(range(m), size):
            det = _cayley_menger_det(sq[np.ix_(points, points)])
            tol = 1e-9 * scale ** (size - 1) * math.factorial(size)
            # squared (size-1)-simplex volume carries sign (-1)^size * det
            signed = (-1.0) ** size * det
            if size <= target_dim + 1:
                ok = signed >= -tol
                checks.append(SubsetCheck(points, det, "sign", ok))
            else:
                ok = signed >= -tol and abs(det) <= tol
                kind = "flatness" if signed >= -tol else "sign"
                checks.append(SubsetCheck(points, det, kind, ok))
            embeddable = embeddable and ok
    return EmbeddabilityReport(dim=target_dim, embeddable=embeddable, checks=tuple(checks))


# ---------------------------------------------------------------------------
# Whole-simplex and octahedron reports


@dataclass(frozen=True)
class FaceGeometry:
    vertices: tuple[str, str, str]
    area_info: float
    heron: HeronResult
    ratio: float  # Euclidean over information area; UNDEFINED sentinel when unavailable

    @property
    def cm_embeddable_2d(self) -> bool:
        """Heron's verdict: the 3-point Cayley-Menger det is -16 Heron^2."""
        return self.heron.defined

    def as_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "area_info": self.area_info,
            "area_euclid": self.heron.area if self.heron.defined else UNDEFINED,
            "euclid_defined": self.heron.defined,
            "triangle_violated": self.heron.violated,
            "ratio": self.ratio,
            "cm_embeddable_2d": self.cm_embeddable_2d,
        }


def triangle(table: EntropyTable, x: str, y: str, z: str) -> tuple:
    """(d_xy, d_xz, d_yz, area_info, area_euclid, euclid_defined, deficit,
    ratio) of the triangle (x, y, z): scalars, or arrays over a batched table.

    Where the edges break the triangle inequality, ``area_euclid`` and
    ``ratio`` are UNDEFINED and ``deficit`` is the most negative Heron
    factor; ``ratio`` is also UNDEFINED where ``area_info`` is below 1e-12.
    """
    d_xy, d_xz, d_yz = distance(table, x, y), distance(table, x, z), distance(table, y, z)
    a_info = area(table, x, y, z)
    a_euclid, defined, deficit = _heron(d_xy, d_xz, d_yz)
    has_ratio = defined & (a_info >= VIOLATION_TOL)
    ratio = np.where(has_ratio, a_euclid / np.where(has_ratio, a_info, 1.0), UNDEFINED)
    return d_xy, d_xz, d_yz, a_info, a_euclid, defined, deficit, ratio


def _face_geometry(table: EntropyTable, labels, vertices) -> list[FaceGeometry]:
    """Face of the triangle ``labels`` in each table row, named by ``vertices``."""
    columns = [np.atleast_1d(c).tolist() for c in triangle(table, *labels)[3:]]
    return [
        FaceGeometry(tuple(names), a_info, _heron_result(euclid, defined, deficit), ratio)
        for names, a_info, euclid, defined, deficit, ratio in zip(vertices, *columns)
    ]


@dataclass(frozen=True)
class SimplexGeometry:
    """Point geometry of one measurement run: all edges, faces, and (for
    four observers) the tetrahedron volume."""

    vertices: tuple[str, ...]
    edges: dict
    faces: tuple[FaceGeometry, ...]
    volume: float | None
    content: float  # e_{m-1} over all vertices (equals edge/area/volume for m <= 4)

    def as_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": {f"{u}-{v}": d for (u, v), d in self.edges.items()},
            "faces": [f.as_dict() for f in self.faces],
            "volume": self.volume,
            "content": self.content,
        }


def simplex_report(table: EntropyTable) -> SimplexGeometry:
    """Full geometry report for every observer in the entropy table of one run."""
    labels = table.observers
    if len(labels) < 2:
        raise ValueError("geometry needs at least two observers")
    pairs = list(itertools.combinations(labels, 2))
    ab = table.restrict([sorted(p) for p in pairs], "ab")
    edges = dict(zip(pairs, distance(ab, "a", "b").tolist()))
    batches = {}  # faces whose labels sort alike share a batch, so each runs as triangle() alone
    for f in itertools.combinations(labels, 3):
        batches.setdefault(tuple("abc"[sorted(f).index(v)] for v in f), []).append(f)
    built = {f: face for names, batch in batches.items()
             for f, face in zip(batch, _face_geometry(table.restrict(batch, names), names, batch))}
    faces = tuple(built[f] for f in itertools.combinations(labels, 3))
    vol = volume(table, *labels) if len(labels) == 4 else None
    return SimplexGeometry(labels, edges, faces, vol, content=k_volume(table, labels))


@dataclass(frozen=True)
class OctahedronReport:
    """Two detectors per observer on a tripartite state.

    Six vertices (observer x setting index), the 12 cross-observer edges,
    and the 8 one-setting-per-observer triangular faces.  Same-observer
    vertex pairs are mutually exclusive measurements and carry no edge, so
    whole-figure embeddability is only decidable when the caller supplies
    those three diagonal lengths.
    """

    vertices: tuple[str, ...]
    edges: dict
    faces: tuple[FaceGeometry, ...]
    path_checks: tuple[PathCheck, ...]
    path_labels: tuple[tuple[str, str, str, str], ...]
    full_embeddability: EmbeddabilityReport | None = field(default=None)

    def as_dict(self) -> dict:
        d = {
            "vertices": list(self.vertices),
            "edges": {f"{u}-{v}": val for (u, v), val in self.edges.items()},
            "faces": [f.as_dict() for f in self.faces],
            "path_checks": [
                {
                    "path": list(labels),
                    "direct": c.direct,
                    "path_sum": c.path_sum,
                    "margin": c.margin,
                    "violated": c.violated,
                }
                for labels, c in zip(self.path_labels, self.path_checks)
            ],
        }
        if self.full_embeddability is not None:
            d["octahedron_embeddable_3d"] = self.full_embeddability.embeddable
        return d


def octahedron_report(
    state: StateVector,
    setting_pairs: Sequence[Sequence[DetectorSetting]],
    diagonals: dict | None = None,
) -> OctahedronReport:
    """Geometry of the six-vertex figure from two settings per observer.

    ``setting_pairs`` holds exactly two settings per qubit slot; the two
    settings of one observer may coincide (edges then degenerate).  Each of
    the eight setting combinations is one measurement run; faces come from
    their own run's entropy table, and each edge comes from the pairwise
    marginal of a run containing both of its settings (the third observer's
    choice cannot influence it).

    ``diagonals`` may map each observer label to a caller-chosen
    same-observer vertex distance; when given, the completed 6-point edge
    set is tested for embeddability in 3 dimensions.
    """
    n = state.n_qubits
    if n != 3:
        raise ValueError(f"octahedron reports need a tripartite state, got n={n}")
    pairs = [tuple(p) for p in setting_pairs]
    if len(pairs) != 3 or any(len(p) != 2 for p in pairs):
        raise ValueError("need exactly two settings per observer for three observers")
    observers = []
    for p in pairs:
        if p[0].observer != p[1].observer:
            raise ValueError(f"setting pair mixes observers: {p[0].observer}, {p[1].observer}")
        observers.append(p[0].observer)
    if len(set(observers)) != 3:
        raise ValueError(f"observer labels must be distinct, got {observers}")

    def vertex(slot: int, idx: int) -> str:
        return f"{observers[slot]}{idx}"

    # the eight runs, one setting per observer, as one batch of tables
    combos = list(itertools.product((0, 1), repeat=3))
    runs = [[pairs[slot][combo[slot]] for slot in range(3)] for combo in combos]
    polars = [[s.polar for s in run] for run in runs]
    azimuths = [[s.azimuth for s in run] for run in runs]
    table = EntropyTable(observers, subset_entropies(joint_probs(state, polars, azimuths)))

    # edges: cross-observer vertex pairs, from a run holding both settings
    edges = {}
    for s1, s2 in itertools.combinations(range(3), 2):
        lengths = distance(table, observers[s1], observers[s2]).tolist()
        for i, j in itertools.product((0, 1), repeat=2):
            combo = [0, 0, 0]
            combo[s1], combo[s2] = i, j
            edges[(vertex(s1, i), vertex(s2, j))] = lengths[combos.index(tuple(combo))]

    faces = _face_geometry(
        table, observers, [[vertex(slot, combo[slot]) for slot in range(3)] for combo in combos]
    )

    def edge_length(u: str, v: str):
        return edges.get((u, v), edges.get((v, u)))

    # quadrilateral detours: direct edge vs every 3-edge path over distinct vertices
    all_vertices = [vertex(slot, i) for slot in range(3) for i in (0, 1)]
    path_checks, path_labels, seen = [], [], set()
    for quad in itertools.permutations(all_vertices, 4):
        key = quad if quad[0] < quad[3] else tuple(reversed(quad))
        if key in seen:
            continue
        legs = [edge_length(quad[k], quad[k + 1]) for k in range(3)]
        direct = edge_length(quad[0], quad[3])
        if direct is None or any(leg is None for leg in legs):
            continue  # some hop pairs same-observer vertices: no edge there
        seen.add(key)
        path_labels.append(quad)
        path_checks.append(quad_path_check(direct, *legs))

    full = None
    if diagonals is not None:
        missing = [o for o in observers if o not in diagonals]
        if missing:
            raise ValueError(f"diagonals must cover every observer; missing {missing}")
        dm = np.zeros((6, 6))
        for a, u in enumerate(all_vertices):
            for b, v in enumerate(all_vertices):
                if a == b:
                    continue
                length = edge_length(u, v)
                if length is None:
                    length = float(diagonals[u[:-1]])
                dm[a, b] = length
        full = cayley_menger_embeddable(dm, target_dim=3)

    return OctahedronReport(
        vertices=tuple(all_vertices),
        edges=edges,
        faces=tuple(faces),
        path_checks=tuple(path_checks),
        path_labels=tuple(path_labels),
        full_embeddability=full,
    )
