"""The four workloads: their inputs, made from a seed, and their per-op checks.

An op is one ``qig`` command line, run in process, that writes ``--out``
into the benchmark's work directory; a ``records`` op also reads its record
back through the library.  Every op of a workload is of one kind and of
similar cost, so the latency percentiles describe one kind of call.

Checks compare against :mod:`reference` (which does not import qig) or
against a property the method must have, at the precision the output
carries.  This module does not import qig either.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("sweep", "search", "records", "wide")

SWEEP_GRID = 21
SWEEP_HEADER = "beta,gamma,d_ab,d_ac,d_bc,area_info,area_euclid,euclid_defined,ratio"
SWEEP_SAMPLED_ROWS = 12
FACE_FIELDS = ("area_info", "area_euclid", "ratio")
SEARCH_BUDGET = 300
SEARCH_RANDOM_STATES = 4
RECORD_RUNS = 30_000
RECORD_OPS = 6
WIDE_N = 11
WIDE_SAMPLED = 8

# Sampled-record bounds, in multiples of sqrt(2^n / N) for N rows of n
# observers.  Total variation: its mean is at most half that scale, and one
# row moves it by at most 1/N, so exceeding 1.5 has probability below
# exp(-2^(n+1)).  Distances and the area: the largest deviations from the
# exact values seen over 20,000 seeded 3-observer records at N = 30,000 were
# 0.96 (total variation), 2.5 (distance) and 4.1 (area) of these scales.
RECORD_TV_FACTOR = 1.5
RECORD_DISTANCE_FACTOR = 5.0
RECORD_AREA_FACTOR = 10.0


@dataclass
class Op:
    """One call of ``qig.cli.main(argv)`` and what its check needs."""

    workload: str
    argv: list[str]
    out: Path
    state: str  # named-state spec, or "file" for a state written by the benchmark
    amps: np.ndarray
    polars: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _angles(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write_state(path: Path, amps: np.ndarray) -> None:
    n = int(math.log2(amps.size))
    lines = ["# random dense state made by the benchmark", str(n)]
    lines += [f"{float(a.real)!r} {float(a.imag)!r}" for a in amps]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _named(spec: str) -> np.ndarray:
    for prefix, name in (("ghz", "ghz"), ("w", "w"), ("product", "product")):
        if spec.startswith(prefix) and spec[len(prefix):].isdigit():
            return ref.named_state(name, int(spec[len(prefix):]))
    return ref.named_state(spec, 2)


def make_pass(workload: str, seed: int, work: Path) -> list[Op]:
    """The fixed pass of ops a run repeats, made from ``seed`` alone."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    if workload == "sweep":
        for k, spec in enumerate(("ghz3", "w3", "product3")):
            out = work / f"sweep-{k}.csv"
            rows = sorted(rng.choice(SWEEP_GRID**2, SWEEP_SAMPLED_ROWS, replace=False).tolist())
            ops.append(Op(workload, ["sweep", "--state", spec, "--grid", str(SWEEP_GRID),
                                     "--format", "csv", "--out", str(out)],
                          out, spec, _named(spec), extra={"rows": rows}))
    elif workload == "search":
        specs = ["singlet-sym", "singlet-antisym"]
        states = [_named(s) for s in specs]
        for k in range(SEARCH_RANDOM_STATES):
            path = work / f"pair-{k}.state"
            amps = ref.random_state(rng, 2)
            _write_state(path, amps)
            specs.append(str(path))
            states.append(amps)
        for k, (spec, amps) in enumerate(zip(specs, states)):
            out = work / f"search-{k}.json"
            ops.append(Op(workload, ["search", "--state", spec, "--param", "free",
                                     "--budget", str(SEARCH_BUDGET), "--full-precision",
                                     "--out", str(out)],
                          out, spec if k < 2 else "file", amps))
    elif workload == "records":
        path = work / "triple.state"
        dense = ref.random_state(rng, 3)
        _write_state(path, dense)
        for k in range(RECORD_OPS):
            spec, amps = [("ghz3", _named("ghz3")), ("w3", _named("w3")),
                          (str(path), dense)][k % 3]
            polars = rng.uniform(0.0, math.pi, 3).tolist()
            sample_seed = int(rng.integers(0, 2**31))
            out = work / f"record-{k}.txt"
            ops.append(Op(workload, ["sample", "--state", spec, "--angles", _angles(polars),
                                     "-N", str(RECORD_RUNS), "--seed", str(sample_seed),
                                     "--out", str(out)],
                          out, spec if k % 3 < 2 else "file", amps, polars,
                          extra={"seed": sample_seed}))
    elif workload == "wide":
        n = WIDE_N
        path = work / "wide.state"
        dense = ref.random_state(rng, n)
        _write_state(path, dense)
        cases = [
            (f"ghz{n}", "ghz", _named(f"ghz{n}"), [0.0] * n),
            (f"w{n}", "w", _named(f"w{n}"), [0.0] * n),
            (f"product{n}", "product", _named(f"product{n}"), rng.uniform(0.0, math.pi, n).tolist()),
            (str(path), "file", dense, rng.uniform(0.0, math.pi, n).tolist()),
        ]
        triples = [tuple(int(i) for i in sorted(rng.choice(n, 3, replace=False)))
                   for _ in range(WIDE_SAMPLED)]
        pairs = [tuple(int(i) for i in sorted(rng.choice(n, 2, replace=False)))
                 for _ in range(WIDE_SAMPLED)]
        for k, (spec, kind, amps, polars) in enumerate(cases):
            out = work / f"wide-{k}.json"
            ops.append(Op(workload, ["probe", "--state", spec, "--angles", _angles(polars),
                                     "--format", "json", "--out", str(out)],
                          out, kind, amps, polars, extra={"triples": triples, "pairs": pairs}))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return ops


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the op's output is right


def close(printed: float, exact: float, digits: int = 6) -> bool:
    """True when ``printed`` is ``exact`` shown to ``digits`` significant digits.

    Allows half a unit in the last printed digit, plus 1e-12 for the float
    noise of values that are exactly zero in theory.
    """
    scale = max(abs(printed), abs(exact))
    unit = 10.0 ** (math.floor(math.log10(scale)) - digits + 1) if scale > 0 else 0.0
    return abs(printed - exact) <= 0.5 * unit * (1 + 1e-9) + 1e-12


def _compare(problems: list, where: str, printed: dict, exact: dict, digits: int = 6) -> None:
    for key, value in exact.items():
        if not close(float(printed[key]), float(value), digits):
            problems.append(f"{where}: {key} = {printed[key]!r}, reference {value!r}")


def check_sweep(op: Op, outcome: dict) -> list[str]:
    text = op.out.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"{op.state}: header {lines[:1]!r}"]
    grid = np.linspace(0.0, math.pi / 2, SWEEP_GRID)
    if len(lines) - 1 != grid.size**2:
        return [f"{op.state}: {len(lines) - 1} rows, expected {grid.size ** 2}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    for index, row in enumerate(rows):
        beta, gamma = grid[index // grid.size], grid[index % grid.size]
        where = f"{op.state} row {index}"
        _compare(problems, where, row, {"beta": beta, "gamma": gamma})
        if row["euclid_defined"] != "1":
            problems.append(f"{where}: euclid_defined = {row['euclid_defined']} in one run")
        if float(row["area_info"]) < -1e-12:
            problems.append(f"{where}: area_info = {row['area_info']} is negative")
        if op.state == "product3":
            h_b, h_c = ref.product_entropies([beta, gamma])
            expected = ref.face((h_b, h_c, h_b + h_c), h_b * h_c)
        elif index in op.extra["rows"]:
            expected = ref.triangle(ref.born_table(op.amps, [0.0, beta, gamma]), 3, (0, 1, 2))
        else:
            continue
        _compare(problems, where, row, dict(zip(("d_ab", "d_ac", "d_bc"), expected["d"])))
        _compare(problems, where, row, {key: expected[key] for key in FACE_FIELDS})
    return problems


def check_search(op: Op, outcome: dict) -> list[str]:
    payload = json.loads(op.out.read_text(encoding="utf-8"))
    search = payload["search"]
    problems = []
    if search["parameterization"] != "free":
        problems.append(f"parameterization {search['parameterization']!r}")
    if not 1 <= search["evaluations"] <= SEARCH_BUDGET:
        problems.append(f"{search['evaluations']} evaluations against a budget of {SEARCH_BUDGET}")
    a = search["angles"]
    if op.state == "file":
        def distance(x, y):
            return ref.pair_distance(ref.born_table(op.amps, [x, y]), 2, 0, 1)
    else:
        distance = ref.singlet_distance
    margin = ref.margin(distance, a["a1"], a["a2"], a["b1"], a["b2"])
    if not close(search["margin"], margin, digits=12):
        problems.append(f"{op.state}: margin {search['margin']!r} at {a}, reference {margin!r}")
    return problems


def record_bounds(n: int, runs: int) -> dict:
    scale = math.sqrt(2**n / runs)
    return {"tv": RECORD_TV_FACTOR * scale, "distance": RECORD_DISTANCE_FACTOR * scale,
            "area": RECORD_AREA_FACTOR * scale}


def empirical_geometry(counts: np.ndarray) -> dict:
    """Edges AB, AC, BC and the area of a 3-observer table of counts."""
    probs = counts / counts.sum()
    tri = ref.triangle(probs, 3, (0, 1, 2))
    return {"A-B": tri["d"][0], "A-C": tri["d"][1], "B-C": tri["d"][2], "area": tri["area_info"]}


def check_records(op: Op, outcome: dict) -> list[str]:
    data = op.out.read_bytes()
    header = f"# observers=A,B,C seed={op.extra['seed']}\n".encode()
    if not data.startswith(header):
        return [f"header {data[:len(header)]!r}, expected {header!r}"]
    try:
        counts = ref.record_counts(data[len(header):], 3)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if counts.sum() != RECORD_RUNS:
        problems.append(f"{counts.sum()} rows, expected {RECORD_RUNS}")
    back = outcome["readback"]
    if back["observers"] != ("A", "B", "C") or back["seed"] != op.extra["seed"]:
        problems.append(f"parsed header {back['observers']} seed={back['seed']}")
    if ref.format_record(back["observers"], back["seed"], back["runs"]) != data:
        problems.append("re-formatting the parsed record does not give the file's bytes")
    empirical = empirical_geometry(counts)
    for key, value in empirical.items():
        if abs(back[key] - value) > 1e-9:
            problems.append(f"library {key} = {back[key]!r}, reference on the same rows {value!r}")
    exact_probs = ref.born_table(op.amps, op.polars)
    exact = ref.triangle(exact_probs, 3, (0, 1, 2))
    bounds = record_bounds(3, RECORD_RUNS)
    tv = ref.total_variation(counts / counts.sum(), exact_probs)
    if tv > bounds["tv"]:
        problems.append(f"total variation {tv:.4g} above {bounds['tv']:.4g}")
    for key, value in zip(("A-B", "A-C", "B-C"), exact["d"]):
        if abs(empirical[key] - value) > bounds["distance"]:
            problems.append(f"sampled {key} {empirical[key]:.5f} vs exact {value:.5f}")
    if abs(empirical["area"] - exact["area_info"]) > bounds["area"]:
        problems.append(f"sampled area {empirical['area']:.5f} vs exact {exact['area_info']:.5f}")
    return problems


def check_wide(op: Op, outcome: dict) -> list[str]:
    geometry = json.loads(op.out.read_text(encoding="utf-8"))["geometry"]
    n = WIDE_N
    labels = [chr(ord("A") + k) for k in range(n)]
    problems = []
    if geometry["vertices"] != labels or geometry["volume"] is not None:
        problems.append(f"vertices {geometry['vertices']}, volume {geometry['volume']}")
    edges = geometry["edges"]
    faces = {tuple(f["vertices"]): f for f in geometry["faces"]}
    if len(edges) != n * (n - 1) // 2 or len(faces) != n * (n - 1) * (n - 2) // 6:
        return problems + [f"{len(edges)} edges and {len(faces)} faces"]
    for key, face in faces.items():
        if not (face["euclid_defined"] and face["cm_embeddable_2d"]) or face["triangle_violated"]:
            problems.append(f"face {key} not Euclidean within one run")

    def edge(i, j):
        return edges[f"{labels[i]}-{labels[j]}"]

    def face(i, j, k):
        return faces[(labels[i], labels[j], labels[k])]

    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    all_triples = [(i, j, k) for i, j in all_pairs for k in range(j + 1, n)]
    if op.state == "file":
        probs = ref.born_table(op.amps, op.polars)
        for i, j in op.extra["pairs"]:
            _compare(problems, f"edge {i}-{j}", {"d": edge(i, j)},
                     {"d": ref.pair_distance(probs, n, i, j)})
        for triple in op.extra["triples"]:
            expected = ref.triangle(probs, n, triple)
            _compare(problems, f"face {triple}", face(*triple),
                     {key: expected[key] for key in FACE_FIELDS})
        cond = ref.conditioned(probs, n, list(range(n)))
        _compare(problems, "content", geometry, {"content": ref.elementary_symmetric(cond, n - 1)})
        return problems
    if op.state == "product":
        h = ref.product_entropies(op.polars)
        d = lambda i, j: h[i] + h[j]  # noqa: E731
        area = lambda i, j, k: h[i] * h[j] + h[i] * h[k] + h[j] * h[k]  # noqa: E731
        content = ref.elementary_symmetric(h, n - 1)
    else:
        subset = (lambda k: 1.0) if op.state == "ghz" else (lambda k: ref.w_subset_entropy(n, k))
        d = lambda i, j: 2 * subset(2) - 2 * subset(1)  # noqa: E731
        area = lambda i, j, k: 3 * (subset(3) - subset(2)) ** 2  # noqa: E731
        content = n * (subset(n) - subset(n - 1)) ** (n - 1)
    for i, j in all_pairs:
        _compare(problems, f"edge {i}-{j}", {"d": edge(i, j)}, {"d": d(i, j)})
    for i, j, k in all_triples:
        expected = ref.face((d(i, j), d(i, k), d(j, k)), area(i, j, k))
        _compare(problems, f"face {(i, j, k)}", face(i, j, k),
                 {key: expected[key] for key in FACE_FIELDS})
    _compare(problems, "content", geometry, {"content": content})
    return problems


CHECKS = {"sweep": check_sweep, "search": check_search, "records": check_records,
          "wide": check_wide}


def check(op: Op, outcome: dict) -> list[str]:
    """Problems with one op's output; an op that raised or exited non-zero fails."""
    if outcome.get("error"):
        return [outcome["error"]]
    if outcome["rc"] != 0:
        return [f"exit code {outcome['rc']}"]
    try:
        return CHECKS[op.workload](op, outcome)
    except Exception as exc:  # output the check cannot read is wrong output
        return [f"unreadable output: {exc!r}"]
