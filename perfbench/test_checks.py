"""A corrupted output is counted as a failed op, on every workload.

Each test runs one real pass of the workload's ops through qig, alters one
digit of one op's output after the pass (where the checks read it), and
expects exactly that op to fail.  Run with ``python3 -m pytest perfbench``.
"""

import json
import math
import re

import pytest

import workloads
from worker import Phase


def alter_digit(text: str, number: str) -> str:
    """``text`` with its first ``number`` changed in the fourth significant digit."""
    mantissa = number.split("e")[0]
    first = next(i for i, c in enumerate(mantissa) if c in "123456789")
    places = [i for i, c in enumerate(mantissa) if c.isdigit() and i >= first]
    at = places[min(3, len(places) - 1)]
    assert number in text
    return text.replace(number, number[:at] + str((int(number[at]) + 5) % 10) + number[at + 1:], 1)


def run_corrupted(workload, tmp_path, corrupt):
    ops = workloads.make_pass(workload, seed=3, work=tmp_path)
    phase = Phase()
    phase.run(ops, seconds=0.0, min_ops=0, deadline=math.inf, after_pass=lambda: corrupt(ops))
    return ops, phase


def test_sweep_altered_digit_fails(tmp_path):
    def corrupt(ops):
        product = ops[2].out
        lines = product.read_text().splitlines(keepends=True)
        fields = lines[40].split(",")
        lines[40] = alter_digit(lines[40], fields[2])  # d_ab of one product3 row
        product.write_text("".join(lines))

    ops, phase = run_corrupted("sweep", tmp_path, corrupt)
    assert (phase.attempted, phase.failed) == (len(ops), 1)
    assert "d_ab" in phase.problems[0]


def test_sweep_sampled_row_is_checked(tmp_path):
    def corrupt(ops):
        ghz = ops[0].out
        lines = ghz.read_text().splitlines(keepends=True)
        row = 1 + ops[0].extra["rows"][0]
        fields = lines[row].split(",")
        lines[row] = ",".join(fields[:5] + ["0.25"] + fields[6:])  # area_info
        ghz.write_text("".join(lines))

    ops, phase = run_corrupted("sweep", tmp_path, corrupt)
    assert (phase.attempted, phase.failed) == (len(ops), 1)


def test_search_altered_margin_fails(tmp_path):
    def corrupt(ops):
        path = ops[3].out
        text = path.read_text()
        margin = repr(json.loads(text)["search"]["margin"])
        path.write_text(alter_digit(text, margin))

    ops, phase = run_corrupted("search", tmp_path, corrupt)
    assert (phase.attempted, phase.failed) == (len(ops), 1)
    assert "margin" in phase.problems[0]


def test_records_altered_bit_fails(tmp_path):
    def corrupt(ops):
        path = ops[1].out
        data = bytearray(path.read_bytes())
        row_start = data.index(b"\n") + 1 + 4 * 100  # row 100 of 4-byte rows
        data[row_start] = ord("1") if data[row_start] == ord("0") else ord("0")
        path.write_bytes(bytes(data))

    ops, phase = run_corrupted("records", tmp_path, corrupt)
    assert (phase.attempted, phase.failed) == (len(ops), 1)
    assert "re-formatting" in " ".join(phase.problems)


def test_records_altered_seed_fails(tmp_path):
    def corrupt(ops):
        path = ops[4].out
        text = path.read_text()
        path.write_text(alter_digit(text, str(ops[4].extra["seed"])))

    ops, phase = run_corrupted("records", tmp_path, corrupt)
    assert (phase.attempted, phase.failed) == (len(ops), 1)


@pytest.mark.parametrize("case", [2, 3])  # product closed form, random dense state
def test_wide_altered_digit_fails(tmp_path, case):
    def corrupt(ops):
        path = ops[case].out
        text = path.read_text()
        i, j = ops[case].extra["pairs"][0]
        key = f"{chr(ord('A') + i)}-{chr(ord('A') + j)}"
        value = re.search(rf'"{key}": (-?[0-9.e+-]+)', text).group(1)
        path.write_text(text.replace(f'"{key}": {value}', f'"{key}": ' + alter_digit(value, value), 1))

    ops, phase = run_corrupted("wide", tmp_path, corrupt)
    assert (phase.attempted, phase.failed) == (len(ops), 1)
    assert "edge" in phase.problems[0]


def test_workloads_match_benchmark_json():
    import run

    assert run.WORKLOADS == workloads.WORKLOADS
