"""End-to-end tests of the command-line surface."""

import json
import math
import pathlib

import pytest

import qig.geometry
from qig.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestProbe:
    def test_ghz3_point_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe", "--state", "ghz3", "--angles", "0,0.785398163,0.785398163"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        edges = payload["geometry"]["edges"]
        assert abs(edges["A-B"] - 2.0) < 1e-5
        assert abs(edges["A-C"] - 2.0) < 1e-5
        assert abs(edges["B-C"] - 2.0) < 1e-5
        face = payload["geometry"]["faces"][0]
        assert abs(face["area_info"] - 3.0) < 1e-5
        assert abs(face["area_euclid"] - math.sqrt(3)) < 1e-5

    def test_product3_point_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe", "--state", "product3", "--angles", "0,0.785398163,0.785398163"
        )
        payload = json.loads(out)
        face = payload["geometry"]["faces"][0]
        assert abs(face["area_info"] - 1.0) < 1e-5
        assert abs(face["area_euclid"]) < 1e-9
        assert face["euclid_defined"] is True

    def test_aligned_detectors_zero_distances(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--state", "ghz3", "--angles", "0,0,0")
        payload = json.loads(out)
        for value in payload["geometry"]["edges"].values():
            assert abs(value) < 1e-9

    def test_degrees_flag(self, capsys):
        _, rad_out, _ = run_cli(
            capsys, "probe", "--state", "ghz3", "--angles", f"0,{math.pi/4},{math.pi/4}",
            "--full-precision",
        )
        _, deg_out, _ = run_cli(
            capsys, "probe", "--state", "ghz3", "--angles", "0,45,45", "--degrees",
            "--full-precision",
        )
        a = json.loads(rad_out)["geometry"]["edges"]
        b = json.loads(deg_out)["geometry"]["edges"]
        for key in a:
            assert abs(a[key] - b[key]) < 1e-12

    def test_cross_format_equality(self, capsys):
        args = ("probe", "--state", "w3", "--angles", "0,0.6,1.1")
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        payload = json.loads(json_out)
        header, rows = parse_csv(csv_out)
        assert header == ["metric", "value"]
        csv_values = dict(rows)
        for pair, value in payload["geometry"]["edges"].items():
            assert abs(float(csv_values[f"geometry.edges.{pair}"]) - value) < 1e-12

    def test_preset_violations(self, capsys):
        for preset in ("schumacher-symmetric", "schumacher-original"):
            code, out, _ = run_cli(capsys, "probe", "--preset", preset)
            assert code == EXIT_OK
            payload = json.loads(out)
            assert payload["quadrilateral"]["violated"] is True
            assert payload["quadrilateral"]["margin"] > 0.3

    def test_volume_for_four_observers(self, capsys):
        _, out, _ = run_cli(capsys, "probe", "--state", "ghz4", "--angles", "0,0.3,0.5,0.7")
        payload = json.loads(out)
        assert payload["geometry"]["volume"] is not None
        assert len(payload["geometry"]["edges"]) == 6


class TestSweep:
    def test_csv_header_and_reference_row(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--state", "ghz3", "--grid", "7")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == [
            "beta", "gamma", "d_ab", "d_ac", "d_bc",
            "area_info", "area_euclid", "euclid_defined", "ratio",
        ]
        assert len(rows) == 49
        # grid point (pi/4, pi/4) sits at row index 3*7 + 3
        row = rows[24]
        assert abs(float(row[2]) - 2.0) < 1e-5
        assert abs(float(row[5]) - 3.0) < 1e-5
        assert row[7] == "1"

    def test_cross_format_equality(self, capsys):
        _, csv_out, _ = run_cli(capsys, "sweep", "--state", "w3", "--grid", "5")
        _, json_out, _ = run_cli(
            capsys, "sweep", "--state", "w3", "--grid", "5", "--format", "json"
        )
        _, rows = parse_csv(csv_out)
        payload = json.loads(json_out)
        for csv_row, json_row in zip(rows, payload["rows"]):
            for idx, key in enumerate(("beta", "gamma", "d_ab", "area_info")):
                col = {"beta": 0, "gamma": 1, "d_ab": 2, "area_info": 5}[key]
                assert abs(float(csv_row[col]) - json_row[key]) < 1e-12

    def test_unsupported_state(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--state", "ghz4", "--grid", "5")
        assert code == EXIT_CONFIG


class TestScan:
    def test_argmax_near_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--state", "singlet-sym", "--delta", "0.01:0.5:1024"
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["delta", "d_a1b2", "d_a1b1", "d_a2b1", "d_a2b2", "margin", "violated"]
        best = max(rows, key=lambda r: float(r[5]))
        assert abs(float(best[0]) - 0.15234) < 1e-3
        assert best[6] == "1"

    def test_json_carries_best_row(self, capsys):
        _, out, _ = run_cli(
            capsys, "scan", "--state", "singlet-sym", "--delta", "0.05:0.3:101",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["best"]["violated"] is True
        assert not payload["best_on_boundary"]

    def test_bad_delta_spec(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--state", "singlet-sym", "--delta", "nope")
        assert code == EXIT_CONFIG
        assert "delta" in err


class TestSearch:
    def test_symmetric_search(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--state", "singlet-sym", "--param", "symmetric-delta",
            "--budget", "2000",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["search"]["angles"]["delta"] - 0.15234) < 1e-3
        assert payload["search"]["margin"] > 0.47

    def test_deterministic_output(self, capsys):
        args = ("search", "--state", "singlet-sym", "--budget", "400")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_free_parameterization(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--state", "singlet-sym", "--param", "free",
            "--budget", "600",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["search"]["margin"] > 0.0
        assert set(payload["search"]["angles"]) == {"a1", "a2", "b1", "b2"}


class TestSample:
    def test_byte_identical_reruns(self, capsys):
        args = (
            "sample", "--state", "ghz3", "--angles", "0,0.785398,0.785398",
            "-N", "1000", "--seed", "7",
        )
        code, first, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        lines = first.strip().split("\n")
        assert lines[0] == "# observers=A,B,C seed=7"
        assert len(lines) == 1001
        assert set("".join(lines[1:])) <= {"0", "1"}

    def test_seed_changes_stream(self, capsys):
        base = ("sample", "--state", "ghz3", "--angles", "0,0.785,0.785", "-N", "200")
        _, a, _ = run_cli(capsys, *base, "--seed", "1")
        _, b, _ = run_cli(capsys, *base, "--seed", "2")
        assert a != b


class TestOcta:
    def test_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "octa", "--state", "w3",
            "--angles", "A:0,0.3", "B:0.2,0.5", "C:0.1,0.4",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["octahedron"]["edges"]) == 12
        assert len(payload["octahedron"]["faces"]) == 8

    def test_bad_token(self, capsys):
        code, _, err = run_cli(
            capsys, "octa", "--state", "w3", "--angles", "A:0,0.3", "B:0.2,0.5", "C-0.1",
        )
        assert code == EXIT_CONFIG


class TestConfigAndIo:
    def test_unknown_state(self, capsys):
        code, _, err = run_cli(capsys, "probe", "--state", "bell9", "--angles", "0,0")
        assert code == EXIT_CONFIG
        assert "state" in err

    def test_wrong_angle_count(self, capsys):
        code, _, _ = run_cli(capsys, "probe", "--state", "ghz3", "--angles", "0,0.2")
        assert code == EXIT_CONFIG

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--state", "singlet-sym")
        assert code == EXIT_CONFIG

    def test_output_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QIG_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys, "probe", "--state", "ghz3", "--angles", "0,0.1,0.2",
            "--out", "report.json",
        )
        assert code == EXIT_OK
        assert out == ""
        assert (tmp_path / "report.json").exists()

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        target = blocker / "sub" / "report.json"  # parent is a file: mkdir fails
        code, _, err = run_cli(
            capsys, "probe", "--state", "ghz3", "--angles", "0,0.1,0.2",
            "--out", str(target),
        )
        assert code == EXIT_IO

    def test_state_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "bell.txt"
        amp = 1 / math.sqrt(2)
        path.write_text(f"2\n{amp!r} 0\n0 0\n0 0\n{amp!r} 0\n")
        code, out, _ = run_cli(capsys, "probe", "--state", str(path), "--angles", "0,0")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["geometry"]["edges"]["A-B"]) < 1e-9

    def test_full_precision_digits(self, capsys):
        _, out, _ = run_cli(
            capsys, "probe", "--state", "w3", "--angles", "0,0.6,1.1", "--full-precision"
        )
        payload = json.loads(out)
        value = payload["geometry"]["edges"]["A-B"]
        # 6-sig-digit rounding would lose the tail
        assert abs(value - round(value, 4)) > 0


class TestBatchedOutput:
    def test_sweep_information_areas_never_negative(self, capsys):
        """Float noise on flat faces prints as 0, never as a negative area."""
        for state in ("ghz3", "w3", "product3"):
            code, out, _ = run_cli(capsys, "sweep", "--state", state, "--grid", "91")
            assert code == EXIT_OK
            header, rows = parse_csv(out)
            column = header.index("area_info")
            assert len(rows) == 91 * 91
            assert not [r for r in rows if r[column].startswith("-")]

    def test_search_budget_below_floor_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--state", "singlet-sym", "--param", "free", "--budget", "27",
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "minimum 28" in err


class TestNumericalGuard:
    def test_area_form_disagreement_is_config_error(self, capsys, monkeypatch):
        """A failed dual-form area check prints one error line, not a traceback."""
        monkeypatch.setattr(qig.geometry, "AREA_FORM_TOL", -1.0)
        code, out, err = run_cli(capsys, "probe", "--state", "ghz3", "--angles", "0,0.5,1.0")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: triangle area forms disagree")
        assert err.count("\n") == 1
        assert "Traceback" not in err


# Full-precision JSON of each command, as printed before faces were batched
# (probe, octa) and before sweep and scan results became columns (sweep, scan).
# Numbers are compared to 1e-12, not bit for bit: the last bit of a log2 can
# differ between CPUs and numpy builds. The order of each face's arithmetic is
# pinned exactly by TestSimplexFacesProperty in test_geometry.py.
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_REPORTS = {
    "probe-w5": ("probe", "--state", "w5", "--angles", "0,0.3,0.7,1.1,1.9",
                 "--azimuths", "0.2,0.9,1.4,2.8,0.5"),
    "probe-product4": ("probe", "--state", "product4", "--angles", "0.1,0.6,1.2,2.5"),
    "probe-ghz11": ("probe", "--state", "ghz11",
                    "--angles", "0,0.1,0.25,0.4,0.5,0.7,0.9,1.2,1.6,2.1,2.9"),
    "octa-w3": ("octa", "--state", "w3", "--angles", "A:0,0.3", "B:0.2,0.5", "C:0.1,0.4"),
    "sweep-w3": ("sweep", "--state", "w3", "--grid", "5", "--format", "json"),
    "scan-singlet-sym": ("scan", "--state", "singlet-sym", "--delta", "0.05:0.3:11",
                         "--format", "json"),
}


def json_mismatches(got, want, path="$"):
    """Where two parsed JSON documents differ, numbers to within 1e-12; the
    keys of a dict must come in the same order."""
    if isinstance(want, dict) and isinstance(got, dict) and list(got) == list(want):
        return [m for k in want for m in json_mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in json_mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) in (int, float):
        if math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            return []
    elif type(got) is type(want) and not isinstance(want, dict) and got == want:
        return []
    return [f"{path}: got {got!r}, want {want!r}"]


class TestGoldenReports:
    def test_mismatch_names_the_field(self):
        want = {"faces": [{"ratio": 0.5, "ok": True}], "n": 3}
        assert json_mismatches({"faces": [{"ratio": 0.5 + 1e-14, "ok": True}], "n": 3}, want) == []
        assert json_mismatches({"faces": [{"ratio": 0.6, "ok": 1}], "n": 3}, want) == [
            "$.faces[0].ratio: got 0.6, want 0.5",
            "$.faces[0].ok: got 1, want True",
        ]
        assert json_mismatches({"n": 3, "faces": [{"ratio": 0.5, "ok": True}]}, want) != []

    @pytest.mark.parametrize("name", GOLDEN_REPORTS)
    def test_full_precision_json_matches_golden(self, capsys, name):
        code, out, _ = run_cli(capsys, *GOLDEN_REPORTS[name], "--full-precision")
        assert code == EXIT_OK
        want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert json_mismatches(json.loads(out), want) == []
