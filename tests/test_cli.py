import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torusiso import cli

from golden import regen
from refvalues import SQRT_PI_RADIUS


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {"radii": [SQRT_PI_RADIUS, SQRT_PI_RADIUS], "euclid_dim": 2, "tolerance": 1e-12}
        )
    )
    return str(path)


@pytest.fixture
def unit_file(tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"radii": [1.0, 1.0], "euclid_dim": 2}))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProfileCommand:
    def test_single_volume(self, capsys, example_file):
        code, out, _ = run(capsys, "profile", example_file, "--v", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "v,area,regime"
        v, area, regime = lines[1].split(",")
        assert float(v) == 1.0
        assert area.startswith("5.9618")
        assert regime == "ball"

    def test_grid_monotone(self, capsys, example_file):
        code, out, _ = run(capsys, "profile", example_file, "--grid", "0.1:100:50,log")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 50
        areas = [float(line.split(",")[1]) for line in rows]
        assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_deterministic_output(self, capsys, example_file):
        _, first, _ = run(capsys, "profile", example_file, "--grid", "0.5:50:20,log")
        _, second, _ = run(capsys, "profile", example_file, "--grid", "0.5:50:20,log")
        assert first == second

    def test_guard_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"radii": [1.0, 1.0], "euclid_dim": 9}))
        code, _, err = run(capsys, "profile", str(path), "--v", "1")
        assert code == 2
        assert "2 <= euclid_dim <= 5" in err

    def test_bad_volume_prints_no_table(self, capsys, example_file):
        code, out, err = run(capsys, "profile", example_file, "--v", "0")
        assert code == 2
        assert out == ""
        assert "volume must be a positive finite real" in err

    def test_linear_grid(self, capsys, example_file):
        code, out, _ = run(capsys, "profile", example_file, "--grid", "1:5:5,lin")
        assert code == 0
        vs = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert vs == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_one_circle_profile(self, capsys, tmp_path):
        path = tmp_path / "k1.json"
        path.write_text(json.dumps({"radii": [1.0], "euclid_dim": 3}))
        code, out, _ = run(capsys, "profile", str(path), "--grid", "1:1000:6,log")
        assert code == 0
        regimes = {line.split(",")[2] for line in out.strip().splitlines()[1:]}
        assert regimes <= {"ball", "cylinder"}

    def test_three_circle_profile(self, capsys, tmp_path):
        path = tmp_path / "k3.json"
        path.write_text(json.dumps({"radii": [1.0, 1.0, 1.0], "euclid_dim": 2}))
        code, out, _ = run(capsys, "profile", str(path), "--grid", "1:100000:8,log")
        assert code == 0
        regimes = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
        assert regimes[0] == "ball"
        assert regimes[-1] == "slab"


class TestCriticalCommand:
    def test_json_values(self, capsys, example_file):
        code, out, _ = run(capsys, "critical", example_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "two-torus"
        assert abs(payload["constants"]["v_star"]["value"] - 2.70) < 0.05
        assert abs(payload["constants"]["v_dstar"]["value"] - 55.84) < 0.10

    def test_unit_torus_k_star(self, capsys, unit_file):
        code, out, _ = run(capsys, "critical", unit_file)
        assert code == 0
        payload = json.loads(out)
        record = payload["constants"]["K_star"]
        assert abs(record["value"] - 70.1) < 0.5
        assert "residual" in record

    def test_csv_format(self, capsys, example_file):
        code, out, _ = run(capsys, "critical", example_file, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,value,residual,equation,regime"
        names = [line.split(",")[0] for line in lines[1:]]
        assert "v_star" in names and "v_dstar" in names

    def test_k1_guard(self, capsys, tmp_path):
        path = tmp_path / "k1.json"
        path.write_text(json.dumps({"radii": [1.0], "euclid_dim": 2}))
        code, _, err = run(capsys, "critical", str(path))
        assert code == 2
        assert "circle factors" in err

    def test_three_torus_json(self, capsys, tmp_path):
        path = tmp_path / "k3.json"
        path.write_text(json.dumps({"radii": [1.0, 1.0, 1.0], "euclid_dim": 2}))
        code, out, _ = run(capsys, "critical", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "three-torus"
        assert "sub_reports" in payload


class TestBoundsCommand:
    def test_band_structure(self, capsys, example_file):
        code, out, _ = run(capsys, "bounds", example_file, "--grid", "0.5:100:24,log")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "v,upper,lower,upper_regime,lower_source"
        for line in lines[1:]:
            v, upper, lower, regime, source = line.split(",")
            assert float(lower) <= float(upper)
            if float(v) < 2.70 or float(v) > 55.85:
                assert source == "exact"

    def test_with_curve(self, capsys, example_file, tmp_path):
        from torusiso import TorusProductSpec, scp_piecewise

        spec = TorusProductSpec((SQRT_PI_RADIUS, SQRT_PI_RADIUS), 2)
        curve = tmp_path / "curve.csv"
        rows = "\n".join(
            f"{v},{0.9 * scp_piecewise(spec)(v)}" for v in (3.0, 10.0, 30.0, 50.0)
        )
        curve.write_text("# certified_lower_bound: yes\nv,area\n" + rows + "\n")
        base_code, base_out, _ = run(capsys, "bounds", example_file, "--grid", "3:50:10,log")
        code, out, _ = run(
            capsys, "bounds", example_file, "--grid", "3:50:10,log", "--curve", str(curve)
        )
        assert base_code == 0 and code == 0
        base_lower = [float(l.split(",")[2]) for l in base_out.strip().splitlines()[1:]]
        with_lower = [float(l.split(",")[2]) for l in out.strip().splitlines()[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(base_lower, with_lower))

    def test_empty_grid_is_parse_error(self, capsys, example_file):
        code, _, err = run(capsys, "bounds", example_file, "--grid", "1:10:0,log")
        assert code == 1
        assert "count" in err

    def test_bad_curve_reports_line(self, capsys, example_file, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("# certified_lower_bound: yes\nv,area\n1.0,oops\n")
        code, _, err = run(
            capsys, "bounds", example_file, "--grid", "1:10:5,log", "--curve", str(curve)
        )
        assert code == 1
        assert "line 3" in err

    @pytest.mark.parametrize(
        "rows, line_no",
        [
            ("-1,0.5\n2,1.0\n", 3),
            ("1,0.5\ninf,inf\n", 4),
            ("1,0.5\nnan,1.0\n", 4),
            ("1,0.5\n2,inf\n", 4),
        ],
        ids=["negative-volume", "infinite-sample", "nan-volume", "infinite-area"],
    )
    def test_invalid_curve_sample_is_parse_error(
        self, capsys, example_file, tmp_path, rows, line_no
    ):
        curve = tmp_path / "curve.csv"
        curve.write_text("# certified_lower_bound: yes\nv,area\n" + rows)
        code, out, err = run(
            capsys, "bounds", example_file, "--grid", "1:10:5,log", "--curve", str(curve)
        )
        assert code == 1
        assert out == ""
        assert f"line {line_no}" in err

    def test_missing_curve_file_is_parse_error(self, capsys, example_file, tmp_path):
        missing = str(tmp_path / "missing.csv")
        code, out, err = run(
            capsys, "bounds", example_file, "--grid", "1:10:5,log", "--curve", missing
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read curve file {missing!r}: ")

    def test_non_utf8_curve_file_is_parse_error(self, capsys, example_file, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_bytes(b"# label: caf\xe9\n# certified_lower_bound: yes\nv,area\n1,2\n3,4\n")
        code, out, err = run(
            capsys, "bounds", example_file, "--grid", "1:10:5,log", "--curve", str(curve)
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read curve file {str(curve)!r}: ")
        assert "utf-8" in err

    def test_curve_file_with_byte_order_mark(self, capsys, example_file, tmp_path):
        body = "# label: spreadsheet\n# certified_lower_bound: yes\nv,area\n3,10\n30,40\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(body, encoding="utf-8")
        marked.write_text(body, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        grid = ("--grid", "3:50:10,log")
        expected = run(capsys, "bounds", example_file, *grid, "--curve", str(plain))
        assert expected[0] == 0
        assert run(capsys, "bounds", example_file, *grid, "--curve", str(marked)) == expected

    def test_deterministic_output(self, capsys, example_file):
        _, first, _ = run(capsys, "bounds", example_file, "--grid", "0.5:100:16,log")
        _, second, _ = run(capsys, "bounds", example_file, "--grid", "0.5:100:16,log")
        assert first == second


class TestVerifyCommand:
    def test_example_spec_passes(self, capsys, example_file):
        code, out, _ = run(capsys, "verify", example_file)
        assert code == 0
        assert "all" in out.strip().splitlines()[-1]

    def test_loose_tolerance_still_passes(self, capsys, tmp_path):
        path = tmp_path / "loose.json"
        path.write_text(
            json.dumps({"radii": [SQRT_PI_RADIUS, SQRT_PI_RADIUS], "euclid_dim": 2,
                        "tolerance": 1e-2})
        )
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_corrupted_spec(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "JSON" in err


class TestSpecFileLoading:
    def test_missing_field(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"radii": [1.0, 1.0]}))
        code, _, err = run(capsys, "profile", str(path), "--v", "1")
        assert code == 1
        assert "euclid_dim" in err

    def test_bad_radii_type(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"radii": "wide", "euclid_dim": 2}))
        code, _, _ = run(capsys, "profile", str(path), "--v", "1")
        assert code == 1

    def test_negative_radius_is_guard(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"radii": [-1.0, 1.0], "euclid_dim": 2}))
        code, _, _ = run(capsys, "profile", str(path), "--v", "1")
        assert code == 2

    def test_tolerance_capped(self, tmp_path):
        path = tmp_path / "tol.json"
        path.write_text(
            json.dumps({"radii": [1.0, 1.0], "euclid_dim": 2, "tolerance": 1e-3})
        )
        _, tolerance = cli.load_spec_file(str(path))
        assert tolerance == 1e-6

    @pytest.mark.parametrize("tolerance", [1e-20, 1e-16, 0.0, -1e-12])
    def test_unreachable_tolerance_is_parse_error(self, capsys, tmp_path, tolerance):
        path = tmp_path / "tight.json"
        path.write_text(
            json.dumps({"radii": [0.7, 1.9, 2.3], "euclid_dim": 3, "tolerance": tolerance})
        )
        code, out, err = run(capsys, "critical", str(path))
        assert code == 1
        assert out == ""
        assert "'tolerance'" in err

    def test_tightest_tolerance_converges(self, capsys, tmp_path):
        for radii, n in (([0.7, 1.9], 5), ([0.7, 1.9, 2.3], 3)):
            path = tmp_path / "tightest.json"
            path.write_text(json.dumps({"radii": radii, "euclid_dim": n, "tolerance": 1e-15}))
            code, _, err = run(capsys, "critical", str(path))
            assert code == 0, err

    @pytest.mark.parametrize("field", ["radii", "tolerance"])
    def test_integer_past_the_double_range_is_parse_error(self, capsys, tmp_path, field):
        # JSON integers are unbounded; a 401-digit one cannot become a double.
        huge = "1" + "0" * 400
        radii, tolerance = (f"[1.0, {huge}]", "1e-12") if field == "radii" else ("[1.0, 1.0]", huge)
        path = tmp_path / "huge.json"
        path.write_text(f'{{"radii": {radii}, "euclid_dim": 2, "tolerance": {tolerance}}}')
        with pytest.raises(cli.SpecFileError, match=f"'{field}'"):
            cli.load_spec_file(str(path))
        code, out, err = run(capsys, "critical", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and f"'{field}'" in err

    def test_integer_past_the_digit_limit_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text('{"radii": [1' + "0" * 5000 + '], "euclid_dim": 2}')
        code, out, err = run(capsys, "profile", str(path), "--v", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid JSON")

    def test_grid_parse_errors(self):
        with pytest.raises(cli.SpecFileError):
            cli.parse_grid("1:10")
        with pytest.raises(cli.SpecFileError):
            cli.parse_grid("1:10:5,weird")
        with pytest.raises(cli.SpecFileError):
            cli.parse_grid("-1:10:5,log")
        assert cli.parse_grid("2:2:1") == [2.0]


class TestColdImports:
    # Modules accumulate within a process, so each command runs in a fresh one.
    # Every command loads these modules.
    BASE = {
        "torusiso",
        "torusiso.cli",
        "torusiso.errors",
        "torusiso.mensuration",
        "torusiso.profiles",
        "torusiso.roots",
    }
    COMMANDS = {
        "profile": ["profile", "--v", "10"],
        "critical": ["critical"],
        "bounds": ["bounds", "--grid", "0.5:100:64,log"],
        "verify": ["verify"],
    }

    @pytest.fixture(scope="class")
    def cold_runs(self, fresh_python, tmp_path_factory):
        """For a bare import and each command: numpy loaded?, torusiso modules loaded."""
        path = tmp_path_factory.mktemp("cold") / "spec.json"
        path.write_text(json.dumps({"radii": [SQRT_PI_RADIUS] * 2, "euclid_dim": 2}))
        runs = {}
        for name, argv in {"import": None, **self.COMMANDS}.items():
            if argv is not None:
                argv = [argv[0], str(path), *argv[1:]]
            source = f"""
import contextlib, io, json, sys
import torusiso
argv = {argv!r}
if argv:
    from torusiso import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
modules = sorted(m for m in sys.modules if m.partition(".")[0] == "torusiso")
print(json.dumps({{"numpy": "numpy" in sys.modules, "modules": modules}}))
"""
            runs[name] = json.loads(fresh_python(source))
        return runs

    def test_only_array_commands_load_numpy(self, cold_runs):
        # profile --v and critical never build an array, so a cold process
        # running them must not pay for importing numpy; a grid does.
        loaded = {name: run["numpy"] for name, run in cold_runs.items()}
        assert loaded == {
            "import": False,
            "profile": False,
            "critical": False,
            "bounds": True,
            "verify": True,
        }

    def test_each_command_loads_only_its_modules(self, cold_runs):
        loaded = {name: set(run["modules"]) for name, run in cold_runs.items()}
        assert loaded == {
            "import": {"torusiso"},
            "profile": self.BASE,
            "critical": self.BASE | {"torusiso.criticals"},
            "bounds": self.BASE | {"torusiso.criticals", "torusiso.bounds"},
            "verify": self.BASE | {"torusiso.criticals", "torusiso.oracle"},
        }

    def test_package_root_exports(self, monkeypatch):
        import importlib

        import torusiso
        from torusiso import criticals

        assert sorted(torusiso.__all__) == [
            "BandRow", "BoundBand", "CheckResult", "ConsistencyError",
            "ConstantRecord", "ConvergenceError", "CriticalReport",
            "CurveParseError", "DomainError", "GuardError", "PiecewiseProfile",
            "PowerSegment", "RootResult", "SpecFileError",
            "T2Criticals", "T3Criticals", "TabulatedCurve", "TorusIsoError",
            "TorusProductSpec", "band", "beta", "candidate_min_area",
            "circle_piecewise", "envelope_piecewise", "euclidean_piecewise",
            "full_report", "minimum_envelope", "read_curve", "scp_piecewise",
            "slab_piecewise", "solve_increasing", "solve_piecewise_gap",
            "solve_power_gap", "unit_ball_volume",
            "unit_sphere_area", "verify_report", "verify_spec",
        ]
        for name in torusiso.__all__:
            value = getattr(torusiso, name)
            assert value is getattr(importlib.import_module(value.__module__), name), name
        with pytest.raises(AttributeError):
            torusiso.two_torus_criticals
        # Never cached at the root: a patch of the defining module shows through.
        monkeypatch.setattr(criticals, "full_report", "patched")
        assert torusiso.full_report == "patched"


class TestExtremeRadii:
    # Breakpoint volumes that leave the double range are refused by name, in
    # a real process: a crash there would print a traceback and exit 1, the
    # parse-failure code.
    @staticmethod
    def run_module(tmp_path, radii, n, command):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"radii": list(radii), "euclid_dim": n}))
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run(
            [sys.executable, "-m", "torusiso", command[0], str(path), *command[1:]],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )

    @pytest.mark.parametrize(
        "radii, n", [((1e100, 1e100), 3), ((1e-300, 1e-300), 3), ((1.0, 1e110), 2)]
    )
    @pytest.mark.parametrize(
        "command",
        [["profile", "--v", "1"], ["critical", "--format", "csv"], ["bounds", "--grid", "1:10:1"]],
        ids=lambda argv: argv[0],
    )
    def test_guard_exit_without_traceback(self, tmp_path, radii, n, command):
        result = self.run_module(tmp_path, radii, n, command)
        assert result.returncode in (0, 2), result.stderr
        assert "Traceback" not in result.stderr
        if result.returncode == 2:
            assert repr(radii[-1]) in result.stderr

    @pytest.mark.parametrize(
        "radii, n, code, named",
        [
            # The envelope's probe volumes must not under- or overflow.
            ((1e-70, 1e-70), 2, 0, ()),
            ((1e40, 1e40), 2, 0, ()),
            # A subnormal breakpoint volume is refused by name.
            ((1e-80,), 3, 2, ("1e-80", "n=3")),
        ],
    )
    def test_profile_at_the_ends_of_the_double_range(self, tmp_path, radii, n, code, named):
        # Not in the parametrization above: critical and bounds still refuse
        # these specs, with exit 3 or with a message that names no radius.
        result = self.run_module(tmp_path, radii, n, ["profile", "--v", "1"])
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        for text in named:
            assert text in result.stderr


class TestExitCodeMapping:
    def test_solver_failures_map_to_three(self, capsys, example_file, monkeypatch):
        from torusiso import criticals
        from torusiso.errors import ConvergenceError

        def boom(*args, **kwargs):
            raise ConvergenceError("stuck", bracket=(1.0, 2.0))

        monkeypatch.setattr(criticals, "full_report", boom)
        code, _, err = run(capsys, "critical", example_file)
        assert code == 3
        assert "stuck" in err


@pytest.mark.parametrize("spec", regen.CASES, ids=regen.case_name)
def test_output_matches_golden_transcript(spec):
    path = regen.HERE / f"{regen.case_name(spec)}.txt"
    actual = regen.transcript(spec, regen.HERE).encode("utf-8")
    assert actual == path.read_bytes(), (
        f"CLI output differs from {path.name}; if the change is intended, "
        f"rewrite the golden files with `{regen.REGEN_COMMAND}`"
    )
