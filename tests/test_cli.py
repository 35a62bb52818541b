import contextlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from torusiso import TorusProductSpec, cli
from torusiso.mensuration import EUCLID_DIM_RANGES

from golden import regen
from refvalues import SQRT_PI_RADIUS
from scalar_reference import bounds_table, profile_table


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
        from torusiso import TorusProductSpec, envelope_piecewise

        spec = TorusProductSpec((SQRT_PI_RADIUS, SQRT_PI_RADIUS), 2)
        curve = tmp_path / "curve.csv"
        rows = "\n".join(
            f"{v},{0.9 * envelope_piecewise(spec)(v)}" for v in (3.0, 10.0, 30.0, 50.0)
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

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("# certified_lower_bound: no\nv,area\n1,2\n3,4\n", 1,
             "line 1: certified_lower_bound must be 'yes'"),
            ("# certified_lower_bound: yes\nvol,area\n1,2\n3,4\n", 2,
             "line 2: expected header 'v,area', got 'vol,area'"),
            ("# certified_lower_bound: yes\nv,area\n1,2,3\n3,4\n", 3,
             "line 3: expected two comma-separated values"),
            ("# certified_lower_bound: yes\n", None, "missing 'v,area' header"),
            ("# certified_lower_bound: yes\nv,area\n1,2\n", None,
             "a tabulated curve needs at least 2 points"),
        ],
        ids=["not-certified", "wrong-header", "three-fields", "no-header", "one-sample"],
    )
    def test_curve_file_refusal_is_one_error_line(
        self, capsys, example_file, tmp_path, text, line_no, message
    ):
        from torusiso import CurveParseError, read_curve

        curve = tmp_path / "curve.csv"
        curve.write_text(text)
        code, out, err = run(
            capsys, "bounds", example_file, "--grid", "1:10:5,log", "--curve", str(curve)
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        with pytest.raises(CurveParseError) as refusal:
            read_curve(str(curve))
        assert refusal.value.line_no == line_no

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


class TestBlockWriter:
    """The tables are written one block of rows per format call; each must
    equal, byte for byte, the per-row writers of scalar_reference."""

    SPECS = [TorusProductSpec((0.7, 1.9), 3), TorusProductSpec((0.6, 1.1, 2.3), 2)]

    @staticmethod
    def grids(v_lo, v_hi):
        mid = (v_lo * v_hi) ** 0.5
        return {
            "all below": f"{v_lo / 100!r}:{v_lo / 2!r}:7",
            "all above": f"{v_hi * 2!r}:{v_hi * 100!r}:7",
            "only inside": f"{v_lo * 1.01!r}:{v_hi * 0.99!r}:9",
            "single exact": f"{v_lo!r}:{v_lo!r}:1",
            "single inside": f"{mid!r}:{mid!r}:1",
            "exact head only": f"{v_lo / 10!r}:{mid!r}:11",
            "exact tail only": f"{mid!r}:{v_hi * 10!r}:11",
            "both ends": f"{v_lo / 10!r}:{v_hi * 10!r}:23,lin",
        }

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"k{s.circle_count}")
    def test_bounds_blocks_match_the_row_writer(self, capsys, tmp_path, spec):
        from torusiso import band, full_report

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"radii": list(spec.radii), "euclid_dim": spec.euclid_dim}))
        report = full_report(spec)
        v_lo, v_hi = (report.v_star, report.v_dstar) if spec.circle_count == 2 else (
            report.u_star, report.u_dstar
        )
        for name, text in self.grids(v_lo, v_hi).items():
            code, out, _ = run(capsys, "bounds", str(path), "--grid", text)
            result = band(spec, cli.parse_grid(text), report=report)
            assert code == 0
            assert out == bounds_table(result), name
            exact = result.lower_source.count("exact")
            inside = len(result.v) - exact
            if name.startswith("all") or name == "single exact":
                assert inside == 0, name
            elif name.startswith(("only", "single")):
                assert exact == 0, name
            else:
                assert exact and inside, name
        assert result.lower_source[0] == result.lower_source[-1] == "exact"

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"k{s.circle_count}")
    def test_exact_cut_is_the_exact_runs_of_band(self, spec):
        # bounds._exact_cut cuts the table's blocks: the rows at or below v_lo
        # and at or above v_hi, and only those, are band's exact rows.
        from torusiso import band, bounds, full_report

        report = full_report(spec)
        v_lo, v_hi = bounds._thresholds(report)
        grids = {
            **self.grids(v_lo, v_hi),
            "on both thresholds": f"{v_lo!r}:{v_hi!r}:5",
            "single on v_hi": f"{v_hi!r}:{v_hi!r}:1",
            "ends on v_lo": f"{v_lo / 10!r}:{v_lo!r}:4,lin",
        }
        for name, text in grids.items():
            grid = cli.parse_grid(text)
            first, stop = bounds._exact_cut(grid, report)
            sources = band(spec, grid, report=report).lower_source
            assert set(sources[:first]) | set(sources[stop:]) <= {"exact"}, name
            assert "exact" not in sources[first:stop], name
            assert all(v <= v_lo for v in grid[:first]), name
            assert all(v_lo < v < v_hi for v in grid[first:stop]), name
            assert all(v >= v_hi for v in grid[stop:]), name
        assert cli.parse_grid(grids["on both thresholds"])[::4] == [v_lo, v_hi]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"k{s.circle_count}")
    @pytest.mark.parametrize("text", ["0.01:1e6:40,lin", "0.01:1e6:40", "3.5:3.5:1"])
    def test_profile_blocks_match_the_row_writer(self, capsys, tmp_path, spec, text):
        from torusiso import envelope_piecewise

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"radii": list(spec.radii), "euclid_dim": spec.euclid_dim}))
        code, out, _ = run(capsys, "profile", str(path), "--grid", text)
        grid = cli.parse_grid(text)
        assert code == 0
        assert out == profile_table(grid, *envelope_piecewise(spec).values(grid))


class TestWarmGridTables:
    """A grid text's volume column is printed once per process (cli._grid) and
    baked into every later table: warm runs print the per-row writers' bytes."""

    SPECS = TestBlockWriter.SPECS

    @staticmethod
    def spec_file(tmp_path, spec):
        path = tmp_path / f"k{spec.circle_count}.json"
        path.write_text(json.dumps({"radii": list(spec.radii), "euclid_dim": spec.euclid_dim}))
        return str(path)

    def curve_file(self, tmp_path):
        # Half the lower of the two envelopes lies below both: a valid curve for either spec.
        from grids import log_grid
        from torusiso import envelope_piecewise

        envelopes = [envelope_piecewise(spec) for spec in self.SPECS]
        rows = "".join(
            f"{v!r},{0.5 * min(e(v) for e in envelopes)!r}\n" for v in log_grid(1e-3, 1e6, 90)
        )
        path = tmp_path / "curve.csv"
        path.write_text("# label: half\n# certified_lower_bound: yes\nv,area\n" + rows)
        return str(path)

    @staticmethod
    def expected(command, spec, text, curves):
        from torusiso import band, envelope_piecewise

        grid = cli.parse_grid(text)
        if command == "profile":
            return profile_table(grid, *envelope_piecewise(spec).values(grid))
        return bounds_table(band(spec, grid, curves))

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["k2-then-k3", "k3-then-k2"])
    def test_repeated_and_shared_texts_print_the_row_writers_bytes(
        self, capsys, tmp_path, clear_spec_caches, order
    ):
        from torusiso import full_report, read_curve

        first, second = (self.SPECS[i] for i in order)
        files = {spec: self.spec_file(tmp_path, spec) for spec in self.SPECS}
        curve = self.curve_file(tmp_path)
        report = full_report(first)
        v_lo, v_hi = (report.v_star, report.v_dstar) if first.circle_count == 2 else (
            report.u_star, report.u_dstar
        )
        commands = [("profile", []), ("bounds", []), ("bounds", ["--curve", curve])]
        for name, text in [*TestBlockWriter.grids(v_lo, v_hi).items(), ("point", "3.5:3.5:1")]:
            clear_spec_caches()
            for spec in (first, first, second):
                for command, extra in commands:
                    code, out, err = run(capsys, command, files[spec], "--grid", text, *extra)
                    curves = [read_curve(curve)] if extra else []
                    assert (code, err) == (0, ""), (name, command)
                    assert out == self.expected(command, spec, text, curves), (name, command, spec)
            # One parse, then every run and every reference served from the cache.
            assert cli._grid.cache_info().misses == 1, name

    def test_edited_grid_list_never_reaches_a_printed_column(self, capsys, tmp_path):
        text = "0.5:100:64,log"
        path = self.spec_file(tmp_path, self.SPECS[0])
        cold = {
            command: run(capsys, command, path, "--grid", text) for command in ("profile", "bounds")
        }
        column = [format(v, ".17g") for v in cli.parse_grid(text)]
        for edit in (
            lambda grid: grid.reverse(),
            lambda grid: grid.__setitem__(0, 1e6),
            lambda grid: grid.append(7.0),
            lambda grid: grid.clear(),
        ):
            edit(cli.parse_grid(text))
            for command, expected in cold.items():
                assert run(capsys, command, path, "--grid", text) == expected
        for command, (_, out, _) in cold.items():
            assert [line.split(",")[0] for line in out.splitlines()[1:]] == column


class TestParserReuse:
    """parse_args keeps nothing between calls: no call sees another's arguments."""

    def test_curves_do_not_carry_over(self, capsys, example_file, tmp_path, monkeypatch):
        from torusiso import bounds

        curve = tmp_path / "curve.csv"
        curve.write_text("# certified_lower_bound: yes\nv,area\n5,19.3\n10,32.5\n20,52.7\n")
        read, real = [], bounds.read_curve

        def counted(path):
            read.append(path)
            return real(path)

        monkeypatch.setattr(bounds, "read_curve", counted)
        argv = ["bounds", example_file, "--grid", "3:50:5"]
        outputs = []
        for extra in ([], ["--curve", str(curve)], ["--curve", str(curve)], []):
            before = len(read)
            assert cli.main(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
            assert read[before:] == extra[1:]
        # Each repeat is served the first run's report and envelope from the
        # per-spec caches, and prints its bytes.
        assert outputs[0] == outputs[3] and outputs[1] == outputs[2]
        assert outputs[1].count(",tangent-") == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["bounds", "--help"],
            ["bounds", "spec.json", "-h"],
            ["bounds", "spec.json"],
            ["nope"],
            ["critical", "spec.json", "--format", "xml"],
            ["bounds", "spec.json", "--grid", "-5:10:3"],
            ["profile", "spec.json", "--v", "1", "--grid", "1:2:3"],
            [],
        ],
        ids=[
            "help", "bounds-help", "help-after-spec", "missing-grid", "unknown-command",
            "bad-format", "dash-grid", "v-and-grid", "empty",
        ],
    )
    def test_help_and_usage_errors_repeat(self, capsys, argv):
        # Twice through main, then once through parse_args.
        outcomes = []
        for parse in (cli.main, cli.main, cli.parse_args):
            with pytest.raises(SystemExit) as exit_:
                parse(argv)
            outcomes.append((exit_.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        code, out, err = outcomes[0]
        if {"-h", "--help"} & set(argv):
            assert (code, err) == (0, "") and out.startswith("usage: torusiso")
        else:
            # A usage line, then "torusiso[ <command>]: error: <message>".
            usage, message = err.splitlines()
            assert (code, out) == (2, "") and usage.startswith("usage: torusiso")
            assert message.startswith("torusiso") and ": error: " in message


def _parse_outcome(parse, argv):
    """The exit code a parse raised, or the arguments it read; floats as bits,
    so a nan compares equal to the same nan."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(list(argv))
        except SystemExit as exit_:
            return exit_.code
    fields = ("command", "spec", "v", "grid", "format", "curve")
    values = (getattr(args, name, None) for name in fields)
    return tuple(struct.pack("<d", x) if isinstance(x, float) else x for x in values)


class TestArgparseParity:
    """parse_args reads every command line as the argparse parser it replaced
    (tests/argparse_reference.py) did: the same exit code, or the same values."""

    COMMANDS = ["profile", "critical", "bounds", "verify"]
    CORPUS = [
        # --opt value and --opt=value, options before and after the spec.
        ["profile", "s.json", "--v", "1"],
        ["profile", "s.json", "--v=1"],
        ["profile", "--grid", "1:2:3", "s.json"],
        ["critical", "--format=csv", "s.json"],
        ["bounds", "--curve", "c.csv", "s.json", "--grid=1:2:3"],
        # "--" before positionals; after it, an option's name is a spec.
        ["profile", "--v", "1", "--", "s.json"],
        ["verify", "--", "s.json"],
        ["verify", "--", "--v"],
        ["verify", "--", "-"],
        ["profile", "--v", "1", "--", "s.json", "x"],
        ["--", "profile", "s.json", "--v", "1"],
        # A trailing "--" goes with a spec right before it, else it is an extra.
        ["profile", "--grid", "1:2:3", "s.json", "--"],
        ["profile", "s.json", "--grid", "1:2:3", "--"],
        ["verify", "s.json", "--"],
        # Unique prefixes; "--" with "=" matches every long option.
        ["bounds", "s.json", "--gr", "1:2:3", "--cur", "c.csv"],
        ["critical", "s.json", "--form", "csv"],
        ["profile", "s.json", "--g=1:2:3"],
        ["profile", "s.json", "--=1"],
        ["verify", "s.json", "--=1"],
        ["bounds", "-h", "--=x"],
        ["critical", "s.json", "--c", "csv"],
        # The last value wins; --curve collects its repeats.
        ["profile", "s.json", "--v", "1", "--v", "2"],
        ["bounds", "s.json", "--grid", "1:2:3", "--grid", "4:5:6"],
        ["critical", "s.json", "--format", "csv", "--format", "json"],
        ["bounds", "s.json", "--grid", "1:2:3", "--curve", "a", "--curve", "b", "--cur=c"],
        # --v and --grid: exactly one; bounds needs --grid; two formats.
        ["profile", "s.json", "--v", "1", "--grid", "1:2:3"],
        ["profile", "s.json", "--grid", "1:2:3", "--v", "x"],
        ["profile", "s.json"],
        ["bounds", "s.json"],
        ["bounds", "s.json", "--curve", "c.csv"],
        ["critical", "s.json", "--format", "xml"],
        ["critical", "s.json"],
        # --v goes through float(); only a negative number is a value.
        ["profile", "s.json", "--v", "nan"],
        ["profile", "s.json", "--v", "1e400"],
        ["profile", "s.json", "--v", "x"],
        ["profile", "s.json", "--v", "-1"],
        ["profile", "s.json", "--v", "-.5"],
        ["profile", "s.json", "--v", "-1e5"],
        ["profile", "s.json", "--v=-1e5"],
        ["profile", "s.json", "--grid", "-5:10:3"],
        ["profile", "s.json", "--grid=-5:10:3"],
        ["bounds", "-", "--grid", "1:2:3", "--curve", "-"],
        ["bounds", "s.json", "--grid", "1:2:3", "--curve"],
        # Help as soon as it is read, after deferred errors but not after
        # immediate ones; a value joined to it is refused.
        ["-h"],
        ["--he"],
        ["-hh"],
        ["-hx"],
        ["--help=x"],
        ["profile", "-h"],
        ["profile", "x", "y", "-h"],
        ["--x", "verify", "s.json", "-h"],
        ["verify", "s.json", "--format", "xml", "-h"],
        ["critical", "s.json", "--format", "xml", "-h"],
        ["profile", "s.json", "--v", "1", "--grid", "1:2:3", "-h"],
        # Unknown commands and options, and missing arguments.
        [],
        ["nope"],
        ["-1"],
        ["--x"],
        ["--x", "verify", "s.json"],
        ["verify", "s.json", "--v", "1"],
        ["verify", "s.json", "extra"],
        ["verify"],
        # At the edge of the usual spelling: a command's name as the spec, empty
        # values, a value that starts with a space or uses float()'s underscores,
        # a value with a space in it, a value without its option, and names
        # that only start an option's name.
        ["verify", "profile"],
        ["profile", "", "--grid", ""],
        ["profile", "s.json", "--v", " -1"],
        ["profile", "s.json", "--v", "1_0"],
        ["bounds", "s.json", "--grid", "1:2:3", "--curve", "a b"],
        ["critical", "s.json", "--format", "csv", "x"],
        ["critical", "s.json", "--", "csv"],
        ["critical", "s.json", "-", "csv"],
    ]
    ALPHABET = COMMANDS + [
        "nope", "s.json", "1", "1:2:3", "json", "csv", "xml", "c.csv",
        "--v", "--grid", "--format", "--curve", "--help", "-h", "-hh", "--x",
        "--gr", "--g", "--cur", "--c", "--form", "--f", "--he",
        "--v=1", "--v=-1", "--gr=1:2:3", "--form=json", "--format=xml", "--cur=c.csv",
        "--help=x", "--=x", "--", "-", "-1", "-1e5", "1e400", "nan", "-5:10:3",
    ]

    @pytest.fixture(scope="class")
    def reference(self):
        from argparse_reference import build_parser

        return build_parser().parse_args

    @pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
    def test_fixed_corpus(self, reference, argv):
        assert _parse_outcome(cli.parse_args, argv) == _parse_outcome(reference, argv)

    def test_seeded_draw(self, reference):
        rng = random.Random(28)
        differ, outcomes = [], Counter()
        for _ in range(6000):
            argv = [rng.choice(self.ALPHABET) for _ in range(rng.randrange(8))]
            if argv and rng.random() < 0.8:
                argv[0] = rng.choice(self.COMMANDS)
            expected = _parse_outcome(reference, argv)
            outcomes[expected if isinstance(expected, int) else "read"] += 1
            if _parse_outcome(cli.parse_args, argv) != expected:
                differ.append(argv)
        assert differ == []
        # The draw reaches help, usage errors and clean reads alike.
        assert min(outcomes[0], outcomes[2], outcomes["read"]) > 100

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "s.json", "--v=--"],
            ["profile", "s.json", "--grid=--"],
            ["critical", "s.json", "--format=--"],
            ["bounds", "s.json", "--grid", "1:2:3", "--curve=--"],
        ],
        ids=" ".join,
    )
    def test_a_bare_separator_after_equals_is_no_value(self, reference, argv):
        # argparse dropped the "--" and read an empty list, which crashed
        # profile and bounds and sent critical down its CSV branch.
        assert not isinstance(_parse_outcome(reference, argv), int)
        assert _parse_outcome(cli.parse_args, argv) == 2


# The check names of a two-circle report's constants, in report order, and
# of its gap scans, in scan order.
T2_CONSTANTS = (
    "theta_star", "sigma_star", "K_star", "c_n", "v_s", "v0_1", "v0_2", "v_star", "a_n",
    "b_n", "v_dstar",
)
T2_SCANS = ("v0_1", "a_n", "v0_2", "b_n")
T3_CONSTANTS = ("w_star", "eta_star", "C_star", "u0", "u_star", "u_slab_crossing", "u_dstar")
VERIFY_NAMES = {
    "k1": ["profile-vs-oracle"],
    "k2-example": [
        "profile-vs-oracle",
        *(f"constant:{name}" for name in T2_CONSTANTS),
        "scan:beta(r1)",
        "scan:beta(r2)",
        *(f"scan:{name}" for name in T2_SCANS),
    ],
    "k3": [
        "profile-vs-oracle",
        *(f"constant:{name}" for name in T3_CONSTANTS),
        *(f"sub[n]:constant:{name}" for name in T2_CONSTANTS),
        *(f"sub[n_plus_1]:constant:{name}" for name in T2_CONSTANTS),
        "scan:u_slab_crossing",
        *(f"sub[n]:scan:{name}" for name in T2_SCANS),
        *(f"sub[n_plus_1]:scan:{name}" for name in T2_SCANS),
    ],
}


class TestVerifyCommand:
    def test_example_spec_passes(self, capsys, example_file):
        code, out, _ = run(capsys, "verify", example_file)
        assert code == 0
        assert "all" in out.strip().splitlines()[-1]

    @pytest.mark.parametrize(
        "radii, n, case",
        [
            ([1.2], 3, "k1"),
            ([SQRT_PI_RADIUS, SQRT_PI_RADIUS], 2, "k2-example"),
            ([0.6, 1.1, 2.3], 3, "k3"),
        ],
        ids=["k1", "k2-example", "k3"],
    )
    def test_whole_stdout_in_check_order(self, capsys, tmp_path, radii, n, case):
        # The order of the checks is part of the output: constants in report
        # order, each sub-report's after its parent's, then the scans.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"radii": radii, "euclid_dim": n}))
        names = VERIFY_NAMES[case]
        expected = "".join(f"PASS {name}\n" for name in names)
        expected += f"all {len(names)} checks passed\n"
        assert run(capsys, "verify", str(path)) == (0, expected, "")
        assert len(names) == {"k1": 1, "k2-example": 18, "k3": 39}[case]

    def test_loose_tolerance_still_passes(self, capsys, tmp_path):
        path = tmp_path / "loose.json"
        path.write_text(
            json.dumps({"radii": [SQRT_PI_RADIUS, SQRT_PI_RADIUS], "euclid_dim": 2,
                        "tolerance": 1e-2})
        )
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_underflowed_oracle_area_spec(self, capsys, tmp_path):
        # The oracle's area underflows to 0.0 at every volume verify samples
        # for this spec, which once ended in a ZeroDivisionError.
        path = tmp_path / "extreme.json"
        radii = [2.449358874805687e-34, 1.1311864152620641e275]
        path.write_text(json.dumps({"radii": radii, "euclid_dim": 5}))
        code, out, err = run(capsys, "verify", str(path))
        assert code in (0, 2, 3)
        assert "Traceback" not in out + err
        if err.startswith("error:"):
            assert err.count("\n") == 1 and err.endswith("\n")
        else:
            assert out.splitlines()[-1].startswith(("PASS ", "FAIL ", "all "))

    def test_failed_check_is_one_error_line(self, capsys, example_file, monkeypatch):
        from torusiso import oracle

        checks = [
            oracle.CheckResult("constant:v_star", True, "margin 3e-14"),
            oracle.CheckResult("profile:agreement", False, "max relative gap 2e-3"),
            oracle.CheckResult("constant:v_dstar", False, "later failure"),
        ]
        monkeypatch.setattr(oracle, "verify_spec", lambda spec: checks)
        code, out, err = run(capsys, "verify", example_file)
        assert code == 3
        assert out == "PASS constant:v_star\nFAIL profile:agreement\nFAIL constant:v_dstar\n"
        assert err == "error: verification failed at profile:agreement: max relative gap 2e-3\n"

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

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            (None, ["critical"], "cannot read spec file "),
            ("[0.7, 1.9]", ["critical"], "spec file must contain a JSON object"),
            ('{"radii": ["0.7", 1.9], "euclid_dim": 2}', ["critical"],
             "spec field 'radii' must contain numbers, got '0.7'"),
            ('{"radii": [0.7, 1.9], "euclid_dim": 2}', ["profile", "--grid", "a:b:3"],
             "could not parse grid numbers from 'a:b:3'"),
        ],
        ids=["missing-file", "json-array", "string-radius", "grid-a:b:3"],
    )
    def test_refusal_is_one_error_line(self, capsys, tmp_path, text, argv, message):
        path = tmp_path / "spec.json"
        if text is not None:
            path.write_text(text)
        command, *options = argv
        code, out, err = run(capsys, command, str(path), *options)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_negative_radius_is_guard(self, capsys, tmp_path):
        # An infinite radius too: json writes and reads it as the Infinity
        # literal. Each is refused by name, in one error line.
        path = tmp_path / "neg.json"
        for radius, shown in ((-1.0, "-1.0"), (math.inf, "inf")):
            path.write_text(json.dumps({"radii": [radius, 1.0], "euclid_dim": 2}))
            for argv in (["profile", str(path), "--v", "1"], ["critical", str(path)]):
                assert run(capsys, *argv) == (
                    2, "", f"error: circle radius must be a positive finite real, got {shown}\n"
                ), (radius, argv[0])

    @pytest.mark.parametrize("tolerance", [1e-20, 1e-16, 1e-15, 0.0, -1e-12, 1e-6, 0.001])
    def test_tolerance_field_changes_nothing(self, capsys, tmp_path, tolerance):
        # The roots are ulp-exact, so a spec file's tolerance is parsed and
        # ignored: critical prints the bytes it prints without the field.
        outputs = []
        for extra in ({}, {"tolerance": tolerance}):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"radii": [0.7, 1.9, 2.3], "euclid_dim": 3, **extra}))
            assert cli.load_spec_file(str(path)) == TorusProductSpec((0.7, 1.9, 2.3), 3)
            outputs.append(run(capsys, "critical", str(path)))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_tolerance_field_must_be_a_number(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"radii": [1.0, 1.0], "euclid_dim": 2, "tolerance": "tight"}))
        code, out, err = run(capsys, "critical", str(path))
        assert (code, out) == (1, "")
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

    def test_byte_order_mark_is_ignored(self, capsys, tmp_path):
        # Editors may save JSON with a UTF-8 byte order mark; RFC 8259 lets a
        # parser ignore it, as read_curve does for curve files.
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"radii": [0.7, 1.9, 2.3], "euclid_dim": 3}), encoding="utf-8")
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = run(capsys, "critical", str(plain))
        assert expected[0] == 0
        assert run(capsys, "critical", str(marked)) == expected

    def test_grid_parse_errors(self):
        with pytest.raises(cli.SpecFileError):
            cli.parse_grid("1:10")
        with pytest.raises(cli.SpecFileError):
            cli.parse_grid("1:10:5,weird")
        with pytest.raises(cli.SpecFileError):
            cli.parse_grid("1:10:5,")
        with pytest.raises(cli.SpecFileError):
            cli.parse_grid("-1:10:5,log")
        with pytest.raises(cli.SpecFileError, match="could not parse grid numbers"):
            cli.parse_grid("a:b:3")
        assert cli.parse_grid("2:2:1") == [2.0]

    def test_grid_count_is_bounded(self):
        assert len(cli.parse_grid("1:10:1000000,lin")) == 10**6
        with pytest.raises(cli.SpecFileError, match="grid count must be at most 1000000"):
            cli.parse_grid("1:10:1000001")


class TestGridBuilder:
    @staticmethod
    def seeded_cases(count=500):
        rng = random.Random(14)
        for _ in range(count):
            lo = math.exp(rng.uniform(-40.0, 40.0))
            hi = lo * math.exp(rng.choice((0.0, 1e-12, rng.uniform(0.0, 30.0))))
            yield lo, hi, rng.randint(2, 400)

    def test_linear_grid_has_the_bits_of_linspace(self):
        np = pytest.importorskip("numpy")
        for lo, hi, count in self.seeded_cases():
            expected = np.linspace(lo, hi, count).tolist()
            assert cli.parse_grid(f"{lo!r}:{hi!r}:{count},lin") == expected, (lo, hi, count)

    def test_log_grid_pins_its_ends_and_tracks_geomspace(self):
        np = pytest.importorskip("numpy")
        for lo, hi, count in self.seeded_cases():
            grid = cli.parse_grid(f"{lo!r}:{hi!r}:{count},log")
            assert grid[0] == lo and grid[-1] == hi
            expected = np.geomspace(lo, hi, count).tolist()
            for v, w in zip(grid, expected):
                assert abs(v - w) <= 1e-13 * w, (lo, hi, count, v, w)

    # Rounding put interior points of these grids past an end, or overflowed.
    NEAR_DEGENERATE = [
        "0.3:0.3:5",
        "0.3:0.3:5,lin",
        "7.7:7.7000000000000002:3",
        "4.9406564584e-314:4.9406564634e-314:17,lin",
        "1.7976931348623155e308:1.7976931348623157e308:4",
    ]
    EXTREME = [
        f"{body},{mode}"
        for body in (
            "1e300:1.7976931348623157e308:1000",
            "5e-324:1.7976931348623157e308:1001",
            "1e-310:1e-300:50",
        )
        for mode in ("log", "lin")
    ]

    @pytest.mark.parametrize("text", EXTREME + NEAR_DEGENERATE)
    def test_grid_is_ascending_between_its_ends(self, text):
        lo, hi, count = text.partition(",")[0].split(":")
        grid = cli.parse_grid(text)
        assert len(grid) == int(count)
        assert grid[0] == float(lo) and grid[-1] == float(hi)
        assert all(math.isfinite(v) and v > 0.0 for v in grid)
        assert all(a <= b for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("command", ["profile", "bounds"])
    @pytest.mark.parametrize("text", NEAR_DEGENERATE)
    def test_near_degenerate_grid_through_the_cli(self, capsys, example_file, command, text):
        code, out, err = run(capsys, command, example_file, "--grid", text)
        assert code == 0, err
        vs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert vs == sorted(vs) and len(vs) == int(text.partition(",")[0].split(":")[2])

    # Each grid text is parsed once per process; every caller gets its own list.
    def test_each_call_returns_a_new_list_of_the_same_volumes(self):
        first = cli.parse_grid("0.5:100:64,log")
        second = cli.parse_grid("0.5:100:64,log")
        assert first == second and first is not second
        first.append(1e6)
        assert cli.parse_grid("0.5:100:64,log") == second

    @pytest.mark.parametrize("text", ["1:10", "1:10:5,weird", "-1:10:5,log", "a:b:3"])
    def test_refused_grid_is_refused_again_and_never_stored(self, text):
        refusals = []
        for _ in range(2):
            with pytest.raises(cli.SpecFileError) as refusal:
                cli.parse_grid(text)
            refusals.append(str(refusal.value))
        assert refusals[0] == refusals[1]
        assert cli._grid.cache_info().currsize == 0


class TestColdImports:
    # Modules accumulate within a process, so each command runs in a fresh one.
    # Every command loads BASE; every command that needs the thresholds, SOLVE.
    BASE = {
        "torusiso",
        "torusiso.cli",
        "torusiso.errors",
        "torusiso.mensuration",
        "torusiso.profiles",
        "torusiso.records",
    }
    SOLVE = {"torusiso.criticals", "torusiso.roots"}
    COMMANDS = {
        "profile": ["profile", "--v", "10"],
        "profile-grid": ["profile", "--grid", "0.5:100:64,log"],
        "critical": ["critical"],
        "critical-csv": ["critical", "--format", "csv"],
        "bounds": ["bounds", "--grid", "0.5:100:64,log"],
        "bounds-curve": ["bounds", "--grid", "0.5:100:64,log", "--curve", "curve.csv"],
        "verify": ["verify"],
    }

    @pytest.fixture(scope="class")
    def cold_runs(self, fresh_python, tmp_path_factory):
        """For a bare import and each command: numpy loaded?, torusiso modules
        loaded, and every module loaded after interpreter start-up."""
        directory = tmp_path_factory.mktemp("cold")
        path = directory / "spec.json"
        path.write_text(json.dumps({"radii": [SQRT_PI_RADIUS] * 2, "euclid_dim": 2}))
        curve = directory / "curve.csv"
        curve.write_text("# certified_lower_bound: yes\nv,area\n5,19.3\n10,32.5\n20,52.7\n")
        runs = {}
        for name, argv in {"import": None, **self.COMMANDS}.items():
            if argv is not None:
                args = (str(directory / a) if a.endswith(".csv") else a for a in argv[1:])
                argv = [argv[0], str(path), *args]
            source = f"""
import sys
started = set(sys.modules)
import contextlib, io, json
import torusiso
argv = {argv!r}
if argv:
    from torusiso import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
modules = sorted(m for m in sys.modules if m.partition(".")[0] == "torusiso")
new = sorted(set(sys.modules) - started)
print(json.dumps({{"numpy": "numpy" in sys.modules, "modules": modules, "new": new}}))
"""
            runs[name] = json.loads(fresh_python(source))
        return runs

    def test_only_array_commands_load_numpy(self, cold_runs):
        # Grids are built and tangent lines scanned in pure Python, so no
        # command imports numpy.
        loaded = {name: run["numpy"] for name, run in cold_runs.items()}
        assert loaded == {
            "import": False,
            "profile": False,
            "profile-grid": False,
            "critical": False,
            "critical-csv": False,
            "bounds": False,
            "bounds-curve": False,
            "verify": False,
        }

    def test_each_command_loads_only_its_modules(self, cold_runs):
        loaded = {name: set(run["modules"]) for name, run in cold_runs.items()}
        assert loaded == {
            "import": {"torusiso"},
            "profile": self.BASE,
            "profile-grid": self.BASE,
            "critical": self.BASE | self.SOLVE,
            "critical-csv": self.BASE | self.SOLVE,
            "bounds": self.BASE | self.SOLVE | {"torusiso.bounds"},
            "bounds-curve": self.BASE | self.SOLVE | {"torusiso.bounds"},
            "verify": self.BASE | self.SOLVE | {"torusiso.oracle"},
        }

    def test_cold_path_skips_stdlib_it_does_not_use(self, cold_runs):
        # Records are namedtuples and annotations stay strings, so no command
        # imports dataclasses (which pulls in inspect) or typing; only the
        # CSV report needs csv; the command line is read without argparse,
        # which brings gettext and, on its first message lookup, locale.
        # Start-up modules (site may import typing) are not counted.
        watched = {"dataclasses", "inspect", "typing", "csv", "argparse", "gettext", "locale"}
        loaded = {name: watched.intersection(run["new"]) for name, run in cold_runs.items()}
        assert loaded == {name: {"csv"} if name == "critical-csv" else set() for name in loaded}

    def test_package_root_exports(self, monkeypatch):
        import importlib

        import torusiso
        from torusiso import criticals

        assert sorted(torusiso.__all__) == [
            "BandRow", "BoundBand", "CheckResult", "ConsistencyError",
            "ConstantRecord", "CriticalReport",
            "CurveParseError", "DomainError", "GuardError", "PiecewiseProfile",
            "PowerSegment", "RootResult", "SpecFileError",
            "TabulatedCurve", "TorusIsoError",
            "TorusProductSpec", "band", "beta", "candidate_min_area",
            "circle_piecewise", "envelope_piecewise", "euclidean_piecewise",
            "full_report", "minimum_envelope", "read_curve",
            "slab_piecewise", "solve_balance", "solve_piecewise_gap",
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

    def test_root_imports_only_a_missing_or_initialising_module(self, monkeypatch):
        import torusiso
        from torusiso import criticals

        imported = []
        monkeypatch.setattr(
            torusiso, "import_module", lambda name: imported.append(name) or criticals
        )
        assert torusiso.full_report is criticals.full_report and imported == []
        # A module still running its own imports, or one not loaded, is left to
        # the import system, which waits for it or loads it.
        monkeypatch.setattr(criticals.__spec__, "_initializing", True, raising=False)
        assert torusiso.full_report is criticals.full_report
        monkeypatch.setattr(criticals.__spec__, "_initializing", False, raising=False)
        monkeypatch.delitem(sys.modules, "torusiso.criticals")
        assert torusiso.full_report is criticals.full_report
        assert imported == ["torusiso.criticals"] * 2


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

    def test_huge_grid_count_refused_before_numpy(self, tmp_path, fresh_python):
        # Left unbounded, 1e15 volumes ended in a numpy memory-error traceback.
        result = self.run_module(
            tmp_path, (1.0, 1.0), 2, ["profile", "--grid", "1:10:1000000000000000"]
        )
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("error: grid count must be at most 1000000")
        assert "Traceback" not in result.stderr
        source = f"""
import contextlib, io, sys
from torusiso import cli
with contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(["profile", {str(tmp_path / "spec.json")!r}, "--grid", "1:10:100000000"])
print(code, "numpy" in sys.modules)
"""
        assert fresh_python(source).split() == ["1", "False"]

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


@pytest.mark.parametrize(
    "radii, n, named",
    [
        ((5.2e31, 1.7e158, 3.2e263), 2, ("slab area coefficient", "(5.2e+31, 1.7e+158, 3.2e+263)")),
        ((6.96e50, 5.79e219), 4, ("ball/cylinder breakpoint", "(6.96e+50, 5.79e+219)")),
    ],
)
def test_envelope_refusal_names_radii_and_constant(capsys, tmp_path, radii, n, named):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"radii": list(radii), "euclid_dim": n}))
    code, out, err = run(capsys, "profile", str(path), "--v", "1")
    assert (code, out) == (2, "")
    for text in named:
        assert text in err


def test_a_n_meeting_v0_1_exits_three(capsys, tmp_path):
    # The computed a_n of this spec lies 12 ulps below its v0_1 (their true
    # difference is a few ulps): the refusal is one error line that gives
    # both values, n and r2/r1, and exit code 3.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"radii": [0.004511543985897641, 9.225445621467033],
                                "euclid_dim": 5}))
    code, out, err = run(capsys, "critical", str(path))
    assert (code, out, err) == (
        3,
        "",
        "error: expected v0_1 <= a_n: a_n = 26143878.35939773 is 12 ulps below "
        "v0_1 = 26143878.359397776 (n = 5, r2/r1 = 2044.85)\n",
    )


# Every supported (circle count, n) pair, and the radius spans of the fuzz test.
_FUZZ_PAIRS = [
    (k, n) for k, (lo, hi) in sorted(EUCLID_DIM_RANGES.items()) for n in range(lo, hi + 1)
]
_FUZZ_SPANS = (3, 30, 300)
_FUZZ_DRAWS = 10  # per pair and span


def test_seeded_fuzz_exits_with_a_code_and_one_error_line(capsys, tmp_path):
    # Log-uniform radii over 1e+-3, 1e+-30 and 1e+-300 for every supported
    # (k, n), each through every command: whatever the spec, main returns
    # an exit code, writes exactly one error line when it is nonzero, and
    # lets nothing escape.
    rng = random.Random(17)
    path = tmp_path / "spec.json"
    codes = Counter()
    for span in _FUZZ_SPANS:
        for k, n in _FUZZ_PAIRS:
            for _ in range(_FUZZ_DRAWS):
                radii = [10.0 ** rng.uniform(-span, span) for _ in range(k)]
                v = 10.0 ** rng.uniform(-span, span)
                path.write_text(json.dumps({"radii": radii, "euclid_dim": n}))
                for argv in (
                    ["profile", str(path), "--v", repr(v)],
                    ["bounds", str(path), "--grid", f"{v / 4!r}:{v!r}:4"],
                    ["critical", str(path)],
                    ["verify", str(path)],
                ):
                    code, _, err = run(capsys, *argv)
                    assert code in (0, 1, 2, 3), (argv[0], radii, n)
                    if code:
                        assert err.startswith("error: ") and err.count("\n") == 1, (
                            argv[0], radii, n, err
                        )
                    codes[argv[0], code] += 1
    assert sum(codes.values()) == 4 * len(_FUZZ_SPANS) * len(_FUZZ_PAIRS) * _FUZZ_DRAWS
    # Every command both succeeds and refuses somewhere in the draws.
    assert {command for command, code in codes if code == 0} == {
        "profile", "bounds", "critical", "verify"
    }
    assert {command for command, code in codes if code} == {
        "profile", "bounds", "critical", "verify"
    }


class TestExitCodeMapping:
    def test_solver_failures_map_to_three(self, capsys, example_file, monkeypatch):
        from torusiso import criticals
        from torusiso.errors import ConsistencyError

        def boom(*args, **kwargs):
            raise ConsistencyError("stuck")

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
        f"rewrite the golden files with `{regen.REGEN_COMMAND}`\n{regen.environment_note()}"
    )


def test_curve_files_are_rewritten_without_numpy(fresh_python):
    # The curves sample the envelope on cli.parse_grid volumes, so a process
    # that cannot import numpy rewrites every stored curve file byte for byte.
    source = f"""
import json, sys
sys.modules["numpy"] = None
sys.path.insert(0, {str(regen.HERE.parent)!r})
from golden import regen
files, stale = 0, []
for spec in regen.CASES:
    for i, text in enumerate(regen.curve_texts(spec), start=1):
        path = regen.HERE / f"{{regen.case_name(spec)}}.curve{{i}}.csv"
        files += 1
        if text.encode("utf-8") != path.read_bytes():
            stale.append(path.name)
print(json.dumps({{"files": files, "stale": stale}}))
"""
    assert json.loads(fresh_python(source)) == {"files": 2 * len(regen.CASES), "stale": []}


def test_golden_mismatch_names_both_environments(monkeypatch):
    monkeypatch.setattr(regen, "transcript", lambda spec, curve_dir: "changed\n")
    with pytest.raises(AssertionError) as err:
        test_output_matches_golden_transcript(regen.CASES[0])
    # pytest indents the lines of an assertion message, so compare words.
    words = " ".join(str(err.value).split())
    recorded = regen.ENVIRONMENT_PATH.read_text(encoding="utf-8")
    for expected in (
        f"recorded numeric environment: {recorded}",
        f"current numeric environment: {regen.environment_text()}",
    ):
        assert " ".join(expected.split()) in words


def test_recorded_environment_has_the_current_fields():
    recorded = json.loads(regen.ENVIRONMENT_PATH.read_text(encoding="utf-8"))
    assert recorded.keys() == regen.numeric_environment().keys()
