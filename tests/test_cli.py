"""End-to-end runs of the command line front end."""

import csv
import json

import pytest

from pucci_lab import Variant, cli
from pucci_lab.cli import _DEFAULTS, load_config, main
from pucci_lab.grid import GridField


def run(tmp_path, *args):
    code = main([*args, "--out", str(tmp_path)])
    return code


def read_report(tmp_path, command):
    with open(tmp_path / f"{command}.report.json") as fh:
        return json.load(fh)


class TestConfig:
    def test_defaults_complete(self):
        cfg = load_config("radial")
        assert cfg["a"] == 1.0 and cfg["tol"] == 1e-5

    def test_file_and_overrides_layered(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"radius": 2.0, "tol": 1e-6}))
        cfg = load_config("radial", str(path), {"tol": 1e-4})
        assert cfg["radius"] == 2.0
        assert cfg["tol"] == 1e-4

    def test_unknown_key_rejected(self):
        with pytest.raises(SystemExit):
            load_config("radial", None, {"radiuss": 2.0})

    def test_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(SystemExit, match="JSON object"):
            load_config("radial", str(path), None)

    def test_override_needs_a_value(self):
        with pytest.raises(SystemExit, match="--set needs key=value"):
            main(["radial", "--set", "tol"])

    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"h_grid": 0.1}))
        with pytest.raises(SystemExit):
            load_config("eigen", str(path), None)

    def test_output_dir_key_sets_directory(self, tmp_path):
        out = tmp_path / "configured"
        assert main(["radial", "--set", f"output_dir={out}"]) == 0
        assert "output_dir" not in read_report(out, "radial")["parameters"]

    def test_out_flag_overrides_output_dir(self, tmp_path):
        other = tmp_path / "configured"
        assert run(tmp_path, "radial", "--set", f"output_dir={other}") == 0
        assert "output_dir" not in read_report(tmp_path, "radial")["parameters"]
        assert not other.exists()

    def test_help_names_every_config_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        epilog = capsys.readouterr().out.split("config keys per command:")[1]
        # each command's line and its indented continuations
        blocks, cmd = {}, None
        for line in epilog.splitlines():
            words = line.split()
            if line.startswith("  ") and not line.startswith("   "):
                cmd = words.pop(0)
            elif not line.startswith("   "):
                cmd = None
            if cmd:
                blocks.setdefault(cmd, set()).update(words)
        assert blocks == {cmd: set(keys)
                          for cmd, keys in _DEFAULTS.items() if keys}


@pytest.mark.parametrize("command, setting, message", [
    ("radial", "n_dim=1", "need n_dim >= 2"),
    ("radial", "radius=0", "need radius > 0"),
    ("radial", "f0=-1", "constant source must be nonnegative"),
    ("overdetermined", "n_dim=1", "need n_dim >= 2"),
    # rejected by principal_eigenvalue_ball, before any grid is built
    ("eigen", "radius=0", "need a finite, positive radius"),
    ("properties", "trials=0", "need trials >= 1"),
    ("sector", "deltas=[0.1]", "need at least two deltas"),
])
def test_invalid_setting_exits_2(tmp_path, capsys, command, setting, message):
    assert run(tmp_path, command, "--set", setting) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


class TestRadialCommand:
    def test_defaults_pass(self, tmp_path):
        assert run(tmp_path, "radial") == 0
        rep = read_report(tmp_path, "radial")
        assert all(c["passed"] for c in rep["checks"])
        assert rep["results"]["sup_error"] <= 1e-5
        with open(tmp_path / "radial_profile.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "u", "exact"]
        assert len(rows) > 100

    def test_zero_source_flagged_degenerate(self, tmp_path):
        assert run(tmp_path, "radial", "--set", "f0=0.0") == 0
        rep = read_report(tmp_path, "radial")
        assert rep["results"]["degenerate"] is True

    def test_bad_alpha_exits_2(self, tmp_path):
        assert run(tmp_path, "radial", "--set", "alpha=-1.5") == 2

    def test_override_recorded(self, tmp_path):
        assert run(tmp_path, "radial", "--set", "radius=0.5") == 0
        rep = read_report(tmp_path, "radial")
        assert rep["parameters"]["radius"] == 0.5


class TestOverdeterminedCommand:
    def test_round_trip(self, tmp_path):
        assert run(tmp_path, "overdetermined") == 0
        rep = read_report(tmp_path, "overdetermined")
        assert rep["results"]["max_residual"] <= 1e-5
        assert rep["results"]["laplacian_radius"] == pytest.approx(1.0)

    def test_positive_datum_exits_2(self, tmp_path):
        assert run(tmp_path, "overdetermined", "--set", "c_values=[0.5]") == 2


class TestEigenCommand:
    def test_disk_against_oracles(self, tmp_path):
        assert run(tmp_path, "eigen", "--set", "h=0.05") == 0
        rep = read_report(tmp_path, "eigen")
        assert abs(rep["results"]["disk_grid"]
                   - rep["results"]["bessel_oracle"]) < 0.12
        with open(tmp_path / "eigen_values.csv") as fh:
            methods = {row["method"] for row in csv.DictReader(fh)}
        assert methods == {"ball_shooting", "disk_grid", "bessel_oracle"}

    def test_reversed_bounds_exit_2(self, tmp_path):
        assert run(tmp_path, "eigen", "--set", "a=3.0") == 2


class TestSerrinCommand:
    @pytest.mark.parametrize("h", ["0", "-0.05"])
    def test_bad_spacing_exits_2(self, tmp_path, capsys, h):
        assert run(tmp_path, "serrin", "--set", f"h={h}") == 2
        assert "error: grid spacing must be finite and positive" \
            in capsys.readouterr().err

    def test_disk_and_ellipse_diagnostics(self, tmp_path):
        assert run(tmp_path, "serrin", "--set", "h=0.04") == 0
        rep = read_report(tmp_path, "serrin")
        names = {c["name"]: c for c in rep["checks"]}
        assert names["disk_trace_std"]["passed"]
        assert names["reflection_gaps"]["passed"]
        assert names["ellipse_trace_spread"]["value"] >= 0.2
        assert names["ellipse_vs_oracle"]["passed"]
        assert names["boundary_hessian"]["passed"]
        for artifact in ("serrin_disk_field.csv", "serrin_disk_trace.csv",
                         "serrin_ellipse_trace.csv",
                         "serrin_reflection_gaps.csv"):
            assert (tmp_path / artifact).exists()


class TestSectorCommand:
    def test_equal_bounds_anchor(self, tmp_path):
        assert run(tmp_path, "sector", "--set", "spacing_denom=200") == 0
        rep = read_report(tmp_path, "sector")
        assert rep["results"]["lambda_extrapolated"] == pytest.approx(
            4.0, rel=0.01)
        assert len(rep["results"]["table"]) == 3

    def test_strict_bounds_above_anchor(self, tmp_path):
        assert run(tmp_path, "sector", "--set", "a=0.9",
                   "--set", "spacing_denom=100") == 0
        rep = read_report(tmp_path, "sector")
        assert rep["results"]["lambda_extrapolated"] > 4.0
        assert rep["results"]["gamma"] > 2.0

    def test_unsupported_dimension_exits_2(self, tmp_path):
        assert run(tmp_path, "sector", "--set", "n_dim=4") == 2


class TestPropertiesCommand:
    def test_default_seed_green(self, tmp_path):
        assert run(tmp_path, "properties", "--set", "trials=40") == 0
        rep = read_report(tmp_path, "properties")
        assert all(c["passed"] for c in rep["checks"])

    def test_broken_stencil_detected(self, tmp_path):
        assert run(tmp_path, "properties", "--set", "trials=5",
                   "--set", "break_stencil=true") == 1
        rep = read_report(tmp_path, "properties")
        names = {c["name"]: c["passed"] for c in rep["checks"]}
        assert names["monotone_scheme"] is False
        assert names["matrix_duality"] is True

    def test_scheme_duality_reports_the_worst_trial(self, tmp_path,
                                                     monkeypatch):
        real, minus_calls = cli.discretize_F, []

        def skewed(params, dom, field, weights=None):
            out = real(params, dom, field, weights)
            if params.variant is Variant.MINUS:
                minus_calls.append(field)
                if len(minus_calls) == 1:
                    # only the first trial's duality gap is 1e-6
                    return GridField(dom, out.values + 1e-6,
                                     out.boundary_values)
            return out

        monkeypatch.setattr(cli, "discretize_F", skewed)
        assert run(tmp_path, "properties", "--set", "trials=5") == 1
        rep = read_report(tmp_path, "properties")
        names = {c["name"]: c["passed"] for c in rep["checks"]}
        assert names["scheme_duality"] is False
        assert rep["results"]["worst"]["scheme_duality"] == \
            pytest.approx(1e-6, rel=1e-3)

    def test_verdicts_stable_across_seeds(self, tmp_path):
        run(tmp_path / "s0", "properties", "--set", "trials=25")
        run(tmp_path / "s1", "properties", "--set", "trials=25",
            "--set", "seed=123")
        v0 = [(c["name"], c["passed"]) for c in
              read_report(tmp_path / "s0", "properties")["checks"]]
        v1 = [(c["name"], c["passed"]) for c in
              read_report(tmp_path / "s1", "properties")["checks"]]
        assert v0 == v1

    def test_reports_deterministic_outside_meta(self, tmp_path):
        run(tmp_path / "r1", "properties", "--set", "trials=15")
        run(tmp_path / "r2", "properties", "--set", "trials=15")
        one = read_report(tmp_path / "r1", "properties")
        two = read_report(tmp_path / "r2", "properties")
        one.pop("meta"), two.pop("meta")
        assert one == two


class TestReportCommand:
    def test_aggregates_prior_runs(self, tmp_path):
        run(tmp_path, "radial")
        run(tmp_path, "overdetermined")
        assert run(tmp_path, "report") == 0
        rep = read_report(tmp_path, "report")
        cmds = sorted(r["command"] for r in rep["results"]["commands"])
        assert cmds == ["overdetermined", "radial"]
        with open(tmp_path / "report_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["command"] for r in rows} == {"radial", "overdetermined"}

    def test_empty_directory_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--out", str(tmp_path)])

    def test_failures_propagate(self, tmp_path):
        run(tmp_path, "properties", "--set", "trials=5",
            "--set", "break_stencil=true")
        assert run(tmp_path, "report") == 1


class TestMeta:
    def test_report_round_trips(self, tmp_path):
        run(tmp_path, "radial")
        rep = read_report(tmp_path, "radial")
        text = json.dumps(rep, indent=2, sort_keys=True) + "\n"
        assert text == (tmp_path / "radial.report.json").read_text()
