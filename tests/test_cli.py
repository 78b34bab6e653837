"""End-to-end runs of the command line front end."""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pucci_lab import Variant, cli
from pucci_lab.cli import _DEFAULTS, load_config, main
from pucci_lab.grid import GridField
from pucci_lab.grid.solver import _LATTICE_MAPS


ROOT = Path(__file__).resolve().parents[1]


def command_of(key):
    """The first command that has the config key."""
    return next(cmd for cmd, keys in _DEFAULTS.items() if key in keys)


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

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # an invalid setting exits 2, as every other does; 1 is a failed
        # check
        with pytest.raises(ValueError, match="unknown --set keys"):
            load_config("radial", None, {"radiuss": 2.0})
        assert run(tmp_path, "radial", "--set", "radiuss=2") == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown --set keys for 'radial': radiuss")

    @pytest.mark.parametrize("key, value, ok", [
        ("n_dim", 3, True), ("n_dim", 3.0, True), ("n_dim", 2.7, False),
        ("n_dim", True, False), ("n_dim", "3", False),
        ("n_dim", float("nan"), False), ("radius", 2, True),
        ("radius", 0.5, True), ("radius", float("-inf"), False),
        ("radius", None, False), ("n_dim", 10 ** 400, False),
        ("a", 10 ** 400, False), ("deltas", [0.1, "x"], False),
        ("c_values", [float("nan")], False), ("ellipse", [2, True], False),
        ("directions", [[1, 0, 0]], False), ("directions", [1, 0], False)])
    def test_setting_kinds(self, key, value, ok):
        command = command_of(key)
        if ok:
            got = load_config(command, None, {key: value})[key]
            assert got == value and type(got) is cli._SETTINGS[key][0]
            return
        with pytest.raises(ValueError, match=f"^{key} must be a "):
            load_config(command, None, {key: value})

    @pytest.mark.parametrize("key, value, want", [
        ("deltas", [1, 0.5], "[1.0, 0.5]"),
        ("directions", [[1, 0], [2.5, -1]], "[[1.0, 0.0], [2.5, -1.0]]")])
    def test_lists_hand_back_floats(self, key, value, want):
        assert repr(load_config(command_of(key), None, {key: value})[key]) \
            == want

    def test_every_setting_has_a_row(self):
        # output_dir has no default, and --out overrides it
        assert set(cli._SETTINGS) == set().union(*_DEFAULTS.values(),
                                                 {"output_dir"})

    @pytest.mark.parametrize("command", [c for c, keys in _DEFAULTS.items()
                                         if keys])
    def test_sweep_rejects_or_normalizes(self, command):
        # every key at every value of the settings sweep, with no solve:
        # rejected naming the key, or handed back as the kind the command
        # reads
        values = [float("nan"), float("inf"), float("-inf"), True, None,
                  "x", [], -1, 0, 0.5, 2.7]
        for key in _DEFAULTS[command]:
            kind = cli._SETTINGS[key][0]
            for value in values:
                try:
                    got = load_config(command, None, {key: value})[key]
                except ValueError as exc:
                    assert str(exc).startswith(f"{key} must "), exc
                    continue
                assert kind in (int, float, bool), (key, value)
                assert type(got) is kind, (key, value, got)
                assert got == value
                if kind is not bool:
                    assert math.isfinite(got)

    def test_defaults_take_their_kinds(self):
        cfg = load_config("serrin")
        assert repr(cfg["n_planes"]) == "4"
        assert repr(cfg["directions"][3]) == "[2.0, -1.0]"
        assert repr(load_config("sector")["spacing_denom"]) == "400.0"

    def test_default_directions_keep_one_off_the_lattice_mirrors(self):
        # a grid solve folds by each lattice map of its problem, so the
        # reflection gaps near t = 0 along a lattice mirror's normal are 0
        # by construction; (2, -1) names no lattice mirror and keeps the
        # reflection check's teeth
        off = []
        for d in load_config("serrin")["directions"]:
            n = np.array(d) / np.hypot(*d)
            mirror = np.eye(2) - 2.0 * np.outer(n, n)
            if not any(np.allclose(mirror, g) for g in _LATTICE_MAPS):
                off.append(d)
        assert [2.0, -1.0] in off

    def test_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_config("radial", str(path), None)
        assert run(tmp_path, "radial", "--config", str(path)) == 2

    @pytest.mark.parametrize("name, text, message", [
        ("nope.json", None, "config file {path}: No such file or directory"),
        ("bad.json", "{tol: 1}", "config file {path}: Expecting property"),
        # the directory itself
        ("", None, "config file {path}: Is a directory"),
    ])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, name, text,
                                     message):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert run(tmp_path, "radial", "--config", str(path)) == 2
        assert capsys.readouterr().err.startswith(
            "error: " + message.format(path=path))

    def test_override_needs_a_value(self, tmp_path, capsys):
        assert run(tmp_path, "radial", "--set", "tol") == 2
        assert capsys.readouterr().err.startswith(
            "error: --set needs key=value, got 'tol'")

    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"h_grid": 0.1}))
        with pytest.raises(ValueError, match="unknown config file keys"):
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
    ("radial", "n_dim=1", "n_dim must be >= 2, got 1"),
    ("radial", "radius=0", "radius must be > 0, got 0"),
    ("radial", "f0=-1", "f0 must be >= 0, got -1"),
    ("overdetermined", "n_dim=1", "n_dim must be >= 2, got 1"),
    ("eigen", "radius=0", "radius must be > 0, got 0"),
    ("properties", "trials=0", "trials must be >= 1, got 0"),
    ("sector", "deltas=[0.1]", "deltas must hold >= 2 items, got [0.1]"),
    ("sector", "epsilon=NaN", "epsilon must be a finite number, got nan"),
    ("sector", "epsilon=Infinity", "epsilon must be a finite number"),
    # an infinite A used to reach splu as an exactly singular matrix
    ("sector", "A=Infinity", "A must be a finite number, got inf"),
    # the library still checks what it states: 0 < a <= A, epsilon >= 0
    ("sector", "a=2", "need finite 0 < a <= A"),
    ("sector", "epsilon=-1", "need a finite epsilon >= 0"),
    # int() of an infinite setting raised OverflowError, and of 2.7 ran N = 2
    ("radial", "n_dim=Infinity", "n_dim must be a finite integer"),
    ("sector", "n_dim=Infinity", "n_dim must be a finite integer"),
    ("radial", "n_dim=2.7", "n_dim must be a finite integer, got 2.7"),
    ("radial", "radius=Infinity", "radius must be a finite number"),
    ("serrin", "disk_radius=Infinity", "disk_radius must be a finite number"),
    ("serrin", "n_planes=Infinity", "n_planes must be a finite integer"),
    ("serrin", "n_planes=2.9", "n_planes must be a finite integer"),
    ("properties", "seed=Infinity", "seed must be a finite integer"),
    ("properties", "trials=Infinity", "trials must be a finite integer"),
    # these ran: as a = 1, shift 0, the default stencil, a check that
    # always passes, no planes and no directions
    ("radial", "a=true", "a must be a finite number, got True"),
    ("properties", "shift=null", "shift must be a finite number, got None"),
    ("properties", "break_stencil=null",
     "break_stencil must be true or false, got None"),
    ("serrin", "spread_min=-1", "spread_min must be >= 0, got -1"),
    ("serrin", "n_planes=0", "n_planes must be >= 1, got 0"),
    ("serrin", "directions=[]", "directions must hold >= 1 items, got []"),
    ("serrin", "directions=[[0,0]]", "directions must be a list of [x, y]"),
    ("radial", "tol=NaN", "tol must be a finite number, got nan"),
    ("radial", "tol=-1", "tol must be >= 0, got -1"),
    # these raised TypeError or ZeroDivisionError
    ("radial", "a=x", "a must be a finite number, got 'x'"),
    ("radial", "tol=null", "tol must be a finite number, got None"),
    ("serrin", "ellipse=0", "ellipse must be a list of finite numbers"),
    ("serrin", "ellipse=[2]", "ellipse must hold == 2 items, got [2]"),
    ("overdetermined", "c_values=true",
     "c_values must be a list of finite numbers, got True"),
    ("sector", "spacing_denom=0", "spacing_denom must be > 0, got 0"),
    # numpy warned of a rank-deficient fit, and the anchor check failed
    ("sector", "deltas=[0.1,0.1]", "need distinct sample points"),
    # reached os.makedirs as a bool and raised TypeError
    ("radial", "output_dir=true", "output_dir must be a string, got True"),
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

    def test_small_radius_resolves(self, tmp_path):
        # the step is relative to the radius, so a small ball has as
        # many steps as the unit one
        assert run(tmp_path, "radial", "--set", "radius=1e-3") == 0
        rep = read_report(tmp_path, "radial")
        assert rep["results"]["sup_error"] <= 1e-12

    @pytest.mark.parametrize("command", ["radial", "overdetermined"])
    def test_upper_bound_is_not_a_setting(self, tmp_path, capsys, command):
        # the concave profile reads only a, so A would take no effect
        assert run(tmp_path, command, "--set", "A=3") == 2
        assert capsys.readouterr().err.startswith(
            f"error: unknown --set keys for '{command}': A")

    def test_nan_tolerance_writes_standard_json(self, tmp_path):
        # the report is standard JSON: a number that is not finite is
        # written as null, and a check whose bound is not finite fails;
        # load_config rejects such a setting, so the report is made here
        def reject(constant):
            raise AssertionError(f"report holds {constant}")

        nan = float("nan")
        checks = [cli._at_most("closed_form_sup_error", 1e-7, nan),
                  cli._at_most("first_zero_at_radius", 1e-7, 1e-4)]
        assert cli._finish("radial", {"tol": nan}, {"sup_error": 1e-7},
                           checks, str(tmp_path), time.perf_counter()) == 1
        text = (tmp_path / "radial.report.json").read_text()
        rep = json.loads(text, parse_constant=reject)
        assert rep["parameters"]["tol"] is None
        assert [(c["name"], c["passed"], c["bound"]) for c in rep["checks"]] \
            == [("closed_form_sup_error", False, None),
                ("first_zero_at_radius", True, 1e-4)]
        # inf <= inf holds, but an infinite value fails its check too
        assert cli._at_most("gap", float("inf"), float("inf"))["passed"] \
            is False


class TestOverdeterminedCommand:
    def test_round_trip(self, tmp_path):
        assert run(tmp_path, "overdetermined") == 0
        rep = read_report(tmp_path, "overdetermined")
        assert rep["results"]["max_residual"] <= 1e-5
        assert rep["results"]["laplacian_radius"] == pytest.approx(1.0)

    def test_positive_datum_exits_2(self, tmp_path):
        assert run(tmp_path, "overdetermined", "--set", "c_values=[0.5]") == 2

    @pytest.mark.parametrize("alpha", [4.0, 8.0])
    def test_large_alpha_small_radii_resolve(self, tmp_path, alpha):
        # the default data give a radius near 1e-3 here, which a step
        # relative to the radius resolves
        assert run(tmp_path, "overdetermined", "--set", f"alpha={alpha}") == 0
        rep = read_report(tmp_path, "overdetermined")
        assert min(r["radius"] for r in rep["results"]["table"]) < 0.005
        assert rep["results"]["max_residual"] <= 1e-10
        # the Laplacian link needs alpha = 0 only
        assert "laplacian_radius" not in rep["results"]

    def test_laplacian_link_at_any_lower_bound(self, tmp_path):
        assert run(tmp_path, "overdetermined", "--set", "a=2") == 0
        rep = read_report(tmp_path, "overdetermined")
        assert rep["results"]["laplacian_radius"] == pytest.approx(1.0)


class TestEigenCommand:
    def test_disk_against_oracles(self, tmp_path):
        assert run(tmp_path, "eigen", "--set", "h=0.05") == 0
        rep = read_report(tmp_path, "eigen")
        assert abs(rep["results"]["disk_grid"]
                   - rep["results"]["bessel_oracle"]) < 0.12
        # the one-shot ball eigenvalue is checked against the Brent search
        brent = {c["name"]: c for c in rep["checks"]}["shooting_vs_brent"]
        assert brent["passed"]
        assert brent["value"] == rep["results"]["shooting_vs_brent"] <= 1e-6
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

    def test_shift_moves_the_small_domain_sups(self, tmp_path):
        sups = []
        for shift in (10.0, 20.0):
            assert run(tmp_path, "properties", "--set", "trials=5",
                       "--set", f"shift={shift}") == 0
            rep = read_report(tmp_path, "properties")
            sups.append(rep["results"]["small_domain_sups"])
            assert len(sups[-1]) == len(rep["results"]["small_domain_sizes"])
        assert sups[0] != sups[1]

    def test_broken_stencil_detected(self, tmp_path):
        assert run(tmp_path, "properties", "--set", "trials=5",
                   "--set", "break_stencil=true") == 1
        rep = read_report(tmp_path, "properties")
        names = {c["name"]: c["passed"] for c in rep["checks"]}
        assert names["monotone_scheme"] is False
        assert names["consistency"] is False
        assert names["matrix_duality"] is True

    def test_gradient_weight_breaks_monotonicity(self, tmp_path):
        # at alpha = 0.5 a rising neighbour steepens the gradient at the
        # paraboloid's peak, and the operator there falls
        assert run(tmp_path, "properties", "--set", "alpha=0.5",
                   "--set", "trials=5") == 1
        rep = read_report(tmp_path, "properties")
        names = {c["name"]: c["passed"] for c in rep["checks"]}
        assert names["monotone_scheme"] is False
        assert rep["results"]["worst"]["monotone_scheme"] < -1e-3

    def test_stalled_comparison_solve_fails_its_check(self, tmp_path,
                                                      whole_domain):
        # at alpha = 1 the g = 0.2 comparison solve on the whole domain
        # stops at its step cap (folded by the disk's 8 lattice maps it
        # converges); the suite still reports all of its checks, in
        # standard JSON
        assert run(tmp_path, "properties", "--set", "alpha=1",
                   "--set", "trials=5") == 1
        rep = read_report(tmp_path, "properties")
        json.dumps(rep, allow_nan=False)
        failed = {c["name"] for c in rep["checks"] if not c["passed"]}
        assert len(rep["checks"]) == 9
        assert failed == {"monotone_scheme", "comparison_nonincreasing"}

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

    def test_empty_directory_errors(self, tmp_path, capsys):
        assert run(tmp_path, "report") == 2
        assert capsys.readouterr().err == \
            f"error: no *.report.json files under {tmp_path}\n"

    @pytest.mark.parametrize("text, message", [
        ('{"command": "x", "checks": []}',
         ": entry meta.wall_time_s is missing or of the wrong kind"),
        ('[{"command": "x"}]', " must hold a JSON object"),
        ('{"checks": [], "meta": {"wall_time_s": 1.0}}',
         ": entry command is missing or of the wrong kind"),
        ('{"command": "x", "checks": [{}], "meta": {"wall_time_s": 1.0}}',
         ": entry checks[].passed is missing or of the wrong kind"),
        ("{", ": Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)")])
    def test_foreign_report_errors(self, tmp_path, capsys, text, message):
        # a file that is not a command's report is a usage error, exit 2,
        # named in the message, and not a failed check
        path = tmp_path / "foreign.report.json"
        path.write_text(text)
        assert run(tmp_path, "report") == 2
        assert capsys.readouterr().err == f"error: report {path}{message}\n"

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


@pytest.mark.parametrize("args, code, err", [
    (["radial"], 0, ""),
    (["serrin", "--set", "ellipse=0"], 2,
     "error: ellipse must be a list of finite numbers, got 0\n")])
def test_module_entry_point(tmp_path, args, code, err):
    # python -m pucci_lab.cli runs main under the module's __main__ guard
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pucci_lab.cli", *args, "--out", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (code, err)
