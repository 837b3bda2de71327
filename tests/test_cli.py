"""Configuration parsing, pipeline artifacts, plot data, CLI surface."""

import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gradsing import analytic, cli, initdata, pipeline, solver, specfn, verify
from gradsing.config import (
    ALL_CHECKS, ConfigError, ContinuationConfig, InitdataConfig, ModelConfig,
    OutputConfig, PRESETS, RunConfig, VerifyConfig, load_config, preset,
)

QUICK_CONFIG = """
[run]
name = quick

[model]
n = 2
R = 0.6

[initdata]
family = mode_deficit
deficit_amplitude = 0.25
blend_exponent = 2

[scheme]
time_stepper = implicit_euler
dt = 0.002

[continuation]
eps_sequence = 0.05, 0.04
reference_eps = 0.04
num_nodes = 120
horizon_efolds = 2.0

[verify]
enabled = analytic_residuals, sandwich, monotone, gradient_box

[output]
directory = quickrun
save_every = 20
"""

# the keys that once set bounds, powers, fractions, the amplitude policy,
# the mode rate, the Newton controls and the compact window
RETIRED_KEYS = [
    ("model", "lambda_fraction = 0.9"),
    ("model", "R_fraction = 0.9"),
    ("model", "amplitude_policy = fit"),
    ("model", "amplitude = 0.0"),
    ("model", "amplitude_floor = 0.05"),
    ("verify", "bernstein_powers = 4, 28"),
    ("verify", "bernstein_delta_fraction = 0.05"),
    ("verify", "pointwise_power = 28"),
    ("verify", "uniqueness_tol = 1e-3"),
    ("verify", "tol_sandwich = 1e-12"),
    ("verify", "tol_grad = 1e-12"),
    ("model", "lambda = 2.5"),
    ("scheme", "dt_control = 6"),
    ("scheme", "newton_tol = 1e-11"),
    ("scheme", "newton_max_iter = 14"),
    ("continuation", "compact_r_fraction = 0.1"),
    ("continuation", "compact_t_start = 0.5"),
]

# (text in QUICK_CONFIG, its replacement, start of the error message); keys
# are named as configparser reads them, lower-cased
CONFIG_ERRORS = [
    *((f"[{section}]\n", f"[{section}]\n{line}\n",
       f"{section}.{line.split(' =')[0].lower()}: unknown key")
      for section, line in RETIRED_KEYS),
    ("horizon_efolds", "horizon_efold", "continuation.horizon_efold: unknown key"),
    ("[verify]", "[verfiy]", "verfiy.enabled: unknown section [verfiy]"),
    ("analytic_residuals, sandwich, monotone, gradient_box", "",
     "verify.enabled: names no check"),
    # values that parse but that the model or the datum rejects
    ("n = 2", "n = 1", "model.n: dimension must be an integer >= 2, got 1"),
    ("family = mode_deficit", "family = foo", "initdata: unknown family 'foo'"),
    ("deficit_amplitude = 0.25", "deficit_amplitude = -0.1",
     "initdata: amplitude must be nonnegative"),
]

# every field of every section away from its default
EVERY_FIELD = RunConfig(
    name="every-field",
    model=ModelConfig(n=3, R=1.2),
    initdata=InitdataConfig(family="polynomial_blend", deficit_amplitude=0.1,
                            blend_exponent=3.0),
    scheme=solver.SchemeConfig(time_stepper="crank_nicolson", dt=5e-4),
    continuation=ContinuationConfig(
        eps_sequence=(0.03, 0.015), reference_eps=0.015, num_nodes=200,
        horizon_efolds=4.0),
    verify=VerifyConfig(enabled=("sandwich", "decay")),
    output=OutputConfig(directory="runs/every", save_every=5),
)


class TestConfig:
    def test_presets_validate(self):
        """Each preset passes the checks a file of its canonical text gets."""
        for name in PRESETS:
            assert load_config(preset(name).canonical_text()) == preset(name)

    @pytest.mark.parametrize("name, digest", [
        ("n2-standard",
         "6ed54919643f0178a38764cfbc32a7a60160a80c3d860fef27f041446e8a3536"),
        ("n3-weak",
         "dd9353d21a0ee1ef3842017bfb6156422bc2cd5d86123d9b6bea553daece1b9a"),
    ])
    def test_preset_hash_pinned(self, name, digest):
        assert preset(name).content_hash() == digest

    def test_every_field_round_trips(self):
        cfg = EVERY_FIELD
        for section in dataclasses.fields(cfg):
            value = getattr(cfg, section.name)
            if dataclasses.is_dataclass(value):
                for f in dataclasses.fields(value):
                    assert getattr(value, f.name) != f.default, \
                        f"{section.name}.{f.name} left at its default"
        assert load_config(cfg.canonical_text()) == cfg

    def test_grading_exponent_is_a_constant_not_a_key(self):
        """Every run grades its grids with gamma = 2; no file, preset or
        replace sets it, and the canonical text does not name it."""
        cfg = preset("n2-standard")
        assert ContinuationConfig.grading_exponent == 2.0
        assert cfg.continuation.grid_policy == solver.GridPolicy(400, 2.0)
        assert "grading_exponent" not in cfg.canonical_text()
        with pytest.raises(TypeError):
            dataclasses.replace(cfg.continuation, grading_exponent=1.5)

    def test_all_next_to_a_typo_rejected(self):
        with pytest.raises(ConfigError, match="verify.enabled"):
            load_config(QUICK_CONFIG.replace(
                "enabled = analytic_residuals, sandwich, monotone, gradient_box",
                "enabled = all, sandwhich"))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            preset("n9-imaginary")

    def test_round_trip_through_canonical_text(self):
        cfg = preset("n2-standard")
        again = load_config(cfg.canonical_text())
        assert again.model.n == cfg.model.n
        assert again.continuation.eps_sequence == cfg.continuation.eps_sequence
        assert again.content_hash() == cfg.content_hash()

    @pytest.mark.parametrize("old, new, message", CONFIG_ERRORS,
                             ids=[message for *_, message in CONFIG_ERRORS])
    def test_config_error_names_the_key(self, old, new, message, tmp_path,
                                        capsys):
        """A retired key, a typo, an empty check list or a value outside
        the model's domain must not run quietly with the built-in values or
        end in a traceback: load_config or build_model names the key, and
        every command that builds the model exits 2."""
        text = QUICK_CONFIG.replace(old, new)
        with pytest.raises(ConfigError) as info:
            pipeline.build_model(load_config(text))
        assert str(info.value).startswith(message)
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(text)
        for command in (["run"], ["solve"], ["initdata", "validate"]):
            assert cli.main([*command, "--config", str(cfg_path)]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("R", ["0", "-0.5"])
    def test_nonpositive_radius_rejected_before_zero_search(
            self, R, tmp_path, capsys, monkeypatch):
        text = QUICK_CONFIG.replace("R = 0.6", f"R = {R}")
        monkeypatch.setattr(specfn, "first_zeros", None)  # must not be reached
        with pytest.raises(analytic.AdmissibilityError,
                           match=f"^R={float(R):g} is not a positive finite"):
            pipeline.build_model(load_config(text))
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(text)
        for command in (["run"], ["solve"], ["initdata", "validate"]):
            assert cli.main([*command, "--config", str(cfg_path)]) == 2
            assert "rejected: R=" in capsys.readouterr().err

    def test_retired_imex_cn_token_is_config_error(self, tmp_path, capsys):
        text = QUICK_CONFIG.replace("implicit_euler", "imex_cn")
        with pytest.raises(ConfigError, match="crank_nicolson"):
            load_config(text)
        cfg_path = tmp_path / "cn.ini"
        cfg_path.write_text(text)
        assert cli.main(["initdata", "validate", "--config", str(cfg_path)]) == 2
        assert "imex_cn" in capsys.readouterr().err

    def test_output_formats_key_rejected(self):
        with pytest.raises(ConfigError, match="^output.formats: unknown key"):
            load_config(QUICK_CONFIG + "formats = csv, npz\n")

    def test_literal_text_parses(self):
        cfg = load_config(QUICK_CONFIG)
        assert cfg.name == "quick"
        assert cfg.continuation.eps_sequence == (0.05, 0.04)
        assert cfg.verify.checks() == (
            "analytic_residuals", "sandwich", "monotone", "gradient_box",
        )

    def test_missing_file_reported(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/conf.ini")

    def test_path_with_equals_sign_is_a_path(self, tmp_path, monkeypatch):
        """Only an argument with a newline is read as text."""
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "r=0.6.ini"
        cfg_path.write_text(preset("n2-standard").canonical_text())
        assert load_config(str(cfg_path)) == preset("n2-standard")
        assert cli.main(["run", "--config", str(cfg_path),
                         "--only", "analytic"]) == 0

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="model.n"):
            load_config(QUICK_CONFIG.replace("n = 2", "n = two"))

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="verify.enabled"):
            load_config(
                QUICK_CONFIG.replace("analytic_residuals", "horoscope")
            ).verify.checks()

    def test_reference_eps_must_be_member(self):
        with pytest.raises(ConfigError, match="reference_eps"):
            load_config(QUICK_CONFIG.replace("reference_eps = 0.04",
                                             "reference_eps = 0.03"))

    def test_eps_sequence_must_decrease(self):
        with pytest.raises(ConfigError, match="eps_sequence"):
            load_config(QUICK_CONFIG.replace("0.05, 0.04", "0.04, 0.05"))

    def test_section_built_in_python_is_checked(self):
        """A section built or replaced in Python gets the checks of a file
        when it is constructed, not only when a run starts."""
        cont = preset("n2-standard").continuation
        with pytest.raises(ConfigError, match="^continuation.reference_eps: "):
            dataclasses.replace(cont, reference_eps=0.3)
        with pytest.raises(ConfigError, match="^model.R: must be given"):
            ModelConfig(n=2)

    def test_one_of_R_lambda_required(self):
        """The ball radius is required; the mode rate follows from it."""
        with pytest.raises(ConfigError, match="^model.R: must be given"):
            load_config(QUICK_CONFIG.replace("R = 0.6", ""))


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory, monkeypatch_module):
    out_root = tmp_path_factory.mktemp("runs")
    monkeypatch_module.setenv("GRADSING_OUTPUT_ROOT", str(out_root))
    cfg = load_config(QUICK_CONFIG)
    result = pipeline.run_pipeline(cfg)
    return result, out_root / "quickrun"


@pytest.fixture(scope="module")
def monkeypatch_module():
    from _pytest.monkeypatch import MonkeyPatch

    mp = MonkeyPatch()
    yield mp
    mp.undo()


class TestPipeline:
    def test_degenerate_datum_gets_the_amplitude_floor(self):
        """deficit_amplitude = 0 makes the datum u*: the fitted amplitude
        is 0, and the mode keeps the floor C = 0.05."""
        cfg = load_config(QUICK_CONFIG.replace("deficit_amplitude = 0.25",
                                               "deficit_amplitude = 0"))
        params, datum = pipeline.build_model(cfg)
        assert initdata.choose_amplitude_C(params, datum) == 0.0
        assert params.C == 0.05

    def test_quick_run_passes_enabled_checks(self, quick_result):
        result, _ = quick_result
        assert result.report.all_passed()
        assert result.exit_code == 0
        names = [c.name for c in result.report.checks]
        assert "sandwich" in names and "gradient_box" in names
        assert {c.status for c in result.report.checks} <= {
            "ok", "skipped", "inconclusive"}

    def test_artifacts_written(self, quick_result):
        _, run_dir = quick_result
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "report.csv").exists()
        assert (run_dir / "field_eps0.04.csv").exists()
        assert (run_dir / "field_limit.csv").exists()

    def test_manifest_carries_config_hash_and_checksums(self, quick_result):
        result, run_dir = quick_result
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config_sha256"] == result.config.content_hash()
        assert manifest["all_checks_passed"] is True
        assert "field_limit.csv" in manifest["artifacts"]
        assert manifest["params"]["n"] == 2

    def test_rerun_reproduces_identical_artifacts(self, quick_result):
        result, run_dir = quick_result
        before = {
            p.name: p.read_bytes()
            for p in run_dir.iterdir() if p.suffix == ".csv"
        }
        manifest_before = (run_dir / "manifest.json").read_bytes()
        pipeline.run_pipeline(result.config)
        for name, blob in before.items():
            assert (run_dir / name).read_bytes() == blob
        assert (run_dir / "manifest.json").read_bytes() == manifest_before

    def test_only_analytic_skips_solves(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg = load_config(QUICK_CONFIG)
        result = pipeline.run_pipeline(cfg, only="analytic")
        assert result.continuation is None
        assert {c.name for c in result.report.checks} == {
            "stationary_residual", "linearized_residual", "subsolution_sign",
        }

    def test_field_csv_layout(self, quick_result):
        _, run_dir = quick_result
        header = (run_dir / "field_limit.csv").read_text().splitlines()[0]
        assert header == "t,r,u,u_r"


class TestPlotData:
    def test_profiles_and_series(self, quick_result):
        _, run_dir = quick_result
        paths = pipeline.emit_plotdata(
            run_dir, times=(0.1,), radius_fractions=(0.1, 0.5)
        )
        assert len(paths) == 3
        profile = Path(paths[0]).read_text().splitlines()
        assert profile[0] == "r,u,u_r,u_star,u_star_minus_v"
        assert len(profile) > 10
        row = profile[5].split(",")
        r, u, _, us, us_minus_v = map(float, row)
        assert us >= u >= us_minus_v - 1e-6
        series = Path(paths[1]).read_text().splitlines()
        assert series[0] == "t,u,u_minus_u_star,mode_envelope"

    def test_empty_time_selection_gives_header_only(self, quick_result):
        _, run_dir = quick_result
        paths = pipeline.emit_plotdata(run_dir, times=(), radius_fractions=())
        profile = Path(paths[0]).read_text().splitlines()
        assert profile == ["r,u,u_r,u_star,u_star_minus_v"]

    def test_missing_inputs_reported(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            pipeline.emit_plotdata(tmp_path, (), (0.1,))

    def test_model_follows_from_configuration_not_params_record(
            self, quick_result, tmp_path):
        """The manifest's params block is a record: editing every derived
        value in it changes no byte of the plot data."""
        _, run_dir = quick_result
        kept, edited = tmp_path / "kept", tmp_path / "edited"
        for copy in (kept, edited):
            shutil.copytree(run_dir, copy)
        manifest = json.loads((edited / "manifest.json").read_text())
        manifest["params"].update({"n": 3, "R": 0.5, "lambda": 1.0, "alpha": 1.0,
                                   "nu": 1.0, "x0": 9.0, "x1": 9.0,
                                   "decay_rate": 1.0})
        (edited / "manifest.json").write_text(json.dumps(manifest))
        written = [
            [Path(p).read_bytes() for p in pipeline.emit_plotdata(
                copy, times=(0.1, 0.5), radius_fractions=(0.1, 0.5))]
            for copy in (kept, edited)]
        assert written[0] == written[1]


def _csv_reference(header, rows) -> bytes:
    """The csv module's rendering of %.17g rows, for comparison."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.17g" % x for x in row])
    return buf.getvalue().encode()


class TestCsvWriter:
    @pytest.fixture()
    def synthetic_run(self, tmp_path):
        params = analytic.make_params(2, R=0.6, C=0.25)
        grid = solver.RadialGrid(np.array([0.0, 0.1, 0.25, 1.0 / 3.0, 0.6]))
        values = np.array([
            [0.0, -1.0 / 3.0, 2.5e-300, -1e22, 0.1],
            [0.0, np.pi, -0.0, 7.0, 1.0 / 7.0],
            [0.0, 1e-17, 2.0 / 3.0, -5.5, np.e],
        ])
        fld = solver.SpacetimeField(
            grid=grid, times=np.array([0.0, 0.1, 0.3]), values=values,
            problem=None, scheme_name="implicit_euler")
        (tmp_path / "manifest.json").write_text(json.dumps({"params": {
            "n": params.n, "R": params.R, "lambda": params.lam, "C": params.C,
            "alpha": params.alpha, "nu": params.nu, "x0": params.x0,
            "x1": params.x1}, "config": QUICK_CONFIG}))
        return tmp_path, fld

    def test_field_bytes_match_csv_module(self, synthetic_run):
        run_dir, fld = synthetic_run
        path = pipeline.write_field(run_dir, fld, save_every=2)
        assert path == run_dir / "field_limit.csv"
        grad = fld.grid.gradient(fld.values)
        rows = [(fld.times[k], r, fld.values[k, j], grad[k, j])
                for k in (0, 2) for j, r in enumerate(fld.grid.nodes)]
        blob = path.read_bytes()
        assert blob == _csv_reference(("t", "r", "u", "u_r"), rows)
        assert blob.count(b"\r\n") == 11
        assert b"0.33333333333333331" in blob

    @staticmethod
    def _savetxt_reference(fld, save_every):
        """The field file as np.savetxt writes the four stacked columns."""
        rows = slice(0, None, save_every)
        times, nodes = fld.times[rows], fld.grid.nodes
        buf = io.StringIO(newline="")
        np.savetxt(buf, np.column_stack((
            np.repeat(times, nodes.size), np.tile(nodes, times.size),
            fld.values[rows].ravel(), fld.grid.gradient(fld.values)[rows].ravel(),
        )), fmt="%.17g", delimiter=",", newline="\r\n", header="t,r,u,u_r",
            comments="")
        return buf.getvalue().encode()

    @pytest.mark.parametrize("save_every", [1, 3])
    def test_field_bytes_match_savetxt(self, tmp_path, save_every):
        """A limit field (first node r = 0) with signed zeros, the smallest
        subnormal, huge values and a NaN, over seven stored times; 70 nodes
        take more than one write per stored time."""
        nodes = np.concatenate(([0.0, 1e-3], np.linspace(0.1, 0.6, 68)))
        grid = solver.RadialGrid(nodes)
        values = np.random.default_rng(8).standard_normal((7, nodes.size))
        values[:, 0] = 0.0
        values[3, 1:5] = [-0.0, 5e-324, 1e300, np.nan]
        values[4, -4:] = [-1e300, -5e-324, 1.0 / 3.0, -0.0]
        fld = solver.SpacetimeField(
            grid=grid, times=np.linspace(0.0, 0.6, 7), values=values,
            problem=None, scheme_name="implicit_euler")
        path = pipeline.write_field(tmp_path, fld, save_every=save_every)
        assert path == tmp_path / "field_limit.csv"
        blob = path.read_bytes()
        assert blob == self._savetxt_reference(fld, save_every)
        assert blob.count(b"\r\n") == 1 + 70 * len(range(0, 7, save_every))
        assert b",-0," in blob and b"nan" in blob
        assert b"4.9406564584124654e-324" in blob

    def test_header_only_profile_and_series_bytes(self, synthetic_run):
        run_dir, fld = synthetic_run
        pipeline.write_field(run_dir, fld, save_every=1)
        profile, series = pipeline.emit_plotdata(run_dir, times=(),
                                                 radius_fractions=(0.4,))
        assert Path(profile).read_bytes() == \
            b"r,u,u_r,u_star,u_star_minus_v\r\n"
        params = pipeline._read_manifest(run_dir)[0]
        us = analytic.u_star(params, 0.25)
        v0 = float(np.max(analytic.v_mode(params, fld.grid.nodes[1:], 0.0)))
        rows = [(t, fld.values[k, 2], fld.values[k, 2] - us,
                 np.exp(-params.decay_rate * t) * v0)
                for k, t in enumerate(fld.times)]
        assert Path(series).read_bytes() == _csv_reference(
            ("t", "u", "u_minus_u_star", "mode_envelope"), rows)


# SHA-256 of the quick config's field files and of json.dumps of its
# continuation differences, per time stepper.  Recorded before the Newton
# fast paths (cached inner boundary constants, exact-cube cutoff, reused
# residuals) went in: a pure speed-up of the solver must not move a bit.
# The continuation_diffs digests are taken on solver.compact_window, which
# starts at min(0.5, T/2) = 0.259 here.
QUICK_DIGESTS = {
    "implicit_euler": {
        "continuation_diffs":
            "e6ea48ca8f9c879a4d5d6df231d5ae11e2ceb23beac6ae06a4357bb8e9eaca59",
        "field_eps0.04.csv":
            "c811489bb11b1881df3f611aea50a048a7733d8bf1acea28da1fe4bd22134ecb",
        "field_eps0.05.csv":
            "4d0c9d045a1eab6dc1ecdc09c687a900accb1132179af4eda98082d63abe95a8",
        "field_limit.csv":
            "85b5cb2523baf001e8791bd943f7f369c4ec0c31500fa72d0d59ecd5c1072ca7",
    },
    "crank_nicolson": {
        "continuation_diffs":
            "db28cb164a896358dac9a9e47c5a1fb81e0c9cf93a6fd5b06e26522af18108d6",
        "field_eps0.04.csv":
            "0c32b6b9b705bf964adaebe86449be3344d95ed6f5a541d9e29c9b10b7044789",
        "field_eps0.05.csv":
            "a81cfcde5a9cc49701a569e95772acdffb326717bca46ce1ddc10939c021a697",
        "field_limit.csv":
            "4623b53d041469bc8715a69e0608933aba7f2ee05755571dc85ad244e03622f3",
    },
}


# The same for both steppers: the quick checks measure 0 or the datum's
# gradient at t = 0.
QUICK_REPORT_DIGESTS = {
    "report.csv":
        "d9538d2b39eb5de930e86a8b217390cab5391edb30408ab2daeec47d87066ee3",
    "report.json":
        "998ba4d1de2d31e8cf00c928898f7a6a0887cba8616082b7e566f380106df899",
}


@pytest.mark.parametrize("stepper", sorted(QUICK_DIGESTS))
@pytest.mark.parametrize("block", [solver.ROW_BLOCK, 7])
def test_quick_outputs_byte_identical(block, stepper, tmp_path, monkeypatch):
    """The artifacts' bytes do not depend on the row block size."""
    monkeypatch.setattr(solver, "ROW_BLOCK", block)
    monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
    pipeline.run_pipeline(load_config(
        QUICK_CONFIG.replace("implicit_euler", stepper)))
    run_dir = tmp_path / "quickrun"
    diffs = json.loads((run_dir / "manifest.json").read_text())["continuation_diffs"]
    digests = {"continuation_diffs":
               hashlib.sha256(json.dumps(diffs).encode()).hexdigest()}
    for path in run_dir.glob("field_*.csv"):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == QUICK_DIGESTS[stepper]
    assert {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in QUICK_REPORT_DIGESTS} == QUICK_REPORT_DIGESTS


# SHA-256 of report.csv and report.json of the quick config with every
# check on and three radii (0.05, 0.04, 0.02): the reference radius, its
# half, a continuation_cauchy row and, at n = 3, the weak-form rows.
# Recorded before the sequence rows shared one judge, the cutoff rerun
# reused the reference problem and the rerun rows took SolverAbort.extra.
ALL_CHECKS_REPORT_DIGESTS = {
    (2, 0.6): {
        "report.csv":
            "de43c4249d7c1a27a335909c3ca0c00aa0e7f71c87bc2c516b8a90e1a31a71ca",
        "report.json":
            "f1180391a373a2befc8e846e1bcd587ee382879a771a2c86736471eb53cf2db8",
    },
    (3, 1.5): {
        "report.csv":
            "92cfc94822880d1de4fbce0daf28934804c48c008467e32024b0bf5823247e26",
        "report.json":
            "0edc410555b399f18267e0066a7723a5619e875afc3f442a5a271a6c81451df4",
    },
}


@pytest.mark.parametrize("n, R", sorted(ALL_CHECKS_REPORT_DIGESTS))
def test_all_checks_report_byte_identical(n, R, tmp_path, monkeypatch):
    monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
    pipeline.run_pipeline(load_config(QUICK_CONFIG.replace(
        "n = 2", f"n = {n}").replace("R = 0.6", f"R = {R}").replace(
        "0.05, 0.04", "0.05, 0.04, 0.02").replace(
        "analytic_residuals, sandwich, monotone, gradient_box",
        ", ".join(ALL_CHECKS))))
    run_dir = tmp_path / "quickrun"
    assert {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in ("report.csv", "report.json")} == \
        ALL_CHECKS_REPORT_DIGESTS[n, R]


# SHA-256 of report.csv and report.json of the quick config with every
# check on, radii (0.05, 0.04, 0.02, 0.01) and an abort injected at 0.01,
# after the reference radius 0.04 and its half: reference and half rows,
# inconclusive rows at the smallest radius and the end rows on 0.02.
# Recorded while every check still ran after the last radius.
ABORT_REPORT_DIGESTS = {
    (2, 0.6): {
        "report.csv":
            "9a3da99d1c54bfb552fe89f908e128f1c5150210b8b9d40a444d974a733034d1",
        "report.json":
            "591c3786db40d629574eb7fd1aae742ba4c565e1772bc1289e03acba68ceac67",
    },
    (3, 1.5): {
        "report.csv":
            "4c9a2679a9f7077f78d42da61e90fcbca09f85d11034b62367633fb3bcb50077",
        "report.json":
            "2a157af10699992ff5323e60218a31f8b3941374bb63ca71b04fa34fe866f56b",
    },
}


@pytest.mark.parametrize("n, R", sorted(ABORT_REPORT_DIGESTS))
def test_aborted_all_checks_report_byte_identical(n, R, tmp_path, monkeypatch):
    monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
    _abort_at(monkeypatch, 0.01)
    result = pipeline.run_pipeline(load_config(QUICK_CONFIG.replace(
        "n = 2", f"n = {n}").replace("R = 0.6", f"R = {R}").replace(
        "0.05, 0.04", "0.05, 0.04, 0.02, 0.01").replace(
        "analytic_residuals, sandwich, monotone, gradient_box",
        ", ".join(ALL_CHECKS))))
    assert result.report["continuation_complete"].measured == 3.0
    assert result.report["singularity_exponent"].status == "inconclusive"
    run_dir = tmp_path / "quickrun"
    assert {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in ("report.csv", "report.json")} == \
        ABORT_REPORT_DIGESTS[n, R]


def test_heap_peak_at_the_floor(tmp_path, monkeypatch):
    """A run's heap peak is its judged fields, the one field a rerun
    holds, and under half a field more.  On these 401-node fields of 402
    stored times, judged at eps = 0.04 only, the half field covers one row
    block's working set (the uniqueness rerun's 16-row spline fits on both
    grids, 0.55 MB of a 1.29 MB field) and the run's small arrays; the
    peak is 2.45 fields.  Keeping the written rows of the unjudged
    eps = 0.05 field took 2.50, and holding it whole through the checks
    0.9 of a field more."""
    monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
    cfg = load_config(QUICK_CONFIG.replace("n = 2", "n = 3").replace(
        "R = 0.6", "R = 1.5").replace("num_nodes = 120", "num_nodes = 400").replace(
        "sandwich, monotone, gradient_box",
        "cutoff_inactive, uniqueness, weak_identity, inner_mass"))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = pipeline.run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(c.status == "ok" for c in result.report.checks)
    judged = result.continuation.finest
    field = judged.values.nbytes
    assert judged.eps == 0.04
    assert peak <= field + field + field / 2


def test_heap_peak_streams_the_checks(tmp_path, monkeypatch):
    """With every check on, a run's heap peak is two fields and under half
    a field more.  Each field is judged once the radii its checks read are
    solved and is released after its last reader, so the rerun of the
    finest field meets no other field.  On these 401-node fields of 520
    stored times the peak is 2.40 fields, in the uniqueness rerun; keeping
    the written rows of each earlier field took 2.55, and running every
    check after the last radius held the reference and its half beside
    it, and the continuation all four fields: 4.37."""
    monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
    cfg = load_config(QUICK_CONFIG.replace("num_nodes = 120", "num_nodes = 400")
                      .replace("dt = 0.002", "dt = 0.001")
                      .replace("0.05, 0.04", "0.05, 0.04, 0.02, 0.01")
                      .replace("reference_eps = 0.04", "reference_eps = 0.02")
                      .replace("analytic_residuals, sandwich, monotone, gradient_box",
                               ", ".join(ALL_CHECKS)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = pipeline.run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert result.report["pointwise_gradient_stability"].status == "ok"
    assert result.report["uniqueness_surrogate"].status == "ok"
    finest = result.continuation.finest
    field = finest.values.nbytes
    assert finest.eps == 0.01
    assert peak <= 2 * field + field / 2


def test_heap_phases_script_names_each_phase(tmp_path, monkeypatch):
    """scripts/heap_phases.py wraps each phase by its module attribute,
    reports them in the order the pipeline streams them, and restores
    every attribute it wrapped; a proven rerun builds no field."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "heap_phases.py"
    spec = importlib.util.spec_from_file_location("heap_phases", script)
    heap_phases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(heap_phases)
    monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
    originals = (solver.solve_annulus, pipeline.write_field, pipeline._persist,
                 pipeline.emit_plotdata, dict(verify.CHECKS))
    peaks, fields = heap_phases.phase_peaks(load_config(RERUN_CONFIG), True)
    assert [label for label, _ in peaks] == [
        "solve eps=0.05 implicit_euler", "field write eps=0.05",
        "solve eps=0.04 implicit_euler", "field write eps=0.04",
        "sandwich", "cutoff_inactive", "solve eps=0.04 implicit_euler",
        "field write limit", "uniqueness", "solve eps=0.04 crank_nicolson",
        "continuation_cauchy", "report and manifest", "plot data"]
    # A solve that steps holds the field it builds, half of the two
    # written.  A rerun's solve also holds the field its check judges, so
    # the stepped uniqueness rerun reads above both fields.  The reference
    # at eps = 0.04 never reaches the cutoff's taper, so the cutoff_inactive
    # rerun is that field (solver.shared_solves): it builds none, and its
    # solve holds the reference alone, below the stepped rerun's bound.
    labels = [label for label, _ in peaks]
    proven = labels.index("cutoff_inactive") + 1
    stepped_rerun = peaks[labels.index("uniqueness") + 1][1]
    assert all(peak > fields / 2 > 0 for i, (label, peak) in enumerate(peaks)
               if label.startswith("solve") and i != proven)
    assert fields / 2 < peaks[proven][1] < fields < stepped_rerun
    assert (solver.solve_annulus, pipeline.write_field, pipeline._persist,
            pipeline.emit_plotdata, dict(verify.CHECKS)) == originals


def _direct_file(out_dir, result, eps) -> bytes:
    """The bytes ``write_field`` writes to ``out_dir`` for a direct solve
    of ``result``'s problem at inner radius ``eps``."""
    cfg = result.config
    datum = pipeline.build_model(cfg)[1]
    grid = cfg.continuation.grid_policy.build(eps, result.params.R)
    problem = initdata.make_epsilon_problem(result.params, datum, eps,
                                            grid.nodes)
    direct = solver.solve_annulus(problem, grid, result.horizon, cfg.scheme)
    out_dir.mkdir(exist_ok=True)
    return pipeline.write_field(out_dir, direct,
                                cfg.output.save_every).read_bytes()


def test_every_field_but_the_finest_is_released_to_its_file(tmp_path,
                                                            monkeypatch):
    """After a run, the field at eps = 0.05, which no check reads, and the
    reference field at eps = 0.04, released after its checks, hold no
    times and no values, and their files hold bitwise the rows a direct
    solve writes; the finest field holds every stored time."""
    monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
    cfg = load_config(QUICK_CONFIG.replace("0.05, 0.04", "0.05, 0.04, 0.02"))
    result = pipeline.run_pipeline(cfg)
    run_dir = pipeline.resolve_output_dir(cfg)
    for eps in (0.05, 0.04):
        released = result.continuation.field_at(eps)
        assert released.times is None and released.values is None
        name = f"field_eps{eps!r}.csv"
        assert (run_dir / name).read_bytes() == \
            _direct_file(tmp_path / "direct", result, eps)
    finest = result.continuation.finest
    assert finest.eps == 0.02
    stored = int(round(result.horizon / cfg.scheme.dt)) + 1
    assert len(finest.times) == len(finest.values) == stored


def test_each_release_trims_the_heap(tmp_path, monkeypatch):
    """Each release hands the freed heap pages back with malloc_trim(0);
    where the C library has no malloc_trim the run writes the same
    report."""
    monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
    cfg = load_config(QUICK_CONFIG)
    trims, releases = [], []
    release = pipeline._release
    monkeypatch.setattr(pipeline, "_release",
                        lambda *a: releases.append(1) or release(*a))
    monkeypatch.setattr(pipeline, "_malloc_trim", lambda: trims.append)
    pipeline.run_pipeline(cfg)
    report = pipeline.resolve_output_dir(cfg) / "report.csv"
    trimmed = report.read_bytes()
    assert releases and trims == [0] * len(releases)
    monkeypatch.setattr(pipeline, "_malloc_trim", lambda: None)
    pipeline.run_pipeline(cfg)
    assert report.read_bytes() == trimmed


def test_radii_equal_to_six_digits_write_their_own_files(tmp_path,
                                                         monkeypatch):
    """Radii 0.04 and 0.03999999 agree to six significant digits and each
    writes its own field file: three field files and the limit file, each
    listed in the manifest, and each radius's file holds the bytes a
    direct solve writes."""
    monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
    radii = (0.05, 0.04, 0.03999999)
    cfg = load_config(QUICK_CONFIG.replace(
        "0.05, 0.04", ", ".join(map(repr, radii))))
    result = pipeline.run_pipeline(cfg)
    run_dir = pipeline.resolve_output_dir(cfg)
    names = [f"field_eps{eps!r}.csv" for eps in radii]
    assert sorted(path.name for path in run_dir.glob("field_*.csv")) == \
        sorted(names + ["field_limit.csv"])
    listed = json.loads((run_dir / "manifest.json").read_text())["artifacts"]
    assert set(names + ["field_limit.csv"]) <= set(listed)
    for eps, name in zip(radii, names):
        assert (run_dir / name).read_bytes() == \
            _direct_file(tmp_path / "direct", result, eps)


def test_unsolved_radius_reason_names_it_as_its_file_does(tmp_path,
                                                          monkeypatch):
    """With radii 0.05, 0.04 and 0.03999999 and an abort at 0.03999999,
    the singularity row names the radius that was not solved, not 0.04,
    which was."""
    monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
    _abort_at(monkeypatch, 0.03999999)
    result = pipeline.run_pipeline(load_config(QUICK_CONFIG.replace(
        "0.05, 0.04", "0.05, 0.04, 0.03999999").replace(
        "gradient_box", "gradient_box, singularity")))
    row = result.report["singularity_exponent"]
    assert row.status == "inconclusive"
    assert row.extra["reason"] == "eps = 0.03999999 not solved"


def test_quick_newton_solve_bitwise_equals_scipy():
    """The first Newton system of the quick config's first step: the direct
    dgtsv solve gives scipy.linalg.solve_banded's bits."""
    cfg = load_config(QUICK_CONFIG)
    params, datum = pipeline.build_model(cfg)
    eps = cfg.continuation.eps_sequence[0]
    grid = solver.GridPolicy(cfg.continuation.num_nodes,
                             cfg.continuation.grading_exponent).build(eps, params.R)
    problem = initdata.make_epsilon_problem(params, datum, eps, grid.nodes)
    stepper = solver._Stepper(problem, grid, cfg.scheme)
    dt = cfg.scheme.dt
    u_old = problem.u0eps.values
    inner = problem.inner_bc(dt)
    u = u_old.copy()
    u[0], u[-1] = inner, stepper.outer
    g, du, f = stepper._residual(u, u_old[1:-1], np.zeros(u.size - 2), inner, dt)
    sub, diag, sup = stepper._jacobian_banded(u, du, f, dt)
    ab = np.zeros((3, u.size))
    ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
    delta = solver.solve_banded(sub, diag, sup, -g)
    assert delta.tobytes() == scipy.linalg.solve_banded((1, 1), ab, -g).tobytes()
    assert np.max(np.abs(delta)) > 0.0


class _InfDerivative(initdata.CutoffCubic):
    """A cutoff whose derivative is inf at the middle node."""

    def derivative(self, s):
        out = super().derivative(s)
        out[out.size // 2] = np.inf
        return out


def _abort_when(monkeypatch, predicate):
    """Make every annulus solve with ``predicate(problem, scheme)`` abort."""
    original = solver.solve_annulus

    def aborting(problem, grid, T, scheme):
        if predicate(problem, scheme):
            raise solver.SolverAbort("injected abort", eps=problem.epsilon,
                                     step_index=4, time=0.01)
        return original(problem, grid, T, scheme)

    monkeypatch.setattr(solver, "solve_annulus", aborting)


def _abort_at(monkeypatch, eps):
    """Make every annulus solve at inner radius ``eps`` abort."""
    _abort_when(monkeypatch, lambda problem, scheme: problem.epsilon == eps)


def _run_rows(monkeypatch, tmp_path, config_text):
    """``gradsing run`` on the config text with outputs under tmp_path:
    exit code, report rows, manifest."""
    monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(config_text)
    code = cli.main(["run", "--config", str(cfg_path)])
    run_dir = tmp_path / "quickrun"
    with open(run_dir / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return code, rows, json.loads((run_dir / "manifest.json").read_text())


GATES = ["stationary_residual", "linearized_residual", "subsolution_sign"]
RERUN_CONFIG = QUICK_CONFIG.replace(
    "sandwich, monotone, gradient_box",
    "sandwich, cutoff_inactive, uniqueness, continuation_cauchy")


class TestSolverAbort:
    def test_later_eps_abort_fails_the_run(self, tmp_path, monkeypatch, capsys):
        """An abort after the reference radius keeps the partial fields but
        must show as a FAIL row, in the manifest and in the exit code."""
        _abort_at(monkeypatch, 0.03)
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "abort.ini"
        cfg_path.write_text(
            QUICK_CONFIG.replace("0.05, 0.04", "0.05, 0.04, 0.03")
            .replace("monotone, gradient_box", "monotone"))
        assert cli.main(["run", "--config", str(cfg_path)]) == 1
        with open(tmp_path / "quickrun" / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = [row["name"] for row in rows]
        assert names == ["stationary_residual", "linearized_residual",
                         "subsolution_sign", "continuation_complete",
                         "sandwich", "monotone_gradient"]
        row = rows[3]
        assert (row["measured"], row["tolerance"], row["pass"]) == \
            ("2", "3", "false")
        assert row["status"] == "ok"
        manifest = json.loads((tmp_path / "quickrun" / "manifest.json").read_text())
        assert manifest["all_checks_passed"] is False
        assert "continuation_complete" in capsys.readouterr().out

    def test_reference_eps_abort_reports(self, tmp_path, monkeypatch):
        """An abort at the reference radius leaves no reference field: the
        run must still write the report and manifest and exit 1."""
        _abort_at(monkeypatch, 0.04)
        code, rows, manifest = _run_rows(monkeypatch, tmp_path, QUICK_CONFIG)
        assert code == 1
        assert [row["name"] for row in rows] == GATES + ["continuation_complete"]
        assert (rows[3]["measured"], rows[3]["tolerance"], rows[3]["pass"]) == \
            ("1", "2", "false")
        assert manifest["all_checks_passed"] is False
        assert "field_eps0.05.csv" in manifest["artifacts"]

    def test_first_eps_abort_reports(self, tmp_path, monkeypatch):
        """An abort at the first radius leaves no field at all: the run
        must still write the report and manifest and exit 1."""
        _abort_at(monkeypatch, 0.05)
        code, rows, manifest = _run_rows(monkeypatch, tmp_path, QUICK_CONFIG)
        assert code == 1
        assert [row["name"] for row in rows] == GATES + ["continuation_complete"]
        assert (rows[3]["measured"], rows[3]["tolerance"], rows[3]["pass"]) == \
            ("0", "2", "false")
        assert manifest["all_checks_passed"] is False
        assert manifest["continuation_diffs"] == []
        assert sorted(manifest["artifacts"]) == ["report.csv", "report.json"]

    def test_persistent_non_finite_jacobian_aborts(self, tmp_path, monkeypatch):
        """An inf in every Jacobian at the reference radius is a Newton
        failure: the step halves to the depth cap, then aborts with a
        continuation_complete FAIL row and exit 1, not a configuration
        error."""
        original = solver.solve_annulus

        def solving(problem, grid, T, scheme):
            if problem.epsilon == 0.04:
                cutoff = problem.cutoff
                problem = dataclasses.replace(problem, cutoff=_InfDerivative(
                    cutoff.c_star, cutoff.support_radius))
            return original(problem, grid, T, scheme)

        monkeypatch.setattr(solver, "solve_annulus", solving)
        code, rows, manifest = _run_rows(monkeypatch, tmp_path, QUICK_CONFIG)
        assert code == 1
        assert [row["name"] for row in rows] == GATES + ["continuation_complete"]
        assert (rows[3]["measured"], rows[3]["tolerance"], rows[3]["pass"]) == \
            ("1", "2", "false")
        assert manifest["all_checks_passed"] is False

    def test_one_non_finite_jacobian_halves_the_step(self, tmp_path, monkeypatch):
        """A single inf in the 50th cutoff derivative fails one Newton
        solve; the step is halved and the run completes."""
        calls = [0]
        original = initdata.CutoffCubic.derivative

        def derivative(self, s):
            calls[0] += 1
            out = original(self, s)
            if calls[0] == 50:
                out[out.size // 2] = np.inf
            return out

        monkeypatch.setattr(initdata.CutoffCubic, "derivative", derivative)
        code, rows, manifest = _run_rows(monkeypatch, tmp_path, QUICK_CONFIG)
        assert calls[0] > 50
        assert code == 0
        assert "continuation_complete" not in [row["name"] for row in rows]
        assert manifest["all_checks_passed"] is True

    def test_cutoff_rerun_abort_fails_its_check(self, tmp_path, monkeypatch):
        _abort_when(monkeypatch, lambda problem, scheme:
                    problem.cutoff.support_radius > 2 * problem.c_star_eps)
        code, rows, manifest = _run_rows(monkeypatch, tmp_path, RERUN_CONFIG)
        assert code == 1
        assert [row["name"] for row in rows] == GATES + [
            "sandwich", "cutoff_inactive_rerun", "uniqueness_surrogate",
            "continuation_cauchy"]
        assert (rows[4]["measured"], rows[4]["pass"], rows[4]["status"]) == \
            ("0.01", "false", "ok")
        assert rows[5]["pass"] == "true"
        assert manifest["all_checks_passed"] is False
        report = pipeline.run_pipeline(load_config(RERUN_CONFIG)).report
        assert report["cutoff_inactive_rerun"].extra == \
            {"eps": 0.04, "step": 4, "t": 0.01}

    def test_uniqueness_rerun_abort_fails_its_check(self, tmp_path,
                                                    monkeypatch):
        _abort_when(monkeypatch, lambda problem, scheme:
                    scheme.time_stepper == "crank_nicolson")
        code, rows, manifest = _run_rows(monkeypatch, tmp_path, RERUN_CONFIG)
        assert code == 1
        assert [row["name"] for row in rows] == GATES + [
            "sandwich", "cutoff_inactive_rerun", "uniqueness_surrogate",
            "continuation_cauchy"]
        assert rows[4]["pass"] == "true"
        assert (rows[5]["measured"], rows[5]["pass"], rows[5]["status"]) == \
            ("0.01", "false", "ok")
        assert rows[6]["status"] == "skipped"
        assert manifest["all_checks_passed"] is False
        report = pipeline.run_pipeline(load_config(RERUN_CONFIG)).report
        assert report["uniqueness_surrogate"].extra == \
            {"eps": 0.04, "step": 4, "t": 0.01}

    def test_cauchy_skip_states_radii_solved(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        _abort_at(monkeypatch, 0.03)
        cfg = load_config(
            QUICK_CONFIG.replace("0.05, 0.04", "0.05, 0.04, 0.03")
            .replace("sandwich, monotone, gradient_box", "continuation_cauchy"))
        result = pipeline.run_pipeline(cfg)
        res = result.report["continuation_cauchy"]
        assert res.status == "skipped"
        assert res.extra["reason"] == \
            "needs at least 3 inner radii; 2 of 3 solved"


TABLE_SUBSET = ["analytic_residuals", "sandwich", "monotone", "gradient_box",
                "cutoff_inactive", "boundary_bands"]


class TestCheckTable:
    def test_report_follows_table_not_enabled_order(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        rows = []
        for enabled in (TABLE_SUBSET, TABLE_SUBSET[::-1]):
            cfg = load_config(QUICK_CONFIG.replace(
                "analytic_residuals, sandwich, monotone, gradient_box",
                ", ".join(enabled)))
            report = pipeline.run_pipeline(cfg).report
            rows.append([(c.name, c.measured, c.tolerance, c.passed, c.status)
                         for c in report.checks])
        assert rows[0] == rows[1]
        assert [row[0] for row in rows[0]] == GATES + [
            "sandwich", "monotone_gradient", "gradient_box",
            "cutoff_inactive_rerun", "boundary_derivative_bands"]

    @pytest.mark.parametrize("n, R, eps, abort", [
        (3, 1.5, "0.05, 0.04, 0.02, 0.01", None),  # the weak form runs
        (2, 0.6, "0.05, 0.04, 0.03, 0.02", 0.02),  # finest is not the last
    ])
    def test_checks_read_only_whole_judged_fields(self, n, R, eps, abort,
                                                  tmp_path, monkeypatch):
        """Every field a CHECKS entry gets through ``field_at``, ``finest``
        or ``reference`` holds its full time lattice, at a radius the entry
        states (the finest for an entry that waits for the end); together
        the entries read the reference radius, its half, the smallest
        configured radius and the finest solved one.  After the run every
        field but the finest is released, and its file holds the bytes a
        direct solve writes."""
        seen, current = {}, []

        def spy(get):
            def recorded(*args):
                fld = get(*args)
                if fld is not None and current:
                    seen.setdefault(current[-1], set()).add(
                        (fld.eps, len(fld.times)))
                return fld
            return recorded

        def reading(name, rows):
            def run_rows(run):
                current.append(name)
                try:
                    return rows(run)
                finally:
                    current.pop()
            return run_rows

        cont_cls = solver.ContinuationResult
        monkeypatch.setattr(cont_cls, "field_at", spy(cont_cls.field_at))
        monkeypatch.setattr(cont_cls, "finest", property(spy(cont_cls.finest.fget)))
        monkeypatch.setattr(pipeline.PipelineResult, "reference", property(
            spy(pipeline.PipelineResult.reference.fget)))
        for name, (reads, rows) in list(verify.CHECKS.items()):
            monkeypatch.setitem(verify.CHECKS, name, (reads, reading(name, rows)))
        if abort is not None:
            _abort_at(monkeypatch, abort)
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg = load_config(QUICK_CONFIG.replace("n = 2", f"n = {n}").replace(
            "R = 0.6", f"R = {R}").replace("0.05, 0.04", eps).replace(
            "sandwich, monotone, gradient_box", ", ".join(ALL_CHECKS)))
        result = pipeline.run_pipeline(cfg)
        cont, cont_cfg = result.continuation, cfg.continuation
        stored = int(round(result.horizon / cfg.scheme.dt)) + 1
        for name, radii in seen.items():
            reads = verify.CHECKS[name][0]
            stated = {cont.finest.eps} if reads is None else set(reads(cont_cfg))
            assert {e for e, _ in radii} <= stated, name
            assert all(size == stored for _, size in radii), name
        judged = {cont_cfg.reference_eps, cont_cfg.reference_eps / 2.0,
                  cont_cfg.eps_sequence[-1], cont.finest.eps}
        assert {e for radii in seen.values() for e, _ in radii} == \
            judged & {f.eps for f in cont.fields}
        if abort is not None:
            assert cont.finest.eps != cont_cfg.eps_sequence[-1]
        if n == 3:
            assert result.report["weak_identity_origin_bump_wide"].status == "ok"
        run_dir = pipeline.resolve_output_dir(cfg)
        for fld in cont.fields[:-1]:
            assert fld.times is None and fld.values is None
            assert (run_dir / f"field_eps{fld.eps!r}.csv").read_bytes() == \
                _direct_file(tmp_path / "direct", result, fld.eps)
        assert len(cont.finest.times) == stored

    def test_table_calls_checks_through_module_attribute(self, tmp_path,
                                                         monkeypatch):
        """The benchmark tracer counts checks by patching these attributes."""
        calls = []
        original = verify.check_sandwich

        def spy(field):
            calls.append(field.eps)
            return original(field)

        monkeypatch.setattr(verify, "check_sandwich", spy)
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        report = pipeline.run_pipeline(load_config(QUICK_CONFIG)).report
        assert calls == [0.04]
        assert report["sandwich"].passed

    @pytest.mark.parametrize("n, R", [(2, 0.6), (3, 1.5)])
    def test_limit_built_only_where_the_weak_form_applies(
            self, n, R, tmp_path, monkeypatch):
        """The limit is built for the file, first, and for each of the two
        checks.  n = 2 skips the weak-form checks without reading a row of
        theirs, so only the persisted field_limit.csv builds limit rows,
        the written ones, ROW_BLOCK of them at a time; at n = 3 the checks
        read its rows a block at a time."""
        built, requests = [], []
        original, rows_of = solver.limit_estimate, solver.OriginRows.__getitem__
        monkeypatch.setattr(solver, "limit_estimate",
                            lambda fld: built.append(1) or original(fld))
        monkeypatch.setattr(solver.OriginRows, "__getitem__", lambda self, rows:
                            requests.append(rows) or rows_of(self, rows))
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg = load_config(QUICK_CONFIG.replace(
            "n = 2", f"n = {n}").replace("R = 0.6", f"R = {R}").replace(
            "sandwich, monotone, gradient_box", "weak_identity, inner_mass"))
        result = pipeline.run_pipeline(cfg)
        assert len(built) == 3
        save_every = cfg.output.save_every
        stored = len(result.continuation.finest.times)
        step = solver.ROW_BLOCK * save_every
        written = [slice(k, k + step, save_every) for k in range(0, stored, step)]
        assert requests[:len(written)] == written  # the file, first
        blocks = [len(range(stored)[rows]) for rows in requests[len(written):]]
        assert len(blocks) == (n - 2) * 2 * len(range(0, stored, solver.ROW_BLOCK))
        assert all(size <= solver.ROW_BLOCK for size in blocks)
        rows = [c for c in result.report.checks if c.name not in GATES]
        assert len(rows) == 4
        assert all(c.status == ("skipped" if n == 2 else "ok") for c in rows)

    def test_pointwise_stability_skipped_without_half_radius(self, tmp_path,
                                                             monkeypatch):
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg = load_config(QUICK_CONFIG.replace(
            "sandwich, monotone, gradient_box", "pointwise_gradient"))
        result = pipeline.run_pipeline(cfg)
        res = result.report["pointwise_gradient_stability"]
        assert res.status == "skipped"
        assert "0.02" in res.extra["reason"]
        assert result.exit_code == 0

    def test_pointwise_stability_inconclusive_when_half_radius_aborts(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        _abort_at(monkeypatch, 0.02)
        cfg = load_config(
            QUICK_CONFIG.replace("0.05, 0.04", "0.05, 0.04, 0.02")
            .replace("sandwich, monotone, gradient_box", "pointwise_gradient"))
        result = pipeline.run_pipeline(cfg)
        res = result.report["pointwise_gradient_stability"]
        assert res.status == "inconclusive"
        assert "0.02" in res.extra["reason"]
        assert not result.report["continuation_complete"].passed
        assert result.exit_code == 1


    def test_singularity_checks_inconclusive_when_smallest_radius_aborts(
            self, tmp_path, monkeypatch):
        """Judged at the smallest configured radius, never at a coarser
        finest field left by an abort."""
        _abort_at(monkeypatch, 0.03)
        code, rows, _ = _run_rows(
            monkeypatch, tmp_path,
            QUICK_CONFIG.replace("0.05, 0.04", "0.05, 0.04, 0.03")
            .replace("analytic_residuals, sandwich, monotone, gradient_box",
                     "singularity, shape_functional"))
        assert code == 1
        assert [row["name"] for row in rows] == [
            "continuation_complete", "singularity_exponent", "shape_functional"]
        cfg = load_config(
            QUICK_CONFIG.replace("0.05, 0.04", "0.05, 0.04, 0.03")
            .replace("sandwich, monotone, gradient_box",
                     "singularity, shape_functional"))
        report = pipeline.run_pipeline(cfg).report
        for name in ("singularity_exponent", "shape_functional"):
            res = report[name]
            assert (res.status, res.passed) == ("inconclusive", False)
            assert "0.03" in res.extra["reason"]


def _strict_json(blob):
    def reject(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")
    return json.loads(blob, parse_constant=reject)


class TestReportJson:
    def test_two_runs_write_the_same_bytes_with_reasons(
            self, tmp_path, monkeypatch):
        """report.json holds each row's name, status and extra, the reason
        of a skipped row included; a second run of the config writes the
        same bytes, which the manifest lists with their checksum."""
        config = QUICK_CONFIG.replace("sandwich, monotone, gradient_box",
                                      "pointwise_gradient, continuation_cauchy")
        blobs = []
        for side in ("first", "second"):
            (tmp_path / side).mkdir()
            code, rows, manifest = _run_rows(monkeypatch, tmp_path / side, config)
            assert code == 0
            blobs.append((tmp_path / side / "quickrun" / "report.json").read_bytes())
            assert manifest["artifacts"]["report.json"] == \
                hashlib.sha256(blobs[-1]).hexdigest()
        assert blobs[0] == blobs[1]
        report = _strict_json(blobs[0])
        assert [(r["name"], r["status"]) for r in report] == \
            [(r["name"], r["status"]) for r in rows]
        assert all(sorted(r) == ["extra", "name", "status"] for r in report)
        by_name = {r["name"]: r for r in report}
        assert by_name["pointwise_gradient_stability"] == {
            "name": "pointwise_gradient_stability", "status": "skipped",
            "extra": {"reason": "eps = 0.02 not in the eps sequence"}}
        assert by_name["continuation_cauchy"]["extra"] == {
            "reason": "needs at least 3 inner radii; 2 of 2 solved"}

    def test_non_finite_numbers_are_strings(self, tmp_path):
        report = verify.VerificationReport([verify.CheckResult(
            name="probe", claim="c", measured=float("nan"),
            tolerance=float("inf"), passed=False, status="inconclusive",
            extra={"b": [float("inf"), -np.inf, 1.5], "a": np.float64("nan"),
                   "window": (0.0, 2), "step": None})])
        report.write_json(tmp_path / "report.json")
        text = (tmp_path / "report.json").read_text()
        assert _strict_json(text) == [{
            "name": "probe", "status": "inconclusive",
            "extra": {"a": "nan", "b": ["inf", "-inf", 1.5],
                      "step": None, "window": [0.0, 2]}}]
        assert text.index('"a"') < text.index('"b"') < text.index('"step"')


class TestStaleFields:
    def test_aborted_rerun_removes_fields_of_the_earlier_run(
            self, tmp_path, monkeypatch):
        code, _, manifest = _run_rows(monkeypatch, tmp_path, QUICK_CONFIG)
        assert code == 0 and "field_limit.csv" in manifest["artifacts"]
        run_dir = tmp_path / "quickrun"
        unlisted = run_dir / "field_eps0.03.csv"  # as `gradsing solve` writes
        unlisted.write_text("t,r,u,u_r\r\n")
        _abort_at(monkeypatch, 0.05)
        code, _, manifest = _run_rows(monkeypatch, tmp_path, QUICK_CONFIG)
        assert code == 1
        assert sorted(manifest["artifacts"]) == ["report.csv", "report.json"]
        assert sorted(p.name for p in run_dir.glob("field_*.csv")) == \
            [unlisted.name]
        with pytest.raises(FileNotFoundError):
            pipeline.emit_plotdata(run_dir, (), (0.1,))

    @pytest.mark.parametrize("name, own", [
        ("sandwich", ["field_eps0.04.csv", "field_eps0.05.csv"]),  # streamed
        ("uniqueness", ["field_eps0.04.csv", "field_eps0.05.csv",
                        "field_limit.csv"]),  # at the end
    ])
    def test_check_that_raises_leaves_no_manifest(self, name, own, tmp_path,
                                                  monkeypatch):
        """The previous run's files are removed before the first field file
        is written and the report and manifest are written after every
        check, so a run that raises inside a check, as the continuation
        streams or at its end, leaves only the field files it wrote before
        the check: no manifest, no report, none of the earlier run's
        (``field_limit.csv`` of the earlier run included), and ``gradsing
        report`` on the directory exits 2."""
        code, _, _ = _run_rows(monkeypatch, tmp_path, RERUN_CONFIG)
        assert code == 0
        run_dir = tmp_path / "quickrun"

        def raising(run):
            raise RuntimeError("injected check failure")

        monkeypatch.setitem(verify.CHECKS, name, (verify.CHECKS[name][0], raising))
        with pytest.raises(RuntimeError, match="injected"):
            pipeline.run_pipeline(load_config(RERUN_CONFIG))
        for artifact in ("manifest.json", "report.csv", "report.json"):
            assert not (run_dir / artifact).exists()
        assert sorted(p.name for p in run_dir.glob("field_*.csv")) == own
        assert cli.main(["report", "--run-dir", str(run_dir)]) == 2

    def test_only_analytic_removes_fields_of_the_earlier_run(
            self, tmp_path, monkeypatch):
        code, _, _ = _run_rows(monkeypatch, tmp_path, QUICK_CONFIG)
        assert code == 0
        run_dir = tmp_path / "quickrun"
        assert cli.main(["run", "--config", str(tmp_path / "run.ini"),
                         "--only", "analytic"]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == ["report.csv", "report.json"]
        assert list(run_dir.glob("field_*.csv")) == []


class TestCLI:
    def test_specfn_probe_output(self, capsys):
        rc = cli.main(["specfn", "probe", "--nu", "0.5", "--x", "1.5707963267948966"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        nu, x, j, jp, res = line.split(",")
        assert float(j) == pytest.approx(2.0 / np.pi, abs=1e-10)
        assert abs(float(res)) < 1e-10

    @pytest.mark.parametrize("x, message", [
        ("nan", "Bessel functions need finite x"),
        ("inf", "Bessel functions need finite x"),
        ("-1", "J_nu needs x >= 0"),
    ])
    def test_specfn_probe_bad_argument_is_config_error(self, x, message,
                                                       capsys):
        """A non-finite or negative argument exits 2 naming the domain, not
        0 with a NaN row or 1 with a traceback."""
        assert cli.main(["specfn", "probe", "--nu", "0.6", f"--x={x}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"configuration error: specfn probe: {message}" in captured.err

    def test_analytic_check_csv(self, capsys):
        """One row per (r, t) pair of the lattice, the radii inside each
        probe time, with the bytes recorded before the lattice stopped
        broadcasting."""
        rc = cli.main(["analytic", "check", "--n", "2", "--R", "0.6",
                       "--C", "1.0", "--radii", "4"])
        assert rc == 0
        text = capsys.readouterr().out
        out = text.splitlines()
        assert out[0] == "r,t,residual"
        assert len(out) == 17
        r, _ = analytic.probe_lattice(analytic.make_params(2, 0.6, 1.0), 4)
        assert [tuple(line.split(",")[:2]) for line in out[1:]] == [
            (f"{ri:.9g}", f"{ti:.9g}") for ti in (0.0, 0.1, 1.0, 5.0)
            for ri in r[0]]
        assert all(abs(float(line.split(",")[2])) < 1e-8 for line in out[1:])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "13d77f7f9424fc21265842b801a1ef9995c4a3b588890c3c458e310c5adf1eda"

    @pytest.mark.parametrize("n, digest", [
        (2, "c231d59c03b5cc03d787c4ffbbb3db70d34d644a874dc397eaeb85f2aca42d82"),
        (3, "c75278679d31d51895b4142455e7c22cfded20ba1bdcce27cf36a5b3321ab6dd"),
    ])
    def test_analytic_check_output_pinned(self, n, digest, capsys):
        """SHA-256 of the stdout of ``analytic check --R 0.6 --C 1.0
        --radii 200``, recorded while each radial piece was still formed
        on all four probe times."""
        assert cli.main(["analytic", "check", "--n", str(n), "--R", "0.6",
                         "--C", "1.0", "--radii", "200"]) == 0
        text = capsys.readouterr().out
        assert len(text.splitlines()) == 801
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("R", ["0", "-0.5"])
    def test_analytic_check_nonpositive_radius_is_rejected(self, R, capsys):
        """R <= 0 exits 2 before lam = 0.9 x1 / R is formed, not 1 with a
        ZeroDivisionError or an interval with a negative end."""
        assert cli.main(["analytic", "check", "--n", "2", f"--R={R}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"rejected: R={float(R):g} is not a positive "
                                "finite domain radius for n=2\n")

    @pytest.mark.parametrize("args, message", [
        (["--n", "1"], "dimension must be an integer >= 2, got 1"),
        (["--n", "2", "--C=-1"], "mode amplitude C must be nonnegative"),
        (["--n", "2", "--radii", "0"], "radii must be a count of at least 1, got 0"),
    ])
    def test_analytic_check_bad_model_value_is_config_error(self, args,
                                                           message, capsys):
        """Exit 2 with one line, as run, solve and initdata validate give."""
        assert cli.main(["analytic", "check", "--R", "0.6", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: analytic check: {message}\n"

    def test_analytic_check_takes_no_lambda(self, capsys):
        """The mode rate follows from R; --lambda is not an option."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["analytic", "check", "--n", "2", "--R", "0.6",
                      "--lambda", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lambda 1" in capsys.readouterr().err

    def test_initdata_validate_reports_conditions(self, capsys, tmp_path):
        cfg_path = tmp_path / "quick.ini"
        cfg_path.write_text(QUICK_CONFIG)
        rc = cli.main(["initdata", "validate", "--config", str(cfg_path)])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("interior_regularity", "below_stationary",
                     "outer_boundary_match", "slope_envelope"):
            assert name in out

    @pytest.mark.parametrize("command", [["run"], ["initdata", "validate"]])
    @pytest.mark.parametrize("k", ["-1", "-0.5"])
    def test_negative_blend_exponent_is_config_error(self, command, k, capsys,
                                                     tmp_path, monkeypatch):
        """k < 0 exits 2 naming the blend exponent; it is not run as k = 0
        and then rejected at the outer boundary."""
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(QUICK_CONFIG.replace("blend_exponent = 2",
                                                 f"blend_exponent = {k}"))
        assert cli.main([*command, "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "configuration error: initdata: blend exponent must be nonnegative")
        assert not list(tmp_path.rglob("*.csv"))

    def test_inadmissible_radius_rejected_before_compute(self, capsys, tmp_path):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(QUICK_CONFIG.replace("R = 0.6", "R = 0.9"))
        rc = cli.main(["initdata", "validate", "--config", str(cfg_path)])
        assert rc == 2
        assert "admissible" in capsys.readouterr().err

    def test_requires_config_source(self, capsys):
        rc = cli.main(["solve"])
        assert rc == 2
        assert "preset" in capsys.readouterr().err

    def test_preset_and_config_together_are_a_usage_error(self, capsys,
                                                          tmp_path):
        """Giving both sources exits 2 naming the clash; neither is
        silently preferred."""
        cfg_path = tmp_path / "quick.ini"
        cfg_path.write_text(QUICK_CONFIG)
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--preset", "n2-standard",
                      "--config", str(cfg_path)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_solve_writes_the_bytes_of_the_run(self, quick_result, capsys,
                                               tmp_path, monkeypatch):
        """``gradsing solve`` at eps = 0.05 writes, through the pipeline's
        field writer, the bytes of the run's ``field_eps0.05.csv``."""
        _, run_dir = quick_result
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "quick.ini"
        cfg_path.write_text(QUICK_CONFIG)
        assert cli.main(["solve", "--config", str(cfg_path), "--eps", "0.05",
                         "--output", "solo"]) == 0
        solo = tmp_path / "solo" / "field_eps0.05.csv"
        assert f"wrote {solo} " in capsys.readouterr().out
        assert solo.read_bytes() == (run_dir / "field_eps0.05.csv").read_bytes()

    def test_run_only_analytic(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        rc = cli.main(["run", "--preset", "n2-standard", "--only", "analytic",
                       "--output", "a"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stationary_residual" in out

    @pytest.mark.parametrize("old, new, message", [
        ("eps_sequence = 0.05, 0.04", "eps_sequence = 0.07, 0.04",
         "largest eps reaches into the compact comparison window"),
        ("dt = 0.002", "dt = 5.0", "step exceeds the integration horizon"),
    ])
    def test_solver_precondition_is_config_error(self, old, new, message,
                                                 capsys, tmp_path,
                                                 monkeypatch):
        """A configuration the solver rejects before its first step exits 2
        with the solver's message, not 1 with a traceback."""
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(QUICK_CONFIG.replace(old, new))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err

    def test_solver_value_error_after_streamed_checks_is_config_error(
            self, capsys, tmp_path, monkeypatch):
        """A ValueError the solver raises at a later radius, after the
        reference checks have run, still exits 2 with its message."""
        original = solver.solve_annulus

        def rejecting(problem, grid, T, scheme):
            if problem.epsilon == 0.03:
                raise ValueError("injected precondition")
            return original(problem, grid, T, scheme)

        monkeypatch.setattr(solver, "solve_annulus", rejecting)
        calls = []
        reads, rows = verify.CHECKS["sandwich"]
        monkeypatch.setitem(verify.CHECKS, "sandwich", (
            reads, lambda run: calls.append(run) or rows(run)))
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(QUICK_CONFIG.replace("0.05, 0.04", "0.05, 0.04, 0.03"))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert len(calls) == 1
        assert "continuation: injected precondition" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sandwich", "uniqueness"])
    def test_value_error_inside_a_check_is_not_config_error(
            self, name, tmp_path, monkeypatch):
        """A ValueError raised by a check, streamed or at the end, leaves
        the pipeline as that ValueError, not as a ConfigError."""
        def raising(run):
            raise ValueError("injected check error")

        monkeypatch.setitem(verify.CHECKS, name, (verify.CHECKS[name][0], raising))
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        with pytest.raises(ValueError, match="injected check error") as info:
            pipeline.run_pipeline(load_config(RERUN_CONFIG))
        assert not isinstance(info.value, ConfigError)

    @pytest.mark.parametrize("command, key, value", [
        *((command, key, value) for command in ("run", "solve")
          for key in ("dt", "horizon_efolds") for value in ("nan", "inf", "0", "-1")),
        *(("analytic", "C", value) for value in ("nan", "inf", "-1")),
    ])
    def test_non_finite_or_non_positive_value_is_config_error(
            self, command, key, value, capsys, tmp_path, monkeypatch):
        """A step, horizon or mode amplitude that is NaN, infinite or out of
        range exits 2 with a configuration error that names its key, not 1
        with an OverflowError or 0 with NaN residuals, and writes no field."""
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        if command == "analytic":
            argv = ["analytic", "check", "--n", "2", "--R", "0.6", f"--C={value}"]
        else:
            old = {"dt": "dt = 0.002", "horizon_efolds": "horizon_efolds = 2.0"}
            cfg_path = tmp_path / "bad.ini"
            cfg_path.write_text(QUICK_CONFIG.replace(old[key], f"{key} = {value}"))
            argv = [command, "--config", str(cfg_path)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = {"dt": "scheme: dt=",
                  "horizon_efolds": "continuation.horizon_efolds: ",
                  "C": "analytic check: mode amplitude C must be "}[key]
        assert captured.err.startswith(f"configuration error: {prefix}")
        assert not list(tmp_path.rglob("field_*.csv"))

    @pytest.mark.parametrize("command", ["run", "solve"])
    @pytest.mark.parametrize("old, new, key", [
        ("num_nodes = 120", "num_nodes = -5", "continuation.num_nodes"),
        ("num_nodes = 120", "num_nodes = 2", "continuation.num_nodes"),
        ("save_every = 20", "save_every = 0", "output.save_every"),
        ("save_every = 20", "save_every = -3", "output.save_every"),
        ("0.05, 0.04", "nan, 0.04", "continuation.eps_sequence"),
        ("0.05, 0.04", "0.05, 0.04, 0", "continuation.eps_sequence"),
        ("0.05, 0.04", "0.05, 0.04, -0.01", "continuation.eps_sequence"),
        ("num_nodes = 120", "num_nodes = 120\ngrading_exponent = 2.0",
         "continuation.grading_exponent"),
        ("blend_exponent = 2", "blend_exponent = nan", "initdata.blend_exponent"),
        *(("deficit_amplitude = 0.25", f"deficit_amplitude = {value}",
           "initdata.deficit_amplitude") for value in ("nan", "inf")),
    ])
    def test_value_outside_its_key_domain_is_config_error(
            self, command, old, new, key, capsys, tmp_path, monkeypatch):
        """A node count, save stride, radius or datum value outside its
        domain, or the grading exponent, which is a constant and no key,
        exits 2 with a configuration error naming its key, not 1 with a
        traceback, 0 with the value silently changed, or 2 with a message
        that names no key; and it writes no field."""
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(QUICK_CONFIG.replace(
            "horizon_efolds = 2.0", "horizon_efolds = 0.3").replace(old, new))
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: {key}: ")
        assert not list(tmp_path.rglob("field_*.csv"))

    def test_solve_step_above_horizon_is_config_error(self, capsys, tmp_path,
                                                      monkeypatch):
        """``gradsing solve`` exits 2 on a solver precondition, as ``run``
        and ``continuation`` do, and writes no field."""
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(QUICK_CONFIG.replace("dt = 0.002", "dt = 5.0"))
        assert cli.main(["solve", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: solve: step exceeds the integration " \
            "horizon" in err
        assert not list(tmp_path.rglob("field_*.csv"))

    @pytest.mark.parametrize("eps, message", [
        ("0.7", "need 0 <= eps < R"),
        ("-0.1", "need 0 <= eps < R"),
        ("0", "derivative of the stationary profile needs r > 0"),
    ])
    def test_solve_eps_outside_annulus_is_config_error(self, eps, message,
                                                       capsys, tmp_path,
                                                       monkeypatch):
        """An inner radius outside (0, R) exits 2 naming the radius
        condition, not 1 with a traceback, and writes no field."""
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "quick.ini"
        cfg_path.write_text(QUICK_CONFIG)
        assert cli.main(["solve", "--config", str(cfg_path),
                         f"--eps={eps}"]) == 2
        assert f"configuration error: solve: {message}" in \
            capsys.readouterr().err
        assert not list(tmp_path.rglob("field_*.csv"))

    @pytest.mark.parametrize("present, missing", [
        ((), "field file missing: "),
        (("field_limit.csv",), "manifest.json"),
    ])
    def test_report_without_run_files_is_config_error(self, present, missing,
                                                      quick_result, tmp_path,
                                                      capsys):
        """A run directory without its field or manifest exits 2 with one
        line, not 1 with a traceback."""
        _, run_dir = quick_result
        for name in present:
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        assert cli.main(["report", "--run-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: report: ")
        assert missing in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("args, message", [
        (["--radius-fraction", "5"], "radius fractions must lie in [0, 1]"),
        (["--radius-fraction", "-0.1"], "radius fractions must lie in [0, 1]"),
        (["--radius-fraction", "nan"], "radius fractions must lie in [0, 1]"),
        (["--time", "-3"], "times must lie in [0, "),
        (["--time", "1e3"], "times must lie in [0, "),
        (["--time", "nan"], "times must lie in [0, "),
        (["--time", "inf"], "times must lie in [0, "),
    ])
    def test_report_out_of_range_input_is_config_error(self, args, message,
                                                       quick_result, tmp_path,
                                                       capsys):
        """A radius fraction outside [0, 1] or a time outside the stored
        span exits 2 with one line, before any file is written."""
        _, run_dir = quick_result
        present = {"field_limit.csv", "manifest.json"}
        for name in present:
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        assert cli.main(["report", "--run-dir", str(tmp_path), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: report: {message}")
        assert captured.err.count("\n") == 1
        assert {p.name for p in tmp_path.iterdir()} == present

    def test_report_accepts_the_ends_of_the_ranges(self, quick_result):
        """The horizon lies past the last stored time unless the step
        count is a multiple of save_every; it is still a time of the run."""
        result, run_dir = quick_result
        assert pipeline._read_manifest(run_dir)[1] == result.horizon
        paths = pipeline.emit_plotdata(run_dir, times=(0.0, result.horizon),
                                       radius_fractions=(0.0, 1.0))
        assert [Path(p).name for p in paths] == [
            "profile_0.csv", "profile_1.csv", "series_r0.csv", "series_r1.csv"]

    def test_run_line_shows_skip_reason(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "pointwise.ini"
        cfg_path.write_text(QUICK_CONFIG.replace(
            "sandwich, monotone, gradient_box", "pointwise_gradient"))
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if "pointwise_gradient_stability" in line)
        assert line.startswith("SKIPPED")
        assert "eps = 0.02 not in the eps sequence" in line

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gradsing", "specfn", "probe",
             "--nu", "1.0", "--x", "2.0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("1,2,")

    def test_lapack_loaded_at_the_first_solve(self):
        """Import, both presets' model build and closed-form gates leave
        dgtsv unbound; the first banded solve binds it once, later solves
        reuse it, and before and after the solves the process maps one
        OpenBLAS, numpy's: neither scipy's _flapack nor any file under
        scipy.libs."""
        script = (
            "import os, sys\n"
            "import numpy as np\n"
            "import gradsing.cli\n"
            "from gradsing import pipeline, solver\n"
            "from gradsing.config import preset\n"
            "def state():\n"
            "    maps = '/proc/self/maps'\n"
            "    files = ({line.split()[-1] for line in open(maps)\n"
            "              if len(line.split()) > 5}\n"
            "             if os.path.exists(maps) else None)\n"
            "    mapped = (None if files is None else\n"
            "              (any('_flapack' in f or 'scipy.libs' in f for f in files),\n"
            "               sum('openblas' in os.path.basename(f).lower()\n"
            "                   for f in files)))\n"
            "    info = solver._dgtsv.cache_info()\n"
            "    print(info.misses, info.hits, info.currsize, mapped)\n"
            "for name in ('n2-standard', 'n3-weak'):\n"
            "    params, _ = pipeline.build_model(preset(name))\n"
            "    pipeline.analytic_checks(params)\n"
            "state()\n"
            "for _ in range(3):\n"
            "    solver.solve_banded(np.ones(3), np.full(4, 4.0), np.ones(3),\n"
            "                        np.ones(4))\n"
            "state()\n"
            "print('scipy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        before, after, scipy_imported = proc.stdout.split("\n")[:3]
        assert before in ("0 0 0 (False, 1)", "0 0 0 None")
        assert after in ("1 2 1 (False, 1)", "1 2 1 None")
        assert scipy_imported == "True"

    def test_missing_dgtsv_is_not_a_config_error(self, tmp_path, monkeypatch):
        """A numpy without the 64-bit dgtsv ends the run in the loader's
        ImportError at the first solve, not in a configuration error
        (exit 2)."""
        load = solver._load_dgtsv
        monkeypatch.setattr(solver, "_load_dgtsv",
                            lambda path: load(str(tmp_path / "absent.so")))
        solver._dgtsv.cache_clear()
        monkeypatch.setenv("GRADSING_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "quick.ini"
        cfg_path.write_text(QUICK_CONFIG)
        with pytest.raises(ImportError, match="dgtsv"):
            cli.main(["run", "--config", str(cfg_path)])

    def test_import_leaves_heavy_scipy_modules_unloaded(self):
        # scipy.interpolate pulls in scipy.special and scipy.optimize, and
        # scipy.linalg pulls in numpy.f2py; each costs a large share of every
        # process's start-up, and the CLI needs none of them
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, gradsing.cli; print(sorted(m for m in sys.modules if "
             "m.split('.')[:2] in (['scipy', 'interpolate'], "
             "['scipy', 'special'], ['scipy', 'optimize'], "
             "['scipy', 'linalg'], ['numpy', 'f2py'])))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
