"""CLI tests: config parsing, determinism, unit honesty, exit codes."""

import configparser
import io
import json
import math
import os
import pathlib
import string
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import MISSING
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelrad import (AtomParams, ConfigError, FreeSpace, ShoMotion,
                      allowed_sidebands, general_trajectory_spectrum,
                      rate_surface)
from accelrad import cli as cli_module
from accelrad.cli import (CONFIG_SECTIONS, FLAG_KEYS, build_atom,
                          build_geometry, build_motion, main, parse_config,
                          parse_length, sidebands_text, sweep_text)
from accelrad.oracle import verified_lines

FREE_SPACE_CFG = """\
[atom]
frequency_hz = 5e9
alpha = 0.2

[motion]
kind = sho
drive_frequency_hz = 1e10
amplitude = 1 nm

[geometry]
kind = free_space
"""

# Exact n = 1 free-space rate for the config above, frozen from
# pi*(A*alpha)^2*Omega^3/(32 c^2) (the sub-0.1%-of-percent-regime value).
FREE_SPACE_CFG_RATE = 1.0838223059911484e-05


def config_section(section, **values):
    """A parsed section as the key table states it: its defaults, then
    ``values``."""
    defaults = {name: row[1] for name, row in CONFIG_SECTIONS[section].items()}
    return SimpleNamespace(**(defaults | values))


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseLength:
    @pytest.mark.parametrize("text,meters", [
        ("1e-9", 1e-9),
        ("1 nm", 1e-9),
        ("10nm", 1e-8),
        ("2.5 um", 2.5e-6),
        ("3 mm", 3e-3),
        ("0.5 m", 0.5),
    ])
    def test_accepted_forms(self, text, meters):
        assert parse_length(text) == pytest.approx(meters, rel=1e-15)

    def test_garbage_rejected(self):
        from accelrad.errors import ConfigError
        with pytest.raises(ConfigError):
            parse_length("one nm")


def run_config(atom, motion, geometry, sweep=None, **run):
    """A parsed config as the key table states it, each section's defaults
    under the given values."""
    return config_section("run", atom=config_section("atom", **atom),
                          motion=config_section("motion", **motion),
                          geometry=config_section("geometry", **geometry),
                          sweep=config_section("sweep", **(sweep or {})),
                          **run)


class TestConfigRoundTrip:
    def test_fixed_example(self):
        assert parse_config(FREE_SPACE_CFG) == run_config(
            dict(frequency_hz=5e9, alpha=0.2),
            dict(kind="sho", drive_frequency_hz=1e10, amplitude=1e-9),
            dict(kind="free_space"))

    def test_full_cavity_example(self):
        text = """\
[atom]
frequency_hz = 4.9e9
coupling_hz = 1e8

[motion]
kind = rotation
drive_frequency_hz = 1e10
radius = 2 nm
delta_rad = 0.3

[geometry]
kind = cavity
z0 = 10 nm
length = 3 mm
photons = 2

[sweep]
preset = fig3
alpha_max = 0.8

[run]
format = json
verify = true
seed = 7
n_max = 4
"""
        assert parse_config(text) == run_config(
            dict(frequency_hz=4.9e9, coupling_hz=1e8),
            dict(kind="rotation", drive_frequency_hz=1e10, radius=2e-9,
                 delta_rad=0.3),
            dict(kind="cavity", z0=1e-8, length=3e-3, photons=2),
            dict(preset="fig3", alpha_max=0.8),
            format="json", verify=True, seed=7, n_max=4)

    @given(
        frequency=st.floats(1e3, 1e12),
        alpha=st.floats(0.01, 2.0),
        drive=st.floats(1e3, 1e12),
        amplitude=st.floats(1e-12, 1e-3),
        z0=st.floats(1e-9, 1.0),
        kind=st.sampled_from(["free_space", "mirror"]),
        orientation=st.sampled_from(["perpendicular", "parallel"]),
        seed=st.integers(0, 2**31),
        verify=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_configs_parse(self, frequency, alpha, drive,
                                     amplitude, z0, kind, orientation, seed,
                                     verify):
        mirror = kind == "mirror"
        text = (f"[atom]\nfrequency_hz = {frequency!r}\nalpha = {alpha!r}\n"
                f"[motion]\nkind = sho\ndrive_frequency_hz = {drive!r}\n"
                f"amplitude = {amplitude!r}\norientation = {orientation}\n"
                f"[geometry]\nkind = {kind}\n"
                + (f"z0 = {z0!r}\n" if mirror else "")
                + f"[run]\nverify = {verify}\nseed = {seed}\nn_max = 3\n")
        assert parse_config(text) == run_config(
            dict(frequency_hz=frequency, alpha=alpha),
            dict(kind="sho", drive_frequency_hz=drive, amplitude=amplitude,
                 orientation=orientation),
            dict(kind=kind, z0=z0 if mirror else None),
            verify=verify, seed=seed, n_max=3)

    def test_unknown_key_diagnosed(self):
        from accelrad.errors import ConfigError
        bad = FREE_SPACE_CFG + "\n[run]\ncolor = blue\n"
        with pytest.raises(ConfigError, match="color"):
            parse_config(bad)

    def test_missing_section_diagnosed(self):
        from accelrad.errors import ConfigError
        with pytest.raises(ConfigError, match="atom"):
            parse_config("[motion]\nkind = sho\n")


class TestRateCommand:
    def test_free_space_rate_row(self, tmp_path, capsys):
        path = write_cfg(tmp_path, FREE_SPACE_CFG)
        assert main(["rate", "--config", path]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,branch,m,omega_rad_per_s")
        fields = lines[1].split(",")
        assert fields[0] == "1"
        assert float(fields[5]) == pytest.approx(FREE_SPACE_CFG_RATE,
                                                 rel=1e-6)

    def test_verify_adds_matching_oracle_column(self, tmp_path, capsys):
        path = write_cfg(tmp_path, FREE_SPACE_CFG)
        assert main(["rate", "--config", path, "--verify"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith("oracle_rate_hz,oracle_rel_dev")
        fields = lines[1].split(",")
        assert float(fields[7]) < 1e-6
        assert float(fields[6]) == pytest.approx(float(fields[5]), rel=1e-6)

    def test_unit_honesty_against_library_api(self, tmp_path, capsys):
        path = write_cfg(tmp_path, FREE_SPACE_CFG)
        main(["rate", "--config", path])
        cli_rate = float(
            capsys.readouterr().out.strip().splitlines()[1].split(",")[5])
        atom = AtomParams(omega0=2.0 * math.pi * 5e9, alpha=0.2)
        motion = ShoMotion(amplitude=1e-9, Omega=2.0 * math.pi * 1e10)
        (line,) = allowed_sidebands(atom, motion, FreeSpace(), 1)
        assert abs(cli_rate - line.rate) <= 1e-12 * cli_rate

    def test_mirror_collision_exits_with_physics_code(self, tmp_path):
        text = """\
[atom]
frequency_hz = 5e9
alpha = 0.2

[motion]
kind = sho
drive_frequency_hz = 1e10
amplitude = 20 nm

[geometry]
kind = mirror
z0 = 10 nm
"""
        path = write_cfg(tmp_path, text)
        assert main(["rate", "--config", path]) == 3

    def test_free_space_parallel_verify_matches(self, tmp_path, capsys):
        # In free space neither route projects the wave vector, so a
        # parallel line verifies and equals the perpendicular one.
        path = write_cfg(tmp_path, FREE_SPACE_CFG)
        assert main(["rate", "--config", path, "--verify"]) == 0
        perpendicular = capsys.readouterr().out
        text = with_value(FREE_SPACE_CFG, "motion", "orientation", "parallel")
        text = with_value(text, "motion", "delta_rad", "0.4")
        assert main(["rate", "--config", write_cfg(tmp_path, text),
                     "--verify"]) == 0
        assert capsys.readouterr().out == perpendicular

    def test_config_error_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, "[atom]\nfrequency_hz = hello\n")
        assert main(["rate", "--config", path]) == 2

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-utf-8"])
    def test_missing_config_file(self, kind, tmp_path, capsys):
        # A config that cannot be read, for whatever reason, is a config
        # error that names the file, never a traceback.
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "non-utf-8":
            path.write_bytes(b"\xff\xfe" + FREE_SPACE_CFG.encode())
        assert main(["rate", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: cannot read config")
        assert str(path) in err

    @pytest.mark.parametrize("section,keys", [
        ("extra", "kind = sho\n"), ("DEFAULT", "kind = sho\n"),
        ("DEFAULT", "")], ids=["extra", "DEFAULT", "bare-DEFAULT"])
    def test_unknown_section(self, section, keys, tmp_path, capsys):
        # [DEFAULT] is no special section: with keys or without, the error
        # names it, not the first section that would have received its keys.
        text = f"[{section}]\n{keys}\n" + FREE_SPACE_CFG
        assert main(["rate", "--config", write_cfg(tmp_path, text)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: unknown section [{section}]\n"

    def test_byte_order_mark_is_accepted(self, tmp_path, capsys):
        # Editors that save "UTF-8 with BOM" put U+FEFF before the first
        # section header; the config reads as if it were not there.
        plain = (pathlib.Path(__file__).resolve().parent.parent / "configs"
                 / "free_space.cfg")
        marked = tmp_path / "bom.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert main(["rate", "--config", str(plain)]) == 0
        want = capsys.readouterr()
        assert main(["rate", "--config", str(marked)]) == 0
        assert capsys.readouterr() == want

    def test_byte_identical_reruns(self, tmp_path):
        path = write_cfg(tmp_path, FREE_SPACE_CFG)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["rate", "--config", path, "--output", str(out1)]) == 0
        assert main(["rate", "--config", path, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format_mirrors_csv_values(self, tmp_path, capsys):
        path = write_cfg(tmp_path, FREE_SPACE_CFG)
        main(["rate", "--config", path])
        csv_rate = float(
            capsys.readouterr().out.strip().splitlines()[1].split(",")[5])
        main(["rate", "--config", path, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["sidebands"][0]["rate_hz"] == csv_rate

    def test_miller_path_fields_are_plain_floats(self, tmp_path, capsys):
        # A = 10 mm puts k*A above the series cutoff (12) from n = 7 on, so
        # rate_hz and oracle_rel_dev come from the Miller recurrence.
        text = FREE_SPACE_CFG.replace("amplitude = 1 nm", "amplitude = 10 mm")
        path = write_cfg(tmp_path, text + "\n[run]\nn_max = 12\n")
        assert main(["rate", "--config", path, "--verify"]) == 0
        csv_text = capsys.readouterr().out
        assert main(["rate", "--config", path, "--verify",
                     "--format", "json"]) == 0
        json_text = capsys.readouterr().out
        assert "np.float64(" not in csv_text
        assert "np.float64(" not in json_text
        header, *rows = csv_text.strip().splitlines()
        keys = header.split(",")
        lines = json.loads(json_text)["sidebands"]
        assert len(rows) == len(lines) == 12
        for row, line in zip(rows, lines):
            for key, field in zip(keys, row.split(",")):
                if isinstance(line[key], float):
                    assert float(field) == line[key], (key, field)


    def test_verify_passes_on_a_line_at_the_float64_floor(self, tmp_path,
                                                          capsys):
        # The n = 8 line sits at 1.9e-20 of 8 pi g^2 / Omega, where float64
        # resolves its one-period integral only to about 1e-6 relative; it
        # must not be reported as an integrity failure.
        text = """\
[atom]
frequency_hz = 121067234768.6584
alpha = 0.7108271536012858

[motion]
kind = sho
drive_frequency_hz = 88837472775.76576
amplitude = 38.92854815457865 um
orientation = perpendicular

[geometry]
kind = free_space
"""
        path = write_cfg(tmp_path, text)
        assert main(["rate", "--config", path, "--n-max", "11",
                     "--verify"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [
            str(n) for n in range(2, 12)]
        for row in rows:
            assert float(row.split(",")[7]) < 1e-6


class TestSpectrumCommand:
    def test_cavity_resonance_yields_single_line(self, tmp_path, capsys):
        # L chosen so omega = pi*m*c/L with m = 1 satisfies
        # 2*Omega = omega + omega0 for Omega/2pi = 1 GHz, omega0/2pi = 0.9 GHz.
        # omega/2pi = 1.1 GHz -> L = c / (2 * 1.1e9).
        length = 2.99792458e8 / (2 * 1.1e9)
        text = f"""\
[atom]
frequency_hz = 0.9e9
alpha = 0.1

[motion]
kind = sho
drive_frequency_hz = 1e9
amplitude = {0.01 * length}

[geometry]
kind = cavity
z0 = {0.3 * length}
length = {length}
photons = 0
"""
        path = write_cfg(tmp_path, text)
        assert main(["spectrum", "--config", path, "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # header + single resonant line
        fields = lines[1].split(",")
        assert fields[0] == "2" and fields[2] == "1"

    def test_general_motion_spectrum_runs(self, tmp_path, capsys):
        import numpy as np
        samples = 1e-3 * 2.99792458e8 * np.sin(
            2 * math.pi * np.arange(32) / 32)
        text = f"""\
[atom]
frequency_hz = 0.1
coupling_hz = 0.05

[motion]
kind = general
drive_frequency_hz = 0.3
samples = {",".join(repr(float(s)) for s in samples)}

[geometry]
kind = free_space
"""
        path = write_cfg(tmp_path, text)
        assert main(["spectrum", "--config", path, "--n-max", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("flag,run", [(["--verify"], ""),
                                          ([], "[run]\nverify = true\n")],
                             ids=["flag", "config"])
    def test_general_motion_spectrum_rejects_verify(self, tmp_path, capsys,
                                                    flag, run):
        samples = ",".join(repr(1e-9 * math.sin(2 * math.pi * j / 16))
                           for j in range(16))
        text = (f"{_COLLIDING_ATOM}[motion]\nkind = general\n"
                f"drive_frequency_hz = 1e10\nsamples = {samples}\n"
                f"[geometry]\nkind = free_space\n{run}")
        path = write_cfg(tmp_path, text)
        assert main(["spectrum", "--config", path, "--n-max", "2"]
                    + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sampled motion" in captured.err
        assert "oracle output" in captured.err


class TestRotationConfig:
    def test_rotation_rate_through_cli(self, tmp_path, capsys):
        # rotation in front of a mirror; compare to the library value
        from accelrad import Mirror, RotationMotion

        text = """\
[atom]
frequency_hz = 5e9
alpha = 0.2

[motion]
kind = rotation
drive_frequency_hz = 1e10
radius = 1 nm
delta_rad = 0.4

[geometry]
kind = mirror
z0 = 2 mm
"""
        path = write_cfg(tmp_path, text)
        assert main(["rate", "--config", path]) == 0
        cli_rate = float(
            capsys.readouterr().out.strip().splitlines()[1].split(",")[5])
        atom = AtomParams(omega0=2 * math.pi * 5e9, alpha=0.2)
        motion = RotationMotion(radius=1e-9, Omega=2 * math.pi * 1e10,
                                delta=0.4)
        (expected,) = allowed_sidebands(atom, motion, Mirror(z0=2e-3), 1)
        assert cli_rate == pytest.approx(expected.rate, rel=1e-12)


class TestSweepCommand:
    def test_fig2_default_csv_shape(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["sweep", "--preset", "fig2", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "A_tilde"
        assert lines[0].split(",")[1] == "n=1"
        assert len(lines) == 1 + 512
        assert len(lines[1].split(",")) == 1 + 30

    def test_fig3_long_csv_carries_exact_rate(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["sweep", "--preset", "fig3", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("amplitude_m,alpha,value,approx_valid,"
                            "exact_rate_hz")
        assert len(lines) == 1 + 128 * 128

    def test_fig2_json_metadata(self, tmp_path, capsys):
        assert main(["sweep", "--preset", "fig2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["normalization"] == "prefactor-omitted"
        assert payload["axis1"]["name"] == "A_tilde"

    def test_absolute_fig2_restores_prefactor(self, tmp_path, capsys):
        text = FREE_SPACE_CFG + """
[sweep]
preset = fig2
a_tilde_count = 16
n_max = 2
absolute = true
"""
        path = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["normalization"] == "hz"
        g = 0.2 * 2 * math.pi * 5e9
        Omega = 2 * math.pi * 1e10
        from accelrad import bessel_j
        a = payload["axis1"]["values"][3]
        expected = 2 * math.pi * g**2 / Omega * bessel_j(1, a) ** 2
        assert payload["values"][3][0] == pytest.approx(expected, rel=1e-12)

    def test_custom_sweep_needs_config(self):
        assert main(["sweep", "--preset", "custom"]) == 2

    def test_fig3_reads_amplitude_min_as_custom_does(self, tmp_path, capsys):
        text = FREE_SPACE_CFG + """
[sweep]
n_max = 1
amplitude_min = 2 nm
amplitude_max = 4 nm
amplitude_count = 3
alpha_count = 1
"""
        path = write_cfg(tmp_path, text)
        axes = {}
        for preset in ("fig3", "custom"):
            assert main(["sweep", "--config", path, "--preset", preset,
                         "--format", "json"]) == 0
            axes[preset] = json.loads(capsys.readouterr().out)["axis1"]
        assert axes["fig3"] == axes["custom"]
        assert axes["fig3"]["values"][0] == 2e-9
        assert axes["fig3"]["values"][-1] == 4e-9

    def test_custom_sweep_runs(self, tmp_path, capsys):
        text = FREE_SPACE_CFG + """
[sweep]
preset = custom
n_max = 3
amplitude_max = 4 nm
amplitude_count = 5
"""
        path = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 5


# (preset, [sweep] key set to 10^20, the two keys whose product is the grid)
_OVER_BUDGET = {
    "fig2-n_max": ("fig2", "n_max", ("a_tilde_count", "n_max")),
    "fig2-a_tilde_count": ("fig2", "a_tilde_count",
                           ("a_tilde_count", "n_max")),
    "fig3-alpha_count": ("fig3", "alpha_count",
                         ("amplitude_count", "alpha_count")),
    "fig3-amplitude_count": ("fig3", "amplitude_count",
                             ("amplitude_count", "alpha_count")),
    "custom-n_max": ("custom", "n_max", ("amplitude_count", "n_max")),
}


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached before the grid budget")


class TestSweepGridBudget:
    """A sweep grid above MAX_SWEEP_CELLS is a config error, refused before
    any axis is built; each of these ran into numpy's own limit as a
    traceback with exit 1.  Over-budget grids are never run."""

    @pytest.mark.parametrize("route", sorted(_OVER_BUDGET))
    def test_over_budget_grid_is_refused_before_any_axis(
            self, tmp_path, capsys, monkeypatch, route):
        preset, key, (rows, cols) = _OVER_BUDGET[route]
        path = write_cfg(tmp_path, FREE_SPACE_CFG
                         + f"\n[sweep]\n{key} = 100000000000000000000\n")
        monkeypatch.setattr(cli_module, "np", _NoNumpy())
        assert main(["sweep", "--preset", preset, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"config error: [sweep] {rows} * {cols} = ")
        assert f"lower {rows} or {cols}" in captured.err

    @pytest.mark.parametrize("preset", sorted(cli_module._SWEEP_GRID_KEYS))
    def test_the_budget_is_inclusive(self, preset):
        rows, cols = cli_module._SWEEP_GRID_KEYS[preset]
        at = config_section("sweep", **{rows: 2 ** 10, cols: 2 ** 10})
        cli_module._check_sweep_budget(preset, at)
        over = config_section("sweep", **{rows: 2 ** 10 + 1, cols: 2 ** 10})
        with pytest.raises(ConfigError, match=f"= {2 ** 20 + 1024} cells is "
                                              f"above MAX_SWEEP_CELLS = "
                                              f"{2 ** 20};"):
            cli_module._check_sweep_budget(preset, over)

    def test_the_default_grids_are_far_below_it(self):
        for preset, (rows, cols) in cli_module._SWEEP_GRID_KEYS.items():
            defaults = config_section("sweep")
            cells = getattr(defaults, rows) * getattr(defaults, cols)
            assert 40 * cells <= cli_module.MAX_SWEEP_CELLS


class TestOracleCommand:
    def test_report_passes(self, capsys):
        assert main(["oracle", "--seed", "123", "--draws", "60"]) == 0
        out = capsys.readouterr().out
        assert "selection rule" in out
        assert out.count("PASS") == 3

    def test_json_report(self, capsys):
        assert main(["oracle", "--seed", "5", "--draws", "30",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["equivalence"]["max_relative_deviation"] < 1e-8

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_fewer_than_one_draw_is_a_config_error(self, draws, capsys):
        assert main(["oracle", "--draws", draws]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--draws" in captured.err

    def test_csv_format_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--draws", "3", "--format", "csv"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'csv'" in captured.err and "text" in captured.err

    def test_text_format_is_the_default_report(self, capsys):
        assert main(["oracle", "--draws", "3"]) == 0
        default = capsys.readouterr().out
        assert main(["oracle", "--draws", "3", "--format", "text"]) == 0
        assert capsys.readouterr().out == default

    def test_run_output_key_is_honoured(self, tmp_path, capsys):
        assert main(["oracle", "--draws", "3"]) == 0
        report = capsys.readouterr().out
        target = tmp_path / "report.txt"
        path = write_cfg(tmp_path, FREE_SPACE_CFG
                         + f"\n[run]\noutput = {target}\n")
        assert main(["oracle", "--config", path, "--draws", "3"]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8") == report

    def test_unwritable_run_output_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.txt"
        path = write_cfg(tmp_path, FREE_SPACE_CFG
                         + f"\n[run]\noutput = {target}\n")
        assert main(["oracle", "--config", path, "--draws", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write output" in captured.err
        assert not target.parent.exists()

    def test_draws_are_bounded_before_any_draw(self, capsys, monkeypatch):
        import accelrad.oracle as oracle_module

        counts = []
        monkeypatch.setattr(
            oracle_module, "equivalence_report",
            lambda seed, count: counts.append(count) or {
                "count": count, "max_relative_deviation": 0.0})
        bound = cli_module.MAX_ORACLE_DRAWS
        assert main(["oracle", "--draws", str(bound)]) == 0
        assert main(["oracle", "--draws", str(bound + 1)]) == 2
        assert counts == [bound]
        err = capsys.readouterr().err
        assert err == (f"config error: --draws = {bound + 1} is above "
                       f"MAX_ORACLE_DRAWS = {bound}; lower --draws\n")

    def test_integrity_failure_exit_code(self, capsys, monkeypatch):
        import accelrad.oracle as oracle_module

        monkeypatch.setattr(
            oracle_module, "selection_rule_report",
            lambda: {"count": 1, "max_abs_value": 1.0, "worst_case": None})
        assert main(["oracle", "--draws", "3"]) == 4


SWEEP_CFG = FREE_SPACE_CFG + """
[sweep]
preset = fig2
"""


def with_value(text, section, key, value):
    """``text`` with ``key = value`` in place of the key's line in
    ``section``, or at the top of the section (added when absent)."""
    lines = text.splitlines()
    if f"[{section}]" not in lines:
        lines.append(f"[{section}]")
    at = lines.index(f"[{section}]") + 1
    end = next((i for i in range(at, len(lines))
                if lines[i].startswith("[")), len(lines))
    own = [i for i in range(at, end)
           if lines[i].split("=")[0].strip() == key]
    if own:
        lines[own[0]] = f"{key} = {value}"
    else:
        lines.insert(at, f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestConfigValueErrors:
    """Every unparsable or non-positive integer, count and maximum is a
    config error (exit 2), never a physics error or a silent default."""

    @pytest.mark.parametrize("section,key,value", [
        ("run", "n_max", "abc"),
        ("run", "n_max", "0"),
        ("run", "n_max", "-3"),
        ("run", "seed", "1.5"),
        ("run", "seed", "-1"),
        ("geometry", "photons", "two"),
        ("sweep", "n_max", "x"),
        ("sweep", "n_max", "0"),
        ("sweep", "a_tilde_count", "x"),
        ("sweep", "a_tilde_count", "0"),
        ("sweep", "amplitude_count", "1.5"),
        ("sweep", "amplitude_count", "0"),
        ("sweep", "alpha_count", "x"),
        ("sweep", "alpha_count", "-2"),
        ("sweep", "a_tilde_max", "0"),
        ("sweep", "a_tilde_max", "-4"),
        ("sweep", "a_tilde_max", "inf"),
        ("sweep", "alpha_max", "0"),
        ("sweep", "alpha_max", "nan"),
        ("sweep", "amplitude_max", "0"),
        ("sweep", "amplitude_max", "-1 nm"),
        ("atom", "frequency_hz", "inf"),
        ("atom", "frequency_hz", "nan"),
        ("atom", "frequency_hz", "-inf"),
        ("atom", "frequency_hz", "0"),
        ("atom", "frequency_hz", "-5e9"),
        ("atom", "alpha", "inf"),
        ("atom", "alpha", "nan"),
        ("atom", "alpha", "-inf"),
        ("atom", "alpha", "0"),
        ("atom", "alpha", "-0.2"),
        ("atom", "coupling_hz", "inf"),
        ("atom", "coupling_hz", "nan"),
        ("atom", "coupling_hz", "-inf"),
        ("atom", "coupling_hz", "0"),
        ("atom", "coupling_hz", "-1e8"),
        ("motion", "kind", "spin"),
        ("motion", "drive_frequency_hz", "inf"),
        ("motion", "drive_frequency_hz", "nan"),
        ("motion", "drive_frequency_hz", "0"),
        ("motion", "drive_frequency_hz", "-1e10"),
        ("motion", "amplitude", "-1 nm"),
        ("motion", "amplitude", "nan"),
        ("motion", "amplitude", "inf nm"),
        ("motion", "amplitude", "one nm"),
        ("motion", "delta_rad", "nan"),
        ("motion", "delta_rad", "inf"),
        ("motion", "radius", "-2 nm"),
        ("motion", "samples", "0,nan,0"),
        ("motion", "samples", "0,1e-9,x"),
        ("geometry", "kind", "box"),
        ("geometry", "z0", "0"),
        ("geometry", "z0", "-1 mm"),
        ("geometry", "length", "0"),
        ("geometry", "length", "-3 mm"),
        ("geometry", "photons", "-1"),
        ("sweep", "preset", "fig9"),
        ("sweep", "amplitude_min", "nan"),
        ("sweep", "amplitude_min", "inf"),
        ("sweep", "amplitude_min", "-1 nm"),
        ("sweep", "absolute", "maybe"),
        ("run", "format", "xml"),
        ("run", "verify", "2"),
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, section, key, value):
        path = write_cfg(tmp_path, with_value(SWEEP_CFG, section, key, value))
        command = "sweep" if section == "sweep" else "rate"
        assert main([command, "--config", path]) == 2
        assert f"[{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rate", "spectrum"])
    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_non_positive_n_max_option_exits_2(self, tmp_path, capsys,
                                               command, n_max):
        path = write_cfg(tmp_path, FREE_SPACE_CFG)
        assert main([command, "--config", path, "--n-max", n_max]) == 2
        assert "--n-max" in capsys.readouterr().err

    def test_explicit_maxima_are_kept(self):
        cfg = parse_config(SWEEP_CFG + "a_tilde_max = 0.5\nalpha_max = 0.25\n"
                           "amplitude_max = 3 nm\n")
        assert cfg.sweep.a_tilde_max == 0.5
        assert cfg.sweep.alpha_max == 0.25
        assert cfg.sweep.amplitude_max == pytest.approx(3e-9, rel=1e-15)

    @pytest.mark.parametrize("argv,edits", [
        (["sweep"], [("sweep", "absolute", "true"),
                     ("motion", "drive_frequency_hz", "inf")]),
        (["rate"], [("motion", "delta_rad", "nan")]),
        (["sweep"], [("sweep", "preset", "custom"),
                     ("sweep", "amplitude_count", "1"),
                     ("sweep", "amplitude_min", "inf")]),
        (["sweep"], [("sweep", "preset", "custom"),
                     ("sweep", "amplitude_min", "nan")]),
        (["spectrum"], [("motion", "kind", "general"),
                        ("motion", "samples",
                         ",".join(["0.0"] * 15 + ["nan"]))]),
    ])
    def test_non_finite_value_stops_before_any_command(self, tmp_path, capsys,
                                                       argv, edits):
        text = SWEEP_CFG
        for section, key, value in edits:
            text = with_value(text, section, key, value)
        assert main(argv + ["--config", write_cfg(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"[{section}] {key} must be finite" in captured.err

    def test_bounds_admit_their_edges(self):
        cfg = parse_config(
            FREE_SPACE_CFG.replace("amplitude = 1 nm", "amplitude = 0 nm\n"
                                   "radius = 0\ndelta_rad = -0.3")
            + "photons = 0\n[sweep]\namplitude_min = 0\n"
              "[run]\nseed = 0\nn_max = 1\n")
        assert cfg.motion.amplitude == 0.0 and cfg.motion.radius == 0.0
        assert cfg.motion.delta_rad == -0.3
        assert cfg.geometry.photons == 0 and cfg.seed == 0
        assert cfg.sweep.amplitude_min == 0.0

    def test_zero_amplitude_min_starts_at_max_over_count(self, tmp_path,
                                                         capsys):
        base = FREE_SPACE_CFG + ("\n[sweep]\npreset = custom\nn_max = 2\n"
                                 "amplitude_max = 4 nm\namplitude_count = 4\n")
        outputs = []
        for extra in ("", "amplitude_min = 0\n", "amplitude_min = 1 nm\n"):
            path = write_cfg(tmp_path, base + extra)
            assert main(["sweep", "--config", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert float(outputs[1].splitlines()[1].split(",")[0]) == 1e-9

    @pytest.mark.parametrize("command", ["rate", "spectrum", "sweep"])
    def test_seed_option_belongs_to_oracle_alone(self, tmp_path, capsys,
                                                 command):
        path = write_cfg(tmp_path, FREE_SPACE_CFG)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


# flag -> (the command that takes it, a value other than its key's default)
_FLAG_REQUESTS = {"--n-max": (["rate"], "3"),
                  "--format": (["rate"], "json"),
                  "--output": (["rate"], "out.txt"),
                  "--verify": (["rate"], "true"),
                  "--seed": (["oracle", "--draws", "3"], "5"),
                  "--preset": (["sweep"], "fig3")}
_FLAG_CFG = FREE_SPACE_CFG + ("[sweep]\nn_max = 2\na_tilde_count = 5\n"
                              "amplitude_count = 4\nalpha_count = 3\n")


class TestEachFlagIsReadByItsKeysRow:
    """Each flag overrides the key it mirrors (``cli.FLAG_KEYS``) and is
    read by that key's row."""

    @pytest.mark.parametrize("flag", FLAG_KEYS)
    def test_flag_and_key_give_the_same_output(self, tmp_path, capsys,
                                               monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        argv, value = _FLAG_REQUESTS[flag]
        section, name = FLAG_KEYS[flag]
        given = [flag] if flag == "--verify" else [flag, value]
        outcomes = []
        for text, extra in ((_FLAG_CFG, given),
                            (with_value(_FLAG_CFG, section, name, value), []),
                            (_FLAG_CFG, [])):
            code = main(argv + ["--config", write_cfg(tmp_path, text)]
                        + extra)
            out = tmp_path / "out.txt"
            written = out.read_text(encoding="utf-8") if out.exists() else None
            out.unlink(missing_ok=True)
            outcomes.append((code, capsys.readouterr(), written))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0
        assert outcomes[1] != outcomes[2]   # the value is not the default's

    # --output's row takes any text (a path that cannot be written fails at
    # the write, as [run] output does), and --verify takes no text.
    @pytest.mark.parametrize("flag,text,rule", [
        ("--n-max", "0", "must be >= 1, got '0'"),
        ("--n-max", "abc", "= 'abc' is not an integer"),
        ("--format", "xml", "must be one of csv, json; got 'xml'"),
        ("--format", "", "must be one of csv, json; got ''"),
        ("--seed", "-1", "must be >= 0, got '-1'"),
        ("--seed", "x", "= 'x' is not an integer"),
        ("--preset", "fig9", "must be one of fig2, fig3, custom; got 'fig9'"),
    ])
    def test_a_text_the_row_refuses_exits_2_naming_the_flag(
            self, tmp_path, capsys, flag, text, rule):
        argv = _FLAG_REQUESTS[flag][0]
        path = write_cfg(tmp_path, _FLAG_CFG)
        assert main(argv + ["--config", path, flag, text]) == 2
        assert capsys.readouterr() == ("", f"config error: {flag} {rule}\n")


# Drive 1 GHz with the atom at 9.5 GHz leaves one emission line, n = 10, at
# omega = 2 pi 0.5 GHz, where k = 2 pi 0.5e9 / c.
_RANGE_K = 2.0 * math.pi * 0.5e9 / 2.99792458e8


def _range_cfg(k_amplitude):
    return f"""\
[atom]
frequency_hz = 9.5e9
coupling_hz = 1e5

[motion]
kind = sho
drive_frequency_hz = 1e9
amplitude = {k_amplitude / _RANGE_K!r}

[geometry]
kind = free_space

[run]
n_max = 10
"""


class TestVerifyBeyondTheOracleRange:
    def test_line_beyond_the_node_cap_exits_3(self, tmp_path, capsys):
        # k A = 2e5 starts the oracle at 800200 nodes, above half the cap.
        path = write_cfg(tmp_path, _range_cfg(2e5))
        assert main(["rate", "--config", path, "--verify"]) == 3
        err = capsys.readouterr().err
        assert "MAX_PERIODIC_NODES" in err and "n=10" in err
        assert "integrity failure" not in err

    def test_line_within_the_node_cap_verifies(self, tmp_path, capsys):
        path = write_cfg(tmp_path, _range_cfg(1.2e5))
        assert main(["rate", "--config", path, "--verify"]) == 0
        rows = [row.split(",") for row in
                capsys.readouterr().out.strip().splitlines()[1:]]
        verified = [row for row in rows if row[6]]
        assert [row[0] for row in verified] == ["10"]
        assert float(verified[0][7]) < 1e-6


# Drive 1 GHz below an atom at 5 GHz opens no line up to n = 4.  Each
# motion below reaches the boundary of each geometry it is paired with.
_COLLIDING_ATOM = "[atom]\nfrequency_hz = 5e9\nalpha = 0.2\n"
_COLLIDING_MOTION = {
    "sho": "kind = sho\namplitude = 2 mm\n",
    "sampled": "kind = general\nsamples = " + ",".join(
        repr(0.06 * math.sin(2 * math.pi * j / 16)) for j in range(16)) + "\n",
}
_CAVITY_LENGTH = 2.99792458e8 / (2 * 1.1e9)   # z0 = 0.3 L is 41 mm
_COLLIDING_GEOMETRY = {
    "mirror": "kind = mirror\nz0 = 1 mm\n",
    "cavity": f"kind = cavity\nlength = {_CAVITY_LENGTH!r}\n"
              f"z0 = {0.3 * _CAVITY_LENGTH!r}\n",
}


class TestClearanceBeforeAnyLine:
    @pytest.mark.parametrize("motion,geometry,argv", [
        ("sho", "mirror", ["rate", "--n-max", "3"]),
        ("sho", "mirror", ["spectrum", "--n-max", "3"]),
        ("sho", "mirror", ["rate", "--n-max", "6"]),
        ("sho", "mirror", ["sweep", "--preset", "custom"]),
        ("sho", "cavity", ["spectrum", "--n-max", "3"]),
        ("sampled", "mirror", ["spectrum", "--n-max", "3"]),
        ("sampled", "cavity", ["spectrum", "--n-max", "3"]),
    ])
    def test_collision_exits_3_whether_or_not_a_line_is_open(
            self, tmp_path, capsys, motion, geometry, argv):
        motion_text = _COLLIDING_MOTION[motion]
        if geometry == "cavity" and motion == "sho":
            motion_text = motion_text.replace("2 mm", "60 mm")
        text = (f"{_COLLIDING_ATOM}[motion]\ndrive_frequency_hz = 1e9\n"
                f"{motion_text}[geometry]\n{_COLLIDING_GEOMETRY[geometry]}"
                "[sweep]\nn_max = 3\namplitude_max = 2 mm\n"
                "amplitude_count = 4\n")
        assert main(argv + ["--config", write_cfg(tmp_path, text)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reaches the boundary (clearance" in captured.err


class TestUnsupportedPairBeforeAnyLine:
    # Free space opens its first line at n = 6 (5 GHz atom, 1 GHz drive);
    # the cavity (0.9 GHz atom) has a mode near a branch from n = 2 on.
    # Free-space rotation has a closed form and is accepted either way.
    @pytest.mark.parametrize("motion,geometry,atom_hz,n_max,code,message", [
        ("kind = rotation\nradius = 1 nm\n", "kind = free_space\n", 5e9,
         3, 0, "n,branch,m,omega_rad_per_s,photon_frequency_hz,rate_hz\n"),
        ("kind = rotation\nradius = 1 nm\n", "kind = free_space\n", 5e9,
         6, 0, "\n6,emit-excite,,"),
        ("kind = sho\namplitude = 1 nm\norientation = parallel\n",
         _COLLIDING_GEOMETRY["cavity"], 0.9e9, 1, 3,
         "the cavity closed form needs SHO motion along the cavity axis"),
        ("kind = rotation\nradius = 1 nm\n",
         _COLLIDING_GEOMETRY["cavity"], 0.9e9, 1, 3,
         "the cavity closed form needs SHO motion along the cavity axis"),
    ], ids=["rotation-free_space-closed", "rotation-free_space-open",
            "parallel-cavity", "rotation-cavity"])
    def test_uncovered_pair_exits_3_whether_or_not_a_line_is_open(
            self, tmp_path, capsys, motion, geometry, atom_hz, n_max, code,
            message):
        text = (f"[atom]\nfrequency_hz = {atom_hz!r}\nalpha = 0.2\n"
                f"[motion]\ndrive_frequency_hz = 1e9\n{motion}"
                f"[geometry]\n{geometry}")
        path = write_cfg(tmp_path, text)
        assert main(["rate", "--config", path, "--n-max", str(n_max)]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert captured.err == ""
            assert message in captured.out
        else:
            assert captured.out == ""
            assert message in captured.err


def _sampled(count):
    return ("kind = general\nsamples = " + ",".join(
        repr(1e-9 * math.sin(2 * math.pi * j / count))
        for j in range(count)) + "\n")


_CAVITY_GEOMETRY = (f"kind = cavity\nlength = {_CAVITY_LENGTH!r}\n"
                    f"z0 = {0.3 * _CAVITY_LENGTH!r}\n")


def _typed_route_config(atom="alpha = 0.2", frequency="5e9", drive="1e10",
                        motion="kind = sho\namplitude = 1 nm\n",
                        geometry="kind = free_space\n", extra=""):
    return (f"[atom]\nfrequency_hz = {frequency}\n{atom}\n"
            f"[motion]\ndrive_frequency_hz = {drive}\n{motion}"
            f"[geometry]\n{geometry}{extra}")


_MIRROR = "kind = mirror\nz0 = 1 mm\n"

# (command, config, exit code, fragment of stderr, or of stdout on exit 0);
# "{missing}" is a directory that does not exist.
_TYPED_ROUTES = {
    # ConfigError -> 2
    "custom-axis-order": (
        ["sweep", "--preset", "custom"], _typed_route_config(
            extra="[sweep]\namplitude_min = 2e-8\namplitude_max = 1e-8\n"),
        2, "[sweep] amplitude_min = 2e-08 m must be below amplitude_max"),
    "fig3-axis-order": (
        ["sweep", "--preset", "fig3"], _typed_route_config(
            extra="[sweep]\namplitude_min = 2e-8\namplitude_max = 1e-8\n"),
        2, "[sweep] amplitude_min = 2e-08 m must be below amplitude_max"),
    "custom-axis-order-one-point": (
        ["sweep", "--preset", "custom"], _typed_route_config(
            extra="[sweep]\namplitude_min = 5 nm\namplitude_max = 1 nm\n"
                  "amplitude_count = 1\n"),
        2, "[sweep] amplitude_min = 5e-09 m must be below amplitude_max"),
    "fig3-axis-order-one-point": (
        ["sweep", "--preset", "fig3"], _typed_route_config(
            extra="[sweep]\namplitude_min = 5 nm\namplitude_max = 1 nm\n"
                  "amplitude_count = 1\n"),
        2, "[sweep] amplitude_min = 5e-09 m must be below amplitude_max"),
    "unwritable-output-option": (
        ["rate", "--output", "{missing}/out.csv"], _typed_route_config(),
        2, "cannot write output"),
    "unwritable-run-output": (
        ["rate"], _typed_route_config(
            extra="[run]\noutput = {missing}/out.csv\n"),
        2, "cannot write output"),
    # PhysicsDomainError -> 3
    "sampled-motion-rate": (
        ["rate"], _typed_route_config(motion=_sampled(16)),
        0, "\n1,emit-excite,,31415926535.89793,5000000000.0,1.0838223"),
    "cavity-custom-sweep": (
        ["sweep", "--preset", "custom"], _typed_route_config(
            atom="alpha = 0.2", frequency="0.9e9", drive="1e9",
            geometry=_CAVITY_GEOMETRY),
        3, "custom sweeps support free-space and mirror geometries"),
    "fig3-mirror": (
        ["sweep", "--preset", "fig3"], _typed_route_config(geometry=_MIRROR),
        3, "fig3 sweeps support free-space geometry only, got [geometry] "
           "kind = mirror"),
    "absolute-fig2-cavity": (
        ["sweep", "--preset", "fig2"], _typed_route_config(
            atom="alpha = 0.2", frequency="0.9e9", drive="1e9",
            geometry=_CAVITY_GEOMETRY, extra="[sweep]\nabsolute = true\n"),
        3, "absolute fig2 sweeps support free-space geometry only, got "
           "[geometry] kind = cavity"),
    "z0-outside-cavity": (
        ["rate"], _typed_route_config(
            geometry="kind = cavity\nlength = 1 mm\nz0 = 2 mm\n"),
        3, "z0 must lie inside the cavity"),
    "fifteen-samples": (
        ["spectrum"], _typed_route_config(motion=_sampled(15)),
        3, "need at least 16 samples, got 15"),
    "frequency-past-float64": (
        ["rate"], _typed_route_config(frequency="1e308"),
        3, "omega0 must be positive, got inf"),
    "bessel-argument-inf": (
        ["rate"], _typed_route_config(
            drive="1e300", motion="kind = sho\namplitude = 1e300\n"),
        3, "argument must be finite"),
    "mirror-phase-inf": (
        ["rate"], _typed_route_config(
            drive="1e300", geometry="kind = mirror\nz0 = 1e20\n"),
        3, "boundary phase inf rad is beyond float64 range"),
    "sweep-axis-collapses": (
        ["sweep", "--preset", "fig2"], _typed_route_config(
            extra="[sweep]\na_tilde_max = 5e-324\na_tilde_count = 4\n"),
        3, "axis 'A_tilde' must be strictly increasing"),
    # OverflowError -> 3
    "free-space-coupling-overflow": (
        ["rate"], _typed_route_config(atom="coupling_hz = 1e200"),
        3, "value beyond float64 range"),
    "mirror-alpha-overflow": (
        ["rate"], _typed_route_config(atom="alpha = 1e200",
                                      geometry=_MIRROR),
        3, "value beyond float64 range"),
    "spectrum-coupling-overflow": (
        ["spectrum"], _typed_route_config(atom="coupling_hz = 1e160"),
        3, "value beyond float64 range"),
    "verify-coupling-overflow": (
        ["rate", "--verify"], _typed_route_config(
            atom="coupling_hz = 1e160", geometry=_MIRROR),
        3, "value beyond float64 range"),
    "fig3-drive-overflow": (
        ["sweep", "--preset", "fig3"], _typed_route_config(drive="1e120"),
        3, "value beyond float64 range"),
    "fig2-absolute-overflow": (
        ["sweep", "--preset", "fig2"], _typed_route_config(
            atom="coupling_hz = 1e200", extra="[sweep]\nabsolute = true\n"),
        3, "value beyond float64 range"),
}


class TestExitCodeFollowsErrorType:
    @pytest.mark.parametrize("route", sorted(_TYPED_ROUTES))
    def test_typed_route(self, tmp_path, capsys, route):
        argv, text, code, fragment = _TYPED_ROUTES[route]
        missing = str(tmp_path / "missing")
        path = write_cfg(tmp_path, text.replace("{missing}", missing))
        argv = [a.replace("{missing}", missing) for a in argv]
        assert main(argv + ["--config", path]) == code
        captured = capsys.readouterr()
        stream, silent = ((captured.out, captured.err) if code == 0
                          else (captured.err, captured.out))
        assert silent == ""
        assert fragment in stream
        assert "Traceback" not in captured.err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("error", [ValueError, TypeError])
    def test_builtin_error_is_a_bug_and_propagates(self, tmp_path,
                                                  monkeypatch, error):
        def broken(*args):
            raise error("a bug, not a refusal")

        monkeypatch.setattr("accelrad.cli.allowed_sidebands", broken)
        path = write_cfg(tmp_path, FREE_SPACE_CFG)
        with pytest.raises(error, match="a bug, not a refusal"):
            main(["rate", "--config", path])


# Samples whose interpolant bound is past float64 range: alternating
# +-1e308 and sixteen 1e308 overflow the FFT, 1.7e308 overflows the slope.
_HUGE_SAMPLES = {
    "alternating": ",".join(["1e308", "-1e308"] * 8),
    "constant": ",".join(["1e308"] * 16),
    "spike": ",".join(["1.7e308"] + ["0"] * 15),
}


class TestSamplesPastFloat64:
    """Each exits 3 from the clearance check, before any line and without
    a numpy warning (warnings are errors under pytest)."""

    @pytest.mark.parametrize("samples", sorted(_HUGE_SAMPLES))
    @pytest.mark.parametrize("geometry", [
        "kind = free_space\n", _MIRROR,
        "kind = cavity\nz0 = 1 mm\nlength = 2 mm\n"],
        ids=["free_space", "mirror", "cavity"])
    @pytest.mark.parametrize("command", ["rate", "spectrum"])
    def test_refused_as_physics_domain(self, tmp_path, capsys, command,
                                       geometry, samples):
        text = _typed_route_config(
            motion=f"kind = general\nsamples = {_HUGE_SAMPLES[samples]}\n",
            geometry=geometry)
        assert main([command, "--config", write_cfg(tmp_path, text)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("physics-domain error: sampled trajectory "
                                "is beyond float64 range\n")


# A cavity request whose verified lines are all absorb-deexcite (n = 1, 3, 5
# on modes 3, 2, 1): the oracle models none of them.
_ABSORB_ONLY_CAVITY = (
    "[atom]\nfrequency_hz = 7e9\ncoupling_hz = 1e6\n"
    "[motion]\nkind = sho\ndrive_frequency_hz = 1e9\namplitude = 1 mm\n"
    "[geometry]\nkind = cavity\nlength = 0.0749481145\nz0 = 0.03\n"
    "photons = 2\n[run]\nn_max = 5\n")


class TestVerifiedSchema:
    """A verified request prints both oracle fields on every line, blank
    (CSV) or null (JSON) where the oracle models no emission."""

    def test_csv_header_has_the_oracle_columns(self, tmp_path, capsys):
        path = write_cfg(tmp_path, _ABSORB_ONLY_CAVITY)
        assert main(["rate", "--verify", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("n,branch,m,omega_rad_per_s,photon_frequency_hz,"
                            "rate_hz,oracle_rate_hz,oracle_rel_dev")
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["1", "absorb-deexcite", "3"], ["3", "absorb-deexcite", "2"],
            ["5", "absorb-deexcite", "1"]]
        assert all(line.endswith(",,") for line in lines[1:])

    def test_json_entries_carry_null_oracle_fields(self, tmp_path, capsys):
        path = write_cfg(tmp_path, _ABSORB_ONLY_CAVITY)
        assert main(["rate", "--verify", "--format", "json",
                     "--config", path]) == 0
        entries = json.loads(capsys.readouterr().out)["sidebands"]
        assert len(entries) == 3
        assert all(entry["oracle_rate_hz"] is None
                   and entry["oracle_rel_dev"] is None for entry in entries)


# The route table.  A 0.9 GHz atom under a 1 GHz drive opens every line in
# free space and at the mirror, and line n = 2 on mode 1 of the cavity.
_ROUTE_MOTIONS = {
    "sho": "kind = sho\namplitude = 10 mm\n",
    "parallel": "kind = sho\namplitude = 10 mm\norientation = parallel\n"
                "delta_rad = 0.4\n",
    "rotation": "kind = rotation\nradius = 10 mm\ndelta_rad = 0.4\n",
    "sampled": "kind = general\nsamples = " + ",".join(
        repr(1e-2 * math.sin(2 * math.pi * j / 32)) for j in range(32)) + "\n",
}
_ROUTE_GEOMETRIES = {"free_space": "kind = free_space\n",
                     "mirror": "kind = mirror\nz0 = 15 mm\n",
                     "cavity": _CAVITY_GEOMETRY}
_ROUTE_COMMANDS = {"rate": ["rate", "--n-max", "12"],
                   "spectrum": ["spectrum", "--n-max", "12"],
                   "rate-verify": ["rate", "--n-max", "12", "--verify"],
                   "sweep-custom": ["sweep", "--preset", "custom"]}


def _route_config(motion, geometry):
    return (f"[atom]\nfrequency_hz = 0.9e9\nalpha = 0.2\n"
            f"[motion]\ndrive_frequency_hz = 1e9\n{_ROUTE_MOTIONS[motion]}"
            f"[geometry]\n{_ROUTE_GEOMETRIES[geometry]}"
            "[sweep]\nn_max = 12\namplitude_max = 10 mm\n"
            "amplitude_count = 4\n")


def _route_outcome(motion, geometry, command):
    """(exit code, stderr fragment) of a request; (0, "") when served."""
    if command == "sweep-custom":
        if motion in ("sho", "parallel") and geometry != "cavity":
            return 0, ""
        return 3, "custom sweeps support free-space and mirror geometries"
    if motion == "sampled" and command == "rate-verify":
        return 2, "--verify does not apply to sampled motion"
    if geometry == "cavity" and motion in ("parallel", "rotation"):
        return 3, ("the cavity closed form needs SHO motion along the "
                   "cavity axis")
    return 0, ""


class TestRouteTable:
    """Every motion x geometry x command ends in the route's exit code, and
    on exit 0 in the bytes of the route that serves it: the oracle for
    sampled motion, so ``rate`` prints what ``spectrum`` prints at the same
    n_max, and the closed forms for the rest."""

    @pytest.mark.parametrize("command", sorted(_ROUTE_COMMANDS))
    @pytest.mark.parametrize("geometry", sorted(_ROUTE_GEOMETRIES))
    @pytest.mark.parametrize("motion", sorted(_ROUTE_MOTIONS))
    def test_route(self, tmp_path, capsys, motion, geometry, command):
        text = _route_config(motion, geometry)
        path = write_cfg(tmp_path, text)
        code, fragment = _route_outcome(motion, geometry, command)
        assert main(_ROUTE_COMMANDS[command] + ["--config", path]) == code
        captured = capsys.readouterr()
        assert fragment in captured.err
        if code:
            assert captured.out == ""
            return
        assert captured.err == ""
        cfg = parse_config(text)
        atom, geom = build_atom(cfg.atom), build_geometry(cfg.geometry)
        moving = build_motion(cfg.motion)
        if command == "sweep-custom":
            result = rate_surface(atom, moving, geom,
                                  [2.5e-3, 5e-3, 7.5e-3, 1e-2], 12)
            assert captured.out == sweep_text(result, "csv")
            return
        if motion == "sampled":
            lines = general_trajectory_spectrum(atom, moving, geom, 12)
        else:
            lines = allowed_sidebands(atom, moving, geom, 12)
        rows = (verified_lines(atom, moving, geom, lines)
                if command == "rate-verify"
                else [(line, None, None) for line in lines])
        assert lines
        assert captured.out == sidebands_text(rows, "csv",
                                              command == "rate-verify")
        if (motion, geometry) == ("rotation", "free_space"):
            # Rotation of radius R has the closed form of SHO of amplitude R.
            sho = ShoMotion(amplitude=moving.radius, Omega=moving.Omega)
            assert len(lines) == 12
            assert [line.rate.hex() for line in lines] == [
                line.rate.hex()
                for line in allowed_sidebands(atom, sho, geom, 12)]


# (command, config, one stderr line); each ran for minutes or printed numpy
# RuntimeWarnings ahead of its refusal.
_FRESH_PROCESS_REFUSALS = {
    "rate-bessel-argument-cap": (
        ["rate"], _typed_route_config(drive="2.8e307"),
        "physics-domain error: Bessel argument |x| = 5.86837e+290 is above "
        "MAX_ARGUMENT = 1e+07"),
    "fig2-bessel-argument-cap": (
        ["sweep", "--preset", "fig2"], _typed_route_config(
            extra="[sweep]\na_tilde_max = 1e308\n"),
        "physics-domain error: Bessel argument |x| = 1.95695e+305 is above "
        "MAX_ARGUMENT = 1e+07"),
    "fig3-overflowing-cells": (
        ["sweep", "--preset", "fig3"], _typed_route_config(
            extra="[sweep]\nalpha_max = 1e200\n"),
        "physics-domain error: values must be finite non-negative floats"),
    "fig2-overflowing-cells": (
        ["sweep", "--preset", "fig2"], _typed_route_config(
            atom="coupling_hz = 1.5e153",
            extra="[sweep]\nabsolute = true\n"),
        "physics-domain error: values must be finite non-negative floats"),
}


class TestRefusalInAFreshProcess:
    @pytest.mark.parametrize("route", sorted(_FRESH_PROCESS_REFUSALS))
    def test_refusal_is_prompt_and_alone_on_stderr(self, tmp_path,
                                                   fresh_python, route):
        argv, text, message = _FRESH_PROCESS_REFUSALS[route]
        path = write_cfg(tmp_path, text)
        proc = fresh_python("-m", "accelrad.cli", *argv, "--config", path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == message + "\n"


# Runs ``main(argv[2:])`` as ``python -m accelrad.cli`` would, with the
# terminal width argv[1].
_MAIN_AT_WIDTH = """\
import os, sys
os.environ["COLUMNS"] = sys.argv[1]
from accelrad.cli import main
sys.exit(main(sys.argv[2:]))
"""

# Counts ArgumentParser constructions at import and in two main() calls.
_PARSERS_BUILT = """\
import argparse, contextlib, io, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import accelrad.cli
counts = [len(built)]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert accelrad.cli.main(sys.argv[1:]) == 0
    counts.append(len(built) - sum(counts))
print(json.dumps(counts))
"""


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it."""

    def test_requests_in_one_process_match_fresh_processes(
            self, tmp_path, fresh_python, monkeypatch):
        path = write_cfg(tmp_path, FREE_SPACE_CFG)
        sequence = [
            ("80", ["rate", "--config", path, "--format", "csv"]),
            ("80", ["rate", "--config", path, "--n-max", "two"]),
            ("80", ["oracle", "--seed", "1", "--format", "json"]),
            ("80", ["sweep", "--preset", "fig2"]),
            ("80", ["rate", "--config", path, "--verify", "--format", "json"]),
            ("60", ["--help"]),
        ]
        codes = []
        for columns, argv in sequence:
            monkeypatch.setenv("COLUMNS", columns)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            fresh = fresh_python("-c", _MAIN_AT_WIDTH, columns, *argv)
            assert (code, out.getvalue(), err.getvalue()) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.append(code)
        assert codes == [0, 2, 0, 0, 0, 0]

    def test_parser_is_built_on_the_first_call_only(self, tmp_path,
                                                    fresh_python):
        path = write_cfg(tmp_path, FREE_SPACE_CFG)
        proc = fresh_python("-c", _PARSERS_BUILT, "rate", "--config", path)
        assert proc.returncode == 0, proc.stderr
        # none at import, the parser and its four subparsers on the first
        # call, none on the second
        assert json.loads(proc.stdout) == [0, 5, 0]


class TestOrientationIsCheckedAtParse:
    @pytest.mark.parametrize("argv", [["rate"], ["spectrum"],
                                      ["sweep", "--preset", "custom"]])
    def test_unknown_orientation_exits_2(self, tmp_path, capsys, argv):
        text = FREE_SPACE_CFG.replace("amplitude = 1 nm\n",
                                      "amplitude = 1 nm\n"
                                      "orientation = sideways\n")
        path = write_cfg(tmp_path, text)
        assert main(argv + ["--config", path]) == 2
        err = capsys.readouterr().err
        assert "[motion] orientation" in err and "'sideways'" in err
        assert "perpendicular" in err and "parallel" in err


def frozen_sweep_text(result, fmt: str) -> str:
    """``cli.sweep_text`` as it was before it formatted each float once."""
    import numpy as np
    if fmt == "json":
        payload = {
            "kind": "sweep",
            "metadata": result.metadata,
            "axis1": {"name": result.axis1_name, "values": list(result.axis1_values)},
            "axis2": {"name": result.axis2_name, "values": list(result.axis2_values)},
            "fixed": result.fixed,
            "values": result.values.tolist(),
            "aux": {key: np.asarray(value).tolist()
                    for key, value in result.aux.items()},
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if result.aux:
        aux_keys = sorted(result.aux)
        header = (f"{result.axis1_name},{result.axis2_name},value,"
                  + ",".join(aux_keys))
        out = [header]
        for i, a in enumerate(result.axis1_values):
            for j, b in enumerate(result.axis2_values):
                cells = [repr(a), repr(b), repr(float(result.values[i, j]))]
                for key in aux_keys:
                    cell = result.aux[key][i, j]
                    cells.append(repr(int(cell)) if isinstance(cell, (bool, np.bool_))
                                 else repr(float(cell)))
                out.append(",".join(cells))
        return "\n".join(out) + "\n"
    header = result.axis1_name + "," + ",".join(
        f"{result.axis2_name}={v:g}" for v in result.axis2_values)
    out = [header]
    for i, a in enumerate(result.axis1_values):
        row = [repr(a)] + [repr(float(v)) for v in result.values[i]]
        out.append(",".join(row))
    return "\n".join(out) + "\n"


# Cells on each switch of float repr: signed zero, the smallest subnormal,
# the fixed/exponent boundaries at 1e-4 and 1e16, and the largest float.
REPR_SWITCHES = (0.0, -0.0, 5e-324, 1e-05, 9.999999999999999e-05, 1e16,
                 1.7976931348623157e308)


def _switch_result(with_aux):
    import numpy as np
    from accelrad import SweepResult
    count = len(REPR_SWITCHES)
    values = np.array([[REPR_SWITCHES[(i + j) % count] for j in range(count)]
                       for i in range(count)])
    aux = {}
    if with_aux:
        aux = {"zeta": -values[::-1], "flag": values > 1e-5,
               "all_false": np.zeros(values.shape, dtype=bool)}
    return SweepResult('axis "one" é', (-1.0, 0.0) + REPR_SWITCHES[2:],
                       "n", (-2.0,) + REPR_SWITCHES[1:], values=values,
                       metadata={"surface": "switches", "version": "x"},
                       fixed={"Omega": 1e16, "tag": "line\nbreak Ω"},
                       aux=aux)


def _sweep_cases():
    import numpy as np
    from accelrad import (AtomParams, FreeSpace, Mirror, ShoMotion,
                          fig2_surface, fig3_surface, rate_surface)
    atom = AtomParams(omega0=2 * math.pi * 5e9, alpha=0.2)
    motion = ShoMotion(amplitude=1e-9, Omega=2 * math.pi * 1e10)
    amplitudes = np.linspace(1e-9, 4e-3, 24)
    return {
        "fig2-relative": lambda: fig2_surface(np.linspace(0.0, 30.0, 512),
                                              30),
        "fig2-absolute": lambda: fig2_surface(
            np.linspace(0.0, 30.0, 512), 30, g=atom.g, Omega=motion.Omega),
        "fig3": lambda: fig3_surface(np.linspace(1e-8 / 128, 1e-8, 128),
                                     np.linspace(1 / 128, 1.0, 128)),
        "custom-free-space": lambda: rate_surface(
            atom, motion, FreeSpace(), amplitudes, 30),
        "custom-mirror": lambda: rate_surface(
            atom, motion, Mirror(z0=4e-3), amplitudes[:-1], 30),
        "grid-1x1": lambda: fig2_surface([1.8412], 1),
        "a-tilde-count-1": lambda: fig2_surface([7.5], 30),
        "amplitude-count-1": lambda: fig3_surface(
            [5e-9], np.linspace(1 / 128, 1.0, 128)),
        "custom-amplitude-count-1": lambda: rate_surface(
            atom, motion, FreeSpace(), [2e-3], 30),
        "repr-switches": lambda: _switch_result(False),
        "repr-switches-aux": lambda: _switch_result(True),
    }


class TestSweepTextMatchesFrozenReference:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", sorted(_sweep_cases()))
    def test_byte_identical(self, case, fmt):
        from accelrad.cli import sweep_text
        result = _sweep_cases()[case]()
        assert sweep_text(result, fmt) == frozen_sweep_text(result, fmt)


def frozen_sidebands_text(rows, fmt: str, verified: bool) -> str:
    """``cli.sidebands_text`` as it was before it laid out JSON by hand."""
    from accelrad import __version__
    from accelrad.constants import angular_to_hz
    if fmt == "json":
        payload = {"kind": "sidebands", "version": __version__,
                   "sidebands": []}
        for line, orate, dev in rows:
            entry = {"n": line.n, "branch": line.branch, "m": line.m,
                     "omega_rad_per_s": line.omega,
                     "photon_frequency_hz": angular_to_hz(line.omega),
                     "rate_hz": line.rate}
            if verified:
                entry["oracle_rate_hz"] = orate
                entry["oracle_rel_dev"] = dev
            payload["sidebands"].append(entry)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    header = "n,branch,m,omega_rad_per_s,photon_frequency_hz,rate_hz"
    if verified:
        header += ",oracle_rate_hz,oracle_rel_dev"
    out = [header]
    for line, orate, dev in rows:
        row = (f"{line.n},{line.branch},"
               f"{'' if line.m is None else line.m},"
               f"{line.omega!r},{angular_to_hz(line.omega)!r},{line.rate!r}")
        if verified:
            row += f",{'' if orate is None else repr(orate)}"
            row += f",{'' if dev is None else repr(dev)}"
        out.append(row)
    return "\n".join(out) + "\n"


def _switch_rows():
    """Hand-built rows whose floats sit on every switch of float repr: each
    REPR_SWITCHES rate that Sideband accepts (all of them) against each
    omega it accepts (the positive ones), and oracle cells that run through
    REPR_SWITCHES, None and the non-finite floats."""
    from accelrad import ABSORB_DEEXCITE, EMIT_EXCITE, Sideband
    omegas = [value for value in REPR_SWITCHES if value > 0]
    cells = REPR_SWITCHES + (None, math.inf, -math.inf, math.nan)
    rows = []
    for i, rate in enumerate(REPR_SWITCHES):
        for j, omega in enumerate(omegas):
            line = Sideband(n=len(omegas) * i + j + 1, omega=omega, rate=rate,
                            branch=(EMIT_EXCITE, ABSORB_DEEXCITE)[(i + j) % 2],
                            m=None if j % 3 == 0 else i * j)
            rows.append((line, cells[(i + j) % len(cells)],
                         cells[(i + 2 * j + 1) % len(cells)]))
    return rows


def _sideband_cases():
    """Rows for sidebands_text, by case: real lines verified by the oracle
    (absorption rows carry None oracle cells), hand-built rows and none."""
    from accelrad import Cavity, Mirror
    from accelrad.constants import SPEED_OF_LIGHT
    atom = AtomParams(omega0=2 * math.pi * 5e9, alpha=0.2)
    motion = ShoMotion(amplitude=1e-2, Omega=2 * math.pi * 1e10)
    # omega0 = 2.5 Omega and modes at multiples of Omega / 2: every index
    # meets a mode, n = 1, 2 absorbing (N = 2 photons) and n >= 3 emitting.
    Omega = 2 * math.pi * 1e9
    cavity_atom = AtomParams(omega0=2.5 * Omega, alpha=0.2)
    cavity = Cavity(length=math.pi * SPEED_OF_LIGHT / (0.5 * Omega), z0=0.07,
                    n_photons=2)
    cavity_motion = ShoMotion(amplitude=2e-3, Omega=Omega)

    def verified(atom, motion, geom, n_max):
        return verified_lines(atom, motion, geom,
                              allowed_sidebands(atom, motion, geom, n_max))

    return {
        "empty": lambda: [],
        "free-space": lambda: verified(atom, motion, FreeSpace(), 24),
        "mirror": lambda: verified(atom, motion, Mirror(z0=4e-2), 24),
        "cavity": lambda: verified(cavity_atom, cavity_motion, cavity, 6),
        "repr-switches": _switch_rows,
    }


class TestSidebandsTextMatchesFrozenReference:
    @pytest.mark.parametrize("verified", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", sorted(_sideband_cases()))
    def test_byte_identical(self, case, fmt, verified):
        rows = _sideband_cases()[case]()
        assert (sidebands_text(rows, fmt, verified)
                == frozen_sidebands_text(rows, fmt, verified))

    def test_cases_hold_what_they_name(self):
        from accelrad import ABSORB_DEEXCITE
        cavity = _sideband_cases()["cavity"]()
        assert all(line.m is not None for line, _, _ in cavity)
        assert {(line.branch == ABSORB_DEEXCITE, orate is None, dev is None)
                for line, orate, dev in cavity} == {(True, True, True),
                                                    (False, False, False)}
        for case in ("free-space", "mirror"):
            rows = _sideband_cases()[case]()
            assert rows and all(line.m is None and orate is not None
                                for line, orate, _ in rows)

    @pytest.mark.parametrize("verified", [False, True])
    def test_numpy_scalars_print_as_floats(self, verified):
        # json writes a float subclass as float.__repr__; so does the CSV
        # form now, where repr would spell np.float64(...).
        import numpy as np
        from accelrad import Sideband
        rows = [row for row in _switch_rows()
                if not (row[1] is None or row[2] is None)]
        scalars = [(Sideband(n=line.n, omega=np.float64(line.omega),
                             rate=np.float64(line.rate), branch=line.branch,
                             m=line.m), np.float64(orate), np.float64(dev))
                   for line, orate, dev in rows]
        assert (sidebands_text(scalars, "json", verified)
                == frozen_sidebands_text(rows, "json", verified))
        csv_text = sidebands_text(scalars, "csv", verified)
        assert "np.float64" not in csv_text
        assert csv_text == frozen_sidebands_text(rows, "csv", verified)

    def test_seeded_rate_json_on_shipped_config_variants(self, tmp_path,
                                                         capsys,
                                                         monkeypatch):
        # Shipped configs with drawn amplitude, orientation, n_max and
        # --verify, through main with the writer and with the frozen one.
        import random
        import accelrad.cli
        configs = pathlib.Path(__file__).resolve().parent.parent / "configs"
        rng = random.Random(27)
        written = 0
        for draw in range(24):
            path = rng.choice(sorted(configs.glob("*.cfg")))
            text = with_value(path.read_text(encoding="utf-8"), "motion",
                              "amplitude",
                              repr(10.0 ** rng.uniform(-9.0, -2.5)))
            if path.stem != "cavity" and rng.random() < 0.5:
                text = with_value(text, "motion", "orientation", "parallel")
                text = with_value(text, "motion", "delta_rad",
                                  repr(rng.uniform(-3.0, 3.0)))
            argv = ["rate", "--config", write_cfg(tmp_path, text),
                    "--format", "json", "--n-max", str(rng.randint(1, 40))]
            if rng.random() < 0.5:
                argv.append("--verify")
            outcomes = []
            for writer in (sidebands_text, frozen_sidebands_text):
                monkeypatch.setattr(accelrad.cli, "sidebands_text", writer)
                outcomes.append((main(argv), capsys.readouterr()))
            assert outcomes[0] == outcomes[1], (draw, argv)
            written += outcomes[0][0] == 0
        assert written >= 20


# Every key of every section, drawn from the key table in accelrad.cli.

def _table_value(row):
    """``(text, value)``: a text a key accepts, and the value it reads as;
    or, for a key with a default, ``(None, default)``, the key left out."""
    kind, default, bound, choices = row
    if choices is not None:
        given = st.sampled_from(choices).map(lambda c: (c, c))
    elif kind == "bool":
        given = st.sampled_from(sorted(
            configparser.ConfigParser.BOOLEAN_STATES.items()))
    elif kind == "int":
        given = st.integers(int(bound.split()[1]), 2**63).map(
            lambda i: (str(i), i))
    elif kind == "str":
        given = st.text(string.ascii_letters + string.digits + "._-/",
                        min_size=1, max_size=12).map(lambda t: (t, t))
    else:
        finite = st.floats(allow_nan=False, allow_infinity=False)
        if kind == "tuple":
            given = st.lists(finite, min_size=1, max_size=20).map(
                lambda s: (",".join(map(repr, s)), tuple(s)))
        else:
            given = (finite if bound is None else st.floats(
                min_value=0.0, exclude_min=bound == "> 0",
                allow_infinity=False)).map(lambda v: (repr(v), v))
    return given if default is MISSING else st.just((None, default)) | given


@st.composite
def _table_run_config(draw):
    """A config text over every section of the key table, and the
    namespace it reads as."""
    lines, parts = [], {}
    for section, table in CONFIG_SECTIONS.items():
        lines.append(f"[{section}]")
        values = {}
        for name, row in table.items():
            text, values[name] = draw(_table_value(row))
            if text is not None:
                lines.append(f"{name} = {text}")
        parts[section] = SimpleNamespace(**values)
    return "\n".join(lines) + "\n", SimpleNamespace(
        **parts.pop("run").__dict__, **parts)


# Values a request can afford: n_max <= 20, sweep counts <= 16, and
# frequencies and lengths that keep k*A in the hundreds.
def _fuzz_text(name, row):
    kind, _, bound, choices = row
    if choices is not None:
        return st.sampled_from(choices)
    if kind == "bool":
        return st.sampled_from(["true", "false"])
    if kind == "int":
        low = int(bound.split()[1])
        return st.integers(low, 16 if name.endswith("count") else
                           20 if name == "n_max" else 4).map(str)
    if kind == "tuple":   # a sampled trajectory needs 16 samples
        return st.lists(st.floats(-1e-6, 1e-6), min_size=16,
                        max_size=20).map(lambda s: ",".join(map(repr, s)))
    if kind == "length":
        return st.floats(1e-10, 1e-3).map(repr)
    if name.endswith("_hz"):
        return st.floats(1e8, 1e11).map(repr)
    if bound is None:
        return st.floats(-7.0, 7.0).map(repr)
    return st.floats(0.01, 30.0).map(repr)


# Corruptions of one key: each must exit 2 and name "[section] key".
_BAD_TEXTS = ("abc", "nan", "inf", "-inf", "-1", "-2.5e-9")


@st.composite
def _corrupted_config(draw):
    command = draw(st.sampled_from(["rate", "spectrum", "sweep"]))
    # One of alpha and coupling_hz, every length and the samples are kept,
    # so that most uncorrupted configs run; any other optional key may be
    # left out.  output is never written: it names a file to write.
    coupling = draw(st.sampled_from(["alpha", "coupling_hz"]))
    entries = []    # [section, key, text, (kind, bound), required]
    for section, table in CONFIG_SECTIONS.items():
        if section == "sweep" and command != "sweep" and draw(st.booleans()):
            continue
        for name, row in table.items():
            kind, default, bound, _ = row
            required = default is MISSING
            if name in ("alpha", "coupling_hz"):
                keep = name == coupling
            else:
                keep = (required or kind in ("length", "tuple")
                        or section == "sweep" and kind == "int"
                        or name != "output" and draw(st.booleans()))
            if keep:
                entries.append([section, name, draw(_fuzz_text(name, row)),
                                (kind, bound), required])
    corruption = draw(st.sampled_from(
        ["none", "drop", "unknown", "bad value", "bad choice"]))
    named = None
    if corruption == "drop":
        entry = draw(st.sampled_from(entries))
        entries.remove(entry)
        named = entry[:2] if entry[4] else None
    elif corruption == "unknown":
        section = draw(st.sampled_from(list(CONFIG_SECTIONS)))
        entries.append([section, "colour", "blue", None, False])
        named = [section, "colour"]
    elif corruption != "none":
        kinds = (("str",) if corruption == "bad choice" else
                 ("float", "length", "int", "bool", "tuple"))
        entry = draw(st.sampled_from([e for e in entries
                                      if e[3][0] in kinds]))
        kind, bound = entry[3]
        bad = _BAD_TEXTS[:4] if bound is None else _BAD_TEXTS
        entry[2] = (f"no_{entry[2]}" if corruption == "bad choice"
                    else draw(st.sampled_from(bad if kind != "bool"
                                              else ("abc", "2", "nan"))))
        named = entry[:2]
    sections = ["atom", "motion", "geometry"] + [
        s for s in ("sweep", "run") if any(e[0] == s for e in entries)]
    text = "".join(f"[{s}]\n" + "".join(f"{e[1]} = {e[2]}\n"
                                         for e in entries if e[0] == s)
                   for s in sections)
    return command, text, named


class TestConfigTable:
    @given(case=_table_run_config())
    @settings(max_examples=150, deadline=None)
    def test_every_key_reads_as_written(self, case):
        text, expected = case
        assert parse_config(text) == expected

    @given(case=_corrupted_config())
    @settings(max_examples=150, deadline=None)
    def test_corrupted_configs_exit_cleanly(self, case):
        command, text, named = case
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, "--config", path])
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if named is not None:
            assert code == 2, text
            assert f"[{named[0]}] {named[1]}" in err.getvalue(), text

    def test_readme_lists_every_flag(self):
        readme = (pathlib.Path(__file__).resolve().parent.parent
                  / "README.md").read_text(encoding="utf-8")
        rows = {tuple(cell.strip().strip("`") for cell in
                      line.strip("|").split("|"))
                for line in readme.splitlines() if line.startswith("| `--")}
        assert rows == {(flag, f"[{section}] {name}")
                        for flag, (section, name) in FLAG_KEYS.items()}

    def test_readme_lists_every_key(self):
        readme = (pathlib.Path(__file__).resolve().parent.parent
                  / "README.md").read_text(encoding="utf-8")
        rows = {tuple(cell.strip().strip("`") for cell in
                      line.strip("|").split("|"))
                for line in readme.splitlines()
                if line.startswith("| `[")}
        expected = set()
        for section, table in CONFIG_SECTIONS.items():
            for name, (kind, default, bound, choices) in table.items():
                shown = ("required" if default is MISSING else "none"
                         if default is None else str(default).lower()
                         if isinstance(default, bool) else str(default))
                expected.add((f"[{section}]", name, kind, bound or "",
                              shown, ", ".join(choices or ())))
        assert {row[:3] + row[4:] for row in rows} == expected
