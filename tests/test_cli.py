"""CLI tests: config round-trip, determinism, unit honesty, exit codes."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelrad import AtomParams, ShoMotion, free_space_rate
from accelrad.cli import (AtomConfig, GeometryConfig, MotionConfig, RunConfig,
                          SweepSettings, main, parse_config, parse_length,
                          serialize_config)

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


class TestConfigRoundTrip:
    def test_fixed_example(self):
        cfg = parse_config(FREE_SPACE_CFG)
        assert parse_config(serialize_config(cfg)) == cfg

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
        cfg = parse_config(text)
        assert cfg.geometry.photons == 2
        assert cfg.sweep.alpha_max == 0.8
        assert parse_config(serialize_config(cfg)) == cfg

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
    def test_generated_configs_round_trip(self, frequency, alpha, drive,
                                          amplitude, z0, kind, orientation,
                                          seed, verify):
        cfg = RunConfig(
            atom=AtomConfig(frequency_hz=frequency, alpha=alpha),
            motion=MotionConfig(kind="sho", drive_frequency_hz=drive,
                                amplitude_m=amplitude,
                                orientation=orientation),
            geometry=GeometryConfig(kind=kind,
                                    z0_m=z0 if kind == "mirror" else None),
            sweep=SweepSettings(),
            fmt="csv", verify=verify, seed=seed, n_max=3,
        )
        assert parse_config(serialize_config(cfg)) == cfg

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
        assert abs(cli_rate - free_space_rate(atom, motion, 1).rate) \
            <= 1e-12 * cli_rate

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

    def test_config_error_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, "[atom]\nfrequency_hz = hello\n")
        assert main(["rate", "--config", path]) == 2

    def test_missing_config_file(self):
        assert main(["rate", "--config", "/nonexistent/x.cfg"]) == 2

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


class TestRotationConfig:
    def test_rotation_rate_through_cli(self, tmp_path, capsys):
        # rotation in front of a mirror; compare to the library value
        from accelrad import Mirror, RotationMotion, mirror_rate

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
        expected = mirror_rate(atom, motion, Mirror(z0=2e-3), 1).rate
        assert cli_rate == pytest.approx(expected, rel=1e-12)


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
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, section, key, value):
        lines = SWEEP_CFG.splitlines()
        if f"[{section}]" not in lines:
            lines.append(f"[{section}]")
        lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
        path = write_cfg(tmp_path, "\n".join(lines) + "\n")
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

    def test_negative_seed_option_exits_2(self):
        assert main(["oracle", "--seed", "-1", "--draws", "3"]) == 2

    def test_explicit_maxima_are_kept(self):
        cfg = parse_config(SWEEP_CFG + "a_tilde_max = 0.5\nalpha_max = 0.25\n"
                           "amplitude_max = 3 nm\n")
        assert cfg.sweep.a_tilde_max == 0.5
        assert cfg.sweep.alpha_max == 0.25
        assert cfg.sweep.amplitude_max_m == pytest.approx(3e-9, rel=1e-15)


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
    grid = result.grid
    if fmt == "json":
        payload = {
            "kind": "sweep",
            "metadata": result.metadata,
            "axis1": {"name": grid.axis1_name, "values": list(grid.axis1_values)},
            "axis2": {"name": grid.axis2_name, "values": list(grid.axis2_values)},
            "fixed": grid.fixed,
            "values": result.values.tolist(),
            "aux": {key: np.asarray(value).tolist()
                    for key, value in result.aux.items()},
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if result.aux:
        aux_keys = sorted(result.aux)
        header = (f"{grid.axis1_name},{grid.axis2_name},value,"
                  + ",".join(aux_keys))
        out = [header]
        for i, a in enumerate(grid.axis1_values):
            for j, b in enumerate(grid.axis2_values):
                cells = [repr(a), repr(b), repr(float(result.values[i, j]))]
                for key in aux_keys:
                    cell = result.aux[key][i, j]
                    cells.append(repr(int(cell)) if isinstance(cell, (bool, np.bool_))
                                 else repr(float(cell)))
                out.append(",".join(cells))
        return "\n".join(out) + "\n"
    header = grid.axis1_name + "," + ",".join(
        f"{grid.axis2_name}={v:g}" for v in grid.axis2_values)
    out = [header]
    for i, a in enumerate(grid.axis1_values):
        row = [repr(a)] + [repr(float(v)) for v in result.values[i]]
        out.append(",".join(row))
    return "\n".join(out) + "\n"


# Cells on each switch of float repr: signed zero, the smallest subnormal,
# the fixed/exponent boundaries at 1e-4 and 1e16, and the largest float.
REPR_SWITCHES = (0.0, -0.0, 5e-324, 1e-05, 9.999999999999999e-05, 1e16,
                 1.7976931348623157e308)


def _switch_result(with_aux):
    import numpy as np
    from accelrad import SweepGrid, SweepResult
    count = len(REPR_SWITCHES)
    values = np.array([[REPR_SWITCHES[(i + j) % count] for j in range(count)]
                       for i in range(count)])
    grid = SweepGrid('axis "one" é', (-1.0, 0.0) + REPR_SWITCHES[2:],
                     "n", (-2.0,) + REPR_SWITCHES[1:],
                     fixed={"Omega": 1e16, "tag": "line\nbreak Ω"})
    aux = {}
    if with_aux:
        aux = {"zeta": -values[::-1], "flag": values > 1e-5,
               "all_false": np.zeros(values.shape, dtype=bool)}
    return SweepResult(grid=grid, values=values,
                       metadata={"surface": "switches", "version": "x"},
                       aux=aux)


def _sweep_cases():
    import numpy as np
    from accelrad import (AtomParams, FreeSpace, Mirror, ShoMotion,
                          fig2_surface, fig3_surface, rate_surface)
    atom = AtomParams(omega0=2 * math.pi * 5e9, alpha=0.2)
    motion = ShoMotion(amplitude=1e-9, Omega=2 * math.pi * 1e10)
    amplitudes = np.linspace(1e-9, 4e-3, 24)
    return {
        "fig2-relative": lambda: fig2_surface(),
        "fig2-absolute": lambda: fig2_surface(
            np.linspace(0.0, 30.0, 512), range(1, 31),
            g=atom.g, Omega=motion.Omega),
        "fig3": lambda: fig3_surface(),
        "custom-free-space": lambda: rate_surface(
            atom, motion, FreeSpace(), amplitudes, range(1, 31)),
        "custom-mirror": lambda: rate_surface(
            atom, motion, Mirror(z0=4e-3), amplitudes[:-1], range(1, 31)),
        "grid-1x1": lambda: fig2_surface([1.8412], [1]),
        "a-tilde-count-1": lambda: fig2_surface([7.5], range(1, 31)),
        "amplitude-count-1": lambda: fig3_surface(
            [5e-9], np.linspace(1 / 128, 1.0, 128)),
        "custom-amplitude-count-1": lambda: rate_surface(
            atom, motion, FreeSpace(), [2e-3], range(1, 31)),
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
