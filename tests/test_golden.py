"""Golden outputs: every shipped config through every command and format.

Each entry is the exit code and the sha256 of stdout for one config, command
and format.  The digests pin the CLI bytes of ``configs/*.cfg``: a change
that is meant to keep output byte-identical must leave all of them alone,
and one that changes bytes on purpose (a new ``__version__`` included, since
JSON output carries it) must say so where it updates them.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from accelrad.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BENCH = Path(__file__).resolve().parent.parent / "bench"

COMMANDS = {
    "rate": ["rate"],
    "rate-verify": ["rate", "--verify"],
    "spectrum": ["spectrum"],
    "sweep-fig2": ["sweep", "--preset", "fig2"],
    "sweep-fig3": ["sweep", "--preset", "fig3"],
    "sweep-custom": ["sweep", "--preset", "custom"],
}

# sha256 of the empty string: a run that fails writes nothing to stdout.
GOLDEN = {
    ("cavity", "rate", "csv"): (
        0, "7fb5b778316f74fdde194b84385586961cb441fdfa5c95242da763f84110b6b0"),
    ("cavity", "rate", "json"): (
        0, "e63b9f6960ee3110e8d46047f060bc13f6e9895fc6969df2d407676a98e90d2f"),
    ("cavity", "rate-verify", "csv"): (
        0, "db351fc84db59beb57998927929776bab196e61b401caf1559252a5677c0d804"),
    ("cavity", "rate-verify", "json"): (
        0, "20d84751b04a1adf131299ca1f7b635662c4c47a79891f178d9017219839c650"),
    ("cavity", "spectrum", "csv"): (
        0, "7fb5b778316f74fdde194b84385586961cb441fdfa5c95242da763f84110b6b0"),
    ("cavity", "spectrum", "json"): (
        0, "e63b9f6960ee3110e8d46047f060bc13f6e9895fc6969df2d407676a98e90d2f"),
    ("cavity", "sweep-fig2", "csv"): (
        0, "7911ab633604a425fb844d4e70920b3b05684bf6982df51a67874ae115cafc8f"),
    ("cavity", "sweep-fig2", "json"): (
        0, "19a794faf1f6a0e12804c2dbb1cd0834556132c66a6421df61e4d1bb84c1635f"),
    ("cavity", "sweep-fig3", "csv"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cavity", "sweep-fig3", "json"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cavity", "sweep-custom", "csv"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cavity", "sweep-custom", "json"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("free_space", "rate", "csv"): (
        0, "fa0fa1c2706391a33e5bbe77b7adef9af408799ffc525588d6f83375ff243a58"),
    ("free_space", "rate", "json"): (
        0, "2b5294643f6ea3f6d047bb1893bf3cf11f2b531254cd70a5f0c3243f3e226fff"),
    ("free_space", "rate-verify", "csv"): (
        0, "13f6bc0750dbd33bce62229cca93021346eb57ec872be2a5448c331a266a8925"),
    ("free_space", "rate-verify", "json"): (
        0, "5757da376d3b76e460534431317199093a110e0899052c209babc68eddca39a8"),
    ("free_space", "spectrum", "csv"): (
        0, "37935791e8070ef70bdef59f09b89ee9cc0c0a8379260f4430b28ef0bef8a44b"),
    ("free_space", "spectrum", "json"): (
        0, "280d1b14a4d4530f4a913a925cca22beda99912a206f8c126e98bb7b8d5a7bb0"),
    ("free_space", "sweep-fig2", "csv"): (
        0, "7911ab633604a425fb844d4e70920b3b05684bf6982df51a67874ae115cafc8f"),
    ("free_space", "sweep-fig2", "json"): (
        0, "19a794faf1f6a0e12804c2dbb1cd0834556132c66a6421df61e4d1bb84c1635f"),
    ("free_space", "sweep-fig3", "csv"): (
        0, "f64d54a01e4d1aecd2c60ccb95d5ef45dfe216b6978776c4e46ef9de24ed2e7f"),
    ("free_space", "sweep-fig3", "json"): (
        0, "62f602e284fe6ebefd82646d357d3d0a18f28c7e61ac54858b08939234f64d21"),
    ("free_space", "sweep-custom", "csv"): (
        0, "2453f31f4aee5dab95d66c34576a10b92719f8657f5dcb2d51f701fff524072b"),
    ("free_space", "sweep-custom", "json"): (
        0, "a8bbb0bae44d9344b0b2f9113659306a2a455f5465a3953b66b81bac33b1a323"),
    ("mirror", "rate", "csv"): (
        0, "623cad973f7ee37f326233d16bc0cc1ea87ce2869fbd35284421c23ead96cf7b"),
    ("mirror", "rate", "json"): (
        0, "0b4a955451b0fbb97155994bb6883e17c0330e6a1cc10ecbe7a85c81152c6be9"),
    ("mirror", "rate-verify", "csv"): (
        0, "623cad973f7ee37f326233d16bc0cc1ea87ce2869fbd35284421c23ead96cf7b"),
    ("mirror", "rate-verify", "json"): (
        0, "0b4a955451b0fbb97155994bb6883e17c0330e6a1cc10ecbe7a85c81152c6be9"),
    ("mirror", "spectrum", "csv"): (
        0, "561c15e1172cea943f9e4883887662f863bb12f7fc3a598902a3dc3d9536752a"),
    ("mirror", "spectrum", "json"): (
        0, "a7ac222ec175f0e2293f08e1938bf7cdc50f7fab0e644ada636ad93f4918124d"),
    ("mirror", "sweep-fig2", "csv"): (
        0, "7911ab633604a425fb844d4e70920b3b05684bf6982df51a67874ae115cafc8f"),
    ("mirror", "sweep-fig2", "json"): (
        0, "19a794faf1f6a0e12804c2dbb1cd0834556132c66a6421df61e4d1bb84c1635f"),
    ("mirror", "sweep-fig3", "csv"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("mirror", "sweep-fig3", "json"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("mirror", "sweep-custom", "csv"): (
        0, "103778cb07e8159dd57147fe5f393cdec861b197283c893a9b7e34e2be2a6344"),
    ("mirror", "sweep-custom", "json"): (
        0, "306455d2001d85726873e6af3e433efb9b734bdd8db47baf806e9b11ed5d3aaa"),
}

# ``oracle --seed 0`` in each format: the quadrature behind both report lines.
ORACLE_GOLDEN = {
    "text": (
        0, "20dc544122f580e8166c2bac8426447b266bfd2c27a9c67857928fb3e149debe"),
    "json": (
        0, "d903ec0ea2953c07d94deafc480f1c360f461e8d331412977507ff72b1ccf008"),
}

# Config-less ``sweep --preset fig2|fig3``: the grids of the ``[sweep]``
# defaults, and fig3 at its default 10 GHz drive.
CONFIGLESS_GOLDEN = {
    ("sweep-fig2", "csv"): (
        0, "7911ab633604a425fb844d4e70920b3b05684bf6982df51a67874ae115cafc8f"),
    ("sweep-fig2", "json"): (
        0, "19a794faf1f6a0e12804c2dbb1cd0834556132c66a6421df61e4d1bb84c1635f"),
    ("sweep-fig3", "csv"): (
        0, "f64d54a01e4d1aecd2c60ccb95d5ef45dfe216b6978776c4e46ef9de24ed2e7f"),
    ("sweep-fig3", "json"): (
        0, "62f602e284fe6ebefd82646d357d3d0a18f28c7e61ac54858b08939234f64d21"),
}


def test_every_config_and_command_is_pinned():
    configs = {path.stem for path in CONFIGS.glob("*.cfg")}
    assert {key[0] for key in GOLDEN} == configs
    assert len(GOLDEN) == len(configs) * len(COMMANDS) * 2


@pytest.mark.parametrize("config,command,fmt", sorted(GOLDEN))
def test_stdout_matches_golden(capsys, config, command, fmt):
    code, digest = GOLDEN[config, command, fmt]
    argv = COMMANDS[command] + ["--config", str(CONFIGS / f"{config}.cfg"),
                                "--format", fmt]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("fmt", sorted(ORACLE_GOLDEN))
def test_oracle_report_matches_golden(capsys, fmt):
    code, digest = ORACLE_GOLDEN[fmt]
    assert main(["oracle", "--seed", "0", "--format", fmt]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("command,fmt", sorted(CONFIGLESS_GOLDEN))
def test_configless_sweep_matches_golden(capsys, command, fmt):
    code, digest = CONFIGLESS_GOLDEN[command, fmt]
    assert main(COMMANDS[command] + ["--format", fmt]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Commands that load numpy partway through the run, each in a new
# interpreter: in this process pytest has imported numpy before accelrad.
FRESH_PROCESS = {
    **{f"{command}-{fmt}": (COMMANDS[command] + [
        "--config", str(CONFIGS / "free_space.cfg"), "--format", fmt],
        GOLDEN["free_space", command, fmt])
       for command in ("rate-verify", "sweep-fig2", "sweep-fig3",
                       "sweep-custom")
       for fmt in ("csv", "json")},
    **{f"oracle-{fmt}": (["oracle", "--seed", "0", "--format", fmt],
                         ORACLE_GOLDEN[fmt])
       for fmt in ORACLE_GOLDEN},
}


@pytest.mark.parametrize("case", sorted(FRESH_PROCESS))
def test_fresh_process_matches_golden(fresh_python, case):
    argv, (code, digest) = FRESH_PROCESS[case]
    proc = fresh_python("-m", "accelrad.cli", *argv)
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest


# The six sweep requests of the benchmark's fixed ``figures`` probe
# (``bench/workloads.py`` ``probe("figures")``), by label: grids drawn
# around the presets' defaults, so a change that moves any sweep byte fails
# here as well as in the benchmark's digest comparison.
FIGURES_PROBE_GOLDEN = {
    "sweep/fig2/csv":
        "96a01b6541eae1e0f705dbd8e5ee81263e7d04649c2c71670c64972b4e5d14dc",
    "sweep/fig2/json":
        "829e29bd52d91496fb97f2a0205df1237ae05849b5920ba63ee910855857af6c",
    "sweep/fig3/csv":
        "374c0196b913f724ff1dddf9528652c15ef7df827882ef5011a02bef936d4163",
    "sweep/fig3/json":
        "cb5563739693993ce9d57af96c15bf8928a6c967f428e0c3fd3da4e78de49d18",
    "sweep/custom/csv":
        "ce59bd6178bcfdb3b05c9b22ea3636850e3d5c4a500c30032f774c23c8ef7083",
    "sweep/custom/json":
        "a223331754e362f46237ce3bee069bf1fd976dc15a5caf97c395d6bebc0df958",
}


@pytest.fixture(scope="module")
def figures_probe():
    """The probe's sweep requests by label, read from ``bench/``, which
    this test changes nothing in."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return {req.label: req for req in workloads.probe("figures")
            if req.argv[0] == "sweep"}


def test_every_figures_probe_sweep_is_pinned(figures_probe):
    assert set(figures_probe) == set(FIGURES_PROBE_GOLDEN)


@pytest.mark.parametrize("label", sorted(FIGURES_PROBE_GOLDEN))
def test_figures_probe_matches_golden(capsys, tmp_path, figures_probe,
                                      label):
    request = figures_probe[label]
    config = tmp_path / "probe.cfg"
    config.write_text(request.config)
    argv = [str(config) if a == "{config}" else a for a in request.argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == FIGURES_PROBE_GOLDEN[label]


# fig2 columns at a_tilde = 0 (the default axis starts there) and below
# 1e-6, where a column's Miller pass divides by zero or overflows and the
# series takes over, in a new interpreter under ``-W error``: the array
# pass must turn neither into a numpy warning.
TINY_FIG2_GOLDEN = {
    "csv": "e754cf95dc157076fecbf1d885ac3b2aa85113725f23a24cb1211944fe92b635",
    "json": "3da116d98fabe44c23c88c3ef1f02471180f39b439eff2776584ee07c278ff69",
}


@pytest.mark.parametrize("grid", ["default", "a_tilde_max-1e-5"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fig2_near_zero_warns_nothing(fresh_python, tmp_path, grid, fmt):
    argv = ["sweep", "--preset", "fig2", "--format", fmt]
    if grid == "default":
        digest = CONFIGLESS_GOLDEN["sweep-fig2", fmt][1]
    else:
        config = tmp_path / "tiny.cfg"
        config.write_text((CONFIGS / "free_space.cfg").read_text()
                          + "\n[sweep]\na_tilde_max = 1e-5\n")
        argv += ["--config", str(config)]
        digest = TINY_FIG2_GOLDEN[fmt]
    proc = fresh_python("-W", "error", "-m", "accelrad.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest
