"""Golden outputs: every shipped config through every command and format.

Each entry is the exit code and the sha256 of stdout for one config, command
and format.  The digests pin the CLI bytes of ``configs/*.cfg``: a change
that is meant to keep output byte-identical must leave all of them alone,
and one that changes bytes on purpose (a new ``__version__`` included, since
JSON output carries it) must say so where it updates them.
"""

import hashlib
from pathlib import Path

import pytest

from accelrad.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
