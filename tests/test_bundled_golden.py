"""Byte-for-byte outputs of every command on the bundled models.

Each bundled model is copied into a fresh working directory and run there
by relative path, because the report records the model path.  The SHA-256
of stdout, of the ``check --json`` and ``verify --json`` reports and of
the ``construct -o`` table are compared against frozen digests, so any
change to a printed or written byte shows up here.  The stdout, ``verify``
and table digests were frozen before the exterior-class,
witness-collector and ratio-integral refactor.  ``None`` marks an output
that is not written (``construct`` on a model whose gate fails writes no
table).

``CHAIN5`` extends the bundled four-site chain to five sites, so the
digests also cover a model larger than the bundled ones.  Its ``verify``
digests were recorded before the measure suites' enumerations were
replaced by the proofs in their docstrings.  ``CHAIN6`` adds a sixth
site; its ``verify`` digests were recorded before the ratio integrals
were shared between the build and the verify suites.  The ``check
--json`` digests, bundled and ``CHAIN5``, were recorded before the
two-site gates compared cross-multiplied integers; they hold the lhs/rhs
strings of ``broken_h2``'s failing witnesses byte for byte.
"""

import hashlib
import shutil
from importlib import resources

import pytest

from specforge.cli.main import main

MODELS = ("broken_h2", "example1", "extracted", "independent", "potential")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


CHAIN5 = """\
name chain5
sites s1 s2 s3 s4 s5
dimension 1
alphabet a b
free uniform
kind potential
field s2 a=3/2 b=1
pair s1 s2 a,a=2 a,b=1 b,a=1 b,b=2
pair s2 s3 a,a=2 a,b=1 b,a=1 b,b=2
pair s3 s4 a,a=2 a,b=1 b,a=1 b,b=2
pair s4 s5 a,a=2 a,b=1 b,a=1 b,b=2
"""

CHAIN6 = (CHAIN5.replace("chain5", "chain6").replace("s5\n", "s5 s6\n", 1)
          + "pair s5 s6 a,a=2 a,b=1 b,a=1 b,b=2\n")


def run_bundled(model: str, command: str, workdir, capsys) -> dict:
    """Exit code and output digests of one command on one bundled model."""
    source = resources.files("specforge") / "data" / f"{model}.model"
    shutil.copyfile(str(source), workdir / f"{model}.model")
    return run_command(model, command, workdir, capsys)


def run_command(model: str, command: str, workdir, capsys) -> dict:
    """Exit code and output digests of one command on ``<model>.model``."""
    argv = [command, f"{model}.model"]
    if command == "construct":
        argv += ["-o", "out.rho"]
    if command in ("check", "verify"):
        argv += ["--json", "report.json"]
    capsys.readouterr()
    code = main(argv)
    outcome = {"exit": code,
               "stdout": digest(capsys.readouterr().out.encode("utf-8"))}
    for name, key in (("out.rho", "rho"), ("report.json", "json")):
        path = workdir / name
        outcome[key] = digest(path.read_bytes()) if path.exists() else None
    return outcome


GOLDEN = {
    ("broken_h2", "check"): {
        "exit": 1,
        "stdout": "548e0cc7e977a85c4e84f77b1706d14bfcfebd61568b875024b652eaa9afb00a",
        "json": "4c7f226b2f3083be751927287c34d9ec8d8b8c1fa20074dfc2ec1aa547a031f5",
        "rho": None,
    },
    ("broken_h2", "construct"): {
        "exit": 1,
        "stdout": "83b90cad4a0202378a5d8cf3fad970e1206f214eb29b2740bac583a50b8c323b",
        "json": None,
        "rho": None,
    },
    ("broken_h2", "verify"): {
        "exit": 1,
        "stdout": "d53326a4b90a2dcd08fdbda046666796f9282776363b18bdb6250bf1b1f54bb8",
        "json": "4f1366f1dca26da9d27913eb313eb979546da93d5d1459ffdcd5abf36a309267",
        "rho": None,
    },
    ("example1", "check"): {
        "exit": 0,
        "stdout": "17eb39ddbc83c761b57520517bea31e80ec59051fb4ca1c2ca4e49c817cb9ac1",
        "json": "417fc8a4c89d1b0528c5cbf9d976555327cd7f54ea112932cb80abd077850762",
        "rho": None,
    },
    ("example1", "construct"): {
        "exit": 0,
        "stdout": "257b15ad7e387464f764d7d9d20ccbaf677b005c5de9d938c476d0316a8eb813",
        "json": None,
        "rho": "7a4e1f9e635563d068a4cacac27d1902e9ae358ea3722b33f881cbbd6bc516d4",
    },
    ("example1", "verify"): {
        "exit": 0,
        "stdout": "24d391c43836af74fdcf65b8116283725b074507be26c37c60c7aa33a3de63fd",
        "json": "2b8d27d7cae1ae19cd5d38f0957435179a66f2b9100a6b5b7de1b8cb31b509f9",
        "rho": None,
    },
    ("extracted", "check"): {
        "exit": 0,
        "stdout": "765b0fe57db77c76dedada015c7121af00b56920cd6056aac95ae992256e008f",
        "json": "378f1593e1a5c4aaa8c716777b7a8d50f3c242974592d8f5b9696dcef913acaf",
        "rho": None,
    },
    ("extracted", "construct"): {
        "exit": 0,
        "stdout": "4dc7ea9ae26fa986bc82031b77ffb03d2bae54c67abca25029bad47f6d18b407",
        "json": None,
        "rho": "2c928aaf5fcb80933d8240baa7dcc0783515286107923712d9f727c45ae4b2c4",
    },
    ("extracted", "verify"): {
        "exit": 0,
        "stdout": "57c3a47709fe9d2e8b0409695af44d7d8125e2d7dd3c87545e3d58bfd5de234a",
        "json": "8f5244dfb42536e8eaf15334e8bb9fedea5676bb66a23f3163ffd9758f87509c",
        "rho": None,
    },
    ("independent", "check"): {
        "exit": 0,
        "stdout": "2640e8eb3b3f306f033cf437e4d78c7e11acce6d93b08b22e1508ca72267e8dd",
        "json": "7004d78e1c7d8970d34ed37296b07271dd043a38df02c50f015fcde21f61e461",
        "rho": None,
    },
    ("independent", "construct"): {
        "exit": 0,
        "stdout": "0bc4536665ff068c2bccda178588ed8d5383fe0e8df0b6ff8301241db26ef1d5",
        "json": None,
        "rho": "7574990b7e4d393b74a7cff910d9aeb06430d2557c89a679b12e9f74a2fafe18",
    },
    ("independent", "verify"): {
        "exit": 0,
        "stdout": "41ed00aa4c9ff24b9b20947e059ca628cb23394c5e3bdb8241c1d5a6ed220504",
        "json": "9487f11a86a5574f2306d01312f9cb3e13c7a01b85fdc44733612e338ccffc7f",
        "rho": None,
    },
    ("potential", "check"): {
        "exit": 0,
        "stdout": "0607e471ddfb6a39325e67fbff676277952d051f6fbd230d75d867d8093a94df",
        "json": "9967a0d375bcdc46209d64c5bab0cd7e8e1426027488d17540bb25f650a1ebe5",
        "rho": None,
    },
    ("potential", "construct"): {
        "exit": 0,
        "stdout": "39b21fb065f977c888e9cd37832029e76ef91c82f17885c577fbef800d8a53f0",
        "json": None,
        "rho": "13e736745735ef5824d09353639e79689387d8ee090edff98ec5e219f9724961",
    },
    ("potential", "verify"): {
        "exit": 0,
        "stdout": "00d892dd89b051cc7d837ffcf4031904938573d0f46828c89c7fba97c790e2ab",
        "json": "d07bf0c359a7665333336837278a3f5aaa62498eb0c5d75c596688c510da6124",
        "rho": None,
    },
}


@pytest.mark.parametrize("command", ["check", "construct", "verify"])
@pytest.mark.parametrize("model", MODELS)
def test_outputs_are_byte_identical(model, command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_bundled(model, command, tmp_path, capsys) == GOLDEN[(model, command)]


def test_five_site_chain_check_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain5.model").write_text(CHAIN5, encoding="utf-8")
    assert run_command("chain5", "check", tmp_path, capsys) == {
        "exit": 0,
        "stdout": "774e44f10e4921dfb0be7a7c2ae2eb4fe1854b53afeaf6b20410198a00440d2e",
        "json": "2453aed7c9a9b15c39e5e25b36226f2442304b0e33df92627de4a838712eb1e2",
        "rho": None,
    }


def test_five_site_chain_verify_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain5.model").write_text(CHAIN5, encoding="utf-8")
    assert run_command("chain5", "verify", tmp_path, capsys) == {
        "exit": 0,
        "stdout": "94728e3483dc8fe3926d9f4d61b049866daec851fe2cad140afea90b7a789a41",
        "json": "90d90156911f20b1d54461f86c5679390c0526a5f5d14a7ccbd6c8e730622f47",
        "rho": None,
    }


def test_six_site_chain_verify_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain6.model").write_text(CHAIN6, encoding="utf-8")
    assert run_command("chain6", "verify", tmp_path, capsys) == {
        "exit": 0,
        "stdout": "b47557ae0db1c3acbbd6a7ff24a780ff035954394304e1f6094d898ec142591b",
        "json": "fd0f8a04e9b73e4e632d262e9be8aaabf49f6fc52faa65ce53cf4b2d91d870fa",
        "rho": None,
    }
