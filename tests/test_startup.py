"""Start-up of the command in a fresh interpreter.

Every ``specforge`` command starts by importing the package, so the
import stays free of ``dataclasses`` and of the ``inspect`` machinery it
loads, of ``typing``, of ``random`` (only ``verify`` draws, and imports
it where it does), of ``json`` (reports are written by
``report.encode_json``; only ``replay`` reads one) and of ``hashlib``
and OpenSSL's ``_hashlib`` (the model file's digest comes from the
builtin ``_sha256``, ``_sha2`` from Python 3.12).  ``python -m
specforge`` must behave as the in-process ``main``: same exit code, same
stdout, on every bundled model.
"""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from specforge.cli.main import main

SRC = Path(__file__).resolve().parent.parent / "src"
BUNDLED = sorted(str(path) for path in (resources.files("specforge") / "data").iterdir()
                 if path.name.endswith(".model"))
HEAVY = ("dataclasses", "inspect", "json", "typing", "random", "hashlib", "_hashlib")


def test_the_cli_imports_without_dataclasses_or_inspect(tmp_path):
    # -S: no site module, so only src and the standard library are on the
    # path; the snapshot comes first, so the snippet's own imports (sys
    # alone) cannot hide a module the package loads
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import specforge.cli.main\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in before))\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=60, check=True)
    preloaded, loaded = result.stdout.split("\n")[:2]
    assert (preloaded, loaded) == ("", "")


@pytest.mark.parametrize("model", BUNDLED, ids=[Path(m).name for m in BUNDLED])
def test_python_dash_m_matches_in_process_main(model, tmp_path, capsys, monkeypatch):
    result = subprocess.run(
        [sys.executable, "-m", "specforge", "check", model], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    monkeypatch.chdir(tmp_path)
    code = main(["check", model])
    assert (result.returncode, result.stdout) == (code, capsys.readouterr().out)
