"""The model file's digest against ``hashlib``.

`parse_model_file` hashes the bytes it parsed with the interpreter's
builtin SHA-256 (``_sha256``, ``_sha2`` from Python 3.12), which keeps
OpenSSL off the start-up; ``hashlib`` is the oracle here.  The digest
must equal ``hashlib.sha256`` of the raw bytes for every bundled model,
a CRLF copy of one and a model with a non-ASCII UTF-8 comment, and a
Python without the builtin modules must reach the same digests through
``hashlib``.
"""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from specforge.cli.modelfile import parse_model_file

SRC = Path(__file__).resolve().parent.parent / "src"
BUNDLED = sorted(str(path) for path in (resources.files("specforge") / "data").iterdir()
                 if path.name.endswith(".model"))
INDEPENDENT = next(m for m in BUNDLED if m.endswith("independent.model"))


def assert_digest_of_raw(path) -> None:
    raw = Path(path).read_bytes()
    assert parse_model_file(str(path)).sha256 == hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("model", BUNDLED, ids=[Path(m).name for m in BUNDLED])
def test_bundled_model_digest_equals_hashlib(model):
    assert_digest_of_raw(model)


def test_crlf_copy_digest_equals_hashlib(tmp_path):
    model = tmp_path / "crlf.model"
    model.write_bytes(Path(INDEPENDENT).read_bytes().replace(b"\n", b"\r\n"))
    assert_digest_of_raw(model)


def test_non_ascii_comment_digest_equals_hashlib(tmp_path):
    model = tmp_path / "accents.model"
    model.write_bytes("# modèle indépendant — ünïcode ∑ 𝔖\n".encode()
                      + Path(INDEPENDENT).read_bytes())
    assert_digest_of_raw(model)
    assert parse_model_file(str(model)).sites == ("s1", "s2", "s3")


def test_hashlib_fallback_gives_the_same_digests():
    # a None entry in sys.modules makes its import raise ImportError, as
    # on a Python built without the builtin hash modules
    code = ("import json, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from specforge.cli import modelfile\n"
            "print(json.dumps({'hashlib': 'hashlib' in sys.modules,\n"
            "                  'digests': [modelfile.parse_model_file(p).sha256\n"
            "                              for p in sys.argv[1:]]}))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code, *BUNDLED], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    got = json.loads(result.stdout)
    want = [hashlib.sha256(Path(m).read_bytes()).hexdigest() for m in BUNDLED]
    assert got == {"hashlib": True, "digests": want}
