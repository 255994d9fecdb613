"""A full ``verify`` and a ``verify`` without block splits report the same bytes.

A full ``verify`` runs ``order_independence`` before ``uniqueness_probe``
and the measure suites, so ``good_support`` and the probe's
re-derivation read the record of passing block splits and walk no
point.  ``verify --uniqueness --measures`` runs no block split, so both
walk every core point.  The kernel measures of both read the record of
axiom (c).  For the bundled models, ``CHAIN5`` and a two-tail hard-core
chain, every ``good_support``, ``uniqueness_probe``,
``measure_consistency[kernel:*]`` and ``support_mass[kernel:*]`` entry of
the full report must serialise to the same bytes as the entry of that
name in the report that walks.

``order_independence`` in a full ``verify`` runs after the specification
axioms and is read off their passing record.  A full ``verify`` whose
order-independence suite finds that record withheld walks every sweep
and block split instead; its JSON report and stdout must equal those of
the read-off route byte for byte.
"""

import importlib
import json
from importlib import resources

import pytest

from specforge import constructor
from specforge.cli.main import main

from test_bundled_golden import CHAIN5

# the package re-exports the function ``main`` under the module's name
cli = importlib.import_module("specforge.cli.main")

MODELS = ("broken_h2", "example1", "extracted", "independent", "potential")


def hardcore_chain(n: int = 4) -> str:
    """No two neighbours both hold ``b``; tail class ``pinned`` also keeps
    ``b`` off both ends.  Site k's activity for ``b`` is k + 2."""
    sites = [f"s{k}" for k in range(1, n + 1)]
    lines = [f"name hardcore{n}", "sites " + " ".join(sites), "alphabet a b",
             "tails open pinned", "free uniform", "kind table"]
    for k, site in enumerate(sites):
        for tail in ("open", "pinned"):
            for code in range(2 ** n):
                values = tuple("ab"[code >> (n - 1 - j) & 1] for j in range(n))
                blocked = ("b" in values[max(k - 1, 0):k] + values[k + 1:k + 2]
                           or (tail == "pinned" and k in (0, n - 1)))
                weight = 1 if values[k] == "a" else 0 if blocked else k + 2
                ctx = " ".join(values[:k] + values[k + 1:])
                lines.append(f"entry {site} {values[k]} {ctx} {tail} {weight}")
    return "\n".join(lines) + "\n"


SOURCES = {**{model: None for model in MODELS}, "chain5": CHAIN5, "hardcore4": hardcore_chain()}
COMPARED = ("good_support", "uniqueness_probe", "measure_consistency[kernel:",
            "support_mass[kernel:")


def entries(path) -> dict[str, str]:
    report = json.loads(path.read_text(encoding="utf-8"))
    return {suite["name"]: json.dumps(suite, indent=2, sort_keys=True)
            for suite in report["suites"] if suite["name"].startswith(COMPARED)}


@pytest.mark.parametrize("model", sorted(SOURCES))
def test_recorded_and_walked_entries_are_byte_identical(model, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / f"{model}.model"
    text = SOURCES[model]
    if text is None:
        text = (resources.files("specforge") / "data" / f"{model}.model").read_text(
            encoding="utf-8")
    path.write_text(text, encoding="utf-8")
    main(["verify", path.name, "--json", "full.json"])
    main(["verify", path.name, "--uniqueness", "--measures", "--json", "walked.json"])
    capsys.readouterr()
    full = entries(tmp_path / "full.json")
    walked = entries(tmp_path / "walked.json")
    if model != "broken_h2":
        assert "good_support" in full and any(name.startswith("measure") for name in full)
    for name, entry in full.items():
        assert walked[name] == entry, name


@pytest.mark.parametrize("model", sorted(SOURCES))
def test_read_off_and_walked_order_independence_are_byte_identical(
        model, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = SOURCES[model]
    if text is None:
        text = (resources.files("specforge") / "data" / f"{model}.model").read_text(
            encoding="utf-8")
    (tmp_path / "model.model").write_text(text, encoding="utf-8")
    argv = ["verify", "model.model", "--json", "report.json"]
    code = main(argv)
    read_off = (tmp_path / "report.json").read_bytes(), capsys.readouterr().out
    honest = cli.check_order_independence
    withheld = []

    def without_record(singletons, *args, **kwargs):
        dens = constructor.build_family(singletons)
        record = dens._cache.pop(("axiom_record",), None)
        withheld.append(record)
        try:
            return honest(singletons, *args, **kwargs)
        finally:
            if record is not None:
                dens._cache[("axiom_record",)] = record

    monkeypatch.setattr(cli, "check_order_independence", without_record)
    assert main(argv) == code
    walked = (tmp_path / "report.json").read_bytes(), capsys.readouterr().out
    if model != "broken_h2":
        assert withheld and withheld[0] is not None
    assert walked == read_off
