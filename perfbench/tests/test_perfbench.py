"""Tests of the benchmark's own parts: generator, oracle, tracer, metric list.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = run.load_cli()

from specforge import hypotheses  # noqa: E402
from specforge.cli.modelfile import parse_model_text  # noqa: E402


def family(text: str):
    _, fam, _ = parse_model_text(text).realize()
    return fam


@pytest.mark.parametrize("n", [3, 4])
def test_hardcore_chain_passes_both_gates(n):
    fam = family(generate.hardcore_chain(n, random.Random(n)))
    assert hypotheses.check_very_weak_positivity(fam).passed
    assert hypotheses.check_order_consistency(fam).passed


@pytest.mark.parametrize("n", [3, 4])
def test_one_sided_hardcore_fails_only_order_consistency(n):
    fam = family(generate.one_sided_hardcore(n, random.Random(n)))
    assert hypotheses.check_very_weak_positivity(fam).passed
    assert not hypotheses.check_order_consistency(fam).passed


@pytest.mark.parametrize("n", [3, 4])
def test_copycat_fails_very_weak_positivity(n):
    fam = family(generate.copycat(n, random.Random(n)))
    assert not hypotheses.check_very_weak_positivity(fam).passed


def test_generator_is_deterministic():
    for workload in run.WORKLOADS.values():
        first = workload.build(random.Random(7))
        again = workload.build(random.Random(7))
        assert [m.text for m in first] == [m.text for m in again]


def test_rho_oracle_matches_construct(tmp_path, monkeypatch):
    text, fields, pairs = generate.positive_chain(3, random.Random(1))
    monkeypatch.chdir(tmp_path)
    Path("chain3.model").write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["construct", "chain3.model", "-o", "chain3.rho"]) == 0
    records = run.rho_records(Path("chain3.rho").read_text())
    assert len(records) == 7 * 8
    assert records == run.rho_oracle(fields, pairs)


def test_reference_copy_is_separate_and_matches_oracle(tmp_path, monkeypatch):
    reference = run.load_reference()
    assert reference.__name__ == "specforge_reference.cli.main"
    assert reference.check_very_weak_positivity is not cli.check_very_weak_positivity
    text, fields, pairs = generate.positive_chain(3, random.Random(1))
    monkeypatch.chdir(tmp_path)
    Path("chain3.model").write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        assert reference.main(["construct", "chain3.model", "-o", "chain3.rho"]) == 0
    assert run.rho_records(Path("chain3.rho").read_text()) == run.rho_oracle(fields, pairs)


def test_reference_times_cover_every_workload():
    recorded = json.loads(run.REFERENCE_TIMES.read_text())
    assert set(recorded["verdict_s"]) == set(run.WORKLOADS)
    assert all(v > 0 for v in recorded["verdict_s"].values())
    assert recorded["setup_s"] > 0


def test_checker_flags_wrong_exit_and_changed_rho(tmp_path, monkeypatch):
    text, fields, pairs = generate.positive_chain(3, random.Random(1))
    model = run.Model("construct", "chain3", text, 0, chain=(fields, pairs))
    monkeypatch.chdir(tmp_path)
    Path(model.file).write_text(text)
    checker = run.Checker(None)
    assert run.run_command(cli, model, checker).problems == []
    rho = Path("chain3.rho")
    lines = rho.read_text().splitlines()
    label, assignment, tail, value = lines[-1].split(" ")
    lines[-1] = " ".join((label, assignment, tail, value + "1"))
    rho.write_text("\n".join(lines) + "\n")
    problems = run.Checker(None).check(model, 1, "", 0.0).problems
    assert problems == ["chain3: exit 1, expected 0",
                        "chain3: .rho differs from the joint oracle"]


def test_tracer_records_nested_spans_and_restores_functions(tmp_path, monkeypatch):
    original = cli.check_very_weak_positivity
    monkeypatch.chdir(tmp_path)
    Path("hc.model").write_text(generate.hardcore_chain(3, random.Random(0)))
    with Tracer() as tracer:
        assert cli.check_very_weak_positivity is not original
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", "hc.model"]) == 0
    assert cli.check_very_weak_positivity is original
    names = [span[0] for span in tracer.spans]
    parents = {i: span[3] for i, span in enumerate(tracer.spans)}
    nested = [i for i, name in enumerate(names)
              if name == "hypotheses.very_weak_positivity"
              and names[parents[i]] == "hypotheses.order_consistency"]
    assert nested, "order consistency must show its positivity call as a child"
    summary = tracer.summary()
    assert summary["calls"]["cli.main"] == 1
    assert summary["lookups"]["good_symbols"] == summary["calls"]["hypotheses.good_symbols"]


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {n for n, _ in run.END_TO_END}
    units = run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
