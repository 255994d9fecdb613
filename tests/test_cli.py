"""Command-line front end: parsing, exit codes, reports, replay."""

import hashlib
import importlib
import json
import re
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from specforge import DomainError
from specforge.cli.main import main
from specforge.cli.modelfile import (
    ModelFileError,
    parse_model_file,
    parse_model_text,
)
from specforge.cli.report import SCHEMA_VERSION


def data_path(name: str) -> str:
    return str(resources.files("specforge") / "data" / name)


EXAMPLE1 = data_path("example1.model")
INDEPENDENT = data_path("independent.model")
BROKEN_H2 = data_path("broken_h2.model")
EXTRACTED = data_path("extracted.model")
POTENTIAL = data_path("potential.model")

# the bundled extracted.model joint, frozen here as the oracle's input
EXTRACTED_JOINT = {
    ("a", "a", "a"): Fraction(5),
    ("a", "a", "b"): Fraction(3),
    ("a", "b", "a"): Fraction(2),
    ("a", "b", "b"): Fraction(7, 2),
    ("b", "a", "a"): Fraction(1),
    ("b", "a", "b"): Fraction(4),
    ("b", "b", "a"): Fraction(9, 2),
    ("b", "b", "b"): Fraction(6),
}


def read_rho(path) -> list[tuple[str, tuple[str, ...], str, Fraction]]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        region, assignment, tail, value = line.split()
        records.append((region, tuple(assignment.split(",")), tail,
                        Fraction(value)))
    return records


class TestModelFileParsing:
    def test_example1_fields(self):
        model = parse_model_file(EXAMPLE1)
        assert model.name == "example1"
        assert model.sites == ("s1", "s2", "s3", "s4")
        assert model.alphabet == ("L", "H")
        assert model.tails == ("many-high", "few-high")
        assert model.kind == "tail_rule"
        assert model.cell_count() == 2**4 * 2**4 * 2

    def test_float_literal_rejected_with_location(self):
        text = "sites a b\nalphabet x y\nfree uniform\nkind joint\njoint x y 0.5\n"
        with pytest.raises(ModelFileError, match=r"bad\.model:5: .*0\.5"):
            parse_model_text(text, path="bad.model")

    def test_missing_kind_reported_at_end(self):
        with pytest.raises(ModelFileError, match="missing 'kind'"):
            parse_model_text("sites a\nalphabet x\nfree uniform\n")

    def test_unknown_directive(self):
        with pytest.raises(ModelFileError, match="unknown directive 'wat'"):
            parse_model_text("wat 3\n")

    def test_entry_arity_checked(self):
        text = ("sites a b\nalphabet x y\nfree uniform\nkind table\n"
                "entry a x default 1\n")
        with pytest.raises(ModelFileError, match="entry needs site"):
            parse_model_text(text)

    def test_pair_requires_every_ordered_pair(self):
        text = ("sites a b\nalphabet x y\nfree uniform\nkind potential\n"
                "pair a b x,x=1 y,y=1\n")
        with pytest.raises(ModelFileError, match="every ordered symbol pair"):
            parse_model_text(text)

    def test_reversed_pair_is_stored_in_universe_order(self):
        head = "sites s1 s2\nalphabet a b\nfree uniform\nkind potential\n"
        reversed_line = parse_model_text(head + "pair s2 s1 a,a=2 a,b=3 b,a=5 b,b=7\n")
        in_order = parse_model_text(head + "pair s1 s2 a,a=2 b,a=3 a,b=5 b,b=7\n")
        assert reversed_line.pairs == in_order.pairs
        assert list(reversed_line.pairs) == [("s1", "s2")]
        _, family_r, _ = reversed_line.realize()
        _, family_o, _ = in_order.realize()
        for cfg in family_o.space.configurations():
            for site in ("s1", "s2"):
                assert family_r.density(site, cfg) == family_o.density(site, cfg)

    def test_pair_given_twice_in_either_order_rejected(self):
        text = ("sites s1 s2\nalphabet a b\nfree uniform\nkind potential\n"
                "pair s1 s2 a,a=1 a,b=1 b,a=1 b,b=1\n"
                "pair s2 s1 a,a=1 a,b=1 b,a=1 b,b=1\n")
        with pytest.raises(ModelFileError, match=r":6: duplicate pair line"):
            parse_model_text(text)

    def test_rule_with_undeclared_tail_rejected(self):
        text = ("sites a b\nalphabet x y\nfree uniform\nkind tail_rule\n"
                "rule default * x=1 y=1\nrule typo * x=5 y=0\n")
        with pytest.raises(ModelFileError, match=r":6: undeclared tail class 'typo'"):
            parse_model_text(text)

    def test_entry_with_undeclared_tail_rejected(self):
        text = ("sites a\nalphabet x y\ntails open\nfree uniform\nkind table\n"
                "entry a x open 1\nentry a y open 1\nentry a y default 1\n")
        with pytest.raises(ModelFileError, match=r":8: undeclared tail class 'default'"):
            parse_model_text(text)

    def test_tails_may_follow_the_lines_that_use_them(self):
        text = ("sites a\nalphabet x\nfree uniform\nkind tail_rule\n"
                "rule open a x=1\ntails open\n")
        assert parse_model_text(text).tails == ("open",)

    def test_sweep_must_be_permutation(self):
        text = ("sites a b\nalphabet x\nfree uniform\nkind tail_rule\n"
                "rule default * x=1\nsweep a a\n")
        with pytest.raises(ModelFileError, match="sweep must list every site"):
            parse_model_text(text)

    def test_options_parsed(self):
        text = ("sites a\nalphabet x\nfree uniform\nkind tail_rule\n"
                "rule default a x=1\nseed 99\ntrials 3\npermutations 6\n"
                "float_tolerance 1/100\n")
        model = parse_model_text(text)
        assert (model.seed, model.trials, model.permutations) == (99, 3, 6)
        assert model.float_tolerance == Fraction(1, 100)

    @pytest.mark.parametrize("first, again", [
        ("name one", "name two"), ("sites a", "sites a"), ("dimension 1", "dimension 2"),
        ("alphabet x", "alphabet x"), ("tails default", "tails z"),
        ("kind tail_rule", "kind tail_rule"), ("sweep a", "sweep a"),
        ("permutations 2", "permutations 3"), ("trials 2", "trials 3"),
        ("seed 3", "seed 4"), ("float_tolerance 1/10", "float_tolerance 1/100"),
    ])
    def test_repeated_single_valued_directive_rejected_with_location(
            self, first, again, tmp_path, capsys):
        directive = first.split()[0]
        lines = ["sites a", "alphabet x", "tails default", "free uniform",
                 "kind tail_rule", "rule default a x=1"]
        given = [line.split()[0] for line in lines]
        if directive in given:
            lines[given.index(directive)] = first
        else:
            lines.append(first)
        text = "\n".join([*lines, again]) + "\n"
        at, last = lines.index(first) + 1, len(lines) + 1
        with pytest.raises(ModelFileError, match=(
                rf"^bad\.model:{last}: duplicate '{directive}' directive "
                rf"\(first given on line {at}\)$")):
            parse_model_text(text, path="bad.model")
        path = tmp_path / "bad.model"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert f"bad.model:{last}: duplicate '{directive}'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, what", [
        ("tails x x", "tail label 'x'"), ("alphabet y x y", "alphabet symbol 'y'"),
        ("sites b a b", "site label 'b'"),
    ])
    def test_duplicate_labels_rejected_at_their_line(self, line, what, tmp_path, capsys):
        directive = line.split()[0]
        lines = [entry for entry in ("sites a", "alphabet x", "free uniform",
                                     "kind tail_rule", "rule x a x=1 y=1")
                 if entry.split()[0] != directive]
        text = "\n".join([*lines[:1], line, *lines[1:]]) + "\n"
        with pytest.raises(ModelFileError, match=rf"^bad\.model:2: duplicate {what}$"):
            parse_model_text(text, path="bad.model")
        path = tmp_path / "bad.model"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"bad.model:2: duplicate {what}" in err and "invalid model" not in err

    @pytest.mark.parametrize("line, at, message", [
        ("sites a b a+b", 2, "site label 'a+b' holds the output separator '+'"),
        ("sites a b,c", 2, "site label 'b,c' holds the output separator ','"),
        ("sites a|b b", 2, "site label 'a|b' holds the output separator '|'"),
        ("sites a b->a", 2, "site label 'b->a' holds the output separator '->'"),
        ("sites a * b", 2, "site label '*' is the rule wildcard"),
        ("alphabet x,y", 3, "alphabet symbol 'x,y' holds the output separator ','"),
        ("alphabet x=y z", 3, "alphabet symbol 'x=y' holds the output separator '='"),
    ], ids=["plus", "comma", "bar", "arrow", "wildcard", "symbol_comma", "symbol_equals"])
    def test_labels_holding_an_output_separator_rejected_at_their_line(
            self, line, at, message, tmp_path, capsys):
        """A site label joined with '+', ',', '|' or '->' in the outputs,
        or the rule wildcard, and a symbol joined with ',' or '=', would
        merge two keys of a `.rho` table or a report: each is refused at
        its declaring line."""
        lines = ["name m", "sites a b", "alphabet x y", "free uniform", "kind potential",
                 "field a x=1 y=2", "field b x=1 y=1"]
        lines[at - 1] = line
        text = "\n".join(lines) + "\n"
        with pytest.raises(ModelFileError, match=rf"^bad\.model:{at}: {re.escape(message)}$"):
            parse_model_text(text, path="bad.model")
        path = tmp_path / "bad.model"
        path.write_text(text, encoding="utf-8")
        for command in ("check", "construct", "verify"):
            assert main([command, str(path)]) == 2
            assert f"bad.model:{at}: " in capsys.readouterr().err
        assert not list(tmp_path.glob("*.rho"))

    @pytest.mark.parametrize("line", [
        "trials \u00b2", "permutations \u00b9\u00b2", "seed --5",
        "seed \u0661", "dimension \u00b2", "dimension -1", "dimension +1",
    ])
    def test_integer_directive_rejected_with_location(self, line, tmp_path):
        text = ("sites a\nalphabet x\nfree uniform\nkind tail_rule\n"
                f"rule default a x=1\n{line}\n")
        with pytest.raises(ModelFileError, match=r"bad\.model:6: .*integer"):
            parse_model_text(text, path="bad.model")
        path = tmp_path / "bad.model"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2

    def test_signed_seed_and_unsigned_dimension_parse(self):
        text = ("sites a\nalphabet x\nfree uniform\nkind tail_rule\n"
                "rule default a x=1\nseed -5\ndimension 2\n")
        model = parse_model_text(text)
        assert (model.seed, model.dimension) == (-5, 2)

    def test_realize_all_kinds(self):
        for path, kind in [(EXAMPLE1, "tail_rule"), (BROKEN_H2, "table"),
                           (EXTRACTED, "joint"), (POTENTIAL, "potential")]:
            model = parse_model_file(path)
            assert model.kind == kind
            space, family, joint = model.realize()
            assert space.universe.sites == model.sites
            assert (joint is not None) == (kind == "joint")
            cfg = next(iter(space.configurations()))
            family.density(model.sites[0], cfg)

    def test_realize_incomplete_joint_raises(self):
        text = ("sites a b\nalphabet x y\nfree uniform\nkind joint\n"
                "joint x x 1\n")
        model = parse_model_text(text)
        with pytest.raises(DomainError, match="misses assignment"):
            model.realize()

    def test_tail_rule_star_yields_per_site_rules(self):
        model = parse_model_file(EXAMPLE1)
        _, family, _ = model.realize()
        space = family.space
        for cfg in space.configurations():
            for site in space.universe:
                expected = 2 if (
                    (cfg.tail == "many-high" and cfg.symbol(site) == "L")
                    or (cfg.tail == "few-high" and cfg.symbol(site) == "H")
                ) else 0
                assert family.density(site, cfg) == expected


class TestCheckCommand:
    def test_example1_gate_passes_despite_bounded_failure(self, capsys):
        assert main(["check", EXAMPLE1]) == 0
        out = capsys.readouterr().out
        assert "PASS very_weak_positivity" in out
        assert "PASS order_consistency" in out
        assert "FAIL bounded_positivity  [informational]" in out
        assert "summary: PASS (exit 0)" in out

    def test_independent_all_pass(self, capsys):
        assert main(["check", INDEPENDENT]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_broken_h2_fails_with_witness(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["check", BROKEN_H2, "--json", str(report_path)]) == 1
        report = json.loads(report_path.read_text())
        suites = {s["name"]: s for s in report["suites"]}
        assert suites["very_weak_positivity"]["passed"] is True
        assert suites["order_consistency"]["passed"] is False
        witness = suites["order_consistency"]["witnesses"][0]
        assert witness["lhs"] != witness["rhs"]
        assert report["gate"] == ["very_weak_positivity", "order_consistency"]
        assert report["summary"] == {"exit_code": 1, "passed": False}

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "/nonexistent/x.model"]) == 2
        assert "cannot read model file" in capsys.readouterr().err

    def test_parse_error_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("sites a\nalphabet x\nfree uniform\nkind joint\njoint x 1.5\n")
        assert main(["check", str(bad)]) == 2
        assert f"{bad}:5:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["rule typo * a=5 b=0",
                                      "entry s2 b b bogus 7"])
    def test_undeclared_tail_is_usage_error(self, capsys, tmp_path, line):
        kind = "tail_rule" if line.startswith("rule") else "table"
        body = (["rule default * a=1 b=1"] if kind == "tail_rule" else
                [f"entry {s} {x} {y} default 1"
                 for s in ("s1", "s2") for x in "ab" for y in "ab"])
        model = tmp_path / "typo.model"
        model.write_text("\n".join(
            ["sites s1 s2", "alphabet a b", "free uniform", f"kind {kind}",
             *body, line]) + "\n")
        assert main(["check", str(model)]) == 2
        err = capsys.readouterr().err
        assert f"{model}:{len(body) + 5}: undeclared tail class" in err

    def test_budget_refusal(self, capsys):
        assert main(["check", EXAMPLE1, "--budget", "100"]) == 2
        err = capsys.readouterr().err
        assert "512" in err and "budget" in err

    def test_report_schema_is_versioned_and_hashed(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["check", INDEPENDENT, "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["tool"] == "specforge"
        digest = hashlib.sha256(Path(INDEPENDENT).read_bytes()).hexdigest()
        assert report["model"]["sha256"] == digest
        assert [s["name"] for s in report["suites"]] == [
            "very_weak_positivity", "order_consistency",
            "pointwise_compatibility", "uniqueness_condition",
            "bounded_positivity",
        ]


class TestConstructCommand:
    def test_example1_tables_match_closed_form(self, capsys, tmp_path):
        out = tmp_path / "ex1.rho"
        assert main(["construct", EXAMPLE1, "-o", str(out)]) == 0
        records = read_rho(out)
        sites = ("s1", "s2", "s3", "s4")
        # 15 nonempty regions x 16 assignments x 2 tails
        assert len(records) == 15 * 16 * 2
        pinned = {"many-high": "L", "few-high": "H"}
        for region, values, tail, value in records:
            members = region.split("+")
            on_region = [values[sites.index(s)] for s in members]
            expected = (Fraction(2) ** len(members)
                        if all(v == pinned[tail] for v in on_region)
                        else Fraction(0))
            assert value == expected, (region, values, tail)

    def test_rho_file_sorted_and_headed(self, capsys, tmp_path):
        out = tmp_path / "ex1.rho"
        main(["construct", EXAMPLE1, "-o", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "# specforge rho table v1"
        body = [line for line in lines if not line.startswith("#")]
        assert body == sorted(body)

    def test_gate_failure_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "bad.rho"
        assert main(["construct", BROKEN_H2, "-o", str(out)]) == 1
        assert not out.exists()
        assert "construction not attempted" in capsys.readouterr().out

    def test_extracted_tables_match_joint_oracle(self, capsys, tmp_path):
        out = tmp_path / "extracted.rho"
        assert main(["construct", EXTRACTED, "-o", str(out)]) == 0
        records = read_rho(out)
        sites = ("s1", "s2", "s3")
        assert len(records) == 7 * 8  # nonempty regions x assignments
        seen = 0
        for region, values, tail, value in records:
            members = region.split("+")
            indices = [sites.index(s) for s in members]
            section = Fraction(0)
            for fill_values, w in EXTRACTED_JOINT.items():
                if all(fill_values[i] == values[i]
                       for i in range(3) if i not in indices):
                    section += w
            free = Fraction(1, 2) ** len(members)
            assert value == EXTRACTED_JOINT[tuple(values)] / (section * free)
            seen += 1
        assert seen == 56

    def test_default_out_path_from_model_name(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["construct", INDEPENDENT]) == 0
        assert (tmp_path / "independent.rho").exists()

    def test_independent_tables_all_one(self, capsys, tmp_path):
        out = tmp_path / "ind.rho"
        main(["construct", INDEPENDENT, "-o", str(out)])
        assert all(value == 1 for _, _, _, value in read_rho(out))


class TestVerifyCommand:
    def test_extracted_all_suites_pass(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["verify", EXTRACTED, "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        names = [s["name"] for s in report["suites"]]
        assert names == [
            "specification_axioms", "ratio_bounds", "order_independence",
            "uniqueness_probe", "good_support",
            "measure_consistency[kernel:default]",
            "support_mass[kernel:default]", "measure_perturbations",
            "exchange_identity", "quasilocality", "roundtrip_reconstruction",
        ]
        assert all(s["passed"] for s in report["suites"])
        gated = set(report["gate"])
        assert "ratio_bounds" not in gated and "quasilocality" not in gated

    def test_selected_flags_run_only_those(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["verify", INDEPENDENT, "--axioms", "--exchange",
                     "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert [s["name"] for s in report["suites"]] == [
            "specification_axioms", "ratio_bounds", "exchange_identity"]

    def test_roundtrip_needs_joint_kind(self, capsys):
        assert main(["verify", INDEPENDENT, "--roundtrip"]) == 2
        assert "kind joint" in capsys.readouterr().err

    def test_unconstructible_model_fails_with_construction_suite(
            self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["verify", BROKEN_H2, "--json", str(report_path)]) == 1
        report = json.loads(report_path.read_text())
        assert [s["name"] for s in report["suites"]] == ["construction"]
        assert report["suites"][0]["witnesses"]

    def test_perturbation_battery_details(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["verify", EXTRACTED, "--measures",
                     "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        battery = {s["name"]: s for s in report["suites"]}
        data = battery["measure_perturbations"]["data"]
        assert data["performed"] == data["detected"] == 12
        assert data["skipped"] == 0
        consistency = battery["measure_consistency[kernel:default]"]["data"]
        assert consistency["in_support_class"] is True
        assert consistency["singleton_consistent"] is True
        assert consistency["fully_consistent"] is True
        assert consistency["equivalence_holds"] is True

    def test_unnormalized_free_skips_measures_by_default(
            self, capsys, tmp_path):
        model = tmp_path / "unnorm.model"
        model.write_text(
            "sites s1 s2\nalphabet a b\nfree s1 a=1 b=1\nfree s2 a=1 b=1\n"
            "kind tail_rule\nrule default * a=1 b=1\n")
        report_path = tmp_path / "report.json"
        assert main(["verify", str(model), "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        names = {s["name"] for s in report["suites"]}
        assert not any(name.startswith("measure") for name in names)
        assert any("not normalized" in note for note in report["notes"])
        assert main(["verify", str(model), "--measures"]) == 2

    def test_zero_free_weight_skips_uniqueness_by_default(
            self, capsys, tmp_path):
        model = tmp_path / "zerofree.model"
        model.write_text(
            "sites s1 s2\nalphabet a b\nfree s1 a=1 b=0\nfree s2 a=1 b=0\n"
            "kind tail_rule\nrule default * a=1 b=0\n")
        assert main(["verify", str(model)]) == 0
        assert "uniqueness probe skipped" in capsys.readouterr().out
        assert main(["verify", str(model), "--uniqueness"]) == 1

    def test_example1_axioms_and_orders_pass(self, capsys):
        assert main(["verify", EXAMPLE1, "--axioms", "--orders"]) == 0


class TestDeterminismAndThreads:
    def test_reports_byte_identical_across_runs(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["verify", EXTRACTED, "--json", str(first)])
        main(["verify", EXTRACTED, "--json", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_rho_files_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "a.rho"
        second = tmp_path / "b.rho"
        main(["construct", EXTRACTED, "-o", str(first)])
        main(["construct", EXTRACTED, "-o", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestReplayCommand:
    def test_reproduced_witness_exits_one(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        main(["check", EXAMPLE1, "--json", str(report_path)])
        code = main(["replay", str(report_path),
                     "--suite", "bounded_positivity", "--witness", "3"])
        assert code == 1
        assert "reproduced" in capsys.readouterr().out

    def test_gone_witness_exits_zero(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        main(["check", BROKEN_H2, "--json", str(report_path)])
        report = json.loads(report_path.read_text())
        for suite in report["suites"]:
            if suite["name"] == "order_consistency":
                suite["witnesses"][0]["replay"]["tail"] = "never-was"
        report_path.write_text(json.dumps(report))
        code = main(["replay", str(report_path),
                     "--suite", "order_consistency", "--witness", "0"])
        assert code == 0
        assert "no longer occurs" in capsys.readouterr().out

    def test_changed_model_is_refused(self, capsys, tmp_path):
        model = tmp_path / "copy.model"
        model.write_text(Path(BROKEN_H2).read_text(encoding="utf-8"))
        report_path = tmp_path / "report.json"
        main(["check", str(model), "--json", str(report_path)])
        model.write_text(model.read_text() + "\n# edited\n")
        code = main(["replay", str(report_path),
                     "--suite", "order_consistency"])
        assert code == 2
        assert "sha256 differs" in capsys.readouterr().err

    def test_unknown_suite_and_bad_index(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        main(["check", EXAMPLE1, "--json", str(report_path)])
        assert main(["replay", str(report_path), "--suite", "nope"]) == 2
        assert main(["replay", str(report_path),
                     "--suite", "very_weak_positivity"]) == 2

    def test_report_that_is_not_an_object_is_refused(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        report_path.write_text("[]")
        assert main(["replay", str(report_path), "--suite", "x"]) == 2
        err = capsys.readouterr().err
        assert "does not fit the schema" in err and str(report_path) in err

    @pytest.mark.parametrize("damage", ["unnamed suite", "model list"])
    def test_report_off_the_schema_is_refused(self, damage, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        main(["check", EXAMPLE1, "--json", str(report_path)])
        report = json.loads(report_path.read_text())
        if damage == "unnamed suite":
            del report["suites"][0]["name"]
        else:
            report["model"] = []
        report_path.write_text(json.dumps(report))
        assert main(["replay", str(report_path),
                     "--suite", "bounded_positivity"]) == 2
        err = capsys.readouterr().err
        assert "does not fit the schema" in err and str(report_path) in err

    def test_replay_refuses_json(self, capsys, tmp_path):
        # replay writes no report, so it must not accept a path for one
        report_path = tmp_path / "report.json"
        main(["check", BROKEN_H2, "--json", str(report_path)])
        out_path = tmp_path / "out.json"
        assert main(["replay", str(report_path), "--suite", "order_consistency",
                     "--json", str(out_path)]) == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err
        assert not out_path.exists()

    def test_construction_witness_replays(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["verify", BROKEN_H2, "--json", str(report_path)]) == 1
        code = main(["replay", str(report_path), "--suite", "construction"])
        assert code == 1
        assert "reproduced" in capsys.readouterr().out

    def test_verify_suite_witness_replays(self, capsys, tmp_path):
        model = tmp_path / "zerofree.model"
        model.write_text(
            "sites s1 s2\nalphabet a b\nfree s1 a=1 b=0\nfree s2 a=1 b=0\n"
            "kind tail_rule\nrule default * a=1 b=0\n")
        report_path = tmp_path / "report.json"
        assert main(["verify", str(model), "--uniqueness",
                     "--json", str(report_path)]) == 1
        code = main(["replay", str(report_path),
                     "--suite", "uniqueness_probe", "--witness", "0"])
        assert code == 1


class TestTextRendering:
    def test_failure_shows_exact_and_approximate(self, capsys):
        main(["check", BROKEN_H2])
        out = capsys.readouterr().out
        assert "FAIL order_consistency" in out
        assert "lhs 4/3" in out
        assert "~1.33333" in out
        assert "summary: FAIL (exit 1)" in out

    def test_informational_suites_marked(self, capsys):
        main(["check", EXAMPLE1])
        out = capsys.readouterr().out
        assert "bounded_positivity  [informational]" in out


class TestArgumentsCheckedFirst:
    """Unusable output paths and budgets are refused before any work."""

    @pytest.fixture
    def suites_run(self, monkeypatch):
        cli_main = importlib.import_module("specforge.cli.main")
        ran = []
        honest = cli_main.run_jobs

        def recording(jobs, report):
            ran.extend(job.name for job in jobs)
            honest(jobs, report)

        monkeypatch.setattr(cli_main, "run_jobs", recording)
        return ran

    @pytest.mark.parametrize("command", ["check", "construct", "verify"])
    def test_json_under_a_missing_directory(self, command, capsys, tmp_path,
                                            suites_run):
        target = tmp_path / "missing" / "r.json"
        assert main([command, EXAMPLE1, "--json", str(target)]) == 2
        err = capsys.readouterr().err
        assert "--json" in err and str(target) in err
        assert suites_run == []

    def test_json_under_a_file(self, capsys, tmp_path, suites_run):
        blocker = tmp_path / "plain"
        blocker.write_text("")
        assert main(["verify", INDEPENDENT, "--json",
                     str(blocker / "r.json")]) == 2
        assert "not a directory" in capsys.readouterr().err
        assert suites_run == []

    def test_out_under_a_missing_directory(self, capsys, tmp_path, suites_run):
        target = tmp_path / "missing" / "t.rho"
        assert main(["construct", EXAMPLE1, "-o", str(target)]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and str(target) in err
        assert suites_run == []
        assert not target.parent.exists()

    def test_paths_in_the_working_directory_are_accepted(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["construct", EXAMPLE1, "-o", "t.rho",
                     "--json", "r.json"]) == 0
        assert (tmp_path / "t.rho").exists() and (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_non_positive_budget_is_a_usage_error(self, budget, capsys,
                                                  suites_run):
        assert main(["check", EXAMPLE1, "--budget", budget]) == 2
        err = capsys.readouterr().err
        assert "--budget" in err and "positive" in err
        assert "over the budget" not in err
        assert suites_run == []
