"""The report writer against the stdlib encoder it replaces.

``report.encode_json`` writes every JSON byte the command line prints or
saves.  Indented, it must equal ``json.dumps(value, indent=2,
sort_keys=True)``; compact, ``json.dumps(value, sort_keys=True)``.  Both
are held to the stdlib on ``hypothesis``-drawn values (nested dicts,
lists and tuples, empty containers at depth, strings with non-ASCII,
control, quote and backslash characters and lone surrogates, big and
negative ints, bools, None, floats with -0.0, NaN and the infinities,
and keys of type str, int, float, bool and None) and on every report
that ``check``, ``construct`` and ``verify`` write for the bundled
models, ``CHAIN5`` and the zoo families, replay lines included.  What
the stdlib refuses with `TypeError`, the writer refuses too.
"""

import importlib
import json
import shutil
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from specforge.cli.modelfile import ModelFile
from specforge.cli.report import encode_json

import zoo
from test_bundled_golden import CHAIN5, MODELS
from test_class_replay_oracle import ZOO

cli_main = importlib.import_module("specforge.cli.main")


def assert_both_layouts(value) -> None:
    assert encode_json(value, indent=True) == json.dumps(value, indent=2, sort_keys=True)
    assert encode_json(value) == json.dumps(value, sort_keys=True)


# ---------------------------------------------------------------------------
# drawn values

TRICKY = "\ud800\udfff\"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80é€ 𐏿\U0001f600"
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(TRICKY)), max_size=12)
NUMBERS = st.one_of(st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
                    st.floats(), st.sampled_from([0.0, -0.0, float("nan"),
                                                  float("inf"), float("-inf")]))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, TEXT)


def containers(children):
    # one kind of key per dict, str, number or None: the stdlib sorts the
    # keys, so a mix raises (test_what_the_stdlib_refuses_the_writer_refuses)
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        st.dictionaries(st.one_of(st.booleans(), NUMBERS), children, max_size=5),
        st.dictionaries(st.none(), children, max_size=1),
    )


VALUES = st.recursive(SCALARS, containers, max_leaves=30)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(VALUES)
@example({"a": [[], {}, ([{}],)], "b": {"c": {"d": []}}})
@example({1: "int", 2.5: "float", True: "bool", -0.0: "zero"})
@example({None: [float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]})
@example([2 ** 100, -(2 ** 100), True, False, None, TRICKY])
@example(())
def test_drawn_values_equal_the_stdlib(value):
    assert_both_layouts(value)


@pytest.mark.parametrize("value", [
    Fraction(1, 3),
    {"a": [Fraction(1, 3)]},
    {1, 2},
    [{"a": frozenset()}],
    {1: 0, "1": 0},
    {None: 0, 0: 0},
    {"a": {2.5: 0, "b": 0}},
    {Fraction(1, 2): 0},
    {(1, 2): 0},
], ids=["fraction", "nested_fraction", "set", "nested_frozenset", "int_and_str_keys",
        "none_and_int_keys", "nested_float_and_str_keys", "fraction_key", "tuple_key"])
@pytest.mark.parametrize("indent", [False, True])
def test_what_the_stdlib_refuses_the_writer_refuses(value, indent):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2 if indent else None)
    with pytest.raises(TypeError):
        encode_json(value, indent=indent)


# ---------------------------------------------------------------------------
# the reports the commands write

@pytest.fixture
def written(monkeypatch):
    """Every report dict the commands render, as they render it."""
    reports = []
    honest = cli_main.render_json

    def recording(report):
        text = honest(report)
        reports.append((report.as_dict(), text))
        return text

    monkeypatch.setattr(cli_main, "render_json", recording)
    return reports


def assert_reports_equal_the_stdlib(reports) -> None:
    assert reports
    for as_dict, text in reports:
        assert text == json.dumps(as_dict, indent=2, sort_keys=True) + "\n"
        assert_both_layouts(as_dict)
        for suite in as_dict["suites"]:
            for witness in suite["witnesses"]:
                assert_both_layouts(witness["replay"])


def run_all_commands(model_file: str, tmp_path, capsys) -> None:
    for argv in (["check", model_file, "--json", "check.json"],
                 ["construct", model_file, "-o", "out.rho", "--json", "construct.json"],
                 ["verify", model_file, "--json", "verify.json"]):
        assert cli_main.main(argv) in (0, 1)
    capsys.readouterr()


@pytest.mark.parametrize("model", MODELS)
def test_bundled_reports_equal_the_stdlib(model, written, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copyfile(str(resources.files("specforge") / "data" / f"{model}.model"),
                    tmp_path / f"{model}.model")
    run_all_commands(f"{model}.model", tmp_path, capsys)
    assert len(written) == 3
    assert_reports_equal_the_stdlib(written)


def test_chain5_reports_equal_the_stdlib(written, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain5.model").write_text(CHAIN5, encoding="utf-8")
    run_all_commands("chain5.model", tmp_path, capsys)
    assert len(written) == 3
    assert_reports_equal_the_stdlib(written)


FAMILIES = {**ZOO,
            "zero_table_15": lambda: zoo.random_zero_table_family(15),
            "zero_table_28": lambda: zoo.random_zero_table_family(28),
            "last_pair_broken_4": lambda: zoo.last_pair_broken_family(4),
            "unnormalized_free": zoo.unnormalized_free_family}


def zoo_model(name: str) -> ModelFile:
    """A model whose ``realize`` gives the zoo family ``name``."""
    family = FAMILIES[name]()
    space = family.space
    model = ModelFile(path=f"{name}.model", name=name, sites=tuple(space.universe.sites),
                      dimension=1, alphabet=tuple(space.alphabet),
                      tails=tuple(space.tail_classes), free_uniform=True,
                      free_weights={}, kind="table")
    model.sha256 = "0" * 64
    model.realize = lambda: (space, family, None)
    return model


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_zoo_reports_equal_the_stdlib(name, written, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_main, "load_model", lambda path, budget: zoo_model(name))
    (tmp_path / f"{name}.model").write_text("", encoding="utf-8")
    run_all_commands(f"{name}.model", tmp_path, capsys)
    assert len(written) == 3
    assert_reports_equal_the_stdlib(written)
