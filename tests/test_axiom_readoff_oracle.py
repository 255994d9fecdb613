"""Order independence read off a passing axiom record, against its oracle.

When the reference family carries a passing record of axioms (b) and (c)
and every free weight is positive, ``check_order_independence`` reports
every sweep and block split passing in closed form and computes no
extension divisor (proof in its docstring).  Each family below first
runs ``check_specification_axioms``; the suite must then equal
``oracles.check_order_independence``, which rebuilds every sweep and
walks every split cell by cell, at witness caps 0, 1 and 25, call
``extension_divisor`` never, and record ``("block_splits",)``.
The oracle passes on every family whose record passes, the theorem's
conclusion checked on its premises.  A zero free weight, a call with no
record, a record patched to fail and a record held only by a family
built under another sweep each walk, and still equal the oracle.  A
read-off ``verify`` counts the sweep orders without listing them.
"""

from collections import Counter
from hashlib import sha256

import pytest

from specforge import constructor
from specforge.cli.main import main
from specforge.constructor import build_family, check_order_independence
from specforge.core import SpecforgeError
from specforge.verifier import _axiom_record, check_specification_axioms

import oracles
import zoo
from test_class_replay_oracle import BUILDING, FAMILIES

CAPS = (0, 1, 25)

# the zoo families of BUILDING that pass the gates, and draws with zeros
GATED = {
    **{name: FAMILIES[name] for name in BUILDING if not name.startswith("zero_table_")
       and name != "anchored_table_5"},
    "zero_table_15": lambda: zoo.random_zero_table_family(15),
    "zero_table_28": lambda: zoo.random_zero_table_family(28),
    **{f"hardcore_graph_{seed}": (lambda s=seed: zoo.random_hardcore_family(s))
       for seed in range(8)},
}
# the gated families with a zero free weight, which the read-off refuses
ZERO_FREE = ("lopsided_free", "zero_table_15")


@pytest.fixture
def divisors(monkeypatch) -> Counter:
    """Counts calls of ``constructor.extension_divisor``, per density family."""
    counts: Counter = Counter()
    honest = constructor.extension_divisor

    def counted(dens, theta, gamma, cfg):
        counts[id(dens)] += 1
        return honest(dens, theta, gamma, cfg)

    monkeypatch.setattr(constructor, "extension_divisor", counted)
    return counts


def outcomes(fam) -> list:
    """The suite's report as a dict at each cap, unchecked by any oracle
    run before it."""
    return [check_order_independence(fam, witness_cap=cap).as_dict() for cap in CAPS]


def assert_equals_oracle(fam, reports: list) -> None:
    for cap, report in zip(CAPS, reports):
        assert report == oracles.check_order_independence(fam, witness_cap=cap).as_dict(), cap


def test_gated_families_and_their_premises():
    assert {name for name in GATED if not GATED[name]().space.free.is_positive} == set(ZERO_FREE)
    for name in ("anchored_table_5", "zero_table_7", "zero_table_18"):
        with pytest.raises(SpecforgeError):
            build_family(FAMILIES[name](), checked=True)


@pytest.mark.parametrize("name", sorted(GATED))
def test_suite_after_the_axioms_equals_the_oracle(name, divisors):
    fam = GATED[name]()
    dens = build_family(fam, checked=True)
    assert check_specification_axioms(dens).passed
    divisors.clear()
    reports = outcomes(fam)
    walked = divisors[id(dens)]
    assert (walked == 0) == fam.space.free.is_positive, walked
    assert ("block_splits",) in dens._cache
    assert reports[0]["passed"]
    assert_equals_oracle(fam, reports)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_the_oracle_passes_wherever_the_record_passes(name):
    fam = FAMILIES[name]()
    try:
        dens = build_family(fam, checked=True)
    except SpecforgeError:
        return
    masses, _, failures = _axiom_record(dens)
    if not masses and not failures:
        assert oracles.check_order_independence(fam).passed


@pytest.mark.parametrize("name", ["hardcore_4", "potential_1", "hardcore_graph_0"])
def test_a_call_with_no_record_walks(name, divisors):
    fam = GATED[name]()
    dens = build_family(fam, checked=True)
    divisors.clear()
    reports = outcomes(fam)
    assert ("axiom_record",) not in dens._cache
    assert divisors[id(dens)] > 0 and ("block_splits",) in dens._cache
    assert_equals_oracle(fam, reports)


@pytest.mark.parametrize("part", ["masses", "failures"])
@pytest.mark.parametrize("name", ["hardcore_4", "example1", "hardcore_graph_7"])
def test_a_record_patched_to_fail_walks(name, part, divisors):
    fam = GATED[name]()
    dens = build_family(fam, checked=True)
    masses, pairs, failures = _axiom_record(dens)
    window = dens.space.universe.sites
    dens._cache[("axiom_record",)] = (
        ([(window, 0, (2, 1))], pairs, failures) if part == "masses"
        else (masses, pairs, {(window, ()): (0, 0)}))
    divisors.clear()
    reports = outcomes(fam)
    assert divisors[id(dens)] > 0
    assert_equals_oracle(fam, reports)


@pytest.mark.parametrize("name", ["hardcore_4", "potential_1", "hardcore_graph_0"])
def test_the_record_of_another_sweep_is_not_read(name, divisors):
    fam = GATED[name]()
    swept = build_family(fam, sweep=fam.space.universe.sites[::-1])
    assert check_specification_axioms(swept).passed
    dens = build_family(fam)
    assert swept is not dens and ("axiom_record",) not in dens._cache
    divisors.clear()
    reports = outcomes(fam)
    assert divisors[id(dens)] > 0
    assert ("block_splits",) in dens._cache and ("block_splits",) in swept._cache
    assert_equals_oracle(fam, reports)


CHAIN4 = """\
name chain4
sites s1 s2 s3 s4
alphabet a b
free uniform
kind potential
field s2 a=3/2 b=1
pair s1 s2 a,a=2 a,b=1 b,a=1 b,b=2
pair s2 s3 a,a=2 a,b=1 b,a=1 b,b=2
pair s3 s4 a,a=2 a,b=1 b,a=1 b,b=2
"""

# SHA-256 of stdout and of the ``verify --json`` report of CHAIN4 at
# ``permutations`` 4! - 1, 4! and 4! + 1, recorded while the read-off
# still listed every sweep order before counting them
READ_OFF_VERIFY = {
    23: ("d98045133d561fdbf32d5d19eeedfaa20773c52389ade38fa20c830c0b75bac3",
         "2b5fe6dac2393fca46ff426dbaeae1c9415c1eec5fadf7e1edfe192254863acc"),
    24: ("c23f752f6df558f246fa430345a2a0abab9ea65280168713464f2dcb3eea3b91",
         "c72bfb2da3a7325e01ef9275b9d81f279e631bb45bc156b65b27984501b0f894"),
    25: ("c23f752f6df558f246fa430345a2a0abab9ea65280168713464f2dcb3eea3b91",
         "d79ce3a6608921ff81c35295014098340862af233afeae297a2f6b9b970f3f3f"),
}


@pytest.mark.parametrize("cap", sorted(READ_OFF_VERIFY))
def test_a_read_off_verify_lists_no_sweep_order(cap, tmp_path, monkeypatch, capsys):
    """``verify`` reads order independence off the axiom record, so it
    counts the sweep orders in closed form: ``_sweep_orders`` patched to
    raise is never called, and the outputs keep their bytes below, at
    and above a cap of n!."""
    def listed(*args):
        raise AssertionError("the read-off listed the sweep orders")

    monkeypatch.setattr(constructor, "_sweep_orders", listed)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain4.model").write_text(CHAIN4 + f"permutations {cap}\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "chain4.model", "--json", "report.json"]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    report = (tmp_path / "report.json").read_bytes()
    assert (sha256(stdout).hexdigest(), sha256(report).hexdigest()) == READ_OFF_VERIFY[cap]
