"""Fuzzed model text: every command answers every file with an exit code.

``hypothesis`` draws a valid model of each kind and edits a few of its
lines: it deletes lines, repeats them, and inserts lines of the other
models or directives over a small pool of tokens.  So the draws hold
repeated and duplicated directives and labels, undeclared sites, symbols
and tails, malformed rationals and integers, and zero and negative
weights, and the unedited ones parse and reach the gates.  Whatever the
text, ``main(["check", path])`` must return 0, 1 or 2 and print no
traceback; every rejection names its cause on stderr.  ``construct``
(writing its table) and ``verify`` (every suite) must do the same on
fewer draws, since they build and verify every file that passes the
gates.  Draws are derandomised and not stored, so every run tries the
same files.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from specforge.cli.main import main

HEAD = ("sites s1 s2", "alphabet a b", "free uniform")
MODELS = (
    (*HEAD, "kind table", "entry s1 a a default 1", "entry s1 b a default 1",
     "entry s1 a b default 1", "entry s1 b b default 1", "entry s2 a a default 1",
     "entry s2 b a default 2", "entry s2 a b default 2", "entry s2 b b default 1"),
    ("sites s1 s2 s3", "alphabet a b", "tails default t1", "free uniform",
     "kind tail_rule", "rule default * a=1 b=2", "rule t1 s1 a=1 b=0", "rule t1 * a=2 b=1"),
    ("name chain", "sites s1 s2 s3", "dimension 1", "alphabet a b c", "free uniform",
     "kind potential", "field s1 a=2 b=1 c=1", "seed 3", "trials 2", "permutations 2",
     "pair s1 s2 a,a=2 a,b=1 a,c=1 b,a=1 b,b=2 b,c=1 c,a=1 c,b=1 c,c=3"),
    (*HEAD, "kind joint", "joint a a 1", "joint a b 2", "joint b a 3", "joint b b 4",
     "sweep s2 s1", "float_tolerance 1/100"),
)
DIRECTIVES = ("name", "sites", "dimension", "alphabet", "tails", "free", "kind", "entry",
              "rule", "field", "pair", "joint", "sweep", "permutations", "trials", "seed",
              "float_tolerance", "bogus")
TOKENS = ("s1", "s2", "s3", "a", "b", "c", "default", "t1", "*", "uniform", "table",
          "potential", "0", "1", "2", "-1", "1/2", "1/0", "0.5", "a=1", "b=0", "a=0",
          "c=2", "a=-1", "a=1/0", "=1", "a,a=2", "a,b=1", "b,a=0", "b,b=1", "a,c=1")
DRAWN_LINE = st.builds(lambda directive, args: " ".join((directive, *args)),
                       st.sampled_from(DIRECTIVES),
                       st.lists(st.sampled_from(TOKENS), max_size=5))


@st.composite
def model_texts(draw) -> str:
    """One of ``MODELS`` with up to four edits: a line deleted, a line of
    the model repeated, or a line of another model or a drawn line
    inserted."""
    lines = list(draw(st.sampled_from(MODELS)))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        edit = draw(st.sampled_from(("delete", "repeat", "insert")))
        # counted from the end, so that small draws edit after the declarations
        at = len(lines) - draw(st.integers(min_value=0, max_value=len(lines)))
        if edit == "delete" and at > 0:
            del lines[at - 1]
        elif edit == "repeat" and lines:
            lines.insert(at, draw(st.sampled_from(lines)))
        else:
            other = st.sampled_from([line for model in MODELS for line in model])
            lines.insert(at, draw(other | DRAWN_LINE))
    return "\n".join(lines) + "\n"


def answers(argv: list[str], text: str) -> None:
    """``main(argv)`` returns 0, 1 or 2, prints no traceback, and a 2
    names its cause."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (code, text)
    assert "Traceback" not in out.getvalue() + err.getvalue(), text
    if code == 2:
        assert err.getvalue().startswith("specforge: "), text


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model_texts())
def test_check_answers_any_model_text_with_an_exit_code(tmp_path, text):
    path = tmp_path / "fuzz.model"
    path.write_text(text, encoding="utf-8")
    answers(["check", str(path)], text)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model_texts())
def test_construct_answers_any_model_text_with_an_exit_code(tmp_path, text):
    path = tmp_path / "fuzz.model"
    path.write_text(text, encoding="utf-8")
    answers(["construct", str(path), "-o", str(tmp_path / "fuzz.rho")], text)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model_texts())
def test_verify_answers_any_model_text_with_an_exit_code(tmp_path, text):
    path = tmp_path / "fuzz.model"
    path.write_text(text, encoding="utf-8")
    answers(["verify", str(path)], text)
