"""Model definition files: a line-oriented exact-rational schema.

A model file declares the window (sites, alphabet, tail classes, free
weights) and exactly one singleton definition (a table, a tail rule, a
pairwise potential, or a joint weight for extraction), plus options that
steer the command-line pipelines.  All numeric fields are rational
literals (``n`` or ``n/d``); floating-point syntax is rejected so that
input files carry the same exactness contract as the library.

Grammar (one directive per line, ``#`` starts a comment):

    name <label>                          optional display name
    sites <label> ...                     window sites, in order
    dimension <int>                       optional geometry hint
    alphabet <symbol> ...                 at least one symbol
    tails <label> ...                     optional, default "default"
    free uniform                          uniform free weights, or
    free <site> <sym>=<q> ...             one line per site
    kind table | tail_rule | potential | joint
    entry <site> <own> <ctx...> <tail> <q>    kind table
    rule <tail> <site|*> <sym>=<q> ...        kind tail_rule
    field <site> <sym>=<q> ...                kind potential
    pair <site> <site> <sym>,<sym>=<q> ...    kind potential
    joint <sym> ... <q>                       kind joint
    sweep <site> ...                      optional construction order
    permutations <int>                    order-independence budget (24)
    trials <int>                          uniqueness probe budget (12)
    seed <int>                            probe seed (20260819)
    float_tolerance <q>                   display threshold (1/10^9)

``entry`` context symbols are the other sites' values in declared site
order, and the tail of an ``entry`` or ``rule`` line must be a declared
tail class.  A ``pair`` line's symbol pairs follow the order its two sites
are written in; the pair is stored in universe order, so ``pair s2 s1
a,b=q`` is the same factor as ``pair s1 s2 b,a=q``, and each unordered
pair may be given once.  Every directive but ``free``, ``entry``,
``rule``, ``field``, ``pair`` and ``joint`` may be given once, and the
labels of ``sites``, ``alphabet`` and ``tails`` must be distinct; a
repeat is rejected at the line that repeats it.  A site label may not
hold ``+``, ``,``, ``|`` or ``->``, nor be ``*``, and a symbol may not
hold ``,`` or ``=``: the outputs and the grammar join labels with them,
so such a label is rejected at its line.
"""

from __future__ import annotations

import re
from fractions import Fraction

# the interpreter's builtin SHA-256, not hashlib's, which loads OpenSSL
try:
    from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:  # a Python built without the builtin hashes
        from hashlib import sha256

from ..core import Alphabet, DomainError, FreeMeasure, Space, SpecforgeError, Universe, parse_rational
from ..models import (
    PotentialModel,
    SingletonFamily,
    TableModel,
    TailRuleModel,
    extract_singletons,
    normalize,
)

__all__ = ["ModelFile", "ModelFileError", "parse_model_file", "parse_model_text"]

KINDS = ("table", "tail_rule", "potential", "joint")
# directives a model may give at most once
SINGLE_VALUED = ("name", "sites", "dimension", "alphabet", "tails", "kind", "sweep",
                 "permutations", "trials", "seed", "float_tolerance")

# what joins labels in the outputs: regions ("s1+s2"), mass keys
# ("s1|s2,s3"), bound keys ("s1->s2"), assignments and symbol pairs
# ("a,b") and weights ("a=1"); a label holding one would merge keys
SITE_SEPARATORS = ("+", ",", "|", "->")
SYMBOL_SEPARATORS = (",", "=")

DEFAULT_PERMUTATIONS = 24
DEFAULT_TRIALS = 12
DEFAULT_SEED = 20260819
DEFAULT_FLOAT_TOLERANCE = Fraction(1, 10**9)
# ASCII digits: str.isdigit() also accepts "²", which int() rejects
_INTEGER = re.compile("-?[0-9]+")


class ModelFileError(SpecforgeError):
    """A model file that does not parse; carries file and line context."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class ModelFile:
    """A parsed model definition, ready to realize into library objects.

    ``sha256`` is the hex digest of the bytes the model was parsed from
    when `parse_model_file` read it from a file, else None.
    """

    def __init__(self, path: str, name: str, sites: tuple[str, ...], dimension: int,
                 alphabet: tuple[str, ...], tails: tuple[str, ...], free_uniform: bool,
                 free_weights: dict[str, dict[str, Fraction]], kind: str,
                 table_entries: dict[str, dict[tuple, Fraction]] | None = None,
                 rules: dict[tuple, dict[str, Fraction]] | None = None,
                 fields: dict[str, dict[str, Fraction]] | None = None,
                 pairs: dict[tuple, dict[tuple, Fraction]] | None = None,
                 joint: dict[tuple, Fraction] | None = None,
                 sweep: tuple[str, ...] | None = None,
                 permutations: int = DEFAULT_PERMUTATIONS,
                 trials: int = DEFAULT_TRIALS,
                 seed: int = DEFAULT_SEED,
                 float_tolerance: Fraction = DEFAULT_FLOAT_TOLERANCE):
        self.path = path
        self.name = name
        self.sites = sites
        self.dimension = dimension
        self.alphabet = alphabet
        self.tails = tails
        self.free_uniform = free_uniform
        self.free_weights = free_weights
        self.kind = kind
        self.table_entries = {} if table_entries is None else table_entries
        self.rules = {} if rules is None else rules
        self.fields = {} if fields is None else fields
        self.pairs = {} if pairs is None else pairs
        self.joint = {} if joint is None else joint
        self.sweep = sweep
        self.permutations = permutations
        self.trials = trials
        self.seed = seed
        self.float_tolerance = float_tolerance
        self.sha256: str | None = None

    def cell_count(self) -> int:
        """Total table cells a full construction would hold."""
        q = len(self.alphabet)
        n = len(self.sites)
        return (q ** n) * (2 ** n) * len(self.tails)

    def space(self) -> Space:
        alphabet = Alphabet(self.alphabet)
        universe = Universe(self.sites, dimension_hint=self.dimension)
        if self.free_uniform:
            free = FreeMeasure.uniform(alphabet, universe)
        else:
            free = FreeMeasure(alphabet, self.free_weights)
        return Space(alphabet, universe, free, tail_classes=self.tails)

    def realize(self) -> tuple[Space, SingletonFamily, dict[tuple, Fraction] | None]:
        """Build (space, singleton family, joint-or-None) from the file."""
        space = self.space()
        if self.kind == "table":
            return space, normalize(space, TableModel(self.table_entries)), None
        if self.kind == "tail_rule":
            rules = {}
            for (tail, site), vector in self.rules.items():
                if site == "*":
                    for s in self.sites:
                        rules.setdefault((tail, s), dict(vector))
                else:
                    rules[(tail, site)] = dict(vector)
            return space, normalize(space, TailRuleModel(rules)), None
        if self.kind == "potential":
            fields = {
                site: dict(self.fields.get(site))
                if site in self.fields
                else {sym: Fraction(1) for sym in self.alphabet}
                for site in self.sites
            }
            return space, normalize(space, PotentialModel(fields, self.pairs)), None
        return space, extract_singletons(space, self.joint), dict(self.joint)


def parse_model_file(path: str) -> ModelFile:
    """Parse the model file at ``path``, read once as bytes; its ``sha256``
    is their SHA-256 hex digest, from the interpreter's builtin hash
    module (``hashlib`` only where that is missing).  The bytes decode as
    UTF-8 with universal newlines, as a text-mode read would; a byte that
    does not decode is a `ModelFileError` at its line."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ModelFileError(path, 0, f"cannot read model file: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the bad byte, counted as the parser counts lines
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise ModelFileError(path, line, f"not UTF-8 text: byte 0x{data[exc.start]:02x} "
                                         f"does not decode ({exc.reason})") from None
    model = parse_model_text(text.replace("\r\n", "\n").replace("\r", "\n"), path=path)
    model.sha256 = sha256(data).hexdigest()
    return model


def parse_model_text(text: str, path: str = "<string>") -> ModelFile:
    sites: tuple[str, ...] | None = None
    dimension = 1
    name: str | None = None
    alphabet: tuple[str, ...] | None = None
    tails: tuple[str, ...] = ("default",)
    free_uniform: bool | None = None
    free_weights: dict[str, dict[str, Fraction]] = {}
    kind: str | None = None
    table_entries: dict[str, dict[tuple, Fraction]] = {}
    rules: dict[tuple, dict[str, Fraction]] = {}
    fields: dict[str, dict[str, Fraction]] = {}
    pairs: dict[tuple, dict[tuple, Fraction]] = {}
    joint: dict[tuple, Fraction] = {}
    sweep: tuple[str, ...] | None = None
    tail_uses: list[tuple[int, str]] = []
    options = {
        "permutations": DEFAULT_PERMUTATIONS,
        "trials": DEFAULT_TRIALS,
        "seed": DEFAULT_SEED,
    }
    float_tolerance = DEFAULT_FLOAT_TOLERANCE
    first_given: dict[str, int] = {}

    def fail(line_no: int, message: str) -> ModelFileError:
        return ModelFileError(path, line_no, message)

    def distinct(labels: list[str], line_no: int, what: str,
                 separators: tuple[str, ...] = ()) -> tuple[str, ...]:
        seen: set[str] = set()
        for label in labels:
            if label in seen:
                raise fail(line_no, f"duplicate {what} {label!r}")
            held = next((sep for sep in separators if sep in label), None)
            if held is not None:
                raise fail(line_no, f"{what} {label!r} holds the output separator {held!r}")
            seen.add(label)
        return tuple(labels)

    def rational(token: str, line_no: int, what: str) -> Fraction:
        try:
            return parse_rational(token)
        except DomainError:
            raise fail(
                line_no,
                f"{what} must be an exact rational literal n or n/d, got {token!r}",
            ) from None

    def pairs_of(tokens: list[str], line_no: int, what: str) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for token in tokens:
            if "=" not in token:
                raise fail(line_no, f"{what} expects <key>=<rational>, got {token!r}")
            key, _, raw = token.partition("=")
            if not key:
                raise fail(line_no, f"{what} has an empty key in {token!r}")
            if key in out:
                raise fail(line_no, f"{what} repeats key {key!r}")
            out[key] = rational(raw, line_no, what)
        return out

    def need_sites(line_no: int) -> tuple[str, ...]:
        if sites is None:
            raise fail(line_no, "this directive needs 'sites' declared first")
        return sites

    def need_alphabet(line_no: int) -> tuple[str, ...]:
        if alphabet is None:
            raise fail(line_no, "this directive needs 'alphabet' declared first")
        return alphabet

    def full_vector(tokens: list[str], line_no: int, what: str) -> dict[str, Fraction]:
        symbols = need_alphabet(line_no)
        out = pairs_of(tokens, line_no, what)
        if set(out) != set(symbols):
            raise fail(
                line_no,
                f"{what} must give exactly one value per alphabet symbol "
                f"({' '.join(symbols)})",
            )
        return out

    def need_kind(line_no: int, *allowed: str) -> str:
        if kind is None:
            raise fail(line_no, "this directive needs 'kind' declared first")
        if kind not in allowed:
            raise fail(
                line_no,
                f"directive only valid for kind {' or '.join(allowed)}, model is {kind!r}",
            )
        return kind

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive in SINGLE_VALUED:
            if directive in first_given:
                raise fail(line_no, f"duplicate {directive!r} directive "
                                    f"(first given on line {first_given[directive]})")
            first_given[directive] = line_no

        if directive == "name":
            if len(args) != 1:
                raise fail(line_no, "name takes exactly one label")
            name = args[0]
        elif directive == "sites":
            if not args:
                raise fail(line_no, "sites needs at least one label")
            if "*" in args:
                raise fail(line_no, "site label '*' is the rule wildcard")
            sites = distinct(args, line_no, "site label", SITE_SEPARATORS)
        elif directive == "dimension":
            if len(args) != 1 or not _INTEGER.fullmatch(args[0]) or args[0].startswith("-"):
                raise fail(line_no, "dimension takes one nonnegative integer")
            dimension = int(args[0])
        elif directive == "alphabet":
            if not args:
                raise fail(line_no, "alphabet needs at least one symbol")
            alphabet = distinct(args, line_no, "alphabet symbol", SYMBOL_SEPARATORS)
        elif directive == "tails":
            if not args:
                raise fail(line_no, "tails needs at least one label")
            tails = distinct(args, line_no, "tail label")
        elif directive == "free":
            if args == ["uniform"]:
                if free_weights:
                    raise fail(line_no, "free uniform conflicts with per-site free lines")
                free_uniform = True
            else:
                if free_uniform:
                    raise fail(line_no, "per-site free line conflicts with free uniform")
                free_uniform = False
                known = need_sites(line_no)
                if not args or args[0] not in known:
                    raise fail(line_no, "free needs 'uniform' or a declared site label")
                site = args[0]
                if site in free_weights:
                    raise fail(line_no, f"duplicate free line for site {site!r}")
                free_weights[site] = full_vector(args[1:], line_no, "free weight")
        elif directive == "kind":
            if len(args) != 1 or args[0] not in KINDS:
                raise fail(line_no, f"kind must be one of {', '.join(KINDS)}")
            kind = args[0]
        elif directive == "entry":
            need_kind(line_no, "table")
            known = need_sites(line_no)
            if alphabet is None:
                raise fail(line_no, "entry needs 'alphabet' declared first")
            want = 1 + 1 + (len(known) - 1) + 1 + 1
            if len(args) != want:
                raise fail(
                    line_no,
                    f"entry needs site, own symbol, {len(known) - 1} context "
                    f"symbols, tail, value ({want} fields), got {len(args)}",
                )
            site, own = args[0], args[1]
            ctx = tuple(args[2:2 + len(known) - 1])
            tail, value = args[-2], args[-1]
            if site not in known:
                raise fail(line_no, f"unknown site {site!r}")
            for sym in (own, *ctx):
                if sym not in alphabet:
                    raise fail(line_no, f"unknown symbol {sym!r}")
            tail_uses.append((line_no, tail))
            key = (own, ctx, tail)
            bucket = table_entries.setdefault(site, {})
            if key in bucket:
                raise fail(line_no, f"duplicate entry for {site!r} {key!r}")
            bucket[key] = rational(value, line_no, "entry value")
        elif directive == "rule":
            need_kind(line_no, "tail_rule")
            known = need_sites(line_no)
            if len(args) < 3:
                raise fail(line_no, "rule needs tail, site (or *), and weights")
            tail, site = args[0], args[1]
            if site != "*" and site not in known:
                raise fail(line_no, f"unknown site {site!r}")
            tail_uses.append((line_no, tail))
            key = (tail, site)
            if key in rules:
                raise fail(line_no, f"duplicate rule for {key!r}")
            rules[key] = full_vector(args[2:], line_no, "rule weight")
        elif directive == "field":
            need_kind(line_no, "potential")
            known = need_sites(line_no)
            if not args or args[0] not in known:
                raise fail(line_no, "field needs a declared site label")
            site = args[0]
            if site in fields:
                raise fail(line_no, f"duplicate field line for site {site!r}")
            fields[site] = full_vector(args[1:], line_no, "field weight")
        elif directive == "pair":
            need_kind(line_no, "potential")
            known = need_sites(line_no)
            if len(args) < 3:
                raise fail(line_no, "pair needs two sites and weights")
            first, second = args[0], args[1]
            for site in (first, second):
                if site not in known:
                    raise fail(line_no, f"unknown site {site!r}")
            if first == second:
                raise fail(line_no, "pair needs two distinct sites")
            symbols = need_alphabet(line_no)
            raw = pairs_of(args[2:], line_no, "pair weight")
            vector: dict[tuple, Fraction] = {}
            for key, value in raw.items():
                parts = key.split(",")
                if len(parts) != 2 or not all(p in symbols for p in parts):
                    raise fail(
                        line_no,
                        f"pair weight key must be <sym>,<sym> over the "
                        f"alphabet, got {key!r}",
                    )
                vector[(parts[0], parts[1])] = value
            if len(vector) != len(symbols) ** 2:
                raise fail(
                    line_no,
                    "pair needs one value for every ordered symbol pair",
                )
            if known.index(first) > known.index(second):
                first, second = second, first
                vector = {(y, x): value for (x, y), value in vector.items()}
            pair_key = (first, second)
            if pair_key in pairs:
                raise fail(line_no, f"duplicate pair line for {pair_key!r}")
            pairs[pair_key] = vector
        elif directive == "joint":
            need_kind(line_no, "joint")
            known = need_sites(line_no)
            symbols = need_alphabet(line_no)
            if len(args) != len(known) + 1:
                raise fail(
                    line_no,
                    f"joint needs {len(known)} symbols and a value",
                )
            values = tuple(args[:-1])
            if any(sym not in symbols for sym in values):
                raise fail(line_no, f"joint uses symbols outside the alphabet: {values!r}")
            if values in joint:
                raise fail(line_no, f"duplicate joint line for {values!r}")
            joint[values] = rational(args[-1], line_no, "joint value")
        elif directive == "sweep":
            known = need_sites(line_no)
            if sorted(args) != sorted(known):
                raise fail(line_no, "sweep must list every site exactly once")
            sweep = tuple(args)
        elif directive in ("permutations", "trials", "seed"):
            if len(args) != 1 or not _INTEGER.fullmatch(args[0]):
                raise fail(line_no, f"{directive} takes one integer")
            value = int(args[0])
            if directive != "seed" and value < 1:
                raise fail(line_no, f"{directive} must be at least 1")
            options[directive] = value
        elif directive == "float_tolerance":
            if len(args) != 1:
                raise fail(line_no, "float_tolerance takes one rational")
            float_tolerance = rational(args[0], line_no, "float_tolerance")
        else:
            raise fail(line_no, f"unknown directive {directive!r}")

    for line_no, tail in tail_uses:
        if tail not in tails:
            raise fail(
                line_no,
                f"undeclared tail class {tail!r}; declared: {' '.join(tails)}",
            )
    last = text.count("\n") + 1
    if sites is None:
        raise fail(last, "missing 'sites' directive")
    if alphabet is None:
        raise fail(last, "missing 'alphabet' directive")
    if kind is None:
        raise fail(last, "missing 'kind' directive")
    if free_uniform is None:
        raise fail(last, "missing 'free' directive")
    if not free_uniform:
        missing = [s for s in sites if s not in free_weights]
        if missing:
            raise fail(last, f"missing free weights for sites {missing}")
    if kind == "table" and not table_entries:
        raise fail(last, "kind table declared but no entry lines")
    if kind == "tail_rule" and not rules:
        raise fail(last, "kind tail_rule declared but no rule lines")
    if kind == "potential" and not (fields or pairs):
        raise fail(last, "kind potential declared but no field or pair lines")
    if kind == "joint" and not joint:
        raise fail(last, "kind joint declared but no joint lines")

    return ModelFile(
        path=path,
        name=name or "model",
        sites=sites,
        dimension=dimension,
        alphabet=alphabet,
        tails=tails,
        free_uniform=bool(free_uniform),
        free_weights=free_weights,
        kind=kind,
        table_entries=table_entries,
        rules=rules,
        fields=fields,
        pairs=pairs,
        joint=joint,
        sweep=sweep,
        permutations=options["permutations"],
        trials=options["trials"],
        seed=options["seed"],
        float_tolerance=float_tolerance,
    )
