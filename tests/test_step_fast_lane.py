"""The Part-21 reader's fast lane for DATA records, against its token loop.

``step._read`` first offers each DATA record to one validating pattern and
reads whatever that pattern does not match with the token loop. Both paths must
give the same entity map, or the same error with the same line and column.
These tests run the reader as it is and with the fast lane forced to take no
record, on seeded mutations of real files and on generated valid records, and
check that the fast lane does take the records it is meant for.
"""
import random
import re
import sys
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INT_DIGIT_LIMIT, fixture_path
from punchplan import step

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402
import stepwriter  # noqa: E402

FRAME = "ISO-10303-21;\nHEADER;\nFILE_NAME('x');\nENDSEC;\nDATA;\n{}ENDSEC;\nEND-ISO-10303-21;\n"


def _outcome(text: str) -> str:
    """Everything ``parse_exchange`` returns, or its error, as text that tells
    1 from 1.0 and True from 1."""
    try:
        xs = step.parse_exchange(text)
    except step.StepSyntaxError as exc:
        return f"{type(exc).__name__} {exc} {exc.line}:{exc.column}"
    except step.StepError as exc:
        return f"{type(exc).__name__} {exc}"
    return repr((xs.header, list(xs.entities.items()), sorted(xs.ignored_keywords.items()),
                 xs.warnings))


def _token_loop_only():
    """The reader with the fast lane taking no record."""
    return mock.patch.object(step, "_fast_records", lambda text, pos, records: None)


class _Taken:
    """Counts the records the fast lane takes while in use."""

    def __init__(self) -> None:
        self.records = 0
        self._patch = mock.patch.object(step, "_fast_records", self._count)
        self._real = step._fast_records

    def _count(self, text, pos, records):
        before = len(records)
        last = self._real(text, pos, records)
        self.records += len(records) - before
        return last

    def __enter__(self) -> "_Taken":
        self._patch.start()
        return self

    def __exit__(self, *exc) -> None:
        self._patch.stop()


def _blank_separated(text: str) -> str:
    """A blank on each side of every punctuation mark of the DATA section."""
    head, data = text.split("DATA;", 1)
    return head + "DATA;" + re.sub(r"([(),=;])", r" \1 ", data)


def _commented(text: str) -> str:
    head, data = text.split("DATA;", 1)
    return head + "DATA;" + data.replace(";\n#", ";\n/* note */\n#")


def _benchmark_file() -> str:
    doc, _ = inputs.grid_sheet(random.Random(3), 2, "grid")
    return stepwriter.write_step(doc)[0]


def _sources() -> list[str]:
    texts = [fixture_path("flat_sheet_100x80x2.step").read_text(encoding="utf-8"), _benchmark_file()]
    return texts + [_blank_separated(t) for t in texts] + [_commented(t) for t in texts]


# What a mutation inserts, or puts in place of one token.
SNIPPETS = [
    "#", "#0", "#1", "#3", "'", "''", "'a''b'", "(", ")", "((", "))", ",", ";", "=", ".", "..",
    ".T.", ".F.", ".X1.", ".1.", "E", "e-", "-", "+", "1", "-0", "007", "0.5", "1.", ".5", "-.5",
    "1.E5", "1e5", "1E+", "2.5e-3", " ", "\n", "\r\n", "\t", "$", "*", "/* c */", "/*", "B(",
    "B (1)", "A(", "(1,(2,(3,(4,(5)))))", "@", "é", "\f", "ENDSEC", "'(,)#;'",
]
# Numbers one digit past the interpreter's int() digit limit, or past the
# default limit when there is none: the list keeps its length either way, and
# with it the random draws, so the corpus differs only in what these hold.
SNIPPETS += ["9" * ((INT_DIGIT_LIMIT or 4300) + 1), "#" + "7" * ((INT_DIGIT_LIMIT or 4300) + 1)]
# What a mutation puts in place of one argument, which keeps the record readable.
ARGUMENTS = ["#1", "#99", "''", "'a''b'", "'(,)#;'", ".T.", ".X1.", "$", "*", "-0", "007", "+7", "0.5",
             "1.", ".5", "-.5", "1.E5", "1e5", "2.5e-3", "()", "(1,(2,(3)))", "B(1)", "B ( 'x' , 2 )"]
ARGUMENT = re.compile(r"(?<=[(,])[^(),;]+(?=[),])")
TOKEN = re.compile(r"'(?:[^']|'')*'|#\d+|\.[A-Z_0-9]*\.|[-+.\dE]+|[A-Za-z_][A-Za-z0-9_-]*|\s+|.")


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        pos = rng.randrange(len(text) + 1)
        if kind == 0:
            text = text[:pos] + text[pos + rng.randint(1, 3):]
        elif kind == 1:
            text = text[:pos] + rng.choice(SNIPPETS) + text[pos:]
        elif kind == 2:
            tokens = TOKEN.findall(text)
            tokens[rng.randrange(len(tokens))] = rng.choice(SNIPPETS)
            text = "".join(tokens)
        elif kind == 3:
            lines = text.split("\n")
            line = rng.randrange(len(lines))
            lines.insert(rng.randrange(len(lines) + 1), lines[line])
            text = "\n".join(lines)
        elif kind == 4:
            spans = [m.span() for m in ARGUMENT.finditer(text)]
            if spans:
                start, end = rng.choice(spans)
                text = text[:start] + rng.choice(ARGUMENTS) + text[end:]
        else:
            text = re.sub(r"\(([^()]*)\)", lambda m: rng.choice(["((", "B("]) + m[1] + "))",
                          text, count=rng.randint(1, 3))
    return text


def _cases(seed: int, count: int) -> list[str]:
    """``count`` mutated texts: whole fixtures, and DATA windows of the sources."""
    rng = random.Random(seed)
    sources = _sources()
    fixture = sources[0]
    windows = []
    for text in sources:
        records = text.split("DATA;", 1)[1].split("ENDSEC;", 1)[0].split("\n")
        windows.append([r + "\n" for r in records if r.strip()])
    cases = []
    for i in range(count):
        if i % 10 == 0:
            cases.append(_mutate(rng, fixture))
            continue
        records = rng.choice(windows)
        start = rng.randrange(len(records))
        cases.append(_mutate(rng, FRAME.format("".join(records[start:start + rng.randint(1, 8)]))))
    return cases


def test_fast_lane_matches_token_loop_on_mutations():
    cases = _cases(seed=13, count=2400)
    with _Taken() as taken:
        fast = [_outcome(text) for text in cases]
    with _token_loop_only():
        slow = [_outcome(text) for text in cases]
    for text, a, b in zip(cases, fast, slow):
        assert a == b, text
    # The mutations must leave both readable files and errors of every kind.
    errors = {o.split(" ", 1)[0] for o in fast if not o.startswith("(")}
    readable = sum(o.startswith("(") for o in fast)
    assert 0.2 * len(cases) < readable < 0.8 * len(cases), readable
    assert {"StepSyntaxError", "DuplicateEntityId", "MissingSection"} <= errors, errors
    assert taken.records > 5 * len(cases)


def test_fast_lane_takes_every_data_record():
    # Records after a newline, after blanks, and the first one after 'DATA;'.
    for text in [*_sources()[:4], _benchmark_file().replace("\n", "\r\n")]:
        with _Taken() as taken:
            xs = step.parse_exchange(text)
        assert taken.records == len(xs.entities) > 100


def test_fast_lane_shares_reference_free_records_within_a_parse():
    text = FRAME.format("#1=DIRECTION('',(0.,0.,1.));\n#2=DIRECTION('',(0.,0.,1.));\n"
                        "#3=VECTOR('',#1,1.);\n#4=VECTOR('',#1,1.);\n"
                        "#5=DIRECTION('', (0.,0.,1.));\n#6=DIRECTION ('',(0.,0.,1.));\n")
    with _Taken() as taken:
        first = step.parse_exchange(text).entities
    assert taken.records == 6
    # The same text without a reference: one record.
    assert first[1] is first[2]
    # The same text holding a reference: two records.
    assert first[3] == first[4] and first[3] is not first[4]
    # Texts that differ only in blanks: equal records, not one.
    assert first[5] == first[6] == first[1]
    assert len({id(first[1]), id(first[5]), id(first[6])}) == 3
    # Nothing is shared between two parses.
    second = step.parse_exchange(text).entities
    assert second == first
    assert all(second[eid] is not first[eid] for eid in first)


def test_fast_lane_pattern_stays_small_and_is_compiled_at_import():
    # An item written twice per list, '\( item (, item)* \)', doubles the
    # pattern at each nesting level; at four levels that is tens of kilobytes
    # and a compile long enough to show in a one-shot command's start-up.
    assert len(step._FAST.pattern) < 8000
    assert isinstance(step._FAST, re.Pattern) and isinstance(step._ARG, re.Pattern)

    # Every module-level re call (re.compile, re.sub, ...) passes through
    # re._compile. The wrapper only records, and is removed before the test
    # returns, so the test runner's own re calls are left alone.
    compiled = []
    real_compile = re._compile

    def recording_compile(pattern, flags):
        compiled.append(pattern)
        return real_compile(pattern, flags)

    text = fixture_path("flat_sheet_100x80x2.step").read_text(encoding="utf-8")
    with mock.patch.object(re, "_compile", recording_compile):
        step.load_step(text)
        for bad in (text.replace("#9=", "#9 ", 1), text.replace("0.0", "0.E", 1)):
            try:
                step.parse_exchange(bad)
            except step.StepSyntaxError:
                pass
    assert compiled == [], f"patterns compiled while reading: {compiled!r}"


# ---------------------------------------------------------------------------
# Generated valid records
# ---------------------------------------------------------------------------

BLANKS = st.sampled_from(["", "", " ", "  ", "\n", "\t", "\r\n", " \n "])
KEYWORDS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_-]{0,8}", fullmatch=True)
INTEGERS = st.from_regex(r"[+-]?[0-9]{1,6}", fullmatch=True)
REALS = st.from_regex(r"[+-]?(?:[0-9]{1,4}\.[0-9]{0,4}|\.[0-9]{1,4}|[0-9]{1,4})(?:[eE][+-]?[0-9]{1,3})?",
                      fullmatch=True).filter(lambda s: "." in s or "e" in s or "E" in s)


@st.composite
def _value(draw, depth: int):
    """A parameter as Part-21 text and the value the reader must give for it."""
    kinds = ["ref", "int", "real", "string", "enum", "bool", "unset", "derived"]
    if depth > 1:
        kinds += ["list", "list", "typed"]
    kind = draw(st.sampled_from(kinds))
    if kind == "ref":
        n = draw(st.integers(1, 10**6))
        return f"#{n}", step.Ref(n)
    if kind == "int":
        s = draw(INTEGERS)
        return s, int(s)
    if kind == "real":
        s = draw(REALS)
        return s, float(s)
    if kind == "string":
        s = draw(st.text(st.sampled_from("ab'(),;#*$. \né"), max_size=6))
        return "'" + s.replace("'", "''") + "'", s
    if kind == "enum":
        name = draw(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True))
        return f".{name}.", (name == "T") if name in ("T", "F") else step.Enum(name)
    if kind == "bool":
        b = draw(st.booleans())
        return (".T." if b else ".F."), b
    if kind == "unset":
        return "$", step.UNSET
    if kind == "derived":
        return "*", step.DERIVED
    items = draw(st.lists(_value(depth - 1), max_size=3))
    text, value = _list(draw, items), tuple(v for _, v in items)
    if kind == "typed":
        text = draw(KEYWORDS) + draw(BLANKS) + text
        value = value[0] if len(value) == 1 else value
    return text, value


def _list(draw, items) -> str:
    """'(' items ')' with blanks drawn around every token."""
    parts = [draw(BLANKS) + text + draw(BLANKS) for text, _ in items]
    return "(" + ",".join(parts) + draw(BLANKS) + ")"


@st.composite
def _records(draw):
    records, expected = [], {}
    for eid in draw(st.lists(st.integers(1, 10**4), min_size=1, max_size=4, unique=True)):
        keyword = draw(KEYWORDS)
        # The record's own list counts as the first level: six levels in all
        # reach past the fast lane's four.
        items = draw(st.lists(_value(6), max_size=4))
        b = [draw(BLANKS) for _ in range(5)]
        records.append(f"{b[0]}#{eid}{b[1]}={b[2]}{keyword}{b[3]}{_list(draw, items)}{b[4]};\n")
        expected[eid] = (keyword, tuple(v for _, v in items))
    return "".join(records), expected


@settings(max_examples=200, deadline=None)
@given(_records())
def test_generated_records_read_the_same_on_both_paths(case):
    data, expected = case
    text = FRAME.format(data)
    xs = step.parse_exchange(text)
    got = {eid: (rec.keyword, rec.args) for eid, rec in xs.entities.items()}
    assert repr(got) == repr(expected)
    fast = _outcome(text)
    with _token_loop_only():
        assert _outcome(text) == fast
