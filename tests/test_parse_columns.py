"""Where ``parse_system`` says an error is.

The parser splits a line on whitespace and works out a column only when it
raises, so this property pins those columns: for seeded malformed lines,
with varied spacing and comments, every ``ParseError`` carries the expected
code and line, and its column points at the start of the offending token.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from corules.cli import ARROW, ParseError, parse_system

NAMES = ("a", "b", "c1", "long_name")
VALID = [["rule:", "a", ARROW], ["rule:", "b", ARROW, "a"], ["corule:", "c1", ARROW],
         ["rule:", "long_name", ARROW, "a", "b"]]
GAPS = st.sampled_from([" ", "  ", "\t", " \t ", "   "])
LEADS = st.sampled_from(["", " ", "\t", "  "])
COMMENTS = st.sampled_from(["", "#", "  # note", "\t# rule: zz <- <-", "# spec: a"])

# Each case: the tokens of the malformed line, the index of the offending
# token, the error code, and whether the line must come before the header,
# after a spec: line, or after the header (None).
CASES = [
    (["rule:", "zz", ARROW], 1, "unknown-name", None),
    (["rule:", "a", ARROW, "b", "zz"], 4, "unknown-name", None),
    (["spec:", "a", "zz"], 2, "unknown-name", None),
    (["rule:", ARROW, "a"], 1, "malformed-arrow", None),
    (["corule:", "a", ARROW, ARROW], 3, "malformed-arrow", None),
    (["spec:", ARROW], 1, "malformed-arrow", None),
    (["rule:", "a", "b"], 2, "malformed-arrow", None),
    (["rule:", "a", "b", ARROW], 2, "malformed-arrow", None),
    (["corule:"], 0, "malformed-arrow", None),
    (["judgments:", "x"], 0, "duplicate-header", None),
    (["spec:", "b"], 0, "duplicate-spec", "spec"),
    (["rules:", "a", ARROW], 0, "unknown-directive", None),
    (["a", ARROW], 0, "unknown-directive", None),
    (["rule:", "a", ARROW], 0, "missing-header", "first"),
    (["spec:"], 0, "missing-header", "first"),
]
# The header, with what it can get wrong: the index of the offending token.
HEADERS = [
    (["judgments:", *NAMES, "b"], 5, "duplicate-name"),
    (["judgments:", "a", ARROW, "b"], 2, "reserved-name"),
    (["judgments:"], 0, "empty-judgments"),
]


def spaced(draw, tokens):
    """The tokens as one line with drawn spacing and a drawn comment, and the
    body (the part before the comment)."""
    body = draw(LEADS)
    for i, token in enumerate(tokens):
        body += (draw(GAPS) if i else "") + token
    body += draw(st.sampled_from(["", " ", "\t"]))
    return body + draw(COMMENTS), body


@st.composite
def malformed_files(draw):
    """A file with exactly one malformed line: its text, the expected code
    and line, the body of that line and its offending token."""
    filler = st.sampled_from(["", "   ", "# just a comment", "\t#"])
    lines = [draw(filler) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        tokens, k, code = draw(st.sampled_from(HEADERS))
        text, body = spaced(draw, tokens)
        return "\n".join(lines + [text, *(" ".join(v) for v in VALID)]), code, \
            len(lines) + 1, body, tokens[k]
    tokens, k, code, where = draw(st.sampled_from(CASES))
    if where != "first":
        lines.append(spaced(draw, ["judgments:", *NAMES])[0])
        for valid in draw(st.lists(st.sampled_from(VALID), max_size=3)):
            lines += [spaced(draw, valid)[0], draw(filler)]
        if where == "spec":
            lines.append(spaced(draw, ["spec:", "a"])[0])
    text, body = spaced(draw, tokens)
    lines.append(text)
    line = len(lines)
    lines += [" ".join(v) for v in draw(st.lists(st.sampled_from(VALID), max_size=2))]
    return "\n".join(lines), code, line, body, tokens[k]


@settings(deadline=None, max_examples=400)
@given(malformed_files())
def test_error_points_at_the_offending_token(case):
    text, code, line, body, token = case
    with pytest.raises(ParseError) as excinfo:
        parse_system(text)
    error = excinfo.value
    assert (error.code, error.line) == (code, line)
    start = error.column - 1
    assert body[start:].startswith(token)
    assert start == 0 or body[start - 1].isspace()  # the token starts there
    assert body[start:].split()[0] == token


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_a_missing_arrow_points_past_the_conclusion(data):
    text, body = spaced(data.draw, ["rule:", "long_name"])
    with pytest.raises(ParseError) as excinfo:
        parse_system(f"judgments: {' '.join(NAMES)}\n{text}")
    error = excinfo.value
    assert (error.code, error.line) == ("malformed-arrow", 2)
    assert body[:error.column - 1].endswith("long_name")


def test_a_file_without_a_header_fails_at_its_start():
    for text in ("", "\n  \n", "# only a comment\n"):
        with pytest.raises(ParseError) as excinfo:
            parse_system(text)
        error = excinfo.value
        assert (error.code, error.line, error.column) == ("missing-header", 1, 1)
