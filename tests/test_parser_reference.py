"""The lexer and the binary-operator parser against the character-by-character
lexer and the level-by-level descent they replaced, kept here verbatim as
references: the same tokens or the same diagnostic, and the same trees with
every source location."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_FILES, FIXTURES, MODEL_FILES, MODELS
from ebhint.diagnostics import Diagnostic
from ebhint.formula import BINARY, NOT_LEVEL, Loc
from ebhint.parser import ParseError, Parser, Token, lex, parse_predicate, parse_source
from ebhint.record import fields, replace

# --- the reference lexer -------------------------------------------------------

_KEYWORDS = frozenset(
    """machine refines sees variables invariants theorems events event
       initialisation any where thm with then hints end use for split case
       using context extends sets constants axioms
       true false not or in exists forall NAT INT""".split()
)
_SYMBOLS = ("<=>", ":=", "::", ":|", "<=", ">=", "/=", "=>",
            "=", "<", ">", "&", "(", ")", "{", "}", ",", ".", "+", "-", "*", ":")
_UNI_SYMBOL = {"≤": "<=", "≥": ">=", "≠": "/=", "⇒": "=>", "⇔": "<=>",
               "≔": ":=", "∧": "&", "·": ".", "−": "-"}
_UNI_KEYWORD = {"∨": "or", "¬": "not", "∈": "in", "ℕ": "NAT", "ℤ": "INT",
                "∃": "exists", "∀": "forall"}


def _err(message: str, loc: Loc, path: str) -> ParseError:
    return ParseError(Diagnostic("syntax", message, loc, path))


def reference_lex(text: str, path: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)

    def loc() -> Loc:
        return Loc(line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdecimal():
            start = i
            here = loc()
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(Token("int", text[start:i], here))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            here = loc()
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            col += i - start
            word = _UNI_KEYWORD.get(word, word)
            if word in _KEYWORDS:
                tokens.append(Token(word, word, here))
            elif i < n and text[i] == "'":
                i += 1
                col += 1
                if i < n and text[i] == "'":
                    raise _err(f"doubly primed identifier {word!r}", here, path)
                tokens.append(Token("pident", word, here))
            else:
                tokens.append(Token("ident", word, here))
            continue
        if ch in _UNI_KEYWORD:
            word = _UNI_KEYWORD[ch]
            tokens.append(Token(word, word, loc()))
            i += 1
            col += 1
            continue
        if ch in _UNI_SYMBOL:
            sym = _UNI_SYMBOL[ch]
            tokens.append(Token(sym, sym, loc()))
            i += 1
            col += 1
            continue
        if ch == ":" and i + 1 < n and text[i + 1] == "∈":
            tokens.append(Token("::", "::", loc()))
            i += 2
            col += 2
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, loc()))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise _err(f"unexpected character {ch!r}", loc(), path)
    tokens.append(Token("eof", "", Loc(line, col)))
    return tokens


# --- the reference binary-operator parser -----------------------------------------

_LEVELS = {
    level: {op.spelling: (cls, op.right) for cls, op in BINARY.items() if op.level == level}
    for level in {op.level for op in BINARY.values()}
}


class ReferenceParser(Parser):
    """`Parser` with one call per precedence level, as before."""

    def _binary(self, level):
        ops = _LEVELS.get(level)
        if ops is None:
            return self._not() if level == NOT_LEVEL else self._unary()
        left = self._binary(level + 1)
        tok = self.peek()
        op = ops.get(tok.text)
        while op is not None:
            cls, right = op
            self.advance()
            if right:
                return cls(left, self._nested(self._binary, level), loc=tok.loc)
            left = cls(left, self._binary(level + 1), loc=tok.loc)
            tok = self.peek()
            op = ops.get(tok.text)
        return left


# --- comparing outcomes ----------------------------------------------------------


def shape(value):
    """``value`` with every field spelled out, source locations and paths
    included, which ``==`` on trees and models leaves out."""
    if isinstance(value, tuple):
        return value if isinstance(value, Loc) else tuple(shape(v) for v in value)
    if hasattr(value, "_fields"):  # a record
        return (type(value).__name__, tuple(shape(getattr(value, name)) for name in fields(value)))
    return value


def outcome(run, *args):
    try:
        return "ok", shape(run(*args))
    except ParseError as e:
        d = e.diagnostic
        return "error", (d.code, d.message, d.loc, d.path, d.render())


def reference_predicate(text: str):
    parser = ReferenceParser(reference_lex(text, "<predicate>"), "<predicate>")
    f = parser.formula()
    parser.expect("eof", "end of input")
    return f


def reference_source(text: str, path: str = "<string>"):
    return ReferenceParser(reference_lex(text, path), path).component()


def assert_same(text: str) -> None:
    assert outcome(lex, text, "t.ebh") == outcome(reference_lex, text, "t.ebh")
    assert outcome(parse_predicate, text) == outcome(reference_predicate, text)
    assert outcome(parse_source, text, "t.ebh") == outcome(reference_source, text, "t.ebh")


# --- texts ------------------------------------------------------------------------

ASCII_SYMBOLS = _SYMBOLS + ("/", "'", "''")
ALIASES = tuple(_UNI_SYMBOL) + tuple(_UNI_KEYWORD) + (":∈",)
BLANKS = (" ", "  ", "\t", "\r\n", "\n", "\r", "// a comment\n", "//", "// x", "\f")
BAD = ("~", "$", "@", "\x00", "\u00a0", "\u0301")  # the last two: no-break space, combining acute

identifiers = st.one_of(
    st.sampled_from(("x", "y1", "_t", "abc_9", "é", "жук", "ℕ", "ℤ", "ℕx", "x²", "a½", "²", "½", "Ⅷ", "x٣")),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
    st.text(st.characters(categories=("L", "N", "Pc")), min_size=1, max_size=4),
)
numbers = st.one_of(
    st.sampled_from(("0", "7", "42", "٣", "١٢", "۹9", "0123", "9" * 400)),
    st.integers(0, 10**6).map(str),
)
pieces = st.one_of(
    identifiers,
    numbers,
    st.sampled_from(tuple(_KEYWORDS)),
    st.sampled_from(ASCII_SYMBOLS + ALIASES),
    st.sampled_from(BLANKS),
    st.sampled_from(BAD),
)
# token soups: pieces glued together or separated by a blank
soups = st.lists(st.tuples(pieces, st.sampled_from(("", "", " ", "\n"))), max_size=30).map(
    lambda parts: "".join(p + sep for p, sep in parts)
)

# formula texts that mostly parse: every binary and comparison operator,
# prefix operators, brackets, quantifiers and set literals
_OPERATORS = ("<=>", "=>", "or", "&", "=", "/=", "<", "<=", ">", ">=", "in", "+", "-", "*",
              "⇔", "⇒", "∨", "∧", "≠", "≤", "≥", "∈", "−")
_atoms = st.one_of(
    st.sampled_from(("x", "y'", "7", "-3", "true", "false", "NAT", "INT", "ℕ", "{1, x}", "{}")),
    identifiers,
)


def _combine(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(_OPERATORS), inner).map(" ".join),
        inner.map(lambda s: f"({s})"),
        inner.map(lambda s: f"not {s}"),
        inner.map(lambda s: f"-{s}"),
        inner.map(lambda s: f"- {s}"),
        inner.map(lambda s: f"(forall a, b'. {s})"),
        inner.map(lambda s: f"exists q . {s}"),
        st.lists(inner, min_size=1, max_size=3).map(lambda xs: "{" + ", ".join(xs) + "}"),
    )


formula_texts = st.recursive(_atoms, _combine, max_leaves=12)
# long chains, to reach the nesting limit through every operator
chains = st.tuples(st.sampled_from(_OPERATORS), st.integers(1, 70), st.sampled_from(("", "(", "not ", "-"))).map(
    lambda t: t[2] * t[1] + f" {t[0]} ".join(["x"] * t[1]) + (")" * t[1] if t[2] == "(" else "")
)

SOURCES = tuple((FIXTURES / name).read_text(encoding="utf-8") for name in FIXTURE_FILES) + tuple(
    (MODELS / name).read_text(encoding="utf-8") for name in MODEL_FILES
)


@st.composite
def mutated_sources(draw) -> str:
    """A fixture or model with a few spans replaced by pieces or formulas."""
    text = draw(st.sampled_from(SOURCES))
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 16)))
        text = text[:start] + draw(st.one_of(pieces, formula_texts)) + text[stop:]
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


# --- tests ------------------------------------------------------------------------


@settings(max_examples=400)
@given(soups)
def test_token_soups_match_the_reference(text):
    assert_same(text)


@settings(max_examples=300)
@given(formula_texts)
def test_formulas_match_the_reference(text):
    assert_same(text)


@settings(max_examples=100)
@given(chains)
def test_operator_chains_match_the_reference(text):
    assert_same(text)


@settings(max_examples=200, deadline=None)
@given(mutated_sources())
def test_mutated_models_match_the_reference(text):
    assert_same(text)


def test_sources_match_the_reference():
    for text in SOURCES:
        for variant in (text, text.replace("\n", "\r\n"), text.rstrip("\n"), text.replace("    ", "\t")):
            assert_same(variant)
        assert outcome(parse_source, text)[0] == "ok"


def test_shape_tells_apart_parses_that_differ_only_in_positions():
    one = parse_source("machine m\nvariables x\ninvariants\n  i1: x > 0\nend\n")
    moved = parse_source("machine m\nvariables  x\ninvariants\n  i1:  x > 0\nend\n")
    elsewhere = replace(one, path="b.ebh")
    assert one == moved == elsewhere
    assert shape(one) != shape(moved)
    assert shape(one) != shape(elsewhere)
    assert shape(parse_predicate("x > 0")) != shape(parse_predicate(" x > 0"))


def test_every_alias_and_blank_matches_the_reference():
    for piece in ASCII_SYMBOLS + ALIASES + BLANKS + BAD + ("x // c", "end'", "ℕ'", "x''", "x'y", "1²", "²x"):
        for text in (piece, f"x {piece} y", f"{piece}\n", f"a{piece}b"):
            assert_same(text)
