"""Lexer, parser, and file loader for the ``.ebh`` modelling language.

The grammar is deterministic with one token of lookahead.  ASCII
operator spellings are canonical; the common Unicode forms are accepted
as aliases.  ``//`` starts a line comment.  One context or machine per
file; ``sees``, ``refines``, and ``extends`` references are resolved by
file name in the directory of the referring file.

A token's kind is ``ident``, ``pident`` (primed; the text drops the
prime), ``int`` (decimal digits), ``eof``, or, for a keyword or symbol,
its ASCII spelling, so the parser tests every token by kind alone.

Operator precedence, loosest first (the code reads the binary levels
from the table `formula.BINARY`):

    <=>   (right associative)
    =>    (right associative)
    or
    &
    not
    = /= < <= > >= in   (non associative)
    + -
    *
    unary -

A quantifier body extends as far right as possible; parenthesize the
quantifier when it is an operand.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, TypeVar

from .diagnostics import Diagnostic
from .formula import (
    BINARY,
    COMPARISON_LEVEL,
    COMPARISONS,
    NOT_LEVEL,
    Comparison,
    Falsity,
    Formula,
    Ident,
    IntLiteral,
    IntSet,
    Loc,
    Membership,
    Minus,
    NatSet,
    Not,
    Predicate,
    Quantifier,
    SetLiteral,
    Truth,
    children,
)
from .model import (
    Assignment,
    Context,
    DETERMINISTIC,
    Event,
    Hint,
    INITIALISATION,
    LabeledPredicate,
    MEMBER_OF,
    Machine,
    Model,
    SPLIT_CASE,
    SUCH_THAT,
    USE_HYPOTHESIS,
    Witness,
)

KEYWORDS = frozenset(
    """machine refines sees variables invariants theorems events event
       initialisation any where thm with then hints end use for split case
       using context extends sets constants axioms
       true false not or in exists forall NAT INT""".split()
)

_SYMBOLS = ("<=>", ":=", "::", ":|", "<=", ">=", "/=", "=>",
            "=", "<", ">", "&", "(", ")", "{", "}", ",", ".", "+", "-", "*", ":")

# Unicode aliases, each one character long.
_UNI_SYMBOL = {"≤": "<=", "≥": ">=", "≠": "/=", "⇒": "=>", "⇔": "<=>",
               "≔": ":=", "∧": "&", "·": ".", "−": "-"}
_UNI_KEYWORD = {"∨": "or", "¬": "not", "∈": "in", "ℕ": "NAT", "ℤ": "INT",
                "∃": "exists", "∀": "forall"}

# How deep a formula may nest, in parser levels (brackets, quantifier
# bodies, prefix and right-associative operators) and in tree levels:
# the parser and every formula walker recurse.
MAX_DEPTH = 50

T = TypeVar("T")


class Token(NamedTuple):
    kind: str  # "ident", "pident", "int", "eof", a keyword, or a symbol
    text: str
    loc: Loc


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


def _err(message: str, loc: Loc, path: str, code: str = "syntax") -> ParseError:
    return ParseError(Diagnostic(code, message, loc, path))


# Equal positions share one immutable Loc: parsed trees keep a Loc on
# every node, and most positions recur across the texts one process
# parses.
_loc = lru_cache(maxsize=1 << 16)(Loc)


def lex(text: str, path: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)

    def loc() -> Loc:
        return _loc(line, col)

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
            # ℕ and ℤ are alphabetic, so they arrive here rather than
            # in the single-character branches below.
            word = _UNI_KEYWORD.get(word, word)
            if word in KEYWORDS:
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
    tokens.append(Token("eof", "", _loc(line, col)))
    return tokens


# Each binary precedence level's operators by token text, as (node
# class, groups to the right); ``or`` is a keyword, the rest symbols.
_LEVELS: dict[int, dict[str, tuple[type, bool]]] = {
    level: {op.spelling: (cls, op.right) for cls, op in BINARY.items() if op.level == level}
    for level in {op.level for op in BINARY.values()}
}
_LOOSEST = min(_LEVELS)
_RELATIONS = frozenset({*COMPARISONS, "in"})  # the kinds `_comparison` reads
# the keywords that are a formula on their own
_CONSTANTS = {"true": Truth, "false": Falsity, "NAT": NatSet, "INT": IntSet}


class Parser:
    def __init__(self, tokens: list[Token], path: str):
        self.tokens = tokens
        self.pos = 0
        self.path = path
        self.depth = 0

    # -- token plumbing -------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self.tokens[self.pos].kind in kinds

    def take(self, kind: str) -> bool:
        if self.at(kind):
            self.pos += 1
            return True
        return False

    def fail(self, message: str) -> ParseError:
        return _err(message, self.peek().loc, self.path)

    def expect(self, kind: str, what: str | None = None) -> Token:
        """The next token, which must be of ``kind``; the error message
        names it as ``what``, or else quotes the kind."""
        if not self.at(kind):
            found = self.peek().text or "end of file"
            raise self.fail(f"expected {what or repr(kind)}, found {found!r}")
        return self.advance()

    # -- sections -----------------------------------------------------------

    def ident_list(self, what: str, allow_primed: bool = False) -> list[Token]:
        """One or more identifiers; commas between them are optional."""
        kinds = ("ident", "pident") if allow_primed else ("ident",)
        if not self.at(*kinds):
            raise self.fail(f"expected {what}")
        out = [self.advance()]
        while self.at(",", *kinds):
            if self.take(",") and not self.at(*kinds):
                raise self.fail(f"expected {what} after ','")
            out.append(self.advance())
        return out

    def names(self, keyword: str, what: str) -> tuple[str, ...]:
        """The identifier list after an optional section ``keyword``."""
        return tuple(t.text for t in self.ident_list(what)) if self.take(keyword) else ()

    def items(self, keyword: str, item: Callable[[], T], *starts: str) -> tuple[T, ...]:
        """After an optional section ``keyword``, every ``item`` that
        starts with a token of one of the kinds ``starts``."""
        out = []
        if self.take(keyword):
            while self.at(*starts):
                out.append(item())
        return tuple(out)

    # -- formulas ---------------------------------------------------------

    def formula(self) -> Formula:
        start = self.pos
        f = self._binary(_LOOSEST)
        # a tree has no more nodes than tokens, so only a long formula
        # can be too deep
        if self.depth == 0 and self.pos - start > MAX_DEPTH:
            level = [f]
            for _ in range(MAX_DEPTH):
                level = [c for node in level for c in children(node)]
            if level:
                raise _err(f"formula nested deeper than {MAX_DEPTH} levels", level[0].loc, self.path)
        return f

    def _nested(self, parse, *args) -> Formula:
        """Parse one level deeper, opened by the token just taken."""
        if self.depth == MAX_DEPTH:
            opener = self.tokens[self.pos - 1]
            raise _err(f"formula nested deeper than {MAX_DEPTH} levels", opener.loc, self.path)
        self.depth += 1
        f = parse(*args)
        self.depth -= 1
        return f

    def _binary(self, level: int) -> Formula:
        """The operators of ``level`` in `formula.BINARY` and every
        tighter level."""
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

    def _not(self) -> Formula:
        if self.at("not"):
            loc = self.advance().loc
            return Not(self._nested(self._not), loc=loc)
        return self._comparison()

    def _comparison(self) -> Formula:
        left = self._binary(COMPARISON_LEVEL + 1)
        tok = self.peek()
        if tok.kind not in _RELATIONS:
            return left
        self.advance()
        right = self._binary(COMPARISON_LEVEL + 1)
        if self.peek().kind in _RELATIONS:
            raise self.fail("comparisons are non-associative; add parentheses")
        if tok.kind == "in":
            return Membership(left, right, loc=tok.loc)
        return Comparison(tok.kind, left, right, loc=tok.loc)

    def _unary(self) -> Formula:
        if self.at("-"):
            loc = self.advance().loc
            literal = self.peek().kind == "int"
            operand = self._nested(self._unary)
            # fold "-" and an integer token into a negative literal, which
            # prints back verbatim; "-(3)" and "--3" stay a Minus
            if literal:
                return IntLiteral(-operand.value, loc=loc)
            return Minus(operand, loc=loc)
        return self._primary()

    def _primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            try:
                return IntLiteral(int(tok.text), loc=tok.loc)
            except ValueError:  # longer than Python converts
                raise _err(f"integer literal of {len(tok.text)} digits is too long", tok.loc, self.path) from None
        if tok.kind == "ident":
            self.advance()
            return Ident(tok.text, loc=tok.loc)
        if tok.kind == "pident":
            self.advance()
            return Ident(tok.text, primed=True, loc=tok.loc)
        if tok.kind in _CONSTANTS:
            self.advance()
            return _CONSTANTS[tok.kind](loc=tok.loc)
        if tok.kind in ("exists", "forall"):
            self.advance()
            binders = tuple(
                Ident(t.text, primed=(t.kind == "pident"), loc=t.loc)
                for t in self.ident_list("bound identifier", allow_primed=True)
            )
            self.expect(".", "'.' after quantifier binders")
            return Quantifier(tok.text, binders, self._nested(self.formula), loc=tok.loc)
        if tok.kind == "(":
            self.advance()
            inner = self._nested(self.formula)
            self.expect(")")
            return inner
        if tok.kind == "{":
            self.advance()
            elements = [self._nested(self.formula)]
            while self.at(","):
                self.advance()
                elements.append(self._nested(self.formula))
            self.expect("}")
            return SetLiteral(tuple(elements), loc=tok.loc)
        found = tok.text or "end of file"
        raise self.fail(f"expected an expression or predicate, found {found!r}")

    # -- section items ----------------------------------------------------------

    def labeled(self) -> LabeledPredicate:
        label = self.advance()
        self.expect(":", "':' after label")
        return LabeledPredicate(label.text, self.formula(), loc=label.loc)

    def witness(self) -> Witness:
        sub = self.advance()
        self.expect(":", "':' after witness subject")
        subject = Ident(sub.text, primed=(sub.kind == "pident"), loc=sub.loc)
        return Witness(subject, self.formula(), loc=sub.loc)

    # -- events -------------------------------------------------------------

    def event(self) -> Event:
        tok = self.peek()
        if self.take("initialisation"):
            name = INITIALISATION
        else:
            self.expect("event")
            name_tok = self.expect("ident", "event name")
            name = name_tok.text
            if name == INITIALISATION:
                message = f"{INITIALISATION!r} is reserved for the initialisation event"
                raise _err(message, name_tok.loc, self.path, "reserved-name")
        refines = self.names("refines", "abstract event name")
        parameters = self.names("any", "parameter")
        guards = self.items("where", self.labeled, "ident")
        guard_theorems = self.items("thm", self.labeled, "ident")
        witnesses = self.items("with", self.witness, "ident", "pident")
        actions = self.items("then", self.action, "ident")
        hints = self.items("hints", self.hint, "use", "split")
        self.expect("end")
        return Event(
            name,
            refines=refines,
            parameters=parameters,
            guards=guards,
            guard_theorems=guard_theorems,
            witnesses=witnesses,
            actions=actions,
            hints=hints,
            loc=tok.loc,
        )

    def action(self) -> Assignment:
        label = self.expect("ident", "action label")
        self.expect(":", "':' after action label")
        targets = [t.text for t in self.ident_list("assignment target")]
        tok = self.peek()
        if tok.kind == ":=":
            kind = DETERMINISTIC
        elif tok.kind == "::":
            kind = MEMBER_OF
        elif tok.kind == ":|":
            kind = SUCH_THAT
        else:
            raise self.fail("expected ':=', '::' or ':|'")
        self.advance()
        if kind != SUCH_THAT and len(targets) != 1:
            raise _err(f"'{tok.kind}' takes exactly one target", tok.loc, self.path)
        return Assignment(label.text, kind, tuple(targets), self.formula(), loc=label.loc)

    def hint(self) -> Hint:
        tok = self.peek()
        if self.take("use"):
            label = self.expect("ident", "hypothesis label").text
            self.expect("for")
            target = self.expect("ident", "invariant label").text
            return Hint(USE_HYPOTHESIS, target, label=label, loc=tok.loc)
        self.expect("split")
        self.expect("case")
        self.expect("using")
        predicate = self.formula()
        self.expect("for")
        target = self.expect("ident", "invariant label").text
        return Hint(SPLIT_CASE, target, predicate=predicate, loc=tok.loc)

    # -- machine and context --------------------------------------------------

    def machine(self) -> Machine:
        loc = self.expect("machine").loc
        name = self.expect("ident", "machine name").text
        refines = self.expect("ident", "machine name").text if self.take("refines") else None
        sees = self.expect("ident", "context name").text if self.take("sees") else None
        variables = self.names("variables", "variable")
        invariants = self.items("invariants", self.labeled, "ident")
        theorems = self.items("theorems", self.labeled, "ident")
        events: list[Event] = []
        initialisation: Event | None = None
        if self.take("events"):
            while self.at("event", "initialisation"):
                e = self.event()
                if not e.is_initialisation:
                    events.append(e)
                elif initialisation is None:
                    initialisation = e
                else:
                    raise _err("duplicate initialisation event", e.loc, self.path)
        self.expect("end")
        return Machine(
            name,
            refines=refines,
            sees=sees,
            variables=variables,
            invariants=invariants,
            theorems=theorems,
            events=tuple(events),
            initialisation=initialisation,
            loc=loc,
        )

    def context(self) -> Context:
        loc = self.expect("context").loc
        name = self.expect("ident", "context name").text
        extends = self.expect("ident", "context name").text if self.take("extends") else None
        sets = self.names("sets", "carrier set name")
        constants = self.names("constants", "constant name")
        axioms = self.items("axioms", self.labeled, "ident")
        theorems = self.items("theorems", self.labeled, "ident")
        self.expect("end")
        return Context(
            name,
            extends=extends,
            sets=sets,
            constants=constants,
            axioms=axioms,
            theorems=theorems,
            loc=loc,
        )

    def component(self) -> Machine | Context:
        if self.at("machine"):
            out: Machine | Context = self.machine()
        elif self.at("context"):
            out = self.context()
        else:
            raise self.fail("expected 'machine' or 'context'")
        self.expect("eof", "end of file (one component per file)")
        return out


# --- public API ----------------------------------------------------------


def parse_source(text: str, path: str = "<string>") -> Machine | Context:
    """Parse one machine or context.  Raises :class:`ParseError`."""
    return Parser(lex(text, path), path).component()


def try_parse(text: str, path: str = "<string>") -> tuple[Machine | Context | None, list[Diagnostic]]:
    """Like :func:`parse_source` but collects diagnostics instead of raising."""
    try:
        return parse_source(text, path), []
    except ParseError as e:
        return None, [e.diagnostic]


def parse_predicate(text: str) -> Predicate:
    """Parse a standalone predicate or expression (handy in tests and tools)."""
    parser = Parser(lex(text, "<predicate>"), "<predicate>")
    f = parser.formula()
    parser.expect("eof", "end of input")
    return f


# --- file loading -----------------------------------------------------------


def _ref_diag(code: str, message: str, path: str) -> Diagnostic:
    return Diagnostic(code, message, None, path)


def _read(path: Path) -> str:
    """The text of a model file; a file that is not UTF-8 raises
    ``OSError`` like one that cannot be read."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise OSError(f"{path}: not a UTF-8 text file ({e.reason} at byte {e.start})") from e


class _Loader:
    """Resolves sees / refines / extends by file name, with cycle detection."""

    def __init__(self):
        self.cache: dict[Path, Machine | Context | None] = {}
        self.diagnostics: list[Diagnostic] = []

    def parse_file(self, path: Path) -> Machine | Context | None:
        path = path.resolve()
        if path in self.cache:
            return self.cache[path]
        try:
            text = _read(path)
        except OSError as e:
            self.diagnostics.append(_ref_diag("unresolved-reference", str(e), str(path)))
            self.cache[path] = None
            return None
        component, diags = try_parse(text, str(path))
        self.diagnostics.extend(diags)
        self.cache[path] = component
        return component

    def resolve(self, directory: Path, name: str, want: type, referrer: str) -> Machine | Context | None:
        target = directory / f"{name}.ebh"
        if not target.is_file():
            kind = "machine" if want is Machine else "context"
            self.diagnostics.append(
                _ref_diag(
                    "unresolved-reference",
                    f"cannot resolve {kind} '{name}': no file {target.name} next to it",
                    referrer,
                )
            )
            return None
        component = self.parse_file(target)
        if component is None:
            return None
        if not isinstance(component, want):
            self.diagnostics.append(
                _ref_diag("unresolved-reference", f"{target.name} does not contain a {want.__name__.lower()}", referrer)
            )
            return None
        if component.name != name:
            self.diagnostics.append(
                _ref_diag(
                    "name-mismatch",
                    f"{target.name} declares '{component.name}', expected '{name}'",
                    referrer,
                )
            )
            return None
        return component

    def context_chain(self, directory: Path, name: str, referrer: str, seen: tuple[str, ...] = ()) -> list[Context]:
        if name in seen:
            self.diagnostics.append(
                _ref_diag("circular-reference", f"circular extends chain through '{name}'", referrer)
            )
            return []
        ctx = self.resolve(directory, name, Context, referrer)
        if ctx is None:
            return []
        chain: list[Context] = []
        if ctx.extends:
            chain = self.context_chain(directory, ctx.extends, str(directory / f"{name}.ebh"), seen + (name,))
        chain.append(ctx)
        return chain

    def model(self, machine: Machine, directory: Path, referrer: str, seen: tuple[str, ...] = ()) -> Model:
        abstract: Model | None = None
        if machine.refines:
            if machine.refines in seen:
                self.diagnostics.append(
                    _ref_diag("circular-reference", f"circular refinement through '{machine.refines}'", referrer)
                )
            else:
                parent = self.resolve(directory, machine.refines, Machine, referrer)
                if parent is not None:
                    abstract = self.model(
                        parent, directory, str(directory / f"{machine.refines}.ebh"), seen + (machine.name,)
                    )
        contexts: list[Context] = list(abstract.contexts) if abstract else []
        if machine.sees:
            for ctx in self.context_chain(directory, machine.sees, referrer):
                if all(c.name != ctx.name for c in contexts):
                    contexts.append(ctx)
        return Model(machine, tuple(contexts), abstract)


def load_model(path: str | Path) -> tuple[Model | None, list[Diagnostic]]:
    """Load a machine or context file together with everything it references.

    A context file is wrapped in a model whose machine is empty and named
    after the context, so checking and theorem-obligation generation work
    uniformly.  Problems in referenced files become diagnostics; an
    unreadable or non-UTF-8 ``path`` itself raises ``OSError``.
    """
    p = Path(path)
    text = _read(p)
    component, diags = try_parse(text, str(p))
    if component is None:
        return None, diags
    loader = _Loader()
    loader.cache[p.resolve()] = component
    if isinstance(component, Context):
        chain: list[Context] = []
        if component.extends:
            chain = loader.context_chain(p.parent, component.extends, str(p))
        chain.append(component)
        model = Model(Machine(name=component.name), tuple(chain), None)
        return (model if not loader.diagnostics else None), diags + loader.diagnostics
    model = loader.model(component, p.parent, str(p))
    if loader.diagnostics:
        return None, diags + loader.diagnostics
    return model, []
