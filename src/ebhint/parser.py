"""Lexer, parser, and file loader for the ``.ebh`` modelling language.

The grammar is deterministic with one token of lookahead.  ASCII
operator spellings are canonical; the common Unicode forms are accepted
as aliases.  ``//`` starts a line comment.  One context or machine per
file; ``sees``, ``refines``, and ``extends`` references are resolved by
file name in the directory of the referring file.

Each token is one match of one pattern.  Its kind is ``ident``, ``pident``
(primed; the text drops the prime), ``int`` (decimal digits), ``eof``, or,
for a keyword or symbol, its ASCII spelling: the parser reads kinds alone.

Operator precedence, loosest first; binary operators are parsed by
precedence climbing over the table `formula.BINARY`:

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

import os
import re
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, NamedTuple, TypeVar

from .diagnostics import Diagnostic
from .formula import (
    BINARY,
    COMPARISON_LEVEL,
    COMPARISONS,
    CONSTANTS,
    NOT_LEVEL,
    Comparison,
    Formula,
    Ident,
    IntLiteral,
    Loc,
    Membership,
    Minus,
    Not,
    Predicate,
    Quantifier,
    SetLiteral,
    children,
)
from .model import (
    ASSIGNMENT_OPERATORS,
    Assignment,
    Context,
    Event,
    Hint,
    INITIALISATION,
    LabeledPredicate,
    Machine,
    Model,
    SPLIT_CASE,
    SUCH_THAT,
    USE_HYPOTHESIS,
    Witness,
)
from .record import replace

KEYWORDS = frozenset(
    """machine refines sees variables invariants theorems events event
       initialisation any where thm with then hints end use for split case
       using context extends sets constants axioms
       true false not or in exists forall NAT INT""".split()
)

# A word's token kind when it is a keyword; ℕ and ℤ are words too.
_WORD_KINDS = {**{k: k for k in KEYWORDS}, "ℕ": "NAT", "ℤ": "INT"}

# The other Unicode aliases, by ASCII spelling.
_ALIASES = {"≤": "<=", "≥": ">=", "≠": "/=", "⇒": "=>", "⇔": "<=>", "≔": ":=", "∧": "&", "·": ".",
            "−": "-", ":∈": "::", "∨": "or", "¬": "not", "∈": "in", "∃": "exists", "∀": "forall"}

# One token of a line with its comment cut off, after any blanks; the group
# that matched names the kind.  ``\d`` is `str.isdecimal`, ``\w`` `str.isalnum`
# or ``_``.  Most words start with an ASCII letter or ``_`` and have no prime;
# any other, such as ``x'``, ``é`` or ``²`` (not a letter), is an _OTHER_WORD.
_WORD, _INT, _SYMBOL, _OTHER_WORD, _OTHER = 1, 2, 3, 4, 5
_TOKEN = re.compile(
    r"[ \t\r]*(?:([A-Za-z_]\w*)(?![\w'])|(\d+)"
    r"|(<=>|:=|::|:\||<=|>=|/=|=>|[=<>&(){},.+\-*]|:(?!∈))"
    r"|([^\W\d]\w*'*)|(:∈|[^ \t\r]))"
)

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
# Token(kind, text, loc) without a Python-level call
_token = partial(tuple.__new__, Token)


def lex(text: str, path: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    finditer = _TOKEN.finditer
    for lineno, line in enumerate(text.split("\n"), 1):
        cut = line.find("//")
        if cut >= 0:  # no token contains "//"
            line = line[:cut]
        for m in finditer(line):
            group = m.lastindex
            s = m[group]
            here = _loc(lineno, m.start(group) + 1)
            if group == _WORD:
                kind = _WORD_KINDS.get(s)
                append(_token(("ident", s, here) if kind is None else (kind, kind, here)))
            elif group == _INT:
                append(_token(("int", s, here)))
            elif group == _SYMBOL:
                append(_token((s, s, here)))
            elif group == _OTHER:
                sym = _ALIASES.get(s)
                if sym is None:
                    raise _err(f"unexpected character {s!r}", here, path)
                append(_token((sym, sym, here)))
            else:  # _OTHER_WORD
                append(_token(_other_word(s, here, path)))
    # comment text counts for no column: the end is where it starts
    append(Token("eof", "", _loc(lineno, len(line) + 1)))
    return tokens


def _other_word(word: str, here: Loc, path: str) -> tuple[str, str, Loc]:
    """The token of a primed or non-ASCII word, as (kind, text, loc)."""
    if not word[0].isalpha() and word[0] != "_":
        raise _err(f"unexpected character {word[0]!r}", here, path)
    name = word.rstrip("'")
    kind = _WORD_KINDS.get(name)
    if kind is not None and name != word:  # a keyword, then a stray prime
        raise _err("unexpected character \"'\"", Loc(here.line, here.column + len(name)), path)
    if len(word) - len(name) > 1:
        raise _err(f"doubly primed identifier {name!r}", here, path)
    if kind is not None:
        return kind, kind, here
    return ("ident" if name == word else "pident"), name, here


# The binary operators by token kind, as (node class, precedence level,
# groups to the right); ``or`` is a keyword, the rest symbols.
_BINARY = {op.spelling: (cls, op.level, op.right) for cls, op in BINARY.items()}
_LOOSEST = min(op.level for op in BINARY.values())
_RELATIONS = frozenset({*COMPARISONS, "in"})  # the kinds `_comparison` reads
# `formula.CONSTANTS` and `model.ASSIGNMENT_OPERATORS` by token kind
_CONSTANTS = {keyword: cls for cls, keyword in CONSTANTS.items()}
_ASSIGNMENTS = {op: kind for kind, op in ASSIGNMENT_OPERATORS.items()}


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

    def names(self, keyword: str, what: str) -> tuple[tuple[str, ...], tuple[Loc, ...]]:
        """The identifier list after an optional section ``keyword``, and their positions."""
        tokens = self.ident_list(what) if self.take(keyword) else []
        return tuple(t.text for t in tokens), tuple(t.loc for t in tokens)

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
        tighter level, by precedence climbing."""
        left = self._not() if level <= NOT_LEVEL else self._unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            op = _BINARY.get(tok.kind)
            if op is None or op[1] < level:
                return left
            cls, op_level, right = op
            self.pos += 1
            if right:
                left = cls(left, self._nested(self._binary, op_level), loc=tok.loc)
            else:
                left = cls(left, self._binary(op_level + 1), loc=tok.loc)

    def _not(self) -> Formula:
        if self.tokens[self.pos].kind == "not":
            loc = self.advance().loc
            return Not(self._nested(self._not), loc=loc)
        return self._comparison()

    def _comparison(self) -> Formula:
        left = self._binary(COMPARISON_LEVEL + 1)
        tok = self.tokens[self.pos]
        if tok.kind not in _RELATIONS:
            return left
        self.pos += 1
        right = self._binary(COMPARISON_LEVEL + 1)
        if self.tokens[self.pos].kind in _RELATIONS:
            raise self.fail("comparisons are non-associative; add parentheses")
        if tok.kind == "in":
            return Membership(left, right, loc=tok.loc)
        return Comparison(tok.kind, left, right, loc=tok.loc)

    def _unary(self) -> Formula:
        if self.tokens[self.pos].kind == "-":
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
        tok = self.tokens[self.pos]
        if tok.kind == "ident":
            self.pos += 1
            return Ident(tok.text, loc=tok.loc)
        if tok.kind == "int":
            self.pos += 1
            try:
                return IntLiteral(int(tok.text), loc=tok.loc)
            except ValueError:  # longer than Python converts
                raise _err(f"integer literal of {len(tok.text)} digits is too long", tok.loc, self.path) from None
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
        refines, _ = self.names("refines", "abstract event name")
        parameters, parameter_locs = self.names("any", "parameter")
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
            parameter_locs=parameter_locs,
        )

    def action(self) -> Assignment:
        label = self.expect("ident", "action label")
        self.expect(":", "':' after action label")
        targets = [t.text for t in self.ident_list("assignment target")]
        tok = self.peek()
        kind = _ASSIGNMENTS.get(tok.kind)
        if kind is None:
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
        variables, variable_locs = self.names("variables", "variable")
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
            variable_locs=variable_locs,
        )

    def context(self) -> Context:
        loc = self.expect("context").loc
        name = self.expect("ident", "context name").text
        extends = self.expect("ident", "context name").text if self.take("extends") else None
        sets, set_locs = self.names("sets", "carrier set name")
        constants, constant_locs = self.names("constants", "constant name")
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
            set_locs=set_locs,
            constant_locs=constant_locs,
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


class Loader:
    """Resolves sees / refines / extends by file name, with cycle
    detection.  One loader can serve several `load_model` calls and
    parses each file once across them."""

    def __init__(self):
        self.parses: dict[Path, tuple[Machine | Context | None, list[Diagnostic]]] = {}
        self.diagnostics: list[Diagnostic] = []  # of the load in progress

    def parse(self, path: Path, spelling: str) -> tuple[Machine | Context | None, list[Diagnostic]]:
        """The file's component and parse diagnostics, carrying
        ``spelling`` as their path; a file that cannot be read raises
        ``OSError``."""
        key = Path(os.path.realpath(path))  # unlike `Path.resolve`, no error on a symlink loop
        if key not in self.parses:
            self.parses[key] = try_parse(_read(path), spelling)
        component, diags = self.parses[key]
        if component is not None:
            component = replace(component, path=spelling)
        return component, [replace(d, path=spelling) for d in diags]

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
        path = target.resolve()
        try:
            component, diags = self.parse(path, str(path))
        except OSError as e:
            component, diags = None, [_ref_diag("unresolved-reference", str(e), str(path))]
        self.diagnostics.extend(diags)
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

    def context_chain(self, directory: Path, name: str | None, referrer: str) -> list[Context]:
        """The context ``name`` after the contexts it extends, up to the
        first one that is circular or does not resolve."""
        chain: list[Context] = []
        seen: set[str] = set()
        while name:
            if name in seen:
                self.diagnostics.append(
                    _ref_diag("circular-reference", f"circular extends chain through '{name}'", referrer)
                )
                break
            seen.add(name)
            ctx = self.resolve(directory, name, Context, referrer)
            if ctx is None:
                break
            chain.append(ctx)
            name, referrer = ctx.extends, ctx.path
        return chain[::-1]

    def model(self, machine: Machine, directory: Path) -> Model:
        """The model of ``machine`` over the machines it refines, up to the
        first one that is circular or does not resolve."""
        levels = [machine]
        seen: set[str] = set()  # the machines above the current one
        while machine.refines:
            if machine.refines in seen:
                self.diagnostics.append(
                    _ref_diag("circular-reference", f"circular refinement through '{machine.refines}'", machine.path)
                )
                break
            seen.add(machine.name)
            parent = self.resolve(directory, machine.refines, Machine, machine.path)
            if parent is None:
                break
            machine = parent
            levels.append(machine)
        model: Model | None = None
        for machine in reversed(levels):  # the contexts from the most abstract level up
            contexts: list[Context] = list(model.contexts) if model else []
            for ctx in self.context_chain(directory, machine.sees, machine.path):
                if all(c.name != ctx.name for c in contexts):
                    contexts.append(ctx)
            model = Model(machine, tuple(contexts), model)
        assert model is not None
        return model


def load_model(path: str | Path, loader: Loader | None = None) -> tuple[Model | None, list[Diagnostic]]:
    """Load a machine or context file together with everything it references.

    Each machine and context read from a file carries it in ``path``:
    ``path`` itself as given for the loaded one, the absolute path for
    the files it references.  A context file is wrapped in a model whose machine
    is empty and named after the context, so checking and
    theorem-obligation generation work uniformly.  Problems in referenced files become diagnostics; an
    unreadable or non-UTF-8 ``path`` itself raises ``OSError``.  Loads
    that share a ``loader`` parse each file once.
    """
    p = Path(path)
    loader = Loader() if loader is None else loader
    component, diags = loader.parse(p, str(p))
    if component is None:
        return None, diags
    loader.diagnostics = []
    if isinstance(component, Context):
        chain = loader.context_chain(p.parent, component.extends, str(p)) + [component]
        model = Model(Machine(name=component.name), tuple(chain), None)
    else:
        model = loader.model(component, p.parent)
    diags = list(dict.fromkeys(loader.diagnostics))  # each once: two levels can walk one chain
    return (None if diags else model), diags
