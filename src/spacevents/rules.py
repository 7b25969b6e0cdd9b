"""The declarative rule language: trigger token patterns plus slot paths.

A rule file is plain text (``#`` starts a comment)::

    rule launch-active-obj {
      event: LAUNCH
      tier: high
      trigger: [lemma=launch]
      slot SatelliteName required {
        path: >dobj|obj >compound?
        filler: entity(SPACECRAFT)
      }
      slot Date optional {
        path: >nmod|obl
        filler: entity(DATE)
      }
    }

Triggers are sequences of bracketed token patterns matched against
contiguous token runs.  Inside a bracket, atoms test one field
(``surface``, ``lemma``, ``pos``, ``ner``) against one or more literals
(``lemma=fail|failure``), combine with ``&``, alternate with ``|``, and
negate with ``!``.  Every alternative must keep at least one positive
``surface`` or ``lemma`` atom so the trigger stays indexable.  ``Rule``
checks this, its event type and tier, that its event type's schema names
each slot, and the slot and tier rules below on construction; ``Atom``
checks its field and ``SlotPattern`` its path.  Rules built in code are
therefore validated like parsed ones, and the parser reports each such
error at the line and column of the construct.

Slot paths walk dependency edges from the trigger: ``>label`` follows an
outgoing edge, ``<label`` the incoming one, labels alternate with ``|``,
and a trailing ``?`` makes the step optional.  Fillers are either typed
entity mentions or noun-phrase chunks; ``high`` tier rules must use
entity fillers everywhere and must mark the event's anchor slot required.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .documents import text_lines
from .errors import RuleError
from .schemas import ANCHOR_SLOTS, EVENT_TYPES, SCHEMAS

FIELDS = ("surface", "lemma", "pos", "ner")
TIERS = ("high", "backoff")


@dataclass(frozen=True)
class Atom:
    field: str
    values: tuple[str, ...]
    negated: bool = False

    def __post_init__(self):
        if self.field not in FIELDS:
            raise RuleError(
                f"unknown field {self.field!r} (expected one of {', '.join(FIELDS)})"
            )

    @property
    def indexable(self) -> bool:
        """Whether the index can list every sentence this atom can match."""
        return not self.negated and self.field in ("surface", "lemma")


@dataclass(frozen=True)
class TokenPattern:
    # disjunction of conjunctions of atoms
    branches: tuple[tuple[Atom, ...], ...]


@dataclass(frozen=True)
class DepPathStep:
    direction: str  # "out" or "in"
    labels: tuple[str, ...]
    optional: bool = False


@dataclass(frozen=True)
class SlotPattern:
    name: str
    path: tuple[DepPathStep, ...]
    entity_types: tuple[str, ...] | None  # None means chunk filler
    required: bool

    def __post_init__(self):
        if not self.path:
            raise RuleError(f"slot {self.name!r} needs at least one path step")

    @property
    def is_chunk(self) -> bool:
        return self.entity_types is None


@dataclass(frozen=True)
class Rule:
    """One rule, validated on construction; an invalid rule raises ``RuleError``."""

    name: str
    event_type: str
    tier: str
    trigger: tuple[TokenPattern, ...]
    slots: tuple[SlotPattern, ...]

    def __post_init__(self):
        if self.event_type not in EVENT_TYPES:
            raise RuleError(f"unknown event type {self.event_type!r}")
        if self.tier not in TIERS:
            raise RuleError(
                f"tier must be one of {'/'.join(TIERS)}, found {self.tier!r}"
            )
        if not self.trigger:
            raise RuleError(
                f"rule {self.name!r}: trigger needs at least one [token pattern]"
            )
        for pattern in self.trigger:
            for branch in pattern.branches:
                if all(atom.negated for atom in branch):
                    raise RuleError(
                        f"rule {self.name!r}: trigger alternative has no positive atom"
                    )
                if not any(atom.indexable for atom in branch):
                    raise RuleError(
                        f"rule {self.name!r}: trigger is not indexable "
                        "(every alternative needs a positive surface or lemma atom)"
                    )
        seen_slots: set[str] = set()
        for slot in self.slots:
            if slot.name in seen_slots:
                raise RuleError(f"rule {self.name!r}: duplicate slot {slot.name!r}")
            seen_slots.add(slot.name)
        names = SCHEMAS[self.event_type].slot_names()
        for slot in self.slots:
            if slot.name not in names:
                raise RuleError(
                    f"rule {self.name!r}: {self.event_type} has no slot {slot.name!r} "
                    f"(expected one of {', '.join(names)})"
                )
        if self.tier == "high":
            for slot in self.slots:
                if slot.is_chunk:
                    raise RuleError(
                        f"rule {self.name!r}: high tier requires entity fillers, "
                        f"slot {slot.name!r} uses a chunk"
                    )
            anchors = ANCHOR_SLOTS[self.event_type]
            required = {slot.name for slot in self.slots if slot.required}
            if not required.intersection(anchors):
                raise RuleError(
                    f"rule {self.name!r}: high tier must require one of "
                    f"{', '.join(anchors)} for {self.event_type}"
                )


# ---------------------------------------------------------------------------
# lexer

# One alternative per token kind; ``other`` takes any character no kind does.
_TOKEN = re.compile(
    r'(?P<blank>[ \t\r]+)|(?P<comment>#[^\n]*)|(?P<newline>\n)|"(?P<string>[^"\n]*)"'
    # ':' joins words, keeping multi-part dependency labels like nmod:tmod whole
    r"|(?P<word>[A-Za-z0-9_.'-]+(?::[A-Za-z0-9_.'-]+)*)"
    r"|(?P<punct>[{}\[\]()&|!=<>?,:])|(?P<other>.)"
)


class _Tok:
    __slots__ = ("kind", "value", "line", "col")  # kind: "word", "string", "punct", "eof"

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind, self.value, self.line, self.col = kind, value, line, col


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start, end = 1, 0, len(text)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        col = m.start() - line_start + 1
        if kind in ("word", "string", "punct"):
            toks.append(_Tok(kind, m[kind], line, col))
        elif kind == "other":
            if m[0] == '"':
                raise RuleError("unterminated string literal", line=line, col=col)
            raise RuleError(f"unexpected character {m[0]!r}", line=line, col=col)
        elif kind == "comment" and m.end() == len(text):
            end = m.start()  # a text that ends in a comment ends at its '#'
    toks.append(_Tok("eof", "", line, end - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# parser


def _at(tok: _Tok, message: str) -> RuleError:
    return RuleError(message, line=tok.line, col=tok.col)


def _build(tok: _Tok, cls, **fields):
    """Construct a rule-language object, reporting its own ``RuleError`` at ``tok``."""
    try:
        return cls(**fields)
    except RuleError as exc:
        raise _at(tok, str(exc)) from None


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self._toks = toks
        self._pos = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self._toks[min(self._pos + ahead, len(self._toks) - 1)]

    def advance(self) -> _Tok:
        tok = self._toks[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def at_punct(self, ch: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == "punct" and tok.value == ch

    def accept(self, ch: str) -> bool:
        """Consume the punctuation ``ch`` if it comes next."""
        tok = self._toks[self._pos]
        if tok.kind == "punct" and tok.value == ch:
            self._pos += 1
            return True
        return False

    def expect_punct(self, ch: str) -> None:
        tok = self.advance()
        if tok.kind != "punct" or tok.value != ch:
            raise _at(tok, f"expected {ch!r}, found {tok.value!r}")

    def expect_keyword(self, word: str) -> _Tok:
        tok = self.advance()
        if tok.kind != "word" or tok.value != word:
            raise _at(tok, f"expected {word!r}, found {tok.value!r}")
        return tok

    def expect_word(self, what: str) -> _Tok:
        tok = self.advance()
        if tok.kind != "word":
            raise _at(tok, f"expected {what}, found {tok.value!r}")
        return tok

    def separated(self, sep: str, item) -> tuple:
        """One or more ``item()`` results, separated by the punctuation ``sep``."""
        items = [item()]
        while self.accept(sep):
            items.append(item())
        return tuple(items)

    def parse_ruleset(self) -> list[Rule]:
        rules: list[Rule] = []
        seen: set[str] = set()
        while self.peek().kind != "eof":
            kw = self.peek()
            rule = self.parse_rule()
            if rule.name in seen:
                raise _at(kw, f"duplicate rule name {rule.name!r}")
            seen.add(rule.name)
            rules.append(rule)
        return rules

    def parse_rule(self) -> Rule:
        kw = self.expect_keyword("rule")
        name = self.expect_word("rule name").value
        self.expect_punct("{")
        header: dict[str, object] = {}
        slots: list[SlotPattern] = []
        while not self.at_punct("}"):
            clause = self.expect_word("clause")
            if clause.value == "slot":
                slots.append(self.parse_slot())
                continue
            if clause.value not in ("event", "tier", "trigger"):
                raise _at(clause, f"unknown clause {clause.value!r} in rule {name!r}")
            if clause.value in header:
                raise _at(clause, f"rule {name!r}: duplicate {clause.value} clause")
            self.expect_punct(":")
            if clause.value == "event":
                header["event"] = self.expect_word("event type").value
            elif clause.value == "tier":
                header["tier"] = self.expect_word("tier").value
            else:
                header["trigger"] = self.parse_trigger()
        self.expect_punct("}")
        for label in ("event", "tier", "trigger"):
            if label not in header:
                raise _at(kw, f"rule {name!r} is missing its {label} clause")
        return _build(
            kw,
            Rule,
            name=name,
            event_type=header["event"],
            tier=header["tier"],
            trigger=header["trigger"],
            slots=tuple(slots),
        )

    def parse_trigger(self) -> tuple[TokenPattern, ...]:
        if not self.at_punct("["):
            raise _at(self.peek(), "trigger needs at least one [token pattern]")
        patterns = []
        while self.at_punct("["):
            self.advance()
            branches = self.separated("|", lambda: self.separated("&", self.parse_atom))
            self.expect_punct("]")
            patterns.append(TokenPattern(branches=branches))
        return tuple(patterns)

    def parse_atom(self) -> Atom:
        negated = self.accept("!")
        field = self.expect_word("field name")
        self.expect_punct("=")
        values = [self.parse_literal()]
        # a '|' continues this atom's literal alternation unless what follows
        # is shaped like a new atom (optionally negated field=...)
        while self.at_punct("|") and not self._next_starts_atom():
            self.advance()
            values.append(self.parse_literal())
        return _build(field, Atom, field=field.value, values=tuple(values), negated=negated)

    def _next_starts_atom(self) -> bool:
        return self.at_punct("!", 1) or (self.peek(1).kind == "word" and self.at_punct("=", 2))

    def parse_literal(self) -> str:
        tok = self.advance()
        if tok.kind not in ("word", "string"):
            raise _at(tok, f"expected literal, found {tok.value!r}")
        return tok.value

    def parse_slot(self) -> SlotPattern:
        name = self.expect_word("slot name")
        mode = self.expect_word("'required' or 'optional'")
        if mode.value not in ("required", "optional"):
            raise _at(mode, f"slot {name.value!r} must be marked required or optional")
        self.expect_punct("{")
        self.expect_keyword("path")
        self.expect_punct(":")
        steps: list[DepPathStep] = []
        while self.at_punct(">") or self.at_punct("<"):
            direction = "out" if self.advance().value == ">" else "in"
            labels = self.separated("|", lambda: self.expect_word("dependency label").value)
            steps.append(DepPathStep(direction, labels, optional=self.accept("?")))
        self.expect_keyword("filler")
        self.expect_punct(":")
        kind = self.expect_word("'entity' or 'chunk'")
        if kind.value == "chunk":
            entity_types: tuple[str, ...] | None = None
        elif kind.value == "entity":
            self.expect_punct("(")
            entity_types = self.separated(",", lambda: self.expect_word("entity type").value)
            self.expect_punct(")")
        else:
            raise _at(kind, f"filler must be entity(...) or chunk, found {kind.value!r}")
        self.expect_punct("}")
        return _build(
            name,
            SlotPattern,
            name=name.value,
            path=tuple(steps),
            entity_types=entity_types,
            required=mode.value == "required",
        )


def parse_rules(source) -> list[Rule]:
    """Parse a rule file (string, file-like or line iterable) into validated Rule objects.

    A line ends at ``\n``, ``\r\n`` or a lone ``\r``, as ``text_lines``
    reads a string or a line iterable, so errors name the same line however
    the file was read.
    """
    if hasattr(source, "read"):
        source = source.read()
    return _Parser(_lex("\n".join(text_lines(source)))).parse_ruleset()
