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
checks this, its event type and tier, and the slot and tier rules below
on construction; ``Atom`` checks its field and ``SlotPattern`` its path.
Rules built in code are therefore validated like parsed ones, and the
parser reports each such error at the line and column of the construct.

Slot paths walk dependency edges from the trigger: ``>label`` follows an
outgoing edge, ``<label`` the incoming one, labels alternate with ``|``,
and a trailing ``?`` makes the step optional.  Fillers are either typed
entity mentions or noun-phrase chunks; ``high`` tier rules must use
entity fillers everywhere and must mark the event's anchor slot required.
"""

from __future__ import annotations

from dataclasses import dataclass

from .documents import text_lines
from .errors import RuleError
from .schemas import ANCHOR_SLOTS, EVENT_TYPES

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

_PUNCT = set("{}[]()&|!=<>?,:")
_WORD = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.'")


class _Tok:
    __slots__ = ("kind", "value", "line", "col")  # kind: "word", "string", "punct", "eof"

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind, self.value, self.line, self.col = kind, value, line, col


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_col = col
            i += 1
            col += 1
            buf = []
            while i < n and text[i] not in '"\n':
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n or text[i] != '"':
                raise RuleError("unterminated string literal", line=line, col=start_col)
            i += 1
            col += 1
            toks.append(_Tok("string", "".join(buf), line, start_col))
            continue
        if ch in _WORD:
            start_col = col
            buf = []
            while i < n:
                c = text[i]
                if c in _WORD:
                    buf.append(c)
                elif c == ":" and i + 1 < n and text[i + 1] in _WORD:
                    # keep multi-part dependency labels like nmod:tmod whole
                    buf.append(c)
                else:
                    break
                i += 1
                col += 1
            toks.append(_Tok("word", "".join(buf), line, start_col))
            continue
        if ch in _PUNCT:
            toks.append(_Tok("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise RuleError(f"unexpected character {ch!r}", line=line, col=col)
    toks.append(_Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# parser


def _build(tok: _Tok, cls, **fields):
    """Construct a rule-language object, reporting its own ``RuleError`` at ``tok``."""
    try:
        return cls(**fields)
    except RuleError as exc:
        raise RuleError(str(exc), line=tok.line, col=tok.col) from None


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

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == ch

    def expect_punct(self, ch: str) -> _Tok:
        tok = self.advance()
        if tok.kind != "punct" or tok.value != ch:
            raise RuleError(
                f"expected {ch!r}, found {tok.value!r}", line=tok.line, col=tok.col
            )
        return tok

    def expect_word(self, what: str = "identifier") -> _Tok:
        tok = self.advance()
        if tok.kind != "word":
            raise RuleError(
                f"expected {what}, found {tok.value!r}", line=tok.line, col=tok.col
            )
        return tok

    def parse_ruleset(self) -> list[Rule]:
        rules: list[Rule] = []
        seen: set[str] = set()
        while self.peek().kind != "eof":
            kw = self.peek()
            rule = self.parse_rule()
            if rule.name in seen:
                raise RuleError(
                    f"duplicate rule name {rule.name!r}", line=kw.line, col=kw.col
                )
            seen.add(rule.name)
            rules.append(rule)
        return rules

    def parse_rule(self) -> Rule:
        kw = self.expect_word("'rule'")
        if kw.value != "rule":
            raise RuleError(
                f"expected 'rule', found {kw.value!r}", line=kw.line, col=kw.col
            )
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
                raise RuleError(
                    f"unknown clause {clause.value!r} in rule {name!r}",
                    line=clause.line,
                    col=clause.col,
                )
            if clause.value in header:
                raise RuleError(
                    f"rule {name!r}: duplicate {clause.value} clause",
                    line=clause.line,
                    col=clause.col,
                )
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
                raise RuleError(
                    f"rule {name!r} is missing its {label} clause",
                    line=kw.line,
                    col=kw.col,
                )
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
            tok = self.peek()
            raise RuleError(
                "trigger needs at least one [token pattern]",
                line=tok.line,
                col=tok.col,
            )
        patterns = []
        while self.at_punct("["):
            patterns.append(self.parse_token_pattern())
        return tuple(patterns)

    def parse_token_pattern(self) -> TokenPattern:
        self.expect_punct("[")
        branches = [self.parse_conjunction()]
        while self.at_punct("|"):
            self.advance()
            branches.append(self.parse_conjunction())
        self.expect_punct("]")
        return TokenPattern(branches=tuple(branches))

    def parse_conjunction(self) -> tuple[Atom, ...]:
        atoms = [self.parse_atom()]
        while self.at_punct("&"):
            self.advance()
            atoms.append(self.parse_atom())
        return tuple(atoms)

    def parse_atom(self) -> Atom:
        negated = False
        if self.at_punct("!"):
            self.advance()
            negated = True
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
        after = self.peek(1)
        if after.kind == "punct" and after.value == "!":
            return True
        return after.kind == "word" and (
            self.peek(2).kind == "punct" and self.peek(2).value == "="
        )

    def parse_literal(self) -> str:
        tok = self.advance()
        if tok.kind not in ("word", "string"):
            raise RuleError(
                f"expected literal, found {tok.value!r}", line=tok.line, col=tok.col
            )
        return tok.value

    def parse_slot(self) -> SlotPattern:
        name = self.expect_word("slot name")
        mode = self.expect_word("'required' or 'optional'")
        if mode.value not in ("required", "optional"):
            raise RuleError(
                f"slot {name.value!r} must be marked required or optional",
                line=mode.line,
                col=mode.col,
            )
        self.expect_punct("{")
        kw = self.expect_word("'path'")
        if kw.value != "path":
            raise RuleError(
                f"expected 'path', found {kw.value!r}", line=kw.line, col=kw.col
            )
        self.expect_punct(":")
        steps: list[DepPathStep] = []
        while self.at_punct(">") or self.at_punct("<"):
            direction = "out" if self.advance().value == ">" else "in"
            labels = [self.expect_word("dependency label").value]
            while self.at_punct("|"):
                self.advance()
                labels.append(self.expect_word("dependency label").value)
            optional = False
            if self.at_punct("?"):
                self.advance()
                optional = True
            steps.append(
                DepPathStep(direction=direction, labels=tuple(labels), optional=optional)
            )
        kw = self.expect_word("'filler'")
        if kw.value != "filler":
            raise RuleError(
                f"expected 'filler', found {kw.value!r}", line=kw.line, col=kw.col
            )
        self.expect_punct(":")
        kind = self.expect_word("'entity' or 'chunk'")
        if kind.value == "chunk":
            entity_types: tuple[str, ...] | None = None
        elif kind.value == "entity":
            self.expect_punct("(")
            types = [self.expect_word("entity type").value]
            while self.at_punct(","):
                self.advance()
                types.append(self.expect_word("entity type").value)
            self.expect_punct(")")
            entity_types = tuple(types)
        else:
            raise RuleError(
                f"filler must be entity(...) or chunk, found {kind.value!r}",
                line=kind.line,
                col=kind.col,
            )
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

    A line ends at ``\n``, ``\r\n`` or a lone ``\r``: a string is split
    by ``text_lines``, and each element of a line iterable loses one line
    ending, so errors name the same line however the file was read.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, str):
        lines = text_lines(source)
    else:
        lines = [line.removesuffix("\n").removesuffix("\r") for line in source]
    return _Parser(_lex("\n".join(lines))).parse_ruleset()
