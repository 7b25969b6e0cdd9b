import io
from importlib import resources

import pytest

from spacevents import (
    Atom,
    DepPathStep,
    Rule,
    SlotPattern,
    TokenPattern,
    parse_rules,
)
from spacevents.errors import RuleError
from spacevents.rules import FIELDS, TIERS

from helpers import line_ending_copies

FULL_RULE = """
# an active-voice launch pattern
rule launch-active {
  event: LAUNCH
  tier: high
  trigger: [lemma=launch & !pos=NOUN|NN]
  slot SatelliteName required {
    path: >dobj|obj >compound?
    filler: entity(SPACECRAFT)
  }
  slot Date optional {
    path: >nmod|obl|nmod:tmod
    filler: entity(DATE)
  }
}
"""


def test_parse_full_rule_field_by_field():
    rules = parse_rules(FULL_RULE)
    assert len(rules) == 1
    rule = rules[0]
    assert rule.name == "launch-active"
    assert rule.event_type == "LAUNCH"
    assert rule.tier == "high"
    assert rule.trigger == (
        TokenPattern(
            branches=(
                (
                    Atom("lemma", ("launch",)),
                    Atom("pos", ("NOUN", "NN"), negated=True),
                ),
            )
        ),
    )
    assert rule.slots[0] == SlotPattern(
        name="SatelliteName",
        path=(
            DepPathStep("out", ("dobj", "obj")),
            DepPathStep("out", ("compound",), optional=True),
        ),
        entity_types=("SPACECRAFT",),
        required=True,
    )
    date = rule.slots[1]
    assert date.name == "Date"
    assert not date.required
    assert not date.is_chunk
    # multi-part labels like nmod:tmod survive the lexer in one piece
    assert date.path[0].labels == ("nmod", "obl", "nmod:tmod")


def test_multi_pattern_trigger_and_chunk_filler():
    text = """
    rule failure-suffered {
      event: FAILURE
      tier: backoff
      trigger: [lemma=suffer][surface=a]
      slot FailureType optional {
        path: >dobj
        filler: chunk
      }
    }
    """
    rule = parse_rules(text)[0]
    assert len(rule.trigger) == 2
    assert rule.trigger[1].branches == ((Atom("surface", ("a",)),),)
    assert rule.slots[0].is_chunk
    assert rule.slots[0].entity_types is None


def test_trigger_branch_alternation_vs_literal_alternation():
    text = """
    rule t {
      event: LAUNCH
      tier: backoff
      trigger: [lemma=fail|failure & pos=VERB | surface=liftoff]
    }
    """
    pattern = parse_rules(text)[0].trigger[0]
    assert pattern.branches == (
        (Atom("lemma", ("fail", "failure")), Atom("pos", ("VERB",))),
        (Atom("surface", ("liftoff",)),),
    )


def test_string_literals_allow_spaces_and_punctuation():
    text = """
    rule t {
      event: LAUNCH
      tier: backoff
      trigger: [surface="Falcon 9" | lemma="lift!"]
    }
    """
    pattern = parse_rules(text)[0].trigger[0]
    assert pattern.branches == (
        (Atom("surface", ("Falcon 9",)),),
        (Atom("lemma", ("lift!",)),),
    )


def test_in_direction_and_optional_steps():
    text = """
    rule t {
      event: DECOMMISSIONING
      tier: backoff
      trigger: [lemma=retire]
      slot SatelliteName optional {
        path: <acl|acl:relcl >nsubj?
        filler: entity(SPACECRAFT)
      }
    }
    """
    slot = parse_rules(text)[0].slots[0]
    assert slot.path == (
        DepPathStep("in", ("acl", "acl:relcl")),
        DepPathStep("out", ("nsubj",), optional=True),
    )


def test_multiple_entity_types_in_filler():
    text = """
    rule t {
      event: LAUNCH
      tier: backoff
      trigger: [lemma=launch]
      slot Organization optional {
        path: >nsubj
        filler: entity(ORGANIZATION, SPACECRAFT)
      }
    }
    """
    slot = parse_rules(text)[0].slots[0]
    assert slot.entity_types == ("ORGANIZATION", "SPACECRAFT")


def test_parse_accepts_file_like_and_iterables():
    assert parse_rules(io.StringIO(FULL_RULE)) == parse_rules(FULL_RULE)
    assert parse_rules(FULL_RULE.splitlines()) == parse_rules(FULL_RULE)
    assert parse_rules("") == []
    assert parse_rules("# only comments\n") == []


def test_rule_lines_end_at_each_line_ending_however_the_file_is_read():
    text = (resources.files("spacevents") / "data" / "reference.rules").read_text("utf-8")
    expected = parse_rules(text)
    assert len(expected) >= 10
    for copy in line_ending_copies(text):
        assert parse_rules(copy) == expected
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if line.strip().startswith("tier:"))
    broken = "\n".join(lines[:row] + ["  when: now"] + lines[row + 1:])
    messages = set()
    for copy in line_ending_copies(broken):
        with pytest.raises(RuleError, match="unknown clause 'when'") as caught:
            parse_rules(copy)
        messages.add(str(caught.value))
    assert messages == {f"line {row + 1}, column 3: unknown clause 'when' in rule "
                        f"{expected[0].name!r}"}


def _wrap(trigger="[lemma=launch]", body="", event="LAUNCH", tier="backoff", name="r"):
    return (
        f"rule {name} {{\n  event: {event}\n  tier: {tier}\n"
        f"  trigger: {trigger}\n{body}}}\n"
    )


def test_lexer_errors():
    with pytest.raises(RuleError, match="unterminated string"):
        parse_rules(_wrap(trigger='[surface="abc]'))
    with pytest.raises(RuleError, match="unexpected character '@'"):
        parse_rules("rule r @ {}")
    with pytest.raises(RuleError) as caught:
        parse_rules(_wrap(trigger="[lemma=]"))
    assert str(caught.value) == "line 4, column 19: expected literal, found ']'"
    assert (caught.value.line, caught.value.col) == (4, 19)
    # a text that ends in a comment ends at the comment's '#'
    for text, where in (
        ("rule r { # unfinished", "line 1, column 10"),
        ("rule r {\r\n#", "line 2, column 1"),
        (["rule r {", "  # c\r\n"], "line 2, column 3"),
    ):
        with pytest.raises(RuleError) as caught:
            parse_rules(text)
        assert str(caught.value) == f"{where}: expected clause, found ''"


def test_structure_errors():
    with pytest.raises(RuleError, match="expected 'rule', found 'foo'"):
        parse_rules("foo r {}")
    with pytest.raises(RuleError) as caught:
        parse_rules("rule r event: LAUNCH }")
    assert str(caught.value) == "line 1, column 8: expected '{', found 'event'"
    assert (caught.value.line, caught.value.col) == (1, 8)
    with pytest.raises(RuleError, match="unknown event type 'EXPLOSION'"):
        parse_rules(_wrap(event="EXPLOSION"))
    with pytest.raises(RuleError, match="tier must be one of high/backoff"):
        parse_rules(_wrap(tier="low"))
    with pytest.raises(RuleError, match="duplicate event clause"):
        parse_rules("rule r {\n event: LAUNCH\n event: LAUNCH\n}")
    with pytest.raises(RuleError, match="missing its trigger clause"):
        parse_rules("rule r {\n event: LAUNCH\n tier: backoff\n}")
    with pytest.raises(RuleError, match="unknown clause 'foo'"):
        parse_rules("rule r {\n foo: bar\n}")
    with pytest.raises(RuleError, match="trigger needs at least one"):
        parse_rules(_wrap(trigger="lemma"))
    # the error points at the second rule's keyword; each _wrap rule is 5 lines
    with pytest.raises(RuleError, match="^line 6, column 1: duplicate rule name 'same'$"):
        parse_rules(_wrap(name="same") + _wrap(name="same"))


def test_atom_errors():
    with pytest.raises(RuleError, match="unknown field 'word'"):
        parse_rules(_wrap(trigger="[word=launch]"))
    with pytest.raises(RuleError, match="no positive atom"):
        parse_rules(_wrap(trigger="[!lemma=launch]"))
    with pytest.raises(RuleError, match="not indexable"):
        parse_rules(_wrap(trigger="[pos=VERB]"))
    with pytest.raises(RuleError, match="not indexable"):
        # one branch indexable, the other not: still rejected
        parse_rules(_wrap(trigger="[lemma=launch | pos=VERB]"))


def test_slot_errors():
    good_slot = "  slot A optional {\n    path: >dobj\n    filler: chunk\n  }\n"
    with pytest.raises(RuleError, match="duplicate slot 'A'"):
        parse_rules(_wrap(body=good_slot + good_slot))
    with pytest.raises(RuleError, match="must be marked required or optional"):
        parse_rules(_wrap(body="  slot A sometimes {\n path: >dobj\n filler: chunk\n}\n"))
    with pytest.raises(RuleError, match="needs at least one path step"):
        parse_rules(_wrap(body="  slot A optional {\n path:\n filler: chunk\n}\n"))
    with pytest.raises(RuleError, match="expected 'path', found 'filler'"):
        parse_rules(_wrap(body="  slot A optional {\n filler: chunk\n}\n"))
    with pytest.raises(RuleError, match=r"filler must be entity\(...\) or chunk"):
        parse_rules(_wrap(body="  slot A optional {\n path: >dobj\n filler: span\n}\n"))


def test_rules_built_in_code_are_checked_on_construction():
    def build(*patterns):
        return Rule(name="r", event_type="LAUNCH", tier="backoff", trigger=patterns, slots=())

    launch = TokenPattern(branches=((Atom("lemma", ("launch",)),),))
    assert build(launch).trigger == (launch,)
    with pytest.raises(RuleError, match="trigger needs at least one"):
        build()
    with pytest.raises(RuleError, match="not indexable"):
        build(TokenPattern(branches=((Atom("pos", ("VERB",)),),)))
    with pytest.raises(RuleError, match="no positive atom"):
        build(TokenPattern(branches=((Atom("lemma", ("launch",), negated=True),),)))
    for tier in ("high", "backoff"):
        with pytest.raises(RuleError, match="unknown event type 'EXPLOSION'"):
            Rule(name="r", event_type="EXPLOSION", tier=tier, trigger=(launch,), slots=())
    with pytest.raises(RuleError, match="tier must be one of high/backoff, found 'low'"):
        Rule(name="r", event_type="LAUNCH", tier="low", trigger=(launch,), slots=())
    with pytest.raises(RuleError, match="unknown field 'word'"):
        build(TokenPattern(branches=((Atom("word", ("launch",)),),)))
    with pytest.raises(RuleError, match="slot 'A' needs at least one path step"):
        SlotPattern(name="A", path=(), entity_types=None, required=False)


def test_slots_outside_the_event_schema_are_refused():
    launch = TokenPattern(branches=((Atom("lemma", ("launch",)),),))
    payload = SlotPattern("Payload", (DepPathStep("out", ("dobj",)),), None, False)
    message = (
        "rule 'r': LAUNCH has no slot 'Payload' (expected one of SatelliteName, "
        "LaunchVehicle, LaunchSite, TargetOrbit, Organization, Date)"
    )
    with pytest.raises(RuleError) as caught:
        Rule(name="r", event_type="LAUNCH", tier="backoff", trigger=(launch,), slots=(payload,))
    assert str(caught.value) == message
    body = "  slot Payload optional {\n    path: >dobj\n    filler: chunk\n  }\n"
    with pytest.raises(RuleError) as caught:
        parse_rules("\n" + _wrap(body=body))
    assert str(caught.value) == f"line 2, column 1: {message}"
    # a slot of another event type's schema is refused too
    with pytest.raises(RuleError, match="DECOMMISSIONING has no slot 'LaunchVehicle'"):
        parse_rules(_wrap(event="DECOMMISSIONING", body=body.replace("Payload", "LaunchVehicle")))
    # a duplicate slot is still reported first
    with pytest.raises(RuleError, match="duplicate slot 'Payload'"):
        parse_rules(_wrap(body=body + body))


def test_rule_level_parse_errors_carry_the_rule_position():
    with pytest.raises(RuleError, match="line 1, column 1: .*not indexable"):
        parse_rules(_wrap(trigger="[pos=VERB]"))


def test_high_tier_constraints():
    chunk_slot = (
        "  slot SatelliteName required {\n    path: >dobj\n    filler: chunk\n  }\n"
    )
    with pytest.raises(RuleError, match="high tier requires entity fillers"):
        parse_rules(_wrap(tier="high", body=chunk_slot))
    optional_anchor = (
        "  slot SatelliteName optional {\n"
        "    path: >dobj\n    filler: entity(SPACECRAFT)\n  }\n"
    )
    with pytest.raises(
        RuleError, match="high tier must require one of SatelliteName for LAUNCH"
    ):
        parse_rules(_wrap(tier="high", body=optional_anchor))
    # FAILURE accepts either anchor slot
    vehicle_anchor = (
        "  slot LaunchVehicle required {\n"
        "    path: >nsubj\n    filler: entity(LAUNCH_VEHICLE)\n  }\n"
    )
    rules = parse_rules(_wrap(event="FAILURE", tier="high", body=vehicle_anchor))
    assert rules[0].tier == "high"


def test_constants():
    assert FIELDS == ("surface", "lemma", "pos", "ner")
    assert TIERS == ("high", "backoff")


def test_reference_ruleset_parses_and_covers_both_tiers():
    text = (resources.files("spacevents") / "data" / "reference.rules").read_text()
    rules = parse_rules(text)
    assert len(rules) >= 10
    tiers = {rule.tier for rule in rules}
    assert tiers == {"high", "backoff"}
    events = {rule.event_type for rule in rules}
    assert events == {"LAUNCH", "FAILURE", "DECOMMISSIONING"}
    assert len({rule.name for rule in rules}) == len(rules)
