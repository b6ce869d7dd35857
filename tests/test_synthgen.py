"""Text-pair synthesis: prompt assembly, output parsing, validation, retries."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from factforge.corpus import Page, Passage, page_passages
from factforge.errors import BackendError, FactforgeError, MalformedRecord, OutputParseError
from factforge.synthgen import (
    CLAIM_WORD_LIMIT,
    FALSIFICATION_WARNINGS,
    HARD_ALTERED_EQUALS_ORIGINAL,
    HARD_EMPTY_CLAIMS,
    HARD_ORIGINAL_NOT_IN_CLAIMS,
    UNIFIED_PROMPT_INSTRUCTIONS,
    UNIFIED_PROMPT_OUTPUT_FORMAT,
    WARN_CLAIM_TOO_LONG,
    WARN_DUPLICATE_CLAIMS,
    WARN_FALSIFICATION_LEAKED,
    WARN_FALSIFICATION_MISSING,
    WARN_ORIGINAL_FUZZY_MATCH,
    WARN_PARAPHRASE_TOO_LITERAL,
    WARN_TWIN_DIVERGES,
    StepOutputs,
    build_unified_prompt,
    extract_first_object,
    generate_record,
    parse_generation_output,
    read_records,
    validate_record,
    write_records,
)
from factforge.textnorm import unigram_jaccard
from factforge.verification import ChatClaimExtractor

from conftest import (
    AMAZON_ALTERED,
    AMAZON_CLAIMS,
    AMAZON_FACTUAL,
    AMAZON_ORIGINAL,
    AMAZON_UNFACTUAL,
    amazon_passage,
    amazon_step_json,
    golden,
    scripted_chat_for,
    synth_record,
)

# --- prompt assembly ------------------------------------------------------------


def test_prompt_contains_input_then_instructions():
    prompt = build_unified_prompt(Passage("p:0", "p", 0, ("Some passage", "text.")))
    assert prompt.startswith("Input: Some passage text.\n\n")
    assert "Instructions: Execute the following steps:" in prompt
    assert prompt.index("Input:") < prompt.index("Step 1")


def test_prompt_instruction_text_is_pinned():
    steps, _fmt = golden("unified_instructions.txt").rsplit("\n\n", 1)
    assert UNIFIED_PROMPT_INSTRUCTIONS == steps


def test_prompt_output_format_is_pinned():
    _steps, fmt = golden("unified_instructions.txt").rsplit("\n\n", 1)
    assert UNIFIED_PROMPT_OUTPUT_FORMAT == fmt


def test_prompt_mentions_all_four_steps():
    prompt = build_unified_prompt(Passage("p:0", "p", 0, ("x",)))
    for step in ("Step 1 -", "Step 2 -", "Step 3 -", "Step 4 -"):
        assert step in prompt
    assert "Output format:" in prompt


# --- JSON extraction ---------------------------------------------------------------


def test_extract_plain_object():
    assert extract_first_object('{"a": 1}') == {"a": 1}


def test_extract_from_markdown_fence():
    text = 'Sure! Here you go:\n```json\n{"step_1": ["c"]}\n```\nDone.'
    assert extract_first_object(text) == {"step_1": ["c"]}


def test_extract_prefers_first_parseable_object():
    text = 'garbage { not json } then {"k": [1, 2]} trailing'
    assert extract_first_object(text) == {"k": [1, 2]}


def test_extract_python_literal_fallback():
    # single quotes are not JSON but are a common model failure shape
    text = "{'step_1': ['a', 'b'], 'step_2': ('x', 'y')}"
    out = extract_first_object(text)
    assert out["step_1"] == ["a", "b"]


def test_extract_no_object_raises():
    with pytest.raises(OutputParseError, match="no object literal found"):
        extract_first_object("no braces anywhere")
    with pytest.raises(OutputParseError, match="no object literal found"):
        extract_first_object("{ broken [ } ]")


# --- parse_generation_output ----------------------------------------------------------


def _payload(**overrides):
    base = {
        "step_1": list(AMAZON_CLAIMS),
        "step_2": [AMAZON_ALTERED, AMAZON_ORIGINAL],
        "step_3": AMAZON_FACTUAL,
        "step_4": AMAZON_UNFACTUAL,
    }
    base.update(overrides)
    return json.dumps(base)


def test_parse_happy_path():
    out = parse_generation_output(_payload())
    assert out.claims == AMAZON_CLAIMS
    assert (out.altered, out.original) == (AMAZON_ALTERED, AMAZON_ORIGINAL)
    assert out.factual_text == AMAZON_FACTUAL
    assert out.unfactual_text == AMAZON_UNFACTUAL


def test_parse_missing_key_names_the_key():
    raw = json.dumps({"step_1": ["c"], "step_2": ["a", "b"], "step_3": "f"})
    with pytest.raises(OutputParseError, match="output object lacks 'step_4'"):
        parse_generation_output(raw)


def test_parse_type_errors():
    with pytest.raises(OutputParseError, match="step_1 must be a list of strings"):
        parse_generation_output(_payload(step_1="not a list"))
    with pytest.raises(OutputParseError, match="step_1 must be a list of strings"):
        parse_generation_output(_payload(step_1=["ok", 3]))
    with pytest.raises(OutputParseError, match="step_2 must be a pair of strings"):
        parse_generation_output(_payload(step_2=["only one"]))
    with pytest.raises(OutputParseError, match="step_3 must be a string"):
        parse_generation_output(_payload(step_3=["list not str"]))
    with pytest.raises(OutputParseError, match="step_4 must be a string"):
        parse_generation_output(_payload(step_4=None))


def test_parse_not_an_object():
    with pytest.raises(OutputParseError, match="no object literal found"):
        parse_generation_output("[1, 2, 3]")


_step_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=40
)


@given(
    claims=st.lists(_step_texts, min_size=1, max_size=6),
    pair=st.tuples(_step_texts, _step_texts),
    factual=_step_texts,
    unfactual=_step_texts,
)
def test_parse_serialize_roundtrip(claims, pair, factual, unfactual):
    outputs = StepOutputs(tuple(claims), pair[0], pair[1], factual, unfactual)
    again = parse_generation_output(outputs.to_step_json())
    # Claims come back stripped, blank ones dropped; every other step exactly.
    assert again == replace(outputs, claims=tuple(c.strip() for c in claims if c.strip()))
    assert parse_generation_output(again.to_step_json()) == again


def test_parse_and_claim_extraction_clean_claims_alike():
    step_1 = ["  Padded claim. ", "", " \t\n", "Plain claim."]
    out = parse_generation_output(_payload(step_1=step_1))
    assert out.claims == ("Padded claim.", "Plain claim.")
    reply = json.dumps({"step_1": step_1})
    extractor = ChatClaimExtractor(SimpleNamespace(complete=lambda messages: reply))
    assert extractor.extract_claims("any text") == list(out.claims)


# --- validation ------------------------------------------------------------------


def _outputs(**overrides):
    fields = {
        "claims": AMAZON_CLAIMS,
        "altered": AMAZON_ALTERED,
        "original": AMAZON_ORIGINAL,
        "factual_text": AMAZON_FACTUAL,
        "unfactual_text": AMAZON_UNFACTUAL,
    }
    fields.update(overrides)
    return StepOutputs(**fields)


def test_validate_clean_record():
    report = validate_record(amazon_passage(), _outputs())
    assert report.ok
    assert report.hard_failures == ()


def test_validate_empty_claims():
    report = validate_record(amazon_passage(), _outputs(claims=()))
    assert HARD_EMPTY_CLAIMS in report.hard_failures
    assert not report.ok


def test_validate_original_must_come_from_claims():
    report = validate_record(
        amazon_passage(), _outputs(original="A sentence nobody extracted.")
    )
    assert HARD_ORIGINAL_NOT_IN_CLAIMS in report.hard_failures


def test_validate_original_fuzzy_match_is_warning_not_failure():
    # claim lost its final period: not an exact normalized match, but the
    # token overlap is total, so it clears the fuzzy threshold
    fuzzy = AMAZON_ORIGINAL.rstrip(".")
    claims = tuple(
        fuzzy if c == AMAZON_ORIGINAL else c for c in AMAZON_CLAIMS
    )
    report = validate_record(amazon_passage(), _outputs(claims=claims))
    assert HARD_ORIGINAL_NOT_IN_CLAIMS not in report.hard_failures
    assert WARN_ORIGINAL_FUZZY_MATCH in report.warnings
    assert unigram_jaccard(fuzzy, AMAZON_ORIGINAL) == 1.0
    assert unigram_jaccard("", "") == 1.0  # two empty texts count as identical


def test_validate_altered_equals_original():
    report = validate_record(amazon_passage(), _outputs(altered=AMAZON_ORIGINAL))
    assert HARD_ALTERED_EQUALS_ORIGINAL in report.hard_failures


def test_validate_case_insensitive_equality():
    report = validate_record(
        amazon_passage(), _outputs(altered=AMAZON_ORIGINAL.upper())
    )
    assert HARD_ALTERED_EQUALS_ORIGINAL in report.hard_failures


def test_validate_empty_texts():
    report = validate_record(amazon_passage(), _outputs(factual_text="  "))
    assert "empty_factual_text" in report.hard_failures
    report = validate_record(amazon_passage(), _outputs(unfactual_text=""))
    assert "empty_unfactual_text" in report.hard_failures


def test_validate_long_claim_warns():
    long_claim = " ".join(["word"] * (CLAIM_WORD_LIMIT + 1))
    claims = AMAZON_CLAIMS + (long_claim,)
    report = validate_record(amazon_passage(), _outputs(claims=claims))
    assert WARN_CLAIM_TOO_LONG in report.warnings
    assert report.ok


def test_validate_fifteen_word_claim_is_fine():
    claims = AMAZON_CLAIMS + (" ".join(["word"] * CLAIM_WORD_LIMIT),)
    report = validate_record(amazon_passage(), _outputs(claims=claims))
    assert WARN_CLAIM_TOO_LONG not in report.warnings


def test_validate_duplicate_claims_warn():
    claims = AMAZON_CLAIMS + (AMAZON_CLAIMS[0],)
    report = validate_record(amazon_passage(), _outputs(claims=claims))
    assert WARN_DUPLICATE_CLAIMS in report.warnings


def test_validate_verbatim_paraphrase_warns():
    report = validate_record(
        amazon_passage(), _outputs(factual_text=amazon_passage().text)
    )
    assert WARN_PARAPHRASE_TOO_LITERAL in report.warnings
    assert report.ok


def test_validate_unrelated_twin_warns():
    report = validate_record(
        amazon_passage(),
        _outputs(unfactual_text="Entirely different topic about submarines."),
    )
    assert WARN_TWIN_DIVERGES in report.warnings


@pytest.mark.parametrize("worked_example", [False, True], ids=["synthetic", "amazon"])
def test_validate_twin_that_repeats_the_original_claim_is_flagged(worked_example):
    # The unfactual text restates the original claim: the falsification's new
    # tokens are nowhere in it, so derive would label a true text false. The
    # worked example's altered claim also adds "is", "forest" and "within",
    # which a paraphrase of its passage may hold; only "majority",
    # "contained" and "peru" mark the falsification.
    record = synth_record(3)
    passage, outputs = (amazon_passage(), _outputs()) if worked_example else (
        record.passage, record.outputs)
    report = validate_record(passage, replace(outputs, unfactual_text=outputs.factual_text))
    assert report.ok
    assert report.warnings == (WARN_FALSIFICATION_MISSING,)


def test_validate_factual_text_holding_the_falsification_is_flagged():
    report = validate_record(amazon_passage(), _outputs(factual_text=AMAZON_UNFACTUAL))
    assert report.ok
    assert report.warnings == (WARN_FALSIFICATION_LEAKED,)


def test_validate_partial_falsification_tokens():
    # One new token in the unfactual text is enough; only all of them in the
    # factual text is a leak.
    outputs = _outputs(claims=("The tower is 300 metres tall.",),
                       original="The tower is 300 metres tall.",
                       altered="The mast is 300 feet tall.",
                       factual_text="The mast stands 300 metres tall.",
                       unfactual_text="The tower stands 300 feet tall.")
    report = validate_record(amazon_passage(), outputs)
    assert FALSIFICATION_WARNINGS.isdisjoint(report.warnings)
    report = validate_record(amazon_passage(), replace(outputs, factual_text="The mast, 300 feet."))
    assert WARN_FALSIFICATION_LEAKED in report.warnings


def test_validate_falsification_without_new_tokens_is_not_flagged():
    # A reordering adds no token, so there is nothing to look for.
    outputs = _outputs(claims=("Ana met Bo.",), original="Ana met Bo.", altered="Bo met Ana.",
                       factual_text="Ana met Bo.", unfactual_text="Ana met Bo.")
    assert FALSIFICATION_WARNINGS.isdisjoint(validate_record(amazon_passage(), outputs).warnings)


def _demo_twins():
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline_demo.py"
    spec = importlib.util.spec_from_file_location("run_pipeline_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    for pid, _, sentences in demo.TOPICS:
        for passage in page_passages(Page(pid, " ".join(sentences))):
            yield passage, demo.scripted_outputs(passage)


def test_pinned_twins_carry_no_falsification_warning():
    # Artifacts pinned byte for byte must not move: the worked example, the
    # synthetic records, the demo's twins and the benchmark's (its server
    # alters a window's first claim to "<claim>, implausibly.").
    twins = [(amazon_passage(), _outputs())]
    twins += [(r.passage, r.outputs) for r in map(synth_record, range(50))]
    demo = list(_demo_twins())
    assert demo
    twins += demo
    for i in range(20):
        sentences = tuple(f"Item{i} has property{i}x{j} and value{i}x{j}." for j in range(3))
        passage = Passage(passage_id=f"b{i}:0", page_id=f"b{i}", start=0, sentences=sentences)
        altered = sentences[0].rstrip(".") + ", implausibly."
        twins.append((passage, StepOutputs(sentences, altered, sentences[0], " ".join(sentences),
                                           " ".join((altered, *sentences[1:])))))
    for passage, outputs in twins:
        report = validate_record(passage, outputs)
        assert FALSIFICATION_WARNINGS.isdisjoint(report.warnings), passage.passage_id


# --- generate_record -----------------------------------------------------------------


def test_generate_record_happy_path(amazon_record):
    record = amazon_record
    assert record.record_id == "amazon:0"
    assert record.outputs.claims == AMAZON_CLAIMS
    assert record.validation.ok
    assert record.retries == 0


def test_generate_record_retries_after_malformed_output():
    passage = amazon_passage()
    chat = scripted_chat_for(passage, ["not json at all", amazon_step_json()])
    record = generate_record(passage, chat, max_retries=2)
    assert record.retries == 1
    assert record.validation.ok


@pytest.mark.parametrize(
    "change",
    [lambda step: step.pop("step_4"), lambda step: step.update(step_3=["not", "a string"])],
    ids=["missing-step-key", "step-of-the-wrong-type"],
)
def test_generate_record_retries_once_after_an_unreadable_step(change):
    passage = amazon_passage()
    bad = json.loads(amazon_step_json())
    change(bad)
    chat = scripted_chat_for(passage, [json.dumps(bad), amazon_step_json()])
    record = generate_record(passage, chat, max_retries=1)
    assert record.retries == 1
    assert record.validation.ok


def test_generate_record_propagates_backend_errors_without_retry():
    calls = []

    class DownChat:
        def complete(self, messages):
            calls.append(messages)
            raise BackendError("endpoint down", "f" * 16)

    with pytest.raises(BackendError, match="endpoint down"):
        generate_record(amazon_passage(), DownChat(), max_retries=3)
    assert len(calls) == 1


def test_generate_record_retries_after_hard_failure():
    passage = amazon_passage()
    bad = json.loads(amazon_step_json())
    bad["step_2"] = [bad["step_2"][1], bad["step_2"][1]]  # altered == original
    chat = scripted_chat_for(passage, [json.dumps(bad), amazon_step_json()])
    record = generate_record(passage, chat, max_retries=1)
    assert record.retries == 1
    assert record.validation.ok


def test_generate_record_exhausts_retries():
    passage = amazon_passage()
    chat = scripted_chat_for(passage, ["junk", "junk", "junk"])
    with pytest.raises(FactforgeError, match=r"after 3 attempts: OutputParseError\("):
        generate_record(passage, chat, max_retries=2)


def test_generate_record_zero_retries_single_attempt():
    passage = amazon_passage()
    chat = scripted_chat_for(passage, ["junk", amazon_step_json()])
    with pytest.raises(FactforgeError, match="generation failed after 1 attempts"):
        generate_record(passage, chat, max_retries=0)
    with pytest.raises(ValueError, match="max_retries must be >= 0"):
        generate_record(passage, chat, max_retries=-1)


def test_generate_uses_pinned_prompt(amazon_record):
    # the scripted mock only answers the exact unified prompt fingerprint,
    # so reaching a record at all proves the request shape
    assert amazon_record.outputs.factual_text == AMAZON_FACTUAL


# --- record I/O -----------------------------------------------------------------------


def test_records_file_roundtrip(tmp_path, amazon_record):
    path = tmp_path / "records.jsonl"
    write_records(path, [amazon_record])
    loaded = read_records(path)
    assert loaded == [amazon_record]


def test_records_file_claims_are_cleaned_on_read(tmp_path, amazon_record):
    path = tmp_path / "records.jsonl"
    claims = amazon_record.outputs.claims
    stored = replace(amazon_record.outputs, claims=(f" {claims[0]} ", "  ", *claims[1:]))
    write_records(path, [replace(amazon_record, outputs=stored)])
    assert read_records(path) == [amazon_record]
    stored = replace(amazon_record.outputs, claims=(*claims, 5))
    write_records(path, [replace(amazon_record, outputs=stored)])
    with pytest.raises(MalformedRecord, match=r"records\.jsonl row 2: .*'claims'"):
        read_records(path)


def test_records_file_has_schema_header(tmp_path, amazon_record):
    path = tmp_path / "records.jsonl"
    write_records(path, [amazon_record])
    first = json.loads(path.read_text().splitlines()[0])
    assert first["schema"] == "synthesis_records"
