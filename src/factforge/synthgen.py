"""Synthesis of paired factual/unfactual texts from a source passage.

One chat call executes four steps: extract the passage's atomic claims,
subtly falsify the most relevant one, write a factual paraphrase from the
claims, and write an unfactual twin from the claims with the falsified one
swapped in. The model answers with a JSON object keyed step_1..step_4;
parsing is lenient about preamble and markdown fencing, and every parsed
result is validated before a record is accepted.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, replace
from typing import Iterable

from . import jsonlio
from .corpus import Passage
from .errors import FactforgeError, OutputParseError
from .textnorm import normalize_for_match, tokenize, unigram_jaccard

CLAIM_WORD_LIMIT = 15
PARAPHRASE_OVERLAP_CEILING = 0.9
TWIN_OVERLAP_FLOOR = 0.5
FUZZY_MATCH_THRESHOLD = 0.9

# Hard failure codes: any of these invalidates the record.
HARD_EMPTY_CLAIMS = "empty_claims"
HARD_ORIGINAL_NOT_IN_CLAIMS = "original_not_in_claims"
HARD_ALTERED_EQUALS_ORIGINAL = "altered_equals_original"
HARD_EMPTY_FACTUAL = "empty_factual_text"
HARD_EMPTY_UNFACTUAL = "empty_unfactual_text"

# Warning codes: the record stands, but deserves a look.
WARN_CLAIM_TOO_LONG = "claim_over_word_limit"
WARN_PARAPHRASE_TOO_LITERAL = "factual_text_overlaps_passage"
WARN_TWIN_DIVERGES = "unfactual_text_far_from_factual"
WARN_ORIGINAL_FUZZY_MATCH = "original_matched_fuzzily"
WARN_DUPLICATE_CLAIMS = "duplicate_claims"
# The falsification's new tokens, in the twin that should not or the one
# that should hold them: `derive` then writes two wrong gold labels.
WARN_FALSIFICATION_MISSING = "unfactual_text_lacks_falsification"
WARN_FALSIFICATION_LEAKED = "factual_text_has_falsification"
FALSIFICATION_WARNINGS = frozenset({WARN_FALSIFICATION_MISSING, WARN_FALSIFICATION_LEAKED})
# Function words any paraphrase may add, so they do not mark a falsification.
# Negations stay out: "not" can be the whole change.
_FUNCTION_WORDS = frozenset(
    "a an the and or but of in on at to for from by with within without into onto "
    "as than that this these those it its is are was were be been being has have "
    "had do does did which who whom whose there their they he she his her".split())


DEFAULT_MAX_RETRIES = 2

# Step 1 of the generation prompt; claim extraction for verification reuses it.
CLAIM_EXTRACTION_INSTRUCTIONS = """\
Step 1 - Claim extraction: From the input passage, extract a comprehensive set of claims. These claims must be atomic, i.e. semantically-coherent pieces of text that do not require further subdivision, and self-contained, i.e. not requiring additional context to be verified. Note that each claim must be short, using 15 words at most. Do not use "..." to truncate them. The ordering of the extracted claims must follow the logical flow expressed in the original text. Use a noun as the subject in the claim (avoid pronouns). All the claims that are featured in the input text must be reported in the list."""

UNIFIED_PROMPT_INSTRUCTIONS = CLAIM_EXTRACTION_INSTRUCTIONS + """

Step 2 - Claim falsification: From the output of Step 1, subtly alter one claim, in order to introduce a critical factual inaccuracy. Such claim must be the most relevant for the input text. It is forbidden to change dates, years, numbers and person/location/organization/etc. names. It is also forbidden to provide naive negative transformations of verbs, e.g., was -> was not, did -> did not. This step, i.e., Step 2, returns a pair containing the altered claim along with the original one.

Step 3 - Factual text generation: From the output of Step 1, generate a text. Note that this text must be a paraphrase of the original provided text, i.e. a new text that should overlap as little as possible with the original, while preserving the meaning. The generated text must follow the same logical flow as the ordering of the extracted claims.

Step 4 - Unfactual text generation: Generate a text from the final set of claims (original unaltered + altered) i.e. the output of Step 3. Note that the output of this step is not the original text, but the one generated from the final set of claims. Therefore this text contains unfactual information. The generated text must follow the same logical flow as the ordering of the claims. The output text must be as similar as possible to the output of Step 2, unless the unfactual part."""

UNIFIED_PROMPT_OUTPUT_FORMAT = """\
Output format: Return the output in a JSON with the following format: { 'step_1': List[str], 'step_2': Tuple[str, str], 'step_3': str, 'step_4': str}. The output must be a valid JSON, thus try to avoid special characters like ' and " inside the JSON values, unless you escape them with a \\. Do not include any marker for the altered claim inside the JSON values, e.g., # this is the altered claim. Please do not provide any preamble to your response, just give me the JSON."""


def build_unified_prompt(passage: Passage) -> str:
    """The single four-step generation prompt with the passage as input."""
    return (
        f"Input: {passage.text}\n\n"
        "Instructions: Execute the following steps:\n\n"
        f"{UNIFIED_PROMPT_INSTRUCTIONS}\n\n"
        f"{UNIFIED_PROMPT_OUTPUT_FORMAT}"
    )


@dataclass(frozen=True)
class StepOutputs:
    """Parsed content of the four generation steps."""

    claims: tuple[str, ...]
    altered: str
    original: str
    factual_text: str
    unfactual_text: str

    def to_step_json(self) -> str:
        """Serialize in the step_1..step_4 shape the generation prompt asks for."""
        return json.dumps(
            {
                "step_1": list(self.claims),
                "step_2": [self.altered, self.original],
                "step_3": self.factual_text,
                "step_4": self.unfactual_text,
            },
            ensure_ascii=False,
        )


def extract_first_object(raw: str) -> dict:
    """Pull the first well-formed object literal out of free-form model output.

    Tolerates preamble text and markdown fencing; falls back to a Python
    literal parse for single-quoted pseudo-JSON. Raises OutputParseError
    when nothing object-shaped can be recovered.
    """
    decoder = json.JSONDecoder()
    start = raw.find("{")
    while start != -1:
        try:
            obj, _end = decoder.raw_decode(raw, start)
        except ValueError:
            pass
        else:
            if isinstance(obj, dict):
                return obj
        start = raw.find("{", start + 1)
    first, last = raw.find("{"), raw.rfind("}")
    if first != -1 and last > first:
        try:
            obj = ast.literal_eval(raw[first : last + 1])
        except (ValueError, SyntaxError):
            pass
        else:
            if isinstance(obj, dict):
                return obj
    raise OutputParseError("no object literal found in model output")


def clean_claims(claims) -> list[str] | None:
    """A claim list with each claim stripped and blank ones dropped; None
    when `claims` is not a list of strings."""
    if not isinstance(claims, list) or not all(isinstance(c, str) for c in claims):
        return None
    return [c for c in (c.strip() for c in claims) if c]


def parse_generation_output(raw: str) -> StepOutputs:
    """Turn raw model output into StepOutputs.

    step_1 must be a list of strings, kept as `clean_claims` leaves it;
    step_2 a two-element pair of strings (altered first, original second),
    step_3 and step_4 strings. Raises OutputParseError naming the
    offending key in the message.
    """
    obj = extract_first_object(raw)
    for key in ("step_1", "step_2", "step_3", "step_4"):
        if key not in obj:
            raise OutputParseError(f"output object lacks {key!r}")

    claims = clean_claims(obj["step_1"])
    if claims is None:
        raise OutputParseError("step_1 must be a list of strings")
    pair = obj["step_2"]
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, str) for x in pair)
    ):
        raise OutputParseError("step_2 must be a pair of strings")
    if not isinstance(obj["step_3"], str):
        raise OutputParseError("step_3 must be a string")
    if not isinstance(obj["step_4"], str):
        raise OutputParseError("step_4 must be a string")

    return StepOutputs(
        claims=tuple(claims),
        altered=pair[0],
        original=pair[1],
        factual_text=obj["step_3"],
        unfactual_text=obj["step_4"],
    )


@dataclass(frozen=True)
class ValidationReport:
    hard_failures: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.hard_failures


def validate_record(passage: Passage, outputs: StepOutputs) -> ValidationReport:
    """Check step outputs against the structural rules of the synthesis task.

    Hard failures: no claims; the original claim absent from the claim list
    (an exact match after whitespace/case normalization, with a fuzzy
    unigram-overlap fallback accepted as a warning); altered equal to
    original; empty factual or unfactual text. Warnings cover over-long
    claims, a paraphrase that copies the passage too literally, an
    unfactual twin that strays too far from the paraphrase, duplicate
    claims, and a falsification that did not land: the altered claim's
    content tokens that neither the original claim nor the passage holds,
    when there are any, are all absent from the unfactual text, or all
    present in the factual one.
    """
    hard: list[str] = []
    warnings: list[str] = []

    claims = outputs.claims
    if not claims:
        hard.append(HARD_EMPTY_CLAIMS)

    if claims:
        normalized = [normalize_for_match(c) for c in claims]
        target = normalize_for_match(outputs.original)
        if target not in normalized:
            best = max((unigram_jaccard(outputs.original, c) for c in claims), default=0.0)
            if best >= FUZZY_MATCH_THRESHOLD:
                warnings.append(WARN_ORIGINAL_FUZZY_MATCH)
            else:
                hard.append(HARD_ORIGINAL_NOT_IN_CLAIMS)
        if len(set(normalized)) != len(normalized):
            warnings.append(WARN_DUPLICATE_CLAIMS)

    if normalize_for_match(outputs.altered) == normalize_for_match(outputs.original):
        hard.append(HARD_ALTERED_EQUALS_ORIGINAL)
    if not outputs.factual_text.strip():
        hard.append(HARD_EMPTY_FACTUAL)
    if not outputs.unfactual_text.strip():
        hard.append(HARD_EMPTY_UNFACTUAL)

    if any(len(c.split()) > CLAIM_WORD_LIMIT for c in claims):
        warnings.append(WARN_CLAIM_TOO_LONG)
    if outputs.factual_text.strip():
        if unigram_jaccard(outputs.factual_text, passage.text) > PARAPHRASE_OVERLAP_CEILING:
            warnings.append(WARN_PARAPHRASE_TOO_LITERAL)
    if outputs.factual_text.strip() and outputs.unfactual_text.strip():
        if unigram_jaccard(outputs.unfactual_text, outputs.factual_text) < TWIN_OVERLAP_FLOOR:
            warnings.append(WARN_TWIN_DIVERGES)

    new = (set(tokenize(outputs.altered)) - set(tokenize(outputs.original))
           - set(tokenize(passage.text)) - _FUNCTION_WORDS)
    if new and not new & set(tokenize(outputs.unfactual_text)):
        warnings.append(WARN_FALSIFICATION_MISSING)
    if new and new <= set(tokenize(outputs.factual_text)):
        warnings.append(WARN_FALSIFICATION_LEAKED)

    return ValidationReport(tuple(hard), tuple(warnings))


@dataclass(frozen=True)
class ResourceRecord:
    """One validated synthesis result tied to its source passage."""

    record_id: str
    passage: Passage
    outputs: StepOutputs
    validation: ValidationReport
    retries: int = 0


RECORDS_SCHEMA = "synthesis_records"


def write_records(path, records: Iterable[ResourceRecord]) -> int:
    return jsonlio.write_records(path, records, RECORDS_SCHEMA)


def read_records(path) -> list[ResourceRecord]:
    """The records of a records file, their claims cleaned as `generate`
    cleans them, so a file written before that yields no blank claim."""
    records = []
    for record in jsonlio.read_records(path, ResourceRecord, RECORDS_SCHEMA):
        claims = tuple(clean_claims(list(record.outputs.claims)))
        records.append(replace(record, outputs=replace(record.outputs, claims=claims)))
    return records


def generate_record(
    passage: Passage,
    chat,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> ResourceRecord:
    """Run the four-step synthesis for one passage.

    Makes one chat call, parses and validates; a parse error or hard
    validation failure burns one retry, up to max_retries beyond the first
    attempt. Transport errors propagate untouched. When every attempt
    fails, FactforgeError names the attempt count and the last failure.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    messages = [{"role": "user", "content": build_unified_prompt(passage)}]
    failure: object = None
    for attempt in range(max_retries + 1):
        raw = chat.complete(messages)
        try:
            outputs = parse_generation_output(raw)
        except OutputParseError as exc:
            failure = exc
            continue
        report = validate_record(passage, outputs)
        if report.hard_failures:
            failure = report
            continue
        return ResourceRecord(
            record_id=passage.passage_id,
            passage=passage,
            outputs=outputs,
            validation=report,
            retries=attempt,
        )
    raise FactforgeError(
        f"generation failed after {max_retries + 1} attempts: {failure!r}")
