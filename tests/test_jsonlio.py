"""The row codec: one mapping between records and artifact rows."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factforge import jsonlio
from factforge.corpus import Passage
from factforge.dataset import NliTriplet, RetrieverPair, Task1Instance, Task2Instance
from factforge.errors import MalformedRecord
from factforge.evalharness import EvalReport, SeedRun
from factforge.jsonlio import (
    from_row,
    iter_jsonl,
    read_records,
    to_row,
    write_jsonl,
    write_records,
)
from factforge.retrieval import PassageIndex
from factforge.synthgen import ResourceRecord, StepOutputs, ValidationReport
from factforge.verification import ClaimTrace, NliLabel

PASSAGE = Passage("pg:2", "pg", 2, ("One two.", "Three four."))
OUTPUTS = StepOutputs(
    claims=("One two.", "Three four."),
    altered="One three.",
    original="One two.",
    factual_text="Uno dos. Tres cuatro.",
    unfactual_text="Uno tres. Tres cuatro.",
)
VALIDATION = ValidationReport((), ("duplicate_claims",))
SEED_RUN = SeedRun(7, 0.75, 1.0, 0.5, 2, 0, 1, 1, 1, 0)

PASSAGE_ROW = {
    "passage_id": "pg:2", "page_id": "pg", "start": 2,
    "sentences": ["One two.", "Three four."],
}
OUTPUTS_ROW = {
    "claims": ["One two.", "Three four."],
    "altered": "One three.",
    "original": "One two.",
    "factual_text": "Uno dos. Tres cuatro.",
    "unfactual_text": "Uno tres. Tres cuatro.",
}
VALIDATION_ROW = {"hard_failures": [], "warnings": ["duplicate_claims"]}
SEED_RUN_ROW = {
    "seed": 7, "balanced_accuracy": 0.75, "recall_true": 1.0, "recall_false": 0.5,
    "true_positive": 2, "false_negative": 0, "true_negative": 1, "false_positive": 1,
    "n_failed": 1, "n_unparseable": 0,
}

# The rows written before the codec existed, one per record type.
PINNED = [
    (PASSAGE, PASSAGE_ROW),
    (OUTPUTS, OUTPUTS_ROW),
    (VALIDATION, VALIDATION_ROW),
    (
        ResourceRecord("pg:2", PASSAGE, OUTPUTS, VALIDATION, retries=1),
        {"record_id": "pg:2", "passage": PASSAGE_ROW, "outputs": OUTPUTS_ROW,
         "validation": VALIDATION_ROW, "retries": 1},
    ),
    (
        RetrieverPair("One two.", "Uno dos.", "pg:2", "claim-factual"),
        {"claim": "One two.", "passage_text": "Uno dos.", "record_id": "pg:2",
         "pairing_kind": "claim-factual"},
    ),
    (
        NliTriplet("Uno dos.", "One three.", NliLabel.CONTRADICTION),
        {"premise": "Uno dos.", "hypothesis": "One three.", "label": "CONTR"},
    ),
    (
        Task1Instance("Uno dos.", True, "pg:2"),
        {"text": "Uno dos.", "label": True, "record_id": "pg:2"},
    ),
    (
        Task2Instance("One three.", "Uno dos.", False, "pg:2"),
        {"claim": "One three.", "evidence": "Uno dos.", "label": False, "record_id": "pg:2"},
    ),
    (SEED_RUN, SEED_RUN_ROW),
    (
        EvalReport("claim_verification", 4, 0.75, 0.0, (SEED_RUN,)),
        {"task": "claim_verification", "n_instances": 4, "balanced_accuracy": 0.75,
         "balanced_accuracy_std": 0.0, "runs": [SEED_RUN_ROW]},
    ),
    (
        ClaimTrace("One three.", False, "pg:2", 3),
        {"claim": "One three.", "decision": False, "deciding_passage_id": "pg:2",
         "rank_examined": 3},
    ),
]


@pytest.mark.parametrize("record, row", PINNED, ids=[type(r).__name__ for r, _ in PINNED])
def test_rows_are_pinned_and_read_back(record, row):
    assert to_row(record) == row
    assert from_row(type(record), json.loads(json.dumps(row))) == record


def test_absent_fields_take_their_defaults_and_extra_keys_are_ignored():
    row = to_row(PINNED[3][0])
    del row["retries"]
    row["validation"] = {}
    row["passage"]["popularity_rank"] = 3
    record = from_row(ResourceRecord, row)
    assert record.retries == 0
    assert record.validation == ValidationReport()
    assert record.passage == PASSAGE


@pytest.mark.parametrize(
    "cls, row, field",
    [
        (Passage, {**PASSAGE_ROW, "sentences": "Abc."}, "sentences"),
        (Passage, {k: v for k, v in PASSAGE_ROW.items() if k != "start"}, "start"),
        (NliTriplet, {"premise": "p", "hypothesis": "h", "label": "YES"}, "label"),
        (ResourceRecord, {"record_id": "r", "passage": ["x"], "outputs": OUTPUTS_ROW,
                          "validation": {}}, "passage"),
        (ResourceRecord, {"record_id": "r", "passage": {"passage_id": "x"},
                          "outputs": OUTPUTS_ROW, "validation": {}}, "page_id"),
        (EvalReport, {**to_row(PINNED[9][0]), "runs": [{"seed": 1}]}, "runs"),
        (Passage, {**PASSAGE_ROW, "passage_id": 7}, "passage_id"),
        (Passage, {**PASSAGE_ROW, "sentences": ["One two.", 5]}, "sentences"),
        (Passage, {**PASSAGE_ROW, "start": 2.0}, "start"),
        (Passage, {**PASSAGE_ROW, "start": True}, "start"),
        (Passage, {**PASSAGE_ROW, "page_id": None}, "page_id"),
        (SeedRun, {**SEED_RUN_ROW, "recall_true": "1.0"}, "recall_true"),
        (ClaimTrace, {"claim": "c", "decision": False, "deciding_passage_id": 3,
                      "rank_examined": 1}, "deciding_passage_id"),
    ],
    ids=["tuple-not-list", "missing", "bad-enum", "record-not-object", "nested-missing",
         "nested-list-item", "str-a-number", "tuple-item-a-number", "int-a-float",
         "int-a-bool", "not-null", "float-a-string", "optional-str-a-number"],
)
def test_rows_that_do_not_fit_are_malformed(cls, row, field):
    with pytest.raises(MalformedRecord, match=repr(field)):
        from_row(cls, row)


def test_scalar_fields_take_their_declared_types():
    assert from_row(Passage, {**PASSAGE_ROW, "page_id": 12}).page_id == 12
    recall = from_row(SeedRun, {**SEED_RUN_ROW, "recall_true": 1}).recall_true
    assert type(recall) is float and recall == 1.0
    trace = {"claim": "c", "decision": False, "deciding_passage_id": None, "rank_examined": 0}
    assert from_row(ClaimTrace, trace).deciding_passage_id is None


def test_a_field_type_without_a_codec_is_a_type_error():
    @dataclasses.dataclass(frozen=True)
    class Tally:
        name: str
        counts: dict[str, int]

    with pytest.raises(TypeError, match=r"Tally\.counts"):
        to_row(Tally("t", {"a": 1}))
    with pytest.raises(TypeError, match=r"Tally\.counts"):
        from_row(Tally, {"name": "t", "counts": {"a": 1}})


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_bool_fields_take_only_json_booleans(value):
    row = {"text": "t", "record_id": "r"}
    assert from_row(Task1Instance, {**row, "label": False}).label is False
    with pytest.raises(MalformedRecord, match="'label'"):
        from_row(Task1Instance, {**row, "label": value})


@pytest.mark.parametrize(
    "line, message",
    [(b'{"a": broken', r"rows\.jsonl row 2: not JSON"),
     (b'{"a": "\xff"}', r"rows\.jsonl: not UTF-8")],
    ids=["syntax", "not-utf8"],
)
def test_a_line_that_is_not_json_names_the_file(tmp_path, line, message):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n\n' + line + b"\n")
    with pytest.raises(MalformedRecord, match=message):
        list(iter_jsonl(path))


def _rows_then_failure():
    yield {"a": 1}
    raise RuntimeError("failed halfway")


@pytest.mark.parametrize("writer", ["write_jsonl", "PassageIndex.save"])
def test_a_write_that_fails_halfway_leaves_the_previous_file(tmp_path, writer):
    path = tmp_path / "artifact"
    if writer == "write_jsonl":
        write = lambda: write_jsonl(path, [{"a": 0}])
        fail = lambda: write_jsonl(path, _rows_then_failure())
    else:
        vectors = np.eye(2, dtype=np.float32)
        write = lambda: PassageIndex(["a", "b"], ["one", "two"], vectors).save(path)
        # a lone surrogate cannot be encoded, so the second record fails
        fail = lambda: PassageIndex(["a", "b"], ["one", "\ud800"], vectors).save(path)
    write()
    before = path.read_bytes()
    assert list(tmp_path.iterdir()) == [path]
    with pytest.raises((RuntimeError, UnicodeEncodeError)):
        fail()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_write_records_streams_a_generator_to_the_same_bytes(tmp_path, monkeypatch):
    records = [record for record, _ in PINNED]
    dumped = []
    monkeypatch.setattr(jsonlio, "dumps_canonical",
                        lambda row: dumped.append(row) or json.dumps(row, sort_keys=True))

    def one_at_a_time():
        for i, record in enumerate(records):
            assert len(dumped) == 1 + i  # the header and every earlier row are written
            yield record

    as_generator, as_list = tmp_path / "generator.jsonl", tmp_path / "list.jsonl"
    assert write_records(as_generator, one_at_a_time(), "mixed", count=len(records)) == len(records)
    monkeypatch.undo()
    write_records(as_list, records, "mixed", count=len(records))
    write_records(as_generator, iter(records), "mixed", count=len(records))
    assert as_generator.read_bytes() == as_list.read_bytes()


def test_read_records_checks_the_header_and_names_file_row_and_field(tmp_path):
    path = tmp_path / "task1.jsonl"
    good = to_row(PINNED[6][0])
    write_jsonl(path, [{"schema": "task1_instances", "version": 1}, good, good])
    assert read_records(path, Task1Instance) == [PINNED[6][0]] * 2
    assert read_records(path, Task1Instance, "task1_instances") == [PINNED[6][0]] * 2
    with pytest.raises(MalformedRecord, match="task1.jsonl.*'schema'.*task2_instances"):
        read_records(path, Task2Instance, "task2_instances")

    write_jsonl(path, [good, {"text": "t", "record_id": "r"}])
    with pytest.raises(MalformedRecord, match=r"task1\.jsonl row 2: Task1Instance .*'label'"):
        read_records(path, Task1Instance)
    path.write_text("")
    assert read_records(path, Task1Instance) == []


# --- round trips -----------------------------------------------------------------------

texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
text_tuples = st.lists(texts, max_size=4).map(tuple)
passages = st.builds(Passage, texts, texts, st.integers(0, 10**6), text_tuples)
records = st.builds(
    ResourceRecord,
    record_id=texts,
    passage=passages,
    outputs=st.builds(StepOutputs, text_tuples, texts, texts, texts, texts),
    validation=st.builds(ValidationReport, text_tuples, text_tuples),
    retries=st.integers(0, 5),
)
instances1 = st.builds(Task1Instance, texts, st.booleans(), texts)
instances2 = st.builds(Task2Instance, texts, texts, st.booleans(), texts)


@pytest.mark.parametrize(
    "cls, strategy",
    [(Passage, passages), (ResourceRecord, records), (Task1Instance, instances1),
     (Task2Instance, instances2)],
    ids=["Passage", "ResourceRecord", "Task1Instance", "Task2Instance"],
)
def test_write_then_read_round_trips(tmp_path_factory, cls, strategy):
    path = tmp_path_factory.mktemp("codec") / "rows.jsonl"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(strategy, max_size=5), st.booleans())
    def round_trip(items, with_header):
        header = [{"schema": "s", "version": 1}] if with_header else []
        write_jsonl(path, [*header, *map(to_row, items)])
        assert read_records(path, cls, "s") == items

    round_trip()
