"""Derived training data: retriever pairs, premise/hypothesis triplets, task sets."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from factforge.dataset import (
    SPLIT_RATIO,
    NliTriplet,
    build_task1,
    build_task2,
    derive_nli_triplets,
    derive_retriever_pairs,
    mine_neutral_passage,
    mine_neutrals,
    mining_cost,
    neutral_pools,
    split_train_val,
)
from factforge.corpus import Passage
from factforge.errors import FactforgeError
from factforge.jsonlio import to_row
from factforge.synthgen import ResourceRecord, StepOutputs, ValidationReport, generate_record
from factforge.verification import NliLabel

from conftest import (
    amazon_passage,
    amazon_step_json,
    scripted_chat_for,
    synth_nli,
    synth_passage,
    synth_record,
    synth_records,
)


# --- retriever pairs -------------------------------------------------------------


def test_retriever_pairs_shape():
    record = synth_record(0)
    pairs = derive_retriever_pairs(record)
    n = len(record.outputs.claims)
    assert len(pairs) == 3 * (n + 1)
    targets = {record.passage.text, record.outputs.factual_text, record.outputs.unfactual_text}
    assert {p.passage_text for p in pairs} == targets
    # every claim appears against all three targets, and so does the altered claim
    claims = [p.claim for p in pairs]
    for claim in record.outputs.claims:
        assert claims.count(claim) == 3
    assert claims.count(record.outputs.altered) == 3
    assert all(p.record_id == record.record_id for p in pairs)


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=20)
def test_retriever_pair_count_formula(i):
    record = synth_record(i)
    assert len(derive_retriever_pairs(record)) == 3 * (len(record.outputs.claims) + 1)


def test_a_blank_generated_claim_reaches_no_derived_row():
    answer = json.loads(amazon_step_json())
    answer["step_1"].insert(1, "  ")
    passage = amazon_passage()
    record = generate_record(passage, scripted_chat_for(passage, [json.dumps(answer)]))
    assert record.validation.ok
    assert all(p.claim.strip() for p in derive_retriever_pairs(record))
    assert all(t.hypothesis.strip() for t in derive_nli_triplets(record))


# --- premise/hypothesis triplets ----------------------------------------------------


def test_nli_triplets_without_neutrals():
    record = synth_record(0)
    trips = derive_nli_triplets(record)
    n = len(record.outputs.claims)
    assert len(trips) == 2 * n + 4
    by_label = {label: [t for t in trips if t.label is label] for label in NliLabel}
    assert len(by_label[NliLabel.ENTAILMENT]) == 2 * n + 1
    assert len(by_label[NliLabel.CONTRADICTION]) == 3
    assert len(by_label[NliLabel.NEUTRAL]) == 0


def test_nli_triplets_with_neutrals():
    record = synth_record(0)
    n = len(record.outputs.claims)
    neutrals = [f"neutral text {j}" for j in range(n)]
    trips = derive_nli_triplets(record, neutrals=neutrals)
    assert len(trips) == 3 * n + 4
    neutral_trips = [t for t in trips if t.label is NliLabel.NEUTRAL]
    assert len(neutral_trips) == n
    # each neutral premise is paired with the claim at the same position
    assert [t.premise for t in neutral_trips] == neutrals
    assert [t.hypothesis for t in neutral_trips] == list(record.outputs.claims)


def test_nli_triplet_semantics():
    record = synth_record(0)
    out = record.outputs
    trips = set(derive_nli_triplets(record))
    src, fact, unfact = record.passage.text, out.factual_text, out.unfactual_text
    for claim in out.claims:
        assert NliTriplet(src, claim, NliLabel.ENTAILMENT) in trips
        assert NliTriplet(fact, claim, NliLabel.ENTAILMENT) in trips
    assert NliTriplet(src, out.altered, NliLabel.CONTRADICTION) in trips
    assert NliTriplet(fact, out.altered, NliLabel.CONTRADICTION) in trips
    assert NliTriplet(unfact, out.altered, NliLabel.ENTAILMENT) in trips
    assert NliTriplet(unfact, out.original, NliLabel.CONTRADICTION) in trips


def test_nli_neutral_length_mismatch_rejected():
    record = synth_record(0)
    with pytest.raises(ValueError):
        derive_nli_triplets(record, neutrals=["just one"])


def test_nli_triplet_row_uses_label_value():
    t = NliTriplet("p", "h", NliLabel.ENTAILMENT)
    assert to_row(t)["label"] == NliLabel.ENTAILMENT.value


# --- neutral mining ------------------------------------------------------------------


def test_mine_neutral_prefers_highest_neutral_probability():
    nli = synth_nli(4)
    claim = synth_record(0).outputs.claims[0]
    # passage 0 entails the claim; other passages are neutral toward it
    candidates = [synth_passage(i) for i in range(4)]
    winner = mine_neutral_passage(claim, candidates, nli)
    assert winner.page_id != "page0"


def test_mine_neutral_tie_breaks_on_passage_id():
    nli = synth_nli(4)
    claim = synth_record(0).outputs.claims[0]
    # passages 1..3 are all equally neutral; smallest passage_id wins
    candidates = [synth_passage(i) for i in (3, 1, 2)]
    winner = mine_neutral_passage(claim, candidates, nli)
    assert winner.passage_id == min(c.passage_id for c in candidates)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_mine_neutral_asks_once_per_candidate_of_a_pool_of_two_or_more(n):
    nli = synth_nli(n)
    claim = synth_record(0).outputs.claims[0]
    candidates = [synth_passage(i) for i in range(n)]
    asked = []
    classify = nli.classify
    nli.classify = lambda premise, hypothesis: asked.append((premise, hypothesis)) or classify(
        premise, hypothesis)
    mine_neutral_passage(claim, candidates, nli)
    assert asked == [(c.text, claim) for c in candidates]


def test_mine_neutral_returns_a_lone_candidate_without_a_call():
    class Unreachable:
        def classify(self, premise, hypothesis):
            raise AssertionError("a lone candidate needs no NLI call")

    lone = synth_passage(0)
    # Even a candidate that entails the claim: no answer can change the pick.
    assert mine_neutral_passage(lone.sentences[0], [lone], Unreachable()) is lone


def test_mine_neutral_empty_candidates():
    nli = synth_nli(1)
    with pytest.raises(FactforgeError, match="neutral mining needs at least one candidate"):
        mine_neutral_passage("claim", [], nli)


@st.composite
def mining_inputs(draw):
    """Records on pages of 1 to 5 windows of two sentences at stride 1, each
    with 1 to 4 claims drawn from its page's sentences, and the windows file
    in a drawn order. A claim is entailed by the windows that hold it."""
    records, windows = [], []
    for p in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 5))
        page = [Passage(f"p{p}:{j}", f"p{p}", j, (f"Fact {p}.{j}.", f"Fact {p}.{j + 1}."))
                for j in range(n)]
        windows += page
        for own in draw(st.lists(st.sampled_from(page), max_size=2, unique=True)):
            claims = tuple(draw(st.lists(st.sampled_from([f"Fact {p}.{s}." for s in range(n + 1)]),
                                         min_size=1, max_size=4)))
            outputs = StepOutputs(claims, "altered", claims[0], "factual", "unfactual")
            records.append(ResourceRecord(own.passage_id, own, outputs, ValidationReport()))
    return records, draw(st.permutations(windows))


@given(mining_inputs())
@settings(max_examples=80)
def test_mining_cost_matches_the_calls_and_the_neut_rows(inputs):
    records, windows = inputs
    nli = synth_nli(0)
    asked = []
    classify = nli.classify
    nli.classify = lambda premise, hypothesis: asked.append(premise) or classify(
        premise, hypothesis)
    pools = neutral_pools(records, windows)
    picked_without_a_call = left_without = 0
    for record, pool in zip(records, pools, strict=True):
        assert record.passage not in pool
        assert {w.page_id for w in pool} <= {record.passage.page_id}
        before = len(asked)
        neut = [t for t in derive_nli_triplets(record, mine_neutrals(record, pool, nli))
                if t.label is NliLabel.NEUTRAL]
        assert {t.premise for t in neut} <= {w.text for w in pool}
        picked_without_a_call += len(neut) if len(asked) == before else 0
        left_without += len(record.outputs.claims) - len(neut)
    assert mining_cost(records, pools) == (len(asked), picked_without_a_call, left_without)


# --- task construction ----------------------------------------------------------------


def test_task1_instances():
    records = synth_records(3)
    instances = build_task1(records)
    assert len(instances) == 6
    by_label = {True: [], False: []}
    for inst in instances:
        by_label[inst.label].append(inst)
    assert len(by_label[True]) == 3
    assert len(by_label[False]) == 3
    rec = records[0]
    texts = {i.text for i in instances if i.record_id == rec.record_id}
    assert texts == {rec.outputs.factual_text, rec.outputs.unfactual_text}


def test_task2_instances():
    records = synth_records(3)
    instances = build_task2(records)
    assert len(instances) == 6
    rec = records[1]
    mine = [i for i in instances if i.record_id == rec.record_id]
    assert len(mine) == 2
    for inst in mine:
        assert inst.evidence == rec.outputs.factual_text
    labels = {inst.claim: inst.label for inst in mine}
    assert labels[rec.outputs.original] is True
    assert labels[rec.outputs.altered] is False


@pytest.mark.parametrize("derive", [derive_retriever_pairs, derive_nli_triplets,
                                    lambda r: build_task1([r]), lambda r: build_task2([r])],
                         ids=["derive_retriever_pairs", "derive_nli_triplets", "build_task1",
                              "build_task2"])
def test_derivations_reject_records_with_hard_failures(derive):
    from dataclasses import replace

    from factforge.synthgen import ValidationReport

    broken = replace(synth_record(0), validation=ValidationReport(("empty_claims",)))
    with pytest.raises(FactforgeError, match="hard validation failures: .*empty_claims"):
        derive(broken)


# --- train/val split -------------------------------------------------------------------


def test_split_is_deterministic_and_disjoint():
    records = synth_records(10)
    train_a, val_a = split_train_val(records, seed=5)
    train_b, val_b = split_train_val(list(reversed(records)), seed=5)
    assert train_a == train_b  # input order must not matter
    assert val_a == val_b
    ids = {r.record_id for r in records}
    assert {r.record_id for r in train_a} | {r.record_id for r in val_a} == ids
    assert not ({r.record_id for r in train_a} & {r.record_id for r in val_a})
    assert len(train_a) == 8
    assert len(val_a) == 2


def test_split_different_seeds_differ():
    records = synth_records(12)
    train_a, _ = split_train_val(records, seed=1)
    train_b, _ = split_train_val(records, seed=2)
    assert {r.record_id for r in train_a} != {r.record_id for r in train_b}


def test_split_ratio_extremes_clamp():
    records = synth_records(4)
    # both sides stay non-empty even when the ratio rounds to 0 or n
    train, val = split_train_val(records, seed=0, ratio=0.01)
    assert len(train) == 1 and len(val) == 3
    train, val = split_train_val(records, seed=0, ratio=0.99)
    assert len(train) == 3 and len(val) == 1
    with pytest.raises(ValueError):
        split_train_val(records, seed=0, ratio=0.0)
    with pytest.raises(ValueError):
        split_train_val(records, seed=0, ratio=1.0)


def test_split_needs_two_records():
    with pytest.raises(FactforgeError, match="need at least 2 records to split"):
        split_train_val(synth_records(1), seed=0)


def _windows(sizes):
    """Stand-in records: `sizes[p]` windows of page p, each its own record."""
    base = synth_record(0)
    return [replace(base, record_id=f"p{p}:{w}", passage=replace(
                base.passage, passage_id=f"p{p}:{w}", page_id=f"p{p}", start=w))
            for p, n in enumerate(sizes) for w in range(n)]


def test_split_needs_two_pages():
    with pytest.raises(FactforgeError, match="at least 2 pages.*'p0'"):
        split_train_val(_windows([3]), seed=0)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=12),
    ratio=st.floats(min_value=0.01, max_value=0.99),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50)
def test_split_keeps_each_page_on_one_side(sizes, ratio, seed):
    records = _windows(sizes)
    train, val = split_train_val(list(reversed(records)), ratio, seed)
    assert (train, val) == split_train_val(records, ratio, seed)
    train_pages = {r.passage.page_id for r in train}
    val_pages = {r.passage.page_id for r in val}
    assert train_pages and val_pages and not train_pages & val_pages
    assert len(train_pages) == min(max(int(len(sizes) * ratio), 1), len(sizes) - 1)
    assert sorted(r.record_id for r in train + val) == sorted(r.record_id for r in records)


def test_one_record_per_page_splits_as_records_do():
    """With one record per page, the page split is the seeded shuffle of the
    records sorted by id."""
    records = synth_records(23)
    for seed in range(50):
        ordered = sorted(records, key=lambda r: r.record_id)
        random.Random(seed).shuffle(ordered)
        n_train = min(max(int(len(ordered) * SPLIT_RATIO), 1), len(ordered) - 1)
        assert split_train_val(records, seed=seed) == (ordered[:n_train], ordered[n_train:])


@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25)
def test_split_sizes(n, seed):
    records = synth_records(min(n, 30))[: min(n, 30)]
    if len(records) < 2:
        return
    train, val = split_train_val(records, seed=seed)
    n = len(records)
    expected_train = min(max(int(n * SPLIT_RATIO), 1), n - 1)
    assert len(train) == expected_train
    assert len(val) == n - expected_train
