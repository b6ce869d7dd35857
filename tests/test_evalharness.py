"""Benchmark harness: metrics, prompt assembly, verdict parsing, seeded runs."""

from __future__ import annotations

import math
import statistics
import string
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from factforge.errors import FactforgeError, UnparseableVerdict
from factforge.jsonlio import to_row
from factforge.evalharness import (
    DEFAULT_EVIDENCE_SEPARATOR,
    EXPLAIN_INSTRUCTIONS,
    LABEL_MARKER,
    MODE_FS,
    MODE_FS_EX,
    MODE_RAG,
    MODE_ZS,
    MODE_ZS_EX,
    MODES,
    RAG_INSTRUCTIONS,
    ZERO_SHOT_INSTRUCTIONS,
    PromptSpec,
    balanced_accuracy,
    build_prompt,
    confusion_counts,
    easiness_f1,
    easiness_p,
    easiness_r,
    estimate_tokens,
    parse_llm_verdict,
    rouge1_f1,
    run_benchmark,
    verdict_to_text,
)

from conftest import golden


# --- confusion counts and balanced accuracy ------------------------------------


def test_confusion_counts():
    gold = [True, True, False, False, True]
    pred = [True, False, False, True, True]
    assert confusion_counts(pred, gold) == (2, 1, 1, 1)


def test_balanced_accuracy_hand_oracle():
    gold = [True] * 5 + [False] * 5
    pred = [True, True, True, True, False] + [False, False, False, True, True]
    # recall(True) = 4/5, recall(False) = 3/5
    assert balanced_accuracy(pred, gold) == pytest.approx(0.7)


def test_balanced_accuracy_perfect_and_inverted():
    gold = [True, False, True, False]
    assert balanced_accuracy(gold, gold) == 1.0
    assert balanced_accuracy([not g for g in gold], gold) == 0.0


def test_balanced_accuracy_single_class_undefined():
    with pytest.raises(FactforgeError, match="gold labels contain a single class"):
        balanced_accuracy([True, False], [True, True])
    with pytest.raises(FactforgeError, match="gold labels contain a single class"):
        balanced_accuracy([False], [False])
    with pytest.raises(FactforgeError, match="no instances to evaluate"):
        balanced_accuracy([], [])


def test_balanced_accuracy_length_mismatch():
    with pytest.raises(ValueError):
        balanced_accuracy([True, False], [True])


@given(
    st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=2, max_size=60
    ).filter(lambda rows: len({g for g, _ in rows}) == 2)
)
@settings(max_examples=80)
def test_balanced_accuracy_matches_recall_mean(rows):
    gold = [g for g, _ in rows]
    pred = [p for _, p in rows]
    tp, fn, tn, fp = confusion_counts(pred, gold)
    expected = 0.5 * (tp / (tp + fn) + tn / (tn + fp))
    assert balanced_accuracy(pred, gold) == pytest.approx(expected, abs=1e-12)


@given(
    st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=2, max_size=40
    ).filter(lambda rows: len({g for g, _ in rows}) == 2),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40)
def test_balanced_accuracy_permutation_invariant(rows, rng):
    gold = [g for g, _ in rows]
    pred = [p for _, p in rows]
    before = balanced_accuracy(pred, gold)
    order = list(range(len(rows)))
    rng.shuffle(order)
    after = balanced_accuracy([pred[i] for i in order], [gold[i] for i in order])
    assert before == after


# --- unigram overlap score -------------------------------------------------------


def test_rouge1_hand_cases():
    assert rouge1_f1("the cat sat", "the cat sat") == 1.0
    assert rouge1_f1("the cat", "the cat sat") == pytest.approx(2 * 2 / 5)
    assert rouge1_f1("", "") == 1.0
    assert rouge1_f1("", "words here") == 0.0
    assert rouge1_f1("words here", "") == 0.0


def test_rouge1_case_and_punctuation_folding():
    assert rouge1_f1("The CAT sat.", "the cat sat") == 1.0


def test_rouge1_clips_repeated_tokens():
    # candidate repeats "a" three times; reference has it once
    assert rouge1_f1("a a a", "a b") == pytest.approx(2 * 1 / 5)


def test_rouge1_symmetry():
    assert rouge1_f1("alpha beta", "beta gamma delta") == rouge1_f1(
        "beta gamma delta", "alpha beta"
    )


_token_lists = st.lists(st.sampled_from("abcdefgh"), min_size=0, max_size=12)


@given(_token_lists, _token_lists)
def test_rouge1_matches_clipped_count_oracle(cand, ref):
    c_text, r_text = " ".join(cand), " ".join(ref)
    nc, nr = len(cand), len(ref)
    if nc == 0 and nr == 0:
        expected = 1.0
    elif nc == 0 or nr == 0:
        expected = 0.0
    else:
        overlap = sum((Counter(cand) & Counter(ref)).values())
        expected = 2 * overlap / (nc + nr)
    assert rouge1_f1(c_text, r_text) == expected


@given(_token_lists, _token_lists)
def test_rouge1_bounded_and_symmetric(cand, ref):
    a, b = " ".join(cand), " ".join(ref)
    v = rouge1_f1(a, b)
    assert 0.0 <= v <= 1.0
    assert v == rouge1_f1(b, a)


# --- easiness -----------------------------------------------------------------------


def test_easiness_hand_oracle():
    candidates = ["the cat sat", "dogs bark"]
    references = ["the cat sat", "birds fly high"]
    # first candidate matches reference 0 exactly; second matches nothing
    assert easiness_p(candidates, references) == pytest.approx(0.5)


def test_easiness_perfect_overlap():
    texts = ["alpha beta", "gamma delta"]
    assert easiness_p(texts, texts) == 1.0
    assert easiness_r(texts, texts) == 1.0
    assert easiness_f1(texts, texts) == 1.0


def test_easiness_f1_zero_when_disjoint():
    assert easiness_f1(["aaa"], ["bbb"]) == 0.0


def test_easiness_requires_nonempty_sides():
    with pytest.raises(FactforgeError, match="easiness needs non-empty claim sets"):
        easiness_p([], ["x"])
    with pytest.raises(FactforgeError, match="easiness needs non-empty claim sets"):
        easiness_r(["x"], [])


@given(
    st.lists(_token_lists.map(" ".join), min_size=1, max_size=5),
    st.lists(_token_lists.map(" ".join), min_size=1, max_size=5),
)
@settings(max_examples=60)
def test_easiness_duality(cands, refs):
    # precision over candidates equals recall with the sides swapped
    assert easiness_p(cands, refs) == easiness_r(refs, cands)


@given(
    st.lists(_token_lists.map(" ".join), min_size=1, max_size=4),
    st.lists(_token_lists.map(" ".join), min_size=1, max_size=4),
)
@settings(max_examples=60)
def test_easiness_matches_direct_equation(cands, refs):
    p = statistics.fmean(max(rouge1_f1(c, r) for r in refs) for c in cands)
    r = statistics.fmean(max(rouge1_f1(c, r) for c in cands) for r in refs)
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    assert easiness_p(cands, refs) == pytest.approx(p, abs=1e-12)
    assert easiness_r(cands, refs) == pytest.approx(r, abs=1e-12)
    assert easiness_f1(cands, refs) == pytest.approx(f, abs=1e-12)


# --- prompt assembly --------------------------------------------------------------------


def test_instruction_blocks_are_pinned():
    assert ZERO_SHOT_INSTRUCTIONS == golden("zs_instructions.txt").rstrip("\n")
    assert RAG_INSTRUCTIONS == golden("rag_instructions.txt").rstrip("\n")
    assert EXPLAIN_INSTRUCTIONS == golden("explain_block.txt").rstrip("\n")


_EXPLAINED = ZERO_SHOT_INSTRUCTIONS + "\n\n" + EXPLAIN_INSTRUCTIONS


@pytest.mark.parametrize("mode, block", [
    (MODE_ZS, ZERO_SHOT_INSTRUCTIONS),
    (MODE_FS, ZERO_SHOT_INSTRUCTIONS),
    (MODE_ZS_EX, _EXPLAINED),
    (MODE_FS_EX, _EXPLAINED),
    (MODE_RAG, RAG_INSTRUCTIONS),
], ids=MODES)
def test_prompt_opens_with_the_mode_instruction_block(mode, block):
    # Every mode sends one shape: one system message holding the mode's
    # instructions, then the few-shot turns, then the judged text.
    examples = (("example text", True),)
    evidence = ("passage",) if mode == MODE_RAG else ()
    spec = PromptSpec(mode=mode, few_shot_examples=examples, evidence=evidence)
    text = "Water boils at sea level."
    messages = build_prompt(spec, text)
    assert messages[0] == {"role": "system", "content": block}
    assert all(m["role"] != "system" for m in messages[1:])
    body = text + DEFAULT_EVIDENCE_SEPARATOR + "passage" if evidence else text
    assert messages[-1] == {"role": "user", "content": body}
    assert len(messages) == (4 if spec.few_shot else 2)


def test_explain_modes_append_block():
    for mode in (MODE_ZS_EX, MODE_FS_EX):
        spec = PromptSpec(
            mode=mode,
            few_shot_examples=(("example text", True),) if mode == MODE_FS_EX else (),
        )
        messages = build_prompt(spec, "t")
        system = messages[0]["content"]
        assert system.endswith(EXPLAIN_INSTRUCTIONS)
        assert ZERO_SHOT_INSTRUCTIONS in system


def test_few_shot_examples_become_turns():
    examples = (("first example", True), ("second example", False))
    spec = PromptSpec(mode=MODE_FS, few_shot_examples=examples)
    messages = build_prompt(spec, "query text")
    assert [m["role"] for m in messages] == [
        "system",
        "user",
        "assistant",
        "user",
        "assistant",
        "user",
    ]
    assert messages[1]["content"] == "first example"
    assert messages[2]["content"] == "Factual"
    assert messages[3]["content"] == "second example"
    assert messages[4]["content"] == "Not Factual"
    assert messages[5]["content"] == "query text"


def test_fs_mode_requires_examples():
    with pytest.raises(ValueError):
        build_prompt(PromptSpec(mode=MODE_FS), "t")


def test_rag_prompt_appends_evidence():
    spec = PromptSpec(mode=MODE_RAG, evidence=("passage one", "passage two"))
    messages = build_prompt(spec, "claim text")
    assert messages[0]["content"] == RAG_INSTRUCTIONS
    body = messages[-1]["content"]
    assert body.startswith("claim text")
    assert DEFAULT_EVIDENCE_SEPARATOR in body
    assert body.endswith("passage one\npassage two")


def test_rag_mode_requires_evidence():
    with pytest.raises(ValueError):
        build_prompt(PromptSpec(mode=MODE_RAG), "t")


def test_rag_custom_separator():
    with pytest.raises(TypeError):  # the separator is a constant, not a setting
        PromptSpec(mode=MODE_RAG, evidence=("e1",), evidence_separator="\n---\n")
    body = build_prompt(PromptSpec(mode=MODE_RAG, evidence=("e1",)), "txt")[-1]["content"]
    assert body == "txt" + DEFAULT_EVIDENCE_SEPARATOR + "e1" == "txt\n\nEvidence:\ne1"


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        PromptSpec(mode="noisy")
    assert set(MODES) == {MODE_ZS, MODE_FS, MODE_ZS_EX, MODE_FS_EX, MODE_RAG}


def test_token_estimate():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("x" * 400) == 100


def test_rag_budget_drops_lowest_ranked_evidence_first():
    keep = "k" * 40
    drop = "d" * 4000
    text = "t" * 40
    budget = estimate_tokens(text) + estimate_tokens(keep) + 200
    spec = PromptSpec(mode=MODE_RAG, evidence=(keep, drop), token_budget=budget)
    body = build_prompt(spec, text)[-1]["content"]
    assert keep in body
    assert drop not in body


def test_rag_budget_that_fits_no_evidence_is_an_error():
    spec = PromptSpec(mode=MODE_RAG, evidence=("Granite is igneous.",), token_budget=10)
    with pytest.raises(ValueError, match="token budget 10"):
        build_prompt(spec, "Granite is a rock.")


def test_rag_budget_keeps_everything_when_roomy():
    spec = PromptSpec(mode=MODE_RAG, evidence=("aa", "bb"), token_budget=100_000)
    body = build_prompt(spec, "text")[-1]["content"]
    assert "aa" in body and "bb" in body


# --- verdict parsing --------------------------------------------------------------------


def test_verdict_to_text():
    assert verdict_to_text(True) == "Factual"
    assert verdict_to_text(False) == "Not Factual"


def test_parse_plain_verdicts():
    assert parse_llm_verdict("Factual") is True
    assert parse_llm_verdict("Not Factual") is False
    assert parse_llm_verdict("  not factual  ") is False
    assert parse_llm_verdict("NOT FACTUAL!") is False
    assert parse_llm_verdict("The text is factual.") is True


def test_parse_not_factual_priority():
    # "not factual" contains "factual"; the negative reading must win
    assert parse_llm_verdict("This is not factual") is False


def test_parse_unparseable():
    with pytest.raises(UnparseableVerdict):
        parse_llm_verdict("I cannot decide.")
    with pytest.raises(UnparseableVerdict):
        parse_llm_verdict("")


def test_parse_explain_scopes_to_label_section():
    response = (
        "## EXPLANATION:\nThe text claims X, which is not factual per the source.\n\n"
        f"{LABEL_MARKER} Factual"
    )
    assert parse_llm_verdict(response, explain_mode=True) is True
    # without explain scoping, the stray "not factual" in the prose wins
    assert parse_llm_verdict(response, explain_mode=False) is False


def test_parse_explain_label_not_factual():
    response = f"## EXPLANATION:\nLooks wrong.\n\n{LABEL_MARKER}\nNot Factual"
    assert parse_llm_verdict(response, explain_mode=True) is False


def test_parse_explain_falls_back_to_whole_text():
    assert parse_llm_verdict("verdict: factual (no marker present)", explain_mode=True) is True


def test_parse_explain_missing_label_after_marker():
    with pytest.raises(UnparseableVerdict):
        parse_llm_verdict(f"## EXPLANATION: fine\n\n{LABEL_MARKER} shrug", explain_mode=True)


@pytest.mark.parametrize(
    "raw", ["unfactual", "Nonfactual", "counterfactual", "The text is non-factual."]
)
def test_parse_factual_inside_a_longer_word_is_no_verdict(raw):
    with pytest.raises(UnparseableVerdict):
        parse_llm_verdict(raw)


_NO_FACTUAL = st.text().filter(lambda s: "factual" not in s.casefold())
_WORD_PART = st.text(alphabet=string.ascii_letters + "-", max_size=6)


@given(_NO_FACTUAL, _WORD_PART, _WORD_PART, _NO_FACTUAL)
def test_parse_factual_only_inside_longer_words_raises(before, prefix, suffix, after):
    assume(prefix or suffix)
    with pytest.raises(UnparseableVerdict):
        parse_llm_verdict(f"{before} {prefix}factual{suffix} {after}")


@given(st.booleans())
def test_verdict_roundtrip(value):
    assert parse_llm_verdict(verdict_to_text(value)) is value


# --- run_benchmark ----------------------------------------------------------------------


class _Instance:
    def __init__(self, text, label):
        self.text = text
        self.label = label


class _OracleSystem:
    """Answers from a fixed mapping; optionally raises for specific texts."""

    def __init__(self, answers, errors=None):
        self.answers = answers
        self.errors = errors or {}

    def __call__(self, instance, seed):
        if instance.text in self.errors:
            raise self.errors[instance.text]
        return self.answers[instance.text]


def _instances(n_true=3, n_false=3):
    out = [_Instance(f"true {i}", True) for i in range(n_true)]
    out += [_Instance(f"false {i}", False) for i in range(n_false)]
    return out


def test_run_benchmark_perfect_system():
    instances = _instances()
    system = _OracleSystem({i.text: i.label for i in instances})
    report = run_benchmark("end_to_end_factuality", system, instances, seeds=[0, 1, 2])
    assert report.n_instances == 6
    assert report.balanced_accuracy == 1.0
    assert report.balanced_accuracy_std == 0.0
    assert len(report.runs) == 3
    assert report.task == "end_to_end_factuality"
    assert all(r.n_failed == 0 and r.n_unparseable == 0 for r in report.runs)


def test_run_benchmark_constant_system_is_half():
    instances = _instances()
    system = _OracleSystem({i.text: True for i in instances})
    report = run_benchmark("end_to_end_factuality", system, instances, seeds=[7])
    assert report.balanced_accuracy == 0.5
    assert report.balanced_accuracy_std == 0.0


def test_run_benchmark_replays_a_seeded_system_in_seed_order():
    # the system answers from (instance, seed); it is called one seed at a
    # time, in instance order, and replaying the same seeds reproduces the
    # exact per-run numbers
    import random as _random

    instances = _instances(4, 4)
    calls = []

    def noisy(instance, seed):
        calls.append((seed, instance.text))
        right = _random.Random(f"{seed}:{instance.text}").random() < 0.7
        return instance.label if right else not instance.label

    report_a = run_benchmark("end_to_end_factuality", noisy, instances, seeds=[2, 0, 1])
    assert calls == [(seed, i.text) for seed in (2, 0, 1) for i in instances]
    report_b = run_benchmark("end_to_end_factuality", noisy, instances, seeds=[2, 0, 1])
    assert [to_row(r) for r in report_a.runs] == [to_row(r) for r in report_b.runs]
    assert [r.seed for r in report_a.runs] == [2, 0, 1]

    # oracle replay of the same answers
    golds = [i.label for i in instances]
    accs = [balanced_accuracy([noisy(i, seed) for i in instances], golds) for seed in (2, 0, 1)]
    assert [r.balanced_accuracy for r in report_a.runs] == accs
    assert len(set(accs)) > 1
    assert report_a.balanced_accuracy == pytest.approx(statistics.fmean(accs))
    assert report_a.balanced_accuracy_std == pytest.approx(statistics.stdev(accs))


def test_run_benchmark_unparseable_counts_as_wrong():
    instances = _instances(1, 1)
    system = _OracleSystem(
        {i.text: i.label for i in instances},
        errors={"true 0": UnparseableVerdict("gibberish")},
    )
    report = run_benchmark("end_to_end_factuality", system, instances, seeds=[0])
    run = report.runs[0]
    assert run.n_unparseable == 1
    assert run.balanced_accuracy == 0.5  # the True instance was forced wrong


def test_run_benchmark_backend_failure_counts_separately():
    from factforge.errors import BackendTimeout

    instances = _instances(2, 1)
    system = _OracleSystem(
        {i.text: i.label for i in instances},
        errors={"true 1": BackendTimeout("slow")},
    )
    report = run_benchmark("end_to_end_factuality", system, instances, seeds=[0])
    run = report.runs[0]
    assert run.n_failed == 1
    assert run.n_unparseable == 0
    # one of two True instances forced wrong: recall 0.5 and 1.0
    assert run.balanced_accuracy == 0.75


def test_run_benchmark_validates_inputs():
    instances = _instances()
    system = _OracleSystem({i.text: True for i in instances})
    with pytest.raises(ValueError):
        run_benchmark("end_to_end_factuality", system, instances, seeds=[])
    with pytest.raises(FactforgeError, match="no instances to evaluate"):
        run_benchmark("end_to_end_factuality", system, [], seeds=[0])
    single_class = [_Instance("a", True), _Instance("b", True)]
    with pytest.raises(FactforgeError, match="gold labels contain a single class"):
        run_benchmark("end_to_end_factuality", system, single_class, seeds=[0])


def test_report_row_is_json_ready():
    instances = _instances()
    system = _OracleSystem({i.text: i.label for i in instances})
    report = run_benchmark("claim_verification", system, instances, seeds=[3])
    row = to_row(report)
    assert row["task"] == "claim_verification"
    assert row["n_instances"] == 6
    assert isinstance(row["runs"], list)
    assert row["runs"][0]["seed"] == 3
