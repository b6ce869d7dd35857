"""Claim-level verdicts: label distributions, scan order, text-level conjunction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from factforge.backends import BackendProfile, RuleNliBackend
from factforge.errors import UnverifiableText
from factforge.retrieval import index_build
from factforge.verification import (
    CLAIM_EXTRACTION_INSTRUCTIONS,
    NliDistribution,
    NliLabel,
    ScriptedClaimExtractor,
    build_claim_extraction_prompt,
    classify,
    verify_claim,
    verify_text,
)

from conftest import synth_embedder, synth_nli, synth_passage, synth_record


# --- NliDistribution -----------------------------------------------------------


def test_distribution_validates_simplex():
    NliDistribution(0.5, 0.3, 0.2)
    with pytest.raises(ValueError):
        NliDistribution(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        NliDistribution(-0.1, 0.6, 0.5)
    with pytest.raises(ValueError):
        NliDistribution(1.2, -0.1, -0.1)


def test_distribution_tolerates_float_slop():
    NliDistribution(0.1, 0.2, 0.7 + 5e-7)


def test_top_label_argmax():
    assert NliDistribution(0.7, 0.2, 0.1).top_label is NliLabel.ENTAILMENT
    assert NliDistribution(0.1, 0.8, 0.1).top_label is NliLabel.NEUTRAL
    assert NliDistribution(0.1, 0.2, 0.7).top_label is NliLabel.CONTRADICTION


def test_top_label_tie_break_order():
    third = 1 / 3
    assert NliDistribution(third, third, third).top_label is NliLabel.ENTAILMENT
    assert NliDistribution(0.0, 0.5, 0.5).top_label is NliLabel.CONTRADICTION
    assert NliDistribution(0.5, 0.5, 0.0).top_label is NliLabel.ENTAILMENT


@given(
    weights=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ).filter(lambda w: sum(w) > 1e-9)
)
def test_top_label_matches_argmax(weights):
    total = sum(weights)
    a, b, c = (w / total for w in weights)
    dist = NliDistribution(a, b, c)
    probs = {
        NliLabel.ENTAILMENT: dist.p_ent,
        NliLabel.NEUTRAL: dist.p_neut,
        NliLabel.CONTRADICTION: dist.p_contr,
    }
    assert probs[dist.top_label] == max(probs.values())


# --- verify_claim ------------------------------------------------------------------


class _TableNli:
    """Label each (premise, hypothesis) pair from a fixed table; default neutral."""

    _BY_LABEL = {
        NliLabel.ENTAILMENT: NliDistribution(0.9, 0.05, 0.05),
        NliLabel.NEUTRAL: NliDistribution(0.05, 0.9, 0.05),
        NliLabel.CONTRADICTION: NliDistribution(0.05, 0.05, 0.9),
    }

    def __init__(self, table):
        self.table = table
        self.calls = []

    def classify(self, premise, hypothesis):
        self.calls.append((premise, hypothesis))
        return self._BY_LABEL[self.table.get(premise, NliLabel.NEUTRAL)]


def _trace_for(labels, claim="the claim"):
    premises = [f"premise {i}" for i in range(len(labels))]
    nli = _TableNli(dict(zip(premises, labels)))
    ranked = [(p, 1.0 - 0.1 * i) for i, p in enumerate(premises)]
    trace = verify_claim(claim, ranked, nli)
    return trace, nli


def test_verify_claim_first_entailment_wins():
    trace, nli = _trace_for([NliLabel.NEUTRAL, NliLabel.ENTAILMENT, NliLabel.CONTRADICTION])
    assert trace.decision is True
    assert trace.deciding_passage_id == "premise 1"
    assert trace.rank_examined == 2
    assert len(nli.calls) == 2  # stops at the first non-neutral label


def test_verify_claim_first_contradiction_wins():
    trace, _ = _trace_for([NliLabel.CONTRADICTION, NliLabel.ENTAILMENT])
    assert trace.decision is False
    assert trace.deciding_passage_id == "premise 0"
    assert trace.rank_examined == 1


def test_verify_claim_all_neutral_defaults_true():
    trace, nli = _trace_for([NliLabel.NEUTRAL] * 4)
    assert trace.decision is True
    assert trace.deciding_passage_id is None
    assert trace.rank_examined == 4
    assert len(nli.calls) == 4


def test_verify_claim_no_evidence_defaults_true():
    trace, _ = _trace_for([])
    assert trace.decision is True
    assert trace.rank_examined == 0


@given(
    st.lists(
        st.sampled_from([NliLabel.ENTAILMENT, NliLabel.NEUTRAL, NliLabel.CONTRADICTION]),
        max_size=8,
    )
)
@settings(max_examples=80)
def test_verify_claim_matches_scan_oracle(labels):
    trace, _ = _trace_for(labels)
    first = next((l for l in labels if l is not NliLabel.NEUTRAL), None)
    assert trace.decision is (first is not NliLabel.CONTRADICTION)
    if first is not None:
        assert trace.rank_examined == 1 + next(
            i for i, l in enumerate(labels) if l is not NliLabel.NEUTRAL
        )


def test_verify_claim_text_lookup_mapping():
    nli = _TableNli({"the real text": NliLabel.CONTRADICTION})
    trace = verify_claim("c", [("pid", 0.5)], nli, text_lookup={"pid": "the real text"}.__getitem__)
    assert trace.decision is False
    assert trace.deciding_passage_id == "pid"
    assert nli.calls == [("the real text", "c")]


# --- verify_text ----------------------------------------------------------------------


def _verify_env(n=6):
    passages = [synth_passage(i) for i in range(n)]
    embedder = synth_embedder()
    index = index_build(passages, embedder)
    nli = synth_nli(n)
    return passages, embedder, index, nli


def test_verify_text_factual_conjunction():
    _, embedder, index, nli = _verify_env()
    record = synth_record(2)
    extractor = ScriptedClaimExtractor(
        {record.outputs.factual_text: list(record.outputs.claims)}
    )
    verdict = verify_text(record.outputs.factual_text, extractor, index, embedder, nli)
    assert verdict.factual is True
    assert len(verdict.claim_traces) == len(record.outputs.claims)
    assert all(t.decision for t in verdict.claim_traces)


def test_verify_text_single_false_claim_flips_verdict():
    _, embedder, index, nli = _verify_env()
    record = synth_record(2)
    out = record.outputs
    claims = [out.altered if i == 0 else c for i, c in enumerate(out.claims)]
    extractor = ScriptedClaimExtractor({out.unfactual_text: claims})
    verdict = verify_text(out.unfactual_text, extractor, index, embedder, nli)
    assert verdict.factual is False
    decisions = [t.decision for t in verdict.claim_traces]
    assert decisions.count(False) == 1
    assert verdict.claim_traces[0].decision is False
    assert verdict.claim_traces[0].deciding_passage_id == record.passage.passage_id


def test_verify_text_no_claims_is_error():
    _, embedder, index, nli = _verify_env()
    extractor = ScriptedClaimExtractor({"whatever": []})
    with pytest.raises(UnverifiableText):
        verify_text("whatever", extractor, index, embedder, nli)


def test_verify_text_k_caps_evidence():
    _, embedder, index, nli = _verify_env()
    record = synth_record(2)
    extractor = ScriptedClaimExtractor(
        {record.outputs.factual_text: [record.outputs.claims[0]]}
    )
    verdict = verify_text(
        record.outputs.factual_text, extractor, index, embedder, nli, k=1
    )
    assert verdict.claim_traces[0].rank_examined <= 1


# --- extraction prompt ------------------------------------------------------------------


def test_extraction_prompt_shape():
    prompt = build_claim_extraction_prompt("Some text.")
    assert prompt.startswith("Input: Some text.\n\n")
    assert "Instructions: Execute the following step:" in prompt
    assert CLAIM_EXTRACTION_INSTRUCTIONS in prompt
    assert "'step_1': List[str]" in prompt


def test_prompt_bytes_are_pinned():
    import hashlib

    from factforge.synthgen import build_unified_prompt

    def digest(prompt: str) -> str:
        return hashlib.sha256(prompt.encode("utf-8")).hexdigest()

    assert digest(build_claim_extraction_prompt("x")) == (
        "280a468abf5437744f1db143ee584b01c9e7347089aba1b3f4718a76d72a1dc8"
    )
    assert digest(build_unified_prompt("x")) == (
        "c5120103bd13234d67a8c1c486f7d057c2830376330628c13649143b94efa16d"
    )


def test_extraction_instructions_match_first_generation_step():
    from factforge.synthgen import UNIFIED_PROMPT_INSTRUCTIONS

    assert CLAIM_EXTRACTION_INSTRUCTIONS == UNIFIED_PROMPT_INSTRUCTIONS.split("\n\n")[0]


# --- classify entry point ----------------------------------------------------------------


def test_classify_validates_inputs():
    profile = BackendProfile(name="nli", kind="nli", transport="mock")
    nli = RuleNliBackend(profile)
    with pytest.raises(ValueError):
        classify(nli, "", "hypothesis")
    with pytest.raises(ValueError):
        classify(nli, "premise", " ")
    assert classify(nli, "the cat sat", "cat sat") is NliLabel.ENTAILMENT
