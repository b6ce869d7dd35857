"""Claim-level fact verification.

A text is verified by extracting its claims, retrieving evidence passages
for each claim, classifying each (passage, claim) pair with a three-way
NLI model, and aggregating: scanning passages in rank order, the first
entailment accepts the claim, the first contradiction rejects it, and a
claim with only neutral evidence is accepted. A text is factual exactly
when every claim is accepted.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from .errors import FactforgeError
from .synthgen import CLAIM_EXTRACTION_INSTRUCTIONS, clean_claims, extract_first_object

DEFAULT_TOP_K = 30


class NliLabel(enum.Enum):
    ENTAILMENT = "ENT"
    NEUTRAL = "NEUT"
    CONTRADICTION = "CONTR"


@dataclass(frozen=True)
class NliDistribution:
    """Probabilities over the three NLI labels. Must sum to 1 within 1e-6."""

    p_ent: float
    p_neut: float
    p_contr: float

    def __post_init__(self) -> None:
        for name, p in (("p_ent", self.p_ent), ("p_neut", self.p_neut), ("p_contr", self.p_contr)):
            if not math.isfinite(p) or not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p!r} outside [0, 1]")
        total = self.p_ent + self.p_neut + self.p_contr
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def top_label(self) -> NliLabel:
        """Argmax label; exact ties resolve entailment, then contradiction, then neutral."""
        best_label, best_p = NliLabel.ENTAILMENT, self.p_ent
        if self.p_contr > best_p:
            best_label, best_p = NliLabel.CONTRADICTION, self.p_contr
        if self.p_neut > best_p:
            best_label = NliLabel.NEUTRAL
        return best_label


class NliBackend(Protocol):
    def classify(self, premise: str, hypothesis: str) -> NliDistribution: ...


class ClaimExtractorBackend(Protocol):
    def extract_claims(self, text: str) -> list[str]: ...


def classify(nli: NliBackend, premise: str, hypothesis: str) -> NliLabel:
    """Three-way classification of one premise/hypothesis pair."""
    if not premise.strip() or not hypothesis.strip():
        raise ValueError("premise and hypothesis must be non-empty")
    return nli.classify(premise, hypothesis).top_label


@dataclass(frozen=True)
class ClaimTrace:
    """How one claim was decided."""

    claim: str
    decision: bool
    deciding_passage_id: str | None
    rank_examined: int


@dataclass(frozen=True)
class Verdict:
    factual: bool
    claim_traces: tuple[ClaimTrace, ...]


def verify_text(
    text: str,
    extractor: ClaimExtractorBackend,
    index,
    embedder,
    nli: NliBackend,
    k: int = DEFAULT_TOP_K,
) -> Verdict:
    """Full pipeline verdict for one text.

    The claims are embedded in one call and ranked on the calling thread;
    their NLI calls are then scheduled across claims, up to the NLI
    backend's width (see `backends.fan_width`) at once. Raises
    FactforgeError when claim extraction yields nothing.
    """
    from .backends import fan_width

    claims = extractor.extract_claims(text)
    if not claims:
        raise FactforgeError("claim extraction produced zero claims")
    vecs = embedder.embed(claims)
    jobs = [(claim, [(pid, index.text_of(pid)) for pid, _ in index.top_k(vec, k)])
            for claim, vec in zip(claims, vecs, strict=True)]
    traces = _scan(jobs, nli, fan_width(nli))
    return Verdict(factual=all(t.decision for t in traces), claim_traces=tuple(traces))


def _scan(
    jobs: Sequence[tuple[str, Sequence[tuple[str, str]]]],
    nli: NliBackend,
    width: int,
) -> list[ClaimTrace]:
    """Decide each (claim, ranked (passage_id, text) hits) job with up to
    `width` NLI calls in flight.

    A free slot takes the next unasked rank of an undecided claim, preferring
    the claim with the fewest calls in flight, then the lowest next rank,
    then claim order; so a claim gets a speculative call only while every
    other undecided claim has one in flight. A claim never runs more than
    `width` ranks ahead of its answered-neutral prefix, so at most
    `width - 1` calls go past its deciding rank. An answer counts only once
    every better rank of its claim has answered neutral, so each trace is
    the serial scan's, and answers or errors past the deciding rank are
    dropped. An error the serial scan would reach starts no further call;
    once the calls in flight finish, the earliest such claim's error is
    raised.

    Only the calling thread starts calls and records answers; pool threads
    just make the calls. So an interrupt, or a BaseException from a call,
    starts no further call.
    """
    n = len(jobs)
    answers: list[dict] = [{} for _ in jobs]  # rank -> label, or the error raised
    asked, settled = [0] * n, [0] * n
    # The serial scan stops at or before the best rank known to be non-neutral.
    stop = [len(hits) for _, hits in jobs]
    traces: list = [None] * n
    errors: dict[int, Exception] = {}
    running: dict = {}  # future -> (claim, rank) of each call in flight

    def settle(i: int) -> None:
        claim, hits = jobs[i]
        while answers[i].get(settled[i]) is NliLabel.NEUTRAL:
            settled[i] += 1
        answer = answers[i].get(settled[i])
        if isinstance(answer, Exception):
            errors[i] = answer
        elif answer is not None:
            traces[i] = ClaimTrace(claim, answer is NliLabel.ENTAILMENT,
                                   hits[settled[i]][0], settled[i] + 1)
        elif settled[i] == len(hits):
            traces[i] = ClaimTrace(claim, True, None, len(hits))

    def next_call() -> tuple[int, int] | None:
        claims = [i for i in range(n)
                  if traces[i] is None and asked[i] < min(stop[i], settled[i] + width)]
        if errors or not claims or len(running) == width:
            return None
        in_flight = [i for i, _ in running.values()]
        i = min(claims, key=lambda i: (in_flight.count(i), asked[i], i))
        asked[i] += 1
        return i, asked[i] - 1

    for i in range(n):
        settle(i)  # a claim without evidence is decided before any call
    with ThreadPoolExecutor(max_workers=width) as pool:
        while True:
            while call := next_call():
                i, rank = call
                claim, hits = jobs[i]
                running[pool.submit(classify, nli, hits[rank][1], claim)] = call
            if not running:
                break
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                i, rank = running.pop(future)
                try:
                    answer = future.result()  # a BaseException propagates
                except Exception as exc:  # raised later, if the serial scan reaches it
                    answer = exc
                answers[i][rank] = answer
                if answer is not NliLabel.NEUTRAL:
                    stop[i] = min(stop[i], rank + 1)
                settle(i)
    if errors:
        raise errors[min(errors)]
    return traces


# --- claim extractors -----------------------------------------------------------

_EXTRACTION_OUTPUT_FORMAT = (
    "Output format: Return the output in a JSON with the following format: "
    "{ 'step_1': List[str]}. The output must be a valid JSON, thus try to avoid "
    "special characters like ' and \" inside the JSON values, unless you escape "
    "them with a \\. Please do not provide any preamble to your response, just "
    "give me the JSON."
)


def build_claim_extraction_prompt(text: str) -> str:
    return (
        f"Input: {text}\n\n"
        "Instructions: Execute the following step:\n\n"
        f"{CLAIM_EXTRACTION_INSTRUCTIONS}\n\n"
        f"{_EXTRACTION_OUTPUT_FORMAT}"
    )


class ChatClaimExtractor:
    """Extract claims by asking a chat backend with the claim-extraction step."""

    def __init__(self, chat_backend):
        self._chat = chat_backend

    def extract_claims(self, text: str) -> list[str]:
        raw = self._chat.complete(
            [{"role": "user", "content": build_claim_extraction_prompt(text)}]
        )
        return clean_claims(extract_first_object(raw).get("step_1")) or []


class ScriptedClaimExtractor:
    """Deterministic extractor backed by an explicit text-to-claims table."""

    def __init__(self, table: Mapping[str, Sequence[str]]):
        self._table = {k: list(v) for k, v in table.items()}

    def extract_claims(self, text: str) -> list[str]:
        return list(self._table.get(text, []))
