"""Training data and benchmark instances derived from synthesis records.

From one record with n claims:
  * retriever pairs: every claim, plus the falsified claim, each paired
    with the source passage, the factual paraphrase, and the unfactual
    twin, giving 3 * (n + 1) pairs;
  * NLI triplets: each claim entailed by the source passage and by the
    paraphrase; the falsified claim contradicted by both and entailed by
    the unfactual twin; the original claim contradicted by the unfactual
    twin; optionally one mined neutral passage per claim. That is 3n + 4
    triplets with neutrals, 2n + 4 without (ENT 2n+1, CONTR 3, NEUT n);
  * task instances: the end-to-end task labels whole texts (paraphrase
    true, twin false), the claim-verification task labels the original and
    falsified claims against the paraphrase as evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import Passage
from .errors import FactforgeError
from .synthgen import ResourceRecord
from .verification import NliBackend, NliLabel

SPLIT_RATIO = 0.8

# Pairing kinds for retriever training pairs.
PAIR_CLAIM_SOURCE = "claim-source"
PAIR_CLAIM_FACTUAL = "claim-factual"
PAIR_CLAIM_UNFACTUAL = "claim-unfactual"
PAIR_FALSIFIED_SOURCE = "falsified-source"
PAIR_FALSIFIED_FACTUAL = "falsified-factual"
PAIR_FALSIFIED_UNFACTUAL = "falsified-unfactual"


@dataclass(frozen=True)
class RetrieverPair:
    claim: str
    passage_text: str
    record_id: str
    pairing_kind: str


@dataclass(frozen=True)
class NliTriplet:
    premise: str
    hypothesis: str
    label: NliLabel


@dataclass(frozen=True)
class Task1Instance:
    """End-to-end factuality: is this whole text factual?"""

    text: str
    label: bool
    record_id: str = ""


@dataclass(frozen=True)
class Task2Instance:
    """Claim verification: is this claim true given the evidence text?"""

    claim: str
    evidence: str
    label: bool
    record_id: str = ""


def _require_valid(record: ResourceRecord) -> None:
    if record.validation.hard_failures:
        raise FactforgeError(
            f"record {record.record_id!r} has hard validation failures: "
            f"{list(record.validation.hard_failures)}"
        )


def split_train_val(
    records: Sequence[ResourceRecord],
    ratio: float = SPLIT_RATIO,
    seed: int = 0,
) -> tuple[list[ResourceRecord], list[ResourceRecord]]:
    """Partition records (and therefore everything derived from them) by
    page, so no page falls on both sides: `ratio` counts pages.

    The pages, ordered by their least record id, are shuffled, so the
    partition does not depend on input order. Both sides are always
    non-empty.
    """
    if len(records) < 2:
        raise FactforgeError("need at least 2 records to split")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be strictly between 0 and 1")
    pages: dict[str | int, list[ResourceRecord]] = {}
    for record in sorted(records, key=lambda r: r.record_id):
        pages.setdefault(record.passage.page_id, []).append(record)
    if len(pages) < 2:
        raise FactforgeError(f"need records from at least 2 pages to split, got page "
                             f"{next(iter(pages))!r} only")
    groups = list(pages.values())
    random.Random(seed).shuffle(groups)
    n_train = min(max(int(len(groups) * ratio), 1), len(groups) - 1)
    return ([r for group in groups[:n_train] for r in group],
            [r for group in groups[n_train:] for r in group])


def derive_retriever_pairs(record: ResourceRecord) -> list[RetrieverPair]:
    """3 * (n + 1) query/passage pairs for retriever training."""
    _require_valid(record)
    out = record.outputs
    source = record.passage.text
    targets = (
        (source, PAIR_CLAIM_SOURCE, PAIR_FALSIFIED_SOURCE),
        (out.factual_text, PAIR_CLAIM_FACTUAL, PAIR_FALSIFIED_FACTUAL),
        (out.unfactual_text, PAIR_CLAIM_UNFACTUAL, PAIR_FALSIFIED_UNFACTUAL),
    )
    pairs = []
    for claim in out.claims:
        for text, claim_kind, _ in targets:
            pairs.append(RetrieverPair(claim, text, record.record_id, claim_kind))
    for text, _, falsified_kind in targets:
        pairs.append(RetrieverPair(out.altered, text, record.record_id, falsified_kind))
    return pairs


def derive_nli_triplets(
    record: ResourceRecord,
    neutrals: Sequence[str] | None = None,
) -> list[NliTriplet]:
    """Premise/hypothesis/label triplets for NLI training.

    `neutrals`, when given, must hold one mined neutral passage text per
    claim (aligned by position).
    """
    _require_valid(record)
    out = record.outputs
    source = record.passage.text
    if neutrals is not None and len(neutrals) != len(out.claims):
        raise ValueError(
            f"expected {len(out.claims)} neutral passages, got {len(neutrals)}"
        )
    triplets = []
    for claim in out.claims:
        triplets.append(NliTriplet(source, claim, NliLabel.ENTAILMENT))
        triplets.append(NliTriplet(out.factual_text, claim, NliLabel.ENTAILMENT))
    triplets.append(NliTriplet(source, out.altered, NliLabel.CONTRADICTION))
    triplets.append(NliTriplet(out.factual_text, out.altered, NliLabel.CONTRADICTION))
    triplets.append(NliTriplet(out.unfactual_text, out.altered, NliLabel.ENTAILMENT))
    triplets.append(NliTriplet(out.unfactual_text, out.original, NliLabel.CONTRADICTION))
    if neutrals is not None:
        for claim, neutral_text in zip(out.claims, neutrals):
            triplets.append(NliTriplet(neutral_text, claim, NliLabel.NEUTRAL))
    return triplets


def neutral_pools(records: Sequence[ResourceRecord],
                  windows: Iterable[Passage]) -> list[list[Passage]]:
    """Each record's mining candidates: the other windows of its page, in file order."""
    by_page: dict[str | int, list[Passage]] = {}
    for window in windows:
        by_page.setdefault(window.page_id, []).append(window)
    return [[w for w in by_page.get(r.passage.page_id, []) if w.passage_id != r.passage.passage_id]
            for r in records]


def mine_neutrals(record: ResourceRecord, pool: Sequence[Passage],
                  nli: NliBackend) -> list[str] | None:
    """One mined neutral text per claim, aligned with the claims, or None
    when the pool is empty: the record then gets no NEUT triplet."""
    if not pool:
        return None
    return [mine_neutral_passage(claim, pool, nli).text for claim in record.outputs.claims]


def mining_cost(records: Sequence[ResourceRecord],
                pools: Sequence[Sequence[Passage]]) -> tuple[int, int, int]:
    """What `mine_neutrals` costs over these pools: (NLI calls, claims
    picked without a call, claims left without a neutral). A pool of two
    or more costs one call per claim and candidate, a lone candidate none."""
    sizes = [(len(r.outputs.claims), len(p)) for r, p in zip(records, pools, strict=True)]
    return (sum(n * k for n, k in sizes if k > 1), sum(n for n, k in sizes if k == 1),
            sum(n for n, k in sizes if k == 0))


def mine_neutral_passage(
    claim: str,
    candidate_passages: Sequence[Passage],
    nli: NliBackend,
) -> Passage:
    """Pick the candidate the NLI model finds most neutral for the claim.

    Ties break toward the lexicographically smallest passage id. A lone
    candidate is returned without a call, since no answer can change the
    pick; otherwise each candidate costs one call, in order.
    """
    if not candidate_passages:
        raise FactforgeError("neutral mining needs at least one candidate")
    if len(candidate_passages) == 1:
        return candidate_passages[0]
    return min(candidate_passages,
               key=lambda p: (-nli.classify(p.text, claim).p_neut, p.passage_id))


def build_task1(records: Iterable[ResourceRecord]) -> list[Task1Instance]:
    """One true and one false instance per record; the source passage text
    is never emitted. A record with hard validation failures is refused."""
    instances = []
    for record in records:
        _require_valid(record)
        out = record.outputs
        instances += [Task1Instance(out.factual_text, True, record.record_id),
                      Task1Instance(out.unfactual_text, False, record.record_id)]
    return instances


def build_task2(records: Iterable[ResourceRecord]) -> list[Task2Instance]:
    """The original claim (true) and the falsified claim (false), each with
    the record's factual paraphrase as the evidence text. A record with
    hard validation failures is refused."""
    instances = []
    for record in records:
        _require_valid(record)
        out = record.outputs
        instances += [Task2Instance(out.original, out.factual_text, True, record.record_id),
                      Task2Instance(out.altered, out.factual_text, False, record.record_id)]
    return instances
