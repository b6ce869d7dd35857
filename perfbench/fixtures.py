"""Seeded input generator for the benchmark workloads.

The same seed always gives the same files. Text is made of invented words
built from syllables, so no sentence exists anywhere but where the generator
put it. Every verification claim is recorded with its ground truth:
``entailed`` (copied from the corpus), ``contradicted`` (a corpus sentence
altered with the marker word) or ``neutral`` (a new sentence); an entailed
claim also records the page it was copied from.

The claim mixes and fault shares below are assumptions of this benchmark,
not measured traffic; perfbench/README.md lists the metrics that depend on
them.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

MARKER = "implausibly"
SENTENCE_WORDS = 8
VOCABULARY = 4000
WINDOW = 5  # factforge's default ingest window

_ONSETS = "b c d f g h j k l m n p r s t v w z br dr gr kr pl tr".split()
_VOWELS = "a e i o u ai ou ea".split()
_CODAS = ["", "", "n", "r", "s", "l", "m", "x"]

# Claim mixes of verification texts, cycled in order: C copied (entailed),
# N new (neutral, costs k NLI calls), A altered (contradicted at rank 1).
# Assumed, not measured: a third of the claims are new, a sixth altered.
# Two texts in ten have no new claim and two have two, so the per-text
# median falls inside the one-new-claim group and the p90 inside the
# two-new-claim group, not on the edge between groups.
TEXT_PATTERNS = ("CCN", "CAC", "CNA", "NCN", "NCC", "CCC", "ACN", "NAN", "CCN", "CNA")
# Pages of near-copies placed above each copied claim's own passages, cycled
# in order, so copied claims are usually entailed at rank 1 to 4.
DISTRACTOR_CYCLE = (0, 1, 2, 3)


def unit_hash(*parts) -> float:
    """Deterministic value in [0, 1) from the parts."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def alter(claim: str) -> str:
    """The marker-altered (contradicted) version of a claim."""
    return claim.rstrip(".") + f", {MARKER}."


def malformed_first(seed: int, passage_text: str, share: float) -> bool:
    """Whether the latency server answers this passage's first generation
    request with malformed JSON."""
    return unit_hash(seed, "malformed", passage_text) < share


class Writer:
    """Invented vocabulary and sentences drawn from one seeded stream."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"factforge-bench\x1f{seed}")
        words: set[str] = set()
        while len(words) < VOCABULARY:
            words.add("".join(
                self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS) + self.rng.choice(_CODAS)
                for _ in range(self.rng.randint(2, 3))
            ))
        self.words = sorted(words)
        self.rng.shuffle(self.words)
        self._used: set[str] = set()

    def sentence(self) -> str:
        """A sentence never returned before."""
        while True:
            words = self.rng.choices(self.words, k=SENTENCE_WORDS)
            text = " ".join(words).capitalize() + "."
            if text not in self._used:
                self._used.add(text)
                return text

    def near_copy(self, claim: str) -> str:
        """The claim's words shuffled, one swapped: similar, never entailing."""
        words = claim.rstrip(".").lower().split()
        self.rng.shuffle(words)
        words[self.rng.randrange(len(words))] = self.rng.choice(self.words)
        text = " ".join(words).capitalize() + "."
        self._used.add(text)
        return text


def page_row(page_id: str, sentences: list[str]) -> dict:
    return {"page_id": page_id, "title": page_id, "text": " ".join(sentences)}


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def pipeline_inputs(seed: int, out: Path, pages: int, sentences: int, verify_texts: int) -> dict:
    """Pages for the CLI loop plus verification text files with their labels.

    Each verification text is a run of consecutive page sentences (factual)
    or the same run with its first sentence altered (not factual).
    """
    w = Writer(seed)
    page_sentences = [[w.sentence() for _ in range(sentences)] for _ in range(pages)]
    write_jsonl(out / "pages.jsonl", (
        page_row(f"page{i:04d}", s) for i, s in enumerate(page_sentences)
    ))
    texts = []
    for i in range(verify_texts):
        run = page_sentences[w.rng.randrange(pages)][:3]
        factual = i % 2 == 0
        claims = run if factual else [alter(run[0])] + run[1:]
        (out / f"text{i}.txt").write_text(" ".join(claims), encoding="utf-8")
        texts.append({"file": f"text{i}.txt", "factual": factual})
    write_jsonl(out / "verify_labels.jsonl", texts)
    return {"pages": out / "pages.jsonl", "texts": texts}


def verify_inputs(seed: int, out: Path, texts: int, passages: int, page_sentences: int) -> dict:
    """Pages holding about `passages` windows, and texts to verify.

    Claim kinds follow TEXT_PATTERNS; no claim occurs in two texts. Also
    returns the pages as (page id, sentences) pairs, for the check's own
    exhaustive scan.
    """
    w = Writer(seed)
    base: list[list[str]] = []
    distractors: list[list[str]] = []
    rows = []
    copied_seen = 0

    def corpus_sentence() -> str:
        if not base or len(base[-1]) == page_sentences:
            base.append([])
        s = w.sentence()
        base[-1].append(s)
        return s

    for t in range(texts):
        claims = []
        for kind in TEXT_PATTERNS[t % len(TEXT_PATTERNS)]:
            if kind == "C":
                claim = corpus_sentence()
                d = DISTRACTOR_CYCLE[copied_seen % len(DISTRACTOR_CYCLE)]
                copied_seen += 1
                for _ in range(d):
                    distractors.append([w.near_copy(claim) for _ in range(WINDOW)])
                claims.append({"claim": claim, "truth": "entailed",
                               "page": f"base{len(base) - 1:05d}"})
            elif kind == "A":
                claims.append({"claim": alter(corpus_sentence()), "truth": "contradicted"})
            else:
                claims.append({"claim": w.sentence(), "truth": "neutral"})
        rows.append({
            "text": " ".join(c["claim"] for c in claims),
            "claims": claims,
            "factual": all(c["truth"] != "contradicted" for c in claims),
        })
    while len(base[-1]) < page_sentences:
        base[-1].append(w.sentence())
    per_page = page_sentences - WINDOW + 1
    count = len(base) * per_page + len(distractors)
    while count < passages:
        base.append([w.sentence() for _ in range(page_sentences)])
        count += per_page
    named = [(f"base{i:05d}", s) for i, s in enumerate(base)]
    named += [(f"near{i:05d}", s) for i, s in enumerate(distractors)]
    pages = [page_row(page_id, s) for page_id, s in named]
    w.rng.shuffle(pages)
    write_jsonl(out / "pages.jsonl", pages)
    write_jsonl(out / "texts.jsonl", rows)
    return {"pages": out / "pages.jsonl", "texts": rows, "named_pages": named}


def windows(named_pages):
    """(passage id, text) of every window factforge's default ingest cuts
    from the (page id, sentences) pairs."""
    for page_id, sentences in named_pages:
        for start in range(len(sentences) - WINDOW + 1):
            yield f"{page_id}:{start}", " ".join(sentences[start:start + WINDOW])
