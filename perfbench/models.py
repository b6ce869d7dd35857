"""The benchmark's own deterministic model rules.

The latency server answers with them, and the `verify_http` check uses them
as an oracle that shares no code with factforge. They give the same answers
as factforge's ``hashed_bow`` embedding mock and ``rules`` NLI mock (with the
marker as contradiction term) on the benchmark's fixture text, but they are
a frozen copy: a change to the package's mocks changes neither the server's
answers nor its cost per call.
"""

from __future__ import annotations

import hashlib
import math
import re

from fixtures import MARKER

NLI_ENTAILMENT = {"entailment": 0.9, "neutral": 0.05, "contradiction": 0.05}
NLI_NEUTRAL = {"entailment": 0.05, "neutral": 0.9, "contradiction": 0.05}
NLI_CONTRADICTION = {"entailment": 0.05, "neutral": 0.05, "contradiction": 0.9}

# Fixture sentences start with a capital and end with a full stop, and no
# fixture word is an abbreviation, so a full stop, a space and a capital
# always mark a sentence boundary.
_BOUNDARY = re.compile(r"(?<=\.) (?=[A-Z])")
_PUNCT = re.compile(r"[^\w\s]")


def split_sentences(text: str) -> list[str]:
    text = " ".join(text.split())
    return _BOUNDARY.split(text) if text else []


def embed(text: str, dimension: int) -> list[float]:
    """Each lowercased, punctuation-free token hashed (sha256) to a bucket
    and a sign; counts summed, then L2-normalized."""
    vec = [0.0] * dimension
    for token in _PUNCT.sub(" ", text.lower()).split():
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:4], "big") % dimension] += 1.0 if digest[4] & 1 else -1.0
    norm = math.sqrt(sum(v * v for v in vec))
    return [v / norm for v in vec] if norm > 0 else vec


def nli(premise: str, hypothesis: str) -> dict:
    """Entailment if the hypothesis occurs in the premise (whitespace- and
    case-normalized); else contradiction if the marker is on one side and a
    full stop on the other; else neutral."""
    prem = " ".join(premise.split()).lower()
    hyp = " ".join(hypothesis.split()).lower()
    if hyp and hyp in prem:
        return NLI_ENTAILMENT
    if ("." in prem and MARKER in hyp) or (MARKER in prem and "." in hyp):
        return NLI_CONTRADICTION
    return NLI_NEUTRAL
