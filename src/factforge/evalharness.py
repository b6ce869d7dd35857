"""Benchmark harness: prompt construction for LLM judges, verdict parsing,
and the metrics used to score factuality systems.

Two tasks are supported: whole-text factuality (a text is factual or it
is not) and claim verification (a single claim judged against an evidence
text). Scoring uses balanced accuracy; claim-set comparison uses a
unigram-overlap easiness score built on ROUGE-1.
"""

from __future__ import annotations

import re
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Protocol, Sequence

from .errors import FactforgeError, UnparseableVerdict
from .textnorm import tokenize

TASK_END_TO_END = "end_to_end_factuality"
TASK_CLAIM_VERIFICATION = "claim_verification"

MODE_ZS = "zs"
MODE_FS = "fs"
MODE_ZS_EX = "zs_ex"
MODE_FS_EX = "fs_ex"
MODE_RAG = "rag"
MODES = (MODE_ZS, MODE_FS, MODE_ZS_EX, MODE_FS_EX, MODE_RAG)

FACTUAL_TOKEN = "Factual"
NOT_FACTUAL_TOKEN = "Not Factual"
LABEL_MARKER = "## LABEL:"

DEFAULT_EVIDENCE_SEPARATOR = "\n\nEvidence:\n"

ZERO_SHOT_INSTRUCTIONS = """\
Determine whether the given text is factual or not.

1. Read the input text.
2. Evaluate the factual accuracy of the input text based on your training data and knowledge.
3. If the input text is factually-accurate, i.e. supported by known information, respond with "Factual"
4. Respond with "Not Factual" if the input text contains even a single inaccuracy.
5. Just reply with "Factual" or "Not Factual", do not generate any additional text to the answer."""

RAG_INSTRUCTIONS = """\
Determine whether the given text is factual or not using the provided evidence. If the information is not present in the evidence, rely on prior knowledge.
1. Read the input text.
2. Read the evidence if provided.
3. Assess whether the input text is factual based on the evidence if present.
4. If the evidence are not provided or is insufficient, use your prior knowledge to determine the factuality.
5. Respond with "Not Factual" if the input text contains even a single inaccuracy.
6. If the evidence is not related to the text to verify, rely on your prior knowledge to provide the answer.
7. Just reply with "Factual" or "Not Factual", do not generate any additional text to the answer."""

EXPLAIN_INSTRUCTIONS = """\
Motivate your response with an explanation and then reply with "Factual" or "Not Factual"
Output format:
## EXPLANATION: explanation
## LABEL: label, i.e., "Factual" or "Not Factual\""""


# --- metrics -------------------------------------------------------------------


def confusion_counts(
    predictions: Sequence[bool], golds: Sequence[bool]
) -> tuple[int, int, int, int]:
    """(true_positive, false_negative, true_negative, false_positive),
    treating True (factual) as the positive class."""
    if len(predictions) != len(golds):
        raise ValueError("predictions and golds must have equal length")
    tp = fn = tn = fp = 0
    for pred, gold in zip(predictions, golds):
        if gold:
            if pred:
                tp += 1
            else:
                fn += 1
        else:
            if pred:
                fp += 1
            else:
                tn += 1
    return tp, fn, tn, fp


def check_scorable(golds: Sequence[bool], n_seeds: int = 1) -> None:
    """Refuse a scoring run no balanced accuracy can come from: fewer than
    one seed, no instance, or gold labels of a single class."""
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    if not golds:
        raise FactforgeError("no instances to evaluate")
    if all(golds) or not any(golds):
        raise FactforgeError("balanced accuracy undefined: gold labels contain a single class")


def balanced_accuracy(predictions: Sequence[bool], golds: Sequence[bool]) -> float:
    """Mean of the per-label recalls. Undefined when golds are single-class."""
    tp, fn, tn, fp = confusion_counts(predictions, golds)
    check_scorable(golds)
    return (tp / (tp + fn) + tn / (tn + fp)) / 2


def rouge1_f1(candidate: str, reference: str) -> float:
    """Unigram-overlap F1 after lowercasing and punctuation stripping.

    Token counts are clipped (standard ROUGE counting). Two empty texts
    score 1.0; an empty text against a non-empty one scores 0.0.
    """
    c_tokens = tokenize(candidate)
    r_tokens = tokenize(reference)
    if not c_tokens and not r_tokens:
        return 1.0
    if not c_tokens or not r_tokens:
        return 0.0
    r_counts = Counter(r_tokens)
    overlap = sum(min(count, r_counts[tok]) for tok, count in Counter(c_tokens).items())
    return 2 * overlap / (len(c_tokens) + len(r_tokens))


def easiness_p(candidates: Sequence[str], references: Sequence[str]) -> float:
    """Mean over candidate claims of the best ROUGE-1 F1 against any reference."""
    if not candidates or not references:
        raise FactforgeError("easiness needs non-empty claim sets")
    return statistics.fmean(
        max(rouge1_f1(c, r) for r in references) for c in candidates
    )


def easiness_r(candidates: Sequence[str], references: Sequence[str]) -> float:
    """Mean over reference claims of the best ROUGE-1 F1 (a symmetric score)
    against any candidate: `easiness_p` with the roles swapped."""
    return easiness_p(references, candidates)


def easiness_f1(candidates: Sequence[str], references: Sequence[str]) -> float:
    """Harmonic mean of easiness precision and recall (0 when both are 0)."""
    p = easiness_p(candidates, references)
    r = easiness_r(candidates, references)
    if p + r == 0.0:
        return 0.0
    return 2 * p * r / (p + r)


# --- prompts --------------------------------------------------------------------


@dataclass(frozen=True)
class PromptSpec:
    """Everything needed to turn a text into judge messages.

    `evidence` holds the evidence texts, best-first, that follow the text
    after `DEFAULT_EVIDENCE_SEPARATOR` in any mode; in RAG mode they are
    retrieved passages, and under a token budget the lowest-ranked are
    dropped first, whole passages only.
    """

    mode: str
    few_shot_examples: tuple[tuple[str, bool], ...] = ()
    evidence: tuple[str, ...] = ()
    token_budget: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown prompt mode {self.mode!r}")

    @property
    def explain(self) -> bool:
        return self.mode in (MODE_ZS_EX, MODE_FS_EX)

    @property
    def few_shot(self) -> bool:
        return self.mode in (MODE_FS, MODE_FS_EX)


def estimate_tokens(text: str) -> int:
    """Character-count approximation: four characters per token, rounded up."""
    return (len(text) + 3) // 4


def verdict_to_text(label: bool) -> str:
    return FACTUAL_TOKEN if label else NOT_FACTUAL_TOKEN


def _instruction_block(spec: PromptSpec) -> str:
    base = RAG_INSTRUCTIONS if spec.mode == MODE_RAG else ZERO_SHOT_INSTRUCTIONS
    if spec.explain:
        return f"{base}\n\n{EXPLAIN_INSTRUCTIONS}"
    return base


def _assemble(spec: PromptSpec, text_to_verify: str, evidence: Sequence[str]) -> list[dict[str, str]]:
    body = text_to_verify
    if evidence:
        body = text_to_verify + DEFAULT_EVIDENCE_SEPARATOR + "\n".join(evidence)
    messages = [{"role": "system", "content": _instruction_block(spec)}]
    if spec.few_shot:
        for example_text, example_label in spec.few_shot_examples:
            messages.append({"role": "user", "content": example_text})
            messages.append({"role": "assistant", "content": verdict_to_text(example_label)})
    messages.append({"role": "user", "content": body})
    return messages


def build_prompt(spec: PromptSpec, text_to_verify: str) -> list[dict[str, str]]:
    """Chat messages asking a judge model for a factuality verdict.

    Evidence texts follow the text after a separator. In RAG mode, when a
    token budget is set, whole passages are dropped lowest-rank first until
    the message total fits; a budget that fits no passage is a ValueError.
    """
    if spec.mode == MODE_RAG and not spec.evidence:
        raise ValueError("RAG mode requires at least one evidence passage")
    if spec.few_shot and not spec.few_shot_examples:
        raise ValueError("few-shot modes require examples")

    evidence = list(spec.evidence)
    messages = _assemble(spec, text_to_verify, evidence)
    if spec.mode == MODE_RAG and spec.token_budget is not None:
        while (
            sum(estimate_tokens(m["content"]) for m in messages) > spec.token_budget
            and evidence
        ):
            evidence.pop()
            messages = _assemble(spec, text_to_verify, evidence)
        if not evidence:
            raise ValueError(f"token budget {spec.token_budget} leaves no room for any "
                             "evidence passage")
    return messages


_FACTUAL_WORD = re.compile(r"(?<![\w-])factual(?![\w-])", re.IGNORECASE)
_NOT_FACTUAL_WORDS = re.compile(r"(?<![\w-])not\s+factual(?![\w-])", re.IGNORECASE)


def parse_llm_verdict(raw: str, explain_mode: bool = False) -> bool:
    """Map judge output to a boolean verdict.

    Case-insensitive whole-word search, with "not factual" taking
    precedence over "factual"; "factual" inside a longer word (including
    hyphenated ones such as "non-factual") is no verdict. In explain mode
    only the text after the label marker is considered (falling back to
    the whole output when the marker is absent). Raises UnparseableVerdict
    when neither token occurs.
    """
    scope = raw
    if explain_mode:
        marker_at = raw.find(LABEL_MARKER)
        if marker_at != -1:
            scope = raw[marker_at + len(LABEL_MARKER):]
    if _NOT_FACTUAL_WORDS.search(scope):
        return False
    if _FACTUAL_WORD.search(scope):
        return True
    raise UnparseableVerdict(f"no verdict token in output: {raw[:80]!r}")


# --- benchmark runner ------------------------------------------------------------


class Instance(Protocol):
    label: bool


VerdictSystem = Callable[[Any, int], bool]


@dataclass(frozen=True)
class SeedRun:
    """Scores of one pass over the instance set with one seed."""

    seed: int
    balanced_accuracy: float
    recall_true: float
    recall_false: float
    true_positive: int
    false_negative: int
    true_negative: int
    false_positive: int
    n_failed: int
    n_unparseable: int


@dataclass(frozen=True)
class EvalReport:
    task: str
    n_instances: int
    balanced_accuracy: float
    balanced_accuracy_std: float
    runs: tuple[SeedRun, ...]


def run_benchmark(
    task: str,
    system: VerdictSystem,
    instances: Sequence[Instance],
    seeds: Iterable[int],
) -> EvalReport:
    """Score a verdict system over the instances once per seed.

    The system is a callable (instance, seed) -> bool, called one seed at
    a time, in instance order; domain errors it raises are caught per
    instance, counted, and scored as a wrong prediction (unparseable
    verdicts are tallied separately). The report carries the per-seed
    runs, in seed order, plus mean and standard deviation.
    """
    seeds = list(seeds)
    golds = [bool(inst.label) for inst in instances]
    check_scorable(golds, len(seeds))

    def run_seed(seed: int) -> SeedRun:
        predictions: list[bool] = []
        n_failed = n_unparseable = 0
        for inst in instances:
            try:
                pred = bool(system(inst, seed))
            except UnparseableVerdict:
                n_unparseable += 1
                pred = not inst.label
            except FactforgeError:
                n_failed += 1
                pred = not inst.label
            predictions.append(pred)
        tp, fn, tn, fp = confusion_counts(predictions, golds)
        recall_true = tp / (tp + fn)
        recall_false = tn / (tn + fp)
        return SeedRun(
            seed=seed,
            balanced_accuracy=(recall_true + recall_false) / 2,
            recall_true=recall_true,
            recall_false=recall_false,
            true_positive=tp,
            false_negative=fn,
            true_negative=tn,
            false_positive=fp,
            n_failed=n_failed,
            n_unparseable=n_unparseable,
        )

    runs = [run_seed(seed) for seed in seeds]
    scores = [run.balanced_accuracy for run in runs]
    return EvalReport(
        task=task,
        n_instances=len(instances),
        balanced_accuracy=statistics.fmean(scores),
        balanced_accuracy_std=statistics.stdev(scores) if len(scores) > 1 else 0.0,
        runs=tuple(runs),
    )
