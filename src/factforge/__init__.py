"""factforge: synthetic factual/unfactual text pairs and claim-level fact checking.

The pipeline runs in stages, each usable on its own:

  corpus        pages -> sentence windows (passages)
  synthgen      passage -> claims, a falsified claim, and paired
                factual/unfactual texts via one chat call
  dataset       records -> retriever pairs, NLI triplets, task instances
  retrieval     exact dense top-k search and the in-batch training loss
  verification  text -> per-claim verdicts via retrieval + NLI
  evalharness   prompt building, verdict parsing, benchmark metrics
  backends      chat / embedding / NLI transports plus deterministic mocks
  cli           one executable covering all of the above
"""

from .backends import (
    BackendProfile,
    HashedBowEmbedder,
    RuleNliBackend,
    ScriptedChatBackend,
    SequenceChatBackend,
    build_backend,
)
from .corpus import (
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    Page,
    Passage,
    page_passages,
    sample_passage,
    split_sentences,
    window_passages,
)
from .dataset import (
    NliTriplet,
    RetrieverPair,
    Task1Instance,
    Task2Instance,
    build_task1,
    build_task2,
    derive_nli_triplets,
    derive_retriever_pairs,
    mine_neutral_passage,
    split_train_val,
)
from .errors import FactforgeError
from .evalharness import (
    EvalReport,
    PromptSpec,
    balanced_accuracy,
    build_prompt,
    easiness_f1,
    easiness_p,
    easiness_r,
    parse_llm_verdict,
    rouge1_f1,
    run_benchmark,
)
from .retrieval import PassageIndex, RankedResult, in_batch_loss, index_build, recall_at_k
from .synthgen import (
    ResourceRecord,
    StepOutputs,
    ValidationReport,
    build_unified_prompt,
    generate_record,
    parse_generation_output,
    validate_record,
)
from .verification import (
    ChatClaimExtractor,
    NliDistribution,
    NliLabel,
    ScriptedClaimExtractor,
    Verdict,
    classify,
    verify_claim,
    verify_text,
)

__version__ = "0.1.0"

__all__ = [
    "BackendProfile", "HashedBowEmbedder", "RuleNliBackend", "ScriptedChatBackend",
    "SequenceChatBackend", "build_backend",
    "DEFAULT_STRIDE", "DEFAULT_WINDOW", "Page", "Passage", "page_passages",
    "sample_passage", "split_sentences", "window_passages",
    "NliTriplet", "RetrieverPair", "Task1Instance", "Task2Instance",
    "build_task1", "build_task2", "derive_nli_triplets", "derive_retriever_pairs",
    "mine_neutral_passage", "split_train_val",
    "FactforgeError",
    "EvalReport", "PromptSpec", "balanced_accuracy", "build_prompt",
    "easiness_f1", "easiness_p", "easiness_r", "parse_llm_verdict",
    "rouge1_f1", "run_benchmark",
    "PassageIndex", "RankedResult", "in_batch_loss", "index_build", "recall_at_k",
    "ResourceRecord", "StepOutputs", "ValidationReport", "build_unified_prompt",
    "generate_record", "parse_generation_output", "validate_record",
    "ChatClaimExtractor", "NliDistribution", "NliLabel", "ScriptedClaimExtractor",
    "Verdict", "classify", "verify_claim", "verify_text",
    "__version__",
]
