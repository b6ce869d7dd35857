"""Command-line interface.

One executable with subcommands covering the whole pipeline:

    ingest    pages -> passage windows
    generate  passages -> synthesis records (chat backend)
    derive    records -> retriever pairs / NLI triplets / task instances
    index     passages -> dense index file (embedding backend)
    verify    text -> claim-level verdict trace (all three backends)
    eval      task instances -> benchmark report (chat judge)

Every subcommand accepts --config (a JSON file that holds backend profiles
only) and --dry-run (print every settled argument as a JSON plan, touch
nothing); eval, ingest --sample-per-page and derive --split also take
--seed. A run setting is set by its flag alone; each is settled once,
before the subcommand runs: the flag, else the built-in default. Logs go to
stderr; data goes to files. Exit codes: 0 success, 1 domain error or bad
value (an `error:` line on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from . import backends as be
from . import corpus, dataset, evalharness, synthgen
from .errors import FactforgeError
from .jsonlio import atomic_write, dumps_canonical, read_records, to_row, write_jsonl, write_records
from .verification import DEFAULT_TOP_K, ChatClaimExtractor, verify_text

if TYPE_CHECKING:
    from .retrieval import PassageIndex

log = logging.getLogger("factforge")

DEFAULT_SEEDS = 5

# The header schema of each `derive --what` output file.
DERIVED_SCHEMAS = {
    "retriever": "retriever_pairs",
    "nli": "nli_triplets",
    "task1": "task1_instances",
    "task2": "task2_instances",
}


@dataclass(frozen=True)
class RunConfig:
    """Backend profiles loaded from a config file."""

    profiles: Mapping[str, be.BackendProfile] = field(default_factory=dict)
    base_dir: Path | None = None

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise FactforgeError("config file must hold a JSON object")
        profile_rows = raw.get("profiles", {})
        if not isinstance(profile_rows, dict):
            raise FactforgeError("config 'profiles' must map profile names to settings")
        try:
            profiles = {n: be.BackendProfile.from_dict(n, row) for n, row in profile_rows.items()}
        except (TypeError, ValueError) as exc:
            raise FactforgeError(f"{path}: {exc}") from exc
        unknown = sorted(set(raw) - {"profiles"})
        if unknown:
            raise FactforgeError(f"{path}: unknown config keys {unknown}: a config file holds "
                                 "only 'profiles', and run settings are flags")
        return cls(profiles=profiles, base_dir=Path(path).parent)

    def backend(self, name: str, kind: str):
        """Build profile `name`, which must be a `kind` backend."""
        profile = self.profiles.get(name)
        if profile is None:
            raise FactforgeError(
                f"backend profile {name!r} not found in config "
                f"(available: {sorted(self.profiles)})"
            )
        if profile.kind != kind:
            raise FactforgeError(
                f"profile {name!r} has kind {profile.kind!r}, expected {kind!r}"
            )
        return be.build_backend(profile, base_dir=self.base_dir)


# Each run setting, by flag dest (`verify --k` stores into `top_k`): its
# built-in default, and its least value (None: unbounded) with the message
# that refuses a smaller one.
SETTINGS: dict[str, tuple[Any, Any, str]] = {
    "window": (corpus.DEFAULT_WINDOW, 1, "window must be >= 1"),
    "stride": (corpus.DEFAULT_STRIDE, 1, "stride must be >= 1"),
    "seed": (0, None, ""),
    "max_retries": (synthgen.DEFAULT_MAX_RETRIES, 0, "max_retries must be >= 0"),
    "ratio": (dataset.SPLIT_RATIO, None, ""),
    "top_k": (DEFAULT_TOP_K, 1, "k must be >= 1"),
    "seeds": (DEFAULT_SEEDS, 1, "need at least one seed"),
    "token_budget": (None, 1, "token budget must be >= 1"),
}


def _settle(args: argparse.Namespace) -> None:
    """Fill each setting the subcommand has a flag for: the flag,
    range-checked, else the default. The ratio a split reads must lie
    strictly between 0 and 1."""
    for key, (default, least, refusal) in SETTINGS.items():
        if not hasattr(args, key):
            continue
        flag = getattr(args, key)
        if flag is None:
            setattr(args, key, default)
        elif least is not None and flag < least:  # a refusal names the flag as typed
            name = "--k" if key == "top_k" else "--" + key.replace("_", "-")
            raise FactforgeError(f"{refusal}, got {name} {flag!r}")
    if args.command == "derive" and args.split and not 0.0 < args.ratio < 1.0:
        raise FactforgeError(f"ratio must be strictly between 0 and 1, got {args.ratio!r}")


def _refuse_idle_flags(args: argparse.Namespace) -> None:
    """Refuse a flag combination the run cannot use, before any file is read:
    a --seed, --ratio or --token-budget flag that would change nothing is refused."""
    if args.command == "ingest" and args.seed is not None and not args.sample_per_page:
        raise FactforgeError("--seed applies to ingest --sample-per-page only")
    if args.command == "derive":
        if not args.split and (args.seed, args.ratio) != (None, None):
            raise FactforgeError("--seed and --ratio apply to derive --split only")
        if args.what != "nli" and (args.passages or args.nli_backend):
            raise FactforgeError("--passages and --nli-backend apply to --what nli only")
        if bool(args.passages) != bool(args.nli_backend):
            raise FactforgeError("neutral mining needs both --passages and --nli-backend")
    if args.command == "eval":
        rag_task1 = args.task == "1" and args.mode == evalharness.MODE_RAG
        if rag_task1 and not (args.index and args.embed_backend):
            raise FactforgeError("RAG on task 1 needs --index and --embed-backend")
        if not rag_task1 and (args.index or args.embed_backend):
            raise FactforgeError("--index and --embed-backend apply to --task 1 --mode rag only")
        few_shot = args.mode in (evalharness.MODE_FS, evalharness.MODE_FS_EX)
        if args.few_shot and not few_shot:
            raise FactforgeError("--few-shot applies to --mode fs and fs_ex only")
        if few_shot and not args.few_shot:
            raise FactforgeError("few-shot modes need --few-shot with example records")
        if args.token_budget is not None and args.mode != evalharness.MODE_RAG:
            raise FactforgeError("--token-budget applies to --mode rag only")


# --- subcommand implementations --------------------------------------------------


def _caught(fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """`fn`, returning the FactforgeError it raises rather than raising it."""
    def call(arg):
        try:
            return fn(arg)
        except FactforgeError as exc:
            return exc
    return call


def _cmd_ingest(args: argparse.Namespace, config: RunConfig) -> int:
    pages = corpus.read_pages(args.pages)
    passages = []
    for page in pages:
        if args.sample_per_page:
            passages.append(corpus.sample_passage(page, args.seed, args.window, args.stride))
        else:
            passages.extend(corpus.page_passages(page, args.window, args.stride))
    count = corpus.write_passages(args.out, passages)
    log.info("ingested %d pages into %d passages -> %s", len(pages), count, args.out)
    return 0


def _cmd_generate(args: argparse.Namespace, config: RunConfig) -> int:
    chat = config.backend(args.backend, be.KIND_CHAT)
    passages = corpus.read_passages(args.passages)
    if not passages:
        raise FactforgeError(f"no passages found in {args.passages}")

    flagged = 0  # records whose falsification did not land

    def kept():  # raises inside the write, so an existing output file stays
        nonlocal flagged
        kept_any = False
        results = be.fan_out(_caught(lambda p: synthgen.generate_record(p, chat, args.max_retries)),
                             passages, be.fan_width(chat))
        for passage, result in zip(passages, results, strict=True):
            if isinstance(result, FactforgeError):
                log.warning("dropping passage %s: %s", passage.passage_id, result)
            else:
                kept_any = True
                flagged += not synthgen.FALSIFICATION_WARNINGS.isdisjoint(result.validation.warnings)
                yield result
        if not kept_any:
            raise FactforgeError("every passage failed generation")

    n = synthgen.write_records(args.out, kept())
    log.info("generated %d records (%d passages dropped, %d with a falsification warning) -> %s",
             n, len(passages) - n, flagged, args.out)
    return 0


def _cmd_derive(args: argparse.Namespace, config: RunConfig) -> int:
    records = synthgen.read_records(args.records)
    if args.split:
        train, val = dataset.split_train_val(records, args.ratio, args.seed)
        records = train if args.split == "train" else val
    valid = [r for r in records if r.validation.ok]
    if len(valid) < len(records):
        log.info("skipping %d records with hard validation failures", len(records) - len(valid))

    header: dict[str, Any] = {}
    items: list[Any]
    mining = ""
    if args.what == "retriever":
        items = [p for r in valid for p in dataset.derive_retriever_pairs(r)]
    elif args.what == "nli":
        neutrals: Iterable[list[str] | None] = [None] * len(valid)
        if args.passages:
            nli = config.backend(args.nli_backend, be.KIND_NLI)
            pools = dataset.neutral_pools(valid, corpus.read_passages(args.passages))
            neutrals = be.fan_out(lambda job: dataset.mine_neutrals(*job, nli), zip(valid, pools),
                                  be.fan_width(nli))
            mining = (" (%d NLI calls to mine neutrals, %d claims with a one-window pool picked "
                      "without a call, %d claims with an empty pool left without a neutral)"
                      % dataset.mining_cost(valid, pools))
        items = [t for r, ns in zip(valid, neutrals, strict=True)
                 for t in dataset.derive_nli_triplets(r, ns)]
        header["neutrals_mined"] = bool(args.passages)
    elif args.what == "task1":
        items = dataset.build_task1(valid)
    else:
        items = dataset.build_task2(valid)

    n = write_records(args.out, items, DERIVED_SCHEMAS[args.what], count=len(items), **header)
    log.info("derived %d %s rows%s -> %s", n, args.what, mining, args.out)
    return 0


def _cmd_index(args: argparse.Namespace, config: RunConfig) -> int:
    from .retrieval import index_build  # numpy; imported only by the subcommands that need it

    embedder = config.backend(args.backend, be.KIND_EMBEDDING)
    passages = corpus.read_passages(args.passages)
    index = index_build(passages, embedder)
    index.save(args.out)
    log.info(
        "indexed %d passages (dimension %d) -> %s", len(index), index.dimension, args.out
    )
    return 0


def _parse_backend_spec(spec: str) -> dict[str, str]:
    roles = {}
    for part in spec.split(","):
        part = part.strip()
        if "=" not in part:
            raise FactforgeError(
                f"--backends expects role=profile assignments, got {part!r}"
            )
        role, name = (s.strip() for s in part.split("=", 1))
        if role in roles:
            raise FactforgeError(f"--backends names role {role!r} twice")
        if role not in ("extractor", "embedder", "nli"):
            raise FactforgeError(f"--backends names unknown role {role!r}")
        roles[role] = name
    missing = {"extractor", "embedder", "nli"} - set(roles)
    if missing:
        raise FactforgeError(f"--backends is missing roles: {sorted(missing)}")
    return roles


def _cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    from .retrieval import PassageIndex

    roles = _parse_backend_spec(args.backends)
    extractor = ChatClaimExtractor(config.backend(roles["extractor"], be.KIND_CHAT))
    embedder = config.backend(roles["embedder"], be.KIND_EMBEDDING)
    nli = config.backend(roles["nli"], be.KIND_NLI)
    index = PassageIndex.load(args.index)

    if args.text == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.text).read_text(encoding="utf-8")
    if not text.strip():
        raise FactforgeError("no text to verify")

    verdict = verify_text(text, extractor, index, embedder, nli, args.top_k)
    write_jsonl(args.trace, [
        {"schema": "verification_trace", "version": 1, "k": args.top_k},
        *map(to_row, verdict.claim_traces),
        {"factual": verdict.factual},
    ])
    log.info(
        "verdict: %s (%d claims) -> %s",
        "factual" if verdict.factual else "not factual",
        len(verdict.claim_traces),
        args.trace,
    )
    return 0


def _load_few_shot(path: str | None) -> tuple[tuple[str, bool], ...]:
    if not path:
        return ()
    return tuple((ex.text, ex.label) for ex in read_records(path, dataset.Task1Instance))


def _load_instances(path: str, task: str):
    cls = dataset.Task1Instance if task == "1" else dataset.Task2Instance
    return read_records(path, cls, DERIVED_SCHEMAS[f"task{task}"])


def _judge_system(
    chat,
    spec: evalharness.PromptSpec,
    task: str,
    instances,
    seeds: Sequence[int],
    index: PassageIndex | None,
    embedder,
):
    """Ask a chat judge for every (seed, instance) cell at once; the
    (instance, seed) -> bool verdict system that scores the answers.

    Task-1 RAG evidence, the top DEFAULT_TOP_K passages, is retrieved once
    per distinct text, before any judge call. Seed `s` orders the few-shot
    examples by `random.Random(s)`.
    A greedy judge's (temperature 0) cell is keyed by what its prompt is
    built from, (few-shot order, text, evidence), so each distinct prompt is
    built and asked once; a sampling judge's by (seed, position). The keys
    fan out once at the judge width; a failed call fails every cell with it.
    """
    evidence: dict[str, tuple[str, ...]] = {}
    if index is not None:  # loaded for task-1 RAG only
        texts = list(dict.fromkeys(instance.text for instance in instances))
        for text, query in zip(texts, embedder.embed(texts), strict=True):
            hits = index.top_k(query, DEFAULT_TOP_K)
            evidence[text] = tuple(index.text_of(pid) for pid, _ in hits)

    def judged(instance) -> tuple[str, tuple[str, ...]]:
        if task == "1":
            return instance.text, evidence.get(instance.text, ())
        return instance.claim, (instance.evidence,)

    prompts: dict[tuple, list[dict[str, str]]] = {}  # by cell key
    cells: dict[tuple[int, int], tuple] = {}  # (seed, id(instance)) -> cell key
    shots = spec.few_shot_examples
    for seed in seeds:
        examples = tuple(random.Random(seed).sample(shots, len(shots)))
        for position, instance in enumerate(instances):
            text, found = judged(instance)
            key = (seed, position) if chat.profile.temperature > 0 else (examples, text, found)
            if key not in prompts:
                prompts[key] = evalharness.build_prompt(
                    replace(spec, few_shot_examples=examples, evidence=found), text)
            cells[seed, id(instance)] = key

    answers = dict(zip(prompts, be.fan_out(_caught(chat.complete), prompts.values(),
                                           be.fan_width(chat)), strict=True))

    def system(instance, seed: int) -> bool:
        answer = answers[cells[seed, id(instance)]]
        if isinstance(answer, FactforgeError):
            raise answer
        return evalharness.parse_llm_verdict(answer, explain_mode=spec.explain)

    return system


def _cmd_eval(args: argparse.Namespace, config: RunConfig) -> int:
    instances = _load_instances(args.instances, args.task)
    if not instances:
        raise FactforgeError(f"no instances found in {args.instances}")
    # `run_benchmark` checks this too, but only after the judge calls are paid for.
    evalharness.check_scorable([instance.label for instance in instances], args.seeds)
    chat = config.backend(args.backend, be.KIND_CHAT)
    spec = evalharness.PromptSpec(
        mode=args.mode,
        few_shot_examples=_load_few_shot(args.few_shot),
        token_budget=args.token_budget,
    )
    index = embedder = None
    if args.index:
        from .retrieval import PassageIndex

        index = PassageIndex.load(args.index)
        embedder = config.backend(args.embed_backend, be.KIND_EMBEDDING)
    if spec.few_shot and not spec.few_shot_examples:
        raise FactforgeError(f"{args.few_shot} holds no few-shot examples")

    task_name = (
        evalharness.TASK_END_TO_END if args.task == "1" else evalharness.TASK_CLAIM_VERIFICATION
    )
    seeds = [args.seed + i for i in range(args.seeds)]
    started = time.monotonic()
    system = _judge_system(chat, spec, args.task, instances, seeds, index, embedder)
    report = evalharness.run_benchmark(task_name, system, instances, seeds)
    with atomic_write(args.report, encoding="utf-8") as fh:
        fh.write(json.dumps(to_row(report), indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    log.info(
        "balanced accuracy %.4f +/- %.4f over %d seeds in %.2f s -> %s",
        report.balanced_accuracy, report.balanced_accuracy_std, args.seeds,
        time.monotonic() - started, args.report,
    )
    return 0


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file with backend profiles")
    common.add_argument(
        "--dry-run", action="store_true",
        help="print every settled argument as a JSON plan and do nothing",
    )
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, help="base random seed")

    parser = argparse.ArgumentParser(
        prog="factforge",
        description="Synthesize factual/unfactual text pairs and fact-check texts "
        "against a passage corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[seeded], help="split pages into passage windows")
    p.add_argument("--pages", required=True, help="page record file or directory")
    p.add_argument("--out", required=True, help="output passage file")
    p.add_argument("--window", type=int, default=None, help="sentences per passage")
    p.add_argument("--stride", type=int, default=None, help="window step in sentences")
    p.add_argument(
        "--sample-per-page", action="store_true",
        help="emit one uniformly sampled window per page instead of all windows",
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("generate", parents=[common], help="synthesize records from passages")
    p.add_argument("--passages", required=True)
    p.add_argument("--backend", required=True, help="chat backend profile name")
    p.add_argument("--max-retries", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("derive", parents=[seeded], help="derive training data or task instances")
    p.add_argument("--records", required=True)
    p.add_argument("--what", required=True, choices=["retriever", "nli", "task1", "task2"])
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=["train", "val"], default=None,
                   help="derive from one side of the record-level split")
    p.add_argument("--ratio", type=float, default=None, help="train fraction for --split")
    p.add_argument("--passages", default=None,
                   help="all-windows passage file for neutral mining (nli only)")
    p.add_argument("--nli-backend", default=None,
                   help="NLI backend profile for neutral mining (nli only)")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("index", parents=[common], help="embed passages into a dense index")
    p.add_argument("--passages", required=True)
    p.add_argument("--backend", required=True, help="embedding backend profile name")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("verify", parents=[common], help="fact-check one text against an index")
    p.add_argument("--text", required=True, help="text file, or - for stdin")
    p.add_argument("--index", required=True)
    p.add_argument(
        "--backends", required=True,
        help="role assignments: extractor=NAME,embedder=NAME,nli=NAME",
    )
    p.add_argument("--k", dest="top_k", type=int, default=None,
                   help="passages retrieved per claim")
    p.add_argument("--trace", required=True, help="output trace file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", parents=[seeded], help="run an LLM judge over task instances")
    p.add_argument("--task", required=True, choices=["1", "2"])
    p.add_argument("--mode", required=True, choices=list(evalharness.MODES))
    p.add_argument("--instances", required=True)
    p.add_argument("--backend", required=True, help="chat judge profile name")
    p.add_argument("--seeds", type=int, default=None, help="number of seeded runs")
    p.add_argument("--report", required=True, help="output report file (JSON)")
    p.add_argument("--few-shot", default=None, help="example record file for fs modes")
    p.add_argument("--index", default=None, help="index file for RAG evidence")
    p.add_argument("--embed-backend", default=None, help="embedding profile for RAG")
    p.add_argument("--token-budget", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _refuse_idle_flags(args)
        config = RunConfig.load(args.config) if args.config else RunConfig()
        _settle(args)
        if args.dry_run:
            plan = {k: v for k, v in vars(args).items() if k not in ("command", "func", "dry_run")}
            print(dumps_canonical({"command": args.command, "plan": plan}))
            return 0
        return args.func(args, config)
    except (FactforgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
