#!/usr/bin/env python3
"""Run the whole pipeline offline against scripted mock backends.

Builds a small synthetic corpus, fabricates deterministic chat answers for
every generation and extraction prompt the pipeline will issue, then drives
the command-line interface end to end: ingest, generate, derive, index,
verify, eval. No network access and no real models involved; the point is
to show the artifact flow and the expected file formats.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factforge.backends import BackendProfile, chat_fingerprint
from factforge.cli import main as cli_main
from factforge.corpus import page_passages, read_pages, sample_passage
from factforge.synthgen import StepOutputs, build_unified_prompt
from factforge.verification import build_claim_extraction_prompt

MARKER = "implausibly"

# Small fake encyclopedia. One declarative sentence per fact keeps the
# scripted "model" honest: claims are sentences, the altered claim is a
# marked rewrite of the first one.
TOPICS = [
    ("granite", "Granite", [
        "Granite is an intrusive igneous rock.",
        "Granite forms from slowly cooling magma.",
        "Granite contains quartz and feldspar.",
        "Granite is common in continental crust.",
        "Granite takes a high polish.",
        "Granite quarries operate on every continent.",
        "Granite resists weathering well.",
    ]),
    ("heron", "Heron", [
        "Herons are long-legged wading birds.",
        "Herons hunt fish in shallow water.",
        "Herons nest in colonies called heronries.",
        "Herons fly with retracted necks.",
        "Herons occupy wetlands worldwide.",
        "Herons swallow prey whole.",
        "Herons stand motionless while hunting.",
    ]),
    ("basalt", "Basalt", [
        "Basalt is a fine-grained volcanic rock.",
        "Basalt forms from rapidly cooling lava.",
        "Basalt underlies most of the ocean floor.",
        "Basalt is rich in iron and magnesium.",
        "Basalt columns form by contraction during cooling.",
        "Basalt weathers into fertile soils.",
        "Basalt is darker than granite.",
    ]),
    ("osprey", "Osprey", [
        "Ospreys are fish-eating raptors.",
        "Ospreys dive feet-first for prey.",
        "Ospreys build large stick nests.",
        "Ospreys migrate long distances.",
        "Ospreys have reversible outer toes.",
        "Ospreys occur on every continent except Antarctica.",
    ]),
]

GEN_PROFILE = BackendProfile(name="gen", kind="chat", transport="mock")


def scripted_outputs(passage) -> StepOutputs:
    """The "model's" four steps: the sentences are the claims, and the first
    one, marked, is the altered claim."""
    claims = passage.sentences
    altered = claims[0].rstrip(".") + f", {MARKER}."
    return StepOutputs(claims, altered, claims[0], " ".join(claims),
                       " ".join((altered, *claims[1:])))


def chat_entry(prompt: str, response: str) -> dict:
    messages = [{"role": "user", "content": prompt}]
    return {"fingerprint": chat_fingerprint(GEN_PROFILE, messages), "response": response}


def build_workspace(workdir: Path, seed: int) -> dict:
    pages_path = workdir / "pages.jsonl"
    pages_path.write_text("\n".join(
        json.dumps({"page_id": pid, "title": title, "text": " ".join(sents)})
        for pid, title, sents in TOPICS
    ) + "\n")
    pages = read_pages(pages_path)

    entries = []
    texts = {}
    for page in pages:
        for passage in page_passages(page):
            entries.append(chat_entry(build_unified_prompt(passage),
                                      scripted_outputs(passage).to_step_json()))
        sampled = scripted_outputs(sample_passage(page, seed=seed))
        texts[page.page_id] = (sampled.factual_text, sampled.unfactual_text)
        claims_of = {
            sampled.factual_text: list(sampled.claims),
            sampled.unfactual_text: [sampled.altered, *sampled.claims[1:]],
        }
        for text, claims in claims_of.items():
            entries.append(chat_entry(
                build_claim_extraction_prompt(text), json.dumps({"step_1": claims})
            ))
    (workdir / "gen_script.jsonl").write_text(
        "\n".join(json.dumps(e) for e in entries) + "\n"
    )

    config = {
        "profiles": {
            "gen": {"kind": "chat", "transport": "mock",
                    "options": {"mock": "script", "script": "gen_script.jsonl"}},
            "judge": {"kind": "chat", "transport": "mock",
                      "options": {"mock": "verdict_rule", "markers": [MARKER]}},
            "embed": {"kind": "embedding", "transport": "mock",
                      "options": {"mock": "hashed_bow", "dimension": 128}},
            "nli": {"kind": "nli", "transport": "mock",
                    "options": {"mock": "rules", "contradictions": [[".", MARKER]]}},
        }
    }
    (workdir / "backends.json").write_text(json.dumps(config, indent=2))
    return {"pages": pages_path, "config": workdir / "backends.json", "texts": texts}


def run(argv: list) -> None:
    argv = [str(a) for a in argv]
    print(f"$ factforge {' '.join(argv)}")
    code = cli_main(argv)
    if code != 0:
        sys.exit(f"step failed with exit code {code}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", type=Path, default=Path("demo_run"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    d = args.workdir
    d.mkdir(parents=True, exist_ok=True)
    ws = build_workspace(d, args.seed)
    cfg = ["--config", ws["config"]]

    run(["ingest", "--pages", ws["pages"], "--out", d / "passages.jsonl",
         "--sample-per-page", "--seed", args.seed] + cfg)
    run(["ingest", "--pages", ws["pages"], "--out", d / "windows.jsonl"] + cfg)
    run(["generate", "--passages", d / "passages.jsonl", "--backend", "gen",
         "--out", d / "records.jsonl"] + cfg)
    run(["derive", "--records", d / "records.jsonl", "--what", "retriever",
         "--out", d / "retriever.jsonl"] + cfg)
    run(["derive", "--records", d / "records.jsonl", "--what", "nli",
         "--out", d / "nli.jsonl", "--passages", d / "windows.jsonl",
         "--nli-backend", "nli"] + cfg)
    run(["derive", "--records", d / "records.jsonl", "--what", "task1",
         "--out", d / "task1.jsonl"] + cfg)
    run(["derive", "--records", d / "records.jsonl", "--what", "task2",
         "--out", d / "task2.jsonl"] + cfg)
    run(["index", "--passages", d / "windows.jsonl", "--backend", "embed",
         "--out", d / "index.bin"] + cfg)

    factual, unfactual = ws["texts"]["granite"]
    for name, text in (("factual", factual), ("unfactual", unfactual)):
        sample = d / f"{name}_text.txt"
        sample.write_text(text)
        run(["verify", "--text", sample, "--index", d / "index.bin",
             "--backends", "extractor=gen,embedder=embed,nli=nli",
             "--trace", d / f"verify_{name}.jsonl"] + cfg)

    run(["eval", "--task", "1", "--mode", "zs", "--instances", d / "task1.jsonl",
         "--backend", "judge", "--seeds", 3, "--seed", args.seed,
         "--report", d / "report.json"] + cfg)

    print("\nartifacts:")
    for path in sorted(d.iterdir()):
        print(f"  {path.name:<22} {path.stat().st_size:>8} bytes")
    report = json.loads((d / "report.json").read_text())
    print(f"\neval: task={report['task']} n={report['n_instances']} "
          f"balanced_accuracy={report['balanced_accuracy']} "
          f"(std {report['balanced_accuracy_std']} over {len(report['runs'])} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
