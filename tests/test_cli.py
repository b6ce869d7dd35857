"""End-to-end command-line runs against fully scripted offline backends."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from factforge import backends
from factforge.backends import BackendProfile, VerdictRuleChatBackend, chat_fingerprint
from factforge.cli import SETTINGS, build_parser, main
from factforge.corpus import Page, Passage, page_passages, sample_passage
from factforge.errors import BackendError
from factforge.evalharness import RAG_INSTRUCTIONS, ZERO_SHOT_INSTRUCTIONS
from factforge.jsonlio import to_row
from factforge.synthgen import build_unified_prompt
from factforge.verification import build_claim_extraction_prompt

from conftest import page_rows

_GEN_PROFILE = BackendProfile(name="gen", kind="chat", transport="mock")
MARKER = "wrongmark"


def step_json_for(passage: Passage) -> str:
    """A well-formed generation answer whose unfactual side carries MARKER."""
    claims = list(passage.sentences)
    original = claims[0]
    altered = original.rstrip(".") + f" except {MARKER}."
    factual = " ".join(claims)
    unfactual = " ".join([altered] + claims[1:])
    return json.dumps(
        {
            "step_1": claims,
            "step_2": [altered, original],
            "step_3": factual,
            "step_4": unfactual,
        }
    )


def _chat_entry(prompt: str, response: str) -> dict:
    messages = [{"role": "user", "content": prompt}]
    return {
        "fingerprint": chat_fingerprint(_GEN_PROFILE, messages),
        "response": response,
    }


def build_workspace(tmp_path: Path, n_pages: int = 4) -> dict:
    """Pages, a chat script covering every window, and a backend config."""
    rows = page_rows(n_pages, sentences_per_page=7)
    pages_path = tmp_path / "pages.jsonl"
    pages_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

    entries = []
    factual_texts = {}
    unfactual_texts = {}
    for row in rows:
        page = Page(row["page_id"], row["title"], row["text"])
        for passage in page_passages(page):
            entries.append(
                _chat_entry(build_unified_prompt(passage), step_json_for(passage))
            )
        sampled = sample_passage(page, seed=0)
        payload = json.loads(step_json_for(sampled))
        factual_texts[page.page_id] = payload["step_3"]
        unfactual_texts[page.page_id] = payload["step_4"]
        altered = payload["step_2"][0]
        claims_of = {
            payload["step_3"]: payload["step_1"],
            payload["step_4"]: [altered] + payload["step_1"][1:],
        }
        for text, claims in claims_of.items():
            entries.append(
                _chat_entry(
                    build_claim_extraction_prompt(text),
                    json.dumps({"step_1": claims}),
                )
            )

    script_path = tmp_path / "gen_script.jsonl"
    script_path.write_text("\n".join(json.dumps(e) for e in entries) + "\n")

    config = {
        "profiles": {
            "gen": {
                "kind": "chat",
                "transport": "mock",
                "options": {"mock": "script", "script": "gen_script.jsonl"},
            },
            "judge": {
                "kind": "chat",
                "transport": "mock",
                "options": {"mock": "verdict_rule", "markers": [MARKER]},
            },
            "embed": {
                "kind": "embedding",
                "transport": "mock",
                "options": {"mock": "hashed_bow", "dimension": 128},
            },
            "nli": {
                "kind": "nli",
                "transport": "mock",
                "options": {"mock": "rules", "contradictions": [[".", MARKER]]},
            },
        }
    }
    config_path = tmp_path / "backends.json"
    config_path.write_text(json.dumps(config, indent=2))

    return {
        "pages": pages_path,
        "config": config_path,
        "script": script_path,
        "dir": tmp_path,
        "factual_texts": factual_texts,
        "unfactual_texts": unfactual_texts,
        "n_pages": n_pages,
    }


def run(args: list) -> int:
    return main([str(a) for a in args])


@pytest.fixture
def ws(tmp_path):
    return build_workspace(tmp_path)


@pytest.fixture
def pipeline(ws):
    """Workspace plus sampled passages, records, and an index on disk."""
    d = ws["dir"]
    assert run(["ingest", "--pages", ws["pages"], "--out", d / "passages.jsonl",
                "--sample-per-page", "--seed", 0, "--config", ws["config"]]) == 0
    assert run(["ingest", "--pages", ws["pages"], "--out", d / "windows.jsonl",
                "--config", ws["config"]]) == 0
    assert run(["generate", "--passages", d / "passages.jsonl", "--backend", "gen",
                "--out", d / "records.jsonl", "--config", ws["config"]]) == 0
    assert run(["index", "--passages", d / "passages.jsonl", "--backend", "embed",
                "--out", d / "index.bin", "--config", ws["config"]]) == 0
    ws.update(passages=d / "passages.jsonl", windows=d / "windows.jsonl",
              records=d / "records.jsonl", index=d / "index.bin")
    return ws


def _rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


# --- dry runs and exit codes ------------------------------------------------------


def test_dry_run_prints_plan_only(ws, capsys):
    out = ws["dir"] / "nope.jsonl"
    code = run(["ingest", "--pages", ws["pages"], "--out", out, "--dry-run"])
    assert code == 0
    assert not out.exists()
    plan = json.loads(capsys.readouterr().out)
    assert plan["command"] == "ingest"
    assert plan["plan"]["window"] == 5
    assert plan["plan"]["stride"] == 1
    assert plan["plan"]["sample_per_page"] is False


def test_dry_run_reflects_resolved_flags(ws, capsys):
    run(["ingest", "--pages", ws["pages"], "--out", "x", "--window", 3,
         "--sample-per-page", "--dry-run"])
    plan = json.loads(capsys.readouterr().out)["plan"]
    assert plan["window"] == 3
    assert plan["sample_per_page"] is True


def test_missing_required_flag_is_usage_error(ws):
    with pytest.raises(SystemExit) as exc:
        run(["ingest", "--pages", ws["pages"]])
    assert exc.value.code == 2


def test_unknown_profile_is_domain_error(ws, capsys):
    code = run(["generate", "--passages", ws["pages"], "--backend", "ghost",
                "--out", ws["dir"] / "r.jsonl", "--config", ws["config"]])
    assert code == 1
    assert "ghost" in capsys.readouterr().err


def test_broken_config_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = run(["ingest", "--pages", tmp_path, "--out", tmp_path / "o", "--config", bad])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_pages_file_is_domain_error(tmp_path, capsys):
    code = run(["ingest", "--pages", tmp_path / "absent.jsonl", "--out", tmp_path / "o"])
    assert code == 1


def test_dry_run_plan_holds_every_settled_argument(ws, capsys):
    assert run(["derive", "--records", "r", "--what", "task1", "--out", "o",
                "--split", "val", "--ratio", 0.5, "--seed", 7, "--dry-run"]) == 0
    plan = json.loads(capsys.readouterr().out)["plan"]
    assert (plan["ratio"], plan["seed"], plan["split"]) == (0.5, 7, "val")
    assert run(["verify", "--text", "t", "--index", "i", "--trace", "o", "--k", 9,
                "--backends", "extractor=gen,embedder=embed,nli=nli", "--dry-run"]) == 0
    plan = json.loads(capsys.readouterr().out)["plan"]
    assert plan["top_k"] == 9
    assert run(["eval", "--task", "1", "--mode", "zs", "--instances", "i",
                "--backend", "judge", "--report", "r", "--seed", 7, "--dry-run"]) == 0
    plan = json.loads(capsys.readouterr().out)["plan"]
    assert plan["seed"] == 7 and plan["seeds"] == 5 and plan["token_budget"] is None
    # eval's RAG k is the constant DEFAULT_TOP_K, not a setting
    assert "top_k" not in plan and "evidence_separator" not in plan


@pytest.mark.parametrize("command", ["generate", "index", "verify"])
def test_seed_is_offered_only_where_it_changes_the_run(command):
    args = {
        "generate": ["--passages", "p", "--backend", "gen", "--out", "o"],
        "index": ["--passages", "p", "--backend", "embed", "--out", "o"],
        "verify": ["--text", "t", "--index", "i", "--trace", "o",
                   "--backends", "extractor=gen,embedder=embed,nli=nli"],
    }[command]
    assert run([command, *args, "--dry-run"]) == 0
    with pytest.raises(SystemExit) as exc:
        run([command, *args, "--seed", 1, "--dry-run"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ingest", "--pages", "absent", "--out", "o.jsonl", "--seed", 1], "--seed"),
        (["derive", "--records", "absent", "--what", "task1", "--out", "o.jsonl",
          "--seed", 1], "--seed"),
        (["derive", "--records", "absent", "--what", "task1", "--out", "o.jsonl",
          "--ratio", 0.5], "--ratio"),
    ],
    ids=["ingest-seed-without-sample-per-page", "derive-seed-without-split",
         "derive-ratio-without-split"],
)
def test_seed_and_ratio_flags_that_change_nothing_are_refused(tmp_path, capsys, monkeypatch,
                                                               argv, flag):
    monkeypatch.chdir(tmp_path)
    for extra in ([], ["--dry-run"]):  # refused before any input is read or planned
        assert run([*argv, *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and "absent" not in err, err
    assert not (tmp_path / "o.jsonl").exists()


_ABSENT_INPUTS = {
    "ingest": ["--pages", "absent", "--out", "o.jsonl"],
    "generate": ["--passages", "absent", "--backend", "gen", "--out", "o.jsonl"],
    "derive": ["--records", "absent", "--what", "task1", "--out", "o.jsonl"],
    "index": ["--passages", "absent", "--backend", "embed", "--out", "o.jsonl"],
    "verify": ["--text", "absent", "--index", "absent", "--trace", "o.jsonl",
               "--backends", "extractor=gen,embedder=embed,nli=nli"],
    "eval": ["--task", "1", "--mode", "zs", "--instances", "absent", "--backend", "judge",
             "--report", "o.jsonl"],
}


@pytest.mark.parametrize("key", sorted(SETTINGS))
def test_run_settings_in_a_config_are_refused(ws, capsys, monkeypatch, key):
    """A config file holds profiles only; a run setting there, even at its
    default, fails every subcommand before any input is read."""
    config = json.loads(ws["config"].read_text())
    config[key] = SETTINGS[key][0]
    cfg = ws["dir"] / "settings.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.chdir(ws["dir"])
    built = []
    monkeypatch.setattr(backends, "build_backend", lambda *a, **k: built.append(a))
    for command, args in _ABSENT_INPUTS.items():
        for extra in ([], ["--dry-run"]):
            assert run([command, *args, "--config", cfg, *extra]) == 1, command
            captured = capsys.readouterr()
            assert captured.out == "", command
            assert captured.err.startswith("error: ") and repr(key) in captured.err, command
            assert "absent" not in captured.err and "flags" in captured.err, command
    assert built == [] and not (ws["dir"] / "o.jsonl").exists()


@pytest.mark.parametrize(
    "change, command",
    [
        (lambda c: c["profiles"]["gen"].update(api_key="sk-1"), "generate"),
        (lambda c: c.update(profiles=[]), "ingest"),
        (lambda c: c["profiles"]["gen"]["options"].update(mock="wat"), "generate"),
        (lambda c: c["profiles"]["gen"]["options"].pop("script"), "generate"),
    ],
    ids=["unknown-profile-key", "profiles-not-a-table", "unknown-mock",
         "script-mock-without-file"],
)
def test_config_faults_are_domain_errors(ws, capsys, change, command):
    config = json.loads(ws["config"].read_text())
    change(config)
    cfg = ws["dir"] / "faulty.json"
    cfg.write_text(json.dumps(config))
    args = {
        "generate": ["--passages", ws["pages"], "--backend", "gen"],
        "ingest": ["--pages", ws["pages"]],
    }[command]
    assert run([command, *args, "--out", ws["dir"] / "o.jsonl", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert not (ws["dir"] / "o.jsonl").exists()


@pytest.mark.parametrize(
    "change, command, key",
    [
        (lambda c: c.update(windw=2), "ingest", "windw"),
        (lambda c: c["profiles"]["embed"]["options"].update(dim=16), "index", "dim"),
        (lambda c: c["profiles"]["embed"]["options"].update(dimension=[16]), "index",
         "dimension"),
        (lambda c: c["profiles"]["embed"].update(transport="http", endpoint="http://127.0.0.1:9",
                                                 retry_backoff=0.0), "index", "dimension"),
        (lambda c: c["profiles"]["embed"].update(max_in_flight=2.5), "index", "max_in_flight"),
        (lambda c: c["profiles"]["embed"].update(max_in_flight=True), "index", "max_in_flight"),
        (lambda c: c["profiles"]["embed"].update(timeout="30"), "index", "timeout"),
        (lambda c: c["profiles"]["embed"].update(timeout=float("nan")), "index", "timeout"),
        (lambda c: c["profiles"]["embed"].update(timeout=float("inf")), "index", "timeout"),
        (lambda c: c["profiles"]["embed"].update(retry_backoff="x"), "index", "retry_backoff"),
        (lambda c: c["profiles"]["embed"].update(retry_backoff=float("nan")), "index",
         "retry_backoff"),
        (lambda c: c["profiles"]["embed"].update(retry_backoff=-1), "index", "retry_backoff"),
        (lambda c: c["profiles"]["embed"].update(temperature="0"), "index", "temperature"),
        (lambda c: c["profiles"]["embed"].update(max_batch=0), "index", "max_batch"),
        (lambda c: c["profiles"]["embed"].update(max_batch=2.5), "index", "max_batch"),
        (lambda c: c["profiles"]["embed"].update(max_batch=True), "index", "max_batch"),
        (lambda c: c["profiles"]["nli"].update(max_in_flight=8, endpoint="http://nowhere",
                                               timeout=1, auth_env="NOPE"), "ingest",
         "max_in_flight"),
        # Checked when the config loads, though only eval builds the judge.
        (lambda c: c["profiles"]["judge"]["options"].update(markers="implausibly"), "ingest",
         "markers"),
        (lambda c: c["profiles"]["judge"]["options"].update(markers="implausibly"), "generate",
         "markers"),
    ],
    ids=["config-key-no-subcommand-reads", "option-the-mock-does-not-read",
         "mock-option-of-the-wrong-type", "options-on-an-http-profile",
         "fractional-max-in-flight", "boolean-max-in-flight", "string-timeout", "nan-timeout",
         "infinite-timeout", "string-retry-backoff", "nan-retry-backoff",
         "negative-retry-backoff", "string-temperature", "zero-max-batch",
         "fractional-max-batch", "boolean-max-batch", "transport-fields-on-a-mock",
         "profile-ingest-never-builds", "profile-generate-never-builds"],
)
def test_unread_settings_are_named_errors(ws, capsys, change, command, key):
    config = json.loads(ws["config"].read_text())
    change(config)
    cfg = ws["dir"] / "misspelt.json"
    cfg.write_text(json.dumps(config))
    passages = _write_rows(ws["dir"] / "p.jsonl", [
        {"passage_id": "p:0", "page_id": "p", "start": 0, "sentences": ["A text."]}
    ])
    args = {
        "ingest": ["--pages", ws["pages"]],
        "index": ["--passages", passages, "--backend", "embed"],
        "generate": ["--passages", passages, "--backend", "gen"],
    }[command]
    assert run([command, *args, "--out", ws["dir"] / "o.out", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert not (ws["dir"] / "o.out").exists()


def test_each_config_key_has_one_type():
    """Each run setting is some subcommand's flag, and its default is at
    least its least value."""
    (commands,) = [a.choices for a in build_parser()._actions if a.dest == "command"]
    dests = {action.dest for parser in commands.values() for action in parser._actions}
    assert set(SETTINGS) <= dests
    for key, (default, least, refusal) in SETTINGS.items():
        assert least is None or (default >= least and refusal), key


# --- ingest ------------------------------------------------------------------------


def test_ingest_full_windows(ws):
    out = ws["dir"] / "all.jsonl"
    assert run(["ingest", "--pages", ws["pages"], "--out", out]) == 0
    rows = _rows(out)
    # 7 sentences per page, window 5, stride 1 -> 3 windows per page
    assert len(rows) == ws["n_pages"] * 3
    starts = {r["start"] for r in rows}
    assert starts == {0, 1, 2}


def test_ingest_sample_per_page_and_seed(ws):
    d = ws["dir"]
    a, b, c = d / "a.jsonl", d / "b.jsonl", d / "c.jsonl"
    assert run(["ingest", "--pages", ws["pages"], "--out", a, "--sample-per-page", "--seed", 0]) == 0
    assert run(["ingest", "--pages", ws["pages"], "--out", b, "--sample-per-page", "--seed", 0]) == 0
    assert run(["ingest", "--pages", ws["pages"], "--out", c, "--sample-per-page", "--seed", 99]) == 0
    assert len(_rows(a)) == ws["n_pages"]
    assert a.read_bytes() == b.read_bytes()  # same seed, identical bytes
    assert a.read_bytes() != c.read_bytes()  # different seed, different windows


# --- generate ----------------------------------------------------------------------


def test_generate_records(pipeline):
    rows = _rows(pipeline["records"])
    header, records = rows[0], rows[1:]
    assert header["schema"] == "synthesis_records"
    assert len(records) == pipeline["n_pages"]
    for row in records:
        assert row["validation"]["hard_failures"] == []
        assert MARKER in row["outputs"]["unfactual_text"]


def test_generate_is_byte_deterministic(pipeline):
    d = pipeline["dir"]
    again = d / "records_again.jsonl"
    assert run(["generate", "--passages", pipeline["passages"], "--backend", "gen",
                "--out", again, "--config", pipeline["config"]]) == 0
    assert again.read_bytes() == pipeline["records"].read_bytes()


def test_generate_drops_unscripted_passages(pipeline, capsys):
    d = pipeline["dir"]
    # one passage the script has never heard of
    rogue = Passage("rogue:0", "rogue", 0, ("Unscripted sentence one.", "Two."))
    rows = _rows(pipeline["passages"])
    mixed = d / "mixed.jsonl"
    mixed.write_text(
        "\n".join(json.dumps(r) for r in rows + [to_row(rogue)]) + "\n"
    )
    out = d / "partial.jsonl"
    code = run(["generate", "--passages", mixed, "--backend", "gen",
                "--out", out, "--config", pipeline["config"]])
    assert code == 0
    assert len(_rows(out)) - 1 == pipeline["n_pages"]  # rogue dropped, rest kept


def test_generate_all_failures_exit_1(ws, capsys):
    d = ws["dir"]
    assert run(["ingest", "--pages", ws["pages"], "--out", d / "p.jsonl",
                "--sample-per-page", "--seed", 7]) == 0
    empty_script = d / "empty_script.jsonl"
    empty_script.write_text("")
    config = json.loads(ws["config"].read_text())
    config["profiles"]["gen"]["options"]["script"] = "empty_script.jsonl"
    cfg = d / "empty.json"
    cfg.write_text(json.dumps(config))
    code = run(["generate", "--passages", d / "p.jsonl", "--backend", "gen",
                "--out", d / "r.jsonl", "--config", cfg])
    assert code == 1
    assert not (d / "r.jsonl").exists()


# --- derive ------------------------------------------------------------------------


def test_derive_retriever_pairs(pipeline):
    out = pipeline["dir"] / "retriever.jsonl"
    assert run(["derive", "--records", pipeline["records"], "--what", "retriever",
                "--out", out, "--config", pipeline["config"]]) == 0
    rows = _rows(out)
    header, pairs = rows[0], rows[1:]
    assert header["schema"] == "retriever_pairs"
    # 5 claims per record -> 3 * (5 + 1) = 18 pairs per record
    assert header["count"] == len(pairs) == pipeline["n_pages"] * 18
    assert {"claim", "passage_text", "record_id", "pairing_kind"} <= set(pairs[0])


def test_derive_nli_without_mining(pipeline):
    out = pipeline["dir"] / "nli.jsonl"
    assert run(["derive", "--records", pipeline["records"], "--what", "nli",
                "--out", out, "--config", pipeline["config"]]) == 0
    rows = _rows(out)
    header, trips = rows[0], rows[1:]
    assert header["neutrals_mined"] is False
    # 2n + 4 with n = 5 claims
    assert len(trips) == pipeline["n_pages"] * 14
    labels = {t["label"] for t in trips}
    assert labels == {"ENT", "CONTR"}


def test_derive_nli_with_neutral_mining(pipeline):
    out = pipeline["dir"] / "nli_mined.jsonl"
    assert run(["derive", "--records", pipeline["records"], "--what", "nli",
                "--out", out, "--passages", pipeline["windows"],
                "--nli-backend", "nli", "--config", pipeline["config"]]) == 0
    rows = _rows(out)
    header, trips = rows[0], rows[1:]
    assert header["neutrals_mined"] is True
    # 3n + 4 with n = 5 claims
    assert len(trips) == pipeline["n_pages"] * 19
    neutral = [t for t in trips if t["label"] == "NEUT"]
    assert len(neutral) == pipeline["n_pages"] * 5
    # mined premises come from sibling windows of the same page
    for t in neutral:
        assert t["premise"] != ""


def test_numeric_page_ids_flow_end_to_end(ws):
    # Wikipedia page ids are numbers; they stay numbers from pages to records.
    rows = _rows(ws["pages"])
    _write_rows(ws["pages"], [{**row, "page_id": 100 + i} for i, row in enumerate(rows)])
    d, cfg = ws["dir"], ["--config", ws["config"]]
    steps = [
        ["ingest", "--pages", ws["pages"], "--out", d / "p.jsonl", "--sample-per-page"],
        ["ingest", "--pages", ws["pages"], "--out", d / "w.jsonl"],
        ["generate", "--passages", d / "p.jsonl", "--backend", "gen", "--out", d / "r.jsonl"],
        ["derive", "--records", d / "r.jsonl", "--what", "nli", "--out", d / "nli.jsonl",
         "--passages", d / "w.jsonl", "--nli-backend", "nli"],
        ["index", "--passages", d / "w.jsonl", "--backend", "embed", "--out", d / "i.bin"],
    ]
    for step in steps:
        assert run(step + cfg) == 0, step
    pages = list(range(100, 100 + ws["n_pages"]))
    assert [row["page_id"] for row in _rows(d / "p.jsonl")] == pages
    records = _rows(d / "r.jsonl")[1:]
    assert [row["passage"]["page_id"] for row in records] == pages
    assert records[0]["passage"]["passage_id"].startswith("100:")
    trips = _rows(d / "nli.jsonl")[1:]
    assert len([t for t in trips if t["label"] == "NEUT"]) == ws["n_pages"] * 5


def test_derive_nli_drops_blank_claims_of_an_old_records_file(pipeline):
    # A records file written before claims were cleaned at parse time.
    row = _rows(pipeline["records"])[1]
    row["outputs"]["claims"] = ["  ", *row["outputs"]["claims"]]
    records = _write_rows(pipeline["dir"] / "old_records.jsonl", [row])
    out = pipeline["dir"] / "nli_old.jsonl"
    assert run(["derive", "--records", records, "--what", "nli",
                "--out", out, "--config", pipeline["config"]]) == 0
    header, *trips = _rows(out)
    assert all(t["hypothesis"].strip() for t in trips)
    assert header["count"] == len(trips) == 14  # 2n + 4 with n = 5 claims


@pytest.mark.parametrize(
    "flags",
    [lambda p: ["--passages", p["windows"]], lambda p: ["--nli-backend", "nli"]],
    ids=["passages-only", "nli-backend-only"],
)
def test_derive_nli_mining_flags_go_together(pipeline, capsys, flags):
    out = pipeline["dir"] / "nli_half.jsonl"
    for extra in ([], ["--dry-run"]):
        assert run(["derive", "--records", pipeline["records"], "--what", "nli", "--out", out,
                    "--config", pipeline["config"], *flags(pipeline), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--passages" in err and "--nli-backend" in err
        assert not out.exists()


@pytest.mark.parametrize("what", ["retriever", "task1", "task2"])
@pytest.mark.parametrize(
    "flags",
    [lambda p: ["--passages", p["windows"]], lambda p: ["--nli-backend", "nli"]],
    ids=["passages", "nli-backend"],
)
def test_derive_mining_flags_need_what_nli(pipeline, capsys, what, flags):
    out = pipeline["dir"] / f"{what}_mined.jsonl"
    for extra in ([], ["--dry-run"]):
        assert run(["derive", "--records", pipeline["records"], "--what", what, "--out", out,
                    "--config", pipeline["config"], *flags(pipeline), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--what nli" in err
        assert not out.exists()


def test_derive_task_instances(pipeline):
    d = pipeline["dir"]
    t1, t2 = d / "task1.jsonl", d / "task2.jsonl"
    assert run(["derive", "--records", pipeline["records"], "--what", "task1",
                "--out", t1, "--config", pipeline["config"]]) == 0
    assert run(["derive", "--records", pipeline["records"], "--what", "task2",
                "--out", t2, "--config", pipeline["config"]]) == 0
    rows1, rows2 = _rows(t1)[1:], _rows(t2)[1:]
    assert len(rows1) == len(rows2) == pipeline["n_pages"] * 2
    assert {r["label"] for r in rows1} == {True, False}
    for row in rows1:
        assert (MARKER in row["text"]) == (not row["label"])
    for row in rows2:
        assert (MARKER in row["claim"]) == (not row["label"])
        assert MARKER not in row["evidence"]


def test_derive_split_partitions_records(pipeline):
    d = pipeline["dir"]
    train, val = d / "train.jsonl", d / "val.jsonl"
    common = ["derive", "--records", pipeline["records"], "--what", "task1",
              "--config", pipeline["config"], "--seed", 3]
    assert run(common + ["--split", "train", "--out", train]) == 0
    assert run(common + ["--split", "val", "--out", val]) == 0
    train_ids = {r["record_id"] for r in _rows(train)[1:]}
    val_ids = {r["record_id"] for r in _rows(val)[1:]}
    assert not (train_ids & val_ids)
    assert len(train_ids) == 3 and len(val_ids) == 1  # 80/20 of 4, clamped


# --- index and verify ------------------------------------------------------------------


def test_verify_factual_text(pipeline):
    d = pipeline["dir"]
    text_path = d / "check.txt"
    text_path.write_text(pipeline["factual_texts"]["page0"])
    trace_path = d / "trace.jsonl"
    code = run(["verify", "--text", text_path, "--index", pipeline["index"],
                "--backends", "extractor=gen,embedder=embed,nli=nli",
                "--trace", trace_path, "--config", pipeline["config"]])
    assert code == 0
    rows = _rows(trace_path)
    assert rows[0]["schema"] == "verification_trace"
    assert rows[-1] == {"factual": True}
    claim_rows = rows[1:-1]
    assert len(claim_rows) == 5
    assert all(r["decision"] for r in claim_rows)


def test_verify_unfactual_text(pipeline):
    d = pipeline["dir"]
    text_path = d / "check_bad.txt"
    text_path.write_text(pipeline["unfactual_texts"]["page2"])
    trace_path = d / "trace_bad.jsonl"
    code = run(["verify", "--text", text_path, "--index", pipeline["index"],
                "--backends", "extractor=gen,embedder=embed,nli=nli",
                "--trace", trace_path, "--config", pipeline["config"]])
    assert code == 0
    rows = _rows(trace_path)
    assert rows[-1] == {"factual": False}
    decisions = [r["decision"] for r in rows[1:-1]]
    assert False in decisions


def test_verify_from_stdin(pipeline, monkeypatch):
    import io

    d = pipeline["dir"]
    monkeypatch.setattr("sys.stdin", io.StringIO(pipeline["factual_texts"]["page1"]))
    trace_path = d / "trace_stdin.jsonl"
    code = run(["verify", "--text", "-", "--index", pipeline["index"],
                "--backends", "extractor=gen,embedder=embed,nli=nli",
                "--trace", trace_path, "--config", pipeline["config"]])
    assert code == 0
    assert _rows(trace_path)[-1] == {"factual": True}


def test_verify_backend_spec_must_be_complete(pipeline, capsys):
    code = run(["verify", "--text", "-", "--index", pipeline["index"],
                "--backends", "extractor=gen", "--trace", pipeline["dir"] / "t",
                "--config", pipeline["config"]])
    assert code == 1
    err = capsys.readouterr().err
    assert "embedder" in err and "nli" in err


@pytest.mark.parametrize("extra, role", [("nil=nli", "nil"), ("embedder=embed", "embedder")],
                         ids=["unknown-role", "repeated-role"])
def test_verify_backend_spec_names_a_bad_role(pipeline, capsys, extra, role):
    text_path, trace = pipeline["dir"] / "check.txt", pipeline["dir"] / "t"
    text_path.write_text(pipeline["factual_texts"]["page0"])
    spec = f"extractor=gen,embedder=embed,nli=nli,{extra}"  # valid without `extra`
    assert run(["verify", "--text", text_path, "--index", pipeline["index"], "--backends", spec,
                "--trace", trace, "--config", pipeline["config"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(role) in err
    assert not trace.exists()


# --- eval --------------------------------------------------------------------------


def _derive_task(pipeline, what):
    out = pipeline["dir"] / f"{what}_inst.jsonl"
    assert run(["derive", "--records", pipeline["records"], "--what", what,
                "--out", out, "--config", pipeline["config"]]) == 0
    return out


def test_eval_task1_zero_shot(pipeline):
    instances = _derive_task(pipeline, "task1")
    report_path = pipeline["dir"] / "report.json"
    code = run(["eval", "--task", "1", "--mode", "zs", "--instances", instances,
                "--backend", "judge", "--seeds", 2, "--report", report_path,
                "--config", pipeline["config"]])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["task"] == "end_to_end_factuality"
    assert report["n_instances"] == pipeline["n_pages"] * 2
    assert report["balanced_accuracy"] == 1.0
    assert report["balanced_accuracy_std"] == 0.0
    assert len(report["runs"]) == 2
    assert [r["seed"] for r in report["runs"]] == [0, 1]
    assert report["runs"][0]["n_unparseable"] == 0


def test_eval_task2_zero_shot_explained(pipeline):
    instances = _derive_task(pipeline, "task2")
    report_path = pipeline["dir"] / "report2.json"
    code = run(["eval", "--task", "2", "--mode", "zs_ex", "--instances", instances,
                "--backend", "judge", "--seeds", 1, "--report", report_path,
                "--config", pipeline["config"]])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["task"] == "claim_verification"
    assert report["balanced_accuracy"] == 1.0


def test_eval_task1_rag(pipeline):
    instances = _derive_task(pipeline, "task1")
    report_path = pipeline["dir"] / "report_rag.json"
    code = run(["eval", "--task", "1", "--mode", "rag", "--instances", instances,
                "--backend", "judge", "--seeds", 1, "--report", report_path,
                "--index", pipeline["index"], "--embed-backend", "embed",
                "--config", pipeline["config"]])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["balanced_accuracy"] == 1.0


def test_eval_task1_rag_requires_index(pipeline, capsys):
    instances = _derive_task(pipeline, "task1")
    report = pipeline["dir"] / "r.json"
    for flags in ([], ["--index", pipeline["index"]], ["--embed-backend", "embed"],
                  ["--dry-run"], ["--index", pipeline["index"], "--dry-run"]):
        code = run(["eval", "--task", "1", "--mode", "rag", "--instances", instances,
                    "--backend", "judge", "--seeds", 1, "--report", report,
                    "--config", pipeline["config"], *flags])
        assert code == 1, flags
        err = capsys.readouterr().err
        assert "--index" in err and "--embed-backend" in err
        assert not report.exists()


@pytest.mark.parametrize(
    "task, mode, flag",
    [("2", "zs", "--index"), ("2", "rag", "--index"), ("1", "zs", "--embed-backend")],
)
def test_eval_retrieval_flags_apply_to_task1_rag_only(pipeline, capsys, task, mode, flag):
    bad_index = pipeline["dir"] / "bad.bin"  # a truncated index: loading it would fail
    bad_index.write_bytes(Path(pipeline["index"]).read_bytes()[:18])
    instances = _derive_task(pipeline, f"task{task}")
    report = pipeline["dir"] / "r.json"
    value = {"--index": str(bad_index), "--embed-backend": "embed"}[flag]
    for extra in ([], ["--dry-run"]):
        code = run(["eval", "--task", task, "--mode", mode, "--instances", instances,
                    "--backend", "judge", "--seeds", 1, "--report", report,
                    "--config", pipeline["config"], flag, value, *extra])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--task 1 --mode rag only" in err
        assert not report.exists()


def test_eval_task1_rag_retrieval_error_fails_the_command(pipeline, capsys):
    config = json.loads(pipeline["config"].read_text())
    config["profiles"]["embed64"] = {
        "kind": "embedding", "transport": "mock",
        "options": {"mock": "hashed_bow", "dimension": 64},
    }
    cfg = pipeline["dir"] / "embed64.json"
    cfg.write_text(json.dumps(config))
    instances = _derive_task(pipeline, "task1")
    report = pipeline["dir"] / "r.json"
    code = run(["eval", "--task", "1", "--mode", "rag", "--instances", instances,
                "--backend", "judge", "--seeds", 1, "--report", report,
                "--index", pipeline["index"], "--embed-backend", "embed64", "--config", cfg])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dimension 64" in err
    assert not report.exists()


def test_eval_few_shot(pipeline):
    instances = _derive_task(pipeline, "task1")
    shots = pipeline["dir"] / "shots.jsonl"
    shots.write_text(
        json.dumps({"text": "An example everyone agrees with.", "label": True})
        + "\n"
        + json.dumps({"text": f"An example with {MARKER} inside.", "label": False})
        + "\n"
    )
    report_path = pipeline["dir"] / "report_fs.json"
    code = run(["eval", "--task", "1", "--mode", "fs", "--instances", instances,
                "--backend", "judge", "--seeds", 1, "--report", report_path,
                "--few-shot", shots, "--config", pipeline["config"]])
    assert code == 0
    assert json.loads(report_path.read_text())["balanced_accuracy"] == 1.0


def test_eval_few_shot_mode_requires_examples(pipeline):
    instances = _derive_task(pipeline, "task1")
    code = run(["eval", "--task", "1", "--mode", "fs", "--instances", instances,
                "--backend", "judge", "--seeds", 1,
                "--report", pipeline["dir"] / "r.json",
                "--config", pipeline["config"]])
    assert code == 1


@pytest.mark.parametrize("mode", ["zs", "zs_ex", "rag"])
def test_eval_few_shot_applies_to_few_shot_modes_only(pipeline, capsys, mode):
    shots = pipeline["dir"] / "shots.jsonl"
    shots.write_text(json.dumps({"text": "An example without a label."}) + "\n")
    report = pipeline["dir"] / "r.json"
    rag = ["--index", pipeline["index"], "--embed-backend", "embed"] if mode == "rag" else []
    # The instance file does not exist: the flag is rejected before any file is read.
    for extra in ([], ["--dry-run"]):
        code = run(["eval", "--task", "1", "--mode", mode, "--instances",
                    pipeline["dir"] / "nope", "--backend", "judge", "--seeds", 1,
                    "--report", report, "--few-shot", shots, "--config", pipeline["config"],
                    *rag, *extra])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--few-shot" in err
        assert not report.exists()


_PIN_PASSAGES = ["Ada wrote notes on the engine.", "The engine was never built.",
                 "Babbage designed it."]
_PIN_INSTANCES = {
    "1": [{"schema": "task1_instances", "version": 1, "count": 2},
          {"text": "Ada wrote notes.", "label": True, "origin": "factual", "record_id": "r"},
          {"text": "Ada wrote poems.", "label": False, "origin": "unfactual", "record_id": "r"}],
    "2": [{"schema": "task2_instances", "version": 1, "count": 2},
          {"claim": "Ada wrote notes.", "evidence": _PIN_PASSAGES[0], "label": True,
           "record_id": "r"},
          {"claim": "Ada wrote poems.", "evidence": _PIN_PASSAGES[0], "label": False,
           "record_id": "r"}],
}
_ZS = {"role": "system", "content": ZERO_SHOT_INSTRUCTIONS}
_RAG = {"role": "system", "content": RAG_INSTRUCTIONS}


def _user(content: str) -> dict:
    return {"role": "user", "content": content}


@pytest.mark.parametrize(
    "task, mode, flags, expected",
    [
        ("1", "zs", [], [[_ZS, _user("Ada wrote notes.")], [_ZS, _user("Ada wrote poems.")]]),
        ("1", "rag", [], [
            [_RAG, _user("Ada wrote notes.\n\nEvidence:\nAda wrote notes on the engine.\n"
                         "The engine was never built.\nBabbage designed it.")],
            [_RAG, _user("Ada wrote poems.\n\nEvidence:\nAda wrote notes on the engine.\n"
                         "The engine was never built.\nBabbage designed it.")],
        ]),
        # 173 instruction tokens plus a 27-token body exceed 195: the last passage goes.
        ("1", "rag", ["--token-budget", 195], [
            [_RAG, _user("Ada wrote notes.\n\nEvidence:\nAda wrote notes on the engine.\n"
                         "The engine was never built.")],
            [_RAG, _user("Ada wrote poems.\n\nEvidence:\nAda wrote notes on the engine.\n"
                         "The engine was never built.")],
        ]),
        ("2", "zs", [], [
            [_ZS, _user("Ada wrote notes.\n\nEvidence:\nAda wrote notes on the engine.")],
            [_ZS, _user("Ada wrote poems.\n\nEvidence:\nAda wrote notes on the engine.")],
        ]),
        # Outside RAG mode a token budget trims nothing.
        ("2", "zs", ["--token-budget", 1], [
            [_ZS, _user("Ada wrote notes.\n\nEvidence:\nAda wrote notes on the engine.")],
            [_ZS, _user("Ada wrote poems.\n\nEvidence:\nAda wrote notes on the engine.")],
        ]),
        ("2", "rag", [], [
            [_RAG, _user("Ada wrote notes.\n\nEvidence:\nAda wrote notes on the engine.")],
            [_RAG, _user("Ada wrote poems.\n\nEvidence:\nAda wrote notes on the engine.")],
        ]),
    ],
    ids=["task1-zs", "task1-rag", "task1-rag-budget", "task2-zs", "task2-zs-budget",
         "task2-rag"],
)
def test_eval_judge_messages_are_pinned(ws, monkeypatch, task, mode, flags, expected):
    d = ws["dir"]
    _write_rows(d / "pin_passages.jsonl", [
        {"passage_id": f"p:{i}", "page_id": "p", "start": i, "sentences": [text]}
        for i, text in enumerate(_PIN_PASSAGES)
    ])
    assert run(["index", "--passages", d / "pin_passages.jsonl", "--backend", "embed",
                "--out", d / "pin.bin", "--config", ws["config"]]) == 0
    instances = _write_rows(d / "pin_instances.jsonl", _PIN_INSTANCES[task])
    sent = []
    complete = VerdictRuleChatBackend.complete
    monkeypatch.setattr(VerdictRuleChatBackend, "complete",
                        lambda self, messages: sent.append(messages) or complete(self, messages))
    rag = ["--index", d / "pin.bin", "--embed-backend", "embed"] if task + mode == "1rag" else []
    assert run(["eval", "--task", task, "--mode", mode, "--instances", instances,
                "--backend", "judge", "--seeds", 1, "--report", d / "pin.json",
                "--config", ws["config"], *rag, *flags]) == 0
    assert sent == expected


def test_eval_rag_budget_that_fits_no_evidence_fails_before_any_judge_call(pipeline, monkeypatch,
                                                                          capsys):
    sent = _record_judge(monkeypatch)
    report = pipeline["dir"] / "r.json"
    assert run(["eval", "--task", "1", "--mode", "rag", "--instances",
                _derive_task(pipeline, "task1"), "--backend", "judge", "--seeds", 1,
                "--report", report, "--index", pipeline["index"], "--embed-backend", "embed",
                "--token-budget", 10, "--config", pipeline["config"]]) == 1
    assert sent == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and "token budget 10" in err
    assert not report.exists()


def test_eval_report_is_deterministic_modulo_runtime(pipeline):
    instances = _derive_task(pipeline, "task1")
    d = pipeline["dir"]
    reports = []
    for name in ("rep_a.json", "rep_b.json"):
        assert run(["eval", "--task", "1", "--mode", "zs", "--instances", instances,
                    "--backend", "judge", "--seeds", 3, "--report", d / name,
                    "--config", pipeline["config"]]) == 0
        reports.append((d / name).read_bytes())
    assert reports[0] == reports[1]


# Four instances, three distinct texts; the judge calls the third one wrong.
_JUDGED = [
    {"schema": "task1_instances", "version": 1, "count": 4},
    {"text": "Ada wrote notes.", "label": True, "origin": "factual", "record_id": "r"},
    {"text": f"Ada wrote {MARKER} poems.", "label": False, "origin": "unfactual",
     "record_id": "r"},
    {"text": f"Ada wrote {MARKER} notes.", "label": True, "origin": "factual", "record_id": "s"},
    {"text": "Ada wrote notes.", "label": True, "origin": "factual", "record_id": "t"},
]
_JUDGED_PROMPTS = [[_ZS, _user(row["text"])] for row in _JUDGED[1:4]]


def _judge_eval(ws, rows=_JUDGED, seeds=3) -> dict:
    """`eval --task 1 --mode zs` over `rows` with the workspace judge; the report."""
    instances = _write_rows(ws["dir"] / "judged.jsonl", rows)
    report = ws["dir"] / "judged.json"
    assert run(["eval", "--task", "1", "--mode", "zs", "--instances", instances,
                "--backend", "judge", "--seeds", seeds, "--report", report,
                "--config", ws["config"]]) == 0
    return json.loads(report.read_text())


def _record_judge(monkeypatch, answer=VerdictRuleChatBackend.complete) -> list:
    """Route the verdict-rule judge through `answer`; the list of messages it is sent."""
    sent = []

    def complete(self, messages):
        sent.append(messages)
        return answer(self, messages)

    monkeypatch.setattr(VerdictRuleChatBackend, "complete", complete)
    return sent


def _set_judge(ws, **settings) -> None:
    config = json.loads(ws["config"].read_text())
    config["profiles"]["judge"].update(settings)
    ws["config"].write_text(json.dumps(config))


def test_greedy_judge_is_asked_each_distinct_prompt_once(ws, monkeypatch):
    rule = VerdictRuleChatBackend.complete

    def slow(self, messages):
        time.sleep(0.02)
        return rule(self, messages)

    sent = _record_judge(monkeypatch, slow)
    report = _judge_eval(ws)
    assert sent == _JUDGED_PROMPTS
    seed_run = {"balanced_accuracy": 0.8333333333333333, "recall_true": 0.6666666666666666,
                "recall_false": 1.0, "true_positive": 2, "false_negative": 1,
                "true_negative": 1, "false_positive": 0, "n_failed": 0, "n_unparseable": 0}
    assert report == {
        "task": "end_to_end_factuality", "n_instances": 4,
        "balanced_accuracy": 0.8333333333333334, "balanced_accuracy_std": 0.0,
        "runs": [{"seed": seed, **seed_run} for seed in (0, 1, 2)],
    }


def test_sampling_judge_is_asked_per_instance_and_seed(ws, monkeypatch):
    _set_judge(ws, temperature=0.7)
    sent = _record_judge(monkeypatch)
    report = _judge_eval(ws)
    assert sent == [[_ZS, _user(row["text"])] for row in _JUDGED[1:]] * 3
    assert report["balanced_accuracy"] == 0.8333333333333334


def test_greedy_judge_failures_count_in_every_seed(ws, monkeypatch):
    def answer(self, messages):
        text = messages[-1]["content"]
        if "poems" in text:
            raise BackendError("judge unreachable", "f" * 16)
        return "no verdict here" if MARKER in text else "Factual"

    sent = _record_judge(monkeypatch, answer)
    report = _judge_eval(ws)
    assert sent == _JUDGED_PROMPTS
    assert [(r["n_failed"], r["n_unparseable"]) for r in report["runs"]] == [(1, 1)] * 3
    # Both bad answers are scored wrong: only the two "Ada wrote notes." are right.
    assert report["balanced_accuracy"] == 0.3333333333333333


def test_few_shot_order_follows_the_seed(ws, monkeypatch):
    shots = _write_rows(ws["dir"] / "shots.jsonl", [
        {"text": "Ada kept a diary.", "label": True},
        {"text": f"Ada kept a {MARKER} diary.", "label": False},
        {"text": "Ada kept letters.", "label": True},
    ])
    instances = _write_rows(ws["dir"] / "judged.jsonl", _JUDGED)
    sent = _record_judge(monkeypatch)

    def fs_eval(seed, seeds) -> list[str]:
        sent.clear()
        assert run(["eval", "--task", "1", "--mode", "fs", "--instances", instances,
                    "--backend", "judge", "--few-shot", shots, "--seed", seed,
                    "--seeds", seeds, "--report", ws["dir"] / "fs.json",
                    "--config", ws["config"]]) == 0
        return [json.dumps(messages) for messages in sent]

    alone = [fs_eval(seed, 1) for seed in range(4)]
    # Three distinct texts per seed, and the example order moves every prompt.
    assert len(alone[0]) == len(alone[1]) == 3
    assert set(alone[0]).isdisjoint(alone[1])
    # A greedy judge is asked each distinct prompt once across all seeds.
    assert fs_eval(0, 4) == list(dict.fromkeys(p for prompts in alone for p in prompts))


def test_sampling_judge_fills_its_width_across_seeds(ws, monkeypatch):
    # Two calls must be in flight at once: a third seed run alone would break the barrier.
    monkeypatch.setattr(VerdictRuleChatBackend, "max_in_flight", 2, raising=False)
    _set_judge(ws, temperature=0.7)
    barrier = threading.Barrier(2, timeout=2)
    rule = VerdictRuleChatBackend.complete

    def paired(self, messages):
        barrier.wait()
        return rule(self, messages)

    sent = _record_judge(monkeypatch, paired)
    report = _judge_eval(ws, rows=_JUDGED[:3], seeds=3)
    assert len(sent) == 6
    assert report["balanced_accuracy"] == 1.0


@pytest.mark.parametrize(
    "rows, seeds, message",
    [(_JUDGED[:2] + _JUDGED[4:], 3, "single class"), (_JUDGED, 0, "need at least one seed")],
    ids=["single-class-golds", "no-seeds"],
)
def test_unscorable_eval_fails_before_any_judge_call(ws, monkeypatch, capsys, rows, seeds,
                                                    message):
    sent = _record_judge(monkeypatch)
    instances = _write_rows(ws["dir"] / "unscorable.jsonl", rows)
    assert run(["eval", "--task", "1", "--mode", "zs", "--instances", instances,
                "--backend", "judge", "--seeds", seeds, "--report", ws["dir"] / "r.json",
                "--config", ws["config"]]) == 1
    assert sent == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_greedy_http_judge_sends_distinct_prompts_only(ws, http_server):
    def reply(request):
        text = request["body"]["messages"][-1]["content"]
        verdict = "Not Factual" if MARKER in text else "Factual"
        return 200, {"choices": [{"message": {"role": "assistant", "content": verdict}}]}

    endpoint, recorder = http_server(reply)
    _set_judge(ws, transport="http", endpoint=endpoint, model="m", max_in_flight=2,
               options={})
    report = _judge_eval(ws)
    sent = sorted((r["body"]["messages"] for r in recorder.requests), key=json.dumps)
    assert sent == sorted(_JUDGED_PROMPTS, key=json.dumps)
    assert recorder.max_active == 2
    assert report["balanced_accuracy"] == 0.8333333333333334


# --- malformed artifact files ------------------------------------------------------


def _write_rows(path: Path, rows: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def _drop(row: dict, key: str) -> dict:
    return {k: v for k, v in row.items() if k != key}


def _bad_passages(p, key, value=None):
    rows = _rows(p["passages"])
    rows[1] = _drop(rows[1], key) if value is None else {**rows[1], key: value}
    return _write_rows(p["dir"] / "bad_passages.jsonl", rows)


def _eval_argv(instances, task="1", mode="zs"):
    return ["eval", "--task", task, "--mode", mode, "--instances", instances,
            "--backend", "judge", "--seeds", 1, "--report", "r.json"]


def _case_index_without_start(p):
    bad = _bad_passages(p, "start")
    return ["index", "--passages", bad, "--backend", "embed", "--out", "i.bin"], bad, "start"


def _case_index_sentences_not_a_list(p):
    bad = _bad_passages(p, "sentences", "Abc.")
    return ["index", "--passages", bad, "--backend", "embed", "--out", "i.bin"], bad, "sentences"


def _case_derive_record_without_passage(p):
    rows = _rows(p["records"])
    rows[1] = _drop(rows[1], "passage")
    bad = _write_rows(p["dir"] / "bad_records.jsonl", rows)
    return ["derive", "--records", bad, "--what", "retriever", "--out", "o.jsonl"], bad, "passage"


def _case_derive_from_task1_file(p):
    task1 = _derive_task(p, "task1")
    return ["derive", "--records", task1, "--what", "retriever", "--out", "o.jsonl"], task1, "schema"


def _case_eval_instance_without_origin(p):
    rows = _rows(_derive_task(p, "task1"))
    rows[2] = _drop(rows[2], "origin")
    bad = _write_rows(p["dir"] / "bad_task1.jsonl", rows)
    return _eval_argv(bad), bad, "origin"


def _case_eval_task1_file_as_task2(p):
    task1 = _derive_task(p, "task1")
    return _eval_argv(task1, task="2"), task1, "schema"


def _case_eval_few_shot_without_label(p):
    shots = _write_rows(p["dir"] / "bad_shots.jsonl", [{"text": "An example."}])
    argv = _eval_argv(_derive_task(p, "task1"), mode="fs") + ["--few-shot", shots]
    return argv, shots, "label"


# A field of the wrong type is named as a missing one is, not a traceback
# from the first code that uses it.
def _case_index_passage_id_a_number(p):
    bad = _bad_passages(p, "passage_id", 7)
    return ["index", "--passages", bad, "--backend", "embed", "--out", "i.bin"], bad, "passage_id"


def _case_index_sentence_not_a_string(p):
    bad = _bad_passages(p, "sentences", ["A sentence.", 5])
    return ["index", "--passages", bad, "--backend", "embed", "--out", "i.bin"], bad, "sentences"


def _case_generate_script_response_a_number(p):
    rows = _rows(p["script"])
    rows[0] = {**rows[0], "response": 5}
    _write_rows(p["script"], rows)
    argv = ["generate", "--passages", p["passages"], "--backend", "gen", "--out", "o.jsonl"]
    return argv, p["script"], "response"


def _case_eval_text_a_number(p):
    rows = _rows(_derive_task(p, "task1"))
    rows[2] = {**rows[2], "text": 5}
    bad = _write_rows(p["dir"] / "bad_task1.jsonl", rows)
    return _eval_argv(bad), bad, "text"


@pytest.mark.parametrize(
    "case",
    [
        _case_index_without_start,
        _case_index_sentences_not_a_list,
        _case_derive_record_without_passage,
        _case_derive_from_task1_file,
        _case_eval_instance_without_origin,
        _case_eval_task1_file_as_task2,
        _case_eval_few_shot_without_label,
        _case_index_passage_id_a_number,
        _case_index_sentence_not_a_string,
        _case_generate_script_response_a_number,
        _case_eval_text_a_number,
    ],
    ids=lambda case: case.__name__.removeprefix("_case_"),
)
def test_malformed_artifacts_are_domain_errors(pipeline, capsys, monkeypatch, case):
    monkeypatch.chdir(pipeline["dir"])
    argv, bad_file, field_name = case(pipeline)
    capsys.readouterr()
    assert run(argv + ["--config", pipeline["config"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert bad_file.name in err and repr(field_name) in err
    assert "Traceback" not in err


def test_ingest_skips_page_row_without_text(ws, caplog):
    rows = _rows(ws["pages"])
    rows[1] = _drop(rows[1], "text")
    pages = _write_rows(ws["dir"] / "bad_pages.jsonl", rows)
    out = ws["dir"] / "out.jsonl"
    with caplog.at_level("WARNING"):
        assert run(["ingest", "--pages", pages, "--out", out, "--sample-per-page"]) == 0
    assert "unusable page record" in caplog.text and "'text'" in caplog.text
    assert len(_rows(out)) == ws["n_pages"] - 1


def _case_index_line_not_json(p):
    lines = p["passages"].read_text().splitlines(keepends=True)
    lines[1] = '{"passage_id": broken\n'
    bad = p["dir"] / "bad_json.jsonl"
    bad.write_text("".join(lines))
    return ["index", "--passages", bad, "--backend", "embed", "--out", "i.bin"], bad, ["row 2"]


def _case_eval_label_is_a_string(p):
    rows = _rows(_derive_task(p, "task1"))
    rows[2] = {**rows[2], "label": "false"}
    bad = _write_rows(p["dir"] / "bad_labels.jsonl", rows)
    return _eval_argv(bad), bad, ["row 3", "'label'"]


def _case_page_file_not_utf8(p):
    pages = p["dir"] / "page_dir"
    pages.mkdir()
    bad = pages / "page.json"
    bad.write_bytes(b'{"page_id": "p", "text": "caf\xe9."}')
    return ["ingest", "--pages", pages, "--out", "o.jsonl"], bad, ["not a JSON page file"]


@pytest.mark.parametrize(
    "case",
    [_case_index_line_not_json, _case_eval_label_is_a_string, _case_page_file_not_utf8],
    ids=lambda case: case.__name__.removeprefix("_case_"),
)
def test_unreadable_rows_name_file_and_row(pipeline, capsys, monkeypatch, case):
    monkeypatch.chdir(pipeline["dir"])
    argv, bad_file, names = case(pipeline)
    capsys.readouterr()
    assert run(argv + ["--config", pipeline["config"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and bad_file.name in err
    assert all(name in err for name in names), err
    assert "Traceback" not in err


def _non_utf8_config(p):
    cfg = p["dir"] / "latin1.json"
    cfg.write_bytes(b'{"window": 3, "note": "caf\xe9"}')
    return ["ingest", "--pages", p["pages"], "--out", "o.jsonl", "--config", cfg]


def _verify_k_0(p):
    text = p["dir"] / "check.txt"
    text.write_text(p["factual_texts"]["page0"])
    return ["verify", "--text", text, "--index", p["index"], "--k", 0, "--trace", "o.jsonl",
            "--backends", "extractor=gen,embedder=embed,nli=nli", "--config", p["config"]]


def _eval_rag_top_k_0(p):
    cfg = p["dir"] / "top_k_0.json"
    cfg.write_text(json.dumps({**json.loads(p["config"].read_text()), "top_k": 0}))
    return ["eval", "--task", "1", "--mode", "rag", "--instances", _derive_task(p, "task1"),
            "--backend", "judge", "--seeds", 1, "--report", "o.jsonl", "--index", p["index"],
            "--embed-backend", "embed", "--config", cfg]


@pytest.mark.parametrize(
    "argv",
    [
        lambda p: ["ingest", "--pages", p["pages"], "--out", "o.jsonl", "--window", 0],
        lambda p: ["ingest", "--pages", p["pages"], "--out", "o.jsonl", "--stride", -1],
        lambda p: ["derive", "--records", p["records"], "--what", "task1", "--out", "o.jsonl",
                   "--split", "train", "--ratio", 1.5],
        lambda p: ["eval", "--task", "1", "--mode", "zs", "--instances",
                   _derive_task(p, "task1"), "--backend", "judge", "--seeds", 0,
                   "--report", "o.jsonl", "--config", p["config"]],
        _verify_k_0,
        lambda p: ["generate", "--passages", p["passages"], "--backend", "gen",
                   "--max-retries", -1, "--out", "o.jsonl", "--config", p["config"]],
        _non_utf8_config,
        _eval_rag_top_k_0,
    ],
    ids=["ingest-window-0", "ingest-stride-negative", "derive-ratio-above-1", "eval-seeds-0",
         "verify-k-0", "generate-max-retries-negative", "config-not-utf8", "eval-rag-top-k-0"],
)
def test_bad_values_are_domain_errors(pipeline, capsys, monkeypatch, argv):
    monkeypatch.chdir(pipeline["dir"])
    argv = argv(pipeline)
    built = []  # refused before any backend is built, so before any call
    monkeypatch.setattr(backends, "build_backend", lambda *a, **k: built.append(a))
    capsys.readouterr()
    for extra in ([], ["--dry-run"]):
        assert run([*argv, *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:"), err
        assert "Traceback" not in err
        assert not (pipeline["dir"] / "o.jsonl").exists()
    assert built == []


# --- start-up cost -----------------------------------------------------------------

_NUMPY_FREE_START = """
import json, sys
from factforge import cli
steps, index_argv = json.loads(sys.argv[1])
for argv in steps:
    assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert cli.main(index_argv) == 0
assert "numpy" in sys.modules
"""


def test_numpy_free_subcommands_start_without_numpy(tmp_path):
    """ingest, generate and derive never import numpy; index still works after them."""
    rows = page_rows(3)
    (tmp_path / "pages.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    passages = [sample_passage(Page(r["page_id"], r["title"], r["text"]), seed=0) for r in rows]
    (tmp_path / "gen_script.jsonl").write_text("".join(
        json.dumps(_chat_entry(build_unified_prompt(p), step_json_for(p))) + "\n"
        for p in passages))
    config = {"profiles": {
        "gen": {"kind": "chat", "transport": "mock",
                "options": {"mock": "script", "script": "gen_script.jsonl"}},
        "embed": {"kind": "embedding", "transport": "mock", "options": {"dimension": 16}},
    }}
    (tmp_path / "backends.json").write_text(json.dumps(config))
    steps = [
        ["ingest", "--pages", "pages.jsonl", "--out", "passages.jsonl",
         "--sample-per-page", "--seed", "0"],
        ["generate", "--passages", "passages.jsonl", "--backend", "gen",
         "--out", "records.jsonl", "--config", "backends.json"],
        ["derive", "--records", "records.jsonl", "--what", "task1", "--out", "task1.jsonl"],
    ]
    index_argv = ["index", "--passages", "passages.jsonl", "--backend", "embed",
                  "--out", "index.bin", "--config", "backends.json"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_START, json.dumps([steps, index_argv])],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert len(_rows(tmp_path / "task1.jsonl")) == 1 + 2 * len(rows)  # header, then two per record
    assert (tmp_path / "index.bin").stat().st_size > 0
