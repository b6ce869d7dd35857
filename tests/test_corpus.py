"""Sentence segmentation, passage windowing, and sampling."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from factforge.corpus import (
    DEFAULT_ABBREVIATIONS,
    Page,
    Passage,
    page_passages,
    read_pages,
    read_passages,
    sample_passage,
    split_sentences,
    window_passages,
    write_passages,
)
from factforge.errors import FactforgeError


# --- split_sentences ---------------------------------------------------------


def test_split_basic_two_sentences():
    assert split_sentences("Dr. Smith arrived. He left.") == [
        "Dr. Smith arrived.",
        "He left.",
    ]


def test_split_single_letters_are_boundaries():
    assert split_sentences("A. B. C.") == ["A.", "B.", "C."]


def test_split_empty_and_whitespace():
    assert split_sentences("") == []
    assert split_sentences("   \n\t ") == []


def test_split_guards_abbreviations():
    out = split_sentences("She has a Ph.D. in physics. Prof. Lee agrees.")
    assert out == ["She has a Ph.D. in physics.", "Prof. Lee agrees."]


def test_split_decimal_numbers_intact():
    assert split_sentences("Pi is roughly 3.14159 here. Next fact!") == [
        "Pi is roughly 3.14159 here.",
        "Next fact!",
    ]


def test_split_terminator_runs_and_quotes():
    assert split_sentences('He said "Stop." Then he left.') == [
        'He said "Stop."',
        "Then he left.",
    ]
    assert split_sentences("Really?! Yes. Wait... No.") == [
        "Really?!",
        "Yes.",
        "Wait...",
        "No.",
    ]


def test_split_no_terminator_returns_whole_text():
    assert split_sentences("no terminator at all") == ["no terminator at all"]


def test_split_guards_every_default_abbreviation():
    assert split_sentences("I met Dr. Smith today. Done.") == ["I met Dr. Smith today.", "Done."]
    for abbreviation in DEFAULT_ABBREVIATIONS:
        for word in (abbreviation, abbreviation.capitalize(), f'"{abbreviation}'):
            text = f"One {word} Two. Three."
            assert split_sentences(text) == [f"One {word} Two.", "Three."], word


_words = st.text(alphabet="abcdefg", min_size=1, max_size=6)
_sentence_bodies = st.lists(_words, min_size=1, max_size=6).map(" ".join)


@given(st.lists(_sentence_bodies, min_size=0, max_size=8))
def test_split_preserves_content(bodies):
    text = " ".join(f"{b.capitalize()}." for b in bodies)
    out = split_sentences(text)
    assert " ".join(out).split() == text.split()


@given(st.text(max_size=200))
def test_split_preserves_content_arbitrary(text):
    out = split_sentences(text)
    assert " ".join(out).split() == text.split()


@given(st.text(max_size=200))
def test_split_deterministic(text):
    assert split_sentences(text) == split_sentences(text)


# --- window_passages -----------------------------------------------------------


def _sentences(n: int) -> list[str]:
    return [f"Sentence number {i} here." for i in range(n)]


def test_window_count_example():
    out = window_passages(_sentences(7), window=5, stride=1, page_id="p")
    assert len(out) == 3
    assert [p.start for p in out] == [0, 1, 2]
    assert out[0].passage_id == "p:0"
    assert out[0].text == " ".join(_sentences(7)[:5])


def test_short_page_single_window():
    out = window_passages(_sentences(3), window=5, stride=1, page_id="p")
    assert len(out) == 1
    assert out[0].sentences == tuple(_sentences(3))


def test_window_rejects_bad_parameters():
    with pytest.raises(ValueError):
        window_passages(_sentences(3), window=0)
    with pytest.raises(ValueError):
        window_passages(_sentences(3), stride=0)


@given(
    n=st.integers(min_value=0, max_value=60),
    window=st.integers(min_value=1, max_value=10),
    stride=st.integers(min_value=1, max_value=10),
)
def test_window_count_formula(n, window, stride):
    out = window_passages(_sentences(n), window, stride, page_id="p")
    if n == 0:
        assert out == []
    elif n < window:
        assert len(out) == 1
    else:
        assert len(out) == math.floor((n - window) / stride) + 1
    # every window holds exactly `window` sentences unless the page is short
    for p in out:
        assert len(p.sentences) == (min(window, n))
    # ids are unique and ordered by start
    assert [p.start for p in out] == sorted({p.start for p in out})


@given(
    n=st.integers(min_value=1, max_value=60),
    window=st.integers(min_value=1, max_value=10),
)
def test_window_stride_one_covers_everything(n, window):
    out = window_passages(_sentences(n), window, stride=1, page_id="p")
    covered = set()
    for p in out:
        covered.update(range(p.start, p.start + len(p.sentences)))
    assert covered == set(range(n))


# --- sample_passage --------------------------------------------------------------


def _page_with_windows(k: int) -> Page:
    # k windows at window=5, stride=1 needs k + 4 sentences
    return Page("pg", " ".join(f"Sentence number {i} ok." for i in range(k + 4)))


def test_sample_deterministic_per_seed():
    page = _page_with_windows(3)
    a = sample_passage(page, seed=42)
    b = sample_passage(page, seed=42)
    assert a == b


def test_sample_uniform_over_windows():
    page = _page_with_windows(3)
    counts = {0: 0, 1: 0, 2: 0}
    draws = 10_000
    for seed in range(draws):
        counts[sample_passage(page, seed).start] += 1
    for start, count in counts.items():
        assert abs(count / draws - 1 / 3) < 0.02, (start, count)


def test_sample_single_window_page():
    # a one-sentence page has exactly one candidate window
    page = Page("pg", "Only sentence here.")
    assert sample_passage(page, seed=0).start == 0


def test_blank_page_rejected_at_construction():
    with pytest.raises(ValueError):
        Page("pg2", "   ")


@given(st.text(min_size=1).filter(str.strip), st.integers(1, 8), st.integers(1, 8),
       st.integers(0, 50))
def test_every_page_has_a_window_to_sample(text, window, stride, seed):
    # A page's text is never blank, and any non-blank text splits into at
    # least one sentence, so `ingest --sample-per-page` has no page to skip.
    page = Page("pg", text)
    assert page_passages(page, window, stride)
    assert sample_passage(page, seed, window, stride) in page_passages(page, window, stride)


# --- page and passage I/O -----------------------------------------------------------


def test_page_required_fields():
    with pytest.raises(ValueError):
        Page("", "text here")


def test_pages_roundtrip_and_duplicate_detection(tmp_path):
    rows = [
        {"page_id": "a", "title": "A", "text": "Alpha beta. Gamma delta."},
        {"page_id": "b", "title": "B", "text": "One two. Three four.", "popularity_rank": 7},
    ]
    path = tmp_path / "pages.jsonl"
    import json

    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    pages = read_pages(path)
    assert [p.page_id for p in pages] == ["a", "b"]

    path.write_text("\n".join(json.dumps(r) for r in rows + [rows[0]]) + "\n")
    with pytest.raises(FactforgeError, match="duplicate page_id "):
        read_pages(path)


def test_read_pages_skips_empty_text(tmp_path):
    import json

    path = tmp_path / "pages.jsonl"
    rows = [
        {"page_id": "a", "title": "A", "text": "  "},
        {"page_id": "b", "title": "B", "text": "Fine text here."},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    pages = read_pages(path)
    assert [p.page_id for p in pages] == ["b"]


def test_read_pages_ignores_the_title(tmp_path, caplog):
    import json

    path = tmp_path / "pages.jsonl"
    rows = [
        {"page_id": "a", "title": None, "text": "Alpha beta."},
        {"page_id": "b", "title": 1984, "text": "Gamma delta."},
        {"page_id": "c", "text": "Epsilon zeta."},
        {"page_id": "d", "title": "D", "text": "  "},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with caplog.at_level("WARNING"):
        pages = read_pages(path)
    assert pages == [Page("a", "Alpha beta."), Page("b", "Gamma delta."),
                     Page("c", "Epsilon zeta.")]
    assert len(caplog.records) == 1 and "text" in caplog.records[0].getMessage()


def test_read_pages_from_directory(tmp_path, caplog):
    import json

    d = tmp_path / "pages"
    d.mkdir()
    (d / "one.json").write_text(json.dumps({"page_id": "one", "title": "", "text": "A b c. D e f."}))
    (d / "two.json").write_text(json.dumps({"page_id": "two", "title": "", "text": "G h. I j."}))
    (d / "three.jsonl").write_text(
        json.dumps({"schema": "pages", "version": 1}) + "\n"
        + json.dumps({"page_id": "three", "text": "K l. M n."}) + "\n"
    )
    (d / "four.ndjson").write_text(json.dumps({"page_id": "four", "text": "O p. Q r."}) + "\n")
    (d / "notes.txt").write_text(json.dumps({"page_id": "notes", "text": "S t."}) + "\n")
    # .json, .jsonl and .ndjson files are read in name order and other files
    # are ignored; a header row is skipped without a warning
    with caplog.at_level("WARNING"):
        pages = read_pages(d)
    assert [p.page_id for p in pages] == ["four", "one", "three", "two"]
    assert pages[2] == Page("three", "K l. M n.")
    assert caplog.records == []


def test_passage_file_roundtrip(tmp_path):
    page = Page("pg", " ".join(f"Sentence number {i} ok." for i in range(8)))
    passages = page_passages(page)
    path = tmp_path / "passages.jsonl"
    write_passages(path, passages)
    loaded = read_passages(path)
    assert loaded == passages


def test_passage_text_joins_sentences():
    p = Passage("x:0", "x", 0, ("One two.", "Three four."))
    assert p.text == "One two. Three four."
