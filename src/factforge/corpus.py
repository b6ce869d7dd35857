"""Raw page corpus handling: sentence segmentation, passage windowing, sampling.

Pages are split into sentences with a deterministic rule-based segmenter,
then grouped into fixed-size sliding windows of sentences. Each window is
one retrievable passage.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import FactforgeError, MalformedRecord
from .jsonlio import from_row, iter_jsonl, read_records, write_records
from .textnorm import normalize_ws

log = logging.getLogger(__name__)

DEFAULT_WINDOW = 5
DEFAULT_STRIDE = 1

# Tokens that end with a terminator but do not end a sentence.
DEFAULT_ABBREVIATIONS = frozenset({
    "mr.", "mrs.", "ms.", "dr.", "prof.", "sr.", "jr.", "st.", "mt.",
    "vs.", "etc.", "e.g.", "i.e.", "cf.", "al.", "fig.", "no.", "vol.",
    "pp.", "ca.", "approx.", "dept.", "inc.", "ltd.", "co.", "corp.",
    "est.", "u.s.", "u.k.", "u.n.", "d.c.", "ph.d.",
})

_OPENERS = "\"'([{“‘"
# A terminator and any further terminators or closers, then a space and one
# character, which are looked ahead at, not consumed: a run may start there.
_BOUNDARY = re.compile(r"[.!?][.!?\"')\]}”’]*(?= (.))", re.DOTALL)


@dataclass(frozen=True)
class Page:
    """One source document."""

    page_id: str | int  # Wikipedia page ids are numbers
    text: str

    def __post_init__(self) -> None:
        if not self.page_id:
            raise ValueError("page_id must be non-empty")
        if not isinstance(self.text, str) or not self.text.strip():
            raise ValueError(f"page {self.page_id!r} has empty text")


@dataclass(frozen=True)
class Passage:
    """A window of consecutive sentences from one page."""

    passage_id: str
    page_id: str | int
    start: int
    sentences: tuple[str, ...]

    @property
    def text(self) -> str:
        """Sentences joined with single spaces."""
        return " ".join(self.sentences)


def passage_id_for(page_id: str | int, start: int) -> str:
    return f"{page_id}:{start}"


def split_sentences(text: str) -> list[str]:
    """Segment text into sentences with a deterministic rule-based splitter.

    A sentence boundary is a run of terminators (``.!?``), possibly followed
    by closing quotes/brackets, followed by a space and then an uppercase
    letter, digit or opening quote. The word carrying the terminator must
    not be in DEFAULT_ABBREVIATIONS. Whitespace is normalized first;
    joining the output with single spaces reproduces the normalized input.
    """
    text = normalize_ws(text)
    sentences: list[str] = []
    start = 0
    for m in _BOUNDARY.finditer(text):
        first = m.group(1)
        starts_fresh = first.isupper() or first.isdigit() or first in _OPENERS
        word = text[text.rfind(" ", 0, m.start()) + 1 : m.start() + 1]
        if starts_fresh and word.lstrip(_OPENERS).lower() not in DEFAULT_ABBREVIATIONS:
            sentences.append(text[start : m.end()])
            start = m.end() + 1
    if start < len(text):
        sentences.append(text[start:])
    return sentences


def window_passages(
    sentences: Sequence[str],
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
    page_id: str | int = "",
) -> list[Passage]:
    """Group sentences into sliding windows of `window` sentences.

    Windows start at 0, stride, 2*stride, ... while start + window stays
    within the sentence list. A page shorter than one window yields a
    single passage holding every sentence.
    """
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")
    sentences = [s for s in sentences if s]
    if not sentences:
        return []
    return [
        Passage(passage_id_for(page_id, start), page_id, start,
                tuple(sentences[start : start + window]))
        for start in range(0, max(len(sentences) - window, 0) + 1, stride)
    ]


def page_passages(
    page: Page,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
) -> list[Passage]:
    """All passages of a page, in window order."""
    return window_passages(split_sentences(page.text), window, stride, page_id=page.page_id)


def sample_passage(
    page: Page,
    seed: int,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
) -> Passage:
    """Pick one window of the page uniformly at random, deterministically per seed."""
    candidates = page_passages(page, window, stride)
    rng = random.Random(f"{page.page_id}\x1f{seed}")
    return candidates[rng.randrange(len(candidates))]


# --- page and passage file I/O -------------------------------------------------


def read_pages(path: str | Path) -> list[Page]:
    """Load pages from a record file or a directory of single-record files.

    Records without a usable page id or text are skipped with a warning;
    other keys, a title included, are ignored; duplicate page ids are an
    error.
    """
    import json

    path = Path(path)
    rows: list[dict] = []
    if path.is_dir():
        for child in sorted(path.iterdir()):
            if child.suffix == ".json":
                try:
                    rows.append(json.loads(child.read_text(encoding="utf-8")))
                except ValueError as exc:  # not UTF-8, or not JSON
                    raise MalformedRecord(f"{child}: not a JSON page file: {exc}") from None
            elif child.suffix in (".jsonl", ".ndjson"):
                rows.extend(iter_jsonl(child))
    else:
        rows.extend(iter_jsonl(path))

    pages: list[Page] = []
    seen: set[str | int] = set()
    for row in rows:
        if isinstance(row, dict) and "schema" in row and "page_id" not in row:
            continue  # a header row
        try:
            page = from_row(Page, row)
        except (MalformedRecord, ValueError) as exc:
            log.warning("skipping unusable page record: %s", exc)
            continue
        if page.page_id in seen:
            raise FactforgeError(f"duplicate page_id {page.page_id!r}")
        seen.add(page.page_id)
        pages.append(page)
    return pages


def write_passages(path: str | Path, passages: Iterable[Passage]) -> int:
    return write_records(path, passages)


def read_passages(path: str | Path) -> list[Passage]:
    return read_records(path, Passage)
