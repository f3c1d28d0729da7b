"""Formula corpus files: CSV with header id,name,formula."""

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..errors import CorpusError

_HEADER = ["id", "name", "formula"]


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    name: str
    formula: str


def bundled_corpus_path() -> Path:
    """The packaged seed corpus of standard modulation formulas."""
    return Path(resources.files("modwave") / "data" / "corpus.csv")


def bundled_generated_path() -> Path:
    """The packaged fixture of machine-generated formulas m1, m2 and m3."""
    return Path(resources.files("modwave") / "data" / "generated_m1m2m3.csv")


def load_corpus(path: str | Path) -> list[CorpusEntry]:
    """Read a corpus file. A missing path is a FileNotFoundError; a path
    that is not a file, bytes that are not UTF-8 or a malformed row are a
    CorpusError."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    if not path.is_file():
        raise CorpusError(f"corpus path is not a file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except UnicodeDecodeError as exc:
        raise CorpusError(f"corpus file is not UTF-8: {exc}") from None
    if not rows:
        raise CorpusError("corpus file is empty", line=1)
    if [h.strip() for h in rows[0]] != _HEADER:
        raise CorpusError(f"corpus header must be {','.join(_HEADER)}", line=1)
    entries: list[CorpusEntry] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise CorpusError(f"expected 3 fields, got {len(row)}", line=line_no)
        ident, name, formula = (f.strip() for f in row)
        if not ident or not formula:
            raise CorpusError("id and formula must be non-empty", line=line_no)
        entries.append(CorpusEntry(ident, name, formula))
    return entries


def write_corpus(path: str | Path, entries: list[CorpusEntry]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for entry in entries:
            writer.writerow([entry.id, entry.name, entry.formula])
