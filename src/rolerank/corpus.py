"""Contextual-triple records: parsing, tokenization, role canonicalization.

The input format is JSON lines, one record per line::

    {"id": "t1", "head": "BANK A", "role": "trustees", "tail": "BANK B",
     "sentences": ["..."], "label": "RELEVANT"}

``id``, ``head``, ``role``, ``tail`` and ``sentences`` (1-3 strings) are
required; ``label`` is optional. Roles are canonicalized to a lowercase
singular form on parse, so "affiliates" and "affiliate" collapse to the
same role key.
"""

from __future__ import annotations

import enum
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

NUM_TOKEN = "<num>"

MAX_CONTEXT_SENTENCES = 3

# a whitespace-free run that starts and ends on an alphanumeric character:
# [^\W_] is exactly the characters for which str.isalnum() is true
_WORD = re.compile(r"[^\W_](?:\S*[^\W_])?")


class InputError(ValueError):
    """Input that cannot be used as given (the CLI exits 2)."""


class TripleParseError(InputError):
    """Raised for malformed triple records; the message names the 1-based line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RelevanceLabel(enum.Enum):
    HIGHLY_RELEVANT = "HIGHLY_RELEVANT"
    RELEVANT = "RELEVANT"
    NEUTRAL = "NEUTRAL"
    IRRELEVANT = "IRRELEVANT"

    @classmethod
    def parse(cls, raw: str) -> "RelevanceLabel":
        """Parse a label case-insensitively; spaces/hyphens count as underscores."""
        normalized = raw.strip().upper().replace(" ", "_").replace("-", "_")
        try:
            return cls(normalized)
        except ValueError:
            raise ValueError(f"unknown relevance label {raw!r}") from None


@dataclass(frozen=True)
class ContextualTriple:
    """A (head, role, tail) assertion plus the sentences it came from."""

    id: str
    head: str
    role: str  # canonical (lowercase singular) form
    tail: str
    sentences: tuple[str, ...]
    label: RelevanceLabel | None = None


def canonicalize_role(raw: str) -> str:
    """Reduce a role string to its lowercase singular form.

    "ies" becomes "y" (counterparties -> counterparty); otherwise a single
    trailing "s" is dropped unless it follows another "s" or whitespace,
    so "ss" and a lone "s" word stay. What is left never ends in "s" or
    whitespace, so canonicalizing again changes nothing.
    """
    role = raw.strip().lower()
    if not role:
        raise ValueError("role must be a nonempty string")
    if role.endswith("ies"):
        return role[:-3] + "y"
    if len(role) > 1 and role[-1] == "s" and role[-2] != "s" and not role[-2].isspace():
        return role[:-1]
    return role


def tokenize(sentence: str) -> list[str]:
    """Split a raw sentence into normalized tokens.

    Lowercases, splits on whitespace, strips non-alphanumeric characters
    from both ends of each piece (internal ones such as "." in "j.p" or
    "&" in "at&t" survive), drops pieces that strip to nothing, and
    replaces pure-digit tokens with the ``<num>`` sentinel.

    A piece that is all alphanumeric is its own token, so only the others
    go through ``_WORD``; str.split and the regex's ``\\S`` agree on what
    is whitespace.
    """
    tokens = []
    for piece in sentence.lower().split():
        if not piece.isalnum():
            match = _WORD.search(piece)
            if match is None:
                continue
            piece = match.group()
        tokens.append(NUM_TOKEN if piece.isdigit() else piece)
    return tokens


def _parse_record(obj: dict, line_no: int) -> ContextualTriple:
    for field in ("id", "head", "role", "tail", "sentences"):
        if field not in obj:
            raise TripleParseError(f"missing required field {field!r}", line_no)
    for field in ("id", "head", "role", "tail"):
        if not isinstance(obj[field], str) or not obj[field].strip():
            raise TripleParseError(f"field {field!r} must be a nonempty string", line_no)
    sentences = obj["sentences"]
    if (
        not isinstance(sentences, list)
        or not 1 <= len(sentences) <= MAX_CONTEXT_SENTENCES
        or not all(isinstance(s, str) and s.strip() for s in sentences)
    ):
        raise TripleParseError(
            f"'sentences' must be a list of 1-{MAX_CONTEXT_SENTENCES} nonempty strings",
            line_no,
        )
    label = None
    if obj.get("label") is not None:
        if not isinstance(obj["label"], str):
            raise TripleParseError("'label' must be a string", line_no)
        try:
            label = RelevanceLabel.parse(obj["label"])
        except ValueError as exc:
            raise TripleParseError(str(exc), line_no) from None
    return ContextualTriple(
        id=obj["id"],
        head=obj["head"],
        role=canonicalize_role(obj["role"]),  # nonempty after strip, checked above
        tail=obj["tail"],
        sentences=tuple(sentences),
        label=label,
    )


def parse_triples(lines: Iterable[str]) -> list[ContextualTriple]:
    """Parse JSON-lines records into triples, preserving input order.

    Raises TripleParseError naming the offending line on malformed JSON,
    missing/invalid fields, unknown labels, or duplicate ids. Blank lines
    are skipped.
    """
    triples: list[ContextualTriple] = []
    seen_ids: set[str] = set()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, a too-long int, deep nesting
            raise TripleParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no) from None
        if not isinstance(obj, dict):
            raise TripleParseError("record must be a JSON object", line_no)
        triple = _parse_record(obj, line_no)
        if triple.id in seen_ids:
            raise TripleParseError(f"duplicate id {triple.id!r}", line_no)
        seen_ids.add(triple.id)
        triples.append(triple)
    return triples


@contextmanager
def open_text(path) -> Iterator[IO[str]]:
    """``path`` opened as UTF-8 text; undecodable bytes raise InputError naming it."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def open_atomic(path) -> Iterator[IO[str]]:
    """``path`` opened for writing UTF-8 text that appears whole or not at all.

    Writes go to a temporary file in the same directory, which replaces
    ``path`` (``os.replace``) only when the block ends without an
    exception; otherwise it is removed and ``path`` keeps what it held.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only by a write that did not finish


def load_triples(path) -> list[ContextualTriple]:
    """``parse_triples`` over a file; its errors name the file and the line."""
    with open_text(path) as f:
        try:
            return parse_triples(f)
        except TripleParseError as exc:
            exc.args = (f"{path}: {exc}",)
            raise


def triple_to_json(triple: ContextualTriple) -> str:
    obj = {
        "id": triple.id,
        "head": triple.head,
        "role": triple.role,
        "tail": triple.tail,
        "sentences": list(triple.sentences),
    }
    if triple.label is not None:
        obj["label"] = triple.label.value
    return json.dumps(obj, ensure_ascii=False)


def write_triples(triples: Iterable[ContextualTriple], out: IO[str]) -> None:
    for triple in triples:
        out.write(triple_to_json(triple) + "\n")


def build_corpus(triples: Iterable[ContextualTriple]) -> list[list[str]]:
    """Tokenize every context sentence into one token list per sentence.

    Labeled and unlabeled triples are pooled alike; sentences that
    tokenize to nothing are dropped. Head/tail entity names are not
    injected, only the context sentences.
    """
    corpus = []
    for triple in triples:
        for sentence in triple.sentences:
            tokens = tokenize(sentence)
            if tokens:
                corpus.append(tokens)
    return corpus
