"""Tokenization, vocabulary construction, and integer encoding of text.

All text entering the system passes through here: corpus files are
tokenized once at load time and every model consumes id sequences
produced by :func:`encode` against a shared :class:`Vocabulary`.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

PAD_ID = 0
UNK_ID = 1
BOS_ID = 2
EOS_ID = 3

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"

RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, BOS_TOKEN, EOS_TOKEN)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase, split punctuation into separate tokens, and split on whitespace.

    Deterministic; empty input yields an empty list.  Idempotent on its own
    output joined by spaces: every emitted token is either a word (\\w+) or a
    single punctuation character, both of which re-tokenize to themselves.
    """
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Frequency-ranked token ids with fixed reserved ids PAD=0, UNK=1, BOS=2, EOS=3.

    Non-reserved tokens get dense ids starting at 4, ordered by descending
    corpus frequency with lexicographic tie-break, so building from the same
    corpus is bit-reproducible.  Instances are immutable after construction
    and safe to share across threads.
    """

    def __init__(self, tokens: list[str]):
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            tokens = list(RESERVED_TOKENS) + list(tokens)
        self.id_to_token: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        return self.id_to_token[idx]

    @classmethod
    def build(cls, corpus: "Corpus", max_size: int, min_count: int = 1) -> "Vocabulary":
        """Count every token in contexts, responses, and facts, then rank.

        Raises ValueError on an empty corpus.  Final size is at most
        max_size + 4 (reserved ids are not charged against max_size); a
        max_size of 0 keeps every token.
        """
        if not corpus.examples:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        counts: dict[str, int] = {}
        for ex in corpus.examples:
            for seq in [ex.context, ex.response, *ex.facts]:
                for tok in seq:
                    counts[tok] = counts.get(tok, 0) + 1
        ranked = sorted(
            (t for t, c in counts.items() if c >= min_count),
            key=lambda t: (-counts[t], t),
        )
        if max_size:
            ranked = ranked[:max_size]
        return cls(list(RESERVED_TOKENS) + ranked)

    def sha256(self) -> str:
        """Hash of the ordered token list; checkpoints pin this."""
        payload = "\n".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh]
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            raise ValueError(f"{path} is not a vocabulary file (bad reserved tokens)")
        return cls(tokens)


def encode(
    tokens: list[str],
    vocab: Vocabulary,
    max_len: int,
    add_eos: bool = False,
) -> list[int]:
    """Map tokens to ids: OOV becomes UNK, length is clipped to max_len.

    With add_eos (decoder targets) EOS is appended after clipping, so the
    result is at most max_len + 1 ids long.
    """
    ids = [vocab.id_of(t) for t in tokens[:max_len]]
    if add_eos:
        ids.append(EOS_ID)
    return ids


def decode(ids: list[int], vocab: Vocabulary, strip_reserved: bool = True) -> list[str]:
    """Inverse of encode for in-vocabulary ids; reserved ids are dropped by default."""
    toks = [vocab.token_of(i) for i in ids]
    if strip_reserved:
        toks = [t for t in toks if t not in RESERVED_TOKENS]
    return toks


@dataclass
class ConversationExample:
    """One context/response pair with optional attached fact snippets."""

    context: list[str]
    response: list[str]
    facts: list[list[str]] = field(default_factory=list)


@dataclass
class Corpus:
    """Ordered collection of examples carrying a split tag."""

    examples: list[ConversationExample]
    split: str = "train"

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)


def check_fields(obj, names: tuple[str, ...], path: str, lineno: int) -> None:
    """Raise ValueError naming `path:lineno` unless obj is an object with every field."""
    for key in names:
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"{path}:{lineno}: missing field {key!r}")


def read_jsonl(path: str, names: tuple[str, ...] = ()):
    """Yield (line number, object) for each non-blank line of a JSON-lines file.

    Malformed JSON, or an object without one of the required field names,
    raises ValueError naming `path:lineno`.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc
            check_fields(obj, names, path, lineno)
            yield lineno, obj


def load_corpus(path: str, split: str = "train") -> Corpus:
    """Read a JSON-lines corpus: one {"context", "response", "facts"} object per line.

    Lines are tokenized in file order.  Malformed JSON, missing fields, or a
    context/response that tokenizes to nothing raise ValueError naming the
    line number.  Blank lines are skipped.
    """
    examples = []
    for lineno, obj in read_jsonl(path, ("context", "response", "facts")):
        context = tokenize(obj["context"])
        response = tokenize(obj["response"])
        if not context:
            raise ValueError(f"{path}:{lineno}: context tokenizes to nothing")
        if not response:
            raise ValueError(f"{path}:{lineno}: response tokenizes to nothing")
        facts = [tokenize(f) for f in obj["facts"]]
        facts = [f for f in facts if f]
        examples.append(ConversationExample(context, response, facts))
    return Corpus(examples, split=split)


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write a corpus back to JSON lines (tokens joined by single spaces)."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in corpus.examples:
            obj = {
                "context": " ".join(ex.context),
                "response": " ".join(ex.response),
                "facts": [" ".join(f) for f in ex.facts],
            }
            fh.write(json.dumps(obj) + "\n")
