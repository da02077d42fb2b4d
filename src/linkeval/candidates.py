"""Candidate generation resources: alias dictionary, policies, entity trie.

Candidate lists are always ordered by descending prior with ties broken
lexicographically by entity id, so every consumer sees the same order no
matter how the resource file was arranged.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import IO, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import MalformedLine, PriorOutOfRange
from .model import NONE_ENTITY, EntityId, data_lines, make_entity

_SUM_TOLERANCE = 1e-9

Candidate = tuple[EntityId, float]


def _rank(pairs: Iterable[Candidate]) -> tuple[Candidate, ...]:
    return tuple(sorted(pairs, key=lambda c: (-c[1], c[0].id)))


def _fold(entries: Mapping[str, tuple[Candidate, ...]]) -> dict[str, tuple[Candidate, ...]]:
    """The lowercase index: per ``str.lower`` key, each entity at its highest prior, ranked.

    A key that only one mention folds to shares that mention's ranked
    tuple; every other key merges its mentions' candidates and ranks them
    again.
    """
    index: dict[str, tuple[Candidate, ...]] = {}
    merged: dict[str, dict[EntityId, float]] = {}
    for mention, ranked in entries.items():
        key = mention.lower()
        if key not in index:
            index[key] = ranked
            continue
        bucket = merged.get(key)
        if bucket is None:
            bucket = merged[key] = dict(index[key])
            index[key] = ()  # holds the key's first-seen place until it is ranked below
        for entity, prior in ranked:
            if prior > bucket.get(entity, -1.0):
                bucket[entity] = prior
    for key, bucket in merged.items():
        index[key] = _rank(bucket.items())
    return index


@dataclass(frozen=True)
class CandidateSet:
    """Ranked candidates for one mention surface."""

    candidates: tuple[Candidate, ...]

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self.candidates)


@dataclass(frozen=True)
class AliasDictionary:
    """Mention surface -> ranked (entity, prior) lists.

    Every way of building one comes through this constructor and follows
    one rule. Per mention, each prior lies in [0, 1]; an entity listed
    more than once keeps only its highest prior; and the kept priors sum
    to at most 1 (plus a small float tolerance). Any remaining mass is
    implicitly the chance that the mention links to nothing. Priors are
    never renormalized.
    """

    entries: Mapping[str, Collection[Candidate]]
    lowercase_index: Mapping[str, tuple[Candidate, ...]] = field(repr=False, init=False)

    def __post_init__(self) -> None:
        entries: dict[str, tuple[Candidate, ...]] = {}
        for mention, cands in self.entries.items():
            for entity, prior in cands:
                if not (0.0 <= prior <= 1.0):
                    raise PriorOutOfRange(f"{mention!r} -> {entity.id}: prior {prior} outside [0, 1]")
            if len(cands) == 1:
                # one prior in [0, 1] is ranked and within the sum bound already
                entries[mention] = tuple(cands)
                continue
            # EntityId hashes in Python, so a set of ids finds repeats first; an id can
            # repeat without its entity doing so (NONE_ENTITY and a plain "--NME--")
            if len({e.id for e, _ in cands}) < len(cands):
                best: dict[EntityId, float] = {}
                for entity, prior in cands:
                    if prior > best.get(entity, -1.0):
                        best[entity] = prior
                cands = best.items()
            entries[mention] = ranked = _rank(cands)
            total = 0.0
            for _, prior in ranked:
                total += prior
            if total > 1.0 + _SUM_TOLERANCE:
                raise PriorOutOfRange(f"{mention!r}: priors sum to {total}, above 1")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "lowercase_index", _fold(entries))

    @property
    def vocabulary(self) -> frozenset[EntityId]:
        return frozenset(e for cands in self.entries.values() for e, _ in cands)

    def lookup(self, mention: str) -> tuple[Candidate, ...]:
        """Exact surface match first, then a lowercase fallback."""
        hit = self.entries.get(mention)
        if hit is not None:
            return hit
        return self.lowercase_index.get(mention.lower(), ())

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, EntityId, float]]) -> "AliasDictionary":
        """Build a dictionary from (mention, entity, prior) pairs by the constructor's rule.

        Every pair's prior is checked, in input order, before any mention's sum.
        """
        grouped: dict[str, list[Candidate]] = {}
        for mention, entity, prior in pairs:
            if not (0.0 <= prior <= 1.0):
                raise PriorOutOfRange(f"{mention!r} -> {entity.id}: prior {prior} outside [0, 1]")
            grouped.setdefault(mention, []).append((entity, prior))
        return cls(entries=grouped)


def load_alias_dictionary(data: bytes | str | IO[bytes]) -> AliasDictionary:
    """Load a tab-separated ``mention<TAB>entity<TAB>prior`` file.

    Lines starting with ``#`` and blank lines are ignored. Entity ids are
    stripped, and duplicate (mention, entity) rows keep the maximum prior.
    Every row is checked before any mention's prior sum. ``lookup`` takes
    an exact surface match first; otherwise it returns the merged
    candidates of every mention with the same ``str.lower`` form (which
    lowers a word-final Σ to ς), each entity at its highest prior.
    """
    interned: dict[str, EntityId] = {}
    entries: dict[str, list[Candidate]] = {}
    for number, line in data_lines(data):
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(f"expected 3 tab-separated fields, got {len(fields)}", number)
        mention, entity_id, prior_text = fields
        entity_id = entity_id.strip()
        if not mention or not entity_id:
            raise MalformedLine("mention and entity must be non-empty", number)
        try:
            prior = float(prior_text)
        except ValueError as exc:
            raise MalformedLine(f"prior {prior_text!r} is not a number", number) from exc
        if not (0.0 <= prior <= 1.0):
            raise PriorOutOfRange(f"line {number}: prior {prior} outside [0, 1]")
        entity = interned.get(entity_id) or interned.setdefault(entity_id, make_entity(entity_id))
        entries.setdefault(mention, []).append((entity, prior))
    return AliasDictionary(entries=entries)


def load_vocabulary(data: bytes | str | IO[bytes]) -> tuple[EntityId, ...]:
    """Load an entity vocabulary, one id per line.

    The reserved None entity is included exactly once whether or not the
    file lists it.
    """
    seen: set[EntityId] = set()
    ordered: list[EntityId] = []
    for number, line in data_lines(data):
        entity = make_entity(line.strip())
        if entity not in seen:
            seen.add(entity)
            ordered.append(entity)
    if NONE_ENTITY not in seen:
        ordered.append(NONE_ENTITY)
    return tuple(ordered)


class CandidateMode(enum.Enum):
    DICTIONARY = "dictionary"
    FULL_VOCABULARY = "full_vocabulary"
    EMPTY = "empty"


@dataclass(frozen=True)
class CandidatePolicy:
    """Selects how candidate sets are produced for a mention surface.

    DICTIONARY consults the alias dictionary. FULL_VOCABULARY returns every
    non-None vocabulary entity with a uniform prior regardless of the
    mention. EMPTY always returns no candidates.
    """

    mode: CandidateMode
    dictionary: AliasDictionary | None = None
    full_vocabulary: Collection[EntityId] | None = None
    _uniform: tuple[Candidate, ...] = field(repr=False, compare=False, init=False, default=())
    _prefix_keys: tuple[str, ...] = field(repr=False, compare=False, init=False, default=())

    def __post_init__(self) -> None:
        if self.mode is CandidateMode.DICTIONARY:
            if self.dictionary is None:
                raise ValueError("dictionary mode requires an alias dictionary")
            # the index keys are lowercase already, and lowering is idempotent
            keys = sorted(m.replace("ς", "σ") for m in self.dictionary.lowercase_index)
            object.__setattr__(self, "_prefix_keys", tuple(keys))
        if self.mode is CandidateMode.FULL_VOCABULARY:
            if self.full_vocabulary is None:
                raise ValueError("full-vocabulary mode requires a vocabulary")
            linkable = sorted({e for e in self.full_vocabulary if not e.is_none}, key=lambda e: e.id)
            if not linkable:
                raise ValueError("vocabulary contains no linkable entities")
            uniform = 1.0 / len(linkable)
            object.__setattr__(self, "_uniform", tuple((e, uniform) for e in linkable))

    def prefix_windows(self, text: str, tokens: Sequence[tuple[int, int]], max_length: int) -> list[int]:
        """Per start token, how many of its 1..max_length token windows some candidate surface may start with.

        ``tokens`` are (begin, end) offsets into text. Under DICTIONARY a
        window's surface is folded (``str.lower``, then final sigma to sigma:
        "ΑΣ" lowers to "ας" but "ΑΣ'Α" to "ασ'α") and bisected once into the
        sorted folded alias keys, from where its one-token-shorter prefix's
        bisect stopped: folding maps each character on its own, so the longer
        key starts with the shorter. FULL_VOCABULARY counts every window;
        EMPTY none.
        """
        total = len(tokens)
        if self.mode is not CandidateMode.DICTIONARY:
            longest = max_length if self.mode is CandidateMode.FULL_VOCABULARY else 0
            return [min(longest, total - start) for start in range(total)]
        keys = self._prefix_keys
        size = len(keys)
        counts: list[int] = []
        for start, (begin, end) in enumerate(tokens):
            lo = count = 0
            while True:
                key = text[begin:end].lower().replace("ς", "σ")
                lo = bisect_left(keys, key, lo)
                if lo == size or not keys[lo].startswith(key):
                    break
                count += 1
                if count == max_length or start + count == total:
                    break
                end = tokens[start + count][1]
            counts.append(count)
        return counts


def candidates_for(mention: str, policy: CandidatePolicy) -> CandidateSet:
    """Produce the ranked candidate set for a mention under a policy."""
    if policy.mode is CandidateMode.DICTIONARY:
        assert policy.dictionary is not None
        return CandidateSet(policy.dictionary.lookup(mention))
    if policy.mode is CandidateMode.FULL_VOCABULARY:
        return CandidateSet(policy._uniform)
    return CandidateSet(())


class _TrieNode:
    __slots__ = ("children", "entity")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.entity: EntityId | None = None


class EntityTrie:
    """Character-level trie over entity identifiers.

    Built once via build_trie and never mutated afterwards. The terminal
    marker in next_symbols is None.
    """

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _insert(self, entity: EntityId) -> None:
        node = self._root
        for ch in entity.id:
            node = node.children.setdefault(ch, _TrieNode())
        if node.entity is None:
            self._size += 1
        node.entity = entity

    def _walk(self, prefix: str) -> _TrieNode | None:
        node = self._root
        for ch in prefix:
            node = node.children.get(ch)
            if node is None:
                return None
        return node

    def __contains__(self, item: EntityId | str) -> bool:
        key = item.id if isinstance(item, EntityId) else item
        node = self._walk(key)
        return node is not None and node.entity is not None

    def entity_at(self, prefix: str) -> EntityId | None:
        node = self._walk(prefix)
        return node.entity if node is not None else None

    def next_symbols(self, prefix: str) -> frozenset[str | None]:
        """Valid continuations of a prefix; None marks a complete entity."""
        node = self._walk(prefix)
        if node is None:
            return frozenset()
        symbols: set[str | None] = set(node.children)
        if node.entity is not None:
            symbols.add(None)
        return frozenset(symbols)


def build_trie(entities: Iterable[EntityId | str]) -> EntityTrie:
    """Build an entity trie from ids; duplicates collapse to one entry."""
    trie = EntityTrie()
    for item in entities:
        entity = item if isinstance(item, EntityId) else make_entity(item)
        trie._insert(entity)
    return trie
