from __future__ import annotations

import random
import time

import pytest

from linkeval import (
    AliasDictionary,
    Annotation,
    CandidateMode,
    CandidatePolicy,
    EntityId,
    Span,
    load_alias_dictionary,
    make_entity,
    parse_conll,
    tokenize,
)

SESSION_START = time.perf_counter()


def pytest_collection_modifyitems(session, config, items) -> None:
    # acceptance checks run last so their wall-time assertion covers the suite
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")

ENTITY_POOL = tuple(EntityId(f"E{i}") for i in range(1, 6))
VOCAB_5 = frozenset(ENTITY_POOL)


def ann(begin: int, end: int, entity: str | EntityId) -> Annotation:
    if isinstance(entity, str):
        entity = make_entity(entity)
    return Annotation(Span(begin, end), entity)


def offsets(text: str) -> list[tuple[int, int]]:
    """tokenize's token spans as (begin, end) pairs."""
    return [(t.span.begin, t.span.end) for t in tokenize(text)]


def random_entity(rng: random.Random, *, oov_rate: float = 0.1) -> EntityId:
    roll = rng.random()
    if roll < oov_rate / 2:
        return EntityId("--NME--", is_none=True)
    if roll < oov_rate:
        return EntityId(f"OOV{rng.randint(1, 3)}")
    return rng.choice(ENTITY_POOL)


def random_gold(rng: random.Random, *, max_count: int = 20, text_length: int = 100) -> list[Annotation]:
    """Non-overlapping annotations over a text_length document."""
    out: list[Annotation] = []
    for _ in range(rng.randint(0, max_count)):
        begin = rng.randint(0, text_length - 2)
        end = min(text_length, begin + rng.randint(1, 8))
        span = Span(begin, end)
        if any(span.overlaps(a.span) for a in out):
            continue
        out.append(Annotation(span, random_entity(rng)))
    return out


def random_predictions(rng: random.Random, *, max_count: int = 20, text_length: int = 100) -> list[Annotation]:
    """Arbitrary annotations; overlaps and duplicates allowed."""
    out: list[Annotation] = []
    for _ in range(rng.randint(0, max_count)):
        begin = rng.randint(0, text_length - 2)
        end = min(text_length, begin + rng.randint(1, 8))
        out.append(Annotation(Span(begin, end), random_entity(rng)))
    return out


FIXTURE_DICT_TSV = (
    "# fixture alias dictionary\n"
    "Japan\tJAPAN_NT\t0.9\n"
    "Japan\tJAPAN_COUNTRY\t0.1\n"
    "Syria\tSYRIA_NT\t0.8\n"
    "Asian Cup\tASIAN_CUP\t0.7\n"
    "China\tCHINA_NT\t0.9\n"
    "Atlantis\tAAA_DISTRACTOR\t0.5\n"
)

FIXTURE_CONLL = b"""-DOCSTART- (a1)
Japan B JAPAN_NT

-DOCSTART- (a2)
Syria B SYRIA_NT

-DOCSTART- (a3)
Japan B JAPAN_NT
beat O
Syria B SYRIA_NT
in O
Asian B ASIAN_CUP
Cup I ASIAN_CUP
. O

-DOCSTART- (a4)
China B CHINA_NT
won O
. O
"""


@pytest.fixture()
def fixture_dictionary() -> AliasDictionary:
    return load_alias_dictionary(FIXTURE_DICT_TSV)


@pytest.fixture()
def fixture_policy(fixture_dictionary: AliasDictionary) -> CandidatePolicy:
    return CandidatePolicy(CandidateMode.DICTIONARY, dictionary=fixture_dictionary)


@pytest.fixture()
def fixture_corpus():
    return parse_conll(FIXTURE_CONLL, name="fixture")
