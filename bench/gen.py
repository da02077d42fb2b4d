"""Seeded synthetic inputs for the linkeval benchmark.

Writes a CoNLL corpus, an alias dictionary, an entity vocabulary and,
optionally, a prediction TSV. Everything is drawn from one
``random.Random(seed)``, so the same seed and shape give byte-identical
files and a different seed gives different ones.

Entity names and filler words are built from disjoint letter sets, so a
filler word can never hit the alias dictionary, not even through its
lowercase fallback. The only lowercase-fallback hits are the mentions
written in lowercase on purpose (``Shape.lower_share``).

Run directly to write one workload's inputs:

    python3 bench/gen.py --workload run-dict --seed 1 --out inputs
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

# Names use only these letters; filler words use only the second set.
_NAME_ONSETS = ("k", "l", "m", "n", "r", "t", "v", "s", "kr", "tr", "st")
_NAME_VOWELS = ("a", "e", "i", "o", "u")
_FILLER_ONSETS = ("b", "d", "f", "g", "p", "h", "w", "z", "bl", "dw", "gh")
_FILLER_VOWELS = ("a", "e", "i", "o", "u", "y")


@dataclass(frozen=True)
class Shape:
    """Generator parameters for one workload."""

    docs: int
    doc_tokens: int  # mean CoNLL tokens per ordinary document
    long_share: float = 0.0  # share of documents made long_tokens long instead
    long_tokens: int = 0
    mention_density: float = 0.08  # share of token positions that start a mention
    lower_share: float = 0.05  # share of mentions written in lowercase
    entities: int = 5000
    extra_vocab: int = 200  # vocabulary entities that no alias names
    aliases_per_entity: float = 4.0  # mean alias rows per entity
    max_cands_per_alias: int = 4  # entities that may share one alias surface
    shared_alias_share: float = 0.25  # share of alias rows reusing an existing surface
    predictions: bool = False
    # prediction mix per gold mention; the rest of the mass is "missing"
    pred_exact: float = 0.45
    pred_wrong_entity: float = 0.15
    pred_shifted: float = 0.15
    pred_extra_on_exact: float = 0.55  # second, shifted prediction on an exact hit
    pred_spurious_per_gold: float = 1.0


SHAPES = {
    "run-dict": Shape(docs=80, doc_tokens=300, long_share=0.10, long_tokens=700),
    "score-dense": Shape(docs=30, doc_tokens=3000, predictions=True),
    "serve-http": Shape(docs=1000, doc_tokens=30),
    "ablate-full": Shape(docs=12, doc_tokens=60),
}


def _word(rng: random.Random, onsets, vowels, syllables: int) -> str:
    return "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(syllables))


def _unique_words(rng: random.Random, count: int, onsets, vowels) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = _word(rng, onsets, vowels, rng.randint(2, 3))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _build_aliases(rng: random.Random, shape: Shape) -> tuple[list[str], dict[str, list[tuple[str, float]]], dict[str, list[str]]]:
    """Entity ids, surface -> [(entity, prior)], entity -> its surfaces."""
    entities = [f"Ent_{i:05d}" for i in range(shape.entities)]
    name_words = [w.capitalize() for w in _unique_words(rng, shape.entities, _NAME_ONSETS, _NAME_VOWELS)]
    owners: dict[str, list[str]] = {}
    surfaces_of: dict[str, list[str]] = {e: [] for e in entities}
    shareable: list[str] = []
    for entity in entities:
        rows = max(1, round(rng.gauss(shape.aliases_per_entity, 1.0)))
        for _ in range(rows):
            if shareable and rng.random() < shape.shared_alias_share:
                surface = rng.choice(shareable)
            else:
                surface = " ".join(rng.choice(name_words) for _ in range(rng.choice((1, 1, 2, 2, 3))))
            names = owners.setdefault(surface, [])
            if entity in names:
                continue
            names.append(entity)
            surfaces_of[entity].append(surface)
            if len(names) == 1:
                shareable.append(surface)
            elif len(names) >= shape.max_cands_per_alias and surface in shareable:
                shareable.remove(surface)
    table: dict[str, list[tuple[str, float]]] = {}
    for surface, names in owners.items():
        weights = [rng.random() + 0.05 for _ in names]
        mass = rng.uniform(0.8, 1.0) / sum(weights)
        table[surface] = [(e, round(w * mass, 6)) for e, w in zip(names, weights)]
    return entities, table, surfaces_of


def _doc_tokens(
    rng: random.Random, shape: Shape, length: int, entities: list[str], surfaces_of: dict[str, list[str]], fillers: list[str]
) -> list[list[tuple[str, str, str | None]]]:
    """Sentences of (surface, tag, entity) token triples."""
    sentences: list[list[tuple[str, str, str | None]]] = []
    total = 0
    while total < length:
        sentence: list[tuple[str, str, str | None]] = []
        target = rng.randint(8, 20)
        while len(sentence) < target:
            if rng.random() < shape.mention_density:
                entity = rng.choice(entities)
                words = rng.choice(surfaces_of[entity]).split(" ")
                if rng.random() < shape.lower_share:
                    words = [w.lower() for w in words]
                sentence.append((words[0], "B", entity))
                sentence.extend((w, "I", entity) for w in words[1:])
            else:
                word = rng.choice(fillers)
                sentence.append((word.capitalize() if not sentence else word, "O", None))
                if len(sentence) > 3 and rng.random() < 0.06:
                    sentence.append((",", "O", None))
        sentence.append((".", "O", None))
        sentences.append(sentence)
        total += len(sentence)
    return sentences


def _doc_lengths(rng: random.Random, shape: Shape) -> list[int]:
    """Target token counts, spread evenly over +-15% of the mean and shuffled.

    Only the order depends on the seed, so every seed makes the same amount
    of work, and exactly round(long_share * docs) documents are long.
    """
    longs = round(shape.long_share * shape.docs)
    lengths: list[int] = []
    for count, mean in ((longs, shape.long_tokens), (shape.docs - longs, shape.doc_tokens)):
        lengths += [round(mean * (0.85 + 0.3 * i / max(1, count - 1))) for i in range(count)]
    rng.shuffle(lengths)
    return lengths


def _offsets(sentences) -> list[tuple[int, int]]:
    """Character span of each token under linkeval's detokenization rule."""
    spans: list[tuple[int, int]] = []
    pos = 0
    for sentence in sentences:
        for surface, _, _ in sentence:
            if spans and surface[0] not in ".,":
                pos += 1
            spans.append((pos, pos + len(surface)))
            pos += len(surface)
    return spans


def _mentions(tokens) -> list[tuple[int, int, str]]:
    """(first token, last token exclusive, entity) of each gold mention."""
    gold: list[tuple[int, int, str]] = []
    i = 0
    while i < len(tokens):
        if tokens[i][1] == "B":
            j = i + 1
            while j < len(tokens) and tokens[j][1] == "I":
                j += 1
            gold.append((i, j, tokens[i][2]))
            i = j
        else:
            i += 1
    return gold


def _predictions(rng: random.Random, shape: Shape, tokens, spans, gold, entities: list[str]) -> list[tuple[int, int, str]]:
    preds: list[tuple[int, int, str]] = []

    def shifted(first: int, last: int) -> tuple[int, int]:
        """An overlapping, different span: a token more or fewer at either end, else a character fewer."""
        begin, end = spans[first][0], spans[last - 1][1]
        options = []
        if last - first > 1:
            options += [(spans[first + 1][0], end), (begin, spans[last - 2][1])]
        if first > 0 and tokens[first - 1][0] not in ".,":
            options.append((spans[first - 1][0], end))
        if last < len(tokens) and tokens[last][0] not in ".,":
            options.append((begin, spans[last][1]))
        return rng.choice(options) if options else (begin, end - 1)

    for first, last, entity in gold:
        begin, end = spans[first][0], spans[last - 1][1]
        roll = rng.random()
        if roll < shape.pred_exact:
            preds.append((begin, end, entity))
            if rng.random() < shape.pred_extra_on_exact:
                preds.append((*shifted(first, last), entity))
        elif roll < shape.pred_exact + shape.pred_wrong_entity:
            preds.append((begin, end, rng.choice(entities)))
        elif roll < shape.pred_exact + shape.pred_wrong_entity + shape.pred_shifted:
            preds.append((*shifted(first, last), entity))
    filler_positions = [k for k, t in enumerate(tokens) if t[1] == "O" and t[0] not in ".,"]
    for _ in range(round(shape.pred_spurious_per_gold * len(gold))):
        k = rng.choice(filler_positions)
        preds.append((spans[k][0], spans[k][1], rng.choice(entities)))
    return preds


def generate(shape: Shape, seed: int, out: Path) -> tuple[dict, dict[str, tuple[list, list]]]:
    """Write corpus.conll, aliases.tsv, vocab.txt (and predictions.tsv).

    Returns the counts written and, for shapes with predictions, each
    document's gold and predicted (begin, end, entity) character spans.
    """
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    entities, table, surfaces_of = _build_aliases(rng, shape)
    fillers = _unique_words(rng, 1500, _FILLER_ONSETS, _FILLER_VOWELS)

    alias_lines = [f"{surface}\t{entity}\t{prior}" for surface, cands in table.items() for entity, prior in cands]
    (out / "aliases.tsv").write_text("\n".join(alias_lines) + "\n", encoding="utf-8")
    vocab = entities + [f"Ext_{i:05d}" for i in range(shape.extra_vocab)]
    (out / "vocab.txt").write_text("\n".join(vocab) + "\n", encoding="utf-8")

    conll: list[str] = []
    pred_lines: list[str] = []
    truth: dict[str, tuple[list, list]] = {}
    gold_total = 0
    longest = 0
    for d, length in enumerate(_doc_lengths(rng, shape)):
        doc_id = f"doc-{d:05d}"
        sentences = _doc_tokens(rng, shape, length, entities, surfaces_of, fillers)
        tokens = [t for s in sentences for t in s]
        longest = max(longest, len(tokens))
        gold_total += sum(1 for t in tokens if t[1] == "B")
        conll.append(f"-DOCSTART- ({doc_id})")
        for sentence in sentences:
            conll.extend(surface if tag == "O" else f"{surface}\t{tag}\t{entity}" for surface, tag, entity in sentence)
            conll.append("")
        if shape.predictions:
            spans = _offsets(sentences)
            mentions = _mentions(tokens)
            preds = _predictions(rng, shape, tokens, spans, mentions, entities)
            truth[doc_id] = ([(spans[f][0], spans[l - 1][1], e) for f, l, e in mentions], preds)
            pred_lines.extend(f"{doc_id}\t{b}\t{e}\t{ent}" for b, e, ent in preds)
    (out / "corpus.conll").write_text("\n".join(conll) + "\n", encoding="utf-8")
    if shape.predictions:
        (out / "predictions.tsv").write_text("\n".join(pred_lines) + "\n", encoding="utf-8")
    return {
        "docs": shape.docs,
        "gold": gold_total,
        "predictions": len(pred_lines),
        "alias_rows": len(alias_lines),
        "vocabulary": len(vocab),
        "longest_doc_tokens": longest,
    }, truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    counts, _ = generate(SHAPES[args.workload], args.seed, args.out)
    print(json.dumps({"shape": asdict(SHAPES[args.workload]), "counts": counts}, indent=2))


if __name__ == "__main__":
    main()
