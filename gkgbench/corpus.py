"""Seeded corpora for the gkg benchmark, with the counts they must yield.

The generator knows every subject it writes, so it can state, without
running gkg, which entity ids the canonicalizer derives, how many events
it creates and coalesces, which ids are the same subject across two
sources, and how many FUNCTIONAL slots a revision merge must update.
Those statements are the oracle the benchmark checks gkg's outputs
against.  Only the files are handed to gkg; the oracle stays here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

RULES_TEXT = """\
RULE bornIn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Location ont:Village
RULE bornOn EVENT ont:Birth SUBJ participantIn OBJ ATTR ont:Time ont:Date
RULE livesIn EVENT ont:Residence SUBJ participantIn OBJ ATTR ont:Location ont:City
RULE worksFor EVENT ont:Employment SUBJ hasAgent OBJ PARTICIPANT hasObject
ESSENTIAL ont:Birth
CARD ont:Birth ONE
CARD ont:Residence ONE
CARD ont:Employment MANY
ATTRDECL ont:Birth ont:Location FUNCTIONAL
ATTRDECL ont:Birth ont:Time FUNCTIONAL
ATTRDECL ont:Residence ont:Location MULTI
ROLE Employee BASE core:Entity VIA hasAgent EVENT ont:Employment
"""

# Spellings a dump uses for each rule; all normalize to the rule's tokens.
RELATION_SPELLINGS = {
    "bornIn": ("bornIn", "born_in", "BornIn"),
    "bornOn": ("bornOn", "born_on", "Born On"),
    "livesIn": ("livesIn", "lives_in"),
    "worksFor": ("worksFor", "works-for"),
}

_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64_hex(text: str) -> str:
    """64-bit FNV-1a of the UTF-8 text as 16 hex digits; gkg derives entity
    ids from it."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return f"{h:016x}"


def entity_id(label: str) -> str:
    return "ent:" + fnv1a64_hex(label)


@dataclass(frozen=True)
class Person:
    label: str
    village: str
    date: str
    cities: Tuple[str, ...]
    orgs: Tuple[str, ...]


@dataclass(frozen=True)
class Corpus:
    """Generated files (name -> text) and the oracle's predictions."""

    files: Dict[str, str]
    oracle: Dict[str, object]


def _words(rng: random.Random, count: int) -> List[str]:
    """``count`` distinct capitalized pseudo-words of two or three
    syllables.  Lowercase after the first letter, so gkg's tokenizer sees
    each as one token."""
    onsets = "b d f g k l m n p r s t v z br dr gr kl st tr".split()
    vowels = "a e i o u ia".split()
    words: set = set()
    while len(words) < count:
        syllables = rng.choice((2, 2, 3))
        word = "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(syllables))
        words.add(word.capitalize())
    return sorted(words)


def _dates(rng: random.Random, count: int) -> List[str]:
    dates: set = set()
    while len(dates) < count:
        dates.add(f"{rng.randint(1, 28):02d}/{rng.randint(1, 12):02d}/{rng.randint(1930, 2005)}")
    return sorted(dates)


class _World:
    """Name, place and organisation pools sized so that distinct subjects
    often share a first name, a last name, a village or a birth date."""

    def __init__(self, rng: random.Random, subjects: int):
        side = max(12, int((3 * subjects) ** 0.5))
        self.rng = rng
        self.first = _words(rng, side)
        self.last = _words(rng, side)
        self.villages = [w + "by" for w in _words(rng, max(8, subjects // 25))]
        self.cities = [w + "stad" for w in _words(rng, max(6, subjects // 40))]
        self.dates = _dates(rng, max(20, subjects // 5))
        suffixes = ("Works", "Mills", "Group", "Labs")
        self.orgs = [f"{w} {rng.choice(suffixes)}" for w in _words(rng, max(5, subjects // 8))]
        self._names = [f"{f} {l}" for f in self.first for l in self.last]
        rng.shuffle(self._names)

    def people(self, count: int, start: int = 0) -> List[Person]:
        """``count`` new people; a third live in two cities, and a quarter
        work for no organisation, half for one, a quarter for two, so the
        dump's size depends on ``count`` alone."""
        rng = self.rng
        cities = [(1, 1, 2)[i % 3] for i in range(count)]
        orgs = [(0, 1, 1, 2)[i % 4] for i in range(count)]
        rng.shuffle(cities)
        rng.shuffle(orgs)
        return [
            Person(name, rng.choice(self.villages), rng.choice(self.dates),
                   tuple(sorted(rng.sample(self.cities, n_cities))), tuple(sorted(rng.sample(self.orgs, n_orgs))))
            for name, n_cities, n_orgs in zip(self._names[start:start + count], cities, orgs)
        ]

    def other(self, pool: List[str], current: str) -> str:
        while True:
            choice = self.rng.choice(pool)
            if choice != current:
                return choice


def _triples(rng: random.Random, person: Person) -> List[Tuple[str, str, str]]:
    def rel(name: str) -> str:
        return rng.choice(RELATION_SPELLINGS[name])

    rows = [(person.label, rel("bornIn"), person.village), (person.label, rel("bornOn"), person.date)]
    rows.extend((person.label, rel("livesIn"), city) for city in person.cities)
    rows.extend((person.label, rel("worksFor"), org) for org in person.orgs)
    return rows


def _dump(rows: List[Tuple[str, str, str]]) -> str:
    return "".join(f"{s}\t{r}\t{o}\n" for s, r, o in rows)


def _flat_source(rng: random.Random, people: List[Person]) -> Tuple[str, List[Tuple[str, str, str]]]:
    rows = [row for person in people for row in _triples(rng, person)]
    rng.shuffle(rows)
    return _dump(rows), rows


def canon_counts(people: List[Person]) -> Dict[str, int]:
    """The canonicalize report of a dump of these people: one Birth and one
    Residence event per person (both CARD ONE), one Employment event per
    (person, organisation) (CARD MANY), and an entity per person and per
    organisation named."""
    orgs = {org for person in people for org in person.orgs}
    triples = sum(2 + len(p.cities) + len(p.orgs) for p in people)
    created = sum(2 + len(p.orgs) for p in people)
    return {
        "triples": triples,
        "entity_nodes_created": len(people) + len(orgs),
        "events_created": created,
        "events_coalesced": triples - created,
    }


def _alignment_tsv(pairs) -> str:
    """Rows in gkg's alignment TSV format, all MATCH."""
    rows = sorted((entity_id(a), entity_id(b)) for a, b in pairs)
    return "".join(f"{a}\t{b}\t1.0000\tMATCH\n" for a, b in rows)


def _picked(rng: random.Random, count: int, share: float) -> set:
    """Indices of ``round(share * count)`` of ``count`` items."""
    return set(rng.sample(range(count), round(share * count)))


def _respell(rng: random.Random, label: str) -> str:
    """Same person, different spelling: a ``The`` prefix, joined camel case
    (same tokens), or an initial."""
    first, last = label.split(" ")
    kind = rng.random()
    if kind < 0.4:
        return f"The {label}"
    if kind < 0.8:
        return first + last
    return f"{first[0]}. {last}"


def ingest(seed: int, subjects: int) -> Corpus:
    """One dump and a line-shuffled copy of it."""
    rng = random.Random(f"ingest/{seed}")
    people = _World(rng, subjects).people(subjects)
    text, rows = _flat_source(rng, people)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    counts = canon_counts(people)
    return Corpus(
        {"rules.txt": RULES_TEXT, "dump.tsv": text, "dump_shuffled.tsv": _dump(shuffled)},
        {"canon": {"dump.tsv": counts, "dump_shuffled.tsv": counts}},
    )


def reconcile(seed: int, subjects: int) -> Corpus:
    """Two sources about the same people.  Source B respells about 30% of
    the names and moves about 10% of the birthplaces; source A tells a few
    people twice under a joined spelling (same tokens, another id).  The
    true pairs are every (A id, B id) naming one person or organisation."""
    rng = random.Random(f"reconcile/{seed}")
    world = _World(rng, subjects)
    people = world.people(subjects)

    twice = set(rng.sample(range(subjects), max(1, subjects // 25)))
    side_a = list(people) + [replace(people[i], label=people[i].label.replace(" ", "")) for i in sorted(twice)]

    side_b: List[Person] = []
    truth = []
    taken = {p.label for p in people}
    respell, move = _picked(rng, subjects, 0.3), _picked(rng, subjects, 0.1)
    for i, person in enumerate(people):
        b = person
        if i in respell:
            respelled = _respell(rng, person.label)
            if respelled not in taken:
                taken.add(respelled)
                b = replace(b, label=respelled)
        if i in move:
            b = replace(b, village=world.other(world.villages, person.village))
        side_b.append(b)
        truth.append((person.label, b.label))
        if i in twice:
            truth.append((person.label.replace(" ", ""), b.label))
    orgs = sorted({org for p in people for org in p.orgs})
    truth.extend((org, org) for org in orgs)

    text_a, _ = _flat_source(rng, side_a)
    text_b, _ = _flat_source(rng, side_b)
    truth_tsv = "".join(f"{a}\t{b}\n" for a, b in sorted((entity_id(a), entity_id(b)) for a, b in truth))
    return Corpus(
        {"rules.txt": RULES_TEXT, "a.tsv": text_a, "b.tsv": text_b, "truth.tsv": truth_tsv},
        {"canon": {"a.tsv": canon_counts(side_a), "b.tsv": canon_counts(side_b)}},
    )


def revise(seed: int, subjects: int) -> Corpus:
    """A source and its next revision.  Revision 2 drops about 2% of the
    people, adds about 5% new ones, respells about 3% (new ids), moves
    about 7% of the birthplaces, corrects about 3% of the birth dates and
    adds a residence for about 10%; every other id is unchanged.  The
    merge alignment pairs each person and organisation kept; the self
    alignment pairs every entity of revision 1 with itself."""
    rng = random.Random(f"revise/{seed}")
    world = _World(rng, subjects)
    rev1 = world.people(subjects)
    added = world.people(max(1, subjects // 20), start=subjects)

    rev2: List[Person] = []
    kept = []
    updated = 0
    taken = {p.label for p in rev1 + added}
    drop, respell = _picked(rng, subjects, 0.02), _picked(rng, subjects, 0.03)
    move, redate, settle = (_picked(rng, subjects, share) for share in (0.07, 0.03, 0.1))
    for i, person in enumerate(rev1):
        if i in drop:
            continue
        new = person
        if i in respell:
            respelled = _respell(rng, person.label)
            if respelled not in taken:
                taken.add(respelled)
                new = replace(new, label=respelled)
        if i in move:
            new = replace(new, village=world.other(world.villages, person.village))
            updated += 1
        if i in redate:
            new = replace(new, date=world.other(world.dates, person.date))
            updated += 1
        if i in settle:
            extra = world.other(world.cities, person.cities[0])
            if extra not in new.cities:
                new = replace(new, cities=tuple(sorted(new.cities + (extra,))))
        rev2.append(new)
        kept.append((person.label, new.label))
    rev2.extend(added)

    orgs1 = {org for p in rev1 for org in p.orgs}
    orgs2 = {org for p in rev2 for org in p.orgs}
    shared = kept + [(org, org) for org in sorted(orgs1 & orgs2)]
    identity = [(p.label, p.label) for p in rev1] + [(org, org) for org in sorted(orgs1)]

    text1, _ = _flat_source(rng, rev1)
    text2, _ = _flat_source(rng, rev2)
    return Corpus(
        {
            "rules.txt": RULES_TEXT,
            "rev1.tsv": text1,
            "rev2.tsv": text2,
            "rev1_rev2.align": _alignment_tsv(shared),
            "rev1_self.align": _alignment_tsv(identity),
        },
        {
            "canon": {"rev1.tsv": canon_counts(rev1), "rev2.tsv": canon_counts(rev2)},
            "merge": {
                "rev1_rev2.align": {"merged": len(shared), "updated": updated},
                "rev1_self.align": {"merged": len(identity), "updated": 0},
            },
        },
    )


GENERATORS = {"ingest": ingest, "reconcile": reconcile, "revise": revise}
