"""The scalar pair oracle that the mention table and the block scorer are
tested against.

It describes every mention as one AuthorMention and every criterion as a
comparison of two of them, one pair at a time. The package itself scores
pairs only from the coded columns of a corpus's MentionTable, a block at a
time (disambig.cluster_block); the tests check that both give the same
values, the same satisfied criteria and the same clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from rankmobility.corpus import PublicationRecord, _lower_or_none, _norm_or_none, _strip_or_none
from rankmobility.disambig import _CRITERIA_TABLE, BlockKey, ScoringRuleTable
from rankmobility.names import full_given_name, initials_of, normalize_text, parse_name


@dataclass(frozen=True, slots=True)
class AuthorMention:
    """A single (publication, author slot) occurrence with derived match keys.

    All string attributes except ``name`` are normalized (case-folded,
    diacritic-stripped, whitespace-collapsed); ``name`` is the raw form.
    ``coauthor_names`` holds normalized full names of the other mentions on
    the same publication, ``cited_by`` the pub_ids of corpus publications
    whose reference lists include this mention's publication.
    """

    mention_id: str
    pub_id: str
    position: int
    name: str
    given: str
    surname: str
    initials: str
    full_given: str | None
    affiliation: str | None
    email: str | None
    orcid: str | None
    journal: str | None
    grant_ids: frozenset[str]
    references: frozenset[str]
    coauthor_names: frozenset[str]
    disciplines: frozenset[str]
    cited_by: frozenset[str]


def build_mentions(publications: dict[str, PublicationRecord]) -> dict[str, AuthorMention]:
    """Every mention of the publications by mention id, in corpus order."""
    # Pub-level reference union feeds the incoming-citer index used by
    # the co-citation criterion.
    citers: dict[str, set[str]] = {}
    for pub in publications.values():
        refs: set[str] = set()
        for author in pub.authors:
            refs.update(author.get("references", ()))
        for target in refs:
            citers.setdefault(target, set()).add(pub.pub_id)

    mentions: dict[str, AuthorMention] = {}
    for pub in publications.values():
        cited_by = frozenset(citers.get(pub.pub_id, ()))
        names = [normalize_text(a["name"].replace(".", " ")) for a in pub.authors]
        for idx, author in enumerate(pub.authors):
            given, surname = parse_name(author["name"])
            coauthors = frozenset(n for k, n in enumerate(names) if k != idx)
            mention = AuthorMention(
                mention_id=f"{pub.pub_id}:{idx}",
                pub_id=pub.pub_id,
                position=idx,
                name=author["name"],
                given=given,
                surname=surname,
                initials=initials_of(given),
                full_given=full_given_name(given),
                affiliation=_norm_or_none(author.get("affiliation")),
                email=_lower_or_none(author.get("email")),
                orcid=_strip_or_none(author.get("orcid")),
                journal=_norm_or_none(author.get("journal")),
                grant_ids=frozenset(author.get("grants", ())),
                references=frozenset(author.get("references", ())),
                coauthor_names=coauthors,
                disciplines=pub.disciplines,
                cited_by=cited_by,
            )
            mentions[mention.mention_id] = mention
    return mentions


# What each criterion compares, read from an AuthorMention; the MentionTable
# column that _CRITERIA_TABLE names for the criterion codes the same values.
VALUE = {
    "orcid_match": attrgetter("orcid"),
    "email_match": attrgetter("email"),
    # Spelled-out given names agreeing beyond the blocking key.
    "name_detail_match": lambda m: m.given if m.full_given is not None else None,
    "shared_affiliation": attrgetter("affiliation"),
    "shared_coauthor": attrgetter("coauthor_names"),
    "shared_grant": attrgetter("grant_ids"),
    "same_journal": attrgetter("journal"),
    "shared_discipline": attrgetter("disciplines"),
    "self_citation": attrgetter("pub_id", "references"),
    "bibliographic_coupling": attrgetter("references"),
    "co_citation": attrgetter("cited_by"),
}


def _holds(kind: str, x, y) -> bool:
    """Whether two mentions' values x and y match: for same, both are set and
    equal; for overlap, the sets intersect; for cites, one (pub_id,
    references) pair's pub_id is in the other's references."""
    if kind == "same":
        return x is not None and x == y
    if kind == "overlap":
        return not x.isdisjoint(y)
    return x[0] in y[1] or y[0] in x[1]


def satisfied_criteria(a: AuthorMention, b: AuthorMention) -> tuple[str, ...]:
    """Names of all criteria the pair satisfies, in CRITERIA order."""
    return tuple(name for name, kind, _ in _CRITERIA_TABLE if _holds(kind, VALUE[name](a), VALUE[name](b)))


def score_pair(a: AuthorMention, b: AuthorMention, rules: ScoringRuleTable) -> float:
    """Sum of the weights of every satisfied criterion (symmetric in a, b),
    added largest first as cluster_block adds them, so both round alike."""
    return sum(sorted((rules.weight(name) for name in satisfied_criteria(a, b)), reverse=True))


def block_key(mention: AuthorMention) -> BlockKey:
    return (mention.surname, mention.initials[:1])
