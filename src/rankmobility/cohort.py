"""Author profiles and discipline cohorts over the first ten career years."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import Corpus
from .disambig import MentionCluster


@dataclass(frozen=True, slots=True)
class ProfilePublication:
    pub_id: str
    year: int
    disciplines: frozenset[str]
    c5: int


@dataclass(frozen=True, slots=True)
class AuthorProfile:
    """A disambiguated author: career start plus their publication list.

    The career start is the earliest publication year across the whole
    profile, whatever the discipline; a later first paper in some other
    field does not restart the clock there.
    """

    author_id: str
    career_start: int
    publications: tuple[ProfilePublication, ...]


@dataclass(frozen=True, slots=True)
class CohortSpec:
    """A (discipline, career start year) cohort definition.

    The first and second career windows are [start, start+4] and
    [start+5, start+9]; membership requires at least one publication tagged
    with the discipline in each window.
    """

    discipline: str
    start_year: int

    @property
    def window1(self) -> tuple[int, int]:
        return (self.start_year, self.start_year + 4)

    @property
    def window2(self) -> tuple[int, int]:
        return (self.start_year + 5, self.start_year + 9)


def build_profiles(corpus: Corpus, clusters: Sequence[MentionCluster]) -> dict[str, AuthorProfile]:
    """Assemble one profile per cluster; publications are deduplicated."""
    profiles: dict[str, AuthorProfile] = {}
    for cluster in clusters:
        pub_ids: dict[str, None] = {}
        for mid in cluster.mention_ids:
            mention = corpus.mentions.get(mid)
            if mention is None:
                raise KeyError(f"cluster {cluster.author_id} references unknown mention {mid}")
            pub_ids.setdefault(mention.pub_id, None)
        pubs = tuple(
            ProfilePublication(
                pub_id=pid,
                year=corpus.publications[pid].year,
                disciplines=corpus.publications[pid].disciplines,
                c5=corpus.c5(pid),
            )
            for pid in sorted(pub_ids)
        )
        profiles[cluster.author_id] = AuthorProfile(
            author_id=cluster.author_id,
            career_start=min(p.year for p in pubs),
            publications=pubs,
        )
    return profiles


def profiles_by_start(
    profiles: Mapping[str, AuthorProfile]
) -> dict[int, dict[str, AuthorProfile]]:
    """Profiles grouped by career start year. A cohort only has members of
    its own start year, so each cohort scan needs only that year's group."""
    groups: dict[int, dict[str, AuthorProfile]] = {}
    for aid, profile in profiles.items():
        groups.setdefault(profile.career_start, {})[aid] = profile
    return groups


def _publishes_in(profile: AuthorProfile, window: tuple[int, int], discipline: str) -> bool:
    lo, hi = window
    return any(lo <= p.year <= hi and discipline in p.disciplines for p in profile.publications)


def build_cohort(profiles: Mapping[str, AuthorProfile], spec: CohortSpec) -> list[str]:
    """Author ids (sorted) whose career starts in spec.start_year and who
    publish in the discipline in both windows."""
    members = [
        aid
        for aid, profile in profiles.items()
        if profile.career_start == spec.start_year
        and _publishes_in(profile, spec.window1, spec.discipline)
        and _publishes_in(profile, spec.window2, spec.discipline)
    ]
    members.sort()
    return members


def aggregate_impact(
    profile: AuthorProfile, window: tuple[int, int], discipline: str | None = None
) -> int:
    """Sum of c5 over the profile's publications inside the window.

    With a discipline given, only publications tagged with it count.
    """
    lo, hi = window
    return sum(
        p.c5
        for p in profile.publications
        if lo <= p.year <= hi and (discipline is None or discipline in p.disciplines)
    )


def cohort_impacts(
    profiles: Mapping[str, AuthorProfile], spec: CohortSpec
) -> tuple[list[str], list[int], list[int]]:
    """Member ids with their window-1 and window-2 discipline impacts."""
    members = build_cohort(profiles, spec)
    impact1 = [aggregate_impact(profiles[aid], spec.window1, spec.discipline) for aid in members]
    impact2 = [aggregate_impact(profiles[aid], spec.window2, spec.discipline) for aid in members]
    return members, impact1, impact2
