"""Author name normalization and parsing."""

from __future__ import annotations

import unicodedata


def normalize_text(value: str) -> str:
    """Case-fold, strip diacritics, and collapse whitespace.

    Parameters
    ----------
    value : str
        Raw text as found in a record.

    Returns
    -------
    str
        Canonical matching form, e.g. ``"  José  GARCÍA "`` becomes
        ``"jose garcia"``.
    """
    if value.isascii():
        # NFKD and the combining marks leave ASCII alone, and casefold is lower.
        return " ".join(value.lower().split())
    return _normalize_unicode(value)


def _normalize_unicode(value: str) -> str:
    """normalize_text for any text; for ASCII it is the fast path's oracle."""
    decomposed = unicodedata.normalize("NFKD", value)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return " ".join(stripped.casefold().split())


def parse_name(raw: str) -> tuple[str, str]:
    """Split a person name into normalized (given, surname) parts.

    Accepts both natural order (``"John R. Smith"``) and comma order
    (``"Smith, John R."``). Periods are treated as token separators so
    initials like ``"J.R."`` parse into two tokens.
    """
    cleaned = normalize_text(raw.replace(".", " "))
    if "," in cleaned:
        surname, _, given = cleaned.partition(",")
        return " ".join(given.split()), " ".join(surname.split())
    tokens = cleaned.split()
    if not tokens:
        return "", ""
    if len(tokens) == 1:
        return "", tokens[0]
    return " ".join(tokens[:-1]), tokens[-1]


def initials_of(given: str) -> str:
    """First letter of each given-name token, concatenated."""
    return "".join(tok[0] for tok in given.split() if tok)


def full_given_name(given: str) -> str | None:
    """The first given token when it is spelled out, else None.

    A single-letter token is an initial and carries no detail beyond the
    blocking key, so it does not count.
    """
    tokens = given.split()
    if tokens and len(tokens[0]) >= 2:
        return tokens[0]
    return None
