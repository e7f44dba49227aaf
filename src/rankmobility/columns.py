"""The columns a corpus is held in, with no Python object per mention:
built from records a batch at a time and narrowed to some of the
publications. Export reads them back as lines (corpus._lines)."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from itertools import chain, count, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

# Records coded into the columns at a time.
_BATCH = 1024
# A mention's single-valued and list-valued fields, and all of them in the
# order canonical JSON writes them (sorted keys).
_SCALARS = ("name", "affiliation", "email", "orcid", "journal")
_LISTS = ("grants", "references")
_AUTHOR_KEYS = tuple(sorted(_SCALARS + _LISTS))


class _Columns(NamedTuple):
    """What a corpus holds, in corpus order.

    Per publication: pub_ids, year, a code into discipline_sets (each a
    sorted tuple of labels), citing years as CSR (citing_ptr, citing) and
    its mention rows first[k]:first[k + 1]. Per mention: fields maps each
    single-valued field to (codes, values), a field's value being
    values[code] and an absent one -1, and lists maps each list-valued
    field to CSR (indptr, codes, values). Every coded column numbers its
    values by first appearance (_Coder), the references after pub_ids, so a
    reference to a publication of the corpus has its index as its code.
    """

    pub_ids: list[str]
    year: np.ndarray
    disciplines: np.ndarray
    discipline_sets: list[tuple[str, ...]]
    citing_ptr: np.ndarray
    citing: np.ndarray
    first: np.ndarray
    fields: dict[str, tuple[np.ndarray, list]]
    lists: dict[str, tuple[np.ndarray, np.ndarray, list]]


class _Coder:
    """Numbers values in order of first appearance, a batch at a time.

    The seed values, distinct and none missing, take codes 0..s-1 in their
    order; every other value takes the next code when it first appears. A
    missing value, None or -1, is coded -1. A dict maps each distinct value
    to its position in the stream of values, so the positions rise in order
    of first appearance, and the end ranks them into consecutive codes.
    """

    def __init__(self, seed: Iterable = ()) -> None:
        self._at: dict = {None: -1, -1: -1}
        self._at.update(zip(seed, count()))
        self._coded = len(self._at) - 2
        self._chunks: list[np.ndarray] = []

    def add(self, values: Iterable, n: int = -1) -> None:
        positions = np.fromiter(map(self._at.setdefault, values, count(self._coded)), np.int64, n)
        self._coded += len(positions)
        self._chunks.append(positions)

    def codes(self) -> tuple[np.ndarray, list]:
        """The code of every value added, in order, and the distinct values
        by code (the seed first)."""
        at = self._at
        # rank[p] is the code of the value first seen at position p; a
        # missing value's position, -1, reads the last slot, whose code is -1.
        rank = np.empty(self._coded + 1, np.int32)
        rank[np.fromiter(at.values(), np.int64, len(at))[2:]] = np.arange(len(at) - 2)
        rank[-1] = -1
        return np.concatenate([rank[positions] for positions in self._chunks]), list(at)[2:]


def _code(values: Iterable, seed: Iterable = ()) -> tuple[np.ndarray, list]:
    """values coded in one batch by a _Coder with the seed, and the distinct values."""
    coder = _Coder(seed)
    coder.add(values)
    return coder.codes()


class _Builder:
    """Grows a corpus's columns from records, the dicts lines parse to, a
    batch at a time, each coded column through its own _Coder. No record
    outlives its batch. Lists and citing years are put in canonical form per
    record, and every other field once per distinct value (_present, _labels)."""

    def __init__(self) -> None:
        self.rows: dict[str, int] = {}
        self._batch: list[dict] = []
        self._coders = {column: _Coder() for column in ("disciplines", *_SCALARS, *_LISTS)}
        self._chunks: dict[str, list[np.ndarray]] = defaultdict(list)

    def add(self, record: dict) -> None:
        self.rows[record["pub_id"]] = len(self.rows)
        self._batch.append(record)
        if len(self._batch) == _BATCH:
            self._flush()

    def _sizes(self, column: str, lists: list) -> None:
        self._chunks[column].append(np.fromiter(map(len, lists), np.int64, len(lists)))

    def _flush(self) -> None:
        records, self._batch = self._batch, []
        self._chunks["year"].append(np.fromiter(map(itemgetter("year"), records), np.int64, len(records)))
        self._coders["disciplines"].add(map(itemgetter("disciplines"), records), len(records))
        citing = list(map(sorted, map(itemgetter("citing_years"), records)))
        self._sizes("citing_sizes", citing)
        self._chunks["citing"].append(np.fromiter(chain.from_iterable(citing), np.int64))
        authors = list(map(itemgetter("authors"), records))
        self._sizes("authors", authors)
        authors = list(chain.from_iterable(authors))
        self._coders["name"].add(map(itemgetter("name"), authors), len(authors))
        for column in _SCALARS[1:]:
            self._coders[column].add(map(dict.get, authors, repeat(column)), len(authors))
        for column in _LISTS:
            lists = [sorted(set(values)) if (values := author.get(column)) else () for author in authors]
            self._sizes(f"{column}_sizes", lists)
            self._coders[column].add(chain.from_iterable(lists))

    def _column(self, name: str) -> np.ndarray:
        chunks = self._chunks[name]
        return np.concatenate(chunks) if chunks else np.zeros(0, np.int64)

    def columns(self) -> _Columns:
        self._flush()
        pub_ids = list(self.rows)
        # Each coder is dropped once ranked, and its positions with it.
        fields = {column: _forms(*self._coders.pop(column).codes(), _present) for column in _SCALARS}
        lists = {}
        for column in _LISTS:
            codes, values = self._coders.pop(column).codes()
            if column == "references":
                recoded, values = _code(values, pub_ids)
                codes = recoded[codes]
            lists[column] = (_indptr(self._column(f"{column}_sizes")), codes, values)
        disciplines, discipline_sets = _forms(*self._coders.pop("disciplines").codes(), _labels)
        return _Columns(
            pub_ids=pub_ids,
            year=self._column("year"),
            disciplines=disciplines,
            discipline_sets=discipline_sets,
            citing_ptr=_indptr(self._column("citing_sizes")),
            citing=self._column("citing"),
            first=_indptr(self._column("authors")),
            fields=fields,
            lists=lists,
        )


def _forms(raw: np.ndarray, distinct: list, form) -> tuple[np.ndarray, list]:
    """Codes of the form of each raw value, computed once per distinct raw
    value, with the distinct forms; a form of None, and a raw code of -1,
    are coded -1."""
    codes, forms = _code(map(form, distinct))
    return np.append(codes, np.int32(-1))[raw], forms


def _present(value: str) -> str | None:
    """An optional string as held: a blank one is absent."""
    return value if value.strip() else None


def _labels(disciplines: str) -> tuple[str, ...]:
    """The distinct labels of a semicolon-separated string, stripped and
    sorted, blanks dropped."""
    return tuple(sorted({label for part in disciplines.split(";") if (label := part.strip())}))


def _take(columns: _Columns, pubs: np.ndarray) -> _Columns:
    """The columns of the publications pubs (ascending), coded as a corpus
    of just those publications codes them: a reference to a publication
    left out becomes one to outside the corpus."""
    sizes = np.diff(columns.first)[pubs]
    rows = _ranges(columns.first[pubs], sizes)
    fields = {column: _recode(codes[rows], values) for column, (codes, values) in columns.fields.items()}
    lists = {}
    for column, (indptr, codes, values) in columns.lists.items():
        held = np.diff(indptr)[rows]
        seed = pubs.tolist() if column == "references" else ()
        lists[column] = (_indptr(held), *_recode(codes[_ranges(indptr[rows], held)], values, seed))
    disciplines, discipline_sets = _recode(columns.disciplines[pubs], columns.discipline_sets)
    cited = np.diff(columns.citing_ptr)[pubs]
    return _Columns(
        pub_ids=list(map(columns.pub_ids.__getitem__, pubs.tolist())),
        year=columns.year[pubs],
        disciplines=disciplines,
        discipline_sets=discipline_sets,
        citing_ptr=_indptr(cited),
        citing=columns.citing[_ranges(columns.citing_ptr[pubs], cited)],
        first=_indptr(sizes),
        fields=fields,
        lists=lists,
    )


def _recode(codes: np.ndarray, values: list, seed: Iterable = ()) -> tuple[np.ndarray, list]:
    """codes coded afresh, the seed's old codes first, with their values."""
    codes, old = _code(codes.tolist(), seed)
    return codes, list(map(values.__getitem__, old))


def _indptr(sizes: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


def _unique(keys: np.ndarray) -> np.ndarray:
    """The distinct integer keys, ascending, as np.unique gives them. Found
    by a sort: numpy 2.4's np.unique hashes integers, which took 1.8 s for
    2.3 M keys that sort in 0.04 s (one core of a 2-CPU machine)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=keys[:1] - 1) != 0]


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[k] .. starts[k] + sizes[k] - 1."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - (ends - sizes), sizes) + np.arange(sizes.sum())
