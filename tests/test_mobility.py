import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankmobility.diffusion import model_matrix
from rankmobility.mobility import (
    DEFAULT_BINS,
    RankTable,
    _assign_deciles,
    delta_p,
    delta_q_profile,
    read_delta_q_csv,
    read_matrix_csv,
    read_rank_table_csv,
    reshuffle_null,
    transition_matrix,
    write_delta_q_csv,
    write_matrix_csv,
    write_rank_table_csv,
)


def table_from(values1, values2, n_bins=DEFAULT_BINS):
    ids = [f"A{k:03d}" for k in range(len(values1))]
    return RankTable.from_impacts(ids, values1, values2, n_bins=n_bins)


def test_thirteen_author_occupancies():
    table = table_from([float(k) for k in range(13)], [0.0] * 13)
    occupancy = np.bincount(table.q1, minlength=11)[1:]
    assert tuple(occupancy) == (2, 1, 1, 2, 1, 1, 2, 1, 1, 1)


def test_lowest_value_gets_bin_one_highest_bin_ten():
    table = table_from([float(k) for k in range(10)], [0.0] * 10)
    assert table.q1[0] == 1
    assert table.q1[9] == 10


def test_ties_break_by_author_id():
    table = table_from([0.0] * 10, [0.0] * 10)
    assert table.q1[0] == 1
    assert table.q1[9] == 10
    assert table.q2.tolist() == table.q1.tolist()


def test_too_small_cohort_errors():
    with pytest.raises(ValueError, match="cohort too small to rank"):
        RankTable.from_impacts(["A"] * 9, [1.0] * 9, [1.0] * 9)


def test_duplicate_ids_error():
    with pytest.raises(ValueError, match="duplicate author ids"):
        RankTable.from_impacts(["A"] * 10, [float(k) for k in range(10)], [0.0] * 10)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=10, max_value=400), seed=st.integers(min_value=0, max_value=2**31))
def test_occupancies_differ_by_at_most_one(n, seed):
    rng = np.random.default_rng(seed)
    table = table_from(rng.random(n), rng.random(n))
    for bins in (table.q1, table.q2):
        occupancy = np.bincount(bins, minlength=11)[1:]
        assert occupancy.max() - occupancy.min() <= 1
        assert occupancy.sum() == n


def test_rank_table_validation():
    with pytest.raises(ValueError, match="equal length"):
        RankTable.from_impacts(["A", "B"], [1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="duplicate author ids"):
        RankTable.from_impacts(["A"] * 10, range(10), range(10))
    with pytest.raises(ValueError, match="too small"):
        RankTable.from_impacts(["A", "B"], [1, 2], [1, 2])


def test_transition_matrix_identity_for_stable_ranks():
    values = [float(k) for k in range(20)]
    t = transition_matrix(table_from(values, values))
    assert np.allclose(t.matrix, np.eye(10))
    assert t.uniform_columns == ()
    assert t.matrix[0, 0] == 1.0
    assert np.allclose(t.matrix.sum(axis=0), 1.0)


def test_transition_matrix_reversal():
    values = [float(k) for k in range(20)]
    t = transition_matrix(table_from(values, values[::-1]))
    assert np.allclose(t.matrix, np.eye(10)[::-1])
    assert t.matrix[9, 0] == 1.0


def test_column_sums_exactly_one_with_two_authors_per_bin():
    rng = np.random.default_rng(3)
    t = transition_matrix(table_from(rng.random(40), rng.random(40)))
    assert np.abs(t.matrix.sum(axis=0) - 1.0).max() < 1e-12


def test_delta_q_profile_values():
    values1 = [float(k) for k in range(10)]
    values2 = [float((k + 1) % 10) for k in range(10)]  # rotate one step
    profile = delta_q_profile(table_from(values1, values2))
    # each author climbs one bin, except the top author drops to the bottom
    assert all(profile.mean[:9] == 1.0)
    assert profile.mean[9] == -9.0
    assert all(profile.count == 1)
    assert np.isnan(profile.sem).all()


def test_delta_q_empty_and_single_bins():
    # 11 authors: bin 1 holds two, the rest one each
    values = [float(k) for k in range(11)]
    profile = delta_q_profile(table_from(values, values))
    assert profile.count[0] == 2
    assert profile.sem[0] == 0.0
    assert np.isnan(profile.sem[1])


def test_delta_q_sem_uses_the_n_minus_1_variance():
    # Bin 1 holds two authors who move up 0 and 2 bins: sqrt(2 / 1) / sqrt(2) = 1.
    values2 = [0.0, 4.0, 1.0, 2.0, 3.0] + [float(k) for k in range(5, 20)]
    profile = delta_q_profile(table_from([float(k) for k in range(20)], values2))
    assert profile.count[0] == 2
    assert profile.sem[0] == 1.0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=10, max_value=200), seed=st.integers(min_value=0, max_value=2**31))
def test_population_weighted_mean_delta_q_is_zero(n, seed):
    # Both windows rank the same n authors with the same occupancy pattern,
    # so the q1 and q2 multisets coincide and total movement cancels.
    rng = np.random.default_rng(seed)
    profile = delta_q_profile(table_from(rng.random(n), rng.random(n)))
    total = np.nansum(profile.mean * profile.count)
    assert abs(total) < 1e-9


def test_reshuffle_null_is_seed_deterministic():
    rng = np.random.default_rng(5)
    table = table_from(rng.random(50), rng.random(50))
    a = reshuffle_null(table, n_reps=10, seed=42)
    b = reshuffle_null(table, n_reps=10, seed=42)
    c = reshuffle_null(table, n_reps=10, seed=43)
    assert np.array_equal(a.profile.mean, b.profile.mean)
    assert np.array_equal(a.matrix.matrix, b.matrix.matrix)
    assert not np.array_equal(a.profile.mean, c.profile.mean)
    assert a.n_reps == 10


def test_reshuffle_null_matches_uniform_expectation():
    # Under reshuffling the expected landing bin is uniform, so the mean
    # change from bin q is 5.5 - q.
    rng = np.random.default_rng(8)
    table = table_from(rng.random(200), rng.random(200))
    null = reshuffle_null(table, n_reps=200, seed=17)
    expected = 5.5 - null.profile.deciles
    assert np.abs(null.profile.mean - expected).max() < 0.25
    assert null.profile.count.sum() == 200 * 200


def test_reshuffle_rejects_zero_reps():
    rng = np.random.default_rng(5)
    table = table_from(rng.random(20), rng.random(20))
    with pytest.raises(ValueError, match="n_reps"):
        reshuffle_null(table, n_reps=0)


def oracle_profile(q1, q2, n_bins):
    """Per-author moment accumulation, as delta_q_profile once computed it."""
    idx = q1 - 1
    dq = (q2 - q1).astype(float)
    return (
        np.bincount(idx, weights=dq, minlength=n_bins),
        np.bincount(idx, weights=dq * dq, minlength=n_bins),
        np.bincount(idx, minlength=n_bins),
    )


def oracle_finish(total, total_sq, count, n_bins):
    mean = np.full(n_bins, np.nan)
    sem = np.full(n_bins, np.nan)
    nonzero = count > 0
    mean[nonzero] = total[nonzero] / count[nonzero]
    multi = count > 1
    if multi.any():
        var = (total_sq[multi] - count[multi] * mean[multi] ** 2) / (count[multi] - 1)
        sem[multi] = np.sqrt(np.maximum(var, 0.0) / count[multi])
    return mean, sem, count.astype(np.int64)


def oracle_matrix(counts):
    n_bins = counts.shape[0]
    matrix = np.empty_like(counts, dtype=float)
    uniform = []
    for j in range(n_bins):
        total = counts[:, j].sum()
        if total == 0:
            matrix[:, j] = 1.0 / n_bins
            uniform.append(j + 1)
        else:
            matrix[:, j] = counts[:, j] / total
    return matrix, tuple(uniform)


def oracle_null(table, n_reps, seed):
    """The per-repetition loop reshuffle_null once ran."""
    n, n_bins = len(table), table.n_bins
    ids = np.array(table.author_ids)
    total, total_sq = np.zeros(n_bins), np.zeros(n_bins)
    count = np.zeros(n_bins, dtype=np.int64)
    counts = np.zeros((n_bins, n_bins), dtype=np.int64)
    for child in np.random.SeedSequence(seed).spawn(n_reps):
        q2 = _assign_deciles(ids, table.impact2[np.random.default_rng(child).permutation(n)], n_bins)
        t, t_sq, c = oracle_profile(table.q1, q2, n_bins)
        total += t
        total_sq += t_sq
        count += c
        for a, b in zip(q2, table.q1):
            counts[a - 1, b - 1] += 1
    return oracle_finish(total, total_sq, count, n_bins), oracle_matrix(counts)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def deciles_table(draw):
    # Deciles drawn freely rather than ranked, so bins may be empty or hold
    # a single author; impact2 values repeat, so re-ranking meets ties.
    n_bins = draw(st.integers(min_value=2, max_value=10))
    n = draw(st.integers(min_value=1, max_value=40))
    q = st.lists(st.integers(min_value=1, max_value=n_bins), min_size=n, max_size=n)
    impact2 = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n))
    return RankTable(
        author_ids=tuple(f"A{k:02d}" for k in range(n)),
        impact1=np.zeros(n),
        impact2=np.array(impact2, dtype=float),
        q1=np.array(draw(q), dtype=np.int64),
        q2=np.array(draw(q), dtype=np.int64),
        n_bins=n_bins,
    )


SPARSE_TABLE = RankTable(
    author_ids=("A", "B", "C", "D"),
    impact1=np.zeros(4),
    impact2=np.array([3.0, 1.0, 1.0, 2.0]),
    q1=np.array([1, 1, 3, 5], dtype=np.int64),
    q2=np.array([5, 2, 3, 1], dtype=np.int64),
    n_bins=6,
)


def shuffled_rows(impact2, n_bins, seed):
    """A table of impact2 in shuffled rows, with ids in neither row nor numeric order."""
    rng = np.random.default_rng(seed)
    n = len(impact2)
    return RankTable(
        author_ids=tuple(f"a{k}" for k in rng.permutation(n)),
        impact1=np.zeros(n),
        impact2=rng.permutation(np.asarray(impact2, dtype=float)),
        q1=rng.integers(1, n_bins + 1, size=n),
        q2=rng.integers(1, n_bins + 1, size=n),
        n_bins=n_bins,
    )


# 20 authors in 10 deciles of two positions: value 1's run covers deciles 1-4
# and starts in the decile that value 0 fills alone; values 2-5 each lie
# wholly in one decile, 4 and 5 in the same one.
STRADDLING_TABLE = shuffled_rows([0] + [1] * 6 + [2] + [3] * 2 + [4, 5] + [6] * 8, 10, seed=1)
# 451 distinct values, with ties: more than a byte can number.
MANY_VALUES_TABLE = shuffled_rows(np.random.default_rng(2).integers(0, 1000, size=600), 10, seed=3)
# Fewer authors than bins: every tie spans as many deciles as it has authors.
FEW_AUTHORS_TABLE = shuffled_rows([1, 0, 1, 1, 0, 2], 10, seed=4)


@settings(max_examples=200, deadline=None)
@given(table=deciles_table())
@example(table=SPARSE_TABLE)
def test_delta_q_profile_equals_per_author_oracle(table):
    mean, sem, count = oracle_finish(*oracle_profile(table.q1, table.q2, table.n_bins), table.n_bins)
    profile = delta_q_profile(table)
    assert same_bits(profile.mean, mean)
    assert same_bits(profile.sem, sem)
    assert same_bits(profile.count, count)
    assert same_bits(profile.deciles, np.arange(1, table.n_bins + 1, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(table=deciles_table(), n_reps=st.integers(min_value=1, max_value=5), seed=st.integers(0, 2**32 - 1))
@example(table=SPARSE_TABLE, n_reps=3, seed=0)
@example(table=STRADDLING_TABLE, n_reps=5, seed=0)
@example(table=MANY_VALUES_TABLE, n_reps=2, seed=0)
@example(table=FEW_AUTHORS_TABLE, n_reps=5, seed=0)
def test_reshuffle_null_equals_per_repetition_oracle(table, n_reps, seed):
    (mean, sem, count), (matrix, uniform) = oracle_null(table, n_reps, seed)
    null = reshuffle_null(table, n_reps=n_reps, seed=seed)
    assert same_bits(null.profile.mean, mean)
    assert same_bits(null.profile.sem, sem)
    assert same_bits(null.profile.count, count)
    assert same_bits(null.matrix.matrix, matrix)
    assert null.matrix.uniform_columns == uniform
    assert null.n_reps == n_reps


@st.composite
def shuffled_ids_table(draw):
    # Ids are f"a{k}" in shuffled rows, so string order ("a10" < "a9") is
    # neither row order nor numeric order. impact2 holds either a few values,
    # whose tied groups straddle decile boundaries, or distinct floats.
    n_bins = draw(st.integers(min_value=2, max_value=10))
    n = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        impact2 = rng.integers(0, draw(st.integers(min_value=1, max_value=6)), size=n).astype(float)
    else:
        impact2 = rng.random(n)
    return RankTable(
        author_ids=tuple(f"a{k}" for k in rng.permutation(n)),
        impact1=np.zeros(n),
        impact2=impact2,
        q1=rng.integers(1, n_bins + 1, size=n),
        q2=rng.integers(1, n_bins + 1, size=n),
        n_bins=n_bins,
    )


EMPTY_TABLE = RankTable((), np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(table=shuffled_ids_table(), n_reps=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2**32 - 1))
@example(table=EMPTY_TABLE, n_reps=2, seed=0)
@example(table=STRADDLING_TABLE, n_reps=5, seed=0)
@example(table=MANY_VALUES_TABLE, n_reps=2, seed=0)
@example(table=FEW_AUTHORS_TABLE, n_reps=5, seed=0)
def test_reshuffle_null_ranks_ties_by_author_id_as_the_sorting_oracle(table, n_reps, seed):
    (mean, sem, count), (matrix, uniform) = oracle_null(table, n_reps, seed)
    null = reshuffle_null(table, n_reps=n_reps, seed=seed)
    assert same_bits(null.profile.mean, mean)
    assert same_bits(null.profile.sem, sem)
    assert same_bits(null.profile.count, count)
    assert same_bits(null.matrix.matrix, matrix)
    assert null.matrix.uniform_columns == uniform


def test_transition_matrix_equals_column_loop_oracle():
    rng = np.random.default_rng(6)
    for n_bins in range(2, 11):
        q1 = rng.integers(1, n_bins + 1, size=15)
        q1[q1 == 2] = 1  # leave starting bin 2 empty
        table = RankTable(tuple(f"A{k}" for k in range(15)), np.zeros(15), np.zeros(15),
                          q1, rng.integers(1, n_bins + 1, size=15), n_bins=n_bins)
        counts = np.zeros((n_bins, n_bins), dtype=np.int64)
        for a, b in zip(table.q2, table.q1):
            counts[a - 1, b - 1] += 1
        matrix, uniform = oracle_matrix(counts)
        estimate = transition_matrix(table)
        assert same_bits(estimate.matrix, matrix)
        assert estimate.uniform_columns == uniform
        assert 2 in uniform


def test_delta_p_corners_and_zero_column_sums():
    rng = np.random.default_rng(11)
    table = table_from(rng.random(100), rng.random(100))
    empirical = transition_matrix(table)
    gap = delta_p(empirical, model_matrix(0.5))
    assert gap.matrix.shape == (10, 10)
    assert gap.top_gap == pytest.approx(gap.matrix[-1, -1])
    assert gap.bottom_gap == pytest.approx(gap.matrix[0, 0])
    assert np.abs(gap.matrix.sum(axis=0)).max() < 1e-12


def test_delta_p_recovers_known_excess():
    model = model_matrix(0.8)
    bumped = model.copy()
    bumped[-1, -1] += 0.05
    bumped[0, -1] -= 0.05
    empirical = transition_matrix(table_from(range(20), range(20)))
    empirical.matrix = bumped
    gap = delta_p(empirical, model)
    assert gap.top_gap == pytest.approx(0.05)


def test_delta_p_shape_mismatch():
    empirical = transition_matrix(table_from(range(20), range(20)))
    with pytest.raises(ValueError, match="shape mismatch"):
        delta_p(empirical, np.eye(5))


def test_matrix_csv_round_trip(tmp_path):
    matrix = model_matrix(0.35)
    path = tmp_path / "matrix.csv"
    write_matrix_csv(path, matrix)
    again = read_matrix_csv(path)
    assert np.array_equal(matrix, again)  # repr round-trips floats exactly


def test_matrix_csv_rejects_non_square(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n0.5,0.5\n")
    with pytest.raises(ValueError, match="not square"):
        read_matrix_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty matrix"):
        read_matrix_csv(empty)


def test_rank_table_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    table = table_from(rng.random(25), rng.random(25))
    path = tmp_path / "table.csv"
    write_rank_table_csv(path, table)
    again = read_rank_table_csv(path)
    assert again.author_ids == table.author_ids
    assert np.array_equal(again.impact1, table.impact1)
    assert np.array_equal(again.impact2, table.impact2)
    assert np.array_equal(again.q1, table.q1)
    assert np.array_equal(again.q2, table.q2)
    assert again.n_bins == table.n_bins


def test_rank_table_csv_rejects_other_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="not a rank table"):
        read_rank_table_csv(path)


def test_delta_q_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    profile = delta_q_profile(table_from(rng.random(30), rng.random(30)))
    path = tmp_path / "dq.csv"
    write_delta_q_csv(path, profile)
    again = read_delta_q_csv(path)
    assert np.array_equal(profile.deciles, again.deciles)
    assert np.allclose(profile.mean, again.mean, equal_nan=True)
    assert np.allclose(profile.sem, again.sem, equal_nan=True)
    assert np.array_equal(profile.count, again.count)
