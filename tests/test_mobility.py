import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmobility.diffusion import model_matrix
from rankmobility.mobility import (
    DEFAULT_BINS,
    RankTable,
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
