import json

import pytest

from completable import (
    ObservationPattern,
    PatternFormatError,
    minimum_size_check,
    parse_pattern,
    pattern_from_json,
    pattern_to_grid,
    random_pattern,
)


def test_parse_6x5_grid(pattern_6x5):
    assert (pattern_6x5.m, pattern_6x5.n) == (6, 5)
    assert pattern_6x5.size == 18
    assert pattern_6x5.column_support(0) == (0, 1, 2, 3, 4)
    assert pattern_6x5.column_support(1) == (3, 4, 5)
    assert pattern_6x5.column_support(2) == (1, 3)
    assert pattern_6x5.column_support(3) == (0, 1, 3, 4, 5)
    assert pattern_6x5.column_support(4) == (0, 2, 4)


def test_parse_single_cell():
    p = parse_pattern("1")
    assert (p.m, p.n) == (1, 1)
    assert p.entries == {(0, 0)}


def test_parse_all_zeros():
    p = parse_pattern("000\n000\n000\n")
    assert p.size == 0
    assert p.empty_columns() == (0, 1, 2)


def test_parse_ragged_line_names_line():
    with pytest.raises(PatternFormatError, match="line 2"):
        parse_pattern("101\n10\n")


def test_parse_illegal_character_names_position():
    with pytest.raises(PatternFormatError, match="line 2, column 3"):
        parse_pattern("101\n10x\n")


def test_parse_empty_input():
    with pytest.raises(PatternFormatError, match="empty"):
        parse_pattern("\n  \n")


def test_grid_roundtrip(pattern_6x5):
    assert parse_pattern(pattern_to_grid(pattern_6x5)) == pattern_6x5


def test_json_roundtrip_is_one_based(pattern_6x5):
    entries = [[i + 1, j + 1] for i, j in pattern_6x5.sorted_entries()]
    assert [1, 1] in entries  # (0, 0) observed, written 1-based
    assert pattern_from_json(json.dumps({"m": 6, "n": 5, "entries": entries})) == pattern_6x5


def test_json_rejects_garbage():
    with pytest.raises(PatternFormatError):
        pattern_from_json('{"m": 2, "n": 2}')


def test_json_refuses_a_repeated_pair():
    """A pair listed twice is named with the entry it repeats, not read once."""
    with pytest.raises(PatternFormatError, match=r"^bad pattern JSON: entry 2 \[1, 1\] repeats entry 1$"):
        pattern_from_json('{"m": 2, "n": 2, "entries": [[1, 1], [1, 1], [2, 2]]}')


def test_entry_bounds_validated():
    with pytest.raises(ValueError):
        ObservationPattern(2, 2, frozenset({(2, 0)}))


def test_random_pattern_deterministic():
    a = random_pattern(6, 5, 3, seed=11)
    b = random_pattern(6, 5, 3, seed=11)
    assert a == b
    assert random_pattern(6, 5, 3, seed=12) != a


def test_random_pattern_forced_full_columns():
    p = random_pattern(6, 5, 6, seed=0)
    assert all(support == tuple(range(6)) for support in p.column_supports())


def test_random_pattern_support_sizes():
    """Every column of every draw has exactly k observed rows."""
    for seed in range(100):
        p = random_pattern(6, 5, 3, seed=seed)
        assert all(len(support) == 3 for support in p.column_supports())


def test_random_pattern_k_too_large():
    with pytest.raises(ValueError):
        random_pattern(6, 5, 7, seed=0)


def test_minimum_size_6x5(pattern_6x5):
    check = minimum_size_check(pattern_6x5, 2)
    assert (check.required, check.actual, check.passed) == (18, 18, True)


def test_minimum_size_fails_after_any_removal(pattern_6x5):
    for entry in pattern_6x5.sorted_entries():
        check = minimum_size_check(pattern_6x5.restrict(pattern_6x5.entries - {entry}), 2)
        assert (check.actual, check.passed) == (17, False)


def test_minimum_size_fully_observed_rank_one():
    full = ObservationPattern(4, 4, frozenset((i, j) for i in range(4) for j in range(4)))
    check = minimum_size_check(full, 1)
    assert (check.required, check.actual, check.passed) == (7, 16, True)


def test_minimum_size_rank_out_of_range(pattern_6x5):
    with pytest.raises(ValueError):
        minimum_size_check(pattern_6x5, 6)
