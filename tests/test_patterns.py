import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from completable import (
    Certificate,
    ObservationPattern,
    ObservedMatrix,
    PatternFormatError,
    PluckerVector,
    Slmf,
    SlmfWitness,
    certificate_from_json,
    check_necessary_condition,
    check_relaxed_slmf,
    export_plucker_system,
    find_finite_certificate,
    find_unique_certificate,
    grassmann_section_rank_test,
    jacobian_rank_test,
    minimum_size_check,
    parse_pattern,
    pattern_from_json,
    pattern_to_grid,
    random_pattern,
)
from conftest import GRID_6X5, index_map_text


def test_parse_6x5_grid(pattern_6x5):
    assert (pattern_6x5.m, pattern_6x5.n) == (6, 5)
    assert pattern_6x5.size == 18
    assert pattern_6x5.column_supports() == ((0, 1, 2, 3, 4), (3, 4, 5), (1, 3), (0, 1, 3, 4, 5), (0, 2, 4))


def test_parse_single_cell():
    p = parse_pattern("1")
    assert (p.m, p.n) == (1, 1)
    assert p.entries == {(0, 0)}


def test_parse_all_zeros():
    p = parse_pattern("000\n000\n000\n")
    assert p.size == 0
    assert p.column_supports() == ((), (), ())


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
    entries = [[i + 1, j + 1] for i, j in sorted(pattern_6x5.entries)]
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
    for entry in sorted(pattern_6x5.entries):
        check = minimum_size_check(pattern_6x5.restrict(pattern_6x5.entries - {entry}), 2)
        assert (check.actual, check.passed) == (17, False)


def test_minimum_size_fully_observed_rank_one():
    full = ObservationPattern(4, 4, frozenset((i, j) for i in range(4) for j in range(4)))
    check = minimum_size_check(full, 1)
    assert (check.required, check.actual, check.passed) == (7, 16, True)


def test_minimum_size_rank_out_of_range(pattern_6x5):
    with pytest.raises(ValueError):
        minimum_size_check(pattern_6x5, 6)


_PATTERN = ObservationPattern(6, 5, frozenset({(0, 0), (5, 4)}))
_PHI = Slmf(5, 2, ((0, 1, 2), (0, 1, 3), (1, 2, 4)))
_OBSERVED = ObservedMatrix(parse_pattern("11\n10\n01\n"), {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (2, 1): 4.0})
_SYSTEM = export_plucker_system(_OBSERVED, 1)
_VECTOR = PluckerVector(r=2, m=4, coords=np.array([1.0, 2.0, 4.0, 0.0, -3.0, -6.0]))


@pytest.mark.parametrize(
    "value, name",
    [(_PATTERN, "m"), (_PATTERN, "n"), (_PHI, "m"), (_PHI, "r"), (_SYSTEM, "r"), (_VECTOR, "r"), (_VECTOR, "m")],
    ids=["pattern m", "pattern n", "slmf m", "slmf r", "system r", "vector r", "vector m"],
)
def test_value_types_read_their_integer_fields_through_operator_index(monkeypatch, value, name):
    """``ObservationPattern``, ``Slmf``, ``ExportedSystem`` and ``PluckerVector``
    read m, n and r once, through ``operator.index``: a numpy integer is kept
    as an int, and a float raises ``TypeError``, also where pickle or copy
    restores the fields (``_restore``)."""
    kind, fields = type(value), {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    made = kind(**{**fields, name: np.int64(fields[name])})
    assert made == value and type(getattr(made, name)) is int
    with pytest.raises(TypeError):
        kind(**{**fields, name: float(fields[name])})
    # PluckerVector defines no __getstate__, and object has none before Python 3.11
    monkeypatch.setattr(kind, "__getstate__", lambda self: {**fields, name: float(fields[name])}, raising=False)
    for restore in (pickle.loads, copy.copy, copy.deepcopy):
        with pytest.raises(TypeError):
            restore(pickle.dumps(value) if restore is pickle.loads else value)


def test_an_exported_system_reads_r_true_as_r_1():
    """``True`` is an index, 1, so the index map is that of r = 1, and valid JSON."""
    text = index_map_text(export_plucker_system(_OBSERVED, True))
    assert text == index_map_text(_SYSTEM)
    assert json.loads(text)["r"] == 1


def test_pattern_entries_and_slmf_rows_are_read_as_indices():
    """A float row or column is refused, not truncated: (2.5, 0) is no (2, 0)."""
    with pytest.raises(TypeError):
        ObservationPattern(6, 5, {(2.5, 0)})
    with pytest.raises(TypeError):
        Slmf(5, 2, ((0, 1, 2.0), (0, 1, 3), (1, 2, 4)))
    assert ObservationPattern(6, 5, {(np.int64(5), np.int32(4))}).entries == {(5, 4)}
    # a certificate's witness sources and supports, and its partition, likewise
    with pytest.raises(TypeError):
        SlmfWitness(((0, 1, 2),), (0.9,))
    with pytest.raises(TypeError):
        SlmfWitness(((0, 1, 2.0),), (0,))
    with pytest.raises(TypeError):
        Certificate("finite", ((0, 1.7),), (SlmfWitness(((0, 1, 2),), (0,)),))
    witness = SlmfWitness(((np.int64(2), 0, 1),), (np.int32(4),))
    assert witness == SlmfWitness(((0, 1, 2),), (4,))
    assert type(witness.supports[0][0]) is type(witness.sources[0]) is int
    cert = Certificate("finite", ((np.int64(1), 0),), (witness,))
    assert cert.partition == ((0, 1),) and type(cert.partition[0][0]) is int


_CERTIFICATE = {"kind": "finite", "partition": [[1, 2]], "slmfs": [{"columns": [{"support": [1, 2], "source_column": 1}]}]}


@pytest.mark.parametrize(
    "path, value",
    [(("partition", 0, 0), 1.7), (("slmfs", 0, "columns", 0, "support", 1), 2.9), (("slmfs", 0, "columns", 0, "source_column"), True)],
    ids=["partition 1.7", "support 2.9", "source true"],
)
def test_a_certificate_file_is_refused_where_an_index_is_no_json_integer(path, value):
    """1.7, 2.9 and true are no column or row: ``certificate_from_json`` refuses
    them, as ``pattern_from_json`` does, instead of reading 1, 2 and 1."""
    assert certificate_from_json(json.dumps(_CERTIFICATE)).partition == ((0, 1),)
    edited = copy.deepcopy(_CERTIFICATE)
    target = edited
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError, match=f"{json.dumps(value)} is not an integer"):
        certificate_from_json(json.dumps(edited))


@pytest.mark.parametrize(
    "document",
    [
        {"kind": "finite", "slmfs": []},
        {**_CERTIFICATE, "partition": 5},
        [],
        {**_CERTIFICATE, "slmfs": [{"rows": []}]},
    ],
    ids=["no partition", "partition 5", "a list", "slmf without columns"],
)
def test_a_certificate_file_of_the_wrong_shape_is_refused_as_a_value_error(document):
    """A missing key or a value of the wrong type is a ``ValueError``, as in
    ``pattern_from_json``, not the ``KeyError`` or ``TypeError`` of a lookup."""
    with pytest.raises(ValueError, match="bad certificate JSON"):
        certificate_from_json(json.dumps(document))


_ENTRY_POINTS = (
    minimum_size_check,
    check_relaxed_slmf,
    check_necessary_condition,
    find_finite_certificate,
    find_unique_certificate,
    jacobian_rank_test,
    grassmann_section_rank_test,
)


def _numpy_scalars(value) -> list:
    """The numpy scalars anywhere in a result: in its dataclass fields and containers."""
    if isinstance(value, np.generic):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list, set, frozenset)):
        return [s for v in value for s in _numpy_scalars(v)]
    return []


@pytest.mark.parametrize("entry_point", _ENTRY_POINTS, ids=lambda f: f.__name__)
def test_every_entry_point_reads_r_alike(entry_point):
    """r = np.int64(2) gives the result of r = 2, with Python-int fields, and
    r = 2.0 raises ``TypeError`` before any work: the pattern object computes
    nothing, not even its column supports."""
    expected = entry_point(parse_pattern(GRID_6X5), 2)
    got = entry_point(parse_pattern(GRID_6X5), np.int64(2))
    assert got == expected and getattr(got, "row_basis", None) == getattr(expected, "row_basis", None)
    assert _numpy_scalars(got) == []
    pattern = parse_pattern(GRID_6X5)
    with pytest.raises(TypeError):
        entry_point(pattern, 2.0)
    assert not {"_column_supports", "_shared"} & pattern.__dict__.keys()
