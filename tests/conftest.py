import itertools

import pytest

from completable import Slmf, parse_pattern

# 6x5 mask, 18 observed entries, generically finitely completable at rank 2
GRID_6X5 = """\
10011
10110
10001
11110
11011
01010
"""

# 6x6 extension, 24 entries, generically uniquely completable at rank 2
GRID_6X6 = """\
101111
101101
101010
111100
110111
010101
"""

# (2,6) linkage supports used throughout the tests (0-based rows)
PHI_A = Slmf(m=6, r=2, columns=((0, 1, 2), (0, 1, 3), (0, 1, 4), (3, 4, 5)))
PHI_B = Slmf(m=6, r=2, columns=((1, 3, 5), (0, 1, 3), (0, 1, 4), (0, 2, 4)))
PHI_C = Slmf(m=6, r=2, columns=((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)))

REPEATED_COLUMNS = Slmf(
    m=6, r=2, columns=((0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 2))
)


@pytest.fixture
def pattern_6x5():
    return parse_pattern(GRID_6X5)


@pytest.fixture
def pattern_6x6():
    return parse_pattern(GRID_6X6)


def reference_export_csv(matrix):
    """Dense CSV of an exported system, formatted cell by cell."""
    lines = [",".join(repr(float(v)) for v in row) for row in matrix]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_relaxed_slmf(pattern, r):
    """(ok, reason, violating_rows) of the counting test, row set by row set."""
    m, n = pattern.m, pattern.n
    if pattern.size != r * (m + n - r):
        return False, "size", None
    support_masks = [sum(1 << i for i in omega) for omega in pattern.column_supports()]
    for size in range(r + 1, m + 1):
        bound = r * (size - r)
        for rows in itertools.combinations(range(m), size):
            imask = sum(1 << i for i in rows)
            surplus = 0
            for smask in support_masks:
                inter = (smask & imask).bit_count()
                if inter > r:
                    surplus += inter - r
            if surplus > bound:
                return False, "inequality", rows
    total_surplus = sum(max(mask.bit_count() - r, 0) for mask in support_masks)
    if total_surplus != r * (m - r):
        return False, "equality", tuple(range(m))
    return True, None, None
