"""`tools/make_cases.py` rebuilds the bundled synthetic cases byte for
byte, and its max_span keyword keeps every chord within that span."""

import sys

from tests.conftest import CASE_DIR

sys.path.insert(0, str(CASE_DIR.parent.parent / "tools"))
import make_cases  # noqa: E402


def test_bundled_cases_rebuild_byte_for_byte():
    for name, text in make_cases.bundled().items():
        assert text == (CASE_DIR / name).read_text(), name


def test_max_span_bounds_every_chord():
    n_bus, n_chords = 200, 116
    branches = make_cases.build(n_bus, list(range(1, n_bus + 1, 6)), n_chords,
                                38.0, seed=200, max_span=20)[0]
    chords = branches[n_bus:]
    assert len(chords) == n_chords
    assert len({(a, b) for a, b, *_ in branches}) == len(branches)
    assert all(2 <= b - a <= 20 for a, b, *_ in chords)
