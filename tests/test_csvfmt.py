"""csv_text against ``'%.17g'``: the kernel cell by cell, then whole tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampath.csvfmt import _CHUNK_CELLS, csv_text


def cells(values):
    """Each value through the writer, as a one-column table."""
    values = np.asarray(values, dtype=float)
    return csv_text(["x"], values[:, None]).splitlines()[1:]


def assert_cells_match(values):
    values = np.asarray(values, dtype=float)
    want = ["%.17g" % v for v in values.tolist()]
    got = cells(values)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def oracle(header, table):
    """The per-row %-formatting the writer replaced."""
    fmt = ",".join(["%.17g"] * table.shape[1])
    return "\n".join([",".join(header)] + [fmt % tuple(row) for row in table.tolist()]) + "\n"


class TestKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=50))
    def test_any_float(self, values):
        # st.floats() draws NaN, both infinities, both zeros and subnormals
        assert_cells_match(values)

    def test_specials(self):
        assert cells([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324]) == [
            "nan", "nan", "inf", "-inf", "0", "-0", "4.9406564584124654e-324",
            "-4.9406564584124654e-324"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_raw_bit_patterns(self, bits):
        assert_cells_match(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_many_bit_patterns(self):
        rng = np.random.default_rng(7)
        assert_cells_match(rng.integers(0, 2**64, 40000, dtype=np.uint64).view(np.float64))

    def test_every_magnitude(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(1, 10, 40000) * 10.0 ** rng.integers(-40, 18, 40000)
        assert_cells_match(np.concatenate([x, -x]))

    def test_subnormals(self):
        rng = np.random.default_rng(9)
        assert_cells_match(rng.integers(1, 2**52, 20000).astype(float) * 2.0**-1074)

    def test_exact_ties_round_half_to_even(self):
        # c / 2^t with c 5^t an 18-digit number: the decimal expansion ends in the
        # 18th digit, a 5, so 17 digits sit exactly halfway
        rng = np.random.default_rng(10)
        ties = []
        for t in range(1, 80):
            lo, hi = -(-10**17 // 5**t), min(10**18 // 5**t, 2**53)
            if lo >= hi:
                continue
            for c in rng.integers(lo, hi, 60).tolist():
                c |= 1
                if c < hi:
                    ties.append(c / 2**t)
                    assert str(c * 5**t)[-1] == "5" and len(str(c * 5**t)) == 18
        assert len(ties) > 1000
        assert_cells_match(ties)
        assert_cells_match([-v for v in ties])

    def test_powers_of_ten_and_their_neighbours(self):
        p = np.array([float(f"1e{k}") for k in range(-323, 309)])
        assert_cells_match(np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)]))

    def test_at_and_above_1e17(self):
        rng = np.random.default_rng(11)
        x = 10.0 ** rng.uniform(17, 308, 5000)
        edge = np.array([1e17, np.nextafter(1e17, 0), np.nextafter(1e17, np.inf), 1.8e308,
                         np.finfo(float).max])
        assert_cells_match(np.concatenate([x, -x, edge, -edge]))

    def test_integers(self):
        assert_cells_match(np.arange(-20000, 20000, dtype=float))


class TestWriter:
    @pytest.mark.parametrize("ncols", range(1, 10))
    def test_columns_and_rows_around_the_chunk(self, ncols):
        rng = np.random.default_rng(ncols)
        step = _CHUNK_CELLS // ncols
        for nrows in (1, step - 1, step, step + 1, 2 * step + 3):
            table = rng.standard_normal((nrows, ncols)) * 10.0 ** rng.integers(-6, 20, (nrows, ncols))
            header = [f"c{j}" for j in range(ncols)]
            assert csv_text(header, table) == oracle(header, table)

    def test_all_nan_inclusion_column(self):
        n = 2 * (_CHUNK_CELLS // 3) + 5
        table = np.column_stack([np.arange(n, dtype=float),
                                 np.abs(np.random.default_rng(3).standard_normal(n)) * 1e-12,
                                 np.full(n, np.nan)])
        header = ["interval", "fenchel_gap", "inclusion_residual"]
        text = csv_text(header, table)
        assert text == oracle(header, table)
        assert text.splitlines()[2] == "1,%.17g,nan" % table[1, 1]

    def test_empty_table_is_its_header(self):
        assert csv_text(["a", "b"], np.empty((0, 2))) == "a,b\n"
