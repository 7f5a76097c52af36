"""density-eval's CSV renderer writes, cell by cell, what format(x, '.17g') writes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shrinkpred.canonical import BLOCK_SIZE
from shrinkpred.cli import _csv_cells, _csv_rows, _fmt


def expected(block: np.ndarray) -> bytes:
    return "".join(",".join(map(_fmt, row)) + "\n" for row in block.tolist()).encode()


def render(block: np.ndarray) -> bytes:
    return _csv_rows(block, _csv_cells(block.shape[1]))


def steps(x: float, count: int) -> list[float]:
    """x and its count nearest doubles on either side."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


# every magnitude, plus the renderer's range (1e-6, 1e17) written as a mantissa times a power of ten
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-8, 18)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e-6, -1e-6, 1e17, -1e17]),
)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12), elements=CELLS))
def test_rendered_bytes_equal_format_17g(block):
    assert render(block) == expected(block)


def fast_path_edges() -> np.ndarray:
    values = steps(1e-6, 3) + steps(1e17, 3)
    for k in range(-8, 19):
        # the nearest double to 10^k, one and two ulps off, and its decimal neighbours at 17 digits
        values += steps(float(10**k) if k >= 0 else float(f"1e{k}"), 2)
        values += [float(f"9.9999999999999999e{k - 1}"), float(f"9.99999999999999995e{k - 1}"),
                   float(f"1.0000000000000001e{k}"), float(f"1.00000000000000005e{k}")]
    # the layouts on either side of %g's switches: X = -5 / -4 and X = 16 / 17
    values += [1.2345e-5, 9.87654321e-5, 1e-4, 1.5e-4, 0.00012345678901234567,
               12345678901234567.0, 99999999999999984.0, 1e16, 1.5e16]
    # binary halves and quarters, whose 17th digit is an exact tie (rounded to even)
    values += [1250000000000000.25, 1250000000000000.75, 2251799813685247.5, 0.5, 2.5, 1.25e-5]
    values = np.array(values)
    return np.concatenate([values, -values])


def test_fast_path_edges_render_as_format_17g():
    values = fast_path_edges()
    for cols in (1, 3, 7):
        block = np.resize(values, (-(-values.size // cols), cols))
        assert render(block) == expected(block), cols


def test_fallback_rows_keep_their_place():
    # fast rows around rows that hold a zero, a nan, an infinity or a value past the range
    rng = np.random.default_rng(5)
    block = 2.5 * rng.standard_normal((BLOCK_SIZE, 4))
    for row, value in ((0, -0.0), (1, np.nan), (17, np.inf), (18, 1e-7), (BLOCK_SIZE - 1, 1e300)):
        block[row, row % 4] = value
    assert render(block) == expected(block)
    assert render(block[:1]) == expected(block[:1])
