"""Property test of the CLI's JSON writer against the element-by-element
oracle: any float64 or float32 array of 1-3 dimensions, with values from
1e-8 to 2e6, near-integers and non-finite cells, writes the same bytes, and
so does a 2-D array of rows drawn from a few, which repeat."""
import numpy as np
import pytest

import reference_writer as ref
from pseudotal import cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

magnitudes = st.floats(min_value=1e-8, max_value=2e6)
# an integer moved by at most a few units in the 7th significant digit, so
# that 6-digit rounding may or may not land on the integer
near_integers = st.builds(
    lambda n, rel: n * (1.0 + rel),
    st.integers(min_value=1, max_value=2_000_000).map(float),
    st.floats(min_value=-2e-6, max_value=2e-6),
)
finite = st.one_of(
    magnitudes,
    magnitudes.map(lambda x: -x),
    near_integers,
    near_integers.map(lambda x: -x),
    st.integers(min_value=-1_000_000, max_value=1_000_000).map(float),
    st.sampled_from([0.0, -0.0, 999999.5, 99999.95]),
)


@st.composite
def arrays(draw):
    """A finite array, or one with a single NaN or infinite cell: any such
    cell sends the whole array down the general path."""
    a = draw(hnp.arrays(
        dtype=st.sampled_from([np.float64, np.float32]),
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
        elements=finite,
    ))
    if draw(st.booleans()):
        cell = draw(st.integers(min_value=0, max_value=a.size - 1))
        a.flat[cell] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return a


@settings(max_examples=300, deadline=None)
@given(arrays())
def test_arrays_match_reference_writer(a):
    assert cli._dump(a) == ref._dump(a)
    assert cli._dump({"a": a, "b": 0.5}) == ref._dump({"a": a, "b": 0.5})



@st.composite
def repeated_rows(draw):
    """A 2-D array whose rows are drawn, by a drawn index, from 1-4 drawn
    rows, so that rows repeat and the writer formats only the distinct ones;
    one drawn row may hold a NaN or infinite cell."""
    width = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.lists(
        hnp.arrays(dtype=draw(st.sampled_from([np.float64, np.float32])), shape=width,
                   elements=finite),
        min_size=1, max_size=4,
    ))
    if draw(st.booleans()):
        row = draw(st.sampled_from(pool))
        row[draw(st.integers(min_value=0, max_value=width - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    index = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1),
                          min_size=1, max_size=12))
    return np.stack([pool[i] for i in index])


@settings(max_examples=300, deadline=None)
@given(repeated_rows())
def test_repeated_rows_match_reference_writer(a):
    assert cli._dump(a) == ref._dump(a)
    assert cli._dump({"a": a, "b": 0.5}) == ref._dump({"a": a, "b": 0.5})
