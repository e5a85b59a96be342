"""Property tests: random parameter points, drawn by hypothesis with a
derandomized search, checked against the float closed forms, and random
small sweeps checked against the CSV writer of `csv_reference`."""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from csv_reference import sweep_csv_bytes  # noqa: E402

from pacsqc import cli, correlations  # noqa: E402
from pacsqc.correlations import QUANTITIES, closed_forms  # noqa: E402
from pacsqc.special import MAX_PHOTON_ORDER, kappa, laguerre  # noqa: E402
from pacsqc.states import DEGENERATE_ALPHA2  # noqa: E402

# regular at both parities
strengths = st.floats(min_value=max(1e-6, DEGENERATE_ALPHA2), max_value=12.0)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    alpha2=st.lists(strengths, min_size=1, max_size=16),
    m=st.integers(min_value=0, max_value=MAX_PHOTON_ORDER),
    k=st.sampled_from([0, 1]),
)
def test_first_stage_and_array_kappa_equal_float_calls(alpha2, m, k):
    assert kappa(m, np.array(alpha2)).tolist() == [kappa(m, a) for a in alpha2]
    for a in alpha2:
        assert kappa(m, a) == laguerre(m, a) / laguerre(m, -a), a
        fields = closed_forms(a, m, k)
        for name in ("D12", "Delta123"):
            assert correlations._field(m, k, name, a) == fields[name], (name, a)


@st.composite
def sweep_specs(draw):
    axis = draw(st.sampled_from(["alpha2", "p"]))
    if axis == "alpha2":
        start = draw(st.one_of(st.just(-0.0), st.floats(min_value=0.0, max_value=8.0)))
        stop = start + draw(st.floats(min_value=1e-9, max_value=4.0))
    else:
        start = draw(st.floats(min_value=1e-3, max_value=0.99))
        stop = draw(st.one_of(st.just(1.0), st.floats(min_value=start, max_value=1.0).filter(lambda v: v > start)))
    return cli.SweepSpec(
        axis,
        start,
        stop,
        draw(st.integers(min_value=2, max_value=40)),
        draw(st.lists(st.integers(min_value=0, max_value=MAX_PHOTON_ORDER), min_size=1, max_size=3)),
        draw(st.sampled_from([[0], [1], [0, 1], [1, 0]])),
        draw(st.lists(st.sampled_from(QUANTITIES), max_size=16)),
        "x",
    )


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(spec=sweep_specs())
def test_sweep_files_equal_the_csv_writer_route(spec):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "sweep.csv")
        cli._write_csv(path, cli._sweep_header(spec), cli._sweep_lines(spec))
        with open(path, "rb") as handle:
            assert handle.read() == sweep_csv_bytes(spec)
