"""Property tests: random parameter points, drawn by hypothesis with a
derandomized search, checked against the float closed forms, and random
small sweeps checked against the CSV writer of `csv_reference`."""

import math
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


# log-spaced strengths from 1e-6 to 12, regular at both parities
log_strengths = st.floats(min_value=-6.0, max_value=math.log10(12.0)).map(lambda e: min(10.0**e, 12.0))
EPS = np.finfo(float).eps
# A binary entropy of a few-ulp argument is off by at most ~eps log2(1/eps)
# (53 eps, at a nearly pure state), so each entropy within 64 eps and a
# discord, a sum of at most three, within 192 eps.
ENTROPY_ERR = 64 * EPS
DISCORD_ERR = 3 * ENTROPY_ERR


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    alpha2=st.lists(log_strengths, min_size=1, max_size=16),
    m=st.integers(min_value=0, max_value=MAX_PHOTON_ORDER),
    k=st.sampled_from([0, 1]),
)
def test_squared_discord_and_ckw_monogamy(alpha2, m, k):
    fields = closed_forms(np.array(alpha2), m, k)
    # D1_23^2 - 2 D12^2 >= 0: a square v^2 moves by <= 2|v| err + err^2
    d1_23, d12 = fields["D1_23"], fields["D12"]
    tol = 2.0 * d1_23 * ENTROPY_ERR + ENTROPY_ERR**2 + 2.0 * (2.0 * np.abs(d12) * DISCORD_ERR + DISCORD_ERR**2)
    assert (d1_23**2 - 2.0 * d12**2 >= -tol).all(), alpha2
    # CKW, C1_23^2 - C(rho12)^2 - C13^2 >= 0 with the three-tangle as its
    # residual, where rho12 and rho13 of the GHZ-type state share C13: both
    # concurrences carry the factor sqrt(1 - kappa_m^2 e^{-4a}), whose
    # cancellation error scales them alike, and the rest of each is a few
    # rounded products and quotients, within 8 ulp, so each square within
    # 16 eps relative
    c1_23, c13 = fields["C1_23_conc"], fields["C13_conc"]
    assert (c1_23**2 - 2.0 * c13**2 >= -16.0 * EPS * (c1_23**2 + 2.0 * c13**2)).all(), alpha2


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
