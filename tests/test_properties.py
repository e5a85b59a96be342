"""Property tests: random parameter points, drawn by hypothesis with a
derandomized search, checked against the float closed forms."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pacsqc import correlations  # noqa: E402
from pacsqc.correlations import closed_forms  # noqa: E402
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
