from __future__ import annotations

import numpy as np
import pytest

from panelthresh import PanelDataset
from panelthresh.threshold import _ssr_ws


def make_panel(variables: dict, metadata=None) -> PanelDataset:
    """Build a panel from {name: 2-D array-like} with auto labels."""
    first = np.asarray(next(iter(variables.values())))
    n, t = first.shape
    return PanelDataset(
        unit_ids=[f"u{i + 1}" for i in range(n)],
        periods=[str(j + 1) for j in range(t)],
        variables=variables,
        metadata=metadata,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_panel(rng, n=4, t=8, extra_vars=()) -> PanelDataset:
    """Random panel with threshold variable q and regressor x."""
    variables = {
        "y": rng.standard_normal((n, t)),
        "q": rng.uniform(0.0, 10.0, (n, t)),
        "x": rng.standard_normal((n, t)),
    }
    for name in extra_vars:
        variables[name] = rng.standard_normal((n, t))
    return make_panel(variables)


def conditional_profile(ws, grid, fixed, y=None) -> list[tuple[float, float]]:
    """(candidate, SSR) over grid candidates admissible jointly with ``fixed``,
    each by pivoted QR: the exact reference for ``SSRScan.locate`` and
    ``SSRScan.profile``."""
    profile: list[tuple[float, float]] = []
    for c in grid:
        c = float(c)
        if c in fixed:
            continue
        gammas = tuple(sorted((*fixed, c)))
        n_le = np.sum(ws.q[:, None] <= np.array(gammas), axis=0)
        if np.min(np.diff(n_le, prepend=0, append=ws.n_obs)) < ws.floor:
            continue
        profile.append((c, _ssr_ws(ws, gammas, y)))
    return profile


def profile_argmin(profile: list[tuple[float, float]]) -> tuple[float, float]:
    """First minimum of a profile: the reference for the search
    ``SSRScan.locate`` reproduces."""
    best = profile[0]
    for entry in profile[1:]:
        if entry[1] < best[1]:
            best = entry
    return best
