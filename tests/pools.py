"""Test helpers: pools built by hand (ragged, unsorted, with repeats) in the padded form
the env hands a policy, and the one-click history push that env.step's masked write
must equal."""

from typing import Sequence

import numpy as np

from slatesim.data import NON_CLICK_ID


def pad_pools(pools: Sequence[Sequence[int]], width: int | None = None) -> np.ndarray:
    """Sorted, deduplicated pools as a (B, P) id array padded with the non-click id.

    P is `width`, or else the largest pool. Ascending ids keep the cascade's
    lowest-id tie-break under a first-maximum argmax."""
    rows = [sorted(set(pool)) for pool in pools]
    sizes = np.array([len(row) for row in rows], dtype=int)
    real = np.arange(sizes.max(initial=0) if width is None else width) < sizes[:, None]
    ids = np.full(real.shape, NON_CLICK_ID, dtype=int)
    ids[real] = [i for row in rows for i in row]
    return ids


def assert_padded(pools: np.ndarray) -> None:
    """Every row of (B, P) pools is strictly ascending real ids, then only the non-click id."""
    real = pools != NON_CLICK_ID
    assert np.array_equal(real, np.sort(real, axis=1)[:, ::-1]), "padding before a real id"
    for row, n in zip(pools, real.sum(axis=1)):
        assert np.all(np.diff(row[:n]) > 0), f"pool not strictly ascending: {row.tolist()}"


def push_columns(mats: np.ndarray, features: np.ndarray) -> None:
    """Shift each d x m history in `mats` (..., d, m) one column toward the oldest, in
    place, and write the matching row of `features` (..., d) as the newest column."""
    # the shifted window is built before any write, so a misfit raises with `mats` unchanged
    mats[...] = np.concatenate([mats[..., 1:], np.asarray(features)[..., None]], axis=-1)
