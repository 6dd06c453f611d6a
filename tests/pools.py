"""Test helpers: pools built by hand (ragged, unsorted, with repeats) in the padded form
the env hands a policy, and the one-click history push that env.step's masked write
must equal."""

from typing import Sequence

import numpy as np

from slatesim.data import NON_CLICK_ID


def pad_pools(pools: Sequence[Sequence[int]], width: int | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, deduplicated pools as a (B, P) id array padded with the non-click id, and its mask.

    P is `width`, or else the largest pool. Ascending ids keep the cascade's
    lowest-id tie-break under a first-maximum argmax."""
    rows = [sorted(set(pool)) for pool in pools]
    sizes = np.array([len(row) for row in rows], dtype=int)
    mask = np.arange(sizes.max(initial=0) if width is None else width) < sizes[:, None]
    ids = np.full(mask.shape, NON_CLICK_ID, dtype=int)
    ids[mask] = [i for row in rows for i in row]
    return ids, mask


def push_columns(mats: np.ndarray, features: np.ndarray) -> None:
    """Shift each d x m history in `mats` (..., d, m) one column toward the oldest, in
    place, and write the matching row of `features` (..., d) as the newest column."""
    # the shifted window is built before any write, so a misfit raises with `mats` unchanged
    mats[...] = np.concatenate([mats[..., 1:], np.asarray(features)[..., None]], axis=-1)
