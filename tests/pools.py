"""Test helper: pools built by hand (ragged, unsorted, with repeats) in the padded form
the env hands a policy."""

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
