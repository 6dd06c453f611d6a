"""The per-row cascade as it was built on nets.head_scores, kept as the oracle for
agent.net_qeval and agent.cascade_plan, which score each head inline: on the
same state and pool both must give the same slate, the same per-position
values bit for bit, the same errors and the same evaluation count."""

import math

import numpy as np

from slatesim import nets
from slatesim.agent import _check_finite


def oracle_net_qeval(qnet, state_vec, catalog):
    def qeval(j, prefix, cands):
        fixed = np.concatenate([state_vec] + [catalog.features(i) for i in prefix])
        return nets.head_scores(qnet.heads[j - 1], fixed, catalog.feature_matrix(cands))

    return qeval


def oracle_cascade_plan(qeval, pool, k, counter=None):
    remaining = sorted(int(i) for i in set(pool))
    if len(remaining) < k:
        raise ValueError(f"pool smaller than k: {len(remaining)} < {k}")
    slate, values = [], []
    for j in range(1, k + 1):
        vals = np.asarray(qeval(j, tuple(slate), tuple(remaining)), dtype=float)
        if counter is not None:
            counter.count += len(remaining)
        best = int(np.argmax(vals))
        if not math.isfinite(vals[best]):
            _check_finite(vals[best:best + 1], j)
        slate.append(remaining[best])
        values.append(float(vals[best]))
        remaining.pop(best)
    return slate, values
