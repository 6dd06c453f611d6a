"""Trained Q-networks are byte-stable: both replay trainers in both reward modes against recorded digests.

Each case records the sha256 of the trained tensors and of the (slate, chosen)
sequence the trainer played, in the order the sessions played it (step by
step, sessions in order). The played digests in golden/train_digests.json
were recorded when the replay loop still stepped its sessions one at a time;
stepping them in lockstep reproduces them bit for bit. The tensor digests
were re-recorded once, when the scorer's contractions moved from np.einsum to
matmuls and the TD target's embedding to embed_history: that moved trained
tensors in the last bits (at most 4.9e-16 of a tensor's largest entry) and
left every played sequence unchanged. Print the current digests with
`PYTHONPATH=src python tests/test_train_golden.py`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from slatesim import agent
from slatesim.agent import CDQNConfig, RewardMode, make_env_factory, train_additive_q, train_cdqn
from slatesim.data import synth_catalog
from slatesim.env import EnvConfig, SlateEnv, make_ground_truth_user
from slatesim.nets import named_tensors

GOLDEN = Path(__file__).parent / "golden" / "train_digests.json"

# name -> (trainer, reward mode, pool size). A pool the size of the 14-item
# catalog holds every item not yet clicked, so replay holds ragged pools.
CASES = {
    "cdqn_learned": (train_cdqn, RewardMode.LEARNED_REWARD, 6),
    "cdqn_pm1": (train_cdqn, RewardMode.PLUS_MINUS_ONE, 14),
    "additive_learned": (train_additive_q, RewardMode.LEARNED_REWARD, 14),
    "additive_pm1": (train_additive_q, RewardMode.PLUS_MINUS_ONE, 6),
}


def train_case(name: str):
    """Train one case: 8 iterations of 6 sessions x 5 steps, into a replay of 100 (it wraps)."""
    trainer, mode, pool_size = CASES[name]
    catalog = synth_catalog(14, 4, seed=5)
    user = make_ground_truth_user(catalog, (3, 2, 6), seed=6, reward_scale=2.0)
    env = SlateEnv(catalog, EnvConfig(k=3, pool_size=pool_size, horizon=5, nonclick_reward=-0.1))
    config = CDQNConfig(gamma=0.8, epsilon=0.4, epsilon_final=0.05, iterations=8, horizon=5,
                        batch_users=6, minibatch=12, lr=0.01, seed=11, capacity=100,
                        reward_mode=mode, n=2, hidden=6)
    return trainer(make_env_factory(env, user, 4), config)


def tensor_digest(qnet) -> str:
    h = hashlib.sha256()
    for tensor_name, t in named_tensors(qnet).items():
        h.update(f"{tensor_name}{t.shape}{t.dtype}".encode())
        h.update(t.tobytes())
    return h.hexdigest()


def played_digest(played) -> str:
    """sha256 of the played (slate, chosen) pairs, in play order."""
    h = hashlib.sha256()
    for slate, chosen in played:
        h.update(f"{','.join(str(int(i)) for i in slate)}>{int(chosen)};".encode())
    return h.hexdigest()


def case_digests(name: str) -> dict[str, str]:
    """Train a case with the replay loop's env.step wrapped to record every row it plays."""
    played = []
    real_step = agent.step

    def recording_step(*args):
        shown, chosen, rewards = real_step(*args)
        played.extend(zip(shown, chosen))
        return shown, chosen, rewards

    agent.step = recording_step
    try:
        qnet = train_case(name)
    finally:
        agent.step = real_step
    return {"tensors": tensor_digest(qnet), "played": played_digest(played)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_training_matches_golden_digests(name):
    golden = json.loads(GOLDEN.read_text())
    assert case_digests(name) == golden[name]


if __name__ == "__main__":
    print(json.dumps({name: case_digests(name) for name in sorted(CASES)}, indent=1))
