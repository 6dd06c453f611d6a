"""Item catalogs, click trajectories and their log files, and dataset splits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

NON_CLICK_ID = 0


class DataFormatError(ValueError):
    """Malformed trajectory file; the message names the file."""


def fmt(x: float) -> str:
    """Every output file's number format: 9 significant digits, stable under a second save/load."""
    return format(float(x), ".9g")


def write_lines(path, lines: Sequence[str]) -> None:
    """Write `lines` as one UTF-8 text file, each line ended by a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; undecodable text raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


class ItemCatalog:
    """Items with fixed-dimension feature vectors.

    Item id 0 is reserved for the non-click pseudo-item and always carries an
    all-zero feature vector; it is injected automatically when absent. The
    features live in one read-only (K+1, d) `matrix` whose rows follow the
    ascending `ids`.
    """

    def __init__(self, items: Iterable[tuple[int, Sequence[float]]], d: int):
        feats: dict[int, np.ndarray] = {}
        for item_id, vec in items:
            item_id = int(item_id)
            if item_id in feats:
                raise ValueError(f"duplicate item id {item_id}")
            arr = np.asarray(vec, dtype=float)
            if arr.ndim != 1:
                raise ValueError("feature vectors must be one-dimensional")
            if arr.shape[0] != d:
                raise ValueError(
                    f"inconsistent feature dimension for item {item_id}: "
                    f"got {arr.shape[0]}, expected {d}"
                )
            feats[item_id] = arr
        if d < 1:
            raise ValueError("feature dimension must be >= 1")
        if NON_CLICK_ID in feats:
            if np.any(feats[NON_CLICK_ID] != 0.0):
                raise ValueError("item id 0 is reserved for the zero-feature non-click pseudo-item")
        else:
            feats[NON_CLICK_ID] = np.zeros(d)
        self.d = int(d)
        self.ids: tuple[int, ...] = tuple(sorted(feats))
        self.matrix = np.array([feats[i] for i in self.ids], dtype=float)
        self.matrix.setflags(write=False)
        self._row = {item_id: r for r, item_id in enumerate(self.ids)}
        self._item_ids = tuple(i for i in self.ids if i != NON_CLICK_ID)
        self.id_array = np.array(self.ids, dtype=int)
        self.id_array.setflags(write=False)
        # id_array plus an id below every id, in the slot searchsorted gives an id above them all
        self._id_guard = np.append(self.id_array, self.id_array[0] - 1)

    @property
    def item_ids(self) -> tuple[int, ...]:
        """Real item ids (non-click pseudo-item excluded), ascending."""
        return self._item_ids

    def features(self, item_id: int) -> np.ndarray:
        """Read-only feature row of one item."""
        try:
            return self.matrix[self._row[item_id]]
        except KeyError:
            raise KeyError(f"unknown item id {item_id}") from None

    def feature_matrix(self, ids: Sequence[int]) -> np.ndarray:
        """Features for `ids` as a fresh (len(ids), d) array; an id array of any shape S gives S + (d,)."""
        if isinstance(ids, np.ndarray):  # one searchsorted on the ascending ids
            rows = self.id_array.searchsorted(ids)
            unknown = self._id_guard[rows] != ids
            if np.count_nonzero(unknown):
                raise KeyError(f"unknown item id {ids[unknown][0]}")
            return self.matrix[rows]
        try:
            rows = [self._row[i] for i in ids]
        except KeyError as exc:
            raise KeyError(f"unknown item id {exc.args[0]}") from None
        return self.matrix.take(rows, axis=0)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._row

    def __len__(self) -> int:
        return len(self.ids)


class ClickRecord(NamedTuple):
    """One page view: the displayed slate and the user's choice (0 = no click).

    Unchecked: the loader checks the records of a log file, and env.step the slates a
    rollout records."""

    step: int
    displayed: tuple[int, ...]
    chosen: int
    reward: float | None = None

    @property
    def clicked(self) -> bool:
        return self.chosen != NON_CLICK_ID


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered click records for one user; steps run 1, 2, ... strictly increasing."""

    user_id: int
    records: tuple[ClickRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


class DatasetSplit(NamedTuple):
    """The user ids of each split; `split_users` cuts one permutation in three."""

    train: frozenset[int]
    valid: frozenset[int]
    test: frozenset[int]


def split_users(user_ids: Iterable[int], seed: int) -> DatasetSplit:
    """Partition users into train/valid/test with largest-remainder rounding."""
    users = sorted(set(int(u) for u in user_ids))
    if not users:
        raise ValueError("empty user set")
    n = len(users)
    exact = np.array([0.5, 0.125, 0.375]) * n  # the paper's train / valid / test shares
    sizes = np.floor(exact).astype(int)
    remainders = exact - sizes
    # hand out leftover slots by largest remainder, ties to the earlier split
    for _ in range(n - int(sizes.sum())):
        i = int(np.argmax(remainders))
        sizes[i] += 1
        remainders[i] = -1.0
    rng = np.random.default_rng(seed)
    order = [users[i] for i in rng.permutation(n)]
    a, b = sizes[0], sizes[0] + sizes[1]
    return DatasetSplit(frozenset(order[:a]), frozenset(order[a:b]), frozenset(order[b:]))


def synth_catalog(K: int, d: int, seed: int = 0) -> ItemCatalog:
    """Random catalog: K unit-norm feature vectors with ids 1..K plus the pseudo-item."""
    if K < 1 or d < 1:
        raise ValueError("K and d must be >= 1")
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((K, d))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    vecs = vecs / norms
    return ItemCatalog([(i + 1, vecs[i]) for i in range(K)], d=d)


def save_trajectories(
    catalog: ItemCatalog,
    trajectories: Sequence[Trajectory],
    path,
    m: int = 0,
) -> None:
    """Write the line-delimited trajectory format; byte-deterministic for equal input.

    `m` is recorded in the header for consumers that need the history window;
    the slate size k is derived from the records (0 when there are none).
    """
    k = max((len(r.displayed) for t in trajectories for r in t.records), default=0)
    lines = [f"meta d={catalog.d} m={int(m)} k={k}"]
    for item_id, feats in zip(catalog.ids, catalog.matrix):
        vals = " ".join(fmt(x) for x in feats)
        lines.append(f"item {item_id} {vals}")
    for traj in trajectories:
        for rec in traj.records:
            ids = " ".join(str(i) for i in rec.displayed)
            line = f"rec {traj.user_id} {rec.step} {rec.chosen} | {ids}"
            if rec.reward is not None:
                line += f" ; r={fmt(rec.reward)}"
            lines.append(line)
    write_lines(path, lines)


def _parse_meta(line: str, lineno: int) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 4 or parts[0] != "meta":
        raise DataFormatError(f"line {lineno}: expected 'meta d=<int> m=<int> k=<int>'")
    out = {}
    for tok in parts[1:]:
        key, _, val = tok.partition("=")
        if key not in ("d", "m", "k") or not val:
            raise DataFormatError(f"line {lineno}: bad meta token {tok!r}")
        try:
            out[key] = int(val)
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad meta value {tok!r}") from None
    if set(out) != {"d", "m", "k"}:
        raise DataFormatError(f"line {lineno}: meta must define d, m and k")
    return out["d"], out["m"], out["k"]


def read_meta(path) -> tuple[int, int, int]:
    """Return (d, m, k) from a trajectory file header."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_meta(fh.readline().rstrip("\n"), 1)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def load_trajectories(path) -> tuple[ItemCatalog, list[Trajectory]]:
    """Read a trajectory file; validates every record and injects the pseudo-item.

    Any malformed content (undecodable text included) raises DataFormatError
    naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_trajectories(fh.read().splitlines())
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _parse_trajectories(lines: list[str]) -> tuple[ItemCatalog, list[Trajectory]]:
    """One pass: a record's display ids are checked against the item lines above it."""
    if not lines:
        return ItemCatalog([], d=1), []
    d, _m, k = _parse_meta(lines[0], 1)
    widest = 0  # the most items a record displays; the header's k must equal it
    items: dict[int, np.ndarray] = {}
    known: set[int] = set()  # real item ids read so far; never the non-click id
    by_user: dict[int, list[ClickRecord]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("item "):
            parts = line.split()
            try:
                item_id = int(parts[1])
                vals = np.array([float(x) for x in parts[2:]])
            except (ValueError, IndexError):
                raise DataFormatError(f"line {lineno}: malformed item line") from None
            if vals.shape[0] != d:
                raise DataFormatError(
                    f"line {lineno}: inconsistent feature dimension "
                    f"(got {vals.shape[0]}, header says {d})"
                )
            if not np.isfinite(vals).all():
                raise DataFormatError(f"line {lineno}: non-finite feature of item {item_id}")
            if item_id in items:  # ItemCatalog refuses both too, but names no line
                raise DataFormatError(f"line {lineno}: duplicate item id {item_id}")
            if item_id == NON_CLICK_ID and vals.any():
                raise DataFormatError(f"line {lineno}: item id 0 is reserved for the zero-feature "
                                      "non-click pseudo-item")
            items[item_id] = vals
            if item_id != NON_CLICK_ID:
                known.add(item_id)
        elif line.startswith("rec "):
            head, _, tail = line[4:].partition("|")
            parts = head.split()
            if len(parts) != 3 or not tail:
                raise DataFormatError(f"line {lineno}: malformed record line")
            try:
                user_id, step, chosen = (int(x) for x in parts)
            except ValueError:
                raise DataFormatError(f"line {lineno}: malformed record line") from None
            ids_part, _, extra = tail.partition(";")
            reward = None
            if extra:
                key, _, val = extra.strip().partition("=")
                if key != "r" or not val:
                    raise DataFormatError(f"line {lineno}: bad record extension {extra.strip()!r}")
                try:
                    reward = float(val)
                    if not np.isfinite(reward):
                        raise ValueError
                except ValueError:
                    raise DataFormatError(f"line {lineno}: bad reward value {val!r}") from None
            try:
                displayed = tuple(int(x) for x in ids_part.split())
            except ValueError:
                raise DataFormatError(f"line {lineno}: malformed display ids") from None
            if step < 1:
                raise DataFormatError(f"line {lineno}: step must be >= 1, got {step}")
            if not displayed:
                raise DataFormatError(f"line {lineno}: displayed set is empty")
            if len(set(displayed)) != len(displayed):
                raise DataFormatError(f"line {lineno}: duplicate item in displayed set {displayed}")
            if chosen != NON_CLICK_ID and chosen not in displayed:
                raise DataFormatError(f"line {lineno}: chosen not displayed: {chosen} not in {displayed}")
            if not known.issuperset(displayed):
                unknown = next(i for i in displayed if i not in known)
                raise DataFormatError(
                    f"line {lineno}: record for user {user_id} step {step} displays unknown item {unknown}"
                )
            records = by_user.setdefault(user_id, [])
            if not records and step != 1:
                raise DataFormatError(f"line {lineno}: trajectory for user {user_id} must start at step 1")
            if records and step <= records[-1].step:
                raise DataFormatError(f"line {lineno}: steps not strictly increasing for user {user_id}")
            records.append(ClickRecord(step, displayed, chosen, reward))
            widest = max(widest, len(displayed))
        else:
            raise DataFormatError(f"line {lineno}: unknown directive {line.split()[0]!r}")
    if k != widest:
        raise DataFormatError(f"line 1: meta k={k}, but the widest display holds {widest} items")
    return ItemCatalog(items.items(), d=d), [Trajectory(uid, tuple(recs)) for uid, recs in by_user.items()]
