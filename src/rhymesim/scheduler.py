"""Length-aware rollout scheduling: ranking groups, complementary assignment
order, two-tier worker allocation, and outlier-migration decisions.

Grouping sorts prompts by their historical median response length and splits
them into equal ranking groups. Consecutive steps assign groups to worker
slots in ascending then descending length order, so each slot's two-step
workload is roughly constant. On top of that, the two-tier planner chooses an
unequal per-group worker count: it binary-searches the smallest finish-time
gradient `d` such that group i can finish by `t0 + i*d` within the worker
budget, reshaping long-tailed group times toward a linear profile.

The planner asks one question of its caller: `tau(group, workers)`, the
estimated time of a group on that many workers, where group 0 is the
shortest and group n-1 the longest. The simulator answers it from each
group's own history; `AnalyticCostModel` and `ProfileCostModel` answer it
per length, and the `plan-alloc` command binds them to its groups' lengths.
"""

from __future__ import annotations

import csv
import math
import statistics
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .history import Response

# Migration thresholds: a straggler is among the last ALPHA_PCT% of its
# group's rollouts and longer than beta times the group's longest history
# length, where beta is never below BETA_FLOOR.
ALPHA_PCT = 10.0
BETA_FLOOR = 1.1


def partition_sizes(total: int, groups: int) -> list[int]:
    """Equal split of `total` items; the remainder goes to the last groups."""
    base, rem = divmod(total, groups)
    return [base + (1 if i >= groups - rem else 0) for i in range(groups)]


@dataclass(frozen=True)
class PromptStat:
    """Per-prompt history summary: median and max of last-epoch lengths."""

    median_len: float
    max_len: float


def prompt_stats(responses_by_prompt: Mapping[str, Sequence[Response]]) -> dict[str, PromptStat]:
    """Median and max generated length of each prompt's responses."""
    stats = {}
    for pid, group in responses_by_prompt.items():
        lens = [r.generated_len for r in group]
        stats[pid] = PromptStat(float(statistics.median(lens)), float(max(lens)))
    return stats


@dataclass
class RankingGroup:
    index: int
    prompt_ids: list[str]
    max_hist_len: float


def build_groups(
    histories: Mapping[str, PromptStat | float], n_groups: int
) -> list[RankingGroup]:
    """Sort prompts by historical median length and split them equally.

    Ties order by prompt id; a remainder goes to the longest groups.
    """
    if n_groups < 2:
        raise ValueError("need at least 2 ranking groups")
    if len(histories) < n_groups:
        raise ValueError(f"fewer prompts ({len(histories)}) than groups ({n_groups})")
    stats = {
        pid: s if isinstance(s, PromptStat) else PromptStat(float(s), float(s))
        for pid, s in histories.items()
    }
    ranked = sorted(stats, key=lambda pid: (stats[pid].median_len, pid))
    sizes = partition_sizes(len(ranked), n_groups)
    groups: list[RankingGroup] = []
    idx = 0
    for g, size in enumerate(sizes):
        members = ranked[idx : idx + size]
        idx += size
        groups.append(RankingGroup(g, members, max(stats[p].max_len for p in members)))
    return groups


def assignment_order(step_index: int, n_groups: int) -> list[int]:
    """Group index per worker slot: ascending on odd steps, descending on even.

    Slot k therefore serves ranks summing to n_groups-1 across any two
    consecutive steps.
    """
    if step_index < 1:
        raise ValueError("step_index starts at 1")
    order = list(range(n_groups))
    return order if step_index % 2 == 1 else order[::-1]


@dataclass
class AnalyticCostModel:
    """tau(l, dp) = l * (a + b * ceil(B / dp)) / (1 + accepted_per_pass) + c

    `B` is the group's in-flight rollout count: more workers mean a smaller
    per-worker batch and faster iterations. The speculation term divides the
    per-token cost by the average tokens landed per engine pass.
    """

    per_iter_base: float = 0.02
    per_iter_batch: float = 0.0003
    fixed: float = 0.0
    batch_size: int = 1
    accepted_per_pass: float = 0.0

    def tau(self, length: float, workers: int) -> float:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        per_iter = self.per_iter_base + self.per_iter_batch * math.ceil(self.batch_size / workers)
        return length * per_iter / (1.0 + self.accepted_per_pass) + self.fixed


@dataclass
class ProfileCostModel:
    """tau lookup over a pre-profiled (length, workers) grid.

    The grid must be complete (every length x workers combination), every
    length finite and every time finite and >= 0; queries interpolate
    bilinearly and clamp outside the grid.
    """

    lengths: list[float]
    workers: list[int]
    seconds: list[list[float]]  # [len_idx][worker_idx]
    accepted_per_pass: float = 0.0

    @classmethod
    def from_csv(cls, path) -> "ProfileCostModel":
        cells: dict[tuple[float, int], float] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            required = {"len", "dp", "seconds"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(f"profile CSV needs columns {sorted(required)}")
            for row in reader:
                length, seconds = float(row["len"]), float(row["seconds"])
                where = f"profile CSV line {reader.line_num}"
                if not math.isfinite(length):
                    raise ValueError(f"{where}: len must be finite, got {row['len']!r}")
                if not (math.isfinite(seconds) and seconds >= 0):
                    raise ValueError(f"{where}: seconds must be finite and >= 0, "
                                     f"got {row['seconds']!r}")
                cells[(length, int(row["dp"]))] = seconds
        lengths = sorted({l for l, _ in cells})
        workers = sorted({d for _, d in cells})
        try:
            seconds = [[cells[(l, d)] for d in workers] for l in lengths]
        except KeyError as exc:
            raise ValueError(f"profile grid is incomplete: missing {exc}") from exc
        return cls(lengths=lengths, workers=workers, seconds=seconds)

    def _axis_weights(self, values: Sequence[float], x: float) -> tuple[int, int, float]:
        if x <= values[0]:
            return 0, 0, 0.0
        if x >= values[-1]:
            return len(values) - 1, len(values) - 1, 0.0
        hi = bisect_left(values, x)
        lo = hi - 1
        if values[hi] == x:
            return hi, hi, 0.0
        frac = (x - values[lo]) / (values[hi] - values[lo])
        return lo, hi, frac

    def tau(self, length: float, workers: int) -> float:
        i0, i1, fl = self._axis_weights(self.lengths, float(length))
        j0, j1, fw = self._axis_weights([float(w) for w in self.workers], float(workers))
        v00, v01 = self.seconds[i0][j0], self.seconds[i0][j1]
        v10, v11 = self.seconds[i1][j0], self.seconds[i1][j1]
        low = v00 + (v01 - v00) * fw
        high = v10 + (v11 - v10) * fw
        return (low + (high - low) * fl) / (1.0 + self.accepted_per_pass)


def cal_wks(
    d: float,
    n_groups: int,
    t0: float,
    tau: Callable[[int, int], float],
    min_wks: int,
    max_wks: int,
) -> tuple[float, list[int]]:
    """Minimum workers per group so group i finishes by t0 + i*d, where
    `tau(i, k)` is group i's time on k workers.

    Returns (inf, []) when some group cannot meet its target even at
    max_wks; the planner compares the returned total against its budget.
    """
    needed = 0
    plan: list[int] = []
    for i in range(n_groups):
        target = t0 + i * d
        group_wks = -1
        for k in range(min_wks, max_wks + 1):
            if tau(i, k) <= target:
                group_wks = k
                break
        if group_wks == -1:
            return math.inf, []
        needed += group_wks
        plan.append(group_wks)
    return needed, plan


@dataclass
class AllocationPlan:
    per_group_workers: list[int]
    gradient_d: float
    t0: float
    feasible: bool

    def as_dict(self) -> dict:
        return {
            "t0": self.t0,
            "d": self.gradient_d,
            "per_group_workers": list(self.per_group_workers),
            "feasible": self.feasible,
        }


def plan_allocation(
    n_groups: int,
    wks: int,
    t_train: float,
    tau: Callable[[int, int], float],
    min_wks: int = 1,
    max_wks: int | None = None,
    precision: float = 1.0,
) -> AllocationPlan:
    """Binary-search the smallest finish-time gradient within the budget.

    `tau(i, k)` is group i's estimated time on k workers, for groups
    0..n_groups-1 ordered shortest first; it should not grow with k. t0 is
    the shortest group's best possible time, floored at the training
    stage's duration so the next step never waits on fresh weights. The
    search keeps the last feasible plan; infeasibility even at the widest
    gradient is reported rather than raised.

    Each group gets `min_wks` to `max_wks` workers. `max_wks=None` is the
    default: what the budget leaves when every other group has one worker,
    and never less than `min_wks`. The search stops once the gradient is
    known to within `precision` (which must be > 0) or to within one float.
    """
    if n_groups < 2:
        raise ValueError("plan_allocation needs at least 2 groups")
    if not precision > 0:
        raise ValueError(f"precision must be > 0, got {precision}")
    if max_wks is None:
        max_wks = max(min_wks, wks - (n_groups - 1))
    if min_wks < 1 or max_wks < min_wks:
        raise ValueError(f"need 1 <= min_wks <= max_wks, got min_wks={min_wks}, max_wks={max_wks}")
    if wks < n_groups * min_wks:
        return AllocationPlan([], 0.0, t_train, feasible=False)

    t0 = max(tau(0, max_wks), t_train)
    d_max = max(0.0, (tau(n_groups - 1, min_wks) - t0) / (n_groups - 1))
    d_min = 0.0

    needed, plan = cal_wks(d_max, n_groups, t0, tau, min_wks, max_wks)
    if needed > wks:
        return AllocationPlan([], d_max, t0, feasible=False)
    best_plan, best_d = plan, d_max
    while d_max - d_min > precision:
        mid = (d_max + d_min) / 2.0
        if mid == d_min or mid == d_max:
            break  # no float lies between the endpoints
        needed, plan = cal_wks(mid, n_groups, t0, tau, min_wks, max_wks)
        if needed > wks:
            d_min = mid
        else:
            best_plan, best_d = plan, mid
            d_max = mid
    return AllocationPlan(best_plan, best_d, t0, feasible=True)


def beta_from_history(prev_epoch_growth_rates: Sequence[float]) -> float:
    """Length-growth threshold: 75th percentile (nearest rank), floored at
    BETA_FLOOR."""
    if not prev_epoch_growth_rates:
        return BETA_FLOOR
    ordered = sorted(prev_epoch_growth_rates)
    rank = math.ceil(0.75 * len(ordered))
    return max(ordered[max(rank, 1) - 1], BETA_FLOOR)


@dataclass
class MigrationPolicy:
    alpha_pct: float = ALPHA_PCT
    beta: float = BETA_FLOOR

    def __post_init__(self):
        if not (0.0 < self.alpha_pct < 100.0):
            raise ValueError("alpha_pct must be in (0, 100)")
        self.beta = max(self.beta, BETA_FLOOR)


@dataclass(frozen=True)
class MigrationDecision:
    kind: str  # "none" | "intra_step" | "inter_step"
    target_group: int | None = None

    @property
    def migrates(self) -> bool:
        return self.kind != "none"


NO_MIGRATION = MigrationDecision("none")


def straggler_tail_size(total: int, alpha_pct: float = ALPHA_PCT) -> int:
    """How many of a group's `total` rollouts make up its last alpha%: the
    floor of alpha% of them, and at least one."""
    return max(1, math.floor(alpha_pct / 100.0 * total))


def in_straggler_tail(completed: int, total: int, policy: MigrationPolicy) -> bool:
    """True while the group's remaining rollouts are its last alpha%: the
    per-group half of the migration test, which no rollout's length
    affects."""
    return total - completed <= straggler_tail_size(total, policy.alpha_pct)


def migration_decision(
    group: RankingGroup,
    generated_len: int,
    completed: int,
    total: int,
    policy: MigrationPolicy,
    n_groups: int,
    active_group_loads: Mapping[int, float],
) -> MigrationDecision:
    """Migrate a straggler only when both thresholds trip.

    The rollout must be among the group's last remaining alpha% AND have
    outgrown beta times the group's max historical length. Short and medium
    groups (index < n_groups/2) hand the rollout to the least-loaded group
    still rolling out this step; long groups defer it to the next step.
    """
    if not in_straggler_tail(completed, total, policy):
        return NO_MIGRATION
    if generated_len <= policy.beta * group.max_hist_len:
        return NO_MIGRATION
    if group.index < n_groups / 2:
        candidates = [(load, idx) for idx, load in active_group_loads.items() if idx != group.index]
        if candidates:
            _, target = min(candidates)
            return MigrationDecision("intra_step", target)
    return MigrationDecision("inter_step")
