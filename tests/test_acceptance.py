"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line (run with -s to see them inline). Expected values come from the
brute-force oracles in oracles.py or from pinned calibration bands; nothing
here trusts the code paths it verifies.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest

import oracles
from rhymesim.history import Response, build_tree
from rhymesim.scheduler import cal_wks, plan_allocation
from rhymesim.sim import ClusterSpec, CostConfig, Policy, run
from rhymesim.spec_engine import WINDOW_INIT, next_window
from rhymesim.tracegen import Trace, TraceSpec, generate, rank_metrics, token_similarity_replay


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: {text}: PASS")


LONGTAIL = TraceSpec(
    num_prompts=48, epochs=20, group_size=4,
    len_mu=math.log(150), len_sigma=0.95, similarity=0.9,
    rank_noise=0.9, length_jitter=0.06, growth_mean=1.005, seed=3,
)
CLUSTER = ClusterSpec(rollout_workers=12, reward_workers=8, n_groups=4)
COST = CostConfig(per_iter_base=0.004, per_iter_batch=0.0008,
                  train_base=0.5, train_per_sample=0.005)


@pytest.fixture(scope="module")
def longtail_trace():
    return Trace(generate(LONGTAIL))


@pytest.fixture(scope="module")
def longtail_runs(longtail_trace):
    return {
        "colocated": run(longtail_trace, CLUSTER, Policy("colocated"), COST),
        "streaming": run(longtail_trace, CLUSTER, Policy("streaming"), COST),
        "histopipe_naive": run(longtail_trace, CLUSTER, Policy("histopipe_naive"), COST),
        "histopipe_two_tier": run(longtail_trace, CLUSTER, Policy("histopipe_two_tier"), COST),
        "histopipe_two_tier+spec": run(
            longtail_trace, CLUSTER, Policy("histopipe_two_tier", speculation=True), COST
        ),
    }


def test_criterion_1_suffix_tree_oracle_equivalence():
    # 1,000 randomized corpora (caps 64 responses x 512 tokens); match and
    # greedy draft extraction must equal the brute-force scan exactly.
    # Rewards are dyadic (k/64) so reward sums are float-exact and ties
    # break identically in both implementations.
    rng = random.Random(20240810)
    start = time.monotonic()
    queries = 0
    for trial in range(1000):
        if trial % 10 == 0:
            n_resp = rng.randint(1, 64)
            max_len = 512
        else:
            n_resp = rng.randint(1, 10)
            max_len = 72
        vocab = rng.choice([3, 5, 9, 40])
        corpus = []
        for _ in range(n_resp):
            length = rng.randint(1, max_len)
            corpus.append(([rng.randrange(vocab) for _ in range(length)],
                           rng.randint(-64, 64) / 64.0))
        tree = build_tree("p", 1, [Response("p", 1, t, r) for t, r in corpus])
        n_tokens = sum(len(t) for t, _ in corpus)
        assert tree.node_count <= 2 * n_tokens + 1
        for _ in range(8):
            src, _ = corpus[rng.randrange(len(corpus))]
            if rng.random() < 0.6 and len(src) > 1:
                i = rng.randrange(len(src) - 1)
                prefix = src[i : rng.randint(i + 1, min(len(src), i + 7))]
            else:
                prefix = [rng.randrange(vocab) for _ in range(rng.randint(1, 5))]
            window = rng.randint(1, 16)
            expected = oracles.greedy_draft(corpus, prefix, window)
            got = tree.extract_draft(prefix, window)
            assert got.found == oracles.prefix_occurs(corpus, prefix)
            assert got.tokens == expected, (trial, prefix)
            queries += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(1, f"suffix-tree oracle equivalence over 1000 corpora / {queries} queries "
              f"in {elapsed:.1f}s")


def test_criterion_2_aimd_exactness():
    # Every accept/reject sequence of length <= 12 must land exactly on
    # min(2 + 2*trailing_streak, 32), resetting to 2 on rejection.
    deviations = 0
    checked = 0
    for length in range(13):
        for history in itertools.product([False, True], repeat=length):
            size = WINDOW_INIT
            for accepted in history:
                size = next_window(size, accepted)
            if size != oracles.window_after(list(history)):
                deviations += 1
            checked += 1
    assert deviations == 0
    report(2, f"AIMD closed form exact over {checked} sequences")


def test_criterion_3_allocation_optimality():
    # 500 random monotone instances; the planner's gradient must sit within
    # the search precision of the exhaustive optimum over its search domain,
    # and returned plans must be feasible under cal_wks.
    rng = random.Random(77)
    start = time.monotonic()
    feasible = infeasible = 0
    for trial in range(500):
        n = rng.randint(2, 5)
        max_wks = rng.randint(2, 6)
        wks = rng.randint(n, 20)
        lens = sorted(round(rng.uniform(1.0, 60.0), 2) for _ in range(n))
        while len(set(lens)) < n:
            lens = sorted(round(rng.uniform(1.0, 60.0), 2) for _ in range(n))
        table = oracles.random_monotone_table(rng, lens, max_wks)

        def tau(i, k):
            return table[(lens[i], k)]

        precision = 0.05
        plan = plan_allocation(n, wks, 0.0, tau, max_wks, precision)
        t0 = max(tau(0, max_wks), 0.0)
        d_cap = max(0.0, (tau(n - 1, 1) - t0) / (n - 1))
        best = oracles.exhaustive_best_gradient(n, wks, t0, tau, max_wks, d_cap=d_cap)
        if best is None:
            assert not plan.feasible, trial
            infeasible += 1
        else:
            assert plan.feasible, trial
            assert plan.gradient_d <= best + precision, (trial, plan.gradient_d, best)
            needed, check = cal_wks(plan.gradient_d, n, plan.t0, tau, max_wks)
            assert needed <= wks and check == plan.per_group_workers, trial
            feasible += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report(3, f"allocation optimal on {feasible} feasible / {infeasible} infeasible "
              f"instances in {elapsed:.1f}s")


def test_criterion_4_replay_fidelity():
    # Calibrated math-like trace: the fixed-prefix replay accepts 85..97% of
    # tokens; a perfectly similar trace accepts everything after warm-up.
    spec = TraceSpec(
        num_prompts=24, epochs=3, group_size=16,
        len_mu=math.log(400), len_sigma=0.6, similarity=0.93,
        burst_mean=8, rank_noise=0.99, length_jitter=0.02, seed=7,
    )
    trace = Trace(generate(spec))
    accs = [token_similarity_replay(trace, pair, 3).acceptance for pair in ((1, 2), (2, 3))]
    for acc in accs:
        assert 0.85 <= acc <= 0.97, accs

    identical = TraceSpec(
        num_prompts=8, epochs=2, group_size=8, len_mu=math.log(300), len_sigma=0.5,
        similarity=1.0, growth_mean=1.0, length_jitter=0.0, rank_noise=1.0, seed=11,
    )
    perfect = token_similarity_replay(Trace(generate(identical)), (1, 2), 3)
    assert perfect.acceptance_after_warmup >= 0.99
    report(4, f"replay acceptance {accs[0]:.3f}/{accs[1]:.3f} in [0.85, 0.97]; "
              f"s=1.0 after-warmup {perfect.acceptance_after_warmup:.3f} >= 0.99")


def test_criterion_5_rank_stability_band():
    # Table-2-calibrated trace, 8 groups, averaged over 11 adjacent epoch
    # pairs: Accurate >= 70%, Migrated within [0.5, 6.0]%.
    spec = TraceSpec(
        num_prompts=96, epochs=12, group_size=16,
        len_mu=math.log(60), len_sigma=0.8, similarity=0.9,
        rank_noise=0.85, length_jitter=0.08, growth_mean=1.01, seed=11,
    )
    trace = Trace(generate(spec))
    metrics = [rank_metrics(trace, (e, e + 1), 8) for e in range(1, 12)]
    accurate = sum(m.accurate_pct for m in metrics) / len(metrics)
    migrated = sum(m.migrated_pct for m in metrics) / len(metrics)
    assert accurate >= 70.0
    assert 0.5 <= migrated <= 6.0
    report(5, f"rank stability over {len(metrics)} epoch pairs: accurate {accurate:.1f}% "
              f">= 70, migrated {migrated:.2f}% in [0.5, 6.0]")


def test_criterion_6_bubble_reproduction(longtail_runs):
    # Colocated on the tuned long-tail trace: the earliest-finishing worker
    # idles more than half of each rollout phase; two-tier at least halves
    # the aggregate bubble fraction on the same trace.
    colo = longtail_runs["colocated"]
    spans: dict[int, list] = {}
    for wid, s, e, kind in colo.timeline:
        if kind == "rollout":
            spans.setdefault(wid, []).append((s, e))
    per_step: dict[int, dict[int, tuple]] = {}
    for wid, ivs in spans.items():
        for i, iv in enumerate(sorted(ivs)):
            per_step.setdefault(i, {})[wid] = iv
    fracs = []
    for i in sorted(per_step):
        workers = per_step[i]
        start = min(s for s, _ in workers.values())
        ends = [e for _, e in workers.values()]
        fracs.append((max(ends) - min(ends)) / (max(ends) - start))
    mean_idle = sum(fracs) / len(fracs)
    assert mean_idle > 0.5, fracs

    two_tier = longtail_runs["histopipe_two_tier"]
    ratio = colo.metrics.bubble_fraction / two_tier.metrics.bubble_fraction
    assert ratio >= 2.0, (colo.metrics.bubble_fraction, two_tier.metrics.bubble_fraction)
    report(6, f"earliest-finisher idle {mean_idle:.2f} > 0.5; bubble "
              f"{colo.metrics.bubble_fraction:.3f} -> {two_tier.metrics.bubble_fraction:.3f} "
              f"({ratio:.2f}x >= 2x)")


def test_criterion_7_speedup_ordering(longtail_runs):
    sps = {name: r.metrics.samples_per_second for name, r in longtail_runs.items()}
    assert sps["colocated"] < sps["streaming"] < sps["histopipe_naive"] \
        < sps["histopipe_two_tier+spec"]
    assert sps["histopipe_two_tier"] / sps["histopipe_naive"] >= 1.05

    # Speculation increment measured at ~0.7 draft acceptance.
    spec = TraceSpec(
        num_prompts=48, epochs=6, group_size=4,
        len_mu=math.log(150), len_sigma=0.95, similarity=0.75,
        rank_noise=0.9, length_jitter=0.06, growth_mean=1.0, burst_mean=4, seed=9,
    )
    trace = Trace(generate(spec))
    off = run(trace, CLUSTER, Policy("histopipe_two_tier", speculation=False), COST)
    on = run(trace, CLUSTER, Policy("histopipe_two_tier", speculation=True), COST)
    gain = on.metrics.samples_per_second / off.metrics.samples_per_second
    assert 0.6 <= on.metrics.acceptance_rate <= 0.8, on.metrics.acceptance_rate
    assert gain >= 1.25, gain
    report(7, "ordering colocated < streaming < naive < two_tier(+spec) holds; "
              f"two_tier/naive {sps['histopipe_two_tier'] / sps['histopipe_naive']:.3f} >= 1.05; "
              f"speculation x{gain:.2f} >= 1.25 at acceptance "
              f"{on.metrics.acceptance_rate:.2f}")


def test_criterion_8_determinism_and_conservation():
    spec = TraceSpec(
        num_prompts=12, epochs=100, group_size=2,
        len_mu=math.log(60), len_sigma=0.8, similarity=0.9,
        rank_noise=0.9, length_jitter=0.06, growth_mean=1.0, seed=5,
    )
    trace = Trace(generate(spec))
    cluster = ClusterSpec(rollout_workers=8, reward_workers=4, n_groups=4)
    policy = Policy("histopipe_two_tier", speculation=True)
    a = run(trace, cluster, policy, COST)
    b = run(trace, cluster, policy, COST)
    assert a.events_jsonl() == b.events_jsonl()

    scheduled = a.accounting["scheduled"]
    completed = a.accounting["completed"]
    assert set(scheduled) == set(completed)
    assert len(completed) == 12 * 2 * 100
    for sid, done in completed.items():
        assert done in (scheduled[sid], scheduled[sid] + 1), sid
    assert a.accounting["migrations"] > 0
    report(8, f"byte-identical logs over 100 steps; {len(completed)} samples conserved "
              f"with {a.accounting['migrations']} migrations "
              f"({a.accounting['inter_migrations']} inter-step)")
