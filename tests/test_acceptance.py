"""End-to-end acceptance gate.

Each test covers one headline capability, checks it against an independent
oracle or closed form at a fixed tolerance, and prints a single PASS/FAIL
line with the measured numbers. Budgeted runtimes are asserted where they
matter; the minimax-Q criterion dominates the wall time of this module.
"""

import hashlib
import itertools
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gtmarl.cli import main as cli_main
from gtmarl.dynamics import (
    DynamicsParams,
    integrate_replicator,
    replicator_derivative,
    selection_mutation_derivative,
)
from gtmarl.equilibrium import (
    CE_OBJECTIVES,
    UTILITARIAN,
    ce_check,
    correlated_eq_solve,
    stage_minimax,
)
from gtmarl.errors import InconsistentObservationError
from gtmarl.games import (
    belief_state,
    belief_update,
    build_matrix_game,
    classic_game,
    make_posg,
    make_stochastic_game,
    random_game,
)
from gtmarl.learners import (
    LearningSchedule,
    correlated_q_train,
    minimax_q_train,
    regret_matching_play,
    shapley_value_iteration,
)
from gtmarl.linprog import linear_program, solve_lp
from gtmarl.merl import (
    CRITIC_DIM,
    FEATURE_DIM,
    LinearActor,
    MerlConfig,
    QuadraticCritic,
    critic_td_update,
    dpg_actor_update,
    merl_train,
    soft_update,
)
from gtmarl.shaping import (
    NAIVE,
    LolaConfig,
    exact_values,
    iterated_game,
    lola_step,
    mean_cooperation,
    memory1_policy,
    naive_step,
    train_shapers,
    value_gradients,
)


def report(capfd, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"acceptance {num:02d} {name:<30} {'PASS' if ok else 'FAIL'}  {detail}"
    with capfd.disabled():
        sys.stdout.write("\n" + line + "\n")
        sys.stdout.flush()
    assert ok, line


# --- independent oracles -------------------------------------------------------

def vertex_oracle_box_lp(objective, a_rows, rhs):
    """Max of the objective over {0 <= x <= 1, Ax <= b}: batched enumeration
    of all n-subsets of facet boundaries."""
    n = objective.size
    eye = np.eye(n)
    facets = np.vstack([a_rows, eye, eye])
    levels = np.concatenate([rhs, np.zeros(n), np.ones(n)])
    combos = np.array(list(itertools.combinations(range(facets.shape[0]), n)))
    a_stack = facets[combos]
    b_stack = levels[combos]
    keep = np.abs(np.linalg.det(a_stack)) > 1e-10
    x = np.linalg.solve(a_stack[keep], b_stack[keep][..., None])[..., 0]
    inside = (
        np.all(x >= -1e-8, axis=1)
        & np.all(x <= 1.0 + 1e-8, axis=1)
        & np.all(x @ a_rows.T <= rhs + 1e-8, axis=1)
    )
    return float((x[inside] @ objective).max())


def nash_2x2_oracle(u1, u2):
    """Closed-form Nash equilibria of a 2x2 bimatrix game."""
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    found = []
    for a in range(2):
        for b in range(2):
            if u1[a, b] >= u1[1 - a, b] - 1e-12 and u2[a, b] >= u2[a, 1 - b] - 1e-12:
                found.append((np.eye(2)[a], np.eye(2)[b]))
    dy = (u1[0, 0] - u1[1, 0]) + (u1[1, 1] - u1[0, 1])
    dx = (u2[0, 0] - u2[0, 1]) + (u2[1, 1] - u2[1, 0])
    if abs(dx) > 1e-12 and abs(dy) > 1e-12:
        q = (u1[1, 1] - u1[0, 1]) / dy
        p = (u2[1, 1] - u2[1, 0]) / dx
        if 1e-12 < p < 1 - 1e-12 and 1e-12 < q < 1 - 1e-12:
            found.append((np.array([p, 1 - p]), np.array([q, 1 - q])))
    return found


def ce_vertex_welfare_2x2(u1, u2):
    """Utilitarian optimum over the CE polytope of a 2x2 game, by active-set
    vertex enumeration."""
    incentives = []
    for a in range(2):
        row = np.zeros(4)
        for b in range(2):
            row[2 * a + b] = u1[a, b] - u1[1 - a, b]
        incentives.append(row)
    for b in range(2):
        row = np.zeros(4)
        for a in range(2):
            row[2 * a + b] = u2[a, b] - u2[a, 1 - b]
        incentives.append(row)
    incentives = np.asarray(incentives)
    facets = [np.eye(4)[j] for j in range(4)] + list(incentives)
    welfare = (u1 + u2).reshape(-1)
    best = -np.inf
    target = np.array([1.0, 0.0, 0.0, 0.0])
    for combo in itertools.combinations(range(8), 3):
        a_sq = np.vstack([np.ones(4)] + [facets[c] for c in combo])
        if abs(np.linalg.det(a_sq)) < 1e-10:
            continue
        lam = np.linalg.solve(a_sq, target)
        if lam.min() < -1e-9 or np.any(incentives @ lam < -1e-9):
            continue
        best = max(best, float(welfare @ lam))
    return best


def mdp_value_iteration(game, iterations=400):
    v = np.zeros(game.num_states)
    for _ in range(iterations):
        v = (game.rewards[0] + game.discount * game.transition @ v).max(axis=1)
    return v


def mc_policy_values(game, theta1, theta2, rollouts, horizon, seed):
    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    r1 = game.stage.payoff_flat(0)
    r2 = game.stage.payoff_flat(1)
    s1, s2 = sig(theta1), sig(theta2)
    rng = np.random.default_rng(seed)
    ret1 = np.zeros(rollouts)
    ret2 = np.zeros(rollouts)
    coop1 = rng.random(rollouts) < s1[0]
    coop2 = rng.random(rollouts) < s2[0]
    outcome = 2 * (1 - coop1.astype(int)) + (1 - coop2.astype(int))
    disc = 1.0
    for t in range(horizon):
        ret1 += disc * r1[outcome]
        ret2 += disc * r2[outcome]
        disc *= game.gamma
        if t + 1 == horizon:
            break
        coop1 = rng.random(rollouts) < s1[outcome + 1]
        coop2 = rng.random(rollouts) < s2[outcome + 1]
        outcome = 2 * (1 - coop1.astype(int)) + (1 - coop2.astype(int))
    return ret1, ret2


# --- criteria ------------------------------------------------------------------

def test_criterion_01_linear_programs(capfd):
    started = time.perf_counter()
    rng = np.random.default_rng(20240811)
    max_rows_by_n = {2: 12, 3: 12, 4: 12, 5: 12, 6: 12, 7: 8, 8: 4}
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        rows = int(rng.integers(1, max_rows_by_n[n] + 1))
        point = rng.uniform(0.2, 0.8, n)
        a = rng.normal(size=(rows, n))
        b = a @ point + rng.uniform(0.1, 1.0, rows)
        c = rng.normal(size=n)
        sol = solve_lp(linear_program(c, a, ["<="] * rows, b,
                                      lower=np.zeros(n), upper=np.ones(n)))
        assert sol.status == "optimal"
        expected = vertex_oracle_box_lp(c, a, b)
        worst = max(worst, abs(sol.objective_value - expected))

    misclassified = 0
    for k in range(10):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=n)
        u = float(a @ rng.uniform(0.0, 1.0, n))
        lp = linear_program(
            rng.normal(size=n),
            [a, -a],
            ["<=", "<="],
            [u - 1.0, -(u + 1.0)],
            lower=np.zeros(n),
            upper=np.ones(n),
        )
        if solve_lp(lp).status != "infeasible":
            misclassified += 1
    for k in range(10):
        n = int(rng.integers(2, 6))
        c = np.abs(rng.normal(size=n)) + 0.1
        lp = linear_program(
            c, [-np.ones(n)], ["<="], [float(rng.uniform(0.5, 2.0))],
            lower=np.zeros(n), upper=np.full(n, np.inf),
        )
        if solve_lp(lp).status != "unbounded":
            misclassified += 1

    elapsed = time.perf_counter() - started
    ok = worst <= 1e-7 and misclassified == 0 and elapsed < 5.0
    report(capfd, 1, "lp vs vertex oracle", ok,
           f"max|dv|={worst:.2e} misclassified={misclassified}/20 time={elapsed:.2f}s")


def test_criterion_02_matrix_minimax(capfd):
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_gap = 0.0
    for k in range(100):
        size = 2 if k % 2 == 0 else 3
        a = rng.uniform(-1, 1, size=(size, size))
        value, x, y = stage_minimax(a)
        gap = float(np.max(a @ y) - np.min(x @ a))
        worst_gap = max(worst_gap, gap)

    value, x, y = stage_minimax([[3.0, 0.0], [1.0, 2.0]])
    # closed-form support-enumeration solution of the fixed game
    a = np.array([[3.0, 0.0], [1.0, 2.0]])
    oracle = nash_2x2_oracle(a, -a)
    assert len(oracle) == 1
    ox, oy = oracle[0]
    fixed_err = max(
        abs(value - float(ox @ a @ oy)),
        float(np.max(np.abs(x - ox))),
        float(np.max(np.abs(y - oy))),
    )
    elapsed = time.perf_counter() - started
    ok = worst_gap <= 1e-8 and fixed_err <= 1e-9 and elapsed < 2.0
    report(capfd, 2, "zero-sum minimax", ok,
           f"max gap={worst_gap:.2e} fixed-game err={fixed_err:.2e} time={elapsed:.2f}s")


def test_criterion_03_correlated_equilibria(capfd):
    pd = classic_game("prisoners_dilemma")
    chicken = classic_game("chicken")
    max_violation = 0.0
    for game in (pd, chicken, classic_game("matching_pennies")):
        for objective in CE_OBJECTIVES:
            policy = correlated_eq_solve(game, objective)
            rep = ce_check(game, policy, 1e-9)
            assert rep.passed
            max_violation = max(max_violation, rep.max_violation)

    pd_policy = correlated_eq_solve(pd, UTILITARIAN)
    pd_welfare = float(pd_policy.probs @ (pd.payoff_flat(0) + pd.payoff_flat(1)))
    pd_exact = np.array_equal(pd_policy.probs, [0.0, 0.0, 0.0, 1.0]) and pd_welfare == 2.0

    ch_policy = correlated_eq_solve(chicken, UTILITARIAN)
    ch_welfare = float(ch_policy.probs @ (chicken.payoff_flat(0) + chicken.payoff_flat(1)))
    ch_oracle = ce_vertex_welfare_2x2(chicken.payoffs[0], chicken.payoffs[1])
    ch_err = max(abs(ch_welfare - 10.5), abs(ch_welfare - ch_oracle))
    lam_err = float(np.max(np.abs(ch_policy.probs - [0.5, 0.25, 0.25, 0.0])))

    rng = np.random.default_rng(404)
    ne_failures = 0
    for _ in range(50):
        g = random_game(int(rng.integers(1 << 30)), (2, 2))
        for x, y in nash_2x2_oracle(g.payoffs[0], g.payoffs[1]):
            if not ce_check(g, np.outer(x, y).reshape(-1), 1e-8).passed:
                ne_failures += 1

    ok = pd_exact and ch_err <= 1e-6 and lam_err <= 1e-6 and ne_failures == 0
    report(capfd, 3, "correlated equilibria", ok,
           f"pd exact={pd_exact} chicken err={ch_err:.2e} ne-in-ce failures={ne_failures}/50")


def test_criterion_04_replicator(capfd):
    started = time.perf_counter()
    rps = classic_game("rps").payoffs[0]
    pd = classic_game("prisoners_dilemma").payoffs[0]

    traj = integrate_replicator(rps, [0.5, 0.3, 0.2], DynamicsParams(dt=0.01, steps=10000))
    drift = float(np.max(np.abs(traj.sum(axis=1) - 1.0)))

    uniform_norm = float(np.max(np.abs(replicator_derivative(rps, np.full(3, 1 / 3)))))

    pd_traj = integrate_replicator(pd, [0.5, 0.5], DynamicsParams(dt=0.01, steps=20000))
    pd_defect = float(pd_traj[-1, 1])

    # rock-paper-scissors with two handicapped clones injected
    dominated = np.array(
        [
            [0.0, -1.0, 1.0, 0.0, -1.0],
            [1.0, 0.0, -1.0, 1.0, 0.0],
            [-1.0, 1.0, 0.0, -1.0, 1.0],
            [-0.5, -1.5, 0.5, -0.5, -1.5],
            [0.3, -0.7, -1.7, 0.3, -0.7],
        ]
    )
    dom_traj = integrate_replicator(
        dominated, np.full(5, 0.2), DynamicsParams(dt=0.05, steps=10000)
    )
    dom_mass = float(dom_traj[-1, 3] + dom_traj[-1, 4])

    rng = np.random.default_rng(31)
    sym = rng.normal(size=(4, 4))
    sym = sym + sym.T
    sym_traj = integrate_replicator(
        sym, rng.dirichlet(np.ones(4)), DynamicsParams(dt=0.01, steps=5000)
    )
    fitness = np.einsum("ti,ij,tj->t", sym_traj, sym, sym_traj)
    worst_drop = float(np.min(np.diff(fitness)))

    elapsed = time.perf_counter() - started
    ok = (
        drift < 1e-9
        and uniform_norm < 1e-12
        and pd_defect > 0.999
        and dom_mass < 1e-3
        and worst_drop > -1e-8
        and elapsed < 10.0
    )
    report(capfd, 4, "replicator dynamics", ok,
           f"drift={drift:.1e} fp-norm={uniform_norm:.1e} defect={pd_defect:.4f} "
           f"dominated={dom_mass:.1e} drop={worst_drop:.1e} time={elapsed:.2f}s")


def test_criterion_05_selection_mutation(capfd):
    rng = np.random.default_rng(550)
    worst_uniform = 0.0
    params_mut = DynamicsParams(alpha=1.0, tau=0.0)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        a = rng.normal(size=(n, m))
        w = rng.dirichlet(np.ones(m))
        d = selection_mutation_derivative(a, np.full(n, 1.0 / n), w, params_mut)
        worst_uniform = max(worst_uniform, float(np.max(np.abs(d))))

    worst_sum = 0.0
    params = DynamicsParams(alpha=0.9, tau=1.4)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        a = rng.normal(size=(n, m))
        x = rng.dirichlet(np.ones(n))
        w = rng.dirichlet(np.ones(m))
        d = selection_mutation_derivative(a, x, w, params)
        worst_sum = max(worst_sum, abs(float(d.sum())))

    ok = worst_uniform < 1e-12 and worst_sum < 1e-10
    report(capfd, 5, "selection-mutation flow", ok,
           f"uniform-mutation={worst_uniform:.1e} sum-drift={worst_sum:.1e}")


def test_criterion_06_minimax_q(capfd):
    game_seeds = (1, 2, 4, 5, 10)
    worst_err = 0.0
    worst_time = 0.0
    for seed in game_seeds:
        game = random_game(seed, (2, 2), zero_sum=True, num_states=3, discount=0.9)
        oracle = shapley_value_iteration(game).values
        schedule = LearningSchedule(
            alpha0=1.0,
            alpha_decay="one_over_visits",
            epsilon0=0.2,
            epsilon_decay="constant",
            max_steps=200000,
            seed=seed,
        )
        started = time.perf_counter()
        res = minimax_q_train(game, schedule, oracle_values=oracle)
        elapsed = time.perf_counter() - started
        worst_time = max(worst_time, elapsed)
        worst_err = max(worst_err, float(np.max(np.abs(res.values - oracle))))
    ok = worst_err <= 0.05 and worst_time < 60.0
    report(capfd, 6, "minimax-q vs shapley", ok,
           f"max sup-err={worst_err:.4f} over {len(game_seeds)} games "
           f"max time={worst_time:.1f}s")


def test_criterion_07_correlated_q(capfd):
    # degenerate single-agent control problem
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = 1.0
    transition[0, 1, 1] = 1.0
    transition[1, 0, 0] = 1.0
    transition[1, 1, 1] = 1.0
    rewards = np.array([[1.0, 0.0], [0.0, 2.0]])
    mdp = make_stochastic_game((2,), transition, [rewards], 0.9)
    schedule = LearningSchedule(
        alpha0=1.0, alpha_decay="constant", epsilon0=1.0,
        epsilon_decay="constant", max_steps=5000, seed=1,
    )
    res = correlated_q_train(mdp, schedule=schedule)
    vi_err = float(np.max(np.abs(res.q.tables[0].max(axis=1) - mdp_value_iteration(mdp))))

    # repeated prisoner's dilemma collapses to mutual defection
    pd = classic_game("prisoners_dilemma")
    rpd = make_stochastic_game(
        (2, 2), np.ones((1, 4, 1)),
        [pd.payoff_flat(0)[None, :], pd.payoff_flat(1)[None, :]], 0.9,
    )
    res_pd = correlated_q_train(rpd, schedule=schedule)
    dd_err = float(np.max(np.abs(res_pd.stage_policies[0] - [0.0, 0.0, 0.0, 1.0])))
    q_err = max(
        abs(res_pd.q.tables[0][0, 3] - 10.0), abs(res_pd.q.tables[1][0, 3] - 10.0)
    )

    # stage policies certify as correlated equilibria of the final Q games
    general = random_game(12, (2, 2), num_states=2, discount=0.9)
    res_g = correlated_q_train(
        general,
        schedule=LearningSchedule(
            alpha0=1.0, epsilon0=0.2, epsilon_decay="constant",
            max_steps=20000, seed=12,
        ),
    )
    ce_ok = True
    for s in range(general.num_states):
        stage = build_matrix_game(
            general.actions, [res_g.q.tables[i][s] for i in range(2)]
        )
        if not ce_check(stage, res_g.stage_policies[s], 1e-3).passed:
            ce_ok = False

    ok = vi_err <= 1e-3 and dd_err <= 1e-9 and q_err <= 1e-2 and ce_ok
    report(capfd, 7, "correlated-q learning", ok,
           f"vi err={vi_err:.1e} dd err={dd_err:.1e} q err={q_err:.1e} "
           f"stage-ce ok={ce_ok}")


def test_criterion_08_regret_matching(capfd):
    started = time.perf_counter()
    game = classic_game("rps")
    steps = 100000
    res = regret_matching_play(game, steps, mode="external", seed=0)

    # independent replay of the logged actions
    u = game.payoffs[0]
    acts = res.actions
    replayed = 0.0
    for agent in range(2):
        mine = acts[:, agent]
        other = acts[:, 1 - agent]
        payoff = u if agent == 0 else -u.T
        realized = payoff[mine, other]
        alt = np.stack([payoff[a, other] for a in range(3)])
        regret = (alt - realized).sum(axis=1) / steps
        replayed = max(replayed, float(regret.max()))
    replayed = max(replayed, 0.0)

    internal = regret_matching_play(game, steps, mode="internal", seed=1)
    internal_rep = ce_check(game, internal.empirical, 0.05)
    elapsed = time.perf_counter() - started
    ok = replayed <= 0.05 and internal_rep.passed and elapsed < 30.0
    report(capfd, 8, "regret matching", ok,
           f"external avg regret={replayed:.4f} internal ce viol="
           f"{internal_rep.max_violation:.4f} time={elapsed:.1f}s")


def test_criterion_09_opponent_shaping(capfd):
    game = iterated_game(classic_game("prisoners_dilemma"), 0.96)

    mc_ok = True
    for seed in range(10):
        prng = np.random.default_rng(100 + seed)
        th1 = prng.standard_normal(5)
        th2 = prng.standard_normal(5)
        v1, v2 = exact_values(game, memory1_policy(th1), memory1_policy(th2))
        m1, m2 = mc_policy_values(game, th1, th2, 2000, 500, seed=7000 + seed)
        for exact, sample in ((v1, m1), (v2, m2)):
            se = sample.std(ddof=1) / np.sqrt(sample.size)
            if abs(sample.mean() - exact) > 3.0 * se:
                mc_ok = False

    worst_fd = 0.0
    h = 1e-6
    for seed in range(10):
        prng = np.random.default_rng(200 + seed)
        th1 = prng.standard_normal(5)
        th2 = prng.standard_normal(5)
        grads = value_gradients(game, memory1_policy(th1), memory1_policy(th2))
        for block, (value_of, wrt) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            for idx in range(5):
                bump = np.zeros(5)
                bump[idx] = h
                hi_args = [th1.copy(), th2.copy()]
                lo_args = [th1.copy(), th2.copy()]
                hi_args[wrt] = hi_args[wrt] + bump
                lo_args[wrt] = lo_args[wrt] - bump
                hi = exact_values(game, memory1_policy(hi_args[0]), memory1_policy(hi_args[1]))[value_of]
                lo = exact_values(game, memory1_policy(lo_args[0]), memory1_policy(lo_args[1]))[value_of]
                fd = (hi - lo) / (2.0 * h)
                worst_fd = max(worst_fd, abs(grads[block][idx] - fd) / max(1.0, abs(fd)))

    rng = np.random.default_rng(9)
    a = memory1_policy(rng.standard_normal(5))
    b = memory1_policy(rng.standard_normal(5))
    l1, l2 = lola_step(game, a, b, LolaConfig(alpha=0.5, beta=0.0, gamma=0.96))
    n1, n2 = naive_step(game, a, b, 0.5)
    bitwise = np.array_equal(l1.theta, n1.theta) and np.array_equal(l2.theta, n2.theta)

    defecting = 0
    for seed in range(10):
        cfg = LolaConfig(alpha=1.0, beta=0.0, gamma=0.96, steps=500, seed=seed)
        traj = train_shapers(game, cfg, learner=NAIVE)
        c1, c2 = mean_cooperation(
            game, memory1_policy(traj.thetas1[-1]), memory1_policy(traj.thetas2[-1])
        )
        if c1 < 0.05 and c2 < 0.05:
            defecting += 1

    ok = mc_ok and worst_fd <= 1e-5 and bitwise and defecting >= 8
    report(capfd, 9, "opponent shaping", ok,
           f"mc within 3se={mc_ok} fd rel err={worst_fd:.1e} beta0 bitwise={bitwise} "
           f"naive defection={defecting}/10")


def test_criterion_10_merl(capfd):
    rng = np.random.default_rng(42)
    phi = rng.normal(size=(64, FEATURE_DIM))
    phi[:, 2] = 1.0
    action = rng.uniform(-1, 1, 64)
    reward = rng.normal(size=64)
    phi_next = rng.normal(size=(64, FEATURE_DIM))
    phi_next[:, 2] = 1.0
    batch = (phi, action, reward, phi_next)

    critic = QuadraticCritic(rng.normal(size=CRITIC_DIM))
    target_actor = LinearActor(rng.normal(size=FEATURE_DIM) * 0.3)
    target_critic = QuadraticCritic(rng.normal(size=CRITIC_DIM))
    updated = critic_td_update(critic, target_actor, target_critic, batch, 0.01, 0.95)
    analytic = (critic.weights - updated.weights) / 0.01
    targets = reward + 0.95 * target_critic.value(phi_next, target_actor.act(phi_next))

    def critic_loss(w):
        return float(np.mean((QuadraticCritic(w).value(phi, action) - targets) ** 2))

    worst_fd = 0.0
    h = 1e-6
    for idx in range(CRITIC_DIM):
        bump = np.zeros(CRITIC_DIM)
        bump[idx] = h
        fd = (critic_loss(critic.weights + bump) - critic_loss(critic.weights - bump)) / (2 * h)
        worst_fd = max(worst_fd, abs(analytic[idx] - fd) / max(1.0, abs(fd)))

    actor = LinearActor(rng.normal(size=FEATURE_DIM) * 0.05)
    updated_actor = dpg_actor_update(actor, critic, batch, 0.01)
    analytic_pi = (updated_actor.weights - actor.weights) / 0.01

    def actor_objective(w):
        return float(np.mean(critic.value(phi, np.clip(phi @ w, -1.0, 1.0))))

    h = 1e-7
    for idx in range(FEATURE_DIM):
        bump = np.zeros(FEATURE_DIM)
        bump[idx] = h
        fd = (actor_objective(actor.weights + bump) - actor_objective(actor.weights - bump)) / (2 * h)
        worst_fd = max(worst_fd, abs(analytic_pi[idx] - fd) / max(1.0, abs(fd)))

    copy_exact = np.array_equal(
        soft_update(np.array([1.0, -2.0]), np.array([3.5, 0.5]), 1.0),
        np.array([3.5, 0.5]),
    )
    geo_ok = True
    target = np.zeros(3)
    online = np.array([1.0, -2.0, 0.5])
    for k in range(1, 25):
        target = soft_update(target, online, 0.3)
        expected = np.max(np.abs(online)) * (1 - 0.3) ** k
        if abs(np.max(np.abs(target - online)) - expected) > 1e-12 * max(1.0, expected):
            geo_ok = False

    started = time.perf_counter()
    config = MerlConfig(population=10, num_agents=3, generations=50, seed=0)
    res_a = merl_train(config)
    elapsed = time.perf_counter() - started
    res_b = merl_train(config)
    ever = [h_.best_ever for h_ in res_a.history]
    nondecreasing = all(b >= a for a, b in zip(ever, ever[1:]))
    deterministic = (
        np.array_equal(res_a.best_genome, res_b.best_genome)
        and np.array_equal(res_a.pg_genome, res_b.pg_genome)
        and [h_.mean_fitness for h_ in res_a.history]
        == [h_.mean_fitness for h_ in res_b.history]
    )

    ok = (
        worst_fd <= 1e-5
        and copy_exact
        and geo_ok
        and nondecreasing
        and deterministic
        and elapsed < 120.0
    )
    report(capfd, 10, "merl hybrid training", ok,
           f"fd rel err={worst_fd:.1e} tau-copy={copy_exact} geometric={geo_ok} "
           f"elitism monotone={nondecreasing} deterministic={deterministic} "
           f"time={elapsed:.1f}s")


def test_criterion_11_belief_filter(capfd):
    t = np.zeros((3, 2, 3))
    t[:, 0] = np.roll(np.eye(3), 1, axis=1)
    t[:, 1] = np.full((3, 3), 1.0 / 3.0)
    base = make_stochastic_game((2, 1), t, (np.zeros((3, 2)), np.zeros((3, 2))), 0.9)
    game = make_posg(base, np.array([[0, 1, 0], [0, 0, 0]]))

    rng = np.random.default_rng(3)
    worst_norm = 0.0
    for _ in range(200):
        prior = belief_state(rng.dirichlet(np.ones(3)))
        action = int(rng.integers(0, 2))
        post = belief_update(game, prior, (action, 0), 0, agent=1)
        worst_norm = max(worst_norm, abs(float(post.probs.sum()) - 1.0))

    revealing = belief_update(
        game, belief_state([1 / 3, 1 / 3, 1 / 3]), (1, 0), 1, agent=0
    )
    point_mass = float(np.max(np.abs(revealing.probs - [0.0, 1.0, 0.0])))

    raised = False
    try:
        belief_update(game, belief_state([1.0, 0.0, 0.0]), (0, 0), 0, agent=0)
    except InconsistentObservationError:
        raised = True

    ok = worst_norm < 1e-12 and point_mass < 1e-12 and raised
    report(capfd, 11, "belief filtering", ok,
           f"norm err={worst_norm:.1e} point-mass err={point_mass:.1e} "
           f"inconsistency raised={raised}")


# The acceptance-12 commands. test_cli_outputs_match_pinned_digests below
# also pins their outputs by sha256.
CLI_DETERMINISM_COMMANDS = [
    ["solve", "minimax", "--game", "classic:rps", "--seed", "0"],
    ["solve", "nash-enum", "--game", "classic:chicken", "--seed", "0"],
    ["solve", "ce", "--game", "classic:chicken", "--objective", "utilitarian",
     "--seed", "0"],
    ["learn", "minimax-q", "--game", "random:zs-stoch:2:2x2:0.9",
     "--steps", "1000", "--seed", "1", "--oracle"],
    ["learn", "ce-q", "--game", "random:stoch:2:2x2:0.9",
     "--steps", "500", "--seed", "2"],
    ["learn", "regret", "--game", "classic:rps", "--steps", "2000",
     "--mode", "internal", "--seed", "3"],
    ["learn", "fp", "--game", "classic:matching_pennies", "--steps", "300",
     "--seed", "4"],
    ["learn", "replicator", "--game", "classic:rps", "--x0", "0.5,0.3,0.2",
     "--steps", "200", "--seed", "5"],
    ["learn", "lola", "--game", "classic:prisoners_dilemma", "--steps", "20",
     "--learner", "naive", "--seed", "6"],
    ["learn", "merl", "--generations", "2", "--population", "4",
     "--horizon", "8", "--seed", "7"],
]


def test_criterion_12_cli_determinism(tmp_path, capfd):
    commands = CLI_DETERMINISM_COMMANDS
    mismatches = []
    for idx, argv in enumerate(commands):
        dirs = [tmp_path / f"cmd{idx}_a", tmp_path / f"cmd{idx}_b"]
        for d in dirs:
            rc = cli_main(argv + ["--out", str(d)])
            assert rc == 0, argv
        names = sorted(p.name for p in dirs[0].iterdir())
        if names != sorted(p.name for p in dirs[1].iterdir()):
            mismatches.append(argv[1])
            continue
        for name in names:
            a_path = dirs[0] / name
            b_path = dirs[1] / name
            if name.endswith("_manifest.json"):
                a_doc = json.loads(a_path.read_text())
                b_doc = json.loads(b_path.read_text())
                if a_doc["outputs"] != b_doc["outputs"]:
                    mismatches.append(f"{argv[1]}:{name}")
            elif a_path.read_bytes() != b_path.read_bytes():
                mismatches.append(f"{argv[1]}:{name}")
    ok = not mismatches
    report(capfd, 12, "cli byte determinism", ok,
           f"{len(commands)} commands rerun, mismatches={mismatches or 'none'}")


PINNED_DIGESTS = Path(__file__).with_name("cli_digests.json")


def cli_output_digests(root) -> dict:
    """sha256 of every non-manifest output of the acceptance-12 commands,
    keyed by the command line and then the file name."""
    digests = {}
    for idx, argv in enumerate(CLI_DETERMINISM_COMMANDS):
        out = Path(root) / f"cmd{idx}"
        assert cli_main(argv + ["--out", str(out)]) == 0, argv
        digests[" ".join(argv)] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if not p.name.endswith("_manifest.json")
        }
    return digests


def this_platform() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def test_cli_outputs_match_pinned_digests(tmp_path):
    """A refactor guard: the CLI outputs keep the exact bytes pinned in
    cli_digests.json. Floating-point results may differ in the last bit on
    another Python, numpy or CPU, so the digests are checked only on the
    platform they were taken on. Re-pin (write `cli_output_digests` and
    `this_platform` to the file) only for a change that alters an output
    on purpose, and say so in CHANGES.md."""
    pinned = json.loads(PINNED_DIGESTS.read_text())
    if pinned["platform"] != this_platform():
        pytest.skip(f"digests were pinned on {pinned['platform']}, this is {this_platform()}")
    assert cli_output_digests(tmp_path) == pinned["outputs"]
