import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dacq.ea_ops as ea
import reference as ref
from dacq.ea_ops import OperatorParams, Population

BOUNDS = (-5.0, 5.0)


def make_pop(NP=8, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5, 5, (NP, dim))
    fit = rng.uniform(0, 100, NP)
    return Population(X, fit)


# ---------------------------------------------------------------------------
# Halton initialization

def test_halton_first_point_unscrambled():
    pts = ea.halton_points(1, 2, scramble=False)
    np.testing.assert_allclose(pts[0], [0.5, 1.0 / 3.0], rtol=1e-15)


def test_halton_prefix_unscrambled_base2():
    pts = ea.halton_points(4, 1, scramble=False)[:, 0]
    np.testing.assert_allclose(pts, [0.5, 0.25, 0.75, 0.125], rtol=1e-15)


def test_halton_init_within_range():
    pop = ea.halton_init(50, 3, BOUNDS, seed=1)
    assert pop.fitness is None
    assert pop.X.shape == (50, 3)
    assert np.all(pop.X >= -5) and np.all(pop.X < 5)


def test_halton_deterministic_and_seed_sensitive():
    a = ea.halton_init(16, 4, BOUNDS, seed=3).X
    b = ea.halton_init(16, 4, BOUNDS, seed=3).X
    c = ea.halton_init(16, 4, BOUNDS, seed=4).X
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_halton_lower_discrepancy_than_uniform():
    h_disc, u_disc = [], []
    for seed in range(10):
        h = ea.halton_points(64, 2, seed=seed, scramble=True)
        u = np.random.default_rng(seed).random((64, 2))
        h_disc.append(ref.star_discrepancy_2d(h))
        u_disc.append(ref.star_discrepancy_2d(u))
    assert np.mean(h_disc) < np.mean(u_disc)


@pytest.mark.parametrize("scramble", [True, False])
@pytest.mark.parametrize("dim", [1, 5, 20, 50])
@pytest.mark.parametrize("NP", [1, 2, 7, 500])
def test_halton_points_match_radical_inverse_loop(NP, dim, scramble):
    got = ea.halton_points(NP, dim, seed=[NP, dim], scramble=scramble)
    want = ref.halton_ref(NP, dim, seed=[NP, dim], scramble=scramble)
    assert np.array_equal(got, want)


def test_halton_np_too_small():
    with pytest.raises(ValueError):
        ea.halton_init(1, 2, BOUNDS, seed=0)


# ---------------------------------------------------------------------------
# DE mutation

def test_current_to_rand_identity_when_f_zero():
    pop = make_pop()
    out = ea.de_mutate("current_to_rand_1", pop, OperatorParams(f1=0.0, f2=0.0),
                       np.random.default_rng(1))
    np.testing.assert_array_equal(out, pop.X)


def test_current_to_best_collapses_to_best():
    pop = make_pop()
    out = ea.de_mutate("current_to_best_1", pop, OperatorParams(f1=1.0, f2=0.0),
                       np.random.default_rng(1))
    best = pop.X[pop.best_index]
    # x + 1*(best-x) + 0 = best up to one rounding of the float expression
    np.testing.assert_allclose(out, np.tile(best, (pop.size, 1)), rtol=1e-15)


def test_best_2_hand_expansion():
    pop = make_pop(NP=6, dim=2, seed=5)
    rng = np.random.default_rng(9)
    idx = ea.draw_distinct_indices(rng, 6, 4)
    best = pop.X[pop.best_index]
    f1, f2 = 0.7, 0.4
    got = ea.de_mutation_kernel("best_2", pop.X, best, idx, f1, f2)
    for i in range(6):
        r1, r2, r3, r4 = (pop.X[idx[i, k]] for k in range(4))
        want = best + f1 * (r1 - r2) + f2 * (r3 - r4)
        np.testing.assert_array_equal(got[i], want)


def test_indices_distinct_and_exclude_self():
    rng = np.random.default_rng(0)
    idx = ea.draw_distinct_indices(rng, 8, 5)
    for i in range(8):
        row = idx[i]
        assert len(set(row.tolist())) == 5
        assert i not in row


def test_indices_uniform_over_ordered_partner_pairs():
    # 12000 draws per row over 12 ordered pairs: 1000 expected each, and
    # a binomial standard deviation of ~29; allow 5 of them
    NP, k, n_draws = 5, 2, 12000
    rng = np.random.default_rng(20260823)
    counts = np.zeros((NP, NP, NP), dtype=np.int64)
    rows = np.arange(NP)
    for _ in range(n_draws):
        idx = ea.draw_distinct_indices(rng, NP, k)
        assert np.all(idx != rows[:, None]) and np.all(idx[:, 0] != idx[:, 1])
        np.add.at(counts, (rows, idx[:, 0], idx[:, 1]), 1)
    p = 1.0 / ((NP - 1) * (NP - 2))
    tol = 5.0 * np.sqrt(n_draws * p * (1.0 - p))
    for i in range(NP):
        for a in range(NP):
            for b in range(NP):
                if i in (a, b) or a == b:
                    assert counts[i, a, b] == 0
                else:
                    assert abs(counts[i, a, b] - n_draws * p) <= tol, (i, a, b)


@pytest.mark.parametrize("variant", ea.DE_VARIANTS)
def test_de_mutation_matches_scalar_oracle(variant):
    pop = make_pop(NP=8, dim=3, seed=11)
    rng = np.random.default_rng(21)
    idx = ea.draw_distinct_indices(rng, 8, ea._N_RANDOM_INDICES[variant])
    best = pop.X[pop.best_index]
    got = ea.de_mutation_kernel(variant, pop.X, best, idx, 0.53, 0.21)
    want = ref.de_mutation_ref(variant, pop.X, best, idx, 0.53, 0.21)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_de_errors():
    pop = make_pop(NP=4)
    with pytest.raises(ValueError):
        ea.de_mutate("rand_2", pop, OperatorParams(f1=0.5, f2=0.5),
                     np.random.default_rng(0))  # needs > 5 rows
    with pytest.raises(ValueError):
        ea.de_mutate("nope", pop, OperatorParams(f1=0.5, f2=0.5),
                     np.random.default_rng(0))
    with pytest.raises(ValueError):
        ea.de_mutate("best_2", make_pop(), OperatorParams(f1=1.5, f2=0.5),
                     np.random.default_rng(0))


# ---------------------------------------------------------------------------
# crossover

def test_binomial_cr_one_copies_donor():
    pop = make_pop()
    donor = pop.X + 1.0
    out = ea.crossover("binomial", pop.X, donor, OperatorParams(cr=1.0),
                       np.random.default_rng(3))
    np.testing.assert_array_equal(out, donor)


def test_binomial_cr_zero_single_gene():
    pop = make_pop()
    donor = pop.X + 1.0
    out = ea.crossover("binomial", pop.X, donor, OperatorParams(cr=0.0),
                       np.random.default_rng(3))
    diffs = np.sum(out != pop.X, axis=1)
    np.testing.assert_array_equal(diffs, np.ones(pop.size))


def test_exponential_cr_zero_single_gene():
    pop = make_pop()
    donor = pop.X + 1.0
    out = ea.crossover("exponential", pop.X, donor, OperatorParams(cr=0.0),
                       np.random.default_rng(3))
    diffs = np.sum(out != pop.X, axis=1)
    np.testing.assert_array_equal(diffs, np.ones(pop.size))


def test_exponential_segment_wraps():
    X = np.zeros((1, 5))
    Xp = np.ones((1, 5))
    out = ea.exponential_kernel(X, Xp, np.array([3]), np.array([4]))
    # segment of length 4 starting at index 3 wraps to {3,4,0,1}
    np.testing.assert_array_equal(out[0], [1, 1, 0, 1, 1])


@pytest.mark.parametrize("cr", [0.3, 0.7, 0.9])
def test_exponential_segment_lengths_geometric(cr):
    # P(L >= m) = cr**(m-1) for m <= dim; allow 5 binomial std deviations
    NP, dim = 20000, 6
    ks, ls = ea.exponential_segments(np.random.default_rng(31), NP, dim, cr)
    assert ls.dtype == np.int64
    assert ls.min() >= 1 and ls.max() <= dim
    assert ks.min() >= 0 and ks.max() < dim
    for m in range(1, dim + 1):
        p = cr ** (m - 1)
        tol = 5.0 * np.sqrt(p * (1.0 - p) / NP)
        assert abs(np.mean(ls >= m) - p) <= tol, (m, np.mean(ls >= m), p)


def test_exponential_matches_scalar_oracle():
    pop = make_pop(NP=8, dim=3, seed=2)
    donor = pop.X * 1.1 + 0.3
    rng = np.random.default_rng(17)
    ks, ls = ea.exponential_segments(rng, 8, 3, 0.8)
    got = ea.exponential_kernel(pop.X, donor, ks, ls)
    want = ref.exponential_ref(pop.X, donor, ks, ls)
    np.testing.assert_array_equal(got, want)


def test_binomial_matches_scalar_oracle():
    pop = make_pop(NP=8, dim=3, seed=2)
    donor = pop.X * 1.1 + 0.3
    rng = np.random.default_rng(29)
    rand = rng.random((8, 3))
    jrand = rng.integers(0, 3, size=8)
    got = ea.binomial_kernel(pop.X, donor, rand, jrand, 0.4)
    want = ref.binomial_ref(pop.X, donor, rand, jrand, 0.4)
    np.testing.assert_array_equal(got, want)


def test_mpx_matches_scalar_oracle():
    pop = make_pop(NP=8, dim=3, seed=4)
    rng = np.random.default_rng(31)
    partner = rng.integers(0, 8, size=8)
    rand = rng.random((8, 3))
    got = ea.mpx_kernel(pop.X, pop.X, partner, rand, 0.6)
    want = ref.mpx_ref(pop.X, pop.X, partner, rand, 0.6)
    np.testing.assert_array_equal(got, want)


def test_sbx_matches_scalar_oracle():
    pop = make_pop(NP=8, dim=3, seed=6)
    rng = np.random.default_rng(37)
    partner = rng.integers(0, 8, size=8)
    u = rng.random((8, 3))
    swap = rng.random((8, 3)) < 0.5
    for eta in (1, 2, 3):
        got = ea.sbx_kernel(pop.X, pop.X, partner, u, swap, eta)
        want = ref.sbx_ref(pop.X, pop.X, partner, u, swap, eta)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_sbx_hand_expansion_near_half():
    # u just below 0.5: beta = (2u)^(1/(1+eta)) - 1
    X = np.array([[2.0, -1.0]])
    donor = np.array([[4.0, 1.0]])
    u = np.full((1, 2), 0.4999)
    swap = np.zeros((1, 2), dtype=bool)
    eta = 2
    beta = (2 * 0.4999) ** (1.0 / 3.0) - 1.0
    want = 0.5 * ((1 - beta) * X + (1 + beta) * donor)
    got = ea.sbx_kernel(X, donor, np.array([0]), u, swap, eta)
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_rank_partner_prefers_fit_rows():
    pop = make_pop(NP=6, seed=8)
    rng = np.random.default_rng(41)
    best = pop.best_index
    counts = np.zeros(6)
    for _ in range(2000):
        partner = ea.draw_partners(rng, pop.fitness, 6, "rank")
        counts += np.bincount(partner, minlength=6)
    assert counts[best] == counts.max()


def test_draw_partners_rejects_unmapped_selector():
    with pytest.raises(ValueError, match="unknown partner selector None"):
        ea.draw_partners(np.random.default_rng(0), np.zeros(4), 4, None)


def test_crossover_errors():
    pop = make_pop()
    with pytest.raises(ValueError):
        ea.crossover("bogus", pop.X, pop.X, OperatorParams(cr=0.5),
                     np.random.default_rng(0))
    with pytest.raises(ValueError):
        ea.crossover("binomial", pop.X, pop.X, OperatorParams(cr=1.5),
                     np.random.default_rng(0))
    with pytest.raises(ValueError):
        ea.crossover("binomial", pop.X, pop.X[:4], OperatorParams(cr=0.5),
                     np.random.default_rng(0))
    with pytest.raises(ValueError):
        ea.crossover("sbx", pop.X, pop.X, OperatorParams(eta_c=4),
                     np.random.default_rng(0))


# ---------------------------------------------------------------------------
# GA mutation

def test_gaussian_sigma_zero_identity():
    pop = make_pop()
    out = ea.ga_mutate("gaussian", pop.X, OperatorParams(sigma=0.0), BOUNDS,
                       np.random.default_rng(0))
    np.testing.assert_array_equal(out, pop.X)


def test_polynomial_u_half_identity():
    X = np.random.default_rng(0).uniform(-5, 5, (4, 3))
    out = ea.polynomial_kernel(X, 2, BOUNDS, np.full((4, 3), 0.5))
    np.testing.assert_array_equal(out, X)


def test_gaussian_sample_std():
    X = np.zeros((100000, 1))
    out = ea.ga_mutate("gaussian", X, OperatorParams(sigma=0.1), BOUNDS,
                       np.random.default_rng(123))
    std = np.std(out)
    assert abs(std - 1.0) / 1.0 < 0.03  # sigma*(ub-lb) = 0.1*10


def test_gaussian_matches_scalar_oracle():
    X = np.random.default_rng(1).uniform(-5, 5, (8, 3))
    noise = np.random.default_rng(2).standard_normal((8, 3))
    got = ea.gaussian_kernel(X, 0.25, BOUNDS, noise)
    want = ref.gaussian_ref(X, 0.25, BOUNDS, noise)
    np.testing.assert_array_equal(got, want)


def test_polynomial_matches_scalar_oracle():
    X = np.random.default_rng(3).uniform(-5, 5, (8, 3))
    u = np.random.default_rng(4).random((8, 3))
    for eta in (1, 2, 3):
        got = ea.polynomial_kernel(X, eta, BOUNDS, u)
        want = ref.polynomial_ref(X, eta, BOUNDS, u)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_polynomial_stays_in_bounds():
    X = np.random.default_rng(5).uniform(-5, 5, (50, 4))
    out = ea.ga_mutate("polynomial", X, OperatorParams(eta_m=1), BOUNDS,
                       np.random.default_rng(6))
    assert np.all(out >= -5) and np.all(out <= 5)


def test_ga_mutate_errors():
    with pytest.raises(ValueError):
        ea.ga_mutate("nope", np.zeros((2, 2)), OperatorParams(), BOUNDS,
                     np.random.default_rng(0))
    with pytest.raises(ValueError):
        ea.ga_mutate("polynomial", np.zeros((2, 2)), OperatorParams(eta_m=5),
                     BOUNDS, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# selection

def test_greedy_offspring_dominates():
    parents = make_pop(seed=1)
    offspring = Population(parents.X - 1.0, parents.fitness - 10.0)
    out = ea.select("greedy_pairwise", parents, offspring, np.random.default_rng(0))
    np.testing.assert_array_equal(out.X, offspring.X)
    np.testing.assert_array_equal(out.fitness, offspring.fitness)


def test_greedy_never_increases_kept_fitness():
    parents = make_pop(seed=2)
    rng = np.random.default_rng(7)
    offspring = Population(parents.X + 0.1, parents.fitness + rng.uniform(-5, 5, 8))
    out = ea.select("greedy_pairwise", parents, offspring, rng)
    assert np.all(out.fitness <= parents.fitness)
    assert np.all(out.fitness <= offspring.fitness)


def test_roulette_rank_frequencies():
    # 4-member pool (2 parents + 2 offspring); rank weights 4:3:2:1
    parents = Population(np.array([[0.0], [1.0]]), np.array([10.0, 30.0]))
    offspring = Population(np.array([[2.0], [3.0]]), np.array([20.0, 40.0]))
    # pool fitness [10,30,20,40] -> ranks: member0 best, then 2, 1, 3
    want = np.array([4, 2, 3, 1]) / 10.0
    rng = np.random.default_rng(55)
    counts = np.zeros(4)
    draws = 0
    for _ in range(50000):
        out = ea.select("roulette", parents, offspring, rng)
        for row in out.X[:, 0]:
            counts[int(row)] += 1
        draws += 2
    freq = counts / draws
    assert np.all(np.abs(freq - want) < 0.02)


def test_tournament_prefers_better():
    parents = make_pop(seed=3)
    offspring = make_pop(seed=4)
    rng = np.random.default_rng(11)
    out = ea.select("tournament", parents, offspring, rng)
    pool_mean = 0.5 * (parents.fitness.mean() + offspring.fitness.mean())
    # larger sample to make the comparison robust
    sel = [ea.select("tournament", parents, offspring, rng).fitness.mean()
           for _ in range(200)]
    assert np.mean(sel) < pool_mean
    assert out.size == parents.size


def test_select_size_mismatch():
    with pytest.raises(ValueError):
        ea.select("greedy_pairwise", make_pop(NP=8), make_pop(NP=6),
                  np.random.default_rng(0))


# ---------------------------------------------------------------------------
# bound control

def test_bound_control_examples():
    parent = np.array([[0.0]])
    cases = [("clip", 6.0, parent, 5.0),
             ("reflect", 5.0 + 1.25, parent, pytest.approx(5.0 - 1.25)),
             ("periodic", 5.0 + 1.25, parent, pytest.approx(-5.0 + 1.25)),
             ("halving", 7.0, np.array([[3.0]]), pytest.approx(4.0)),
             ("halving", -7.0, np.array([[3.0]]), pytest.approx(-1.0))]
    for method, x, par, want in cases:
        assert ea.bound_control(method, np.array([[x]]), par, BOUNDS,
                                np.random.default_rng(0))[0, 0] == want


def test_bound_control_passthrough():
    X = np.random.default_rng(0).uniform(-5, 5, (6, 4))
    for m in ea.BOUND_METHODS:
        np.testing.assert_array_equal(
            ea.bound_control(m, X, X * 0.5, BOUNDS, np.random.default_rng(1)), X)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ea.BOUND_METHODS), st.integers(0, 2**31 - 1),
       st.floats(1.0, 200.0))
def test_bound_control_always_in_range(method, seed, scale):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-scale, scale, (5, 3))
    parent = rng.uniform(-5, 5, (5, 3))
    out = ea.bound_control(method, X, parent, BOUNDS, rng)
    assert np.all(out >= -5.0) and np.all(out <= 5.0)


def test_bound_control_bad_method():
    # a method is named; its index in BOUND_METHODS is not a name
    for method in ("wrap", 4):
        with pytest.raises(ValueError, match="unknown bound-control method"):
            ea.bound_control(method, np.zeros((1, 1)), np.zeros((1, 1)),
                             BOUNDS, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# LPSR and information sharing

def test_lpsr_schedule():
    pop = make_pop(NP=50, dim=2, seed=9)
    assert ea.lpsr(pop, 0, 50, 50, 10).size == 50
    assert ea.lpsr(pop, 50, 50, 50, 10).size == 10
    assert ea.lpsr(pop, 25, 50, 50, 10).size == 30


def test_lpsr_keeps_best():
    pop = make_pop(NP=20, dim=2, seed=10)
    out = ea.lpsr(pop, 5, 10, 20, 4)
    kept = set(map(tuple, out.X))
    order = np.argsort(pop.fitness, kind="stable")
    want = set(map(tuple, pop.X[order[:out.size]]))
    assert kept == want


def test_lpsr_error():
    with pytest.raises(ValueError):
        ea.lpsr(make_pop(), 0, 10, 5, 8)


def test_share_identity_noop():
    pops = [make_pop(seed=i) for i in range(3)]
    out = ea.share_information(pops, [0, 1, 2])
    for a, b in zip(pops, out):
        np.testing.assert_array_equal(a.X, b.X)


def test_share_swap_uses_pre_update_bests():
    a = make_pop(NP=4, seed=20)
    b = make_pop(NP=4, seed=21)
    best_a = a.X[a.best_index].copy()
    best_b = b.X[b.best_index].copy()
    out = ea.share_information([a, b], [1, 0])
    wa = int(np.argmax(a.fitness))
    wb = int(np.argmax(b.fitness))
    np.testing.assert_array_equal(out[0].X[wa], best_b)
    np.testing.assert_array_equal(out[1].X[wb], best_a)


def test_share_needs_one_target_per_population():
    pops = [make_pop(seed=30), make_pop(seed=31)]
    for cm in [(), (1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match="sharing targets"):
            ea.share_information(pops, cm)


def test_share_bad_index():
    with pytest.raises(ValueError):
        ea.share_information([make_pop()], [2])
