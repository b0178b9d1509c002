import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vdtptune import fitness
from vdtptune.fitness import (
    C_CONSTANT,
    FitnessReport,
    evaluate,
    fitness_term,
    make_objective,
)
from vdtptune.sim.kernels import run_sessions
from vdtptune.sim.scenario import human_expert_config, preset
from vdtptune.sim.transfer import TransferOutcome, _kernel_args
from vdtptune.optimizers import lockstep
from vdtptune.optimizers.common import ObjectiveHandle
from vdtptune.space import DEFAULT_BOUNDS, VdtpConfig
from vdtptune.stats import mean


def test_term_hand_value():
    # (4 + 1) / log10(998 + 2) = 5 / 3
    assert fitness_term(4.0, 1.0, 998.0) == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_term_zero_data_is_finite():
    v = fitness_term(10.0, 5.0, 0.0)
    assert math.isfinite(v)
    assert v == pytest.approx(15.0 / math.log10(2.0))


def test_term_custom_constant():
    # the divisor's constant is C_CONSTANT: log10(8 + C_CONSTANT) = 1
    assert fitness_term(3.0, 0.0, 8.0) == 3.0


def test_c_constant_default():
    assert C_CONSTANT == 2.0


def test_evaluate_deterministic_per_seed():
    sc = preset("urban")
    cfg = human_expert_config(sc)
    a = evaluate(cfg, sc, n=4, seed=7)
    b = evaluate(cfg, sc, n=4, seed=7)
    c = evaluate(cfg, sc, n=4, seed=8)
    assert a.fitness == b.fitness
    assert a.replications == b.replications
    assert a.fitness != c.fitness
    assert a.n == 4
    assert len(a.replications) == 4
    assert a.config == cfg


def test_evaluate_accepts_seedsequence():
    sc = preset("urban")
    cfg = human_expert_config(sc)
    ss = np.random.SeedSequence(7)
    assert evaluate(cfg, sc, n=2, seed=ss).fitness == evaluate(cfg, sc, n=2, seed=7).fitness


def test_evaluate_leaves_a_seedsequence_as_it_was():
    """evaluate builds its replication seeds from spawn keys, so one
    SeedSequence scores alike however often it is handed over."""
    sc = preset("urban")
    cfg = human_expert_config(sc)
    ss = np.random.SeedSequence(7)
    first, second = evaluate(cfg, sc, n=2, seed=ss), evaluate(cfg, sc, n=2, seed=ss)
    assert repr(first) == repr(second) == repr(evaluate(cfg, sc, n=2, seed=np.random.SeedSequence(7)))
    assert ss.n_children_spawned == 0


def _fresh(seed, key=()):
    """A SeedSequence never spawned from, with the entropy, spawn key (plus
    `key`) and pool size of `seed`, an int or a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + key, pool_size=seed.pool_size)
    return np.random.SeedSequence(seed, spawn_key=key)


def _spawned_words(parent, n):
    """The kernel seeds of the children parent.spawn(n) gives: each child's
    first uint64 word."""
    return [child.generate_state(1, np.uint64)[0] for child in parent.spawn(n)]


def _same_words(got, want):
    assert [(type(w), int(w)) for w in got] == [(int, int(w)) for w in want]


_SPAWN_PARENTS = [
    5,
    np.random.SeedSequence(5, spawn_key=(3, 1)),
    np.random.SeedSequence(5, pool_size=8),
    np.random.SeedSequence(2**127 + 12345),
    np.random.SeedSequence(2**200 + 7),
    np.random.SeedSequence([3, 2**40]),
    np.random.SeedSequence([[1, 2], 3]),
]
_SPAWN_IDS = [
    "int", "seedsequence", "pool-size-8", "entropy-128", "entropy-past-pool", "list-entropy", "nested-entropy",
]


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize("seed", _SPAWN_PARENTS, ids=_SPAWN_IDS)
def test_replication_seeds_are_the_spawned_children(seed, n):
    for key in ((), (1, 4), (2**32 + 5, 1)):
        _same_words(fitness._SeedPool(seed, key).children(n), _spawned_words(_fresh(seed, key), n))


def _state_word(entropy, spawn_key, pool_size):
    return np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size).generate_state(1, np.uint64)[0]


@settings(max_examples=400, deadline=None)
@given(
    entropy=st.one_of(st.integers(0, 2**256 - 1), st.lists(st.integers(0, 2**64 - 1), max_size=4)),
    pool_size=st.integers(4, 8),
    base=st.lists(st.integers(0, 2**40), max_size=2).map(tuple),
    k=st.integers(0, 2**40),
    n=st.integers(1, 10),
)
def test_seed_pool_matches_seedsequence(entropy, pool_size, base, k, n):
    """The hash in Python ints gives numpy's words: the sequence's own (as
    run_seed takes it), its children (as evaluate takes them) and evaluation
    k's children (as make_objective takes them); about 5000 words in all."""
    parent = np.random.SeedSequence(entropy, spawn_key=base, pool_size=pool_size)
    assert fitness._SeedPool(parent).word() == _state_word(entropy, base, pool_size)
    want = [_state_word(entropy, base + (j,), pool_size) for j in range(n)]
    _same_words(fitness._SeedPool(parent).children(n), want)
    pool = fitness._SeedPool(parent, (1,))
    want = [_state_word(entropy, base + (1, k, j), pool_size) for j in range(n)]
    _same_words(pool.children(n, (k,)), want)


def test_evaluate_rejects_bad_n():
    with pytest.raises(ValueError):
        evaluate(human_expert_config("urban"), preset("urban"), n=0, seed=1)


def _report_replication_by_replication(config, scenario, n, seed):
    """evaluate() as it was written before the lane kernel: one scalar
    run_sessions call and one aggregate per replication."""
    outcomes = []
    for child in seed.spawn(n):
        kernel_seed = child.generate_state(1, np.uint64)[0]
        times, lost, delivered, refused = run_sessions(
            scenario.sessions, *_kernel_args(config, scenario), kernel_seed
        )
        n_refused = int(np.count_nonzero(refused))
        outcomes.append(
            TransferOutcome(
                transmission_time_s=float(np.mean(times)),
                lost_packets=float(np.mean(lost)),
                data_transferred_kbytes=float(np.sum(delivered)) / 1024.0,
                completed_sessions=scenario.sessions - n_refused,
                refused_sessions=n_refused,
            )
        )
    terms = [fitness_term(o.transmission_time_s, o.lost_packets, o.per_session_kbytes()) for o in outcomes]
    return FitnessReport(fitness=mean(terms), replications=tuple(outcomes), config=config)


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize(
    "name, config",
    [("urban", None), ("highway", VdtpConfig(300.0, 2.0, 1.0)), ("urban_a3", VdtpConfig(2048.0, 1.0, 2.5))],
)
def test_evaluate_matches_replication_by_replication(name, config, n):
    sc = preset(name)
    config = config or human_expert_config(sc)
    seed = np.random.SeedSequence(2024, spawn_key=(1, n))
    want = _report_replication_by_replication(config, sc, n, np.random.SeedSequence(2024, spawn_key=(1, n)))
    assert repr(evaluate(config, sc, n=n, seed=seed)) == repr(want)


def test_evaluate_simulates_all_replications_in_one_call(monkeypatch):
    """evaluate reaches the simulator through fitness.simulate_replication,
    once, and what comes back counts every session (the benchmark's tracer
    wraps that name and reads these totals)."""
    calls = []
    original = fitness.simulate_replication

    def spy(config, scenario, seed):
        out = original(config, scenario, seed)
        calls.append((len(seed), out.sessions, out.refused_sessions))
        return out

    monkeypatch.setattr(fitness, "simulate_replication", spy)
    sc = preset("highway")
    report = evaluate(VdtpConfig(300.0, 2.0, 1.0), sc, n=4, seed=3)
    refused = sum(o.refused_sessions for o in report.replications)
    assert calls == [(4, 4 * sc.sessions, refused)]
    assert refused > 0


def scored(request) -> list:
    """The fitness list of one request of make_objective's objective, resolved alone."""
    (fits,) = fitness.resolve([request])
    return fits


def test_objective_replays_identically():
    """The objective scores (k, 3) batches; three rows in one batch score as
    three batches of one row, since the evaluation index seeds each row."""
    sc = preset("urban")
    x = np.asarray(human_expert_config(sc).as_array())
    f1 = make_objective(sc, n=2, seed=42)
    f2 = make_objective(sc, n=2, seed=42)
    seq1 = scored(f1(np.array([x, x, x])))
    seq2 = [f for _ in range(3) for f in scored(f2(x[None]))]
    assert seq1 == seq2 and len(seq1) == 3
    # evaluation index is part of the seed: same x, later row, new randomness
    assert len(set(seq1)) == 3


def test_objective_seed_separation():
    sc = preset("urban")
    x = np.asarray(human_expert_config(sc).as_array())[None]
    assert scored(make_objective(sc, n=2, seed=1)(x)) != scored(make_objective(sc, n=2, seed=2)(x))


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize("seed", _SPAWN_PARENTS, ids=_SPAWN_IDS)
def test_objective_builds_the_spawned_replication_seeds(monkeypatch, seed, n):
    """make_objective builds evaluation k's replication seeds from their
    spawn keys; they are the kernel seeds of the children spawn(n) of the
    evaluation's SeedSequence would give, pool size included, wherever k
    falls in a batch."""
    handed = []
    outcome = TransferOutcome(1.0, 0.0, 20.0, 20, 0)

    def spy(configs, scenario, seeds):
        handed.extend(seeds)
        return [(outcome,) * n for _ in configs]

    monkeypatch.setattr(fitness, "simulate_batch", spy)
    obj = make_objective(preset("urban"), n=n, seed=seed)
    x = np.asarray(human_expert_config("urban").as_array())
    for k in (1, 2, 1):
        scored(obj(np.tile(x, (k, 1))))  # a request reaches simulate_batch when it is resolved
    for k, seeds in enumerate(handed):
        _same_words(seeds, _spawned_words(_fresh(seed, (1, k)), n))
    assert len(handed) == 4


def test_objective_matches_evaluate_seed_derivation():
    sc = preset("urban")
    cfg = human_expert_config(sc)
    obj = make_objective(sc, n=3, seed=5)
    first, second = scored(obj(np.array([cfg.as_array(), VdtpConfig(4096.0, 4.0, 3.0).as_array()])))
    assert first == evaluate(cfg, sc, n=3, seed=np.random.SeedSequence(5, spawn_key=(1, 0))).fitness
    want = evaluate(VdtpConfig(4096.0, 4.0, 3.0), sc, n=3, seed=np.random.SeedSequence(5, spawn_key=(1, 1)))
    assert second == want.fitness


def test_resolve_scores_a_tick_in_one_call(monkeypatch):
    """resolve() scores all the requests of a tick in one simulate_batch
    call and returns each its own fitness list, in request order: the list
    that request gets when resolved alone. An equal scenario held in another
    object counts as the same; an empty tick makes no call, and a tick whose
    requests carry different scenarios is refused before any. Requests are
    not lists, so a test cannot read one as its fitnesses by mistake."""
    calls = []
    real = fitness.simulate_batch

    def counted(configs, *rest):
        calls.append(len(configs))
        return real(configs, *rest)

    monkeypatch.setattr(fitness, "simulate_batch", counted)
    sc = preset("urban")
    points = np.array([human_expert_config(sc).as_array(), [4096.0, 4.0, 3.0], [65536.0, 3.0, 0.5]])
    requests = [
        make_objective(sc, n=2, seed=5)(points),
        make_objective(dataclasses.replace(sc), n=1, seed=7)(points[1:]),
        make_objective(sc, n=1, seed=6)(points[:1]),
    ]
    together = fitness.resolve(requests)
    assert calls == [6]
    assert [len(fits) for fits in together] == [3, 2, 1]
    assert [scored(request) for request in requests] == together
    assert calls == [6, 3, 2, 1]
    assert fitness.resolve([]) == []
    mixed = [requests[0], make_objective(preset("highway"), n=1, seed=7)(points[1:])]
    with pytest.raises(ValueError, match="share one scenario"):
        fitness.resolve(mixed)
    assert calls == [6, 3, 2, 1]
    with pytest.raises(TypeError):
        iter(requests[0])


def test_objective_scores_are_invariant_to_how_a_run_cuts_its_batches():
    """The same 40 points scored as 1 x 40, 2 x 20 or 40 x 1 rows per batch
    give the same fitnesses and the same handle traces, bit for bit."""
    sc = preset("urban")
    points = np.random.default_rng(8).random((40, 3))
    results = []
    for rows in (40, 20, 1):
        handle = ObjectiveHandle(make_objective(sc, n=1, seed=11), DEFAULT_BOUNDS, 40)
        fits = []
        for start in range(0, 40, rows):
            ((_, batch),) = lockstep([handle.evaluate_batch(points[start : start + rows])])
            fits += list(batch)
        results.append((repr(fits), handle.trace, repr(handle.best_position)))
        assert len(fits) == len(handle.trace) == 40
    assert results[0] == results[1] == results[2]


@settings(max_examples=100, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=1e4),
    l=st.floats(min_value=0.0, max_value=1e4),
    d=st.floats(min_value=0.0, max_value=1e6),
    bump=st.floats(min_value=1e-6, max_value=100.0),
)
def test_term_monotonicity(t, l, d, bump):
    base = fitness_term(t, l, d)
    assert fitness_term(t + bump, l, d) > base
    assert fitness_term(t, l + bump, d) > base
    if t + l > 1e-9:  # for denormal numerators both quotients round equal
        assert fitness_term(t, l, d + bump) < base
