"""End-to-end acceptance checks for the package's headline guarantees.

Each check prints one visible line, [k/9] PASS or FAIL with its elapsed
time, informational budget and the active kernel backend, then asserts.  Budgets are printed, not
enforced: correctness is the contract, the timings document scale.

Everything is seeded and deterministic; the seeds below are frozen so the
checks mean the same thing on every run.
"""

import math
import time
from fractions import Fraction
from itertools import product

from spincouple import (
    classify,
    arcsin_sum_max,
    chsh_max,
    fine_agreement_campaign,
    kernel_backend,
    pair_coupling_range,
    pair_coupling_range_lp,
    quantum_arcsin,
    random_settings,
    realizability_check,
    sample_connection_components,
    satisfies_s1_prime,
    singlet_correlations,
    slot_rng,
    standard_chsh_settings,
    test_equivalent,
    test_forcing,
    uninformativeness_campaign,
)

F = Fraction

SEED_FINE = 20260814
SEED_SANDWICH = 314159
SEED_FRECHET = 271828
SEED_UNINFORMATIVE = 1729
SEED_SIGN_VECTORS = 42
SEED_RANDOM_EQUIV = 7
SEED_FORCING_PAIR = 8
SEED_SETTINGS = 2026


def _report(capsys, k, label, ok, t0, budget):
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(
            f"\n[{k}/9] {'PASS' if ok else 'FAIL'} {label} "
            f"({elapsed:.1f}s, budget {budget}, {kernel_backend()})"
        )
    return ok


def test_accept_1_identity_coupling_tracks_classical_bound(capsys):
    t0 = time.perf_counter()
    result = fine_agreement_campaign(1000, SEED_FINE)
    ok = result.all_agree and result.n == 1000
    _report(
        capsys, 1,
        f"identity coupling exists iff classical bound holds: {result.agreements}/1000 exact",
        ok, t0, "30s",
    )
    assert ok, f"mismatched slots: {result.mismatch_indices[:10]}"


def test_accept_2_standard_settings_saturate_both_bounds(capsys):
    t0 = time.perf_counter()
    c = singlet_correlations(*standard_chsh_settings())
    chsh_gap = abs(float(chsh_max(c)) - 2.0 * math.sqrt(2.0))
    arcsin_gap = abs(arcsin_sum_max(c) - math.pi)
    bell_violated = not classify(c).bell
    ok = chsh_gap <= 1e-12 and arcsin_gap <= 1e-12 and bell_violated
    _report(
        capsys, 2,
        f"standard settings: CHSH gap {chsh_gap:.1e}, arcsin gap {arcsin_gap:.1e}, "
        f"classical bound violated={bell_violated}",
        ok, t0, "negligible",
    )
    assert ok


def test_accept_3_family_sandwich_on_random_vectors(capsys):
    t0 = time.perf_counter()
    violations = 0
    for k in range(10_000):
        rng = slot_rng(SEED_SANDWICH, k)
        comps = tuple(F(rng.randint(-1000, 1000), 1000) for _ in range(4))
        cls = classify(comps, epsilon=1e-9)
        if cls.bell and not cls.quantum:
            violations += 1
        if cls.quantum and not cls.tsirelson:
            violations += 1
    ok = violations == 0
    _report(
        capsys, 3,
        f"bell=>quantum=>tsirelson on 10000 vectors: {violations} violations",
        ok, t0, "5s",
    )
    assert ok


def test_accept_4_frechet_closed_form_equals_lp(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    for k in range(1000):
        rng = slot_rng(SEED_FRECHET, k)
        p = F(rng.randint(0, 1000), 1000)
        q = F(rng.randint(0, 1000), 1000)
        if pair_coupling_range(p, q) != pair_coupling_range_lp(p, q):
            mismatches += 1
    ok = mismatches == 0
    _report(
        capsys, 4,
        f"joint-cell range closed form vs LP on 1000 (p, q): {mismatches} mismatches",
        ok, t0, "10s",
    )
    assert ok


def test_accept_5_conditionalization_succeeds_across_strata(capsys):
    t0 = time.perf_counter()
    r = uninformativeness_campaign(500, SEED_UNINFORMATIVE)
    per = {name: f"{s}/{t}" for name, (s, t) in sorted(r.per_stratum.items())}
    stratum_ok = all(s == t and t > 0 for s, t in r.per_stratum.values())
    ok = r.all_ok and stratum_ok and r.pairs == 500
    _report(
        capsys, 5,
        f"conditionalization verified {r.successes}/{r.constructions}, per stratum {per}",
        ok, t0, "10s",
    )
    assert ok


def test_accept_6_sign_vectors_equivalent_iff_even_plus_count(capsys):
    t0 = time.perf_counter()
    disagreements = []
    for v in product((1, -1), repeat=4):
        verdict = test_equivalent(v, "bell", SEED_SIGN_VECTORS, 100).verdict
        if verdict != satisfies_s1_prime(v):
            disagreements.append(v)
    ok = not disagreements
    _report(
        capsys, 6,
        f"16 sign vectors, sampled bell equivalence == even-plus-count rule: "
        f"{16 - len(disagreements)}/16",
        ok, t0, "60s",
    )
    assert ok, f"disagreeing vectors: {disagreements}"


def test_accept_7_no_random_vector_is_quantum_equivalent(capsys):
    t0 = time.perf_counter()
    false_verdicts = 0
    for i in range(100):
        v = sample_connection_components(SEED_RANDOM_EQUIV, i)
        if not test_equivalent(v, "quantum", 7000 + i, 100).verdict:
            false_verdicts += 1
    ok = false_verdicts == 100
    _report(
        capsys, 7,
        f"random vectors never quantum-equivalent: {false_verdicts}/100 refuted",
        ok, t0, "5min",
    )
    assert ok


def test_accept_8_forcing_agrees_between_quantum_and_bell(capsys):
    t0 = time.perf_counter()
    agreements = 0
    for i in range(50):
        v = sample_connection_components(SEED_FORCING_PAIR, i)
        fq = test_forcing(v, "quantum", 8000 + i, 100).verdict
        fb = test_forcing(v, "bell", 8000 + i, 100).verdict
        agreements += (fq == fb)
    ok = agreements == 50
    _report(
        capsys, 8,
        f"forcing verdict same for quantum and bell families: {agreements}/50",
        ok, t0, "5min",
    )
    assert ok


def test_accept_9_singlet_outputs_always_arcsin_feasible(capsys):
    t0 = time.perf_counter()
    feasible = 0
    for i in range(1000):
        c = singlet_correlations(*random_settings(SEED_SETTINGS, i))
        if realizability_check(c, epsilon=1e-9):
            feasible += 1
    ok = feasible == 1000
    _report(
        capsys, 9,
        f"sampled measurement directions give realizable vectors: {feasible}/1000",
        ok, t0, "2s",
    )
    assert ok
    # the arcsin family is the exact criterion, so feasibility here is the
    # forward half of the characterization
    assert quantum_arcsin(singlet_correlations(*random_settings(SEED_SETTINGS, 0))).satisfied
