"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines as
they complete.  The two scenario-scale tests (7 and 10) dominate the runtime.
"""
import math
import time

import numpy as np

from bosefold import dense
from bosefold.entanglement import (binomial_end_entanglement_asymptotic,
                                   binomial_end_entanglement_exact, logneg_pure)
from bosefold.heisenberg import (evolve_mode, ground_mode, propagate,
                                 spectral_decompose)
from bosefold.model import ModelSpec, build_jx, coupling_from_array
from bosefold.mps import (amplitude, condensate_state, lift_first_site,
                          schmidt_values, two_sum_state)
from bosefold.perturbation import exact_transfer, first_order_numeric
from bosefold.scenarios import (NumericsSpec, ScenarioSpec, run_collision_sweep,
                                run_quench)


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {desc}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_hermitian(n, rng):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return coupling_from_array((h + h.conj().T) / 2)


def _all_amplitudes(state, n, m):
    return np.array([amplitude(state, cfg) for cfg in dense.fock_configs(n, m)])


def test_criterion_01_ground_state_oracle():
    rng = np.random.default_rng(101)
    n, m = 6, 3
    worst = 0.0
    for _ in range(5):
        c = ground_mode(spectral_decompose(_random_hermitian(n, rng)))
        state = condensate_state(c, m)
        dev = np.max(np.abs(_all_amplitudes(state, n, m)
                            - dense.condensate_amplitudes(c, m)))
        worst = max(worst, float(dev))
    _report(1, "ground-state amplitudes vs dense expansion", worst < 1e-9,
            f"max deviation {worst:.3e} over 5 random instances (tol 1e-9)")


def test_criterion_02_dynamics_oracle():
    rng = np.random.default_rng(202)
    n, m = 4, 2
    r = _random_hermitian(n, rng)
    spec = spectral_decompose(r)
    c0 = ground_mode(spec)
    psi0 = dense.condensate_amplitudes(c0, m)
    worst = 0.0
    for t in (0.3, 1.7):
        ct = evolve_mode(propagate(spec, t), c0.coefficients)
        state = condensate_state(ct, m)
        ref = dense.evolve_dense(r.entries, psi0, n, m, t)
        dev = np.max(np.abs(_all_amplitudes(state, n, m) - ref))
        worst = max(worst, float(dev))
    _report(2, "evolved-mode MPS vs dense propagation", worst < 1e-8,
            f"max deviation {worst:.3e} at t in {{0.3, 1.7}} (tol 1e-8)")


def test_criterion_03_two_sum_oracle():
    n, m1, m2 = 6, 2, 2
    a = propagate(spectral_decompose(build_jx(n)), math.pi / 2)
    z = a.entries[:, 0]
    c = a.entries[:, n - 1]
    state = two_sum_state(z, c, m1, m2)
    ref = dense.two_sum_amplitudes(z, c, m1, m2)
    dev = float(np.max(np.abs(_all_amplitudes(state, n, m1 + m2) - ref)))
    _report(3, "two-condensate folding vs dense expansion", dev < 1e-9,
            f"max deviation {dev:.3e} (tol 1e-9)")


def test_criterion_04_perfect_state_transfer():
    worst = 0.0
    for n in (2, 11, 40):
        row = exact_transfer(n, 0.0, 0.0)
        worst = max(worst, abs(abs(row[-1]) - 1.0))
    _report(4, "perfect transfer |A_1N(pi)| = 1 for N in {2, 11, 40}",
            worst < 1e-10, f"max deviation {worst:.3e} (tol 1e-10)")


def test_criterion_05_cross_route_occupations():
    start = time.perf_counter()
    n, m = 20, 10
    model = ModelSpec(n_sites=n, base="inverse_distance", j1=0.3,
                      trap_omega=0.00046 * (100 / n) ** 2,
                      barriers=((9, 12, 1000.0),))
    spec = ScenarioSpec(kind="quench_release", model=model, m=m,
                        t_start=0.0, t_end=40.0, steps=5,
                        snapshot_times=(0.0, 5.0, 12.5, 25.0, 40.0))
    res = run_quench(spec)
    worst = 0.0
    worst_total = 0.0
    for _, closed, mps in res.snapshots:
        worst = max(worst, float(np.max(np.abs(closed - mps))))
        worst_total = max(worst_total, abs(float(mps.sum()) - m))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and worst_total < 1e-8 and elapsed < 120
    _report(5, "MPS snapshot occupations vs closed form", ok,
            f"max deviation {worst:.3e}, total-number error {worst_total:.3e}, "
            f"{elapsed:.1f}s (tols 1e-8, budget 120s)")


def test_criterion_06_binomial_entanglement_law():
    worst = 0.0
    for m in (2, 8, 32):
        c = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        state = condensate_state(c, m)
        en = logneg_pure(schmidt_values(state, 1)).value
        worst = max(worst, abs(en - binomial_end_entanglement_exact(m).value))
    devs = [abs(binomial_end_entanglement_exact(m).value
                - binomial_end_entanglement_asymptotic(m).value)
            for m in (4, 16, 64, 256)]
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    ok = worst < 1e-9 and monotone and devs[-1] < 0.05
    _report(6, "binomial end-mode entanglement law", ok,
            f"max spectrum deviation {worst:.3e} (tol 1e-9), asymptotic gap "
            f"{devs[-1]:.3f} bits at M=256 (tol 0.05), monotone={monotone}")


def test_criterion_07_collision_sweep_desk_scale():
    start = time.perf_counter()
    n = 20
    mus = tuple(round(0.1 * i, 10) * n for i in range(31))
    maxima = {}
    ok_window = True
    ok_fraction = True
    for m in (4, 8, 16):
        spec = ScenarioSpec(kind="collision_sweep",
                            model=ModelSpec(n_sites=n, base="jx"),
                            m1=m // 2, m2=m // 2, mu_values=mus,
                            numerics=NumericsSpec(chi_max=(m // 2 + 1) ** 2))
        recs = run_collision_sweep(spec)
        en = np.array([r.e_n_bits for r in recs])
        frac = np.array([r.collection_fraction for r in recs])
        # (a) an interior local maximum with mu/N strictly inside (0.3, 2)
        interior = [i for i in range(1, len(en) - 1)
                    if en[i] > en[i - 1] and en[i] > en[i + 1]
                    and 0.3 < mus[i] / n < 2.0]
        ok_window &= bool(interior)
        peak = int(np.argmax(en))
        maxima[m] = float(en[peak])
        # (c) collection fraction at the curve maximum
        ok_fraction &= frac[peak] >= 0.9
    x = np.log2(np.array(sorted(maxima)))
    y = np.array([maxima[m] for m in sorted(maxima)])
    slope = float(np.polyfit(x, y, 1)[0])
    increasing = y[0] < y[1] < y[2]
    elapsed = time.perf_counter() - start
    ok = (ok_window and increasing and 0.3 <= slope <= 0.7 and ok_fraction
          and elapsed < 1200)
    _report(7, "collision sweep scaling (N=20, M in {4,8,16})", ok,
            f"peaks {y.round(3).tolist()}, slope {slope:.3f} (range [0.3,0.7]), "
            f"interior max {ok_window}, fraction>=0.9 {ok_fraction}, "
            f"{elapsed:.0f}s (budget 1200s)")


def test_criterion_08_perturbation_oracles():
    n = 21
    j = (n - 1) / 2
    v0 = first_order_numeric(n, 0.0)
    dev_a = abs(abs(v0[-1]) - math.pi)

    beta = 2.0
    num = first_order_numeric(n, beta)
    base = exact_transfer(n, 0.0, beta)
    fd4 = (exact_transfer(n, 1e-4, beta) - base) / 1e-4
    rel = float(np.linalg.norm(num - fd4) / np.linalg.norm(num))
    fd5 = (exact_transfer(n, 1e-5, beta) - base) / 1e-5
    ratio = float(np.linalg.norm(fd4 - num) / np.linalg.norm(fd5 - num))

    vj = np.abs(first_order_numeric(n, j)) ** 2
    share = float((vj[0] + vj[-1]) / vj.sum())

    ok = dev_a < 1e-8 and rel < 0.05 and 5 <= ratio <= 20 and share > 0.9
    _report(8, "center-barrier perturbation oracles", ok,
            f"beta=0 end deviation {dev_a:.3e} (tol 1e-8), beta=2 rel dev "
            f"{rel:.3e} (tol 0.05), O(eps) ratio {ratio:.2f} (range [5,20]), "
            f"beta=j end-pair share {share:.4f} (>0.9)")


def test_criterion_09_lifting_correctness():
    rng = np.random.default_rng(909)
    n = 3
    worst_amp = 0.0
    worst_lam = 0.0
    ranks_ok = True
    for m1 in (1, 2):
        for m2 in (1, 2):
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            z /= np.linalg.norm(z)
            c /= np.linalg.norm(c)
            state = two_sum_state(z, c, m1, 1)
            before = [schmidt_values(state, b).copy() for b in range(1, n)]
            psi = _all_amplitudes(state, n, m1 + 1)
            lift_first_site(state, m2)
            ref = dense.lift_site_amplitudes(psi, n, m1 + 1, 1, m2)
            after_amps = _all_amplitudes(state, n, m1 + 1 + m2)
            worst_amp = max(worst_amp, float(np.max(np.abs(after_amps - ref))))
            for b in range(1, n):
                after = schmidt_values(state, b)
                ranks_ok &= after.shape == before[b - 1].shape
                if b >= 2 and after.shape == before[b - 1].shape:
                    worst_lam = max(worst_lam,
                                    float(np.max(np.abs(after - before[b - 1]))))
    ok = worst_amp < 1e-10 and worst_lam < 1e-12 and ranks_ok
    _report(9, "first-site lifting vs dense creation operators", ok,
            f"amplitude deviation {worst_amp:.3e} (tol 1e-10), later-bond "
            f"Schmidt drift {worst_lam:.3e} (tol 1e-12), ranks stable {ranks_ok}")


def test_criterion_10_barrier_release_quench():
    start = time.perf_counter()
    n, m = 40, 20
    model = ModelSpec(n_sites=n, base="inverse_distance", j1=0.3,
                      trap_omega=0.00046 * (100 / n) ** 2,
                      barriers=((19, 22, 1000.0),))
    spec = ScenarioSpec(kind="quench_release", model=model, m=m,
                        t_start=0.0, t_end=200.0, steps=201,
                        snapshot_times=(100.0,))
    res = run_quench(spec)
    occ = res.occupations
    mirror = float(np.max(np.abs(occ - occ[:, ::-1])))
    central = occ[:, n // 2 - 2:n // 2 + 2].sum(axis=1)
    dip = int(np.argmin(central[20:])) + 20  # skip the initial fill-in ramp
    reassembles = bool(central[dip:].max() > central[dip] + 1.0)
    snap_dev = max(float(np.max(np.abs(cl - mp))) for _, cl, mp in res.snapshots)
    elapsed = time.perf_counter() - start
    ok = mirror < 1e-6 and reassembles and snap_dev < 1e-8 and elapsed < 300
    _report(10, "barrier-release quench (N=40, M=20)", ok,
            f"mirror asymmetry {mirror:.3e} (tol 1e-6), central dip "
            f"{central[dip]:.2f} -> {central[dip:].max():.2f} (reassembly "
            f"{reassembles}), snapshot deviation {snap_dev:.3e}, "
            f"{elapsed:.0f}s (budget 300s)")
