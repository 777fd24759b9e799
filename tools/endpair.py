"""Large-M end-pair checks of the collision, one table row per point.

Usage, from the repository root:

    python3 tools/endpair.py ROW

ROW is a name in `ROWS`.  Every row is the collision the sweep measures: a
`jx` chain of N sites with a barrier of height mu on sites N/2 and N/2 + 1,
packets of M/2 bosons each in rows 1 and N of A(pi), built with site N moved
to position 2 (`two_sum_state`, chi_max (M/2 + 1)^2, trunc_tol 1e-12) and rho_{1,N} read as
rho_{1,2} of that build (`reduced_density_two_sites`).  A row then checks,
each where it gives a bound:
- the peak RSS of the process, read after rho (before E_N runs) or after E_N;
- E_N in bits against a reference, within 1e-6;
- <n_1> + <n_N> read off rho against the closed form (`occupations_oracle`);
- rho against its four-mode oracle (`reduced_pair_oracle`);
- the build's discarded weight;
- every bond's kept Schmidt values against `bond_schmidt_oracle`, on a
  chain-order build, the order that oracle describes;
- and, in every row, rho_{1,N} as the sweep reads it (`end_pair_densities`)
  within 1e-10 of the written state's.
It prints the measured numbers on one line and exits 1 if any check fails.
BLAS and OpenMP are pinned to one thread, so the peak RSS is that of one
thread's work; run each row in a fresh process, as the peak is the process's.
"""
import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np  # noqa: E402

from bosefold.dense import bond_schmidt_oracle, reduced_pair_oracle  # noqa: E402
from bosefold.entanglement import logneg_partial_transpose  # noqa: E402
from bosefold.heisenberg import (occupations_oracle, packet_modes, propagate,  # noqa: E402
                                 spectral_decompose)
from bosefold.model import ModelSpec, add_onsite_barrier, build_coupling  # noqa: E402
from bosefold.mps import (end_pair_densities, reduced_density_two_sites,  # noqa: E402
                          schmidt_values, two_sum_state)

TRUNC_TOL = 1e-12
E_N_TOL = 1e-6  # bits
SWEEP_RHO_TOL = 1e-10  # as tests/test_mps.py holds end_pair_densities to the written state


@dataclass(frozen=True)
class Row:
    """One point and its bounds; None where the point has no such check."""

    n: int
    m: int
    mu: float
    rss_mb: float | None = None
    rss_before_e_n: bool = True  # else the peak is read after E_N
    e_n: float | None = None  # reference, bits
    occ_tol: float | None = None
    oracle_tol: float | None = None
    bond_tol: float | None = None
    weight_max: float | None = None


# chi_max (M/2 + 1)^2 keeps every charge of the N = 20 builds.  M = 84 puts up
# to 84 bosons on an end site, past n = 81, where 1/sqrt(n!) falls below 1e-60;
# its oracle tolerance is the oracle's own rounding at that M.  M = 256 reads
# RSS before E_N, whose zero-padded gather would dominate it.  The N = 40 and
# N = 100 packets have tails near 1e-17 over 38-98 sites, the amplitudes a
# magnitude floor would set to 0.
ROWS = {
    "m32": Row(n=20, m=32, mu=6.0, rss_mb=250, oracle_tol=1e-10, bond_tol=5e-9),
    "m64": Row(n=20, m=64, mu=6.0, rss_mb=200, rss_before_e_n=False, e_n=3.886856,
               oracle_tol=1e-8),
    "m84": Row(n=20, m=84, mu=6.0, rss_mb=200, occ_tol=1e-8, oracle_tol=1e-6),
    "m128": Row(n=20, m=128, mu=6.0, rss_mb=350, rss_before_e_n=False, e_n=4.043504,
                occ_tol=1e-8),
    "m256": Row(n=20, m=256, mu=6.0, rss_mb=600, e_n=4.132783, occ_tol=1e-8),
    "n40": Row(n=40, m=32, mu=18.0, e_n=4.408051, occ_tol=1e-8, weight_max=1e-10),
    "n100": Row(n=100, m=32, mu=45.0, e_n=4.565843, occ_tol=1e-8, weight_max=1e-10),
}


def measure(row: Row):
    """Build the row's point and run its checks: (report line, names of the
    checks that failed)."""
    n, half = row.n, row.m // 2
    r = add_onsite_barrier(build_coupling(ModelSpec(n_sites=n, base="jx")), n // 2, n // 2 + 1,
                           row.mu)
    a = propagate(spectral_decompose(r), np.pi)
    z, c = a.entries[:, 0], a.entries[:, n - 1]
    numerics = {"chi_max": (half + 1) ** 2, "trunc_tol": TRUNC_TOL}
    order = [0, n - 1, *range(1, n - 1)]
    st = two_sum_state(z[order], c[order], half, half, **numerics)
    rho = reduced_density_two_sites(st, 1, 2)
    parts, failed = [], []

    def check(name, text, ok):
        parts.append(text)
        if not ok:
            failed.append(name)

    def read_rss(when):
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        check("peak RSS", f"peak RSS {when} E_N {peak_mb:.0f} MB", peak_mb <= row.rss_mb)

    if row.rss_mb is not None and row.rss_before_e_n:
        read_rss("before")
    if row.e_n is not None:
        e_n = logneg_partial_transpose(rho).value
        check("E_N", f"E_N {e_n:.6f} bits", abs(e_n - row.e_n) <= E_N_TOL)
    if row.rss_mb is not None and not row.rss_before_e_n:
        read_rss("after")
    if row.occ_tol is not None:
        level, i = np.arange(row.m + 1)[:, None], np.arange(row.m + 1)
        both = np.sum(np.einsum("nii->ni", rho).real * np.where(i <= level, level, 0))
        occ = occupations_oracle(packet_modes([(1, half), (n, half)], a))
        occ_dev = abs(both - occ[0] - occ[n - 1])
        check("occupations", f"<n_1> + <n_N> {occ_dev:.2e} from the closed form",
              occ_dev <= row.occ_tol)
    if row.oracle_tol is not None:
        dev = np.max(np.abs(rho - reduced_pair_oracle(z, c, half, half, 1, n)))
        check("rho oracle", f"rho_1N oracle deviation {dev:.2e}", dev <= row.oracle_tol)
    if row.weight_max is not None:
        check("discarded weight", f"discarded weight {st.discarded_weight:.1e}",
              st.discarded_weight <= row.weight_max)
    if row.bond_tol is not None:
        chain = two_sum_state(z, c, half, half, **numerics)
        bond_dev = 0.0
        for bond in range(1, n):
            lam = schmidt_values(chain, bond)
            ref = bond_schmidt_oracle(z, c, half, half, bond)[:lam.shape[0]]
            bond_dev = max(bond_dev, float(np.max(np.abs(lam[:ref.shape[0]] - ref))))
        check("bond oracle", f"kept Schmidt values {bond_dev:.2e} from the bond oracle",
              bond_dev <= row.bond_tol)
    [(sweep_rho, _)] = end_pair_densities([(z[order], c[order])], half, half, **numerics)
    sweep_dev = np.max(np.abs(sweep_rho - rho))
    check("sweep-path rho", f"sweep-path rho {sweep_dev:.1e} from the written state's",
          sweep_dev <= SWEEP_RHO_TOL)
    line = f"N = {n}, M = {row.m}, mu = {row.mu:g}: " + ", ".join(parts)
    return line, failed


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in ROWS:
        print(f"usage: python3 tools/endpair.py ROW, ROW one of {', '.join(ROWS)}",
              file=sys.stderr)
        return 2
    line, failed = measure(ROWS[argv[0]])
    print(line)
    if failed:
        print(f"{argv[0]}: failed {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
