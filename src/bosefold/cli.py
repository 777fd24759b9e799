"""`bosefold` command line driver.

Subcommands: quench, sweep, ground, transfer, selftest.  Only `sweep` takes
`--threads K` (K >= 1 processes, each building one contiguous batch of the
barrier heights) and `--verbose` (one summary line per barrier height on
stderr).  The states of a batch are built together, so a line's wall time is
the time since the previous line of its batch; the first line of a batch
also holds the work the batch shares, and a batch's lines add up to its
time.  Exit codes:
0 success, 2 config error, 3 numeric/convergence error, 4 I/O error.
Output CSVs use 17 significant digits, '\n' line endings, and contain no
timestamps, so identical configs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import dense
from .config import parse_config
from .errors import BosefoldError, ConfigError
from .folding import fold_single, plan_to_text
from .heisenberg import ground_mode, spectral_decompose
from .model import build_coupling
from .mps import (amplitude, condensate_state, occupations, reduced_density_two_sites,
                  two_sum_state)
from .scenarios import (run_collision_sweep, run_ground_state, run_quench,
                        run_transfer)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# scenario kinds each subcommand runs
COMMAND_KINDS = {"quench": ("quench_release", "quench_raise"),
                 "sweep": ("collision_sweep",),
                 "ground": ("ground_state",),
                 "transfer": ("transfer_report",)}


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_occupations_csv(path, times, occ) -> None:
    lines = ["t,site,n\n"]
    for t, row in zip(times, occ):
        t = _fmt(float(t))
        lines.extend(f"{t},{site},{_fmt(n)}\n"
                     for site, n in enumerate(np.asarray(row, dtype=float).tolist(), start=1))
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def write_sweep_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("mu,mu_over_N,E_N_bits,collection_fraction,discarded_weight\n")
        for rec, n in records:
            fh.write(",".join([_fmt(rec.mu), _fmt(rec.mu / n), _fmt(rec.e_n_bits),
                               _fmt(rec.collection_fraction),
                               _fmt(rec.discarded_weight)]) + "\n")


def write_schmidt_csv(path, spectra) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("bond,index,lambda\n")
        for bond, lams in enumerate(spectra, start=1):
            for idx, lam in enumerate(lams, start=1):
                fh.write(f"{bond},{idx},{_fmt(float(lam))}\n")


def write_transfer_csv(path, report) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("k,exact_re,exact_im,first_order_re,first_order_im,"
                 "closed_form_re,closed_form_im\n")
        for k in range(report.n_sites):
            vals = [report.exact_row[k], report.first_order_numeric[k],
                    report.closed_form[k]]
            cells = [str(k + 1)]
            for z in vals:
                cells.append(_fmt(z.real))
                cells.append(_fmt(z.imag))
            fh.write(",".join(cells) + "\n")


def _dump_plan(spec, path) -> None:
    model = spec.model or spec.model_pre
    c = ground_mode(spectral_decompose(build_coupling(model)))
    with open(path, "w", newline="") as fh:
        fh.write(plan_to_text(fold_single(c)))


def _cmd_quench(spec, out_dir) -> int:
    result = run_quench(spec)
    write_occupations_csv(os.path.join(out_dir, "occupations.csv"),
                          result.times, result.occupations)
    if result.snapshots:
        times = [t for t, _, _ in result.snapshots]
        occ = [mps for _, _, mps in result.snapshots]
        write_occupations_csv(os.path.join(out_dir, "occupations_mps.csv"), times, occ)
    return EXIT_OK


def _cmd_sweep(spec, out_dir, threads, verbose) -> int:
    records = run_collision_sweep(spec, threads=threads)
    n = spec.model.n_sites
    if verbose:
        for rec in records:
            print(f"mu={rec.mu:.6g} E_N={rec.e_n_bits:.6g} bits "
                  f"collection={rec.collection_fraction:.6g} "
                  f"discarded={rec.discarded_weight:.3e} wall={rec.wall_time:.3f} s",
                  file=sys.stderr)
    write_sweep_csv(os.path.join(out_dir, "sweep.csv"), [(r, n) for r in records])
    return EXIT_OK


def _cmd_ground(spec, out_dir) -> int:
    result = run_ground_state(spec)
    write_occupations_csv(os.path.join(out_dir, "occupations.csv"),
                          [0.0], [result.occupations])
    write_schmidt_csv(os.path.join(out_dir, "schmidt.csv"), result.schmidt_spectra)
    return EXIT_OK


def _cmd_transfer(spec, out_dir) -> int:
    report = run_transfer(spec)
    write_transfer_csv(os.path.join(out_dir, "transfer.csv"), report)
    return EXIT_OK


def _selftest() -> int:
    """Oracle-equivalence spot checks against the dense Fock-space path.

    A check whose computation raises a `BosefoldError` is reported as FAIL.
    """
    rng = np.random.default_rng(20240817)
    failures = 0

    def check(name, deviation, tol):
        nonlocal failures
        try:
            dev = deviation()
        except BosefoldError as exc:
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            return
        ok = dev < tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: max deviation {dev:.3e} (tol {tol:g})")

    n, m = 5, 3
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    from .model import coupling_from_array
    r = coupling_from_array((h + h.conj().T) / 2)
    c = ground_mode(spectral_decompose(r))
    state = condensate_state(c, m)
    configs = dense.fock_configs(n, m)
    amps = np.array([amplitude(state, cfg) for cfg in configs])
    check("ground-state fold vs dense expansion",
          lambda: float(np.max(np.abs(amps - dense.condensate_amplitudes(c, m)))), 1e-9)
    check("condensate occupations vs m |c_k|^2",
          lambda: float(np.max(np.abs(occupations(state) - m * np.abs(c.coefficients) ** 2))),
          1e-12)

    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    z /= np.linalg.norm(z)
    w /= np.linalg.norm(w)
    state2 = two_sum_state(z, w, 2, 1)
    configs2 = dense.fock_configs(n, 3)
    amps2 = np.array([amplitude(state2, cfg) for cfg in configs2])
    check("two-sum fold vs dense expansion",
          lambda: float(np.max(np.abs(amps2 - dense.two_sum_amplitudes(z, w, 2, 1)))), 1e-9)
    for k, l in [(1, 5), (2, 4)]:
        check(f"two-sum rho_{{{k},{l}}} vs reduced pair oracle",
              lambda: float(np.max(np.abs(reduced_density_two_sites(state2, k, l)
                                          - dense.reduced_pair_oracle(z, w, 2, 1, k, l)))),
              1e-12)

    from .perturbation import exact_transfer
    check("perfect state transfer |A_1N(pi)|",
          lambda: abs(abs(exact_transfer(11, 0.0, 0.0)[-1]) - 1.0), 1e-10)
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bosefold",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("quench", "sweep", "ground", "transfer"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default=".")
        p.add_argument("--dump-plan", default=None)
        if name == "sweep":
            p.add_argument("--threads", type=_positive_int, default=1)
            p.add_argument("--verbose", action="store_true")
    sub.add_parser("selftest")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return _selftest()
        spec = parse_config(args.config)
        if spec.kind not in COMMAND_KINDS[args.command]:
            raise ConfigError(f"`{args.command}` runs kind "
                              f"{' or '.join(COMMAND_KINDS[args.command])}, "
                              f"config has kind {spec.kind!r}")
        os.makedirs(args.out_dir, exist_ok=True)
        if args.dump_plan:
            _dump_plan(spec, args.dump_plan)
        if args.command == "quench":
            return _cmd_quench(spec, args.out_dir)
        if args.command == "sweep":
            return _cmd_sweep(spec, args.out_dir, args.threads, args.verbose)
        if args.command == "ground":
            return _cmd_ground(spec, args.out_dir)
        if args.command == "transfer":
            return _cmd_transfer(spec, args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BosefoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
