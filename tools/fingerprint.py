"""One SHA-256 over every benchmark output of a sosarp checkout.

Usage: python3 tools/fingerprint.py CHECKOUT

Imports sosarp from CHECKOUT/src and the benchmark's input generators from
CHECKOUT/bench/workloads.py, then hashes, at seeds 0 and 3:

- every certify_grid model's sigma_bar, certificate Q and residual, and the
  verify_certificate report at that sigma_bar;
- every row of both scans;
- every bundled run's status, final x and records (k, sigma_bar, sigma,
  rho, step_norm, f_after, flags).

Floats enter as their exact repr and arrays as their raw bytes, so two
checkouts print the same digest only if every output is bit-identical.
The first line is the digest of everything; one line per workload follows,
its digest over that workload's outputs at both seeds, so a difference
shows which workload moved.  A last line, `structures`, hashes what the SDP
construction keeps for each Gram structure the benchmark solves: the
constraint scatter's rows, cells and values, the inverse constraint Gram
matrix, the data scale and, for a structure solved at sample points, the
constraint samples.  A change to construction alone is checked there,
where the data is made; it stays out of the first line, which therefore
compares with digests recorded before it existed.  Run it on two checkouts
(for instance a `git clone` of the parent commit and the working tree) and
compare the printed lines.

Rounding inside BLAS depends on the library and its thread count, so the
first line also names numpy's and scipy's BLAS builds and the pinned thread
setting; two digests compare only when those agree.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

SEEDS = (0, 3)
# BLAS runs single-threaded, as in bench/run_bench.py, so the summation
# order inside every product is fixed
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_checkout(checkout: Path):
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import workloads
    if not Path(workloads.sos_certify.__file__).resolve().is_relative_to(
            (checkout / "src").resolve()):
        raise SystemExit(f"sosarp was not imported from {checkout / 'src'}")
    return workloads


class _Digest:
    """SHA-256 of the items added; each one also goes into total's hash."""

    def __init__(self, total: Optional["_Digest"] = None) -> None:
        self._hash = hashlib.sha256()
        self._total = total

    def _update(self, data: bytes) -> None:
        self._hash.update(data)
        if self._total is not None:
            self._total._update(data)

    def add(self, *items) -> None:
        for item in items:
            if hasattr(item, "tobytes"):
                self._update(repr(item.shape).encode())
                self._update(item.tobytes())
            else:
                self._update(repr(item).encode())
            self._update(b"\0")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _call(digest: _Digest, fn, *args):
    """fn(*args); an exception is hashed as the output instead."""
    try:
        return fn(*args)
    except Exception as err:  # a failing operation is an output too
        digest.add("error", type(err).__name__, str(err))
        return None


def _certify_grid(digest: _Digest, workloads, seed: int) -> None:
    sos_certify = workloads.sos_certify
    for label, model in workloads.CertifyGrid(seed).models:
        digest.add("grid", label)
        out = _call(digest, sos_certify.min_sigma_sos, model)
        if out is None:
            continue
        sigma_bar, cert = out
        report = sos_certify.verify_certificate(cert, replace(model, sigma=sigma_bar))
        digest.add(sigma_bar, cert.Q, cert.residual, report.max_coeff_mismatch,
                   report.gram_min_eigenvalue, report.hessian_violations,
                   report.samples, report.ok)


def _scans(digest: _Digest, workloads, seed: int) -> None:
    for label, config in workloads.Scans(seed).configs.items():
        digest.add("scan", label)
        result = _call(digest, getattr(workloads.experiments, label), config)
        if result is None:
            continue
        digest.add(result.slope, result.failure_count)
        for row in result.rows:
            digest.add(row.row, row.x, row.seed, row.sigma_bar, row.status,
                       row.slope)


def _bundled_runs(digest: _Digest, workloads, seed: int) -> None:
    for name, func, config in workloads.BundledRuns(seed).problems:
        digest.add("run", name)
        result = _call(digest, workloads.arp_driver.run, func, config)
        if result is None:
            continue
        digest.add(result.status.value, result.x)
        for rec in result.records:
            digest.add(rec.k, rec.sigma_bar, rec.sigma, rec.rho, rec.step_norm,
                       rec.f_after, rec.flags)


def add_problem(digest: _Digest, problem) -> None:
    """The constraint data an SdpProblem keeps from its construction."""
    scatter = problem._scatter
    digest.add(scatter.rows, scatter.cells, scatter.values, problem._gram_inv,
               problem._a_scale)
    # a checkout older than the sampled Schur path has no samples
    samples = getattr(problem, "_samples", None)
    if samples is not None:
        digest.add(*samples)


def structures(digest: _Digest, workloads) -> None:
    """add_problem of the SDP of every (n, p') on the certification grid,
    which holds the bundled runs' and the scans' (2, 4) too."""
    for n, p in workloads.GRID_CELLS:
        p_prime = workloads.p_prime(p)
        digest.add("structure", n, p_prime)
        add_problem(digest, workloads.sos_certify._gram_structure(n, p_prime).problem)


# in the order they enter the total digest at each seed
WORKLOADS = {"certify_grid": _certify_grid, "scans": _scans,
             "bundled_runs": _bundled_runs}


def blas_build(module) -> dict:
    """Name and version of the BLAS a numpy or scipy module was built with,
    in the form of bench/run_bench.py's machine record."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode argument
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _blas(module) -> str:
    blas = blas_build(module)
    return f"{module.__name__}:{blas['name']}-{blas['version']}"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    workloads = load_checkout(Path(argv[1]).resolve())
    digest = _Digest()
    parts = {name: _Digest(digest) for name in WORKLOADS}
    for seed in SEEDS:
        digest.add("seed", seed)
        for name, hash_outputs in WORKLOADS.items():
            hash_outputs(parts[name], workloads, seed)
    import numpy  # already loaded by load_checkout, after the thread setting was pinned
    import scipy
    threads = " ".join(f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS)
    print(f"{digest.hexdigest()}  seeds={','.join(map(str, SEEDS))}  "
          f"blas={_blas(numpy)},{_blas(scipy)}  {threads}")
    for name, part in parts.items():
        print(f"{part.hexdigest()}  {name}")
    built = _Digest()
    structures(built, workloads)
    print(f"{built.hexdigest()}  structures")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
