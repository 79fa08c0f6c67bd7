"""Time per IPM iteration of the certification SDP over its rows and at
sample points, per Gram structure: the measurement behind
sos_certify._SAMPLED_ROWS.

Usage: python3 tools/schur_crossover.py CHECKOUT [--cells N,P ...]
           [--models K] [--passes R]

Imports sosarp and the workloads from CHECKOUT as tools/fingerprint.py does
(one BLAS thread).  For each (n, p) cell, by default certify_grid's, it
poses the min-sigma SDP of the first K seed-0 grid models, balanced and
scaled as min_sigma_sos poses them, twice: without constraint samples and
with them, built by sos_certify._constraint_samples where the structure
has none.  The two sides solve all K models in turn, R passes each,
alternating which goes first, to the solver's default tolerance and
without the certify hook; each pass gives its milliseconds per IPM
iteration.  One line per cell gives m, the Gram size, the path the
checkout takes, each side's median over the passes and their ratio.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

from fingerprint import load_checkout


def both_paths(sos_certify, sdp_core, n: int, p_prime: int):
    """The structure and its SDP over the rows and at sample points, both
    built afresh from the structure's basis pairs, as _gram_structure builds
    its own, without and with sos_certify._constraint_samples."""
    import numpy as np  # loaded by load_checkout, after the thread setting was pinned
    structure = sos_certify._gram_structure(n, p_prime)
    pairs, m, size = structure.pairs, len(structure.rows), len(structure.basis)
    pair_matrices = np.zeros((m, size, size))
    pair_matrices[pairs.bins, pairs.u, pairs.w] = \
        pair_matrices[pairs.bins, pairs.w, pairs.u] = 1.0
    rows, sampled = (sdp_core.SdpProblem(
        objective=[np.zeros((size, size)), np.ones((1, 1))],
        constraints=[pair_matrices, -structure.reg[:, None, None]], b=np.zeros(m),
        samples=samples)
        for samples in (None, sos_certify._constraint_samples(n, p_prime, structure.reg)))
    return structure, rows, sampled


def ms_per_iteration(solve_sdp, problem, sides) -> float:
    start = time.perf_counter()
    iterations = sum(solve_sdp(problem.with_rhs(b)).iterations for b in sides)
    return (time.perf_counter() - start) / iterations * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--cells", nargs="+", help="(n, p) cells as N,P")
    parser.add_argument("--models", type=int, default=3)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    workloads = load_checkout(args.checkout.resolve())
    sos_certify = workloads.sos_certify
    from sosarp import sdp_core  # the checkout's, imported by load_checkout
    cells = ([tuple(int(v) for v in cell.split(",")) for cell in args.cells]
             if args.cells else list(workloads.GRID_CELLS))
    for n, p in cells:
        p_prime = sos_certify.regularizer_order(p)
        structure, rows, sampled = both_paths(sos_certify, sdp_core, n, p_prime)
        sides = []
        for k in range(args.models):
            model = workloads.grid_model(0, n, p, k)
            b = sos_certify._scale_rows(structure,
                                        sos_certify._coefficients(model, structure, 0.0),
                                        sos_certify._balancing_exponent(model))
            sides.append(b / max(1.0, float(abs(b).max())))
        times = {"rows": [], "samples": []}
        order = [("rows", rows), ("samples", sampled)]
        for _ in range(args.passes):
            for name, problem in order:
                times[name].append(ms_per_iteration(sdp_core.solve_sdp, problem, sides))
            order.reverse()
        rows_ms, samples_ms = (statistics.median(times[name]) for name in times)
        path = "rows" if structure.problem._samples is None else "samples"
        print(f"(n, p') = ({n}, {p_prime})  m {len(structure.rows):5d}"
              f"  size {len(structure.basis):4d}  takes {path:7s}"
              f"  rows {rows_ms:8.3f} ms/it  samples {samples_ms:8.3f} ms/it"
              f"  ratio {samples_ms / rows_ms:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
