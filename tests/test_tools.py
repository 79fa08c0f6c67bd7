"""tools/bench_pairs.compare, on which every speed claim rests, on synthetic
runs: wins, the claim rule, the bound, and the separated and unresolved
verdicts; tools/bench_pairs.revision, which names the measured code;
tools/sdp_counts' tally of solves, its proof outcome and Schur path
columns, its --p option and its planted line; tools/fingerprint's
structures digest; and the two sides of tools/schur_crossover."""

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sosarp import sos_certify
from sosarp.arp_driver import ArpConfig
from sosarp import sdp_core
from sosarp.sdp_core import SdpProblem, SdpStatus, solve_sdp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from bench_pairs import compare, revision  # noqa: E402
from fingerprint import _Digest, add_problem, structures  # noqa: E402
import sdp_counts  # noqa: E402
from schur_crossover import both_paths  # noqa: E402
from sdp_counts import SolveCounter, count_columns, header  # noqa: E402
from conftest import planted_sdp, random_certified_model  # noqa: E402

LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "count", "better": "higher", "bound": 0.1}
# ten runs 1.00, 1.01, ..., 1.09: median 1.045, quartiles 1.0225 and 1.0675
PARENT = [1.0 + 0.01 * i for i in range(10)]


class TestWins:
    @pytest.mark.parametrize("spec", [LOWER, HIGHER], ids=["lower", "higher"])
    def test_ties_count_for_neither_side(self, spec):
        row = compare(spec, PARENT, list(PARENT))
        assert row["wins"] == 0
        assert row["ratio"] == 1.0
        assert not row["claimable"]
        assert not row["worse_than_bound"]

    def test_only_strict_gains_are_wins(self):
        # five ties, then five pairs where the change is lower
        change = PARENT[:5] + [p - 0.5 for p in PARENT[5:]]
        assert compare(LOWER, PARENT, change)["wins"] == 5
        # lower is worse for a higher-is-better metric: no wins at all
        assert compare(HIGHER, PARENT, change)["wins"] == 0


class TestClaimable:
    def test_all_pairs_won_by_more_than_the_spread(self):
        row = compare(LOWER, PARENT, [p - 0.2 for p in PARENT])
        assert row["wins"] == 10
        assert row["claimable"]
        assert row["ratio"] == pytest.approx(0.845 / 1.045)

    @pytest.mark.parametrize("lost, claimable", [(0, True), (1, True), (2, False)])
    def test_needs_nine_of_ten_wins(self, lost, claimable):
        # the first pairs are lost by a little, the rest won by a lot, so
        # the medians stay far apart whatever the count
        change = [p + 0.001 for p in PARENT[:lost]] + [p - 0.5 for p in PARENT[lost:]]
        row = compare(LOWER, PARENT, change)
        assert row["wins"] == 10 - lost
        assert abs(row["change"]["median"] - row["parent"]["median"]) > 0.045
        assert row["claimable"] is claimable

    @pytest.mark.parametrize("gain, claimable", [(0.04, False), (0.05, True)])
    def test_needs_a_gap_wider_than_the_parent_quartiles(self, gain, claimable):
        # every pair is won; the parent's interquartile range is 0.045
        row = compare(LOWER, PARENT, [p - gain for p in PARENT])
        assert row["wins"] == 10
        assert row["parent"]["q3"] - row["parent"]["q1"] == pytest.approx(0.045)
        assert row["claimable"] is claimable

    @pytest.mark.parametrize("spec, sign, claimable", [
        (LOWER, -1.0, True), (LOWER, 1.0, False),
        (HIGHER, 1.0, True), (HIGHER, -1.0, False)],
        ids=["lower-falls", "lower-rises", "higher-rises", "higher-falls"])
    def test_needs_the_better_direction(self, spec, sign, claimable):
        # a shift of 0.2 in every pair is wider than the spread either way;
        # only the direction that the metric calls better is a gain (with
        # nine tenths of the pairs won, the medians cannot move the other
        # way by more than the parent's quartiles, so the wins and the
        # direction fail together)
        row = compare(spec, PARENT, [p + sign * 0.2 for p in PARENT])
        assert row["claimable"] is claimable
        assert row["wins"] == (10 if claimable else 0)


class TestBound:
    @pytest.mark.parametrize("factor, worse", [(0.85, True), (0.95, False),
                                               (1.2, False)])
    def test_higher_is_better_metric(self, factor, worse):
        # bound 0.1: a median 15% lower is worse than the bound, 5% lower
        # is within it, and higher is no loss at all
        parent = [100.0 + i for i in range(10)]
        row = compare(HIGHER, parent, [factor * p for p in parent])
        assert row["worse_than_bound"] is worse

    @pytest.mark.parametrize("factor, worse", [(1.3, True), (1.2, False),
                                               (0.5, False)])
    def test_lower_is_better_metric(self, factor, worse):
        row = compare(LOWER, PARENT, [factor * p for p in PARENT])
        assert row["worse_than_bound"] is worse


# ten runs 1.0, 1.1, ..., 1.9: quartiles 1.225 and 1.675, 0.31 of the median
WIDE = [1.0 + 0.1 * i for i in range(10)]


class TestSeparated:
    @pytest.mark.parametrize("spec, sign", [(LOWER, -1.0), (HIGHER, 1.0)],
                             ids=["lower", "higher"])
    def test_every_change_run_better_than_every_parent_run(self, spec, sign):
        # a shift of 0.1 moves each run past the parent's best one
        assert compare(spec, PARENT, [p + sign * 0.1 for p in PARENT])["separated"]
        assert not compare(spec, PARENT, [p - sign * 0.1 for p in PARENT])["separated"]

    def test_one_overlap_or_tie_is_not_separated(self):
        change = [p - 0.1 for p in PARENT]
        change[-1] = PARENT[0]  # a tie with the parent's best run
        row = compare(LOWER, PARENT, change)
        assert not row["separated"]
        change[-1] = PARENT[0] - 1e-9
        assert compare(LOWER, PARENT, change)["separated"]


class TestUnresolved:
    def test_spread_wider_than_the_bound(self):
        # the parent's quartiles lie 0.31 of its median apart, the bound is
        # 0.25: an unchanged metric cannot be told from a regression
        row = compare(LOWER, WIDE, list(WIDE))
        assert not row["worse_than_bound"]
        assert row["unresolved"]
        assert compare(HIGHER, WIDE, list(WIDE))["unresolved"]

    def test_separated_sides_are_resolved(self):
        row = compare(LOWER, WIDE, [0.5 + 0.01 * i for i in range(10)])
        assert row["separated"]
        assert not row["unresolved"]

    def test_spread_within_the_bound(self):
        # PARENT's quartiles lie 0.043 of its median apart
        assert not compare(LOWER, PARENT, list(PARENT))["unresolved"]
        # the spread counts relative to the median: 0.0045 apart at a
        # median of 0.0145 is 0.31 of it
        small = [0.01 + 0.001 * i for i in range(10)]
        assert compare(LOWER, small, list(small))["unresolved"]


class TestSolveCounter:
    def test_two_solves(self):
        # trace(X) = 1 is solvable; trace(X) = -1 has no PSD solution
        feasible = SdpProblem(objective=[np.eye(3)], constraints=[np.eye(3)[None]],
                              b=[1.0])
        infeasible = feasible.with_rhs([-1.0])
        counter = SolveCounter(solve_sdp)
        solutions = [counter(feasible), counter(infeasible, tol=1e-8)]
        assert [s.status for s in solutions] == [SdpStatus.OPTIMAL,
                                                 SdpStatus.INFEASIBLE]
        # without a post-solve proof to wrap, neither solve is proven
        assert counter.counts == {"sdps": 2,
                                  "ipm_iters": sum(s.iterations for s in solutions),
                                  "Optimal": 1, "Infeasible": 1, "unproven": 2}
        assert counter.counts["ipm_iters"] > 2

    def test_sums_per_gram_size(self):
        # the Gram size is the first block's: two solves at 3, one at 2
        three = SdpProblem(objective=[np.eye(3), np.ones((1, 1))],
                           constraints=[np.eye(3)[None], np.ones((1, 1, 1))], b=[1.0])
        two = SdpProblem(objective=[np.eye(2)], constraints=[np.eye(2)[None]], b=[1.0])
        counter = SolveCounter(solve_sdp)
        solutions = [counter(three), counter(two), counter(three.with_rhs([-1.0]))]
        assert [s.status for s in solutions] == [SdpStatus.OPTIMAL, SdpStatus.OPTIMAL,
                                                 SdpStatus.INFEASIBLE]
        iterations = [s.iterations for s in solutions]
        assert counter.by_size == {
            3: {"sdps": 2, "ipm_iters": iterations[0] + iterations[2],
                "Optimal": 1, "Infeasible": 1, "unproven": 2},
            2: {"sdps": 1, "ipm_iters": iterations[1], "Optimal": 1, "unproven": 1}}
        assert counter.counts == sum(counter.by_size.values(), type(counter.counts)())


    def test_certified_column(self):
        assert "Certified" in header("seed", count_columns(SdpStatus)).split()
        # a stubbed solve that ends on a certificate is tallied under it
        problem = SdpProblem(objective=[np.eye(3), np.ones((1, 1))],
                             constraints=[np.eye(3)[None], np.ones((1, 1, 1))],
                             b=[1.0])
        counter = SolveCounter(lambda problem, tol, certify=None: SimpleNamespace(
            status=SdpStatus.CERTIFIED, iterations=7))
        counter(problem, 1e-10, certify=lambda X, log: X)
        assert counter.counts == {"sdps": 1, "ipm_iters": 7, "Certified": 1,
                                  "proven_iterate": 1}
        assert counter.by_size == {3: counter.counts}

    def test_proof_outcome_columns(self):
        columns = header("seed", count_columns(SdpStatus)).split()
        assert columns[-4:] == ["proven_iterate", "proven_solve", "proven_lift",
                                "unproven"]
        # three stubbed solves that stall at Gram size 3, proven by the
        # stubbed post-solve proof at its own sigma, after a lift, and not
        problem = SdpProblem(objective=[np.eye(3), np.ones((1, 1))],
                             constraints=[np.eye(3)[None], np.ones((1, 1, 1))],
                             b=[1.0])
        stalled = SimpleNamespace(status=SdpStatus.NUMERICAL_FAILURE, iterations=4,
                                  X=[np.eye(3), np.ones((1, 1))])
        proofs = iter([(0.0, np.eye(3)), (6.25e-8, np.eye(3)), None])
        counter = SolveCounter(lambda problem, tol: stalled,
                               lambda structure, b, solution, gap: next(proofs))
        for _ in range(3):
            counter.prove(None, problem.b, counter(problem, 1e-10), 5e-7)
        assert counter.counts == {"sdps": 3, "ipm_iters": 12, "NumericalFailure": 3,
                                  "proven_solve": 1, "proven_lift": 1, "unproven": 1}
        assert counter.by_size == {3: counter.counts}

    def test_count_pass_wraps_the_post_solve_proof(self, monkeypatch):
        # a pass whose one SDP runs to the gap without the certify hook, so
        # that it is proven after the solve: the wrapper
        # sees the proof, and both module functions are restored after it
        solve, prove_after = sos_certify.solve_sdp, sos_certify._proven_after_solve
        model = random_certified_model(np.random.default_rng(6), 2, 3)

        class Workload:
            def __init__(self, seed):
                pass

            def warm_up(self):
                pass

            def run_pass(self, clock):
                sos_certify.min_sigma_sos(model)

        monkeypatch.setattr(sos_certify, "solve_sdp", lambda problem, tol, certify=None:
                            solve(problem, tol))
        unhooked = sos_certify.solve_sdp
        workloads = SimpleNamespace(WORKLOADS={"one": Workload}, sos_certify=sos_certify)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        counter = sdp_counts.count_pass(workloads, "one", 0)
        assert counter.counts["sdps"] == 1 and counter.counts["Optimal"] == 1
        assert counter.counts["proven_solve"] + counter.counts["proven_lift"] == 1
        assert counter.counts["unproven"] == 0
        assert sos_certify.solve_sdp is unhooked
        assert sos_certify._proven_after_solve is prove_after

    def test_schur_path_per_gram_size(self):
        # (4, 4), 150 rows, solves at sample points; the bundled runs' (2, 4)
        # over its rows; a stand-in for a checkout older than the samples too
        counter = SolveCounter(lambda problem, tol: SimpleNamespace(
            status=SdpStatus.CERTIFIED, iterations=3))
        for n, p_prime in [(4, 4), (2, 4), (4, 4)]:
            counter(sos_certify._gram_structure(n, p_prime).problem, 1e-10)
        older = SimpleNamespace(block_sizes=[6, 1])
        counter(older, 1e-10)
        assert counter.paths == {20: {"samples"}, 6: {"rows"}}
        assert counter.by_size[20]["sdps"] == 2 and counter.by_size[6]["sdps"] == 2


class TestOrderOption:
    def test_bundled_problems_rerun_at_the_order(self, monkeypatch, capsys):
        # a stand-in for bench/workloads.py whose bundled pass solves one
        # stubbed SDP per problem, over the Gram structure of its config's p
        orders = []

        class Bundled:
            def __init__(self, seed):
                self.problems = [(name, None, ArpConfig(p=3)) for name in ("quad2", "cubic2")]

            def warm_up(self):
                pass

            def run_pass(self, clock):
                for _, _, config in self.problems:
                    orders.append(config.p)
                    p_prime = sos_certify.regularizer_order(config.p)
                    workloads.sos_certify.solve_sdp(
                        sos_certify._gram_structure(2, p_prime).problem, 1e-10)

        class Unused:
            def __init__(self, seed):
                raise AssertionError("--p runs bundled_runs only")

        stub = SimpleNamespace(status=SdpStatus.CERTIFIED, iterations=5)
        workloads = SimpleNamespace(
            WORKLOADS={"bundled_runs": Bundled, "scans": Unused},
            sos_certify=SimpleNamespace(SdpStatus=SdpStatus,
                                        solve_sdp=lambda problem, tol: stub))
        monkeypatch.setattr(sdp_counts, "load_checkout", lambda checkout: workloads)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        assert sdp_counts.main([".", "--p", "4"]) == 0
        assert orders == [4, 4]
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        columns = lines[0][2:]
        expected = dict.fromkeys(columns, "0")
        expected.update(sdps="2", ipm_iters="10", Certified="2", proven_iterate="2")
        # the seed line, the sum and one line for Gram size 12, (n, p') = (2, 6)
        assert [line[:2] for line in lines[1:]] == [
            ["bundled_p4", "0"], ["bundled_p4", "sum"], ["workload", "gram"],
            ["bundled_p4", "12"]]
        for line in (lines[1], lines[2], lines[4]):
            assert dict(zip(columns, line[2:])) == expected
        # the Gram-size line ends with its Schur path: 45 rows stay on the rows
        assert lines[3][-1] == "schur" and lines[4][-1] == "rows"



class TestPlantedLine:
    ROOT = Path(__file__).resolve().parent.parent

    def test_counts_acceptance_9s_batch(self):
        # a stubbed solve sees ACCEPTANCE 9's hundred problems in order,
        # the first of them planted_sdp's first draw from seed 0
        seen = []

        def solve(problem):
            seen.append(problem)
            return SimpleNamespace(status=SdpStatus.OPTIMAL, iterations=3)

        counts = sdp_counts.count_planted(self.ROOT, solve)
        assert counts == {"sdps": 100, "ipm_iters": 300, "Optimal": 100}
        first, _ = planted_sdp(np.random.default_rng(0), max_block=20, max_m=100)
        assert len(seen) == 100 and np.array_equal(seen[0].b, first.b)

    def test_printed_after_the_sums(self, monkeypatch, capsys):
        # a stand-in checkout without workloads: the header, the planted
        # line with its proof outcome columns at 0, then the Gram-size
        # header (TestOrderOption shows that --p prints no planted line)
        stub = SimpleNamespace(status=SdpStatus.OPTIMAL, iterations=2)
        workloads = SimpleNamespace(WORKLOADS={}, sos_certify=SimpleNamespace(
            SdpStatus=SdpStatus, solve_sdp=lambda problem: stub))
        monkeypatch.setattr(sdp_counts, "load_checkout", lambda checkout: workloads)
        assert sdp_counts.main([str(self.ROOT)]) == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [line[:2] for line in lines] == [["workload", "seed"], ["planted", "0"],
                                                ["workload", "gram"]]
        expected = dict.fromkeys(lines[0][2:], "0")
        expected.update(sdps="100", ipm_iters="200", Optimal="100")
        assert dict(zip(lines[0][2:], lines[1][2:])) == expected

def _digest(hash_into, *args) -> str:
    digest = _Digest()
    hash_into(digest, *args)
    return digest.hexdigest()


class TestStructuresDigest:
    def test_hashes_what_construction_keeps(self):
        # one grid cell, (n, p) = (2, 3): the structure of the bundled runs
        workloads = SimpleNamespace(GRID_CELLS=((2, 3),), p_prime=lambda p: p + 1,
                                    sos_certify=sos_certify)
        problem = sos_certify._gram_structure(2, 4).problem
        scatter = problem._scatter
        expected = _Digest()
        expected.add("structure", 2, 4)
        expected.add(scatter.rows, scatter.cells, scatter.values, problem._gram_inv,
                     problem._a_scale)
        assert _digest(structures, workloads) == expected.hexdigest()

    def test_moves_with_one_constraint_value(self):
        # the same data gives the same digest; one entry changed, the
        # scatter's values, the inverse and the scale move with it
        def problem(entry):
            A = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, entry]]])
            return SdpProblem(objective=[np.eye(2)], constraints=[A], b=[1.0, 0.0])

        assert _digest(add_problem, problem(2.0)) == _digest(add_problem, problem(2.0))
        assert _digest(add_problem, problem(2.0)) != _digest(add_problem, problem(3.0))

    def test_hashes_the_samples(self):
        # (4, 4) takes samples; the same constraints built without them
        _, without, problem = both_paths(sos_certify, sdp_core, 4, 4)
        assert problem._samples is not None and without._samples is None
        assert _digest(add_problem, problem) != _digest(add_problem, without)


class TestSchurCrossover:
    def test_both_paths_of_a_structure_below_the_crossover(self):
        # (2, 4) takes the rows; the tool builds its samples for the other side
        structure, rows, sampled = both_paths(sos_certify, sdp_core, 2, 4)
        assert structure.problem._samples is None and rows._samples is None
        assert sampled._samples is not None and len(sampled._samples.s) == 18
        b = np.zeros(18)
        b[0] = 1.0  # H_bar[0, 0] = 1: every other model coefficient 0
        solutions = [solve_sdp(problem.with_rhs(b)) for problem in (rows, sampled)]
        assert [s.status for s in solutions] == [SdpStatus.OPTIMAL] * 2
        np.testing.assert_allclose(solutions[1].X[1], solutions[0].X[1], atol=1e-7)


def _git(repo: Path, *args) -> str:
    done = subprocess.run(["git", "-c", "user.name=test", "-c", "user.email=test@example.com",
                           "-c", "commit.gpgsign=false", *args],
                          cwd=repo, check=True, capture_output=True, text=True)
    return done.stdout.strip()


class TestRevision:
    @pytest.fixture()
    def checkout(self, tmp_path) -> Path:
        """A one-commit repository with a src/ file, a file outside src/ and
        a .gitignore for bytecode."""
        repo = tmp_path / "repo"
        (repo / "src" / "pkg").mkdir(parents=True)
        (repo / "src" / "pkg" / "solver.py").write_text("STEP = 1\n")
        (repo / "README").write_text("outside src\n")
        (repo / ".gitignore").write_text("__pycache__/\n")
        _git(repo, "init", "--quiet")
        _git(repo, "add", "--all")
        _git(repo, "commit", "--quiet", "-m", "first")
        return repo

    def test_clean_checkout_names_head_src(self, checkout):
        rev = revision(checkout)
        assert rev["src_tree"] == _git(checkout, "rev-parse", "HEAD:src")
        assert rev["commit"] == _git(checkout, "rev-parse", "--short", "HEAD")

    def test_dirty_src_file_changes_the_tree(self, checkout):
        clean = revision(checkout)["src_tree"]
        solver = checkout / "src" / "pkg" / "solver.py"
        solver.write_text("STEP = 2\n")
        dirty = revision(checkout)
        assert dirty["commit"].endswith("-dirty")
        assert dirty["src_tree"] != clean
        solver.write_text("STEP = 1\n")
        assert revision(checkout)["src_tree"] == clean

    def test_ignored_and_outside_files_leave_the_tree(self, checkout):
        clean = revision(checkout)["src_tree"]
        cache = checkout / "src" / "pkg" / "__pycache__"
        cache.mkdir()
        (cache / "solver.pyc").write_bytes(b"\0")
        (checkout / "README").write_text("changed\n")
        assert revision(checkout)["src_tree"] == clean

    def test_copy_without_git(self, checkout, tmp_path):
        # a copy made without .git, as git archive makes one, still names
        # its src/ files
        copy = tmp_path / "copy"
        shutil.copytree(checkout, copy, ignore=shutil.ignore_patterns(".git"))
        rev = revision(copy)
        assert rev["commit"] is None
        assert rev["src_tree"] == revision(checkout)["src_tree"]
