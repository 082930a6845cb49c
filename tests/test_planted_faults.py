"""Planted faults that the default ``verify`` battery must catch.

Each fault is one small patch of the walker, the solver or a closed form,
reverted by the monkeypatch fixture, and one ``run_battery()`` at its
defaults (q = 2, levels 8, 100,000 walks, seed 42).  The battery must
fail, on the rows named.

One fault passes today, so it is not asserted here: every Monte Carlo
standard error scaled by 1.3.  A calibration of the z-scores across seeds
would catch it.
"""

import dataclasses

import numpy as np
import pytest

from resistive_walks import harmonic, tree, verify, walks
from resistive_walks.verify import run_battery


def scaled_root_edge(monkeypatch):
    # the root's first edge carries 1% more conductance, and pi follows it
    exhaustion = harmonic.exhaustion

    def faulty(gen, n):
        net, z = exhaustion(gen, n)
        c, pi = net.edge_c.copy(), net.pi.copy()
        extra = 0.01 * c[0]
        c[0] += extra
        pi[[net.edge_u[0], net.edge_v[0]]] += extra
        return dataclasses.replace(net, edge_c=c, pi=pi), z

    monkeypatch.setattr(harmonic, "exhaustion", faulty)
    monkeypatch.setattr(verify, "exhaustion", faulty)


def scaled_solver_voltage(monkeypatch):
    # every id's column, but not the root's column 0, R_n
    unit = harmonic._unit_current_voltage

    def faulty(gen, cols, n, tol):
        v, pi = unit(gen, cols, n, tol)
        return np.concatenate([v[:1], v[1:] * (1 + 1e-6)]), pi

    monkeypatch.setattr(harmonic, "_unit_current_voltage", faulty)


def scaled_back_block(monkeypatch):
    # the shell recursion's coupling B_k of each shell to the one before
    blocks = harmonic._shell_blocks

    def faulty(half, prev_lo, lo, hi):
        a_kk, b_k = blocks(half, prev_lo, lo, hi)
        return a_kk, b_k * 1.001

    monkeypatch.setattr(harmonic, "_shell_blocks", faulty)


def skewed_uniforms(monkeypatch):
    uniforms = walks._uniforms
    monkeypatch.setattr(walks, "_uniforms", lambda base, step: uniforms(base, step) ** 1.01)


def lazy_root(monkeypatch):
    # 2% of the root's steps stay at the root, through a slot of no edge
    step = walks._tree_step

    def faulty(q, leaf, cur, u):
        k, nxt = step(q, leaf, cur, u)
        stay = (cur == 0) & (u < 0.02)
        k[stay], nxt[stay] = -1, 0
        return k, nxt

    monkeypatch.setattr(walks, "_tree_step", faulty)


def shifted_green_oracle(monkeypatch):
    oracle = tree.oracle_green_hitting

    def faulty(q, d):
        green, hitting, transitions = oracle(q, d)
        return green + float(q) ** -8, hitting, transitions

    monkeypatch.setattr(tree, "oracle_green_hitting", faulty)


GREEN_ROWS = ["green/d=0", "green/d=1", "green/d=2"]


# the rows each fault fails, in the battery's order
FAULTS = {
    # every exhaustion is off, so are the rows read from the solve of the
    # last, and the limits' last radii, solves of exhaustions too; the
    # resistance_solver rows below n = 8 read the shell recursion, which
    # builds no exhaustion
    scaled_root_edge: [f"resistance/n={n}" for n in range(1, 9)] + [
        "resistance_solver/n=8", "escape/root_to_level_8", "green/d=0",
        "green/d=1", "hitting/d=1", "green/d=2", "hitting/d=2"],
    # v_n(x) 1e-6 high, relatively, moves G = pi(x) v by 1e-6 at d = 1 and
    # 2 (the route squares v / R), just past the rows' 1e-6, and v / R by
    # 5e-7; green/d=0 reads pi(0) R, from the root's column
    scaled_solver_voltage: GREEN_ROWS[1:],
    # R_n of the recursion's radii 1 .. 6; radius 0 has no B_k, and the
    # limits end on radii solved by sparse LU
    scaled_back_block: [f"resistance_solver/n={n}" for n in range(2, 8)],
    skewed_uniforms: ["mc/green_d0", "mc/hitting_d1"],
    # the root's visits rise; the stays are steps that went through slot
    # 0, the watched edge, so its transitions fall; and a stay reads as a
    # second root visit, a return from depth 1
    lazy_root: ["mc/green_d0", "mc/transitions_root_edge", "mc/hitting_d1"],
    shifted_green_oracle: GREEN_ROWS,
}


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.__name__)
def test_planted_fault_fails_the_battery(monkeypatch, fault):
    fault(monkeypatch)
    report = run_battery()
    assert report.exit_status == "fail"
    assert [r.quantity for r in report.results if r.verdict == "fail"] == FAULTS[fault]
