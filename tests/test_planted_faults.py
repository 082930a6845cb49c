"""Planted faults that the default ``verify`` battery must catch.

Each fault is one small patch of the walker, the solver or a closed form,
reverted by the monkeypatch fixture, and one ``run_battery()`` at its
defaults (q = 2, levels 8, 100,000 walks, seed 42).  The battery must
fail, on the rows named.

Two faults pass today, so they are not asserted here:

- ``harmonic._shell_blocks`` returning ``B_k * 1.001``.  At q = 2 the
  transience verdict needs ``C_n`` stable to ``TRANSIENCE_EPS`` = 1e-3, so
  every tree limit of the battery ends on radii solved by sparse LU (8 and
  9 when clean; the faulty sweep runs on to 10 and 11).  No term of the
  recursion reaches a row, and no radius is confirmed.
- Every Monte Carlo standard error scaled by 1.3.  A calibration of the
  z-scores across seeds would catch it.
"""

import dataclasses

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
    unit = harmonic._unit_current_voltage

    def faulty(gen, x, n, tol):
        vx, r, pi_x = unit(gen, x, n, tol)
        return vx * (1 + 1e-6), r, pi_x

    monkeypatch.setattr(harmonic, "_unit_current_voltage", faulty)


def skewed_uniforms(monkeypatch):
    uniforms = walks._uniforms
    monkeypatch.setattr(walks, "_uniforms", lambda base, step: uniforms(base, step) ** 1.01)


def shifted_green_oracle(monkeypatch):
    oracle = tree.oracle_green_hitting

    def faulty(q, d):
        green, hitting, transitions = oracle(q, d)
        return green + float(q) ** -8, hitting, transitions

    monkeypatch.setattr(tree, "oracle_green_hitting", faulty)


RESISTANCE_ROWS = [f"{name}/n={n}" for n in range(1, 9)
                   for name in ("resistance", "resistance_solver")]
GREEN_ROWS = ["green/d=0", "green/d=1", "green/d=2"]


# the rows each fault fails, in the battery's order
FAULTS = {
    # every exhaustion is off, so are the rows read from its solves; the
    # limits' last radii are solves of those exhaustions too
    scaled_root_edge: RESISTANCE_ROWS + [
        "escape/root_to_level_8", "green/d=0", "green/d=1", "hitting/d=1",
        "green/d=2", "hitting/d=2"],
    # v_n(x) 1e-6 high, relatively, moves G = pi(x) v by 2e-6 at d = 0 and
    # by 1e-6 at d = 1 and 2 (the route squares v / R), just past the rows'
    # 1e-6; it moves v / R by 5e-7
    scaled_solver_voltage: GREEN_ROWS,
    skewed_uniforms: ["mc/green_d0", "mc/hitting_d1"],
    shifted_green_oracle: GREEN_ROWS,
}


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.__name__)
def test_planted_fault_fails_the_battery(monkeypatch, fault):
    fault(monkeypatch)
    report = run_battery()
    assert report.exit_status == "fail"
    assert [r.quantity for r in report.results if r.verdict == "fail"] == FAULTS[fault]
