"""Transform and deposit budget of one coupled step plus its ledger row.

Every field transform is a real-data one, the spectrum and partials of m are
taken once per state, and nothing transforms a field known to be zero.  The
particles of a state are deposited once, and the ledger reuses that charge.
The counts below are the whole budget; a change that adds a transform or a
deposit to the step must update them deliberately.
"""

import sys

import numpy as np
import pytest

from llgvm import coupler, emergent, kinetic, topology
from llgvm.config import parse_config_text
from llgvm.grid import l2_norm
from llgvm.maxwell import gauss_residual
from llgvm.runner import build_state, ledger_row, validate_dt
from llgvm.smoothing import Mollifier, mollify

FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn")

HOPFION16 = "grid.n = 16\nllg.initial = hopfion\nkinetic.n_particles = 0\nrun.dt = 1e-5\n"
# the physics of configs/hopfion.cfg, where the Hopf column is finite
HOPFION48 = (
    "grid.n = 48\nllg.initial = hopfion\nllg.init_radius = 7.0\n"
    "kinetic.n_particles = 0\nrun.dt = 1e-5\n"
)
COUPLED16 = "grid.n = 16\nkinetic.n_particles = 400\nrun.dt = 5e-4\n"


def _step_and_row(monkeypatch, cfg_text):
    """One advance plus ledger_row from a fresh state.

    Returns the ledger row, the (name, all-zero input) log of transforms and
    the number of compute_b calls.
    """
    cfg = parse_config_text(cfg_text)
    state = build_state(cfg)
    dt = validate_dt(cfg, state)
    log = []
    b_calls = []
    with monkeypatch.context() as mp:
        for name in FFT_NAMES:
            original = getattr(np.fft, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                log.append((_name, not np.any(a)))
                return _original(a, *args, **kwargs)

            mp.setattr(np.fft, name, counted)

        def counted_b(mf):
            b_calls.append(mf)
            return emergent.compute_b(mf)

        for module in (coupler, topology):
            mp.setattr(module, "compute_b", counted_b)
        row = ledger_row(coupler.advance(state, dt))
    return row, log, len(b_calls)


@pytest.mark.parametrize(
    "cfg_text, forward, inverse, hopf_finite",
    [
        # at 16^3 the hopfion is not localized to 1e-6 on the box faces, so
        # the Hopf column is nan and costs no transform
        (HOPFION16, 3, 9, False),
        (HOPFION48, 4, 12, True),
        (COUPLED16, 7, 13, False),
    ],
    ids=["hopfion16", "hopfion48", "coupled16"],
)
def test_step_and_ledger_row_budget(monkeypatch, cfg_text, forward, inverse, hopf_finite):
    row, log, b_calls = _step_and_row(monkeypatch, cfg_text)
    assert b_calls == 1  # the ledger's Hopf column reads the step's emergent b
    names = [name for name, _ in log]
    assert names.count("rfftn") == forward
    assert names.count("irfftn") == inverse
    assert len(names) == forward + inverse  # no complex transform of real data
    assert not any(zero for _, zero in log), "a transform of an all-zero input"
    assert np.isfinite(row["hopf"]) == hopf_finite
    if hopf_finite:
        assert round(row["hopf"]) == 1


def test_audit_reuses_the_gathered_fields(monkeypatch):
    cfg = parse_config_text(COUPLED16)
    state = build_state(cfg)
    dt = validate_dt(cfg, state)
    audit = coupler.energy_audit
    inside = []
    applied = []

    def tracked_audit(*args, **kwargs):
        inside.append(True)
        try:
            return audit(*args, **kwargs)
        finally:
            inside.pop()

    apply_values = Mollifier.apply_values

    def tracked_apply(self, values):
        applied.append(bool(inside))
        return apply_values(self, values)

    monkeypatch.setattr(coupler, "energy_audit", tracked_audit)
    monkeypatch.setattr(Mollifier, "apply_values", tracked_apply)
    nxt = coupler.advance(state, dt)
    assert nxt.ledger.coupling_residual > 0.0
    assert applied == [False, False, False]  # gather E + e and B + b, mollify j


def test_one_deposit_per_state(monkeypatch):
    deposit = kinetic.deposit
    deposited = []

    def counted(p, grid):
        deposited.append(p)
        return deposit(p, grid)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "llgvm" and getattr(module, "deposit", None) is deposit:
            monkeypatch.setattr(module, "deposit", counted)
    cfg = parse_config_text(COUPLED16)
    state = build_state(cfg)
    dt = validate_dt(cfg, state)
    ledger_row(state)
    assert deposited == [state.particles]  # the charge init_compatible used
    for _ in range(2):
        deposited.clear()
        state = coupler.advance(state, dt)
        row = ledger_row(state)
        assert deposited == [state.particles]
    rho_raw, _ = deposit(state.particles, state.mf.grid)
    rho = mollify(rho_raw, state.mollifier)
    assert row["gauss_residual"] == gauss_residual(state.em, rho) / l2_norm(rho)
