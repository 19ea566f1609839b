"""Transform, stencil and deposit budget of one coupled step plus its ledger row.

Transforms are counted as logical ones, each a call of one of grid's four
transform functions: a forward transform is _fft (one rfftn) or the pruned
_fft_dealiased, and an inverse is _ifft_real (one in-place ifftn over x and y
plus one irfft over z) or the pruned _ifft_dealiased.  The numpy.fft calls
inside them are not counted one by one, and any numpy.fft call outside them
is logged by its own name, so that it fails the budget.  Every field
transform is a real-data one: a forward transform takes real values and an
inverse a complex half spectrum.  The spectrum and partials of m are taken
once per state, and nothing transforms a field known to be zero.  The
LLG rate takes one inverse transform, of (k^4 - k^2) m_hat, the helicity is a
Parseval sum that takes none, and no cross product goes through np.cross.
compute_e reads both states' cached partials; a step with particles calls it,
and the new state's spectrum and partials it takes are then compute_b's.  A
particle-free step leaves e to its first reader, which rebuilds the previous
state and so takes that state's spectrum and partials again.  The
particles of a state are deposited once, and the ledger reuses that charge:
set-up deposits the charge alone (deposit_charge), the only density
init_compatible needs, and each step deposits charge and current together;
a particle-free set-up smooths and transforms no zero charge.  Set-up sorts
the fresh sample once with NumPy's default argsort, and each step sorts the
pushed ensemble once with timsort (kind="stable").
A step builds two CIC stencils per slice of kinetic._CHUNK particles, one
for the gather at the half-step positions and one for the deposit at the new
ones, so two for the 400 particles below, and an ensemble kept in canonical
order needs no full-key sort when its x values do not tie.  The
counts below are the whole budget; a change that adds a transform, a stencil
or a deposit to the step must update them deliberately.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from llgvm import coupler, emergent, grid, kinetic, topology
from llgvm.config import parse_config_text
from llgvm.grid import l2_norm
from llgvm.maxwell import gauss_residual
from llgvm.runner import build_state, ledger_row, validate_dt
from llgvm.smoothing import Mollifier, mollify

FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")
# grid's transform functions, each one logical transform, by the index of its array argument
LOGICAL = {
    "_fft": ("forward", 0),
    "_fft_dealiased": ("forward", 1),
    "_ifft_real": ("inverse", 0),
    "_ifft_dealiased": ("inverse", 1),
}

HOPFION16 = "grid.n = 16\nllg.initial = hopfion\nkinetic.n_particles = 0\nrun.dt = 1e-5\n"
# the physics of configs/hopfion.cfg, where the Hopf column is finite
HOPFION48 = (
    "grid.n = 48\nllg.initial = hopfion\nllg.init_radius = 7.0\n"
    "kinetic.n_particles = 0\nrun.dt = 1e-5\n"
)
COUPLED16 = "grid.n = 16\nkinetic.n_particles = 400\nrun.dt = 5e-4\n"
COUPLED32 = (Path(__file__).resolve().parents[1] / "configs" / "coupled.cfg").read_text()
# the particles of perfbench's beam24 workload
BEAM24 = (
    "grid.n = 24\ngrid.box = 16.0\nllg.initial = random_smooth\nllg.init_amplitude = 0.05\n"
    "kinetic.n_particles = 100000\nkinetic.f0.kind = two_stream\nkinetic.f0.drift = 0.8\n"
    "kinetic.f0.v_thermal = 0.3\nrun.dt = 5e-5\n"
)


def _logged_transforms(mp):
    """Log each logical transform as (kind, all-zero input, complex input).

    kind is "forward" or "inverse" for a call of a LOGICAL function, in every
    llgvm module that imports it, and the function's name for a numpy.fft call
    made outside them.
    """
    log = []
    inside = []

    def logged(original, kind, arg):
        def counted(*args, **kwargs):
            if not inside:
                a = args[arg]
                log.append((kind, not np.any(a), np.iscomplexobj(a)))
            inside.append(kind)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        return counted

    for name in FFT_NAMES:
        mp.setattr(np.fft, name, logged(getattr(np.fft, name), name, 0))
    for name, (kind, arg) in LOGICAL.items():
        original = getattr(grid, name)
        counted = logged(original, kind, arg)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "llgvm" and getattr(module, name, None) is original:
                mp.setattr(module, name, counted)
    return log


def _step_and_row(monkeypatch, cfg_text):
    """One advance plus ledger_row from a fresh state.

    Returns the ledger row, the (name, all-zero input, complex input) log of
    transforms, the number of compute_b calls and the number of np.cross calls.
    """
    cfg = parse_config_text(cfg_text)
    state = build_state(cfg)
    dt = validate_dt(cfg, state)
    b_calls = []
    crosses = []
    with monkeypatch.context() as mp:
        log = _logged_transforms(mp)

        def counted_b(mf):
            b_calls.append(mf)
            return emergent.compute_b(mf)

        for module in (coupler, topology):
            mp.setattr(module, "compute_b", counted_b)
        cross = np.cross

        def counted_cross(*args, **kwargs):
            crosses.append(True)
            return cross(*args, **kwargs)

        mp.setattr(np, "cross", counted_cross)
        row = ledger_row(coupler.advance(state, dt))
    return row, log, len(b_calls), len(crosses)


@pytest.mark.parametrize(
    "cfg_text, forward, inverse, hopf_finite",
    [
        # at 16^3 the hopfion is not localized to 1e-6 on the box faces, so
        # the Hopf column is nan and costs no transform
        (HOPFION16, 2, 5, False),
        (HOPFION48, 3, 5, True),
        (COUPLED16, 6, 9, False),
    ],
    ids=["hopfion16", "hopfion48", "coupled16"],
)
def test_step_and_ledger_row_budget(monkeypatch, cfg_text, forward, inverse, hopf_finite):
    row, log, b_calls, crosses = _step_and_row(monkeypatch, cfg_text)
    assert b_calls == 1  # the ledger's Hopf column reads the step's emergent b
    assert crosses == 0
    kinds = [kind for kind, _, _ in log]
    assert kinds.count("forward") == forward
    assert kinds.count("inverse") == inverse
    assert len(kinds) == forward + inverse, "a numpy.fft call outside grid's transforms"
    # no complex transform of real data, and no real data for an inverse
    assert all(is_complex == (kind == "inverse") for kind, _, is_complex in log)
    assert not any(zero for _, zero, _ in log), "a transform of an all-zero input"
    assert np.isfinite(row["hopf"]) == hopf_finite
    if hopf_finite:
        assert round(row["hopf"]) == 1


def test_first_read_of_a_particle_free_e(monkeypatch):
    cfg = parse_config_text(HOPFION16)
    state = build_state(cfg)
    state = coupler.advance(state, validate_dt(cfg, state))
    ledger_row(state)
    log = _logged_transforms(monkeypatch)
    state.emergent.e
    # the previous state's spectrum and partials; the new state's are cached
    assert [kind for kind, _, _ in log] == ["forward"] + ["inverse"] * 3
    log.clear()
    state.emergent.e
    assert log == []


def test_particle_free_set_up_transforms_no_zero_charge(monkeypatch):
    log = _logged_transforms(monkeypatch)
    build_state(parse_config_text(HOPFION16))
    assert log and not any(zero for _, zero, _ in log)


# coupled.cfg and beam24 push their ensembles out of order at every step; the
# 400 particles of coupled16 can stay in order, and then take no sort
@pytest.mark.parametrize("cfg_text", [COUPLED32, BEAM24], ids=["coupled32", "beam24"])
def test_sort_kind_per_state(monkeypatch, cfg_text):
    argsort = np.argsort
    kinds = []

    def recorded(a, kind=None):
        kinds.append(kind)
        return argsort(a, kind=kind)

    monkeypatch.setattr(np, "argsort", recorded)
    cfg = parse_config_text(cfg_text)
    state = build_state(cfg)
    assert kinds == [None]  # the fresh sample, with NumPy's default kind
    dt = validate_dt(cfg, state)
    for _ in range(2):
        kinds.clear()
        state = coupler.advance(state, dt)
        assert kinds == ["stable"]


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

    def counting(name, original):
        def counted(p, grid):
            deposited.append((name, p))
            return original(p, grid)

        return counted

    for name in ("deposit", "deposit_charge"):
        original = getattr(kinetic, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "llgvm" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    cfg = parse_config_text(COUPLED16)
    state = build_state(cfg)
    dt = validate_dt(cfg, state)
    ledger_row(state)
    assert deposited == [("deposit_charge", state.particles)]  # the charge init_compatible used
    for _ in range(2):
        deposited.clear()
        state = coupler.advance(state, dt)
        row = ledger_row(state)
        assert deposited == [("deposit", state.particles)]
    rho_raw, _ = deposit(state.particles, state.mf.grid)
    rho = mollify(rho_raw, state.mollifier)
    assert row["gauss_residual"] == gauss_residual(state.em, rho) / l2_norm(rho)


@pytest.mark.parametrize(
    "cfg_text, built, per_step",
    [(HOPFION16, 0, 0), (COUPLED16, 1, 2)],
    ids=["hopfion16", "coupled16"],
)
def test_stencils_per_state(monkeypatch, cfg_text, built, per_step):
    cic_corners = kinetic._cic_corners
    stencils = []
    lexsorts = []

    def counted(grid, positions):
        stencils.append(positions.shape[1])
        return cic_corners(grid, positions)

    lexsort = np.lexsort

    def counted_lexsort(keys, *args, **kwargs):
        lexsorts.append(len(keys))
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(kinetic, "_cic_corners", counted)
    cfg = parse_config_text(cfg_text)
    state = build_state(cfg)
    dt = validate_dt(cfg, state)
    ledger_row(state)
    assert len(stencils) == built  # the deposit for init_compatible
    monkeypatch.setattr(np, "lexsort", counted_lexsort)
    for _ in range(2):
        stencils.clear()
        state = coupler.advance(state, dt)
        ledger_row(state)
        assert len(stencils) == per_step
    assert lexsorts == []  # the coupled16 ensemble has no tied x
