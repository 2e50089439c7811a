"""One rule for every scalar argument of the public API.

A count is an integer, a real is a finite real number, and a bool (numpy's
included) is neither; numpy scalars are accepted and stored as Python
numbers.  Every refusal is a ``ValueError`` whose message starts with the
argument's name.
"""

import math
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from semzk.config import RunConfig
from semzk.dyadic import (
    SpaceTimeField,
    SparseBlock,
    block_modes,
    dyadic_levels,
    frequency_weight,
    modulation_weight,
    tau_values,
)
from semzk.dynamics import (
    SEM,
    SolitonParams,
    background_terms,
    nonlinear_rhs,
    potential_profile,
    propagator_apply,
    soliton_profile,
    soliton_profile_dx,
)
from semzk.integrators import TrajectoryPath, duhamel_term, evolve, ifrk4_step, picard_solve
from semzk.norms import sobolev_norm
from semzk.probes import (
    bilinear_bound,
    probe_linear_estimates,
    random_bandlimited_spacetime,
    random_low_mode_field,
)
from semzk.snapshots import write_snapshot
from semzk.spectral import Grid2D, SpectralField, _integer, _real

TWO_PI = 2 * np.pi
G = Grid2D(16, 16, TWO_PI, TWO_PI)
U = random_low_mode_field(G, 1, max_mode=2, amplitude=0.01)
F = SpectralField(G, np.zeros((G.nx, G.ny), dtype=complex))
COEFFS = np.zeros((G.nx, G.ny, 16))
NO_MODES = np.zeros((0, 3), dtype=int)
# a box long enough for the soliton P
LONG = Grid2D(64, 8, 80.0, TWO_PI)
P = SolitonParams(1.0, 40.0)
V = random_low_mode_field(LONG, 1, max_mode=2, amplitude=0.01)
PATH = TrajectoryPath(G, np.array([0.0, 0.5, 1.0]), [U, U, U])

# entry point -> (argument name, whether it is a count, the call with one
# argument replaced by the value)
SITES = {
    "Grid2D nx": ("nx", True, lambda v: Grid2D(v, 16, 1.0, 1.0)),
    "Grid2D ly": ("ly", False, lambda v: Grid2D(16, 16, 1.0, v)),
    "SolitonParams omega": ("omega", False, lambda v: SolitonParams(v)),
    "SolitonParams x0": ("x0", False, lambda v: SolitonParams(1.0, v)),
    "propagator_apply t": ("t", False, lambda v: propagator_apply(F, v)),
    "nonlinear_rhs t": ("t", False, lambda v: nonlinear_rhs(U, SEM, v)),
    "background_terms t": ("t", False, lambda v: background_terms(V, P, v)),
    "soliton_profile t": ("t", False, lambda v: soliton_profile(LONG, P, v)),
    "soliton_profile_dx t": ("t", False, lambda v: soliton_profile_dx(LONG, P, v)),
    "potential_profile t": ("t", False, lambda v: potential_profile(LONG, P, v)),
    "dyadic_levels": ("max_value", False, lambda v: dyadic_levels(v)),
    "tau_values t_box": ("t_box", False, lambda v: tau_values(v, 16)),
    "tau_values nt": ("nt", True, lambda v: tau_values(1.0, v)),
    "SpaceTimeField t_box": ("t_box", False, lambda v: SpaceTimeField(G, v, COEFFS)),
    "SparseBlock nt": ("nt", True, lambda v: SparseBlock(G, 1.0, v, NO_MODES, np.zeros(0))),
    "frequency_weight": ("n", True, lambda v: frequency_weight(G, v)),
    "modulation_weight": ("l", True, lambda v: modulation_weight(G, TWO_PI, 16, v)),
    "block_modes nt": ("nt", True, lambda v: block_modes(G, TWO_PI, v, 2, 1)),
    "block_modes n": ("n", True, lambda v: block_modes(G, TWO_PI, 64, v, 1)),
    "block_modes l": ("l", True, lambda v: block_modes(G, TWO_PI, 64, 2, v)),
    "TrajectoryPath.node_index t": ("t", False, lambda v: PATH.node_index(v)),
    "duhamel_term t": ("t", False, lambda v: duhamel_term(SEM, PATH, v)),
    "evolve T": ("T", False, lambda v: evolve(U, SEM, v, 0.5)),
    "evolve dt": ("dt", False, lambda v: evolve(U, SEM, 2.0, v)),
    "evolve t0": ("t0", False, lambda v: evolve(U, SEM, 0.01, 0.01, t0=v)),
    "evolve callback_stride": ("callback_stride", True,
                               lambda v: evolve(U, SEM, 0.01, 0.01, callback_stride=v)),
    "ifrk4_step t": ("start time t", False, lambda v: ifrk4_step(U, SEM, v, 0.01)),
    "ifrk4_step dt": ("dt", False, lambda v: ifrk4_step(U, SEM, 0.0, v)),
    "picard_solve T": ("T", False, lambda v: picard_solve(U, SEM, v, nodes=3)),
    "picard_solve nodes": ("nodes", True, lambda v: picard_solve(U, SEM, 0.01, nodes=v)),
    "picard_solve max_iter": ("max_iter", True,
                              lambda v: picard_solve(U, SEM, 0.01, nodes=3, max_iter=v)),
    "picard_solve tol": ("tol", False, lambda v: picard_solve(U, SEM, 0.01, nodes=3, tol=v)),
    "picard_solve s": ("s", False, lambda v: picard_solve(U, SEM, 0.01, nodes=3, s=v)),
    "sobolev_norm s": ("s", False, lambda v: sobolev_norm(U, v)),
    "probe_linear_estimates horizon": ("horizon", False,
                                       lambda v: probe_linear_estimates(G, horizon=v)),
    "probe_linear_estimates n_nodes": ("n_nodes", True,
                                       lambda v: probe_linear_estimates(G, n_nodes=v)),
    "random_low_mode_field": ("max_mode", True,
                              lambda v: random_low_mode_field(G, 1, max_mode=v)),
    "random_low_mode_field amplitude": ("amplitude", False,
                                        lambda v: random_low_mode_field(G, 1, amplitude=v)),
    "random_bandlimited_spacetime max_mode": (
        "max_mode", True, lambda v: random_bandlimited_spacetime(G, 1.0, 32, 0, max_mode=v)),
    "random_bandlimited_spacetime max_tmode": (
        "max_tmode", True, lambda v: random_bandlimited_spacetime(G, 1.0, 32, 0, max_tmode=v)),
    "bilinear_bound n1": ("n1", True, lambda v: bilinear_bound(v, 1, 4, 1)),
    "bilinear_bound l1": ("l1", True, lambda v: bilinear_bound(1, v, 4, 1)),
    "bilinear_bound n2": ("n2", True, lambda v: bilinear_bound(1, 1, v, 1)),
    "bilinear_bound l2": ("l2", True, lambda v: bilinear_bound(1, 1, 4, v)),
    # refused before the file is opened
    "write_snapshot time": ("time", False, lambda v: write_snapshot(os.devnull, U, time=v)),
}
# every numeric config key, a count if its annotation is int
SITES |= {f"RunConfig {f.name}": (f.name, f.type == "int",
                                  lambda v, name=f.name: RunConfig(**{name: v}))
          for f in fields(RunConfig) if f.type in ("int", "float")}

# a bool, a non-integral count, a non-finite real, a string and None, for
# every site
BAD = {"True": True, "np.True_": np.bool_(True), "2.5": 2.5, "nan": math.nan,
       "-inf": -math.inf, "'1'": "1", "None": None}
# and what a count refuses beyond those: a float that is whole, and a
# second string of a whole number
BAD_COUNT = {"4.0": 4.0, "'4'": "4"}


def _cases():
    for site, (name, count, _) in SITES.items():
        values = BAD | BAD_COUNT if count else BAD
        for label, value in values.items():
            if label == "2.5" and not count:
                continue  # a real may be non-integral
            yield pytest.param(site, value, id=f"{site}-{label}")


@pytest.mark.parametrize("site, value", list(_cases()))
def test_every_scalar_argument_goes_through_one_check(site, value):
    name, _, call = SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(value)


def test_a_real_that_overflows_a_float_is_not_finite():
    with pytest.raises(ValueError, match="^omega must be positive and finite"):
        SolitonParams(10**400)


@pytest.mark.parametrize("check, value", [(_real, 10**400 - 1), (_real, "x" * 1000),
                                          (_integer, -10**400), (_integer, "x" * 1000)],
                         ids=["real-huge", "real-str", "count-huge", "count-str"])
def test_a_refusal_abridges_the_value(check, value):
    args = {"nonnegative": True} if check is _real else {"least": 2}
    with pytest.raises(ValueError, match="^T must be") as err:
        check("T", value, **args)
    assert len(str(err.value)) < 100, str(err.value)


def test_levels_and_counts_name_their_rule():
    with pytest.raises(ValueError, match="^n must be a power of two >= 1, got 3$"):
        frequency_weight(G, 3)
    # a zero level gave a bound of 0.0, and a negative one a math domain error
    for n in (0, -4, 3):
        with pytest.raises(ValueError, match=f"^n1 must be a power of two >= 1, got {n}$"):
            bilinear_bound(n, 1, 4, 1)
    with pytest.raises(ValueError, match="^nt must be even, got 17$"):
        tau_values(1.0, 17)
    with pytest.raises(ValueError, match="^dt must be nonzero"):
        ifrk4_step(U, SEM, 0.0, 0.0)
    # the config shares the space-time lattice's rule for nt
    for nt in (2, 5):
        with pytest.raises(ValueError, match="^nt must be"):
            RunConfig(nt=nt)


def test_numpy_scalars_are_stored_as_python_numbers():
    p = SolitonParams(np.float32(2.0), np.int64(3))
    assert (type(p.omega), type(p.x0)) == (float, float)
    assert p == SolitonParams(2.0, 3.0)
    block = SparseBlock(G, np.float64(1.0), np.int64(16), NO_MODES, np.zeros(0))
    assert (type(block.t_box), type(block.nt)) == (float, int)
    assert np.array_equal(block_modes(G, np.float64(TWO_PI), np.int64(64), np.int64(2),
                                      np.uint8(1)), block_modes(G, TWO_PI, 64, 2, 1))
    assert np.array_equal(frequency_weight(G, np.int32(4)), frequency_weight(G, 4))
    assert dyadic_levels(np.float32(10.0)) == dyadic_levels(10.0)
    marched = evolve(U, SEM, np.float64(0.02), np.float32(0.01), t0=np.int64(1),
                     callback_stride=np.int16(1))
    assert marched.times.tolist() == evolve(U, SEM, 0.02, 0.01, t0=1.0).times.tolist()
    path, report = picard_solve(U, SEM, np.float64(0.01), nodes=np.int64(5),
                                max_iter=np.uint32(3))
    same, again = picard_solve(U, SEM, 0.01, nodes=5, max_iter=3)
    assert report.distances == again.distances
    assert np.array_equal(path.fields[-1].values, same.fields[-1].values)
    params = probe_linear_estimates(G, horizon=np.float32(0.5), n_nodes=np.int64(5)).params
    assert (type(params["horizon"]), type(params["n_nodes"])) == (float, int)
    cfg = RunConfig(nt=np.int64(8), seed=np.int64(3), dt=np.float32(0.5))
    assert (type(cfg.nt), type(cfg.seed), type(cfg.dt)) == (int, int, float)
    assert cfg.resolved_text() == RunConfig(nt=8, seed=3, dt=0.5).resolved_text()


# calls that ran with other arguments than the ones given, or failed with
# numpy's TypeError, before the one check
ONCE_ACCEPTED = {
    "evolve dt=True": lambda: evolve(U, SEM, 2.0, True),
    "evolve T=True": lambda: evolve(U, SEM, True, 0.5),
    "ifrk4_step dt=True": lambda: ifrk4_step(U, SEM, 0.0, True),
    "picard_solve T=True": lambda: picard_solve(U, SEM, True, nodes=3),
    "picard_solve max_iter=True": lambda: picard_solve(U, SEM, 0.01, max_iter=True),
    "SolitonParams(True)": lambda: SolitonParams(True),
    "propagator_apply t=True": lambda: propagator_apply(F, True),
    "frequency_weight 2.5": lambda: frequency_weight(G, 2.5),
    "frequency_weight '2'": lambda: frequency_weight(G, "2"),
    "block_modes l=True": lambda: block_modes(G, TWO_PI, 64, 2, True),
    "block_modes nt=64.0": lambda: block_modes(G, TWO_PI, 64.0, 2, 1),
    "probe_linear_estimates n_nodes=2.5": lambda: probe_linear_estimates(G, n_nodes=2.5),
    "random_low_mode_field max_mode=2.5": lambda: random_low_mode_field(G, 1, max_mode=2.5),
    "picard_solve tol=True": lambda: picard_solve(U, SEM, 0.01, nodes=3, tol=True),
    "picard_solve tol=nan": lambda: picard_solve(U, SEM, 0.01, nodes=3, tol=math.nan),
    "picard_solve tol=-1.0": lambda: picard_solve(U, SEM, 0.01, nodes=3, tol=-1.0),
    # a RuntimeError (divergence at sweep 1) before the one check
    "picard_solve s=nan": lambda: picard_solve(U, SEM, 0.01, nodes=3, s=math.nan),
    "sobolev_norm(u, True)": lambda: sobolev_norm(U, True),
    "random_low_mode_field amplitude=True": lambda: random_low_mode_field(G, 1, amplitude=True),
    "random_low_mode_field amplitude=-1.0": lambda: random_low_mode_field(G, 1, amplitude=-1.0),
    "nonlinear_rhs t=True": lambda: nonlinear_rhs(U, SEM, True),
    "nonlinear_rhs t=nan": lambda: nonlinear_rhs(U, SEM, math.nan),
    "background_terms t=True": lambda: background_terms(V, P, True),
    "soliton_profile t=True": lambda: soliton_profile(LONG, P, True),
    "soliton_profile_dx t=True": lambda: soliton_profile_dx(LONG, P, True),
    "potential_profile t=True": lambda: potential_profile(LONG, P, True),
    "bilinear_bound n1=0": lambda: bilinear_bound(0, 1, 4, 1),
    "bilinear_bound l2=1.9": lambda: bilinear_bound(1, 1, 4, 1.9),
    "bilinear_bound n2=True": lambda: bilinear_bound(1, 1, True, 1),
    "bilinear_bound l1=3": lambda: bilinear_bound(1, 3, 4, 1),
    # True was read as 1.0; NaN failed in int() and '0.1' in a numpy ufunc
    "TrajectoryPath.node_index t=True": lambda: PATH.node_index(True),
    "duhamel_term t=nan": lambda: duhamel_term(SEM, PATH, math.nan),
    "duhamel_term t='0.1'": lambda: duhamel_term(SEM, PATH, "0.1"),
}


@pytest.mark.parametrize("call", list(ONCE_ACCEPTED.values()), ids=list(ONCE_ACCEPTED))
def test_calls_once_accepted_are_refused(call):
    with pytest.raises(ValueError, match=r"^[\w ]+ must be"):
        call()
