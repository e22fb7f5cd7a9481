"""Separable Grams against the per-pair reference loop.

The reference walks mode pairs, term pairs and axes one at a time with
scalar closed forms for each axis integral.  Every comparison uses one
tolerance fixed in advance: 1e-13 relative to the largest reference
entry.  Grams of single-term modes must agree bit for bit, because the
tables multiply and sum each term product in the loop's order.
"""

import numpy as np
import pytest

from bogoflow import (BoundarySpec, Domain, align_basis, flrw_torus,
                      instantaneous_basis, static_spacetime)
from bogoflow.errors import InvalidArgument
from bogoflow.scenarios import GwCavityConfig, gw_static_basis
from bogoflow.spectral import (AxisFactor, SeparableFunction, SeparableMode,
                               SliceContext, combine_separable)

from conftest import make_operator

RTOL = 1e-13
TINY_K = 1e-14


# ---------------------------------------------------------------------------
# scalar per-pair reference


def ref_int_cos(k, L):
    return L if abs(k) < TINY_K else np.sin(k * L) / k


def ref_int_sin(k, L):
    return 0.0 if abs(k) < TINY_K else (1.0 - np.cos(k * L)) / k


def ref_axis_pair(fa, fb, L, conj_b):
    if fa.kind == "exp" or fb.kind == "exp":
        if fa.kind != "exp" or fb.kind != "exp":
            raise InvalidArgument("mixed exp/trig factors on one axis")
        k = fa.k - fb.k if conj_b else fa.k + fb.k
        if abs(k) < TINY_K:
            return complex(L)
        return (np.exp(1j * k * L) - 1.0) / (1j * k)
    ka, kb = fa.k, fb.k
    pair = (fa.kind, fb.kind)
    if pair == ("sin", "sin"):
        return 0.5 * (ref_int_cos(ka - kb, L) - ref_int_cos(ka + kb, L))
    if pair == ("cos", "cos"):
        return 0.5 * (ref_int_cos(ka - kb, L) + ref_int_cos(ka + kb, L))
    if pair == ("sin", "cos"):
        return 0.5 * (ref_int_sin(ka + kb, L) + ref_int_sin(ka - kb, L))
    return 0.5 * (ref_int_sin(ka + kb, L) - ref_int_sin(ka - kb, L))


def ref_gram(ctx, modes_a, modes_b, conj, weight):
    L = ctx.spacetime.domain.lengths
    out = np.zeros((len(modes_a), len(modes_b)), dtype=complex)
    for i, ma in enumerate(modes_a):
        for j, mb in enumerate(modes_b):
            acc = 0.0 + 0.0j
            for ca, fa in ma.terms:
                for cb, fb in mb.terms:
                    amp = fa.amplitude * (np.conj(fb.amplitude) if conj
                                          else fb.amplitude)
                    cc = ca * (np.conj(cb) if conj else cb)
                    prod = amp * cc
                    for ax in range(len(L)):
                        prod *= ref_axis_pair(fa.factors[ax], fb.factors[ax],
                                              L[ax], conj)
                        if prod == 0:
                            break
                    acc += prod
            out[i, j] = acc
    return out * ctx.sqrt_det() * (1.0 if weight is None else complex(weight))


# ---------------------------------------------------------------------------
# mode sets


def dirichlet_box():
    st = static_spacetime(Domain((1.0, 2.0, 1.0), (False,) * 3),
                          metric=np.array([1.3, 0.8, 1.1]),
                          boundary=BoundarySpec("dirichlet"))
    return st, instantaneous_basis(make_operator(st), st, 0.0, 12)


def neumann_shifted():
    _, _, basis = gw_static_basis(GwCavityConfig(
        boundary="neumann", n_modes_per_axis=(3, 2, 2)), dm=1e-3)
    return basis.spacetime, basis


def torus_modes():
    st = static_spacetime(Domain((1.0, 1.5), (True, True)), mass=1.0)
    return st, instantaneous_basis(make_operator(st), st, 0.0, 13)


def mixed_axes():
    """exp factors on a periodic axis, sin factors on a walled one."""
    st = static_spacetime(Domain((1.0, 2.0), (True, False)), mass=0.5,
                          boundary=BoundarySpec("dirichlet"))
    return st, instantaneous_basis(make_operator(st), st, 0.0, 9)


def aligned_torus(rng):
    """Each degenerate +-k pair of a 1D flrw torus rotated by a random
    unitary, then aligned back: every mode is a multi-term combination."""
    a = lambda t: np.sqrt(2.5 + 1.5 * np.tanh(t))
    st = flrw_torus(a, length=1.0, mass=1.0)
    op = make_operator(st)
    ref = instantaneous_basis(op, st, 0.3, 9)
    fresh = instantaneous_basis(op, st, 0.45, 9)
    modes = list(fresh.modes)
    for n in range(1, 5):
        i, j = fresh.labels.index((n,)), fresh.labels.index((-n,))
        q, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        pair = (fresh.modes[i], fresh.modes[j])
        modes[i] = combine_separable((n,), list(zip(q[:, 0], pair)))
        modes[j] = combine_separable((-n,), list(zip(q[:, 1], pair)))
    rotated = type(fresh)(t=fresh.t, omegas=fresh.omegas, modes=tuple(modes),
                          labels=fresh.labels, spacetime=st)
    return st, align_basis(ref, rotated)


def single_term_sets():
    return {"dirichlet": dirichlet_box(), "neumann": neumann_shifted(),
            "torus": torus_modes(), "mixed_axes": mixed_axes()}


def assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) \
        <= RTOL * np.max(np.abs(ref), initial=0.0)


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("conj", [True, False])
@pytest.mark.parametrize("weight", [None, 0.7 - 0.2j])
@pytest.mark.parametrize("name", ["dirichlet", "neumann", "torus",
                                  "mixed_axes"])
def test_single_term_grams_are_bit_identical(name, weight, conj):
    st, basis = single_term_sets()[name]
    ctx = SliceContext(st, basis.t)
    modes = basis.modes
    for ma, mb in ((modes, modes), (modes[:5], modes[2:])):
        got = ctx.gram(ma, mb, conj=conj, weight=weight)
        ref = ref_gram(ctx, ma, mb, conj, weight)
        assert_close(got, ref)
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("conj", [True, False])
def test_aligned_combinations_match_reference(rng, conj):
    st, basis = aligned_torus(rng)
    assert max(len(m.terms) for m in basis.modes) >= 4
    ctx = SliceContext(st, basis.t)
    for weight in (None, -1.3 + 0.4j):
        got = ctx.gram(basis.modes, basis.modes, conj=conj, weight=weight)
        assert_close(got, ref_gram(ctx, basis.modes, basis.modes, conj, weight))
    # combinations against single-term modes of the same slice
    plain = instantaneous_basis(make_operator(st), st, basis.t, 9).modes
    got = ctx.gram(basis.modes, plain, conj=conj)
    assert_close(got, ref_gram(ctx, basis.modes, plain, conj, None))


def test_mass_shifted_neumann_combinations_match_reference(rng):
    st, basis = neumann_shifted()
    ctx = SliceContext(st, basis.t)
    combos = [combine_separable(("c", r), list(zip(
        rng.normal(size=4) + 1j * rng.normal(size=4), basis.modes[r:r + 4])))
        for r in range(5)]
    for conj in (True, False):
        got = ctx.gram(combos, basis.modes, conj=conj, weight=2.5)
        assert_close(got, ref_gram(ctx, combos, basis.modes, conj, 2.5))


def test_empty_mode_lists():
    st, basis = dirichlet_box()
    ctx = SliceContext(st, basis.t)
    for ma, mb, conj in (([], basis.modes, True), (basis.modes, [], False),
                         ([], [], True)):
        got = ctx.gram(ma, mb, conj=conj, weight=3.0)
        assert got.shape == (len(ma), len(mb))
        assert_close(got, ref_gram(ctx, ma, mb, conj, 3.0))


def test_mixed_exp_and_trig_factors_raise():
    st, basis = mixed_axes()
    ctx = SliceContext(st, basis.t)
    wrong = SeparableMode(("w",), ((1.0, SeparableFunction(
        1.0, (AxisFactor("cos", np.pi), AxisFactor("sin", np.pi / 2)))),))
    with pytest.raises(InvalidArgument, match="mixed exp/trig"):
        ctx.gram([wrong], basis.modes)

