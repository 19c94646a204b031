"""The numerics of a block of suite trials, computed as stacks.

A block holds the stores of contiguous trials of one suite (suites._Store),
each of which names its tuples as name_parts reads them.  For a list of
stores, stacks builds the named tuples of every store at once: per
sampled tuple and shape, one polar_stack and one stack expression per
kind, with each store's own exponent (its t, t_aluthge and nu).  fill_spectra
factorizes each group's stacked columns by one batched SVD per column
shape, into each store's memo.  Every value is bit for bit the one a
store computes alone, which is the same code on a list of one store.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from . import linalg
from .transforms import aluthge_of, duggal_of, heinz_of, lambda_mean_of
from .tuples import OperatorTuple, polar_stack, product_of

HEINZ_PRODUCTS = ("half", "one_sided", "two_sided", "ax", "xb", "outer")


def heinz_products(coords: np.ndarray, nu: np.ndarray) -> dict:
    """{product: the (k, n, n) products of each of the k Heinz triples
    (A, B, X) of the (k, 3, n, n) stack coords, at its exponent nu}; the
    A and B powers come from one batched eigendecomposition each."""
    a, b, x = coords.swapaxes(0, 1)
    apow, bpow = linalg.psd_powers(a), linalg.psd_powers(b)
    one_sided = apow(nu) @ x @ bpow(1.0 - nu)
    ax, xb = a @ x, x @ b
    return {
        "half": apow(0.5) @ x @ bpow(0.5),
        "one_sided": one_sided,
        "two_sided": one_sided + apow(1.0 - nu) @ x @ bpow(nu),
        "ax": ax,
        "xb": xb,
        "outer": ax + xb,
    }


def name_parts(name) -> tuple:
    """(sampled tuple, kind) of a tuple name.  A name is a sampled tuple
    ("T", "normal", ...; kind ""), "<sampled>.<kind>" with kind alu, hz,
    mean, dug or sq (a transform or the square) or one of HEINZ_PRODUCTS
    (a heinz_products product of a sampled (A, B, X), as a 1-tuple), or a
    float lam (the lambda mean of T, kind lam)."""
    if isinstance(name, str):
        base, _, kind = name.partition(".")
        return base, kind
    return "T", name


def stacks(stores, names):
    """Per sampled tuple and shape, yield (the indices of its stores,
    {name: the (k, d', n, n) coordinates of the named tuple in each}).

    The transforms of a tuple stack come from one polar_stack of it and
    one stack expression per kind, with each store's own exponent, and
    the lambda means from one expression over the lambda grid.  A Heinz
    product is a 1-tuple, from heinz_products of the stack of (A, B, X).
    """
    kinds = defaultdict(list)
    for name in names:
        base, kind = name_parts(name)
        kinds[base].append((name, kind))
    for base, wanted in kinds.items():
        groups = defaultdict(list)
        for i, s in enumerate(stores):
            groups[getattr(s, base).array.shape].append(i)
        for idx in groups.values():
            built = _transform_stacks([stores[i] for i in idx],
                                      np.stack([getattr(stores[i], base).array for i in idx]),
                                      [kind for _, kind in wanted])
            yield idx, {name: built[kind] for name, kind in wanted}


def _transform_stacks(group, coords: np.ndarray, kinds) -> dict:
    """{kind: the (k, d', n, n) coordinates of that kind for each store of
    group}, whose sampled tuples are the stack coords."""
    out = {"": coords}
    lams = [kind for kind in kinds if not isinstance(kind, str)]
    if lams or {"dug", "alu", "hz", "mean"} & set(kinds):
        polar = polar_stack(coords)
    if lams or {"dug", "mean"} & set(kinds):
        out["dug"] = duggal_of(polar)
    if "alu" in kinds:
        out["alu"] = aluthge_of(polar, np.array([s.t_aluthge for s in group]))
    if "hz" in kinds:
        out["hz"] = heinz_of(polar, np.array([s.t for s in group]))
    if "mean" in kinds:
        out["mean"] = lambda_mean_of(coords, out["dug"], 0.5)
    if "sq" in kinds:
        out["sq"] = product_of(coords, coords)
    if set(HEINZ_PRODUCTS) & set(kinds):
        products = heinz_products(coords, np.array([s.nu for s in group]))
        out.update((kind, m[:, None]) for kind, m in products.items())
    if lams:
        grid = lambda_mean_of(coords[:, None], out["dug"][:, None], np.array(lams))
        out.update(zip(lams, grid.swapaxes(0, 1)))
    return out


def fill_spectra(stores, names, tuples=()) -> None:
    """Put the spectrum of each named tuple of each store into its memo,
    and the tuple itself for the names in tuples.  Each group of stacks
    is factorized as soon as it is built, one batched SVD per column
    shape, so that only one group's stacks are alive at a time."""
    for idx, built in stacks(stores, names):
        shapes = defaultdict(list)
        for name, stack in built.items():
            shapes[stack.shape[1:]].append(name)
        for (d, n, _), group in shapes.items():
            columns = np.concatenate([built[name] for name in group]).reshape(-1, d * n, n)
            svals = np.linalg.svd(columns, compute_uv=False).reshape(len(group), len(idx), -1)
            for name, rows in zip(group, svals):
                for i, spectrum in zip(idx, rows):
                    stores[i].memo[("spectrum", name)] = spectrum
        for name in set(tuples) & built.keys():
            for i, coords in zip(idx, built[name]):
                stores[i].memo[("tup", name)] = OperatorTuple(matrices=coords)
