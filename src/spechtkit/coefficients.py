"""Coefficient matrices for tensor-invariant dimensions.

Three constructions share one engine: a list of factor matrices, a finite
group G and a +-1 character w of G.  Every action here pulls a factor's
column label, read as one word, back along a position permutation,
``result[k] = word[p_g(k)]``, so a construction is given by its factors, one
``(|G|, word length)`` array of positions per factor, and the weights w(g).
The coefficient matrix has rows and columns indexed by tuples of factor
labels and entries

    sum over g of  w(g) * prod over factors f of  M_f[p_f, g . s_f],

so its rank is the dimension of the relevant invariant space:

* Kronecker: three factors of the same size n, the diagonal S_n action;
* Littlewood-Richardson: factors of sizes l, m, l+m with S_l x S_m acting on
  the first two separately and through the prefix embedding on the third;
* plethysm: m copies of the size-l factor plus factors of sizes m and l*m,
  with the wreath group S_l wr S_m acting through its dot permutation on the
  l*m letters of the m copies and of the third factor, and through its slot
  permutation on the second.

The engine, ``_orbit_walk``, never forms the group sum.  Because w is a
character, the columns at the labels of one orbit agree up to sign,
A_{g.c} = w(g) A_c, so the walk sums one column per orbit representative,
the least column of its orbit, whose first label is 0: every group here is
transitive on the first factor's labels, and the walk raises on one that
is not.  It sums from the last factor inwards and hands its caller, block
by block, the summed representatives and the orbit map, keeping nothing
itself.  ``*_matrix`` hands it the full factors and writes each column,
w(g) times its representative's, into the labelled matrix.
``*_coefficient`` hands it row bases, keeps the nonzero summed columns and
ranks them after the walk: each factor M_f = B_f R_f, with R_f its first
rank-many independent rows (``SpechtMatrix.row_basis``, or its Kronecker
power for the plethysm factor) and B_f injective, so A = (tensor of the
B_f) C with C the walk's output on the R_f, and rank A = rank C.  That
path's ``max_matrix_cells`` guard counts the columns and the compressed
rows times the live representatives, the memory it holds.  Both ranks hand
``int_rank`` only the distinct primitive nonzero rows: scaling and
repeating rows leave the span as it is, and the summed columns of a walk
repeat up to sign and scale.

The group arrays never change for a size n: the one-line images and signs
of S_n are ``SpechtMatrix.symmetric_group``, kept on the memoised pairing
matrix of any partition of n.  Kronecker reads its first factor's S_n, LR
its first two factors' S_l and S_m, and plethysm builds the wreath group
from lam's S_l and mu's S_m.  Each ``_*_setup`` makes every check, the
group order's included, and returns the factors with an ``action`` that
reads the group only when the walk calls it.

The walk acts on each factor's column labels through ``specht.action_table``.
A table is fixed by a factor's partition and the group, so
``specht.kept_tables`` keeps it, read-only, with the memoised matrix and
checks it as a fresh build would be checked.  ``SpechtMatrix.derived`` is
the one place this layer keeps anything, read-only arrays included:

* each factor's table, keyed by the group that acts and the factor's role:
  ``("S_n", "diagonal")`` for Kronecker; ``("S_l x S_m", l, m, role)`` with
  role left, right or embedded for LR; ``("S_l wr S_m", l, m, role)`` with
  role power, slots or dots for plethysm;
* the LR and wreath group arrays, ``("S_l x S_m", l, m)`` and
  ``("S_l wr S_m", l, m)``, on the first factor's matrix (lam's);
* each pairing matrix's row basis as an int64 array, ``("row basis",)``;
* the tensor power's column labels and row basis, ``("power col_labels",
  m)`` and ``("power row_basis", m)``, and its table, on its base matrix.

Since S^lam' = S^lam (x) sgn, each coefficient equals the same coefficient
on some conjugated triples:

* Kronecker: g(lam, mu, nu) = g(lam', mu', nu) = g(lam', mu, nu') = g(lam, mu', nu');
* Littlewood-Richardson: c^nu_{lam mu} = c^nu'_{lam' mu'}, as omega is a ring
  automorphism;
* plethysm: <s_mu[s_lam], s_nu> = <s_mu~[s_lam'], s_nu'>, with mu~ = mu for
  |lam| even and mu' for |lam| odd (Macdonald, Symmetric Functions and Hall
  Polynomials, I.8 Ex. 1).

The walk lists every column of the orbits it sums, though it forms a
full-width product only once per representative and first label.  A factor
has n! / prod of the column lengths! columns: n! for a one-row shape, 1 for
a one-column shape, while the row-basis sizes d_lam do not change under
conjugation.  So ``*_coefficient`` walks the variant with the fewest columns
in product (``_fewest_columns``; the tensor power counts its base's columns
to the m-th power, and a tie keeps the triple given), and the numbers in a
refusal of its guards refer to the variant walked.  ``*_matrix`` walks the
triple as given, whose labels it returns.

Before the walk, ``*_coefficient`` answers 0 where a classical support rule
shows the coefficient vanishes; each rule reads only the three partitions.
With |a ∩ b| = sum of min(a_i, b_i) and ⊴ dominance:

* Kronecker (Dvir, J. Algebra 154, 1993): g(a, b, c) != 0 needs
  c_1 <= |a ∩ b| and l(c) <= |a ∩ b'|, for each of the three as c;
* Littlewood-Richardson: c^nu_{lam mu} != 0 needs lam, mu inside nu and
  lam ∪ mu ⊴ nu ⊴ lam + mu (parts sorted together, and added row by row);
* plethysm: s_mu[s_lam] is a summand of s_lam^m, m = |mu|, so a nonzero
  value needs nu ⊴ m lam and nu' ⊴ m lam'; and s_mu[s_1] = s_mu.

Each rule holds alike for every conjugate variant.  It runs after the setup,
so every usage check and setup guard comes first, and only the guards of the
walk itself never see a triple a rule answers, nor is a group array read
for it, nor any kept table: plethysm (1), (1^7), (7), whose 5040 x 5040
action table ``max_matrix_cells`` refuses, answers 0.
Every other value, zero or not, is the rank of the walk.  ``*_matrix``
always walks.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import factorial, prod
from typing import Callable, Iterable, Sequence

import numpy as np

from .combinatorics import (
    Partition,
    Word,
    format_word,
)
from .config import DEFAULT_LIMITS, Limits
from .errors import DomainError
from .linalg import int_rank
from .specht import SpechtMatrix, frozen, kept, kept_tables, specht_matrix

Label = tuple[Word, ...]


@dataclass(frozen=True)
class LabeledCoefficientMatrix:
    kind: str  # "kronecker" | "lr" | "plethysm"
    input_partitions: tuple[Partition, ...]
    row_labels: tuple[Label, ...]
    col_labels: tuple[Label, ...]
    entries: np.ndarray  # int64, shape (rows, cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def rank(self) -> int:
        return _distinct_rank(_primitive_rows(self.entries), self.entries.shape[1])

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "partitions": [list(p.parts) for p in self.input_partitions],
            "row_labels": [[format_word(w) for w in lab] for lab in self.row_labels],
            "col_labels": [[format_word(w) for w in lab] for lab in self.col_labels],
            "entries": self.entries.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


# ---------------------------------------------------------------------------
# the orbit engine


# entries per numpy temporary of the walk; bounds its working memory
_CHUNK = 1 << 18


def _orbit_walk(
    matrices: Sequence,
    tables: Iterable[np.ndarray],
    weights: np.ndarray,
    limits: Limits,
    take: Callable,
) -> None:
    """Sum the columns of the orbit representatives and hand them to *take*.

    A representative is the least column of its orbit.  The elements taking
    it to j form a coset of its stabiliser, so the weights summed over them
    are w(g_j) times the stabiliser's weight sum s: the representative's
    column is s times the sum over j of w(g_j) E_j, with E_j the tensor
    product of the factor columns at j.  Orbits with s = 0 are not summed.

    E_j is read on *matrices*, one per factor, each with the factor's
    columns.  *tables* holds each factor's action table (``action_table``):
    the walk reads them in turn after its own checks, so a generator such as
    ``kept_tables`` checks and builds each only then.  The walk goes in blocks
    and keeps none: each block's live orbits are handed over as
    ``take(summed, js, rep, g)``, where row i of *summed* is the i-th
    representative's summed column (zero when its elementary columns
    cancel), *js* are the orbits' columns, *rep* each column's row in
    *summed* and *g* an element taking that representative to the column.

    It sums from the last factor inwards: a column's labels are its digits,
    the first most significant, and an orbit's columns come sorted, so w E_j's
    last factor column is added up over runs of equal representative and
    labels 0..F-2, tensored with factor F-2's column, and so on to factor 0.
    Its numpy temporaries hold ``_CHUNK`` entries, or one orbit or row if
    longer: the (3,2,1)^3 value walk peaks under 32 MiB (``tracemalloc``).
    """
    # factor columns as rows, to gather them whole
    mats = [np.asarray(m, dtype=np.int64).T for m in matrices]
    sizes = [mat.shape[0] for mat in mats]
    n_rows = prod(mat.shape[1] for mat in mats)
    n_cols = prod(sizes)
    limits.require("max_matrix_cells", n_cols)
    limits.require("max_matrix_cells", n_rows)
    tables = list(tables)
    strides = [prod(sizes[f + 1 :]) for f in range(len(sizes))]
    # the group takes the first factor's label 0 to each of its labels, so
    # the least column of an orbit, its representative, has first label 0
    if not np.bincount(tables[0][:, 0], minlength=sizes[0]).all():
        raise ValueError("the group is not transitive on the first factor's labels")

    # walk the columns with first label 0 in blocks; a column not yet reached
    # is a representative when no element takes it lower, and then its
    # images are its orbit, disjoint from the others.  Sorting each live
    # orbit's images lists its columns once, each with an element taking the
    # representative there; w is trivial on a live orbit's stabiliser, so
    # any such element has the same weight.
    reached = np.zeros(n_cols, dtype=bool)
    n_live = 0
    step = max(1, _CHUNK // len(weights))
    # columns per pass past the first factor (n_rows / d_0 wide), runs per full-width pass
    inner = max(1, _CHUNK * mats[0].shape[1] // n_rows)
    outer = max(1, _CHUNK // n_rows)
    for start in range(0, strides[0], step):
        cols = start + (~reached[start : min(start + step, strides[0])]).nonzero()[0]
        if not len(cols):
            continue
        terms = (t[:, cols // s % n] * s for t, s, n in zip(tables[1:], strides[1:], sizes[1:]))
        images = sum(terms, tables[0][:, :1] * strides[0])  # walked columns have first label 0
        is_rep = images.min(axis=0) == cols
        orbits = images[:, is_rep]  # column i: the images of representative i
        reached[orbits] = True
        stabiliser = weights @ (orbits == cols[is_rep])
        live = stabiliser != 0
        orbits, stabiliser = orbits[:, live].T, stabiliser[live]
        g = orbits.argsort(axis=1)
        js = orbits[np.arange(len(orbits))[:, None], g]
        once = np.ones(js.shape, dtype=bool)
        once[:, 1:] = js[:, 1:] != js[:, :-1]
        # rep: among this block's live representatives, in runs
        rep, g, js = np.nonzero(once)[0], g[once], js[once]
        n_live += len(stabiliser)
        limits.require("max_matrix_cells", n_rows * n_live)
        summed = np.zeros((len(stabiliser), n_rows), dtype=np.int64)
        # run keys: the representative, then the column's labels, as digits;
        # a run that a pass cuts adds up in summed
        keys = rep * n_cols + js
        coef = stabiliser[rep] * weights[g]
        for lo in range(0, len(js), inner):
            key, acc = keys[lo : lo + inner], coef[lo : lo + inner, None]
            for f in range(len(mats) - 1, 0, -1):
                acc, key = _add_runs(mats[f], sizes[f], acc, key)
            for a in range(0, len(key), outer):
                full, reps = _add_runs(mats[0], sizes[0], acc[a : a + outer], key[a : a + outer])
                summed[reps] += full
        take(summed, js, rep, g)


def _add_runs(mat: np.ndarray, size: int, acc: np.ndarray, keys: np.ndarray):
    """Tensor each row of *acc* on the left with the row of *mat* at its key's
    last digit in base *size*, drop the digit, and add up runs of equal keys."""
    keys, labels = np.divmod(keys, size)
    starts = np.concatenate(([True], keys[1:] != keys[:-1])).nonzero()[0]
    rows = (mat[labels][:, :, None] * acc[:, None, :]).reshape(len(keys), -1)
    return np.add.reduceat(rows, starts), keys[starts]


def _primitive_rows(rows: np.ndarray) -> dict[bytes, None]:
    """The distinct primitive nonzero rows of an int64 matrix, as their
    bytes in first-seen order: each nonzero row divided by its gcd, with its
    lead made positive, as ``linalg._normalize`` does."""
    rows = rows[rows.any(axis=1)]
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    rows = rows // (np.gcd.reduce(rows, axis=1) * np.sign(lead))[:, None]
    return dict.fromkeys(map(bytes, rows))


def _distinct_rank(rows: dict[bytes, None], width: int) -> int:
    """``int_rank`` of the *width*-long rows that ``_primitive_rows`` keyed:
    scaling, repeating and dropping zero rows leave the span as it is."""
    distinct = np.frombuffer(b"".join(rows), dtype=np.int64).reshape(-1, width)
    return int_rank(distinct.tolist(), width)


def _coefficient(factors, action: Callable, limits: Limits) -> int:
    # elementary columns can cancel and summed columns repeat up to scale:
    # keep each block's distinct primitive nonzero rows
    rows = {}
    take = lambda summed, js, rep, g: rows.update(_primitive_rows(summed))
    # row bases as int64 arrays: a pairing matrix keeps its own in derived; the
    # tensor power's is one, kept on the base whose derived it shares
    kept_basis = lambda f: kept(f, ("row basis",), lambda: frozen(np.array(f.row_basis, np.int64)))
    bases = [f.row_basis if isinstance(f, _TensorPowerFactor) else kept_basis(f) for f in factors]
    _orbit_walk(bases, *action(), limits, take)
    return _distinct_rank(rows, prod(map(len, bases)))


def _coefficient_matrix(
    kind: str, partitions: tuple[Partition, ...], factors, action: Callable, limits: Limits
) -> LabeledCoefficientMatrix:
    n_rows = prod(f.shape[0] for f in factors)
    n_cols = prod(f.shape[1] for f in factors)
    limits.require("max_matrix_cells", n_rows * n_cols)
    entries = np.zeros((n_rows, n_cols), dtype=np.int64)
    tables, weights = action()

    # column j of an orbit is w(g) times its representative's column
    def take(summed, js, rep, g):
        entries[:, js] = (summed[rep] * weights[g, None]).T

    _orbit_walk([f.entries for f in factors], tables, weights, limits, take)
    return LabeledCoefficientMatrix(
        kind,
        partitions,
        tuple(itertools.product(*(f.row_labels for f in factors))),
        tuple(itertools.product(*(f.col_labels for f in factors))),
        entries,
    )


def _fewest_columns(triple: tuple[Partition, ...], flips, limits: Limits, powers=(1, 1, 1)):
    """The variant of *triple* that conjugates the factors named by one of
    *flips* and whose factors have the fewest columns in product, factor f
    counting to the power powers[f]; the first flip wins a tie."""
    # a pairing matrix has at least n! cells and every setup refuses one past
    # max_matrix_cells: keep such a triple as given, and take no factorial
    # past that guard
    cells, bound = 1, limits.max_matrix_cells
    for k in range(2, max(sum(p.parts) for p in triple) + 1):
        cells *= k
        if cells > bound:
            return triple

    # p has n! / prod of its column lengths! columns, and that product is
    # prod over rows i of i^p_i; p' has n! / prod of the p_i!.  Every variant
    # has the same n!, so the fewest columns have the largest denominators;
    # max keeps the first flip of a tie
    dens = [
        (prod(map(pow, itertools.count(1), p.parts)) ** e, prod(map(factorial, p.parts)) ** e)
        for p, e in zip(triple, powers)
    ]
    flip = max(flips, key=lambda f: dens[0][0 in f] * dens[1][1 in f] * dens[2][2 in f])
    return tuple(p.conjugate() if f in flip else p for f, p in enumerate(triple))


def _meet(a: Partition, b: Partition) -> int:
    """|a ∩ b|, the boxes the two diagrams share: the sum of min(a_i, b_i)."""
    return sum(map(min, a.parts, b.parts))


def _dominated(p: Sequence[int], q: Sequence[int]) -> bool:
    """p ⊴ q for the parts of two partitions of one size.  The partial sums
    past the shorter are left out: if p is the shorter, the last one it has
    is the whole size and bounds q's there; if q is, its sums are the size."""
    return all(a <= b for a, b in zip(itertools.accumulate(p), itertools.accumulate(q)))


# ---------------------------------------------------------------------------
# Kronecker


def _kronecker_setup(lam: Partition, mu: Partition, nu: Partition, limits: Limits):
    n = lam.n
    if mu.n != n or nu.n != n:
        raise DomainError("all three partitions must have the same size")
    limits.require("max_coefficient_n", n)
    factors = [specht_matrix(p, limits) for p in (lam, mu, nu)]
    limits.require("max_group_order", factorial(n))

    def action():
        perms, signs = factors[0].symmetric_group
        return kept_tables(factors, ("S_n",), ["diagonal"] * 3, [perms] * 3, limits), signs

    return factors, action


def _kronecker_vanishes(lam: Partition, mu: Partition, nu: Partition) -> bool:
    """Dvir's bounds (J. Algebra 154, 1993): g(a, b, c) != 0 needs
    c_1 <= |a ∩ b| and l(c) <= |a ∩ b'|, for c each of the three."""
    triple = (lam, mu, nu)
    for k, c in enumerate(triple):
        a, b = triple[:k] + triple[k + 1 :]
        if max(c.parts, default=0) > _meet(a, b) or len(c.parts) > _meet(a, b.conjugate()):
            return True
    return False


def kronecker_matrix(
    lam: Partition, mu: Partition, nu: Partition, limits: Limits = DEFAULT_LIMITS
) -> LabeledCoefficientMatrix:
    setup = _kronecker_setup(lam, mu, nu, limits)
    return _coefficient_matrix("kronecker", (lam, mu, nu), *setup, limits)


def kronecker_coefficient(
    lam: Partition, mu: Partition, nu: Partition, limits: Limits = DEFAULT_LIMITS
) -> int:
    triple = _fewest_columns((lam, mu, nu), [(), (0, 1), (0, 2), (1, 2)], limits)
    setup = _kronecker_setup(*triple, limits)
    return 0 if _kronecker_vanishes(*triple) else _coefficient(*setup, limits)


# ---------------------------------------------------------------------------
# Littlewood-Richardson


def _lr_setup(lam: Partition, mu: Partition, nu: Partition, limits: Limits):
    l, m = lam.n, mu.n
    if nu.n != l + m:
        raise DomainError("third partition must have size l + m")
    # guard admits one letter more than the diagonal constructions
    limits.require("max_coefficient_n", l + m - 1)
    factors = [specht_matrix(p, limits) for p in (lam, mu, nu)]
    limits.require("max_group_order", factorial(l) * factorial(m))

    group = ("S_l x S_m", l, m)

    def build():
        (sigma, _), (tau, _) = factors[0].symmetric_group, factors[1].symmetric_group
        # (sigma, tau) acts on the third factor as sigma x tau on 1..l+m
        left = np.repeat(sigma, len(tau), axis=0)
        right = np.tile(tau, (len(sigma), 1))
        # the two tensor-factor signs cancel against the embedded sign
        weights = np.ones(len(left), dtype=np.int64)
        return [*map(frozen, (left, right, np.hstack([left, l + right])))], frozen(weights)

    def action():
        positions, weights = kept(factors[0], group, build)
        roles = ["left", "right", "embedded"]
        return kept_tables(factors, group, roles, positions, limits), weights

    return factors, action


def _lr_vanishes(lam: Partition, mu: Partition, nu: Partition) -> bool:
    """c^nu_{lam mu} != 0 needs lam, mu inside nu and lam ∪ mu ⊴ nu ⊴ lam + mu."""
    if _meet(lam, nu) < lam.n or _meet(mu, nu) < mu.n:
        return True
    union = sorted(lam.parts + mu.parts, reverse=True)
    total = [a + b for a, b in itertools.zip_longest(lam.parts, mu.parts, fillvalue=0)]
    return not (_dominated(union, nu.parts) and _dominated(nu.parts, total))


def lr_matrix(
    lam: Partition, mu: Partition, nu: Partition, limits: Limits = DEFAULT_LIMITS
) -> LabeledCoefficientMatrix:
    return _coefficient_matrix("lr", (lam, mu, nu), *_lr_setup(lam, mu, nu, limits), limits)


def lr_coefficient(
    lam: Partition, mu: Partition, nu: Partition, limits: Limits = DEFAULT_LIMITS
) -> int:
    triple = _fewest_columns((lam, mu, nu), [(), (0, 1, 2)], limits)
    setup = _lr_setup(*triple, limits)
    return 0 if _lr_vanishes(*triple) else _coefficient(*setup, limits)


# ---------------------------------------------------------------------------
# wreath groups


def _wreath_group(
    rows: np.ndarray, slots: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The wreath group on an l x m array of dots, zero-based, from the
    one-line images *rows* of S_l and *slots* of S_m and the signs of S_m.

    Returns the dot permutations (|G|, l*m), the slot permutations (|G|, m)
    and the slot permutations' signs, one row per element (tau, rows) with
    tau in S_m major and the m row permutations in S_l in product order.
    """
    l, m = rows.shape[1], slots.shape[1]
    # every m-tuple of row-permutation indices, the last varying fastest
    choices = np.indices((len(rows),) * m, dtype=np.int64).reshape(m, -1).T
    # dot (i, j) goes to (rows_j(i), tau(j))
    dots = slots[:, None, :, None] * l + rows[choices][None, :, :, :]
    return (
        dots.reshape(-1, l * m),
        np.repeat(slots, len(choices), axis=0),
        np.repeat(signs, len(choices)),
    )


@dataclass(frozen=True)
class _TensorPowerFactor:
    """The m-fold tensor power of one pairing matrix, as a single factor.

    Labels are m-tuples of the base labels, read as one word of length l*m
    by concatenating the slots, so the wreath group acts on them through the
    dot permutation, as on the third factor: slot j of g . w is slot tau(j)
    of w pulled back along rows_j.  (Acting slotwise alone is no group
    action, because slot components compose across the slot shuffle; nor is
    moving slot j to tau(j), which composes the slot shuffles in the
    opposite order to the other two factors once m >= 3.)

    The entries are built only when read: the value path reads the row
    basis, the m-fold Kronecker power of the base's, and never the dense
    power.  The column labels, the row basis and the action table are kept
    in the base's ``derived``, keyed by m, so that ``derived`` here is the
    base's.
    """

    base: SpechtMatrix
    m: int

    @property
    def shape(self) -> tuple[int, int]:
        rows, cols = self.base.shape
        return (rows**self.m, cols**self.m)

    @property
    def row_labels(self) -> tuple:
        return tuple(itertools.product(self.base.row_labels, repeat=self.m))

    @property
    def derived(self) -> dict:
        return self.base.derived

    @property
    def col_labels(self) -> tuple:
        build = lambda: tuple(itertools.product(self.base.col_labels, repeat=self.m))
        return kept(self, ("power col_labels", self.m), build)

    @property
    def entries(self) -> np.ndarray:
        return _kron_power(self.base.entries, self.m)

    @property
    def row_basis(self) -> np.ndarray:
        build = lambda: frozen(_kron_power(self.base.row_basis, self.m))
        return kept(self, ("power row_basis", self.m), build)


def _kron_power(rows, m: int) -> np.ndarray:
    mat = np.array(rows, dtype=np.int64)
    acc = np.ones((1, 1), dtype=np.int64)
    for _ in range(m):
        acc = np.kron(acc, mat)
    return acc


def _plethysm_setup(lam: Partition, mu: Partition, nu: Partition, limits: Limits):
    l, m = lam.n, mu.n
    if nu.n != l * m:
        raise DomainError("third partition must have size l * m")
    base = specht_matrix(lam, limits)
    # the power's row basis is what the value path holds; the matrix path
    # checks the dense cells of the whole product, which bound the power's
    limits.require("max_matrix_cells", len(base.row_basis) ** m * len(base.col_labels) ** m)
    factors = [_TensorPowerFactor(base, m), specht_matrix(mu, limits), specht_matrix(nu, limits)]
    limits.require("max_group_order", factorial(l) ** m * factorial(m))

    group = ("S_l wr S_m", l, m)

    def build():
        dots, slots, signs = _wreath_group(base.symmetric_group[0], *factors[1].symmetric_group)
        # the within-slot signs cancel against the embedded-permutation sign,
        # leaving sgn(slot shuffle)^(l+1)
        weights = signs if l % 2 == 0 else np.ones_like(signs)
        return [*map(frozen, (dots, slots, dots))], frozen(weights)

    def action():
        positions, weights = kept(base, group, build)
        roles = ["power", "slots", "dots"]
        return kept_tables(factors, group, roles, positions, limits), weights

    return factors, action


def _plethysm_vanishes(lam: Partition, mu: Partition, nu: Partition) -> bool:
    """s_mu[s_lam] is a summand of s_lam^m, m = |mu|, so a nonzero
    <s_mu[s_lam], s_nu> needs nu ⊴ m lam and nu' ⊴ m lam'; and
    s_mu[s_1] = s_mu."""
    if lam.n == 1:
        return nu != mu
    m = mu.n
    return not (
        _dominated(nu.parts, [m * x for x in lam.parts])
        and _dominated(nu.conjugate().parts, [m * x for x in lam.conjugate().parts])
    )


def plethysm_matrix(
    lam: Partition, mu: Partition, nu: Partition, limits: Limits = DEFAULT_LIMITS
) -> LabeledCoefficientMatrix:
    setup = _plethysm_setup(lam, mu, nu, limits)
    raw = _coefficient_matrix("plethysm", (lam, mu, nu), *setup, limits)
    flatten = lambda lab: tuple(lab[0]) + (lab[1], lab[2])
    return LabeledCoefficientMatrix(
        raw.kind,
        raw.input_partitions,
        tuple(flatten(lab) for lab in raw.row_labels),
        tuple(flatten(lab) for lab in raw.col_labels),
        raw.entries,
    )


def plethysm_coefficient(
    lam: Partition, mu: Partition, nu: Partition, limits: Limits = DEFAULT_LIMITS
) -> int:
    # mu is conjugated with lam' only for |lam| odd
    flip = (0, 2) if lam.n % 2 == 0 else (0, 1, 2)
    triple = _fewest_columns((lam, mu, nu), [(), flip], limits, (mu.n, 1, 1))
    setup = _plethysm_setup(*triple, limits)
    return 0 if _plethysm_vanishes(*triple) else _coefficient(*setup, limits)
