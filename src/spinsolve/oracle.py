"""Ground-truth scheme construction from exhaustive point enumeration.

Every point space here is a translation scheme: words, cyclic-group
elements, or matrices over a finite field, with the class of a pair
determined by the difference (Hamming weight, circular distance, or rank).
One distance function, `raw_between(ys, zs)`, measures the weight of
z - y for every pair of a y and a z; the distance from the base point is
its case ys = [0].  A matrix point's matrix is additive in its coordinates
(negation and Hermitian conjugation are additive), so the matrix of z - y
is M(z) - M(y).

The census fixes the base point 0, classifies every point, then measures
the table p_{1,j}^r by histogramming the classes of y - z over all
first-class points z, for several representatives y of each class r.
Representatives must agree exactly, which catches wrong distance
functions without trusting translation invariance blindly.  Every
representative of every class goes through one `raw_between` call, so
the first-class points' rows or matrices are built once.

The census streams the whole space once, in blocks of GF2_BLOCK codes,
into one array of distances in the narrowest unsigned type that holds the
largest possible distance, and reads class sizes (one count per distance
value and block), neighbours and representatives off it in one more
blocked scan, which keeps the codes as uint32 while the space has at most
2^32 points; an alternating space's odd ranks are not counted, so a block
whose counts fall short of its length is an error.  GF(2) matrices are
bit-packed, one unsigned integer per row; a bilinear matrix with more
rows than columns is packed transposed, as rank is the same and the
kernel's cost grows with the rows.  A block at a multiple b of GF2_BLOCK
holds the codes b ^ o, so its rows are a cached offset table XOR the rows
of b, ranked by a branch-free elimination whose every pass is one
in-place numpy operation over the block.  The leading rows that no base
touches are the same in every block, so the whole-space pass reduces
them once, reduces each block's own rows against them by linearity, and
eliminates only those per block, with the elimination `rank_batch_gf2`
runs.  Over larger fields each block's difference matrices are built as
one (points, rows, cols) array of field-element indices and ranked by
`rank_batch`, the same row-by-row elimination driven by the field's
flattened sub, mul and inv tables, every step one numpy operation over
the block.  The scalar `rank` is kept as the oracle the kernels are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (DEFAULT_CONFIG, CensusError, IntersectionArray, SchemeCensus,
                   SolverConfig, validate_array, valencies)
from .families import FamilySpec, closed_form_array, family_size
from .ffield import FiniteField

__all__ = ["PointSpace", "CensusError", "rank", "rank_batch", "rank_batch_gf2", "census",
           "verify_family"]

# Points per class whose p_{1,j}^r rows must agree.
CENSUS_REPRESENTATIVES = 5

# Points per block of the whole-space pass and per GF(2) batch: large
# enough that numpy's per-call cost is small, small enough that a block's
# rows and pivots stay in cache.
GF2_BLOCK = 1 << 15


def rank(matrix: Sequence[Sequence[int]], f: FiniteField) -> int:
    """Row-echelon rank of a matrix of field-element indices, one entry at
    a time: the reference the batched kernels are tested against."""
    rows = [list(map(int, r)) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    sub, mul, inv = f.sub, f.mul, f.inv
    rk = 0
    for col in range(ncols):
        pivot = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        scale = int(inv[rows[rk][col]])
        prow = [int(mul[scale, x]) for x in rows[rk]]
        rows[rk] = prow
        for r in range(rk + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                rows[r] = [int(sub[x, mul[factor, y]]) for x, y in zip(rows[r], prow)]
        rk += 1
        if rk == len(rows):
            break
    return rk


def rank_batch(mats: np.ndarray, f: FiniteField) -> np.ndarray:
    """Ranks of a batch of matrices over f, given as a (matrices, rows,
    cols) array of field-element indices, returned as int64.

    A batch with more rows than columns is ranked transposed, as rank is
    the same and the cost grows with the rows.  The rows are worked on as
    a (rows, matrices, cols) copy in the narrowest unsigned type that holds
    q^2 - 1, so that x * q + y indexes the flattened q x q tables.  As in
    `_eliminate_gf2`, row i of every matrix is reduced at once against the
    reduced rows 0..i-1, by row = sub[row, mul[row[lead_k], pivot_k]];
    the reduced row is then scaled by inv of its first nonzero entry, whose
    column becomes its lead (a zero row stays zero, with lead 0).  Each
    reduced row is zero at every earlier lead, so it is nonzero iff row i
    is independent of rows 0..i-1, and the rank is the number of nonzero
    reduced rows.  Every step is one numpy operation over the batch, in
    place where it can be; callers keep the batch cache-sized (GF2_BLOCK).
    """
    mats = np.asarray(mats)
    if mats.size and (mats.min() < 0 or mats.max() >= f.q):
        raise ValueError(f"matrix entries must be element indices 0..{f.q - 1}")
    if mats.shape[1] > mats.shape[2]:
        mats = mats.transpose(0, 2, 1)
    nmat, _, ncols = mats.shape
    q = f.q
    dtype = np.min_scalar_type(q * q - 1)
    sub, mul = f.sub.astype(dtype).ravel(), f.mul.astype(dtype).ravel()
    inv = f.inv.astype(dtype)
    pivots = np.array(mats.transpose(1, 0, 2), dtype=dtype, order="C")
    # leads as indices into a row's flattened (matrices * cols) entries
    starts = np.arange(0, nmat * ncols, ncols)
    leads = np.empty(pivots.shape[:2], dtype=np.intp)
    factor = np.empty(nmat, dtype=dtype)
    scaled = np.empty(pivots.shape[1:], dtype=dtype)
    ranks = np.zeros(nmat, dtype=np.min_scalar_type(len(pivots)))  # rank <= rows
    for i, row in enumerate(pivots):
        entries = row.reshape(-1)
        for pivot, lead in zip(pivots[:i], leads[:i]):
            np.take(entries, lead, out=factor)
            factor *= q
            np.add(factor[:, np.newaxis], pivot, out=scaled)
            np.take(mul, scaled, out=scaled)
            row *= q
            row += scaled
            np.take(sub, row, out=row)
        nonzero = row != 0
        np.add(starts, nonzero.argmax(axis=1), out=leads[i])
        np.take(entries, leads[i], out=factor)
        np.take(inv, factor, out=factor)
        factor *= q
        row += factor[:, np.newaxis]
        np.take(mul, row, out=row)
        ranks += nonzero.any(axis=1)
    return ranks.astype(np.int64)


def _gf2_dtype(ncols: int) -> type:
    """Narrowest unsigned type that holds a row of ncols bits."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if ncols <= 8 * np.dtype(dtype).itemsize:
            return dtype
    raise ValueError(f"GF(2) rows of {ncols} columns do not fit in 64 bits")


def rank_batch_gf2(rows: np.ndarray, ncols: int) -> np.ndarray:
    """Ranks of a batch of GF(2) matrices given as per-row bitmasks.

    rows has shape (n_matrices, n_rows); bit j of rows[m, i] is entry (i, j),
    and ncols <= 64.  The rows are worked on as a transposed copy,
    (n_rows, n_matrices), in the narrowest unsigned type that holds ncols
    bits, and reduced by `_eliminate_gf2`; callers keep the batch
    cache-sized (GF2_BLOCK).  Ranks are counted in uint8, as a rank is at
    most ncols, and returned as int64.  `PointSpace.raw_from_zero` runs
    the same elimination on its own pivot tables, so only `raw_between`
    calls this.
    """
    rows = np.asarray(rows)
    nmat, _ = rows.shape
    dtype = _gf2_dtype(ncols)
    _check_gf2_bits(rows, ncols)
    pivots = np.array(rows.T, dtype=dtype, order="C")
    ranks = np.zeros(nmat, dtype=np.uint8)  # rank <= ncols <= 64
    _eliminate_gf2(pivots, np.empty_like(pivots), ranks)
    return ranks.astype(np.int64)


def _check_gf2_bits(rows: np.ndarray, ncols: int) -> None:
    """ValueError unless every bitmask lies in 0 <= x < 2^ncols."""
    # x >> ncols is 0 exactly for 0 <= x < 2^ncols and is monotone in x
    if rows.size and (rows.min() >> ncols or rows.max() >> ncols):
        raise ValueError(f"row bitmasks have bits at or above column {ncols}")


def _eliminate_gf2(pivots: np.ndarray, low: np.ndarray, ranks: np.ndarray) -> None:
    """Eliminate a batch of GF(2) matrices in place and add their ranks to
    ranks.

    pivots is (n_rows, n_matrices), one unsigned bitmask per row and
    matrix.  Row i of every matrix is reduced at once against rows
    0..i-1 (`_reduce_gf2`), and low[i] becomes the lowest set bit of the
    reduced row (0 for a zero row).  The reduced row is nonzero iff row i
    is independent of rows 0..i-1, so the rank is the number of nonzero
    reduced rows.
    """
    mask = np.empty(pivots.shape[1:], dtype=pivots.dtype)
    nonzero = np.empty(pivots.shape[1:], dtype=bool)
    for i, row in enumerate(pivots):
        _reduce_gf2(row, pivots[:i], low[:i], mask)
        np.negative(row, out=low[i])
        np.bitwise_and(low[i], row, out=low[i])
        np.not_equal(row, 0, out=nonzero)
        np.add(ranks, nonzero.view(np.uint8), out=ranks)


def _reduce_gf2(rows: np.ndarray, pivots: np.ndarray, low: np.ndarray,
                mask: np.ndarray) -> None:
    """Reduce rows in place against reduced pivots, in order, by
    `rows ^= pivots[k] & -(rows & low[k])`; rows is one row of the batch
    or a stack of them, and mask is scratch of its shape.

    The mask is all ones from bit low[k] up exactly when a row has that
    bit, and pivots[k] has no lower bit, so each pass clears bit low[k];
    later pivots lack the lowest bits of earlier ones, so bits once
    cleared stay clear.  Each pass adds pivots[k] times one bit of the
    row, so the reduction is GF(2)-linear in the row.  Every pass is one
    contiguous in-place numpy operation over the batch.
    """
    for pivot, bit in zip(pivots, low):
        np.bitwise_and(rows, bit, out=mask)
        np.negative(mask, out=mask)
        np.bitwise_and(mask, pivot, out=mask)
        np.bitwise_xor(rows, mask, out=rows)


@dataclass
class PointSpace:
    """An enumerated translation space with its distance function.

    Points are integer codes 0..n_points-1 in a mixed-radix encoding of
    the free coordinates; code 0 is always the zero point.  `max_raw` is
    the largest distance the family allows.  Over GF(2), `gf2_shape` is
    (rows, bits per row) of the bit-packed matrices, bilinear ones taken
    in the orientation with fewer rows; it is None for every other space.
    """

    spec: FamilySpec

    def __post_init__(self):
        fam, p = self.spec.family, self.spec.params
        self.family = fam
        self.gf2_shape = None
        if fam == "hamming":
            self.word_len, self.alphabet = p["N"], p["q"]
            self.n_classes = self.max_raw = self.word_len
        elif fam == "ngon":
            self.n = p["n"]
            self.n_classes = self.max_raw = self.n // 2
        elif fam == "bilinear":
            self.field = FiniteField(p["q"])
            self.shape = (p["M"], p["N"])
            self.n_classes = self.max_raw = min(self.shape)
            if p["q"] == 2:
                self.gf2_shape = (min(self.shape), max(self.shape))
        elif fam == "alternating":
            self.field = FiniteField(p["q"])
            self.shape = (p["n"], p["n"])
            self.upper = np.triu_indices(p["n"], 1)
            self.n_classes = p["n"] // 2
            self.max_raw = p["n"]  # odd ranks must be seen, not wrapped
            if p["q"] == 2:
                self.gf2_shape = self.shape
        elif fam == "hermitian":
            q = p["q"]
            self.field = FiniteField(q * q)
            self.shape = (p["n"], p["n"])
            self.conj = self.field.conjugation()
            self.fixed = np.array(self.field.fixed_elements(self.conj), dtype=np.int16)
            if len(self.fixed) != q:
                raise CensusError(f"conjugation of GF({q * q}) fixes {len(self.fixed)} "
                                  f"elements, expected {q}")
            self.upper = np.triu_indices(p["n"], 1)
            self.n_classes = self.max_raw = p["n"]
        else:
            raise CensusError(f"no point space for family {fam!r}")
        self.n_points = int(family_size(self.spec))

    # -- distances --------------------------------------------------------

    def raw_from_zero(self) -> np.ndarray:
        """Raw distance (weight, circular distance, or rank) from 0 of every
        point, in code order, in the narrowest unsigned type that holds
        max_raw.

        The space is streamed in blocks of GF2_BLOCK codes.  Over GF(2) the
        block at base b holds the codes b ^ o, and M is additive in its
        coordinates, so its rows are the cached offset rows XOR the rows
        of b.  The bases hold only the high code bits, which fill the last
        rows, so the rows before the first one that some base touches are
        the same in every block.  Rank does not depend on the order of the
        rows, so those are reduced first, once per call, and kept with
        their low bits and partial ranks.  Reduction against them is
        GF(2)-linear, so each of a block's own rows, offset ^ base, is
        reduced as the once-reduced offset row XOR base XOR a once-reduced
        correction per bit of base; each block then eliminates only its
        own rows among themselves (`_eliminate_gf2`).  A block's rows have
        a bit at or above the row width exactly when its offset or its
        base rows do, so those two tables are checked, not each block.
        """
        out = np.empty(self.n_points, dtype=np.min_scalar_type(self.max_raw))
        starts = np.arange(0, self.n_points, GF2_BLOCK, dtype=_code_type(self.n_points))
        if not self.gf2_shape:
            for start in starts.tolist():
                codes = np.arange(start, min(start + GF2_BLOCK, self.n_points))
                out[start:start + GF2_BLOCK] = self.raw_between([0], codes)[0]
            return out
        offsets, bases = self._gf2_offsets, self._gf2_rows(starts)
        ncols = self.gf2_shape[1]
        for table in (offsets, bases):
            _check_gf2_bits(table, ncols)
        # the rows before the first one a base touches (all if none is)
        shared = int(np.argmax(np.append(bases.any(axis=1), True)))
        width = offsets.shape[1]  # every block's: a GF(2) space has 2^k points
        cached, low = offsets[:shared].copy(), np.empty_like(offsets[:shared])
        prefix = np.zeros(width, dtype=np.uint8)
        _eliminate_gf2(cached, low, prefix)
        # R, the reduction against the cached pivots, is linear, so an own
        # row offset ^ base reduces to R(offset) ^ base ^ (R(2^j) ^ 2^j for
        # each bit j of base): reduce the own offsets, and the unit rows of
        # the bits some base sets, once
        own_bases = bases[shared:]
        used = int(np.bitwise_or.reduce(own_bases, axis=None))
        bits = [1 << j for j in range(ncols) if used >> j & 1]
        units = np.array(bits, dtype=offsets.dtype)[:, np.newaxis]
        reduced = np.concatenate([offsets[shared:], np.broadcast_to(units, (len(units), width))])
        _reduce_gf2(reduced, cached, low, np.empty_like(reduced))
        own_offsets = reduced[:len(own_bases)]
        corrections = [(bit, correction) for bit, correction in
                       zip(bits, reduced[len(own_bases):] ^ units) if correction.any()]
        own, own_low = np.empty_like(own_offsets), np.empty_like(own_offsets)
        for k, start in enumerate(starts.tolist()):
            for row, offset, base in zip(own, own_offsets, own_bases[:, k].tolist()):
                np.bitwise_xor(offset, base, out=row)
                for bit, correction in corrections:
                    if base & bit:
                        np.bitwise_xor(row, correction, out=row)
            ranks = out[start:start + GF2_BLOCK]  # uint8: max_raw <= 64
            ranks[:] = prefix
            _eliminate_gf2(own, own_low, ranks)
        return out

    def raw_between(self, codes_y: np.ndarray, codes_z: np.ndarray) -> np.ndarray:
        """Raw distance between each y and each z, the weight of z - y, as
        a (len(codes_y), len(codes_z)) array.

        Every z's digits, rows or matrix are built once for all y.  In a
        matrix space the pairs' difference rows (GF(2), ranked by
        `rank_batch_gf2`) or difference matrices (larger fields, ranked by
        `rank_batch`) are formed and ranked a chunk of at most GF2_BLOCK
        pairs at a time, into raw_from_zero's distance type.  The z codes
        are used in their own integer type, so the census's uint32
        first-class codes are not copied."""
        codes_y = np.asarray(codes_y, dtype=np.int64)
        codes_z = np.asarray(codes_z)
        shape = (len(codes_y), len(codes_z))
        if self.family == "ngon":
            diff = (codes_z[np.newaxis, :] - codes_y[:, np.newaxis]) % self.n
            return np.minimum(diff, self.n - diff)
        if self.family == "hamming":
            dy = self._digits(codes_y, self.alphabet, self.word_len)
            dz = self._digits(codes_z, self.alphabet, self.word_len)
            return np.count_nonzero(dz[np.newaxis] != dy[:, np.newaxis], axis=2)
        # matrix spaces: the matrix of z - y is M(z) - M(y).  Each chunk
        # pairs up to GF2_BLOCK zs with as many ys as fit in GF2_BLOCK
        # pairs, so memory stays at one chunk however many zs
        ranks = np.empty(shape, dtype=np.min_scalar_type(self.max_raw))
        ys_per_chunk = max(1, GF2_BLOCK // max(1, shape[1]))
        if self.gf2_shape:
            rows_y = self._gf2_rows(codes_y)
            for z0 in range(0, shape[1], GF2_BLOCK):
                rows_z = self._gf2_rows(codes_z[z0:z0 + GF2_BLOCK])
                for y0 in range(0, shape[0], ys_per_chunk):
                    diff = rows_z[:, np.newaxis, :] ^ rows_y[:, y0:y0 + ys_per_chunk, np.newaxis]
                    block = ranks[y0:y0 + ys_per_chunk, z0:z0 + GF2_BLOCK]
                    block[...] = rank_batch_gf2(diff.reshape(len(diff), -1).T,
                                                self.gf2_shape[1]).reshape(block.shape)
            return ranks
        f, mats_y = self.field, self._matrices(codes_y)
        for z0 in range(0, shape[1], GF2_BLOCK):
            mats_z = self._matrices(codes_z[z0:z0 + GF2_BLOCK])
            for y0 in range(0, shape[0], ys_per_chunk):
                diff = f.sub[mats_z, mats_y[y0:y0 + ys_per_chunk, np.newaxis]]
                block = ranks[y0:y0 + ys_per_chunk, z0:z0 + GF2_BLOCK]
                block[...] = rank_batch(diff.reshape(-1, *self.shape), f).reshape(block.shape)
        return ranks

    # -- internals --------------------------------------------------------

    @staticmethod
    def _digits(codes: np.ndarray, base: int, ndigits: int) -> np.ndarray:
        """Base-`base` digits of each code, least significant first, in the
        narrowest unsigned type that holds base - 1."""
        out = np.empty((len(codes), ndigits), dtype=np.min_scalar_type(base - 1))
        rest = codes.copy()
        for k in range(ndigits):
            out[:, k] = rest % base
            rest //= base
        return out

    @cached_property
    def _gf2_offsets(self) -> np.ndarray:
        """Rows of the codes 0..GF2_BLOCK-1 (fewer in a smaller space)."""
        return self._gf2_rows(np.arange(min(self.n_points, GF2_BLOCK), dtype=np.uint32))

    def _gf2_rows(self, codes: np.ndarray) -> np.ndarray:
        """GF(2) matrices as per-row bitmasks, shape (gf2_shape[0], points)."""
        m, n = self.shape
        rows = np.empty((self.gf2_shape[0], len(codes)), dtype=_gf2_dtype(self.gf2_shape[1]))
        if self.family == "bilinear":
            if m <= n:
                for i in range(m):
                    rows[i] = (codes >> (i * n)) & ((1 << n) - 1)
            else:  # transposed: bit i of row j is entry (i, j), code bit i*n + j
                for j in range(n):
                    rows[j] = sum(((codes >> (i * n + j)) & 1) << i for i in range(m))
            return rows
        # alternating: row i's upper triangle is the next n-1-i bits of the
        # code; its lower triangle mirrors column i of the rows above
        shift = 0
        for i in range(n):
            width = n - 1 - i
            rows[i] = ((codes >> shift) & ((1 << width) - 1)) << (i + 1)
            shift += width
        for i in range(1, n):
            for j in range(i):
                rows[i] |= ((rows[j] >> i) & 1) << j
        return rows

    def _matrices(self, codes: np.ndarray) -> np.ndarray:
        """Matrices of field-element indices, shape (points, rows, cols)."""
        f = self.field
        m, n = self.shape
        if self.family == "bilinear":
            return self._digits(codes, f.q, m * n).reshape(-1, m, n)
        iu, ju = self.upper
        mats = np.zeros((len(codes), n, n), dtype=np.int16)
        if self.family == "alternating":
            off = self._digits(codes, f.q, len(iu))
            mats[:, iu, ju] = off
            mats[:, ju, iu] = f.neg[off]
            return mats
        # hermitian mixed radix: diagonal digits over the fixed subfield,
        # then off-diagonal digits over the full field
        q = len(self.fixed)
        diag = np.arange(n)
        mats[:, diag, diag] = self.fixed[self._digits(codes, q, n)]
        off = self._digits(codes // q**n, f.q, len(iu))
        mats[:, iu, ju] = off
        mats[:, ju, iu] = self.conj[off]
        return mats


def census(space: PointSpace, cfg: SolverConfig = DEFAULT_CONFIG) -> SchemeCensus:
    """Measure p_{1,j}^r and class sizes over the whole point space.

    One blocked scan of `raw_from_zero()` (`_tally`) counts every distance
    the family allows (only even ranks in an alternating space) and keeps
    each class's first CENSUS_REPRESENTATIVES codes and the first class's
    codes, as uint32 while the space has at most 2^32 points.  A distance
    outside those values is an error.  One `raw_between` call measures
    every representative against every first-class point, and `_tally`
    histograms each representative's row too."""
    n = space.n_points
    if n > cfg.census_max_points:
        raise CensusError(
            f"{space.family} space has {n} points, above the "
            f"configured cap {cfg.census_max_points}; raise census_max_points "
            "to force it"
        )
    if n > np.iinfo(np.int64).max:
        raise CensusError(f"{space.family} {space.spec.params} space has {n} points, "
                          "more than int64 codes can index")
    step = 2 if space.family == "alternating" else 1  # alternating forms have even rank
    values = range(0, space.max_raw + 1, step)
    counts, stray, firsts, neighbors = _tally(space.raw_from_zero(), values,
                                              CENSUS_REPRESENTATIVES)
    odd = [v for v in stray if v % 2]
    if step == 2 and odd:
        raise CensusError(f"odd ranks {np.array(odd)} in an alternating-forms space")
    if stray:
        raise CensusError(f"distances {stray} from the base point exceed {space.max_raw}, "
                          f"the largest {space.family} {space.spec.params} allows")
    observed = [v for v, c in zip(values, counts) if c]
    class_of_raw = {r: k for k, r in enumerate(observed)}
    n_classes = len(observed) - 1
    if n_classes != space.n_classes:
        raise CensusError(
            f"observed {n_classes + 1} distance classes, expected "
            f"{space.n_classes + 1} for {space.family} {space.spec.params}"
        )
    class_sizes = [c for c in counts if c]
    members = [m for m, c in zip(firsts, counts) if c]

    dists = iter(space.raw_between([y for m in members for y in m], neighbors))
    p_table: list[tuple[int, ...]] = []
    reps_checked: list[int] = []
    for r in range(n_classes + 1):
        rows = []
        for _ in members[r]:
            hist, bad, _, _ = _tally(next(dists), observed)
            if bad:
                raise CensusError(f"distances {bad} between points do not occur "
                                  "from the base point")
            rows.append(tuple(hist))
        if len(set(rows)) != 1:
            raise CensusError(
                f"representatives of class {r} disagree: {sorted(set(rows))}; "
                "not an association scheme or wrong distance classes"
            )
        p_table.append(rows[0])
        reps_checked.append(len(members[r]))

    for r in range(n_classes + 1):
        for j in range(n_classes + 1):
            if abs(r - j) >= 2 and p_table[r][j] != 0:
                raise CensusError(
                    f"p_(1,{j})^{r} = {p_table[r][j]} breaks tridiagonality"
                )

    return SchemeCensus(
        family=space.family,
        params=dict(space.spec.params),
        point_count=int(space.n_points),
        class_of_distance=class_of_raw,
        class_sizes=tuple(class_sizes),
        measured_p=tuple(p_table),
        representatives_checked=tuple(reps_checked),
    )


def _tally(raws: np.ndarray, values: Sequence[int], firsts: int = 0
           ) -> tuple[list[int], list[int], list[list[int]], np.ndarray]:
    """Count each of values in a row of distances, in one pass over
    GF2_BLOCK entries at a time with one `np.equal` into a reused mask and
    one `count_nonzero` per value and block.

    Returns the counts, the sorted distances outside values (looked for
    only in a block whose counts fall short of its length), and, when
    firsts > 0, the first `firsts` positions of each value and every
    position of the smallest nonzero value that occurs, as `_code_type`
    codes."""
    counts = [0] * len(values)
    members: list[list[int]] = [[] for _ in values]
    stray: set[int] = set()
    nearest, near = float("inf"), []  # the smallest nonzero value seen, its positions
    code_type = _code_type(len(raws))
    mask = np.empty(min(len(raws), GF2_BLOCK), dtype=bool)
    for start in range(0, len(raws), GF2_BLOCK):
        block = raws[start:start + GF2_BLOCK]
        hits = mask[:len(block)]
        covered = 0
        for k, v in enumerate(values):
            np.equal(block, v, out=hits)
            count = int(np.count_nonzero(hits))
            if not count:
                continue
            counts[k] += count
            covered += count
            wanted = firsts - len(members[k])
            closer = firsts and 0 < v <= nearest
            if wanted > 0 or closer:
                at = np.flatnonzero(hits).astype(code_type)
                at += start
                members[k] += at[:max(wanted, 0)].tolist()
                if closer:
                    if v != nearest:
                        nearest, near = v, []
                    near.append(at)
        if covered < len(block):
            stray.update(np.setdiff1d(block, values).tolist())
    positions = np.concatenate(near) if near else np.empty(0, dtype=code_type)
    return counts, sorted(stray), members, positions


def _code_type(n_points: int) -> type:
    """Unsigned type of the codes 0..n_points-1: uint32 up to 2^32 points."""
    return np.uint32 if n_points <= 1 << 32 else np.uint64


def _array_text(arr: IntersectionArray) -> str:
    """b, c and a as the report writes them: b=[4, 2] c=[1, 2] a=[0, 1, 2]."""
    written = arr.as_dict()
    return " ".join(f"{key}={written[key]}" for key in "bca")


def verify_family(spec: FamilySpec, cfg: SolverConfig = DEFAULT_CONFIG) -> dict:
    """The census's own consistency checks, then its array against the
    family's closed form, exactly."""
    cen = census(PointSpace(spec), cfg)
    arr = cen.derived_array()
    mismatches: list[str] = []

    problems = validate_array(arr)
    if problems:
        mismatches.append(f"census array {_array_text(arr)} is invalid: "
                          + "; ".join(problems))
    else:
        v = [int(x) for x in valencies(arr)]
        if v != list(cen.class_sizes):
            mismatches.append(f"valencies {v} != measured class sizes {list(cen.class_sizes)}")
    if sum(cen.class_sizes) != cen.point_count:
        mismatches.append("class sizes do not partition the space")
    b0 = int(arr.b[0])
    for r, row in enumerate(cen.measured_p):
        if sum(row) != b0:
            mismatches.append(f"row {r} of the p-table sums to {sum(row)} != {b0}")

    closed = closed_form_array(spec)
    if closed.b != arr.b or closed.c != arr.c or closed.a != arr.a:
        mismatches.append(f"census array {_array_text(arr)} differs from the "
                          f"closed form {_array_text(closed)}")

    return {
        "family": spec.family,
        "params": dict(spec.params),
        "match": not mismatches,
        "mismatches": mismatches,
        "census": cen.as_dict(),
    }
