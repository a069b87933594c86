"""Primal-dual interior-point method for small block SDPs in LMI form.

    maximize    b.y
    subject to  Z_j(y) = F_j0 + sum_i y_i F_ji  PSD, for every block j.

The dual problem is

    minimize    sum_j tr(F_j0 W_j)
    subject to  sum_j tr(F_ji W_j) = -b_i,  W_j PSD,

and at a pair of feasible points the duality gap, dual minus primal, equals
sum_j tr(W_j Z_j) (Vandenberghe & Boyd, SIAM Rev. 38, 49 (1996)). The search
direction is HKM with Mehrotra's predictor-corrector (Toh, Todd & Tutuncu,
Optim. Methods Softw. 11, 545 (1999)). The caller supplies a strictly
feasible y0, so every iterate y is feasible (up to rounding) and b.y is
attained; W starts at Z(y0)^-1 and reaches feasibility along the way.

The corrector centres with sigma = min(1, mu_aff/mu)^e, where mu_aff is the
duality measure after the predictor's steps a_W and a_Z, and the exponent
e = max(1, 3 min(a_W, a_Z)^2) follows those steps as in SDPT3: after short
steps the iterates are poorly centred, and a smaller exponent centres them
more, so the next steps are long again. Each Newton system is solved once
and refined by one step against the Schur complement itself.

W, Z, their steps and the corrector are flat vectors: first the 1x1 blocks
(linear inequalities) as one linear cone z = F0 + A y >= 0, where all is
elementwise and the Schur complement gains A^T diag(w/z) A; then the other
blocks, stacked by size and read through fixed (count, d, d) views. Only
products and factorizations go size by size; a fixed transpose map
symmetrizes every block of a flat vector at once, (A + A[transpose]) / 2.
A program with no 1x1 block skips the linear cone's terms, and one with no
shared variable skips their elimination.

Each F_ji is sparse: a block lists terms (i, row, col, coef), each putting
coef*y_i at (row, col) and (col, row), once on the diagonal. Each variable
carries a group label: variables of group k >= 0 may share blocks with the
shared variables (label -1) but with no variable of another group. The Schur
complement of the matrix blocks is assembled from pairs of terms, and each
group is eliminated on its own before the shared variables, so the work per
iteration is linear in the number of groups.

A Layout writes these lists for a program declared in order: index arrays
of its variables, -1 for none, each placed by a term (ids, coef, i, j) with
ids[0, 0] at (i, j), as its upper triangle if i == j and all at (0, 0) in a
1x1 block. It builds the Structure, the index tables fixed by the sizes, var,
row, col and groups; solve takes one per call, so new F0 or coef reuse it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _frozen

# Stop at this relative duality gap and dual infeasibility; once past
# _ACCEPT, also after _STALL iterations that do not improve on the best. The
# best iterate is returned, and converged means it reached _ACCEPT.
_TOL = 1e-8
_ACCEPT = 1e-7
_STALL = 4
_MAX_ITER = 100
_STEP = 0.98  # fraction of the way to the boundary of the cone


@dataclass(frozen=True)
class Block:
    """One LMI block: F0 plus coef[t] * y[var[t]] at (row[t], col[t]) and at
    (col[t], row[t]) for every term t, once on the diagonal, must be PSD."""

    F0: np.ndarray
    var: np.ndarray
    row: np.ndarray
    col: np.ndarray
    coef: np.ndarray


@dataclass(frozen=True)
class Solution:
    """The best iterate: y (feasible up to rounding), the dual matrices W (one
    per block, in input order), both objectives, whether it met _ACCEPT, and
    the number of interior-point steps taken."""

    y: np.ndarray
    W: list[np.ndarray]
    primal: float
    dual: float
    converged: bool
    iterations: int


def _mT(A: np.ndarray) -> np.ndarray:
    return A.swapaxes(-1, -2)


class Structure:
    """The read-only index arrays, fixed by the blocks' sizes, var, row and col
    and by group, that map y to Z(y), W to F*(W), (W, Z^-1) to the Schur
    complement and a flat vector to its blockwise transpose; index keeps what
    solve checks the blocks against."""

    def __init__(self, blocks: list[Block], group):
        self.group = group = np.array(group)
        m = group.size
        self.index = tuple((blk.F0.shape[0], blk.var, blk.row, blk.col) for blk in blocks)
        self.order = sorted(range(len(blocks)), key=lambda j: blocks[j].F0.shape[0])
        ordered = [blocks[j] for j in self.order]
        dims = np.array([blk.F0.shape[0] for blk in ordered])
        base = np.cumsum(dims**2) - dims**2
        sizes, counts = np.unique(dims, return_counts=True)
        shapes = zip(base[np.searchsorted(dims, sizes)].tolist(), counts.tolist(), sizes)
        self.spans = [(a, a + g * d * d, (g, d, d)) for a, g, d in shapes if d > 1]
        self.l = l = int(np.sum(dims == 1))
        self.N = int(dims.sum())  # sum_j tr(W_j Z_j) / N is mu
        self.size, self.m = int((dims**2).sum()), m
        blk = np.repeat(np.arange(len(ordered)), [b.var.size for b in ordered])
        v, r, c = (np.concatenate([getattr(b, f) for b in ordered]) for f in ("var", "row", "col"))
        self.half = np.where(r == c, 0.5, 1.0)
        d, o = dims[blk], base[blk]
        self.at = np.concatenate([o + r * d + c, o + c * d + r])
        self.var = np.concatenate([v, v])
        top = np.full(dims.size, -1)  # each block's group, -1 if none
        np.maximum.at(top, blk, group[v])
        if np.any((group[v] >= 0) & (group[v] != top[blk])):
            raise ValueError("two variable groups share a block")
        shared = np.flatnonzero(group < 0)
        counts = np.bincount(group[group >= 0])
        K, k, s = counts.size, int(counts.max(initial=0)), shared.size
        pos = np.zeros(m, dtype=int)
        pos[shared] = np.arange(s)
        local = np.full((K, k), m)  # padding points past the end of y
        rg = top[:l]  # the group of each row of the linear cone
        self.rows = np.full((K, np.bincount(rg[rg >= 0]).max(initial=0)), l)
        for g in range(K):
            mine = np.flatnonzero(group == g)
            pos[mine] = np.arange(mine.size)
            local[g, : mine.size] = mine
            mine = np.flatnonzero(rg == g)
            self.rows[g, : mine.size] = mine
        # Where the linear cone's coefficients go in its rows A, dense over a
        # group's k variables and then the s shared ones.
        cone = blk < l
        self.cone_at = np.stack([blk, np.where(group[v] >= 0, pos[v], k + pos[v])])[:, cone]
        # tr(T_p W T_q Z^-1) for T = h (E_ab + E_ba) is the sum of four
        # products W_xy Zi_uv, gathered for every pair (p, q) of terms of
        # one matrix block.
        mat = np.flatnonzero(~cone)
        blk, v, r, c, d, o = (x[mat] for x in (blk, v, r, c, d, o))
        per_block = np.bincount(blk, minlength=dims.size)
        n_of = per_block[blk]
        p = np.repeat(np.arange(blk.size), n_of)
        q = np.arange(p.size) - np.repeat(np.cumsum(n_of) - n_of, n_of)
        q += (np.cumsum(per_block) - per_block)[blk[p]]
        ap, bp, aq, bq, d, o = r[p], c[p], r[q], c[q], d[p], o[p]
        wi = o + np.stack([bp * d + aq, bp * d + bq, ap * d + aq, ap * d + bq])
        zi = o + np.stack([bq * d + ap, aq * d + ap, bq * d + bp, aq * d + bp])
        pq, vp, vq = mat[np.stack([p, q])], v[p], v[q]  # pq: the pair's two terms
        # Where each pair lands: the shared block S, a group's own block H,
        # or the coupling E of a group's variables to the shared ones.
        gp, gq = group[vp], group[vq]
        self.offsets = (K * k * k, K * k * k + K * k * s)
        row = gp * k + pos[vp]  # a group variable's row in H or E
        in_group = np.where(gq < 0, self.offsets[0] + row * s, row * k)
        dest = np.where(gp < 0, self.offsets[1] + pos[vp] * s, in_group) + pos[vq]
        keep = (gp >= 0) | (gq < 0)  # E holds the (group, shared) half only
        self.wi, self.zi, self.pq, self.dest = (a[..., keep] for a in (wi, zi, pq, dest))
        self.K, self.k, self.s = K, k, s
        self.shared, self.local = shared, local
        self.pad = np.eye(k) * (local == m)[:, None, :]  # unit diagonal on padding
        # A[transpose] transposes every block of a flat A; 1x1 rows stay put.
        self.transpose = np.arange(self.size)
        for a, b, gdd in self.spans:
            self.transpose[a:b] = np.arange(a, b).reshape(gdd).swapaxes(1, 2).ravel()
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                _frozen(a)


class Layout:
    """A program declared in order by var, sym and lmi, and laid out by done."""

    def __init__(self):
        self.gain, self.group, self.start, self.F0, self.terms = [], [], [], [], []

    def var(self, shape: tuple, group: int, gain: float = 0.0, start=0.0) -> np.ndarray:
        """New variables, numbered row-major over shape; start: one value or one each."""
        ids = len(self.group) + np.arange(math.prod(shape)).reshape(shape)
        for kept, x in zip((self.gain, self.group, self.start), (gain, group, start)):
            kept += np.full(ids.size, x).tolist()
        return ids

    def sym(self, mask: np.ndarray, group: int, start=0.0) -> np.ndarray:
        """Symmetric ids of new variables along mask's upper triangle, row-major, -1 off it."""
        ids, (r, c) = np.full(mask.shape, -1), np.nonzero(np.triu(mask))
        ids[r, c] = ids[c, r] = self.var(r.shape, group, 0.0, np.where(mask, start, 0.0)[r, c])
        return ids

    def lmi(self, F0, *terms) -> int:
        """Add the block F0 plus its terms (ids, coef, i, j); return its index."""
        self.F0.append(np.atleast_2d(F0))
        self.terms += [(len(self.F0) - 1, len(self.F0[-1]), np.asarray(x), *t) for x, *t in terms]
        return len(self.F0) - 1

    def done(self) -> tuple:
        """(gain, start, blocks, Structure), all read-only; % d puts 1x1 blocks at (0, 0)."""
        blk, d, ids, coef, i, j = zip(*self.terms)
        n = np.array([a.size for a in ids])
        blk, d, coef, i, j = (np.repeat(x, n) for x in (blk, d, np.array(coef, float), i, j))
        at = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)  # the entry within its term
        r, c = np.divmod(at, np.repeat([a.shape[-1] if a.ndim else 1 for a in ids], n))
        var = np.concatenate([a.ravel() for a in ids])
        keep = (var >= 0) & ((i != j) | (r <= c))
        var, row, col, coef = (_frozen(x[keep]) for x in (var, (i + r) % d, (j + c) % d, coef))
        ends = np.cumsum(np.bincount(blk[keep], minlength=len(self.F0))).tolist()
        blocks = tuple(Block(_frozen(F), var[a:b], row[a:b], col[a:b], coef[a:b])
                       for F, a, b in zip(self.F0, [0] + ends, ends))
        gain, group, start = map(np.array, (self.gain, self.group, self.start))
        return _frozen(gain), _frozen(start), blocks, Structure(blocks, group)


def _inv_chol(A: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor L of each matrix of the stack A, after a
    diagonal shift of 1e-13 of the largest entry if rounding defeats it."""
    try:
        return np.linalg.inv(np.linalg.cholesky(A))
    except np.linalg.LinAlgError:
        d = 1e-13 * np.abs(np.diagonal(A, axis1=-2, axis2=-1)).max(-1, initial=0.0)
        A = A + d[..., None, None] * np.eye(A.shape[-1])
        return np.linalg.inv(np.linalg.cholesky(A))


def solve(b: np.ndarray, blocks: list[Block], y0: np.ndarray, st: Structure) -> Solution:
    """Maximize b.y subject to every block, starting from y0.

    st is the Structure of the blocks. Raises ValueError when it was built
    from other blocks or when y0 is not strictly feasible.
    """
    index = [(blk.F0.shape[0], blk.var, blk.row, blk.col) for blk in blocks]
    if len(index) != len(st.index) or not all(
        a is b or np.array_equal(a, b) for x, y in zip(index, st.index) for a, b in zip(x, y)
    ):
        raise ValueError("the blocks are not those the structure was built from")
    ordered = [blocks[j] for j in st.order]
    F0 = np.concatenate([np.ravel(blk.F0) for blk in ordered]).astype(float)
    coef = np.concatenate([blk.coef for blk in ordered])  # the 1x1 blocks' first
    h = coef * st.half
    hc, w = np.concatenate([h, h]), h[st.pq[0]] * h[st.pq[1]]
    A = np.zeros((st.l + 1, st.k + st.s))  # Ar pads with row l = 0
    np.add.at(A, tuple(st.cone_at), coef[: st.cone_at.shape[1]])
    Ar, As = A[st.rows], A[: st.l, st.k :]
    l, t = st.l, st.transpose
    y = np.asarray(y0, dtype=float).copy()
    # Flat iterates: WZ = [W; Z], D = [dW; dZ], Z^-1, the corrector C and R,
    # the product V dZ Z^-1 on every matrix block, for V = W or dW.
    (WZ, D), (Zi, C, R) = np.zeros((2, 2, st.size)), np.zeros((3, st.size))
    (W, Z), (dW, dZ) = WZ, D

    def views(flat: np.ndarray) -> list[np.ndarray]:
        """The blocks past the linear cone of flat (..., size), one view per size."""
        return [flat[..., a:b].reshape(flat.shape[:-1] + gdd) for a, b, gdd in st.spans]

    def lin(y: np.ndarray) -> np.ndarray:
        """Flat sum_i y_i F_i over every block."""
        return np.bincount(st.at, hc * y[st.var], st.size)

    def adjoint(W: np.ndarray) -> np.ndarray:
        """F*(W)_i = sum_j tr(F_ji W_j), for a flat W."""
        return np.bincount(st.var, hc * W[st.at], st.m)

    mats = list(zip(*map(views, (WZ, D, Zi, R))))

    def factor() -> list[np.ndarray]:
        """_inv_chol of each size's [W; Z] stack, once w > 0 and z > 0."""
        if l and not np.all(WZ[:, :l] > 0):
            raise np.linalg.LinAlgError
        return [_inv_chol(WZj) for WZj, *_ in mats]

    def direction(newton, r: np.ndarray) -> np.ndarray:
        """dy = M^-1 r, dZ = F(dy) and dW = sym(C) - W - sym(W dZ Z^-1), into D."""
        dy = newton(r)
        dZ[:] = lin(dy)
        for WZj, Dj, Zj, Rj in mats:
            np.matmul(WZj[0] @ Dj[1], Zj, out=Rj)
        dW[:] = (C + C[t]) / 2.0 - W - (R + R[t]) / 2.0
        if l:
            dW[:l] = C[:l] - W[:l] * (1.0 + dZ[:l] * Zi[:l])
        return dy

    def steps(L: list[np.ndarray]) -> tuple[float, float]:
        """_STEP times the largest a <= 1/_STEP that keeps W + a dW PSD, and the
        same for Z + a dZ, each capped at 1."""
        low = [np.linalg.eigvalsh(Li @ Dj @ _mT(Li))[..., 0].min(1)
               for Li, (_, Dj, *_) in zip(L, mats)]
        if l:
            low.append(np.min(D[:, :l] / WZ[:, :l], axis=1))
        return tuple(1.0 if x >= 0 else min(1.0, -_STEP / x) for x in np.min(low, axis=0))

    def schur():
        """Factor M_pq = sum_j tr(F_jp W_j F_jq Z_j^-1) at W, Zi; return its solver.

        M = [[H, E], [E^T, S]], H block diagonal over the groups, is solved through
        the Cholesky factors of H and of S - E^T H^-1 E, refined once against M.
        """
        vals = w * np.einsum("ij,ij->j", W[st.wi], Zi[st.zi])
        K, k, s = st.K, st.k, st.s
        M = np.bincount(st.dest, vals, st.offsets[1] + s * s).astype(float, copy=False)
        H = M[: st.offsets[0]].reshape(K, k, k) + st.pad
        E = M[st.offsets[0] : st.offsets[1]].reshape(K, k, s)
        S = M[st.offsets[1] :].reshape(s, s)
        if l:  # the linear cone: A^T diag(w/z) A
            dz = np.append(W[:l] * Zi[:l], 0.0)
            HE = _mT(Ar[..., :k]) @ (dz[st.rows, None] * Ar)
            H += HE[..., :k]
            E += HE[..., k:]
            S += As.T @ (dz[:l, None] * As)
        Li = _inv_chol(H)
        if s:  # margin and per-cut score mode have no shared variable to eliminate
            LiE = Li @ E
            HiE = _mT(Li) @ LiE
            Lr = _inv_chol(S - np.einsum("gas,gat->st", LiE, LiE))

        def once(r: np.ndarray) -> np.ndarray:
            ext = np.append(r, 0.0)
            hr = (_mT(Li) @ (Li @ ext[st.local][..., None]))[..., 0]
            out = np.zeros(st.m + 1)
            if s:
                dS = Lr.T @ (Lr @ (r[st.shared] - np.einsum("gas,ga->s", E, hr)))
                hr = hr - HiE @ dS
                out[st.shared] = dS
            out[st.local] = hr
            return out[: st.m]

        def newton(r: np.ndarray) -> np.ndarray:
            dy = once(r)
            dL = np.append(dy, 0.0)[st.local]
            HdL, Mdy = (H @ dL[..., None])[..., 0], np.zeros(st.m + 1)
            if s:
                dS = dy[st.shared]
                HdL += E @ dS
                Mdy[st.shared] = S @ dS + np.einsum("gas,ga->s", E, dL)
            Mdy[st.local] = HdL
            return dy + once(r - Mdy[: st.m])

        return newton

    Z[:] = F0 + lin(y)
    try:
        for WZj, *_ in mats:
            WZj[0] = np.linalg.inv(WZj[1])
        W[:] = (W + W[t]) / 2.0
        W[:l] = 1.0 / np.where(Z[:l] > 0, Z[:l], np.inf)  # w = 0 where z <= 0: refused
        L = factor()
    except np.linalg.LinAlgError:
        raise ValueError("the starting point is not strictly feasible") from None
    best, stall, moved, scale = None, 0, True, 1 + np.linalg.norm(b)
    for it in range(_MAX_ITER + 1):
        primal, dual = float(b @ y), float(F0 @ W)
        rp = b + adjoint(W)
        gap = abs(dual - primal) / (1 + abs(primal))
        err = max(gap, float(np.linalg.norm(rp) / scale))
        if best is None or err < best[0]:
            best, stall = (err, y, W.copy(), primal, dual), 0
        else:
            stall += 1
        stop = err <= _TOL or (best[0] <= _ACCEPT and stall == _STALL)
        if stop or not moved or it == _MAX_ITER:
            break
        try:
            if l:
                Zi[:l] = 1.0 / Z[:l]
            for Li, (_, _, Zj, _) in zip(L, mats):
                np.matmul(_mT(Li[1]), Li[1], out=Zj)
            newton = schur()
            mu = float(W @ Z) / st.N

            # Predictor: the affine-scaling direction.
            C[:] = 0.0
            direction(newton, b)
            ap, ad = steps(L)
            mu_a = float((W + ap * dW) @ (Z + ad * dZ)) / st.N
            expon = max(1.0, 3.0 * min(ap, ad) ** 2)
            sigma = min(1.0, max(0.0, mu_a / mu)) ** expon

            # Corrector: centering plus the second-order term.
            for _, Dj, Zj, Rj in mats:
                np.matmul(Dj[0] @ Dj[1], Zj, out=Rj)
            C[:] = sigma * mu * Zi - R
            if l:
                C[:l] = (sigma * mu - dW[:l] * dZ[:l]) * Zi[:l]
            dy = direction(newton, b + adjoint(C))
            ap, ad = steps(L)
            y_new = y + ad * dy
            W += ap * dW
            Z[:] = F0 + lin(y_new)
            L = factor()
        except np.linalg.LinAlgError:
            break  # numerical breakdown: keep the best iterate
        y, moved = y_new, max(ap, ad) > 1e-12
    err, y, W, primal, dual = best
    back = np.argsort(st.order)
    W = list(W[:l].reshape(l, 1, 1)) + [A for Wj in views(W) for A in Wj]
    return Solution(y, [W[i] for i in back], primal, dual, err <= _ACCEPT, it)
