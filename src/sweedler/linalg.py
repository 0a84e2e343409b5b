"""Exact sparse linear algebra over the ground field.

Rows are dicts column-index -> coefficient; the solvers copy them and divide
through ``scalars.quotient``, so pivot division stays exact, and every value
they return is an ``int`` where it is integral.  Used for the
finite-dimensional convolution-inverse solve and for kernel computations
(full skew-primitive subspaces on truncated coalgebras).  Elimination keeps
rows sparse by always pivoting on the shortest available row.
"""

from __future__ import annotations

from .scalars import quotient


def _eliminate(rows: list[dict], rhs: list | None):
    """Gauss-Jordan elimination in place; returns the (row, col) pivots."""
    nrows = len(rows)
    active = list(range(nrows))
    pivots: list[tuple[int, int]] = []
    while True:
        best = None
        for i in active:
            if rows[i]:
                if best is None or len(rows[i]) < len(rows[best]):
                    best = i
        if best is None:
            break
        piv_col = min(rows[best], key=_colkey)
        piv_val = rows[best][piv_col]
        # normalize pivot row
        if piv_val != 1:
            rows[best] = {c: quotient(v, piv_val) for c, v in rows[best].items()}
            if rhs is not None:
                rhs[best] = quotient(rhs[best], piv_val)
        for i in range(nrows):
            if i == best:
                continue
            factor = rows[i].get(piv_col)
            if factor is None or not factor:
                continue
            ri = rows[i]
            for c, v in rows[best].items():
                nv = ri.get(c, 0) - factor * v
                if nv:
                    ri[c] = nv
                else:
                    ri.pop(c, None)
            if rhs is not None:
                rhs[i] = rhs[i] - factor * rhs[best]
        pivots.append((best, piv_col))
        active.remove(best)
    return pivots


def _colkey(c):
    return repr(c)


def solve_sparse(rows: list[dict], rhs: list):
    """Solve the sparse system; returns a solution dict col -> value or None.

    Free variables are set to zero.  Inconsistent systems return None.
    """
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    pivots = _eliminate(rows, rhs)
    pivot_rows = {i for i, _ in pivots}
    for i, r in enumerate(rows):
        if not r and i not in pivot_rows and rhs[i]:
            return None
    solution: dict = {}
    for i, c in pivots:
        # after full (Jordan) elimination each pivot row has a single entry
        val = rhs[i]
        extra = sum(v * solution.get(cc, 0) for cc, v in rows[i].items() if cc != c)
        solution[c] = quotient(val - extra, 1)
    return solution


def nullspace_sparse(rows: list[dict], columns: list) -> list[dict]:
    """Basis of the kernel of the sparse matrix, over the given column set."""
    rows = [dict(r) for r in rows]
    pivots = _eliminate(rows, None)
    pivot_cols = {c for _, c in pivots}
    col_of_pivot = {c: i for i, c in pivots}
    basis = []
    for free in columns:
        if free in pivot_cols:
            continue
        vec = {free: 1}
        for c, i in col_of_pivot.items():
            coeff = rows[i].get(free)
            if coeff:
                vec[c] = -quotient(coeff, 1)
        basis.append(vec)
    return basis
