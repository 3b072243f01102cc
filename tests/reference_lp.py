"""Reference simplex for the LP tests.

The two-phase simplex with Bland's rule over ``fractions.Fraction``: every
tableau entry is a rational and each pivot divides the pivot row by its
pivot.  It imports nothing from ``boolgames.lp`` and reads a program only
through its ``variables``, ``nonneg``, ``constraints`` and ``objective``
attributes, so the library's fraction-free integer tableau can be checked
against it: the two make the same pivot choices, so they must return the
same status, value and solution, not just the same optimum.
"""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(rows, zrow, basis, r, c):
    prow = rows[r]
    inv = _ONE / prow[c]
    if inv != 1:
        rows[r] = prow = [x * inv for x in prow]
    for rr, row in enumerate(rows):
        if rr == r:
            continue
        f = row[c]
        if f:
            rows[rr] = [a - f * b for a, b in zip(row, prow)]
    f = zrow[c]
    if f:
        for j in range(len(zrow)):
            zrow[j] -= f * prow[j]
    basis[r] = c


def _run_simplex(rows, zrow, basis):
    """Minimize; zrow holds reduced costs (last entry: minus objective)."""
    ncols = len(zrow) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best_ratio = None
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave < 0:
            return "unbounded"
        _pivot(rows, zrow, basis, leave, enter)


def _reduced_costs(rows, basis, costs):
    zrow = list(costs) + [_ZERO]
    for r, b in enumerate(basis):
        cb = costs[b]
        if cb:
            row = rows[r]
            for j in range(len(zrow)):
                zrow[j] -= cb * row[j]
    return zrow


def feasible_tableau(lp):
    """Phase 1: (rows, basis, col_of, ncols), or None if infeasible."""
    columns = []  # (name, sign)
    for name in lp.variables:
        columns.append((name, 1))
        if not lp.nonneg[name]:
            columns.append((name, -1))
    col_of = {}
    for idx, (name, sign) in enumerate(columns):
        col_of.setdefault(name, []).append((idx, sign))

    nstruct = len(columns)
    raw = []
    slack_count = sum(1 for _, rel, _ in lp.constraints if rel != "=")
    ncols = nstruct + slack_count
    slack_idx = nstruct
    slack_col_of_row = []
    for coeffs, rel, rhs in lp.constraints:
        row = [_ZERO] * ncols + [Fraction(rhs)]
        for name, v in coeffs.items():
            for idx, sign in col_of[name]:
                row[idx] += sign * Fraction(v)
        if rel == "<=":
            row[slack_idx] = _ONE
            slack_col_of_row.append(slack_idx)
            slack_idx += 1
        elif rel == ">=":
            row[slack_idx] = Fraction(-1)
            slack_col_of_row.append(slack_idx)
            slack_idx += 1
        else:
            slack_col_of_row.append(None)
        raw.append(row)

    rows = []
    basis = []
    art_rows = []
    for r, row in enumerate(raw):
        if row[-1] < 0:
            row = [-x for x in row]
        sc = slack_col_of_row[r]
        if sc is not None and row[sc] == 1:
            basis.append(sc)
        else:
            basis.append(None)
            art_rows.append(r)
        rows.append(row)

    nart = len(art_rows)
    total = ncols + nart
    for row in rows:
        rhs = row.pop()
        row.extend([_ZERO] * nart)
        row.append(rhs)
    for k, r in enumerate(art_rows):
        rows[r][ncols + k] = _ONE
        basis[r] = ncols + k

    if nart:
        costs = [_ZERO] * total
        for k in range(nart):
            costs[ncols + k] = _ONE
        zrow = _reduced_costs(rows, basis, costs)
        status = _run_simplex(rows, zrow, basis)
        if status != "optimal" or -zrow[-1] != 0:
            return None
        for r in range(len(rows)):
            if basis[r] >= ncols:
                pivot_col = -1
                for j in range(ncols):
                    if rows[r][j] != 0:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(rows, zrow, basis, r, pivot_col)
        keep = [r for r in range(len(rows)) if basis[r] < ncols]
        rows = [rows[r] for r in keep]
        basis = [basis[r] for r in keep]
        rows = [row[:ncols] + [row[-1]] for row in rows]
    return rows, basis, col_of, ncols


def optimize(tab, coeffs, sense):
    """Phase 2: ("optimal", value, solution) or ("unbounded",)."""
    rows, basis, col_of, ncols = tab
    rows, basis = list(rows), list(basis)
    sign = -1 if sense == "maximize" else 1
    costs = [_ZERO] * ncols
    for name, v in coeffs.items():
        for idx, s in col_of[name]:
            costs[idx] += sign * s * Fraction(v)
    zrow = _reduced_costs(rows, basis, costs)
    if _run_simplex(rows, zrow, basis) == "unbounded":
        return ("unbounded",)
    values = {b: row[-1] for b, row in zip(basis, rows)}
    solution = {name: sum((s * values.get(idx, _ZERO) for idx, s in cols),
                          _ZERO)
                for name, cols in col_of.items()}
    internal = -zrow[-1]
    return ("optimal", internal if sense == "minimize" else -internal,
            solution)


def solve(lp):
    """("optimal", value, solution), ("infeasible",) or ("unbounded",)."""
    tab = feasible_tableau(lp)
    return ("infeasible",) if tab is None else optimize(tab, *lp.objective)


def ranges(lp, names):
    """{name: (min, max)}, None for an unbounded side; None if infeasible."""
    tab = feasible_tableau(lp)
    if tab is None:
        return None
    out = {}
    for name in names:
        ends = [optimize(tab, {name: _ONE}, sense)
                for sense in ("minimize", "maximize")]
        out[name] = tuple(e[1] if e[0] == "optimal" else None for e in ends)
    return out
