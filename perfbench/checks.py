"""Output checks made apart from the program.

Every check takes a study's output files (name -> bytes) and returns the set
of operations it failed, numbered as in ``workloads.py``.  Nothing here calls
the program's estimators, metrics or writers: angles come from
``numpy.linalg.svd``, the BIC minimum from a brute-force loop over the
documented formula, quartiles from ``numpy.percentile`` and the
counterexample's law from its closed form.  The one program function used is
the public sampler, to regenerate a replication's X from its documented seed.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Counterexample, Study

REPLICATIONS_HEADER = (
    "alpha,beta,method,rep,lambda,angle_deg,type1,type2,df,bic_total,converged,runtime_ms"
)
SUMMARY_HEADER = (
    "alpha,beta,method,count,lambda_median,df_median,"
    "angle_q25,angle_median,angle_q75,"
    "type1_q25,type1_median,type1_q75,"
    "type2_q25,type2_median,type2_q75"
)
COUNTEREXAMPLE_HEADER = "d,alpha,reps,empirical,predicted,abs_error,binom_se"

#: pca and oracle angles must match the SVD's within this many degrees.
ANGLE_TOL_DEG = 1e-8
#: Two-sided normal tail beyond 4 standard errors, about 6.3e-5.
FOUR_SIGMA_TAIL = math.erfc(4.0 / math.sqrt(2.0))


def check(spec, seed: int, files: dict[str, bytes]) -> set[int]:
    if isinstance(spec, Counterexample):
        return check_counterexample(spec, files)
    return check_study(spec, seed, files)


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------


def _table(data: bytes | None, header: str) -> list[dict[str, str]] | None:
    """Rows of an LF-terminated CSV with exactly ``header``, or None."""
    lines = (data or b"").decode("utf-8").split("\n")
    if lines[0] != header or lines[-1] != "":
        return None
    cols = header.split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != len(cols) for r in rows):
        return None
    return [dict(zip(cols, r)) for r in rows]


def _op_key(spec: Study, alpha: str, beta: str, rep: str) -> int | None:
    try:
        pi = spec.pairs.index((float(alpha), float(beta)))
        r = int(rep)
    except ValueError:
        return None
    return pi * spec.reps + r if 0 <= r < spec.reps else None


def rows_by_operation(spec, files: dict[str, bytes]) -> dict[int, list[str]] | None:
    """Raw lines of the per-operation CSV grouped by operation, or None."""
    lines = (files.get(spec.rows_file) or b"").decode("utf-8").split("\n")[1:-1]
    if isinstance(spec, Counterexample):
        return dict(enumerate(lines))
    out: dict[int, list[str]] = {}
    for line in lines:
        cells = line.split(",")
        key = _op_key(spec, *cells[:2], cells[3]) if len(cells) > 3 else None
        if key is None:
            return None
        out.setdefault(key, []).append(line)
    return out


def differing_operations(spec, a: dict[str, bytes], b: dict[str, bytes], names) -> set[int]:
    """Operations whose output differs between two runs, judged on ``names``.

    Rows of the per-operation CSV are compared per operation; a difference
    in any other file, or in that CSV's header or row order, fails every
    operation.
    """
    everything = set(range(spec.operations))
    failed: set[int] = set()
    for name in names:
        if a.get(name) == b.get(name):
            continue
        if name != spec.rows_file:
            return everything
        ga, gb = rows_by_operation(spec, a), rows_by_operation(spec, b)
        if ga is None or gb is None:
            return everything
        rows_failed = {op for op in everything if ga.get(op) != gb.get(op)}
        if not rows_failed:
            return everything
        failed |= rows_failed
    return failed


# ---------------------------------------------------------------------------
# Independent recomputation
# ---------------------------------------------------------------------------


def angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between the lines spanned by a and b, accurate near 0 and 90."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 90.0
    a, b = a / na, b / nb
    c = float(a @ b)
    return math.degrees(math.atan2(float(np.linalg.norm(a - c * b)), abs(c)))


def bic_totals(x: np.ndarray, v1: np.ndarray, grid) -> list[float]:
    """BIC of the hard-thresholded X v1 at every lambda of ``grid``.

    BIC(lam) = RSS / (n d sigma2) + log(n d) / (n d) * df, with
    RSS = ||X||_F^2 - 2 c.Xv + c.c for the candidate c = Xv 1{|Xv| > lam},
    df = nnz(c) and sigma2 = (||X||_F^2 - ||Xv||^2) / (n d - d).
    """
    d, n = x.shape
    nd = n * d
    xv = x @ v1
    fro2 = float(np.sum(x * x))
    sigma2 = max(fro2 - float(xv @ xv), 0.0) / (nd - d)
    totals = []
    for lam in grid:
        c = np.where(np.abs(xv) > lam, xv, 0.0)
        rss = max(fro2 - 2.0 * float(c @ xv) + float(c @ c), 0.0)
        rss_term = rss / (nd * sigma2) if sigma2 > 0.0 else 0.0
        totals.append(rss_term + math.log(nd) / nd * np.count_nonzero(c))
    return totals


def regenerate(spec: Study, seed: int, pi: int, rep: int) -> np.ndarray:
    """X of replication (pi, rep) from the public sampler and documented seed."""
    from spcalab.model import SpikedSpec, build_eigensystem, sample_gaussian

    alpha, beta = spec.pairs[pi]
    system = build_eigensystem(SpikedSpec(spec.d, spec.n, alpha, beta))
    return sample_gaussian(system, np.random.SeedSequence(seed, spawn_key=(pi, rep))).x


# ---------------------------------------------------------------------------
# sweep / bic / phase studies
# ---------------------------------------------------------------------------


def _final_rows(spec: Study, rows: list[dict]) -> dict[str, dict] | None:
    """The final (BIC-selected or single) row per method, or None if malformed.

    In a sweep, st and rspca have one row per grid lambda plus the selected
    row, which the canonical sort puts right after the grid row it repeats.
    """
    by_method: dict[str, list[dict]] = {}
    for r in rows:
        by_method.setdefault(r["method"], []).append(r)
    if set(by_method) != set(spec.methods):
        return None
    finals = {}
    for method, rs in by_method.items():
        if spec.sweep and method in ("st", "rspca"):
            lams = [float(r["lambda"]) for r in rs]
            repeats = [i for i in range(1, len(rs)) if lams[i] == lams[i - 1]]
            if len(rs) != spec.lambda_points + 2 or len(repeats) != 1 or lams != sorted(lams):
                return None
            finals[method] = rs[repeats[0]]
        elif len(rs) == 1:
            finals[method] = rs[0]
        else:
            return None
    return finals


def _in_range(spec: Study, r: dict) -> bool:
    angle, t1, t2 = float(r["angle_deg"]), float(r["type1"]), float(r["type2"])
    df = int(r["df"])
    return (
        math.isfinite(angle) and 0.0 <= angle <= 90.0
        and 0.0 <= t1 <= 1.0 and 0.0 <= t2 <= 1.0
        and 0 <= df <= spec.d
        and (r["method"] != "oracle" or t2 == 0.0)
    )


def _recomputed(spec: Study, seed: int, op: int, rows: list[dict], finals: dict) -> bool:
    """pca/oracle angles against the SVD; ST BIC values and lambda against brute force."""
    pi, rep = divmod(op, spec.reps)
    beta = spec.pairs[pi][1]
    m = math.floor(spec.d ** beta)
    u1 = np.zeros(spec.d)
    u1[:m] = m ** -0.5
    x = regenerate(spec, seed, pi, rep)
    ok = True
    # Unthresholded estimates are plain PCA: the pca rows, and in a sweep
    # the st and rspca rows at lambda = 0.
    pca_rows = [r for r in rows if r["method"] == "pca"]
    if spec.sweep:
        pca_rows += [r for r in rows if r["method"] in ("st", "rspca")
                     and float(r["lambda"]) == 0.0 and r is not finals[r["method"]]]
    if pca_rows or (spec.sweep and "st" in spec.methods):
        u, _, vt = np.linalg.svd(x, full_matrices=False)
        pca = angle_deg(u[:, 0], u1)
        ok &= all(abs(float(r["angle_deg"]) - pca) <= ANGLE_TOL_DEG for r in pca_rows)
        if spec.sweep and "st" in spec.methods:
            st = [r for r in rows if r["method"] == "st" and r is not finals["st"]]
            totals = bic_totals(x, vt[0], [float(r["lambda"]) for r in st])
            ok &= all(math.isclose(float(r["bic_total"]), t, rel_tol=1e-9)
                      for r, t in zip(st, totals))
            best = min(range(len(st)), key=lambda i: (totals[i], -i))
            ok &= float(st[best]["lambda"]) == float(finals["st"]["lambda"])
    if "oracle" in spec.methods:
        us = np.linalg.svd(x[:m], full_matrices=False)[0]
        oracle = angle_deg(us[:, 0], u1[:m])
        ok &= abs(float(finals["oracle"]["angle_deg"]) - oracle) <= ANGLE_TOL_DEG
    return ok


def _summary_matches(row: dict, finals: list[dict]) -> bool:
    def col(name):
        return np.array([float(f[name]) for f in finals])

    lams = [float(f["lambda"]) for f in finals if f["lambda"] != ""]
    expected = {
        "lambda_median": float(np.median(lams)) if lams else None,
        "df_median": float(np.median(col("df"))),
    }
    for name, values in (("angle", col("angle_deg")), ("type1", col("type1")), ("type2", col("type2"))):
        for q, suffix in ((25, "q25"), (50, "median"), (75, "q75")):
            expected[f"{name}_{suffix}"] = float(np.percentile(values, q))
    if int(row["count"]) != len(finals):
        return False
    return all(
        row[k] == "" if v is None else row[k] != "" and float(row[k]) == v
        for k, v in expected.items()
    )


def check_study(spec: Study, seed: int, files: dict[str, bytes]) -> set[int]:
    everything = set(range(spec.operations))
    rows = _table(files.get("replications.csv"), REPLICATIONS_HEADER)
    summary = _table(files.get("summary.csv"), SUMMARY_HEADER)
    if rows is None or summary is None or not files.get("phase.svg"):
        return everything
    by_op: dict[int, list[dict]] = {}
    for r in rows:
        key = _op_key(spec, r["alpha"], r["beta"], r["rep"])
        if key is None:
            return everything
        by_op.setdefault(key, []).append(r)

    failed = set()
    finals_by_op = {}
    for op in everything:
        op_rows = by_op.get(op, [])
        finals = _final_rows(spec, op_rows)
        try:
            ok = (finals is not None and all(_in_range(spec, r) for r in op_rows)
                  and _recomputed(spec, seed, op, op_rows, finals))
        except ValueError:  # an unparsable cell
            ok = False
        if finals is not None:
            finals_by_op[op] = finals
        if not ok:
            failed.add(op)

    by_group = {(float(s["alpha"]), float(s["beta"]), s["method"]): s for s in summary}
    if len(by_group) != len(summary) or set(by_group) != {
        (a, b, m) for a, b in spec.pairs for m in spec.methods
    }:
        return everything
    for pi, (alpha, beta) in enumerate(spec.pairs):
        ops = range(pi * spec.reps, (pi + 1) * spec.reps)
        for method in spec.methods:
            finals = [finals_by_op.get(op, {}).get(method) for op in ops]
            if None in finals or not _summary_matches(by_group[(alpha, beta, method)], finals):
                failed.update(ops)
    if spec.sweep:
        for alpha, beta in spec.pairs:
            if not files.get(f"sweep_a{alpha:g}_b{beta:g}.svg"):
                return everything
    return failed


# ---------------------------------------------------------------------------
# Counterexample
# ---------------------------------------------------------------------------


def binomial_two_sided(k: int, n: int, p: float) -> float:
    """Exact two-sided tail probability of k successes in Binomial(n, p)."""
    def pmf(j):
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(p) + (n - j) * math.log1p(-p)
        )

    low = sum(pmf(j) for j in range(k + 1))
    high = 1.0 - low + pmf(k)
    return min(1.0, 2.0 * min(low, high))


def failure_probability(d: int, alpha: float) -> float:
    """P(every tail coordinate of one draw is zero) = (1 - 2 d^-((a+1)/2))^(d-1)."""
    return (1.0 - 2.0 * d ** (-(alpha + 1.0) / 2.0)) ** (d - 1)


def check_counterexample(spec: Counterexample, files: dict[str, bytes]) -> set[int]:
    """Each d's frequency against the closed form, and its decrease with d.

    A frequency passes when its exact binomial tail probability is at least
    that of 4 standard errors of a normal, since at d=400 the expected count
    is about 1 or less, where a normal 4-standard-error window would reject a
    correct program far more often than that.  A step to the
    next d fails when the frequency rises by more than 4 standard errors of
    the difference, and the largest d must have a lower frequency than the
    smallest.
    """
    everything = set(range(spec.operations))
    rows = _table(files.get("counterexample.csv"), COUNTEREXAMPLE_HEADER)
    if rows is None or [r["d"] for r in rows] != [str(d) for d in spec.dims]:
        return everything
    if not files.get("counterexample.svg"):
        return everything
    failed = set()
    emp, se = [], []
    for i, (d, r) in enumerate(zip(spec.dims, rows)):
        p = failure_probability(d, spec.alpha)
        s = math.sqrt(p * (1.0 - p) / spec.reps)
        e = float(r["empirical"])
        hits = round(e * spec.reps)
        emp.append(e)
        se.append(s)
        ok = (
            float(r["alpha"]) == spec.alpha
            and int(r["reps"]) == spec.reps
            and hits / spec.reps == e
            and math.isclose(float(r["predicted"]), p, rel_tol=1e-12)
            and math.isclose(float(r["abs_error"]), abs(e - p), rel_tol=1e-9, abs_tol=1e-15)
            and math.isclose(float(r["binom_se"]), s, rel_tol=1e-12)
            and binomial_two_sided(hits, spec.reps, p) >= FOUR_SIGMA_TAIL
        )
        if i > 0 and emp[i] - emp[i - 1] > 4.0 * math.hypot(se[i], se[i - 1]):
            ok = False
        if not ok:
            failed.add(i)
    if not emp[-1] < emp[0]:
        failed.add(len(emp) - 1)
    return failed
