"""Output checks for the benchmark workloads.

Every check runs outside the timed region and raises `CheckError` with a
reason when an output is wrong. The sweep checks use an independent
vectorised numpy oracle built from the raw scenario JSON, never library
calls. The Monte Carlo check re-runs `policy_welfare` on the reported winner,
because only the program's own seeded draws can reproduce its estimate.
"""

import csv
import itertools
import json

import numpy as np

# Same touch rule as the sweep: |difference| at or below this is not a sign.
TOUCH_TOL = 1e-12
# A reported crossing must close the welfare gap to this level, somewhere
# within the CSV rounding of its q (see smallest_gap_within_rounding).
CROSSING_VALUE_TOL = 1e-8
# CSV floats carry 12 significant digits: half a unit in the 12th digit,
# plus room for the oracle's different summation order.
CSV_REL_TOL = 6e-12
CSV_ABS_TOL = 1e-13
# Treatment identities are sums of a few dozen products.
TREATMENT_TOL = 1e-12

# Elements per oracle block (q points x types x actions), about 32 MiB.
_BLOCK_ELEMENTS = 4_000_000


class CheckError(Exception):
    """An output that fails a check; the message says which and why."""


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def enumerate_subsets(k):
    """Non-empty subsets of range(k), by size then lexicographically."""
    return [
        subset
        for size in range(1, k + 1)
        for subset in itertools.combinations(range(k), size)
    ]


def grid_from_range(q_min, q_max, q_step):
    """The inclusive arithmetic grid the sweep command documents."""
    n = int(np.floor((q_max - q_min) / q_step + 1e-9))
    values = q_min + q_step * np.arange(n + 1)
    return values[values <= q_max]


def logit_welfare(weights, utilities, q_values):
    """Population logit welfare sum_t w_t sum_i u_ti softmax_i(q u_t) at
    every q, broadcast over (q, type, action) in bounded blocks."""
    q_values = np.asarray(q_values, dtype=np.float64)
    n_types, k = utilities.shape
    step = max(1, _BLOCK_ELEMENTS // (n_types * k))
    out = np.empty(q_values.shape[0])
    for start in range(0, q_values.shape[0], step):
        q = q_values[start:start + step, None, None]
        z = q * utilities[None, :, :]
        z -= z.max(axis=2, keepdims=True)
        e = np.exp(z)
        per_type = (e * utilities[None, :, :]).sum(axis=2) / e.sum(axis=2)
        out[start:start + step] = per_type @ weights
    return out


def population_arrays(doc):
    """(labels, weights, utility matrix) from a raw population document."""
    section = doc["population"]
    weights = np.array([t["weight"] for t in section["types"]], dtype=np.float64)
    utilities = np.array(
        [t["utilities"] for t in section["types"]], dtype=np.float64
    )
    return list(section["actions"]), weights, utilities


def subset_curves(weights, utilities, subsets, q_values):
    """(subsets x grid) welfare of every subset."""
    return np.stack(
        [logit_welfare(weights, utilities[:, list(s)], q_values) for s in subsets]
    )


def _signs(diff):
    return np.where(np.abs(diff) <= TOUCH_TOL, 0.0, np.sign(diff))


def sign_change_brackets(diff):
    """Left grid indices of sign changes in a difference curve, skipping
    touching points as the sweep does. Returns (left, right) index arrays."""
    signs = _signs(diff)
    nonzero = np.nonzero(signs)[0]
    left, right = nonzero[:-1], nonzero[1:]
    change = signs[left] != signs[right]
    return left[change], right[change]


def grid_crossing_count(curves):
    """Number of grid sign changes over all unordered subset pairs."""
    return sum(
        len(sign_change_brackets(curves[ia] - curves[ib])[0])
        for ia, ib in itertools.combinations(range(curves.shape[0]), 2)
    )


def _read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        return header, list(reader)


def crossings_path(rows_path):
    root = rows_path[: -len(".csv")] if rows_path.endswith(".csv") else rows_path
    return f"{root}.crossings.csv"


def check_sweep(scenario_path, rows_path):
    """Check a sweep's rows and crossings files against the oracle.

    Returns the number of crossings reported.
    """
    doc = load_json(scenario_path)
    labels, weights, utilities = population_arrays(doc)
    sweep = doc.get("sweep", {})
    q_values = grid_from_range(
        sweep.get("q_min", 0.0),
        sweep.get("q_max", 10.0),
        sweep.get("q_step", 0.05),
    )
    subsets = enumerate_subsets(len(labels))
    names = ["+".join(labels[i] for i in s) for s in subsets]
    curves = subset_curves(weights, utilities, subsets, q_values)

    header, rows = _read_csv(rows_path)
    if header != ["subset_label", "q", "welfare", "is_envelope"]:
        raise CheckError(f"rows header is {header!r}")
    expected_rows = len(subsets) * q_values.shape[0]
    if len(rows) != expected_rows:
        raise CheckError(
            f"rows: {len(rows)} rows, expected {len(subsets)} subsets x "
            f"{q_values.shape[0]} grid points = {expected_rows}"
        )
    got_names = [r[0] for r in rows]
    want_names = [n for n in names for _ in range(q_values.shape[0])]
    if got_names != want_names:
        raise CheckError("rows: subset labels are not in enumeration order")
    q_col = np.array([float(r[1]) for r in rows]).reshape(len(subsets), -1)
    if not np.allclose(q_col, q_values[None, :], rtol=CSV_REL_TOL, atol=CSV_ABS_TOL):
        raise CheckError("rows: q column differs from the grid")
    welfare = np.array([float(r[2]) for r in rows]).reshape(len(subsets), -1)
    err = np.abs(welfare - curves)
    bad = err > CSV_REL_TOL * np.abs(curves) + CSV_ABS_TOL
    if bad.any():
        si, qi = np.argwhere(bad)[0]
        raise CheckError(
            f"rows: welfare of {names[si]} at q={q_values[qi]!r} is "
            f"{welfare[si, qi]!r}, oracle {curves[si, qi]!r}"
        )
    flags = np.array([r[3] == "true" for r in rows]).reshape(len(subsets), -1)
    if not np.all(flags.sum(axis=0) == 1):
        raise CheckError("rows: not exactly one envelope row per grid point")
    env_welfare = curves[flags.argmax(axis=0), np.arange(q_values.shape[0])]
    best = curves.max(axis=0)
    if np.any(best - env_welfare > CSV_REL_TOL * np.abs(best) + CSV_ABS_TOL):
        raise CheckError("rows: an envelope row is not the best subset")

    header, crossing_rows = _read_csv(crossings_path(rows_path))
    if header != ["subset_a", "subset_b", "q"]:
        raise CheckError(f"crossings header is {header!r}")
    check_crossings(crossing_rows, names, curves, q_values, weights, utilities, subsets)
    return len(crossing_rows)


def check_crossings(crossing_rows, names, curves, q_values, weights, utilities, subsets):
    """Each reported crossing must sit in its own grid sign-change bracket of
    its pair, close the welfare gap to CROSSING_VALUE_TOL there, and every
    oracle bracket must be reported exactly once."""
    index = {name: i for i, name in enumerate(names)}
    expected = grid_crossing_count(curves)
    if len(crossing_rows) != expected:
        raise CheckError(
            f"crossings: {len(crossing_rows)} reported, oracle finds "
            f"{expected} grid sign changes"
        )
    by_pair = {}
    seen = set()
    for row in crossing_rows:
        if len(row) != 3 or row[0] not in index or row[1] not in index:
            raise CheckError(f"crossings: malformed row {row!r}")
        ia, ib = sorted((index[row[0]], index[row[1]]))
        q_star = float(row[2])
        left, right = sign_change_brackets(curves[ia] - curves[ib])
        inside = (q_values[left] <= q_star) & (q_star <= q_values[right])
        if not inside.any():
            raise CheckError(
                f"crossings: {row[0]} vs {row[1]} at q={q_star!r} lies in no "
                "grid sign-change bracket of the pair"
            )
        key = (ia, ib, int(left[np.argmax(inside)]))
        if key in seen:
            raise CheckError(f"crossings: bracket of {row!r} reported twice")
        seen.add(key)
        by_pair.setdefault((ia, ib), []).append(q_star)
    for (ia, ib), qs in by_pair.items():
        def gap_at(q, ia=ia, ib=ib):
            return logit_welfare(weights, utilities[:, list(subsets[ia])], q) - logit_welfare(
                weights, utilities[:, list(subsets[ib])], q
            )

        qs = np.array(qs)
        gap = smallest_gap_within_rounding(gap_at, qs)
        worst = int(np.argmax(gap))
        if gap[worst] > CROSSING_VALUE_TOL:
            raise CheckError(
                f"crossings: {names[ia]} vs {names[ib]} at q={qs[worst]!r} "
                f"leaves a welfare gap of {gap_at(qs[worst:worst + 1])[0]!r}, and "
                f"no less than {gap[worst]!r} within the CSV rounding of q"
            )


def smallest_gap_within_rounding(gap_at, qs):
    """Smallest |gap| over each q's CSV rounding interval.

    The CSV carries q* to 12 significant digits, so the program's own root
    lies within CSV_REL_TOL * |q*| + CSV_ABS_TOL of the printed value. The
    gap is monotone over so short an interval: it closes to zero inside when
    its ends differ in sign, and is smallest at one end otherwise.
    """
    delta = CSV_REL_TOL * np.abs(qs) + CSV_ABS_TOL
    lo, hi = gap_at(qs - delta), gap_at(qs + delta)
    return np.where(np.sign(lo) != np.sign(hi), 0.0, np.minimum(np.abs(lo), np.abs(hi)))


def check_optimize(scenario_path, report_path, model_name):
    """The reported welfare is what `policy_welfare` gives for the reported
    subset, exactly, and lies within [mean-utility bound, idealized optimum]
    computed by the oracle from the raw scenario."""
    from choicewelfare.document import parse_scenario
    from choicewelfare.welfare import policy_welfare

    report = load_json(report_path)
    if sorted(report) != ["subset", "welfare"]:
        raise CheckError(f"report keys are {sorted(report)!r}")
    labels, weights, utilities = population_arrays(load_json(scenario_path))
    try:
        subset = [labels.index(lab) for lab in report["subset"]]
    except ValueError:
        raise CheckError(f"report names unknown actions {report['subset']!r}") from None
    if not subset or subset != sorted(set(subset)):
        raise CheckError(f"report subset {report['subset']!r} is not a sorted set")
    welfare = report["welfare"]
    floor = float(weights @ utilities[:, subset].mean(axis=1))
    ceiling = float(weights @ utilities.max(axis=1))
    if not floor <= welfare <= ceiling:
        raise CheckError(
            f"welfare {welfare!r} outside [mean-utility bound {floor!r}, "
            f"idealized optimum {ceiling!r}]"
        )
    section = parse_scenario(scenario_path).population
    rerun = policy_welfare(section.population, subset, section.models[model_name])
    if rerun.welfare != welfare:
        raise CheckError(
            f"welfare {welfare!r} differs from policy_welfare on the winner "
            f"({rerun.welfare!r})"
        )


def _expected_utility(p, u, col):
    return p * u[f"u1_{col}"] + (1.0 - p) * u[f"u0_{col}"]


def check_treatment(scenario_path, report_path):
    """Per x-cell identities of the treatment report, with mandate and
    decentralised welfare recomputed from the raw scenario."""
    cells = load_json(scenario_path)["treatment"]["x_cells"]
    report = load_json(report_path)
    per_x = report.get("per_x", [])
    if len(per_x) != len(cells):
        raise CheckError(f"report has {len(per_x)} x-cells, scenario {len(cells)}")
    aggregate = 0.0
    for cell, x in zip(cells, per_x):
        where = f"x-cell {cell['label']!r}"
        if x["x_label"] != cell["label"] or x["weight"] != cell["weight"]:
            raise CheckError(f"{where}: label or weight differs from the scenario")
        u = cell["utilities"]
        p_z = np.array([z["p_z_given_x"] for z in cell["z_cells"]])
        p_y = np.array([z["p_xz"] for z in cell["z_cells"]])
        eu_a, eu_b = _expected_utility(p_y, u, "a"), _expected_utility(p_y, u, "b")
        p_x = float(p_z @ p_y)
        mandate = max(_expected_utility(p_x, u, "a"), _expected_utility(p_x, u, "b"))
        decentralized = float(p_z @ np.maximum(eu_a, eu_b))
        for name, want in (
            ("mandate_welfare", mandate),
            ("decentralized_welfare", decentralized),
        ):
            if abs(x[name] - want) > TREATMENT_TOL:
                raise CheckError(f"{where}: {name} {x[name]!r}, oracle {want!r}")
        voi = x["value_of_information"]["voi"]
        if abs(voi - (x["decentralized_welfare"] - x["mandate_welfare"])) > TREATMENT_TOL:
            raise CheckError(f"{where}: voi {voi!r} is not decentralized - mandate")
        q_by_z = x["q_by_z"]
        if sorted(q_by_z) != sorted(z["label"] for z in cell["z_cells"]):
            raise CheckError(f"{where}: q_by_z does not cover the z-cells")
        if not all(0.0 <= q <= 1.0 for q in q_by_z.values()):
            raise CheckError(f"{where}: a q_by_z value lies outside [0, 1]")
        if x["recommendation"] not in ("mandate", "decentralize"):
            raise CheckError(f"{where}: recommendation {x['recommendation']!r}")
        chosen = (
            x["mandate_welfare"]
            if x["recommendation"] == "mandate"
            else x["bounded_rational_welfare"]
        )
        aggregate += x["weight"] * chosen
    if abs(report["aggregate_welfare"] - aggregate) > TREATMENT_TOL:
        raise CheckError(
            f"aggregate welfare {report['aggregate_welfare']!r}, "
            f"sum of weight x chosen welfare {aggregate!r}"
        )
