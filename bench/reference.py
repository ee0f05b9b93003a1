"""Plain-numpy reference formulas that the benchmark checks qmyo's outputs against.

Nothing here calls qmyo. Decoded angles are rebuilt from a model file's
prototypes, maximal angles and overlap, and prototypes from the training
rows, so a faster decode or training path is checked against the paper's
formulas rather than against itself.
"""

import csv
import json

import numpy as np

ANGLE_TOL = 1e-9  # degrees, for decoded signed angles
VALUE_TOL = 1e-9  # for prototypes, overlaps, residuals and R-squared
# Windows whose direction margin lies this close to the rest threshold may
# land on either side of it under a reordered sum, so they are not compared.
THRESHOLD_GUARD = 1e-12

DOF_KEYS = ("d1", "d2", "d3")


def unit_rows(features):
    """Rows scaled to unit Euclidean norm, and the mask of all-zero rows."""
    features = np.asarray(features, dtype=float)
    norms = np.sqrt(np.einsum("ij,ij->i", features, features))
    zero = norms == 0.0
    return features / np.where(zero, 1.0, norms)[:, None], zero


def model_params(doc):
    """Decode parameters from a model JSON document, DOFs in sorted order."""
    params = []
    for key in sorted(doc["dofs"]):
        entry = doc["dofs"][key]
        p_pos = np.array(entry["prototype_positive"], dtype=float)
        p_neg = np.array(entry["prototype_negative"], dtype=float)
        overlap = entry.get("overlap", float(p_pos @ p_neg) ** 2)
        params.append(
            (key, p_pos, p_neg, float(entry["theta_positive_max"]),
             float(entry["theta_negative_max"]), float(overlap))
        )
    return params, float(doc["decode_config"]["rest_threshold"])


def load_model_doc(path):
    with open(path) as fh:
        return json.load(fh)


def decode(features, params, rest_threshold):
    """Signed angles (N, D), residual activations (N, 3) or None, ambiguous mask.

    Per DOF: e± = (ψ·p±)², margin = e₊ − e₋, rest inside the deadzone,
    otherwise |margin|·θmax/(1 − overlap) clamped to θmax. With all three
    DOFs the completion expectations 1 − e₊ − e₋, clamped at 0, give the
    residual activations. All-zero windows decode to rest, no residuals.
    """
    psi, zero = unit_rows(features)
    n = psi.shape[0]
    signed = np.zeros((n, len(params)))
    completion = np.zeros((n, len(params)))
    ambiguous = np.zeros(n, dtype=bool)
    for k, (_, p_pos, p_neg, th_pos, th_neg, overlap) in enumerate(params):
        e_pos = (psi @ p_pos) ** 2
        e_neg = (psi @ p_neg) ** 2
        margin = e_pos - e_neg
        size = np.abs(margin)
        theta = np.where(margin > 0, th_pos, th_neg)
        angle = np.minimum(size * theta / (1.0 - overlap), theta)
        signed[:, k] = np.where(size <= rest_threshold, 0.0, np.sign(margin) * angle)
        completion[:, k] = 1.0 - e_pos - e_neg
        ambiguous |= np.abs(size - rest_threshold) < THRESHOLD_GUARD
    signed[zero] = 0.0
    ambiguous &= ~zero
    residuals = None
    if [p[0] for p in params] == list(DOF_KEYS):
        z1, z2, z3 = np.maximum(completion, 0.0).T
        residuals = np.stack(
            [(-z1 + z2 + z3) / 2, (z1 - z2 + z3) / 2, (z1 + z2 - z3) / 2], axis=1
        )
        residuals[zero] = np.nan
    return signed, residuals, ambiguous


def load_feature_csv(path):
    """Features (N, C) and signed angle columns (N, 3) of a dataset CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    n_channels = len(header) - 5
    table = np.loadtxt(
        path, delimiter=",", skiprows=1, usecols=range(n_channels + 3), ndmin=2
    )
    return table[:, :n_channels], table[:, n_channels:]


def training_groups(angles):
    """Group code per row (2·dof + 0 positive / 1 negative) and unsigned angle."""
    active = angles != 0.0
    dof = np.argmax(active, axis=1)
    signed = angles[np.arange(len(angles)), dof]
    return 2 * dof + (signed < 0), np.abs(signed)


def _normalize(v):
    return v / np.linalg.norm(v)


def prototypes(features, angles):
    """{(dof key, 'positive'|'negative'): (unit prototype, θmax)} over all rows.

    A prototype is normalize(Σ θᵢ ψᵢ); all-zero rows carry no state and are
    left out, as training drops them.
    """
    psi, zero = unit_rows(features)
    groups, theta = training_groups(angles)
    out = {}
    for g in np.unique(groups[~zero]):
        rows = (groups == g) & ~zero
        key = (DOF_KEYS[g // 2], "negative" if g % 2 else "positive")
        out[key] = (_normalize(theta[rows] @ psi[rows]), float(theta[rows].max()))
    return out


def prefix_overlaps(features, angles, sizes):
    """{dof key: [overlap after the first n rows for n in sizes]}.

    One cumulative sum of θψ per action gives every prefix at once.
    """
    psi, zero = unit_rows(features)
    groups, theta = training_groups(angles)
    weighted = psi * np.where(zero, 0.0, theta)[:, None]
    curves = {}
    for d, key in enumerate(DOF_KEYS):
        pos, neg = groups == 2 * d, groups == 2 * d + 1
        if not (pos.any() and neg.any()):
            continue
        sum_pos = np.cumsum(weighted * pos[:, None], axis=0)
        sum_neg = np.cumsum(weighted * neg[:, None], axis=0)
        curves[key] = [
            float(_normalize(sum_pos[n - 1]) @ _normalize(sum_neg[n - 1])) ** 2
            for n in sizes
        ]
    return curves


def r_squared(truth, estimate):
    """Per-column and pooled 1 − SSE / Σ(deviation from the column mean)²."""
    err = ((estimate - truth) ** 2).sum(axis=0)
    dev = ((truth - truth.mean(axis=0)) ** 2).sum(axis=0)
    return 1.0 - err / dev, 1.0 - err.sum() / dev.sum()


def read_decode_csv(path, dof_keys):
    """Signed angles (N, D), direction strings and residuals (N, 3, NaN if blank)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    signed = np.array(
        [[float(r[col[f"{k}_angle"]]) for k in dof_keys] for r in body]
    ).reshape(len(body), len(dof_keys))
    directions = [[r[col[f"{k}_direction"]] for k in dof_keys] for r in body]
    residuals = np.array(
        [[float(r[col[f"residual_{k}"]] or "nan") for k in DOF_KEYS] for r in body]
    ).reshape(len(body), 3)
    return signed, directions, residuals


def direction_of(value):
    return "positive" if value > 0 else "negative" if value < 0 else "rest"
