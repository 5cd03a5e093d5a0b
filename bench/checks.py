"""Correctness checks for the benchmark, computed apart from the program.

Nothing here imports dualmp. Each check recomputes a result its own way
(pairwise AUC counting, a plain-numpy forward pass that aggregates with
``np.bincount``) or tests a property the method must have, and returns a
:class:`Check` with a one-line detail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEAKY_SLOPE = 0.01
LAYER_NORM_EPS = 1e-5
FORWARD_TOLERANCE = 1e-9
# edge scores this close to 0 may land on either side under a different
# summation order, so their side is not compared
SCORE_TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"check {self.name}: {'PASS' if self.ok else 'FAIL'} ({self.detail})"


# ---------------------------------------------------------------------------
# AUC


def mann_whitney_auc(scores, labels, chunk: int = 512) -> float:
    """Share of (positive, negative) pairs where the positive scores higher; ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for lo in range(0, len(pos), chunk):
        block = pos[lo : lo + chunk, None]
        wins += np.count_nonzero(block > neg) + 0.5 * np.count_nonzero(block == neg)
    return wins / (len(pos) * len(neg))


def check_auc(program_auc: float, scores, labels, node_idx) -> Check:
    node_idx = np.asarray(node_idx, dtype=np.int64)
    expected = mann_whitney_auc(np.asarray(scores)[node_idx], np.asarray(labels)[node_idx])
    diff = abs(program_auc - expected)
    return Check("auc", bool(diff <= 1e-12), f"program {program_auc:.12f}, pairwise {expected:.12f}")


# ---------------------------------------------------------------------------
# reference forward pass


def _leaky(x):
    return np.where(x >= 0, x, LEAKY_SLOPE * x)


def _aggregate(h, messages, src, dst, num_nodes):
    """h_u + sum over edges (u, v) of messages_v / sqrt(1 + d_u d_v), degrees counted in this edge set."""
    deg = np.bincount(src, minlength=num_nodes).astype(np.float64)
    coef = 1.0 / np.sqrt(1.0 + deg[src] * deg[dst])
    weighted = coef[:, None] * messages[dst]
    summed = np.stack(
        [np.bincount(src, weights=weighted[:, c], minlength=num_nodes) for c in range(h.shape[1])],
        axis=1,
    )
    return h + summed


def reference_forward(params: dict, features, relations, residual_mix: float, resolve_ties=None):
    """Eval-mode fraud probabilities of the full model, from checkpoint arrays.

    ``relations`` is a list of (name, sources, targets). Returns the (N, 2)
    probabilities, and per relation the edge scores and heterophilic mask.
    ``resolve_ties(r, near_zero)`` may supply the side of edges whose score
    lies within rounding of 0; by default they follow the sign.
    """
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    fused = []
    scores_out, masks_out = [], []
    for r, (name, src, dst) in enumerate(relations):
        p = {key.split("/", 1)[1]: value for key, value in params.items() if key.startswith(name + "/")}
        h = np.maximum(x @ p["proj_w"] + p["proj_b"], 0.0)
        d = h.shape[1]
        w_u, w_v, w_d = p["edge_w"][:d], p["edge_w"][d : 2 * d], p["edge_w"][2 * d :]
        hu, hv = h[src], h[dst]
        scores = np.tanh(hu @ w_u + hv @ w_v + (hu - hv) @ w_d).reshape(-1)
        hetero = scores >= 0
        near_zero = np.abs(scores) <= SCORE_TIE_TOLERANCE
        if resolve_ties is not None and near_zero.any():
            hetero[near_zero] = resolve_ties(r, near_zero)
        scores_out.append(scores)
        masks_out.append(hetero)

        w = p["filter_w"]
        smooth = _leaky((residual_mix * h + h @ w + p["smooth_b1"]) @ p["smooth_gate_w"] + p["smooth_b2"])
        contrast_filtered = np.maximum(h @ (np.eye(d) - w) + p["contrast_b1"], 0.0)
        contrast = _leaky((residual_mix * h + contrast_filtered) @ p["contrast_gate_w"] + p["contrast_b2"])
        z_smooth = _aggregate(h, smooth, src[~hetero], dst[~hetero], n)
        z_contrast = _aggregate(h, contrast, src[hetero], dst[hetero], n)

        pre = _leaky(np.concatenate([z_smooth, z_contrast, z_smooth - z_contrast], axis=1) @ p["fuse_w"] + p["fuse_b"])
        mean = pre.mean(axis=1, keepdims=True)
        var = ((pre - mean) ** 2).mean(axis=1, keepdims=True)
        fused.append((pre - mean) / np.sqrt(var + LAYER_NORM_EPS) * p["norm_gain"] + p["norm_bias"])

    logits = np.concatenate(fused, axis=1) @ params["classifier/w"] + params["classifier/b"]
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True), scores_out, masks_out


def check_reference_forward(program_probs, program_masks, params, features, relations, residual_mix) -> Check:
    """Program probabilities and partitions against the plain-numpy reference."""
    probs, scores, masks = reference_forward(
        params, features, relations, residual_mix, resolve_ties=lambda r, near: program_masks[r][near]
    )
    mismatched = excluded = 0
    for program_mask, ref_scores, ref_mask in zip(program_masks, scores, masks):
        decided = np.abs(ref_scores) > SCORE_TIE_TOLERANCE
        excluded += int((~decided).sum())
        mismatched += int((np.asarray(program_mask)[decided] != ref_mask[decided]).sum())
    worst = float(np.max(np.abs(np.asarray(program_probs) - probs)))
    ok = mismatched == 0 and worst <= FORWARD_TOLERANCE
    return Check(
        "reference_forward",
        ok,
        f"max |dp| {worst:.2e} (tol {FORWARD_TOLERANCE:g}), {mismatched} edges on the wrong side, "
        f"{excluded} near-zero scores excluded",
    )


# ---------------------------------------------------------------------------
# properties


def check_probabilities(probs) -> Check:
    probs = np.asarray(probs, dtype=np.float64)
    finite = bool(np.isfinite(probs).all())
    in_range = finite and bool(((probs >= 0) & (probs <= 1)).all())
    row_err = float(np.max(np.abs(probs.sum(axis=1) - 1.0))) if finite else float("nan")
    ok = in_range and row_err <= 1e-12
    return Check("probabilities", ok, f"finite={finite}, in [0,1]={in_range}, max |row sum - 1| {row_err:.1e}")


def check_partition(partitions, relations) -> Check:
    """Each relation's homophilic and heterophilic views hold exactly its edges, split by the mask."""
    problems = []
    for part, (name, src, dst) in zip(partitions, relations):
        homo_edges = part.homo.edge_count
        hetero_edges = part.hetero.edge_count
        mask = np.asarray(part.hetero_mask, dtype=bool)
        if homo_edges + hetero_edges != len(src):
            problems.append(f"{name}: {homo_edges} + {hetero_edges} != {len(src)} edges")
            continue
        for view, keep in ((part.homo, ~mask), (part.hetero, mask)):
            view_src = np.repeat(np.arange(len(view.offsets) - 1), np.diff(view.offsets))
            if not (np.array_equal(view_src, src[keep]) and np.array_equal(view.targets, dst[keep])):
                problems.append(f"{name}: view {view.name} does not hold the masked edges")
    return Check("partition", not problems, "; ".join(problems) or f"{len(relations)} relations split exactly")


def check_round_trip(in_memory_scores, restored_scores) -> Check:
    a = np.asarray(in_memory_scores)
    b = np.asarray(restored_scores)
    same = a.shape == b.shape and a.tobytes() == b.tobytes()
    differing = int((a != b).sum()) if a.shape == b.shape else -1
    return Check("checkpoint_round_trip", same, f"{differing} of {a.size} scores differ")


def check_loaded_graph(generated, loaded) -> Check:
    """Edges, labels and splits equal exactly; features equal to the 12 digits the text schema keeps."""
    problems = []
    if [r.name for r in generated.relations] != [r.name for r in loaded.relations]:
        problems.append("relation names differ")
    for a, b in zip(generated.relations, loaded.relations):
        if not (np.array_equal(a.offsets, b.offsets) and np.array_equal(a.targets, b.targets)):
            problems.append(f"edges of {a.name} differ")
    if not np.array_equal(generated.labels, loaded.labels):
        problems.append("labels differ")
    for part in ("train", "val", "test"):
        if not np.array_equal(getattr(generated.split, part), getattr(loaded.split, part)):
            problems.append(f"{part} split differs")
    if generated.features.shape != loaded.features.shape:
        problems.append("feature shape differs")
    elif not np.allclose(loaded.features, generated.features, rtol=1e-11, atol=1e-300):
        problems.append("features differ beyond 12 significant digits")
    edges = sum(r.edge_count for r in generated.relations)
    return Check("loaded_graph", not problems, "; ".join(problems) or f"{edges} edges equal")


def check_training(losses, test_auc: float) -> Check:
    losses = np.asarray(losses, dtype=np.float64)
    finite = bool(losses.size) and bool(np.isfinite(losses).all())
    ok = finite and test_auc > 0.5
    return Check("training", ok, f"{losses.size} epoch losses finite={finite}, test AUC {test_auc:.4f} > 0.5")


def check_repeatable(first, other, what: str) -> Check:
    """Rounds with the same seed must give bit-identical results."""
    same = all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(first, other))
    return Check("repeatable", same, f"{what} bit-identical to round 1" if same else f"{what} differ from round 1")
