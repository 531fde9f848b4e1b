"""The traced names of each daggerlab layer and the per-layer metrics
derived from their aggregates.

Flops and bytes are computed from operand shapes, not measured: a
product of an (m x k) by a (k x n) matrix costs m*k*n multiply-adds of
the field (2 real flops over R, 8 over C, 32 over H) and moves the two
operands and the result once, at 8, 16 or 32 bytes per entry.
"""

from __future__ import annotations

from tracer import Target

FLOPS_PER_MULADD = {"R": 2, "C": 8, "H": 32}
BYTES_PER_ENTRY = {"R": 8, "C": 16, "H": 32}
# dispatch-bound products sit in the small buckets, flop-bound in the large
SIZE_BUCKETS = (("n_le_2", 2), ("n_3_8", 8), ("n_9_24", 24), ("n_gt_24", None))


def _bucket(size: int) -> str:
    return next(label for label, upper in SIZE_BUCKETS if upper is None or size <= upper)


def _count_product(counters: dict, field: str, m: int, k: int, n: int) -> None:
    flops = FLOPS_PER_MULADD[field] * m * k * n
    nbytes = BYTES_PER_ENTRY[field] * (m * k + k * n + m * n)
    bucket = _bucket(max(m, k, n))
    for key, value in (("flops", flops), ("bytes", nbytes), (f"{bucket}.calls", 1),
                       (f"{bucket}.flops", flops)):
        counters[key] = counters.get(key, 0) + value


def _compose_hook(counters, args, kwargs, result):
    g, f = args
    _count_product(counters, g.field.value, g.cod.dim, g.dom.dim, f.dom.dim)


def _quat_matmul_hook(counters, args, kwargs, result):
    a, b = args
    _count_product(counters, "H", a.shape[0], a.shape[1], b.shape[1])


def _offered_kept_hook(counters, args, kwargs, result):
    counters["offered"] = counters.get("offered", 0) + len(args[0])
    counters["kept"] = counters.get("kept", 0) + len(result)


_PRODUCT_COUNTERS = ("flops", "bytes") + tuple(
    f"{label}.{kind}" for label, _ in SIZE_BUCKETS for kind in ("calls", "flops")
)
CALLS_SELF = ("calls", "self_s")
CALLS_INCL = ("calls", "incl_s")
INCL = ("incl_s",)


def _t(name: str, *specs: str, columns: tuple[str, ...] = (), counters: tuple[str, ...] = (),
       hook=None) -> Target:
    return Target(name, specs, hook, columns, counters)


# Which end-to-end metric each layer should move, written before measuring:
# - kernels: campaign_s on wide-dims, where quaternion products are about a
#   quarter of the time; no change on lemmas-C, which makes none.
# - matcat, scalars, biproduct, sampling, reconstruct: per-call overhead,
#   campaign_s on lemmas-C, barely on wide-dims.
# - axioms.refute_h5_scalar_case, linalg, projspan: campaign_s on
#   wide-dims (refute_h5_scalar_case also peak_rss_mb there).
# - campaigns scaffold (self_s, check_s_max): campaign_s everywhere.
TARGETS = [
    _t("kernels.quat_matmul", "daggerlab.kernels:quat_matmul", columns=CALLS_SELF,
       counters=("flops", "bytes"), hook=_quat_matmul_hook),
    _t("matcat.compose", "daggerlab.matcat:compose", columns=CALLS_SELF,
       counters=_PRODUCT_COUNTERS, hook=_compose_hook),
    _t("matcat.Morphism", "daggerlab.matcat:Morphism.__init__", columns=CALLS_SELF),
    _t("matcat.dagger", "daggerlab.matcat:Morphism.dagger", columns=CALLS_SELF),
    _t("matcat.frobenius_distance", "daggerlab.matcat:frobenius_distance", columns=CALLS_SELF),
    _t("scalars.Field.width", "daggerlab.scalars:Field.width", columns=("calls",)),
    _t("scalars.Scalar", "daggerlab.scalars:Scalar.__init__", columns=("calls",)),
    _t("biproduct.orthonormal_columns", "daggerlab.biproduct:orthonormal_columns",
       columns=("calls", "incl_s", "self_s"), hook=_offered_kept_hook),
    _t("biproduct.derived_add", "daggerlab.biproduct:derived_add", columns=CALLS_INCL),
    _t("biproduct.diagonal_pair", "daggerlab.biproduct:diagonal_pair", columns=CALLS_INCL),
    _t("biproduct.oplus_mor", "daggerlab.biproduct:oplus_mor", columns=CALLS_SELF),
    _t("biproduct.verify_biproduct", "daggerlab.biproduct:verify_biproduct", columns=INCL),
    _t("sampling.random_dagger_mono", "daggerlab.sampling:random_dagger_mono",
       columns=CALLS_INCL),
    _t("axioms.complement_h3", "daggerlab.axioms:complement_h3", columns=CALLS_INCL),
    _t("axioms.strict_sqrt_complex", "daggerlab.axioms:strict_sqrt_complex",
       columns=CALLS_INCL),
    _t("axioms.refute_h5_scalar_case", "daggerlab.axioms:refute_h5_scalar_case",
       columns=CALLS_INCL),
    _t("axioms.finite_directed_colimit", "daggerlab.axioms:finite_directed_colimit",
       columns=CALLS_INCL),
    _t("axioms.mediating_dagger_mono", "daggerlab.axioms:mediating_dagger_mono",
       columns=CALLS_INCL),
    _t("axioms.jointly_epic_check", "daggerlab.axioms:jointly_epic_check",
       columns=CALLS_INCL),
    _t("linalg.svd", "numpy.linalg:svd", "numpy.linalg:matrix_rank", columns=CALLS_SELF),
    _t("linalg.eig", "numpy.linalg:eig", "numpy.linalg:eigvals", columns=CALLS_SELF),
    _t("linalg.lstsq", "numpy.linalg:lstsq", columns=CALLS_SELF),
    _t("reconstruct.functor_v", "daggerlab.reconstruct:functor_v", columns=INCL),
    _t("reconstruct.gram_schmidt", "daggerlab.reconstruct:gram_schmidt", columns=INCL),
    _t("reconstruct.orthocomplement", "daggerlab.reconstruct:orthocomplement", columns=INCL),
    _t("reconstruct.EndoField", "daggerlab.reconstruct:EndoField.*", columns=INCL),
    _t("projspan.word_closure", "daggerlab.projspan:word_closure",
       columns=("incl_s", "self_s"), hook=_offered_kept_hook),
    _t("projspan.real_span_rank", "daggerlab.projspan:real_span_rank", columns=INCL),
    # reported as cli.emit_s below
    _t("cli.emit", "daggerlab.cli:_emit"),
]

_COLUMN = {"calls": 0, "incl_s": 1, "self_s": 2}


def _unit(suffix: str) -> str:
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("flops"):
        return "flop"
    if suffix.endswith("bytes"):
        return "B"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(trace: dict, check_walls: dict, untraced_checks: list[float],
                      overhead_s: float, bytes_changed: int) -> dict:
    """Per-layer metrics of one traced iteration.

    `trace` is a merged Tracer.result(); `check_walls` maps each
    traced check to its wall seconds; `untraced_checks` holds the
    per-check seconds of the untraced run of the same iteration.
    """
    totals, counters, edges = trace["totals"], trace["counters"], trace["edges"]
    out: dict[str, tuple[float, str]] = {}
    for target in TARGETS:
        for column in target.columns:
            out[f"{target.name}.{column}"] = (totals[target.name][_COLUMN[column]], _unit(column))
        for key in target.counters:
            out[f"{target.name}.{key}"] = (counters.get(target.name, {}).get(key, 0), _unit(key))

    gs = counters.get("biproduct.orthonormal_columns", {})
    out["biproduct.orthonormal_columns.accept_ratio"] = (
        _ratio(gs.get("kept", 0), gs.get("offered", 0)), "ratio")
    attempts = edges.get("sampling.random_dagger_mono>biproduct.orthonormal_columns", 0)
    out["sampling.random_dagger_mono.attempts_ratio"] = (
        _ratio(attempts, totals["sampling.random_dagger_mono"][_COLUMN["calls"]]), "ratio")
    wc = counters.get("projspan.word_closure", {})
    tried = wc.get("offered", 0) + edges.get("projspan.word_closure>matcat.compose", 0)
    out["projspan.word_closure.dedup_ratio"] = (_ratio(wc.get("kept", 0), tried), "ratio")

    covered = trace["covered"]
    out["campaigns.checks"] = (len(untraced_checks), "count")
    out["campaigns.self_s"] = (
        sum(wall - covered.get(check, 0.0) for check, wall in check_walls.items()), "s")
    out["campaigns.check_s_max"] = (max(untraced_checks, default=0.0), "s")
    out["cli.emit_s"] = (totals["cli.emit"][_COLUMN["incl_s"]], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["report_bytes_changed"] = (bytes_changed, "count")
    return out
