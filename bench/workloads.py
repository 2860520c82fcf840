"""Seeded inputs, operations and output checks for the three workloads.

Every workload draws its instances from a fixed pool: instance ``i`` of a
pool is generated from ``default_rng([tag, i])``, and ``reference.json``
holds the output of every pool instance at the commit that defined the
benchmark. A seed only chooses which pool instances a run uses, so every
seed's inputs are covered by the reference.

An operation is one call into a public entry point of ``norming_lab``:
``norming_lab.cli.main([...])`` where a CLI subcommand exists, the library
function otherwise. ``Op.run`` is the timed call; ``Op.record`` extracts
the fields that are compared with the reference; ``Op.check`` compares
them, outside the timed section.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import norming_lab as nl
from norming_lab import cli, simplex

WORKLOADS = ("norming-ladder", "audit-sweep", "span-cover")

# Rungs of the norming ladder: (space kind, n, degree, set sizes m).
# 2-D P3 and 2-D T1 at m = 12 are left out: their dense grid x vertex
# products need 5.8 GB and 4.8 GB.
LADDER = (
    ("polynomial", 1, 4, range(5, 10)),
    ("polynomial", 1, 6, range(7, 11)),
    ("polynomial", 2, 2, range(6, 11)),
    ("polynomial", 3, 1, range(4, 9)),
    ("trigonometric", 1, 2, range(5, 10)),
)
FEWNOMIAL_EXPONENTS = ((0.0,), (0.5,), (1.5,), (2.5,))
FEWNOMIAL_BOX = ((0.2,), (2.0,))
FEWNOMIAL_SIZES = range(4, 7)
LADDER_VARIANTS = 8

# audit-sweep: (pool size, instances per pass) for each operation family.
AUDIT_MIX = {
    "supnorm": (200, 60),
    "audit": (48, 3),
    "lipschitz": (48, 3),
    "experiment": (16, 1),
    "stability": (48, 6),
}
SMALL_SPACES = ((1, 2), (1, 3), (2, 1))
STRATA = {"supnorm": 20, "audit": 3, "lipschitz": 3, "experiment": 1, "stability": 3}
SPAN_POOL, SPAN_PER_PASS = 192, 96

TAGS = {"ladder": 1, "fewnomial": 2, "supnorm": 3, "audit": 4, "lipschitz": 5,
        "experiment": 6, "stability": 7, "span": 8}

LP_RTOL = 1e-8
WIDTH_SLACK = 1.1  # a bracket may be at most 10% wider than its reference


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    """One timed call.

    ``record`` keys starting with ``_`` stay out of the reference;
    ``reference``, if set, adds oracle fields to it. ``check`` raises
    ``CheckFailed`` or returns the relative widths of the certified
    brackets it checked.
    """

    key: str
    run: Callable[[], object]
    record: Callable[[object], dict]
    check: Callable[[dict, dict], list] = field(repr=False)
    reference: Callable[[], dict] | None = None


# ---------------------------------------------------------------------------
# input generation


def _rng(tag, *idx):
    return np.random.default_rng([TAGS[tag], *idx])


def _separated(rng, m, n, sep, lo=-1.0, hi=1.0):
    pts = []
    while len(pts) < m:
        cand = rng.uniform(lo, hi, size=n)
        if all(np.max(np.abs(cand - p)) > sep for p in pts):
            pts.append(cand)
    return np.array(pts)


def _space(kind, n, d):
    return {"kind": kind, "vars": n, "degree": d}


class Inputs:
    """Writes the input files a run's operations read."""

    def __init__(self, directory):
        self.dir = directory
        os.makedirs(directory, exist_ok=True)

    def space(self, obj):
        path = os.path.join(self.dir, "space-" + "-".join(str(v) for v in obj.values()) + ".json")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                json.dump(obj, fh)
        return path

    def points(self, name, pts):
        path = os.path.join(self.dir, name.replace("/", "-") + ".csv")
        with open(path, "w") as fh:
            for row in np.atleast_2d(pts):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return path

    def out(self, name):
        return os.path.join(self.dir, name.replace("/", "-") + ".out.json")


def _cli(argv, out):
    def run():
        return cli.main(argv + ["--out", out])
    return run


def _read_report(out):
    with open(out) as fh:
        return json.load(fh)["result"]


# ---------------------------------------------------------------------------
# checks


def _bracket(rec, ref):
    """Soundness and tightness of a certified bracket against its reference.

    Two sound brackets of one quantity always intersect. The width check
    catches a speed-up that only coarsens the grid.
    """
    _same(rec, ref, ["certified"])
    if not rec["certified"]:
        return []
    lo, hi = rec["lower"], rec["upper"]
    if hi < ref["lower"] or lo > ref["upper"]:
        raise CheckFailed(f"[{lo}, {hi}] misses reference [{ref['lower']}, {ref['upper']}]")
    ref_width = ref["upper"] - ref["lower"]
    if hi - lo > WIDTH_SLACK * ref_width + 1e-12 * abs(ref["upper"]):
        raise CheckFailed(f"width {hi - lo} exceeds reference width {ref_width}")
    return [hi / lo - 1.0]


def _same(rec, ref, keys):
    for k in keys:
        if rec[k] != ref[k]:
            raise CheckFailed(f"{k} = {rec[k]!r}, reference {ref[k]!r}")
    return []


def _norming_record(code, rep):
    if code != 0 or not rep["norming"]:
        return {"code": code, "norming": False}
    return {"code": code, "norming": True, "lower": rep["lower"], "upper": rep["upper"],
            "certified": rep["certified"], "_witness": rep["witness_point"]}


def _check_norming(space, pts):
    """Reference match, then the LP at the witness point re-solved by the
    simplex oracle must equal the reported lower bound."""
    B = space.evaluate_basis(pts)

    def check(rec, ref):
        _same(rec, ref, ["code", "norming"])
        if not rec["norming"]:
            return []
        phi = space.evaluate_basis(np.asarray(rec["_witness"], dtype=float))
        value = simplex.norming_lp_value(B, phi)
        if abs(value - rec["lower"]) > LP_RTOL * abs(rec["lower"]):
            raise CheckFailed(f"simplex LP {value!r} vs reported lower {rec['lower']!r}")
        return _bracket(rec, ref)

    return check


# ---------------------------------------------------------------------------
# norming-ladder


def ladder_pool():
    """Every (slot, variant) instance of the ladder, keyed by name."""
    for r, (kind, n, d, sizes) in enumerate(LADDER):
        for m in sizes:
            for v in range(LADDER_VARIANTS):
                pts = _separated(_rng("ladder", r, m, v), m, n, 0.1)
                yield f"norming/{kind[0]}{n}d{d}m{m}/{v}", (kind, n, d), pts
    for m in FEWNOMIAL_SIZES:
        for v in range(LADDER_VARIANTS):
            lo, hi = FEWNOMIAL_BOX
            pts = _separated(_rng("fewnomial", m, v), m, 1, 0.1, lo[0], hi[0])
            yield f"fewnomial/m{m}/{v}", None, pts


def _ladder_op(key, spec, pts, inputs):
    if spec is None:
        space = nl.SpaceDescriptor.fewnomial_span(FEWNOMIAL_EXPONENTS)
        zset = nl.PointSet(pts, box=tuple(np.array(b) for b in FEWNOMIAL_BOX))

        def run():
            return nl.norming_constant(space, zset)

        return Op(key, run, lambda rep: _norming_record(0, rep.to_json()),
                  _check_norming(space, pts))
    space = nl.space_from_json(_space(*spec))
    out = inputs.out(key)
    argv = ["norming", "--space", inputs.space(_space(*spec)),
            "--points", inputs.points(key, pts)]

    return Op(key, _cli(argv, out),
              lambda code: _norming_record(code, _read_report(out) if code == 0 else None),
              _check_norming(space, pts))


def ladder_ops(seed, inputs, pool_keys=None):
    pool = list(ladder_pool())
    if pool_keys is not None:
        return [_ladder_op(k, s, p, inputs) for k, s, p in pool if k in pool_keys]
    rng = np.random.default_rng([seed, TAGS["ladder"]])
    slots = {}
    for key, spec, pts in pool:
        slots.setdefault(key.rsplit("/", 1)[0], []).append((key, spec, pts))
    ops = []
    for variants in slots.values():
        key, spec, pts = variants[int(rng.integers(len(variants)))]
        ops.append(_ladder_op(key, spec, pts, inputs))
    return ops


# ---------------------------------------------------------------------------
# audit-sweep


def _supnorm_instance(i):
    """Degree ``1 + i % 5`` and ``1 + (i // 5) % 4`` random sub-intervals,
    as in acceptance criterion 5; the pool is stratified by both."""
    rng = _rng("supnorm", i)
    d = 1 + i % 5
    coeff = rng.standard_normal(d + 1)
    cuts = np.sort(rng.uniform(-1, 1, 2 * (1 + (i // 5) % 4)))
    intervals = [(cuts[2 * j], cuts[2 * j + 1]) for j in range(len(cuts) // 2)
                 if cuts[2 * j + 1] - cuts[2 * j] > 1e-3]
    return d, coeff, [(-1.0, 1.0)] + intervals


def _supnorm_ops(i):
    d, coeff, boxes = _supnorm_instance(i)
    space = nl.SpaceDescriptor.polynomial(1, d)
    ops = []
    for j, (a, b) in enumerate(boxes):
        box = (np.array([a]), np.array([b]))

        def run(box=box):
            return nl.certified_supnorm(space, coeff, box=box, grid_spacing=1e-4)

        ops.append(Op(f"supnorm/{i}/{j}", run, _sup_record, _bracket))
    return ops


def _sup_record(br):
    return {"lower": br.lower, "upper": br.upper, "certified": br.certified}


def _small_set(tag, i, extra):
    """A small polynomial space and ``dim + extra`` separated points in it."""
    rng = _rng(tag, i)
    n, d = SMALL_SPACES[i % len(SMALL_SPACES)]
    l = math.comb(n + d, d)
    return _space("polynomial", n, d), _separated(rng, l + extra, n, 0.15), rng


def _audit_op(i, inputs):
    spec, pts, _ = _small_set("audit", i, 2)
    key = f"audit/{i}"
    names = "cramer,rd_span" + (",cor22" if spec["vars"] == 1 else "")
    out = inputs.out(key)
    argv = ["audit", "--space", inputs.space(spec), "--points", inputs.points(key, pts),
            "--bounds", names]

    def record(code):
        rep = _read_report(out)
        return {"code": code, "exact": rep["exact"],
                "flags": [[f["name"], f["bound"]["applicable"], f["violation"]]
                          for f in rep["findings"]]}

    def check(rec, ref):
        _same(rec, ref, ["code", "flags"])
        if not 0.0 < rec["exact"] <= ref["upper"]:
            raise CheckFailed(f"exact {rec['exact']} above reference upper {ref['upper']}")
        return []

    def reference():
        return {"upper": nl.norming_constant(nl.space_from_json(spec), pts).upper}

    return Op(key, _cli(argv, out), record, check, reference)


def _lipschitz_op(i, inputs):
    spec, z1, rng = _small_set("lipschitz", i, 1)
    z2 = np.clip(z1 + rng.uniform(-0.02, 0.02, size=z1.shape), -1.0, 1.0)
    key = f"lipschitz/{i}"
    out = inputs.out(key)
    argv = ["lipschitz", "--space", inputs.space(spec),
            "--z1", inputs.points(key + "-z1", z1), "--z2", inputs.points(key + "-z2", z2)]

    def record(code):
        return {"code": code, "status": _read_report(out)["status"]}

    return Op(key, _cli(argv, out), record,
              lambda rec, ref: _same(rec, ref, ["code", "status"]))


def _experiment_op(i, inputs):
    rng = _rng("experiment", i)
    spec = _space("polynomial", 1, 2)
    z = _separated(rng, 4, 1, 0.2)
    key = f"experiment/{i}"
    out = inputs.out(key)
    argv = ["lipschitz", "--space", inputs.space(spec), "--z1", inputs.points(key, z),
            "--experiment", "--magnitudes", "0.02,0.05", "--trials", "3",
            "--seed", str(i)]

    def record(code):
        rows = _read_report(out)["experiment"]
        return {"code": code, "within_markov": [r["within_markov"] for r in rows],
                "non_norming": [r["non_norming"] for r in rows]}

    return Op(key, _cli(argv, out), record,
              lambda rec, ref: _same(rec, ref, ["code", "within_markov", "non_norming"]))


def _stability_op(i, inputs):
    spec, pts, _ = _small_set("stability", i, 0)
    space = nl.space_from_json(spec)
    key = f"stability/{i}"

    def run():
        return nl.stability_ball(space, pts)

    def record(ball):
        rep = ball.center_report
        return {"lower": rep.lower, "upper": rep.upper, "certified": rep.certified,
                "radius": ball.radius, "markov": ball.markov}

    def check(rec, ref):
        widths = _bracket(rec, ref)
        # the guaranteed radius is 1 / (M * N) and N >= the reference lower
        if not 0.0 < rec["radius"] <= (1.0 + 1e-9) / (rec["markov"] * ref["lower"]):
            raise CheckFailed(f"radius {rec['radius']} above 1/(M * lower)")
        return widths

    return Op(key, run, record, check)


_AUDIT_FAMILIES = {"audit": _audit_op, "lipschitz": _lipschitz_op,
                   "experiment": _experiment_op, "stability": _stability_op}


def _audit_family(family, i, inputs):
    if family == "supnorm":
        return _supnorm_ops(i)
    return [_AUDIT_FAMILIES[family](i, inputs)]


def _choose(rng, pool, count, strata):
    """``count`` distinct pool indices, the same number from each stratum
    ``i % strata``, so that every seed runs the same mix of spaces."""
    per = count // strata
    return [c + strata * int(j) for c in range(strata)
            for j in rng.choice(pool // strata, per, replace=False)]


def audit_ops(seed, inputs, per_pass=None):
    ops = []
    for family, (pool, count) in AUDIT_MIX.items():
        if per_pass is None:
            chosen = _choose(np.random.default_rng([seed, TAGS[family]]), pool, count,
                             STRATA[family])
        else:
            chosen = range(min(per_pass, pool))
        for i in chosen:
            ops += _audit_family(family, int(i), inputs)
    return ops


def audit_pool(inputs):
    return [op for family, (pool, _) in AUDIT_MIX.items()
            for i in range(pool) for op in _audit_family(family, i, inputs)]


# ---------------------------------------------------------------------------
# span-cover


def _span_op(i, inputs):
    """2-D set of ``18 + i % 8`` points; the exact cover cap is 25."""
    rng = _rng("span", i)
    m = 18 + i % 8
    pts = _separated(rng, m, 2, 1e-3)
    key = f"span/{i}"
    out = inputs.out(key)
    argv = ["span", "--points", inputs.points(key, pts), "--degree", "2"]

    def record(code):
        rep = _read_report(out)
        return {"code": code, "cover_counts": rep["cover_counts"], "span": rep["span"]}

    return Op(key, _cli(argv, out), record,
              lambda rec, ref: _same(rec, ref, ["code", "cover_counts", "span"]))


def span_ops(seed, inputs, per_pass=None):
    if per_pass is None:
        chosen = _choose(np.random.default_rng([seed, TAGS["span"]]), SPAN_POOL,
                         SPAN_PER_PASS, 8)
    else:
        chosen = range(per_pass)
    return [_span_op(int(i), inputs) for i in chosen]


# ---------------------------------------------------------------------------
# entry points


def build(workload, seed, inputs, smoke=False):
    """Operations of one pass of ``workload`` for ``seed``.

    ``smoke`` keeps one instance of each operation family.
    """
    if workload == "norming-ladder":
        if smoke:
            return ladder_ops(seed, inputs, {"norming/p1d4m5/0", "fewnomial/m4/0"})
        return ladder_ops(seed, inputs)
    if workload == "audit-sweep":
        return audit_ops(seed, inputs, 1 if smoke else None)
    if workload == "span-cover":
        return span_ops(seed, inputs, 1 if smoke else None)
    raise ValueError(f"unknown workload {workload!r}")


def pool(inputs):
    """Every pool operation of every workload, for building the reference."""
    ladder = [_ladder_op(k, s, p, inputs) for k, s, p in ladder_pool()]
    return ladder + audit_pool(inputs) + [_span_op(i, inputs) for i in range(SPAN_POOL)]
