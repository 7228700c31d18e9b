"""Spans around icisres functions, recorded from outside the program.

Each listed function is replaced by a wrapper in every icisres module and
class that binds it (``from .localalg import standard_basis`` binds the
same function again in four modules; ``Poly.__rmul__`` is ``__mul__``).
A wrapper records one span -- function, start, end, parent span and job
-- in flat arrays, plus the few argument and result facts the derived
metrics need.  Nothing is written until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

TARGETS: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("germfile", "parse_germ_file"),
    ("index", "minors"),
    ("index", "eg_index"),
    ("index", "sigma_data"),
    ("index", "find_good_coordinates"),
    ("index", "CoordinateChange.apply"),
    ("index", "main_residue"),
    ("index", "solve"),
    ("index", "curve_index"),
    ("localalg", "standard_basis"),
    ("localalg", "standard_basis_at"),
    ("localalg", "normal_form"),
    ("localalg", "normal_form_with_lift"),
    ("localalg", "minimal_power_membership"),
    ("localalg", "quotient_algebra"),
    ("localalg", "is_regular_on_V"),
    ("residues", "grothendieck_residue"),
    ("residues", "relative_residue"),
    ("residues", "intersection_multiplicity_both_ways"),
    ("residues", "lift_rows"),
    ("residues", "residue_via_lift"),
    ("polycore", "Poly.__mul__"),
    ("polycore", "Poly.mul_truncated"),
    ("polycore", "Poly.substitute"),
    ("polycore", "PolyMatrix.determinant"),
    ("polycore", "series_determinant"),
    ("pairing", "pairing_report"),
    ("pairing", "algebra_B"),
    ("pairing", "index_algebra"),
    ("pairing", "residue_functional"),
    ("pairing", "algebra_C"),
    ("pairing", "gram_beta"),
    ("pairing", "rref"),
    ("verify", "run"),
)

LAYERS = tuple(dict.fromkeys(mod for mod, _ in TARGETS))

DERIVED = {
    "localalg.standard_basis.escalations": "count",
    "localalg.bases.elements": "count",
    "localalg.standard_basis_at.tracked_calls": "count",
    "index.good_coords.attempts_per_search": "ratio",
    "residues.bases_per_residue": "ratio",
    "residues.lift_cap_over_det_cap": "ratio",
    "pairing.residues_per_functional": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for mod, qual in TARGETS:
        units[f"{mod}.{qual}.calls"] = "count"
        units[f"{mod}.{qual}.self_s"] = "s"
    for layer in LAYERS + ("other",):
        units[f"{layer}.self_s"] = "s"
    units.update(DERIVED)
    units["trace.job_p50_s"] = "s"
    return units


def _deepest(gens) -> int:
    return max((g.total_degree() for g in gens if not g.is_zero()), default=0)


class Tracer:
    """In-memory span recorder; install() wraps, the arrays fill in."""

    def __init__(self):
        self.labels = [f"{mod}.{qual}" for mod, qual in TARGETS]
        self.fid = {label: i for i, label in enumerate(self.labels)}
        self.fn = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.replaced: List[Tuple[object, str, object]] = []
        self.depth = [0] * len(TARGETS)   # active spans per function
        self.current_job = -1
        self.counts: Dict[str, float] = {
            "escalations": 0.0, "elements": 0, "tracked": 0,
            "attempts": 0, "residue_bases": 0, "functional_residues": 0,
            "lift_caps": 0, "lift_calls": 0, "det_caps": 0, "det_calls": 0}

    # installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "icisres" or name.startswith("icisres.")]
        for (mod, qual), label in zip(TARGETS, self.labels):
            owner = importlib.import_module(f"icisres.{mod}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                holders = [cls]
            else:
                original = getattr(owner, qual)
                holders = modules
            wrapper = self._wrap(label, original)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self.replaced.append((holder, name, original))

    def uninstall(self) -> None:
        """Put every original back; later calls go unrecorded."""
        for holder, name, original in self.replaced:
            setattr(holder, name, original)
        self.replaced.clear()

    def _wrap(self, label: str, original):
        fid = self.fid[label]
        hook = getattr(self, "_after_" + label.split(".")[-1], None)
        signature = inspect.signature(original)
        fn, parent, job, start, end = (self.fn, self.parent, self.job,
                                       self.start, self.end)
        stack, depth, clock = self.stack, self.depth, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.current_job)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            depth[fid] += 1
            start[idx] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[fid] -= 1
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return wrapper

    def _active(self, label: str) -> bool:
        return self.depth[self.fid[label]] > 0

    # derived-metric hooks: arguments by name, and the result ------------------

    def _count_basis(self, result) -> None:
        self.counts["elements"] += len(result.elements)
        if self._active("residues.grothendieck_residue"):
            self.counts["residue_bases"] += 1

    def _after_standard_basis(self, args, result) -> None:
        from icisres.localalg import CAP_STEP
        start = max(args["cap"], _deepest(args["gens"]))
        self.counts["escalations"] += (result.cap - start) / CAP_STEP
        self._count_basis(result)

    def _after_standard_basis_at(self, args, result) -> None:
        if args["track"]:
            self.counts["tracked"] += 1
        self._count_basis(result)

    def _after_is_regular_on_V(self, args, result) -> None:
        if self._active("index.find_good_coordinates"):
            self.counts["attempts"] += 1

    def _after_grothendieck_residue(self, args, result) -> None:
        if self._active("pairing.residue_functional"):
            self.counts["functional_residues"] += 1

    def _after_lift_rows(self, args, result) -> None:
        self.counts["lift_caps"] += args["cap"]
        self.counts["lift_calls"] += 1

    def _after_residue_via_lift(self, args, result) -> None:
        det_cap = args["det_cap"]
        if det_cap is None:
            big = sum(args["powers"]) - len(args["powers"])
            det_cap = max(big - max(args["numerator"].min_degree(), 0), 0)
        self.counts["det_caps"] += det_cap
        self.counts["det_calls"] += 1

    # results -----------------------------------------------------------------

    def metrics(self, job_wall: Sequence[float], job_factor: Sequence[float]
                ) -> Dict[str, float]:
        """Per-layer metrics; times in normalised seconds.

        job_wall[j] is job j's wall time and job_factor[j] the normalised
        seconds each of its wall seconds counts for.
        """
        n_fn = len(TARGETS)
        calls = [0] * n_fn
        self_s = [0.0] * n_fn
        child = [0.0] * len(self.fn)
        dur = [0.0] * len(self.fn)
        top = [0.0] * len(job_wall)
        # spans outside every job (input preparation) are not job work
        spans = [i for i in range(len(self.fn)) if self.job[i] >= 0]
        for i in spans:
            d = self.end[i] - self.start[i]
            dur[i] = d
            p = self.parent[i]
            if p >= 0:
                child[p] += d
            else:
                top[self.job[i]] += d
        for i in spans:
            f = self.fn[i]
            calls[f] += 1
            self_s[f] += (dur[i] - child[i]) * job_factor[self.job[i]]

        out: Dict[str, float] = {}
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for (mod, qual), c, s in zip(TARGETS, calls, self_s):
            out[f"{mod}.{qual}.calls"] = c
            out[f"{mod}.{qual}.self_s"] = s
            layer_s[mod] += s
        for layer, s in layer_s.items():
            out[f"{layer}.self_s"] = s
        out["other.self_s"] = sum((wall - t) * k for wall, t, k
                                  in zip(job_wall, top, job_factor))

        k = self.counts
        called = dict(zip(self.labels, calls))
        out["localalg.standard_basis.escalations"] = k["escalations"]
        out["localalg.bases.elements"] = k["elements"]
        out["localalg.standard_basis_at.tracked_calls"] = k["tracked"]
        out["index.good_coords.attempts_per_search"] = _ratio(
            k["attempts"], called["index.find_good_coordinates"])
        out["residues.bases_per_residue"] = _ratio(
            k["residue_bases"], called["residues.grothendieck_residue"])
        out["residues.lift_cap_over_det_cap"] = _ratio(
            _ratio(k["lift_caps"], k["lift_calls"]),
            _ratio(k["det_caps"], k["det_calls"]))
        out["pairing.residues_per_functional"] = _ratio(
            k["functional_residues"], called["pairing.residue_functional"])
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines: function, job, parent span, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"functions": self.labels}) + "\n")
            for i in range(len(self.fn)):
                fh.write(f"[{self.fn[i]},{self.job[i]},{self.parent[i]},"
                         f"{self.start[i]!r},{self.end[i]!r}]\n")


def _ratio(num: float, den: float) -> float:
    """num / den, and 0.0 when nothing was counted."""
    return num / den if den else 0.0
