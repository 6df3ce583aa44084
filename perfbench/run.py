"""Benchmark runner for idcodes.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, and the run fails without printing a result
when it is not there. One synchronous caller in one thread drives each item
in-process, through ``idcodes.cli.main`` for the ``construct``,
``near-construct`` and ``exact`` verbs and through the public API for the
deduplication sweep. Inputs come from the seed through ``corpus.py``, which
shares no code with the package.

Set-up is the package import, corpus generation, the corpus files written
and one warm-up call. The run sets up once for itself, then times the same
set-up in several fresh child processes, each from the moment it is started
until it reports the set-up done, and reports the median as ``setup_s``; so
every import the package needs is paid inside the timing. Each set-up is
scaled by the time a bare runner child takes to start just before it. The
run then repeats passes over the corpus until ``--seconds`` have elapsed.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs a third of the time untraced and the rest with the span tracer of
``spans.py`` installed, and prints the per-layer metrics. Every output of
the first pass is checked by ``oracle.py`` after the timed region; later
passes must reproduce it byte for byte. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported at a reference speed. The machines this runs on change
speed by up to a factor of two within seconds, and the change shows in CPU
time too, so a fixed reference loop (``reference_work``) is timed between
chunks of about 0.1 s of items, and each item's time is scaled by
``CAL_REF_S`` over the mean of the two reference timings around its chunk.
The raw times are printed in the ``info`` line beside the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import corpus
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
SETUP_REPEATS = 9
TRACE_UNTRACED_SHARE = 1 / 3
CHUNK_S = 0.1
# Typical time of one reference_work call on a 2-vCPU Intel Xeon VM running
# CPython 3.11; scaled times read as seconds on that machine.
CAL_REF_S = 0.0019
# Typical time of a --start-only child on the same machine; scaled set-up
# times read as seconds there.
START_REF_S = 0.11

STEP_LABELS = (
    "Delta2Path", "Delta2Cycle", "TreeBase", "FamilyHit", "ClaimA", "ClaimB",
    "ClaimC", "GStar", "ComponentAssembly", "ExactFallback", "CorollaryPatch",
)


def _import_package() -> None:
    """Import idcodes from SRC, refusing a copy from anywhere else."""
    pkg = importlib.import_module("idcodes")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"idcodes imported from {pkg.__file__}, not {SRC}")
    importlib.import_module("idcodes.cli")
    importlib.import_module("idcodes.isomorph")


# --- workloads ---------------------------------------------------------------


class CliWorkload:
    """Each item is one CLI call on a corpus file; the output is stdout."""

    def __init__(self, items, workdir: Path):
        self.items = items
        self.argv = []
        for i, it in enumerate(items):
            path = workdir / f"{i:04d}-{it.name}.graph"
            path.write_text(corpus.serialize(it.n, it.edges))
            self.argv.append([it.kind, str(path)])

    def bind(self) -> None:
        self.cli = sys.modules["idcodes.cli"]

    def begin_pass(self) -> None:
        pass

    def run_item(self, i: int) -> tuple[str, bool]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(self.argv[i])
        return out.getvalue(), code == 0


class Certify(CliWorkload):
    def base_certificate(self, it, text: str):
        """For a near-construct item, the package's certificate of the
        triangle-free graph its deletion leaves, which the oracle replays
        the restore steps on; built after the timed region."""
        if it.kind != "near-construct":
            return None
        pkg = sys.modules["idcodes"]
        deleted = {e for e, _ in oracle.restore_steps(oracle.parse_certificate(text).trace)}
        rest = [e for e in it.edges if e not in deleted]
        return oracle.parse_certificate(pkg.serialize_certificate(
            pkg.construct_triangle_free(pkg.Graph(it.n, rest))))

    def check(self, outputs: list[str]) -> dict:
        failed, ratios, steps = set(), [], []
        for i, (it, text) in enumerate(zip(self.items, outputs)):
            try:
                cert, problems = oracle.check_certificate(
                    it.n, it.edges, text, near=it.kind == "near-construct",
                    base=self.base_certificate(it, text))
            except Exception as e:  # any failure here is the item's
                failed.add(i)
                print(f"check {it.name}: {type(e).__name__}: {e}", file=sys.stderr)
                continue
            if problems:
                failed.add(i)
                print(f"check {it.name}: {problems}", file=sys.stderr)
            ratios.append(cert.bound[1] * len(cert.code) / cert.bound[0])
            steps.append([label for label, _ in cert.trace])
        return {"failed": failed, "code_to_bound": statistics.fmean(ratios or [0.0]),
                "steps": steps, "opt_gap": None}


class ExactSparse(CliWorkload):
    """code_to_bound and opt_gap compare the certified construction on each
    graph, built after the timed region, with its bound and with the
    optimum; the timed calls only solve."""

    def check(self, outputs: list[str]) -> dict:
        pkg = sys.modules["idcodes"]
        failed, ratios = set(), []
        gaps = gammas = 0
        for i, (it, text) in enumerate(zip(self.items, outputs)):
            try:
                gamma, problems = oracle.check_exact(text, it.n, it.edges)
                delta = corpus.max_degree(it.n, it.edges)
                member = oracle.is_family_member(it.n, delta, gamma)
                cert_text = pkg.serialize_certificate(
                    pkg.construct_triangle_free(pkg.Graph(it.n, it.edges)))
                cert, cert_problems = oracle.check_certificate(
                    it.n, it.edges, cert_text, near=False, member=member)
                problems += cert_problems
            except Exception as e:  # any failure here is the item's
                failed.add(i)
                print(f"check {it.name}: {type(e).__name__}: {e}", file=sys.stderr)
                continue
            if problems:
                failed.add(i)
                print(f"check {it.name}: {problems}", file=sys.stderr)
            ratios.append(cert.bound[1] * len(cert.code) / cert.bound[0])
            gaps += len(cert.code) - gamma
            gammas += gamma
        return {"failed": failed, "code_to_bound": statistics.fmean(ratios or [0.0]),
                "steps": [], "opt_gap": gaps / gammas if gammas else None}


class DedupSweep:
    """Bucket each graph by invariant_key, match it against the bucket's
    representatives with find_isomorphism, and certify and solve each new
    class with construct_triangle_free and gamma_id_exact."""

    def __init__(self, items, workdir: Path):
        self.items = items

    def bind(self) -> None:
        self.pkg = sys.modules["idcodes"]
        self.iso = sys.modules["idcodes.isomorph"]

    def begin_pass(self) -> None:
        self.buckets: dict[tuple, list[tuple[object, int]]] = {}

    def run_item(self, i: int) -> tuple[str, bool]:
        pkg, it = self.pkg, self.items[i]
        g = pkg.Graph(it.n, it.edges)
        reps = self.buckets.setdefault(self.iso.invariant_key(g), [])
        for rep, ri in reps:
            mapping = pkg.find_isomorphism(rep, g)
            if mapping is not None:
                pairs = " ".join(f"{k}:{mapping[k]}" for k in sorted(mapping))
                return f"duplicate of {ri} map {pairs}\n", True
        reps.append((g, i))
        cert = pkg.construct_triangle_free(g)
        res = pkg.gamma_id_exact(g)
        code = " ".join(str(c) for c in res.code)
        return (f"{pkg.serialize_certificate(cert)}gamma {res.size}\ncode {code}\n"
                f"optimal {'yes' if res.optimal else 'no'}\n"), True

    def check(self, outputs: list[str]) -> dict:
        failed, ratios, steps = set(), [], []
        gaps = gammas = 0
        rep_of_base: dict[str, int] = {}
        for i, (it, text) in enumerate(zip(self.items, outputs)):
            try:
                if text.startswith("duplicate of "):
                    head, _, pairs = text.partition(" map ")
                    rep = self.items[int(head.split()[-1])]
                    mapping = dict(tuple(int(x) for x in p.split(":"))
                                   for p in pairs.split())
                    if rep.base != it.base or not oracle.check_mapping(
                            it.n, rep.edges, it.edges, mapping):
                        raise ValueError(f"wrong match with {rep.name}")
                    continue
                if it.base in rep_of_base:
                    raise ValueError("missed isomorphism")
                rep_of_base[it.base] = i
                cert_text, _, exact_text = text.partition("gamma ")
                gamma, problems = oracle.check_exact("gamma " + exact_text, it.n, it.edges)
                delta = corpus.max_degree(it.n, it.edges)
                member = oracle.is_family_member(it.n, delta, gamma)
                cert, cert_problems = oracle.check_certificate(
                    it.n, it.edges, cert_text, near=False, member=member)
                problems += cert_problems
                if it.base in corpus.CATALOG and (
                        not member or gamma != corpus.CATALOG[it.base][2]):
                    problems.append("catalog member not recognised")
            except (ValueError, KeyError, IndexError) as e:
                failed.add(i)
                print(f"check {it.name}: {e}", file=sys.stderr)
                continue
            if problems:
                failed.add(i)
                print(f"check {it.name}: {problems}", file=sys.stderr)
            ratios.append(cert.bound[1] * len(cert.code) / cert.bound[0])
            steps.append([label for label, _ in cert.trace])
            gaps += len(cert.code) - gamma
            gammas += gamma
        missing = {it.base for it in self.items} - set(rep_of_base)
        if missing:
            print(f"check: no class found for {sorted(missing)}", file=sys.stderr)
            failed.update(i for i, it in enumerate(self.items) if it.base in missing)
        return {"failed": failed, "code_to_bound": statistics.fmean(ratios or [0.0]),
                "steps": steps, "opt_gap": gaps / gammas, "classes": len(rep_of_base)}


WORKLOADS = {
    "certify": Certify,
    "exact-sparse": ExactSparse,
    "dedup-sweep": DedupSweep,
}


# --- measurement -------------------------------------------------------------

_rng = random.Random(0)
_SETS = [frozenset(_rng.sample(range(96), 6)) for _ in range(96)]


def reference_work() -> int:
    """Fixed interpreter work of the package's kind: small set algebra,
    sorting, bitmasks and dict updates. Shares no code with the package, so
    no change to the package changes its speed."""
    acc: dict[tuple, int] = {}
    for r in range(3):
        for i in range(96):
            s, t = _SETS[i], _SETS[(i * 7 + r) % 96]
            mask = 0
            for v in s | t:
                mask |= 1 << v
            key = tuple(sorted(s ^ t))
            acc[key] = acc.get(key, 0) + len(s & t) + mask.bit_count()
    return len(acc)


def calibrate() -> float:
    """Mean of three timings of reference_work, in seconds."""
    total = 0.0
    for _ in range(3):
        t = perf_counter()
        reference_work()
        total += perf_counter() - t
    return total / 3


def setup(name: str, seed: int, workdir: Path):
    """Import, generate, write and warm once; returns the workload."""
    _import_package()
    items = corpus.WORKLOADS[name](seed)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[name](items, workdir)
    wl.bind()
    wl.begin_pass()
    smallest = min(range(len(items)), key=lambda i: (items[i].n, i))
    wl.run_item(smallest)
    return wl


def time_child(argv: list[str]) -> float:
    """Seconds from starting this runner with argv in a fresh process until
    it prints "ready"; the child is waited for."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv]
    t = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        dt = perf_counter() - t
        rest = child.stdout.read()
    if child.returncode != 0 or line != "ready\n":
        raise RuntimeError(f"child {argv} failed: exit {child.returncode}, {line + rest!r}")
    return dt


def time_setups(args) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_REPEATS fresh ``--setup-only`` children,
    scaled and raw.

    Each is scaled by START_REF_S over the time of a ``--start-only`` child
    started just before it, which pays the interpreter and the runner's own
    imports but not the package. Process start-up slows and speeds with
    the machine in ways the reference loop does not follow."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        ref = time_child(["--workload", args.workload, "--start-only"])
        dt = time_child(["--workload", args.workload, "--seed", str(args.seed),
                         "--setup-only"])
        raw.append(dt)
        scaled.append(dt * START_REF_S / ref)
    return scaled, raw


@dataclass
class Pass:
    """Per-item seconds, raw and scaled to the reference speed, and whether
    each call succeeded. outs holds the outputs of a pass run without
    expected outputs; later passes only record whether they matched. Flat
    arrays keep the memory a pass adds small, so peak_rss_mb does not
    depend on how many passes fit in the run."""

    raw: array = field(default_factory=lambda: array("d"))
    scaled: array = field(default_factory=lambda: array("d"))
    ok: bytearray = field(default_factory=bytearray)
    outs: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.scaled)


def run_pass(wl, n_items: int, expected: list[str] | None = None) -> Pass:
    """One pass over the corpus, items timed one by one and scaled to the
    reference speed chunk by chunk. With expected outputs, an item whose
    output differs counts as not ok."""
    gc.collect()
    wl.begin_pass()
    p = Pass()
    cal_before = calibrate()
    chunk_start, chunk_s = 0, 0.0
    for i in range(n_items):
        t = perf_counter()
        try:
            out, ok = wl.run_item(i)
        except Exception as e:  # an item failure is counted, not fatal
            out, ok = f"exception {type(e).__name__}: {e}", False
        dt = perf_counter() - t
        p.raw.append(dt)
        if expected is None:
            p.outs.append(out)
        else:
            ok = ok and out == expected[i]
        p.ok.append(ok)
        chunk_s += dt
        if chunk_s >= CHUNK_S or i == n_items - 1:
            cal_after = calibrate()
            factor = 2 * CAL_REF_S / (cal_before + cal_after)
            p.scaled.extend(p.raw[j] * factor for j in range(chunk_start, i + 1))
            cal_before, chunk_start, chunk_s = cal_after, i + 1, 0.0
    return p


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten values above it
    (nearest rank), and that percentile."""
    xs = sorted(values)
    n = len(xs)
    p = max(1, math.floor(100 * (n - 10) / n))
    return xs[math.ceil(p * n / 100) - 1], p


def spread(values) -> dict:
    xs = sorted(values)
    return {"min": xs[0], "p50": statistics.median(xs), "max": xs[-1],
            "mean": round(statistics.fmean(xs), 3)}


def properties(items, seed: int) -> dict:
    ns = [it.n for it in items]
    ms = [len(it.edges) for it in items]
    deltas = [corpus.max_degree(it.n, it.edges) for it in items]
    return {
        "seed": seed,
        "items": len(items),
        "n": spread(ns),
        "m": spread(ms),
        "delta": spread(deltas),
        "cycle_rank": spread([m - n + 1 for n, m in zip(ns, ms)]),
        "planted_share": sum(it.kind == "near-construct" for it in items) / len(items),
    }


def layer_metrics(per_pass: list[dict], steps: list[str], check: dict,
                  untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics from the tracer summaries of the traced passes:
    counts are per pass (identical on every pass), times are medians."""
    first = per_pass[0]
    count, entries, obs = first["count"], first["entries"], first["observed"]

    def self_s(layer):
        return statistics.median(s["self_s"][layer] for s in per_pass)

    def ratio(a, b):
        return a / b if b else 0.0

    levels = count["pick_cycle_edge"]
    build_s = statistics.median(s["inclusive_s"]["construct_triangle_free"] for s in per_pass)
    nodes = sum(v for k, v in obs.items() if k.endswith(".nodes"))
    exact_solvers = ("gamma_id_exact", "min_xy_identifying_exact",
                     "min_identifying_containing", "identifying_code_at_most")
    m = {
        "construct.calls": entries["construct_triangle_free"] + entries["construct_near_triangle_free"],
        "construct.self_s": self_s("construct"),
        "construct.levels": levels,
        "construct.s_per_level": ratio(build_s, levels),
        "construct.fallbacks": check["fallback_items"],
    }
    labels = {label: 0 for label in STEP_LABELS}
    for label in steps:
        labels[label] += 1
    m.update({f"construct.step.{label}": c for label, c in labels.items()})
    m.update({
        "graphs.self_s": self_s("graphs"),
        "graphs.graph_builds": count["Graph.__init__"],
        "graphs.bridges_calls": count["bridges"],
        "graphs.masks_calls": count["closed_neighborhood_masks"],
        "graphs.subgraph_calls": count["induced_subgraph"] + count["delete"]
        - count["delete.within_induced_subgraph"],
        "checks.self_s": self_s("checks"),
        "checks.identifying_calls": count["is_identifying"],
        "checks.accept_ratio": ratio(obs["is_identifying.true"], count["is_identifying"]),
        "checks.unseparated_calls": count["unseparated_pairs"],
        "exact.calls": sum(entries[f] for f in exact_solvers),
        "exact.self_s": self_s("exact"),
        "exact.nodes": nodes,
        "exact.nodes_per_s": ratio(nodes, self_s("exact")),
        "isomorph.self_s": self_s("isomorph"),
        "isomorph.find_calls": count["find_isomorphism"],
        "isomorph.match_ratio": ratio(obs["find_isomorphism.hit"], count["find_isomorphism"]),
        "isomorph.refine_calls": count["refine_colors"],
        "families.self_s": self_s("families"),
        "families.match_calls": count["match_family"],
        "families.hit_ratio": ratio(obs["match_family.hit"], count["match_family"]),
        "refine.calls": sum(entries[f] for f in ("greedy_separating",
                                                 "greedy_xy_identifying",
                                                 "partition_by_code")),
        "refine.self_s": self_s("refine"),
        "cli.calls": count["main"],
        "cli.self_s": self_s("cli"),
        "trace.spans": first["spans"],
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return m


# Metric-name suffix to unit, first match wins; anything else is a count.
UNITS = (("nodes_per_s", "1/s"), ("s_per_level", "s"), ("_ms", "ms"),
         ("_s", "s"), ("_mb", "MB"), ("ratio", "ratio"), ("code_to_bound", "ratio"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--start-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.start_only:
        print("ready", flush=True)
        return 0

    if not (SRC / "idcodes" / "__init__.py").is_file():
        print(f"error: no idcodes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = RUN_DIR / f"tmp-{os.getpid()}"
    try:
        wl = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return _run(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl) -> int:
    setups, setups_raw = time_setups(args)
    items = wl.items

    untraced, traced, tracer_summaries = [], [], []
    budget = args.seconds * (TRACE_UNTRACED_SHARE if args.trace else 1.0)
    t_start = perf_counter()
    while not untraced or perf_counter() - t_start < budget:
        untraced.append(run_pass(wl, len(items), untraced[0].outs if untraced else None))
    first_outs = untraced[0].outs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        while not traced or perf_counter() - t_start < args.seconds:
            tracer.reset()
            traced.append(run_pass(wl, len(items), first_outs))
            tracer_summaries.append(tracer.summary())
        tracer.uninstall()

    # Everything below is outside the timed region.
    check = wl.check(first_outs)
    failed_items = set(check["failed"])
    attempted = failed = 0
    for p in untraced + traced:
        for i, ok in enumerate(p.ok):
            attempted += 1
            if not ok or i in failed_items:
                failed += 1
    check["fallback_items"] = sum("ExactFallback" in labels for labels in check["steps"])
    steps = [label for labels in check["steps"] for label in labels]

    walls = [p.wall for p in untraced]
    per_item = [statistics.median(p.scaled[i] for p in untraced) for i in range(len(items))]
    per_item_raw = [statistics.median(p.raw[i] for p in untraced) for i in range(len(items))]
    tail_s, tail_p = tail(per_item)
    step_counts = {label: steps.count(label) for label in STEP_LABELS if label in steps}
    corpus_digest = hashlib.sha256("".join(
        f"{it.name} {it.kind}\n{corpus.serialize(it.n, it.edges)}" for it in items
    ).encode()).hexdigest()
    output_digest = hashlib.sha256("".join(first_outs).encode()).hexdigest()
    props = properties(items, args.seed)
    if check.get("classes"):
        props["classes"] = check["classes"]
        props["duplicate_share"] = 1 - check["classes"] / len(items)
    props["trace_label_shares"] = {
        label: round(c / len(steps), 4) for label, c in step_counts.items()}
    info = {
        "workload": args.workload,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "input": props,
        "digests": {"corpus_sha256": corpus_digest, "outputs_sha256": output_digest},
        "failed_frac": failed / attempted,
        "opt_gap": check["opt_gap"],
        "item_tail": {"percentile": tail_p, "items": len(items)},
        "setup_s_each": [round(s, 4) for s in setups],
        "raw": {
            "setup_s": statistics.median(setups_raw),
            "wall_s": statistics.median(sum(p.raw) for p in untraced),
            "item_p50_ms": statistics.median(per_item_raw) * 1000,
            "item_tail_ms": tail(per_item_raw)[0] * 1000,
        },
    }
    if args.trace:
        metrics = layer_metrics(
            tracer_summaries, steps, check,
            statistics.median(walls), statistics.median(p.wall for p in traced))
        out_path = RUN_DIR / f"spans-{args.workload}.tsv.gz"
        tracer.write(out_path)
        total = sum(statistics.median(s["self_s"][layer] for s in tracer_summaries)
                    for layer in spans.LAYERS)
        info["layer_share"] = {
            layer: round(metrics[f"{layer}.self_s"] / total, 4) for layer in spans.LAYERS}
        info["spans_file"] = str(out_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "item_p50_ms": statistics.median(per_item) * 1000,
            "item_tail_ms": tail_s * 1000,
            "peak_rss_mb": peak_rss_mb,
            "code_to_bound": check["code_to_bound"],
        }
    print("info " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
