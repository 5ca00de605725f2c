"""One workload in one process: set-up, timed loop, checks, metrics, output."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import time
from pathlib import Path

import kernels
import stats
from stats import median
from tracer import Tracer, assert_untraced
from workloads import REPS, WORKLOADS, GateError, check_pair

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 5  # set-up runs per process; setup_s reports their median

END_TO_END_UNITS = {
    "instance_ms.p50": "ms",
    "instance_ms.tail": "ms",
    "instances_per_s": "1/s",
    "decide_ms.p50": "ms",
    "decide_ms.tail": "ms",
    "verify_ms.p50": "ms",
    "ok_frac": "frac",
    "cert_bits.max": "bits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": _commit(),
    }


def _commit():
    """The checkout's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_cycle(wl, cycle, reps=1) -> list:
    """One cycle, one instance after another, untraced."""
    assert_untraced()
    return [wl.run(inst, reps) for inst in cycle]


def timed_loop(wl, cycles, seconds):
    """Whole cycles until `seconds` have passed and `wl.min_cycles` are done.

    Returns [(cycle index, outcome)].
    """
    done = []
    start = time.perf_counter()
    c = 0
    while c < wl.min_cycles or time.perf_counter() - start < seconds:
        done += [(c, o) for o in run_cycle(wl, cycles[c % len(cycles)], REPS)]
        c += 1
    return done


def fingerprints(done, built, ncycles) -> list[str]:
    """SHA-256 over the certificate JSON of each distinct cycle, in instance order.

    A cycle that comes round again must reproduce its certificates byte for byte.
    """
    if built:
        return [hashlib.sha256("\n".join(o.cert_text for o in built).encode()).hexdigest()]
    texts: dict[int, list[str]] = {}
    for c, out in done:
        texts.setdefault(c, []).append(out.cert_text)
    for c, cycle in texts.items():
        if c >= ncycles and cycle != texts[c % ncycles][: len(cycle)]:
            raise GateError(f"cycle {c} did not reproduce the certificates of cycle {c % ncycles}")
    return [hashlib.sha256("\n".join(texts[c]).encode()).hexdigest() for c in sorted(texts) if c < ncycles]


def _smallest_certificate(instances, outcomes):
    """(matrix, certificate JSON) of the smallest certificate, for the check pair."""
    pairs = [(i, o) for i, o in zip(instances, outcomes) if o.answer and o.cert_bits]
    inst, out = min(pairs, key=lambda p: len(p[1].cert_text))
    return inst.matrix, json.loads(out.cert_text)


def end_to_end(wl, done, built, setup_s) -> tuple[dict, dict]:
    """(metrics, notes): notes say which percentile a tail is and over how many samples."""
    acc = stats.account([o for _c, o in done])
    verify = stats.account(built) if built else acc
    design_n = wl.min_cycles * wl.kinds
    inst_tail, inst_note = stats.tail(acc.instance_ms, wl.kinds, design_n)
    decide_tail, decide_note = stats.tail(acc.decide_ms, wl.kinds, design_n)
    bits = [b for o in built + [o for _c, o in done] for b in o.cert_bits.values()]
    metrics = {
        "instance_ms.p50": median(acc.instance_ms),
        "instance_ms.tail": inst_tail,
        # one client, so throughput is correct outcomes over the summed instance times
        "instances_per_s": acc.ok / (sum(acc.instance_ms) / 1e3),
        "decide_ms.p50": median(acc.decide_ms),
        "decide_ms.tail": decide_tail,
        "verify_ms.p50": median(verify.verify_ms),
        "ok_frac": acc.ok / acc.attempted,
        "cert_bits.max": max(bits),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "instance_ms.p50": f"n={acc.attempted}",
        "instance_ms.tail": inst_note,
        "decide_ms.p50": f"n={len(acc.decide_ms)}",
        "decide_ms.tail": decide_note,
        "verify_ms.p50": f"n={len(verify.verify_ms)}",
        "ok_frac": f"failed {acc.failed} of {acc.attempted} (failed_frac {acc.failed_frac:.4f})",
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def traced_pass(wl, seed, outdir, untraced_cycle0, gen_s, spans_path):
    """Set-up and one cycle again, under the tracer; returns the per-layer metrics.

    `untraced_cycle0` and `gen_s` are the untraced first cycle and generation time.
    """
    replay = kernels.replays()
    if spans_path.exists():
        spans_path.unlink()

    with Tracer() as tgen:
        tgen.instance = "generate"
        cycles = wl.generate(seed)
    tgen.write_spans(spans_path, "generate")
    n_gen = sum(len(c) for c in cycles)

    with Tracer() as t:
        t.instance = "build"
        built = wl.build(cycles, outdir)
        traced = []
        for i, inst in enumerate(cycles[0]):
            t.instance = i
            traced.append(wl.run(inst))
        t.instance = "check-pair"
        check_pair(*_smallest_certificate(cycles[0], built or traced), outdir)
    t.write_spans(spans_path, "run")
    assert_untraced()

    n = len(traced)
    outcomes = built + traced
    calls, counts = t.calls, t.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "qcore.qmul.calls": (calls["qcore.qmul"], "count"),
        "qcore.qmul.ns_per_call": (ratio(t.hot_ns["qcore.qmul"], calls["qcore.qmul"]), "ns"),
        "qcore.sqrt_pure.calls": (calls["qcore.sqrt_pure"], "count"),
        "qcore.sqrt_pure.self_ms": (t.self_ms("qcore.sqrt_pure"), "ms"),
        "qcore.sqrt_pure.none": (counts["qcore.sqrt_pure.none"], "count"),
        "qcore.sqrt_pure.exhausted": (counts["qcore.sqrt_pure.exhausted"], "count"),
        "qcore.conjugator.self_ms": (t.self_ms("qcore.conjugator"), "ms"),
        "ratlin.rref.calls": (calls["ratlin.rref"], "count"),
        "ratlin.rref.self_ms": (t.self_ms("ratlin.rref"), "ms"),
        "ratlin.rref.max_cols": (counts["ratlin.rref.max_cols"], "count"),
        "qlinalg.matmul.calls": (calls["qlinalg.matmul"], "count"),
        "qlinalg.matmul.self_ms": (t.self_ms("qlinalg.matmul"), "ms"),
        "qlinalg.row_reduce.calls": (calls["qlinalg.row_reduce"], "count"),
        "qlinalg.row_reduce.self_ms": (t.self_ms("qlinalg.row_reduce"), "ms"),
        "qlinalg.witness_check.calls": (calls["qlinalg.witness_check"], "count"),
        "qlinalg.witness_check.self_ms": (t.self_ms("qlinalg.witness_check"), "ms"),
        "qlinalg.is_nilpotent.self_ms": (t.self_ms("qlinalg.is_nilpotent"), "ms"),
        "spectral.unispectral.calls": (calls["spectral.unispectral"], "count"),
        "spectral.unispectral.self_ms": (t.self_ms("spectral.unispectral"), "ms"),
        "spectral.unispectral.certified": (counts["spectral.unispectral.certified"], "count"),
        "spectral.eigenvectors_for.self_ms": (t.self_ms("spectral.eigenvectors_for"), "ms"),
        "classify.decide.calls_per_instance": (calls["classify.decide"] / n, "count"),
        "classify.decide.self_ms": (t.self_ms("classify.decide"), "ms"),
        "classify.classify.calls_per_instance": (calls["classify.classify"] / n, "count"),
        "classify.classify.self_ms": (t.self_ms("classify.classify"), "ms"),
        "classify.detect_type_II.self_ms": (t.self_ms("classify.detect_type_II"), "ms"),
    }
    for path in ("2x2", "type_ii", "3x3", "large"):
        m[f"decompose.path.{path}.calls"] = (calls[f"decompose.path.{path}"], "count")
        m[f"decompose.path.{path}.self_ms"] = (t.self_ms(f"decompose.path.{path}"), "ms")
    m["decompose.path.large.depth_max"] = (t.depth_max["decompose.path.large"], "count")
    for layer, useful in (("vector_candidates", "useful_ratio"), ("perturbations", "accepted_ratio")):
        tried = counts[f"decompose.{layer}.tried"]
        m[f"decompose.{layer}.tried"] = (tried, "count")
        m[f"decompose.{layer}.{useful}"] = (ratio(counts[f"decompose.{layer}.searches"], tried), "ratio")
    m["decompose.verify.self_ms"] = (t.self_ms("decompose.verify"), "ms")
    for key in ("P", "Pinv", "N1", "N2"):
        m[f"decompose.cert_bits.{key}.max"] = (max((o.cert_bits[key] for o in outcomes if o.cert_bits), default=0), "bits")
    m["jsonio.dump.self_ms"] = (t.self_ms("jsonio.dump"), "ms")
    m["jsonio.load.self_ms"] = (t.self_ms("jsonio.load"), "ms")
    m["jsonio.bytes"] = (sum(len(o.cert_text) for o in outcomes if o.cert_bits), "B")
    m["gen.instance_ms"] = (gen_s * 1e3 / n_gen, "ms")
    m["gen.classify_calls"] = (tgen.calls["classify.classify"] / n_gen, "count")
    m["cli.check.self_ms"] = (t.self_ms("cli.check"), "ms")
    m["trace.overhead_frac"] = (median([o.ms for o in traced]) / median([o.ms for o in untraced_cycle0]), "ratio")
    for name, (value, height) in replay.items():
        unit = "ns" if name.startswith("qcore.") else "ms"
        m[name] = (value, unit)
    notes = {name: f"operands {height} bits" for name, (_v, height) in replay.items()}
    return m, notes


def run_workload(args, import_s: float) -> int:
    wl = WORKLOADS[args.workload]
    env = environment()
    outdir = OUT / f"{wl.name}-seed{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    print(f"# perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {wl.why}")
    print("# env " + json.dumps(env))

    done = []
    try:
        gen_s = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            cycles = wl.generate(args.seed)
            gen_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        built = wl.build(cycles, outdir)
        setup_s = import_s + median(gen_s) + (time.perf_counter() - start)

        if args.trace:
            # fixed work, so that traced counts repeat exactly: the first
            # cycle untraced (the overhead baseline), then again traced
            done = [(0, o) for o in run_cycle(wl, cycles[0])]
        else:
            done = timed_loop(wl, cycles, args.seconds)
        prints = fingerprints(done, built, len(cycles))
        cycle0 = [o for c, o in done if c == 0]
        if args.trace:
            spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
            metrics, notes = traced_pass(wl, args.seed, outdir, cycle0, median(gen_s), spans_path)
        else:
            check_pair(*_smallest_certificate(cycles[0], built or cycle0), outdir)
            metrics, notes = end_to_end(wl, done, built, setup_s)
    except GateError as exc:
        print(f"CHECK FAILED: {exc}")
        outcomes = [o for _c, o in done]
        print(json.dumps({"correct": False, "attempted": max(1, len(outcomes)),
                          "failed": sum(o.failed for o in outcomes), "metrics": {}}))
        return 1

    outcomes = [o for _c, o in done]
    failed = sum(o.failed for o in outcomes)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit:<6} {notes.get(name, '')}")
    failures = sorted({f"{o.label}: {o.error}" for o in outcomes if o.failed})
    for line in failures:
        print(f"# failed: {line}")
    print(f"# cert_sha256 {prints[0]}")

    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env_start": env, "loadavg_end": list(os.getloadavg()),
        "attempted": len(outcomes), "failed": failed,
        "failed_frac": failed / len(outcomes), "failures": failures,
        "cert_sha256": prints[0], "cert_sha256_per_cycle": prints,
        "instances": [[c, o.label, o.ms, o.decide_ms, o.verify_ms, o.failed] for c, o in done],
        "metrics": {k: {"value": v, "unit": u, "note": notes.get(k, "")} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": True, "attempted": len(outcomes), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
