"""pseudorate benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's rounds until their timed windows add up to S seconds,
checks every outcome against the oracle and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` rounds alternate untraced and traced, and the metrics are the
per-layer ones from the traced rounds. The line before it holds the run's
provenance and any failed checks by name. Both, and for traced runs the
spans, are also written under ``.bench_out/`` at the repository root.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import base64
import functools
import hashlib
import ipaddress
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 20  # so that each median rests on many rounds
# Iterations/s of `reference_speed` that every timing is scaled to (see
# "Steadiness" in README.md): a round number a little above the loop's rate
# in the fast spells of the VM described there.
REFERENCE_SPEED = 5000.0
REFERENCE_SECONDS = 0.02

LATENCIES = {"acquire_s": "acquire_ms", "redeem_s": "redeem_ms", "score_s": "score_ms"}


def load_spec() -> dict:
    """BENCHMARK.json names the metrics; ``--trace 0`` reports its
    ``end_to_end`` list and ``--trace 1`` its ``per_layer`` list."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {ROOT / 'BENCHMARK.json'}: {exc}")


def import_program() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import pseudorate
    except ImportError as exc:
        raise SystemExit(f"error: cannot import pseudorate from {SRC}: {exc}")
    if Path(pseudorate.__file__).resolve().parent != (SRC / "pseudorate").resolve():
        raise SystemExit(f"error: pseudorate was imported from outside {SRC}")


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(rec, scaled: bool = True) -> dict[str, float]:
    """Rates, ``setup_s`` and each ``.p50`` (a round's median) are the
    median of their per-round values; a ``.p95`` pools the samples of every
    round, so that hundreds of samples lie beyond it. With ``scaled``, each
    round's timings are first scaled to the reference machine speed by the
    speed measured around that round."""
    slow = [REFERENCE_SPEED / speed if scaled else 1.0 for speed in rec.speeds]
    rates = {"ratings_per_s": [], "scores_per_s": [], "steps_per_s": []}
    for (window, steps, ratings, scores, score_phase), s in zip(rec.per_round, slow):
        rates["ratings_per_s"].append(ratio(ratings, window) * s)
        rates["scores_per_s"].append(ratio(scores, score_phase) * s)
        rates["steps_per_s"].append(ratio(steps, window) * s)
    metrics = {"setup_s": statistics.median(t / s for t, s in zip(rec.setup_s, slow))}
    metrics.update({name: statistics.median(values) for name, values in rates.items()})
    for kind, name in LATENCIES.items():
        samples = getattr(rec, kind)
        rounds = [(samples[r[kind]], s) for r, s in zip(rec.round_samples, slow) if r[kind].stop > r[kind].start]
        metrics[f"{name}.p50"] = statistics.median(statistics.median(xs) / s for xs, s in rounds) * 1e3 if rounds else 0.0
        metrics[f"{name}.p95"] = percentile([x / s for xs, s in rounds for x in xs], 95) * 1e3
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


@functools.cache
def _reference_inputs() -> tuple:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    key = Ed25519PrivateKey.from_private_bytes(bytes(32))
    table = [{"id": i, "name": f"n{i}", "v": i * 7 % 1000} for i in range(20000)]
    return key, key.public_key(), table, random.Random(0).sample(range(len(table)), 300)


def reference_speed(seconds: float = REFERENCE_SECONDS) -> float:
    """Iterations/s of a fixed loop that touches none of the program: a
    sha256, an Ed25519 sign and verify, a JSON and base64 round trip, some
    interpreted arithmetic and scattered lookups in a table of a few MB,
    roughly the program's own mix of C, interpreter and memory work.
    Measured between rounds, it tells how fast the machine itself ran
    around each round."""
    key, public, table, probe = _reference_inputs()
    message, record, n = bytes(range(256)) * 4, {"k": list(range(16)), "s": "x" * 64}, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        digest = hashlib.sha256(message).digest()
        public.verify(key.sign(digest), digest)
        json.loads(base64.b64decode(base64.b64encode(json.dumps(record).encode())))
        total, names = 0, {}
        for i in range(100):
            total += i * i
        for i in probe:
            names[table[i]["name"]] = table[i]["v"]
        n += 1
    return n / (time.perf_counter() - start)


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, workload, recs, cpus: set[int]) -> dict:
    import cryptography

    hosts = sorted({h for rec in recs for h in rec.socket_hosts})
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(cpus),
        "pinned_to_cpu": min(cpus),
        "platform": platform.platform(),
        "reference_speed": {
            "scaled_to": REFERENCE_SPEED,
            "quartiles_per_round": statistics.quantiles(recs[0].speeds, n=4) if recs[0].rounds > 1 else recs[0].speeds,
        },
        "socket_hosts": hosts,
        "loopback_only": all(ipaddress.ip_address(h).is_loopback for h in hosts),
        "workload": workload.name,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "rounds": {"untraced": recs[0].rounds, "traced": recs[1].rounds},
        "samples": {
            "setup": len(recs[0].setup_s),
            "acquire": len(recs[0].acquire_s),
            "redeem": len(recs[0].redeem_s),
            "score": len(recs[0].score_s),
        },
    }


def join_other_threads(timeout: float = 10.0) -> None:
    me = threading.current_thread()
    for thread in threading.enumerate():
        if thread is not me:
            thread.join(timeout)


def drive(workload, args, plain, traced, tracer, scratch: Path) -> None:
    """Run rounds until the timed windows cover --seconds; with tracing,
    alternate untraced and traced rounds and split the time between them.
    The reference loop runs before the first round and after each round;
    a round's machine speed is the mean of the readings on either side."""
    k, speed = 0, reference_speed()
    while True:
        use_trace = bool(args.trace) and k % 2 == 1
        rec = traced if use_trace else plain
        workdir = scratch / f"round-{k}"
        workdir.mkdir(parents=True)
        before = rec.totals()
        counts = {kind: len(getattr(rec, kind)) for kind in LATENCIES}
        if use_trace:
            tracer.install()
        try:
            workload.round(rec, random.Random(f"{args.seed}/{k}").getrandbits(64), workdir)
        finally:
            if use_trace:
                tracer.uninstall()
            join_other_threads()
            shutil.rmtree(workdir, ignore_errors=True)
        after = reference_speed()
        rec.speeds.append((speed + after) / 2)
        speed = after
        rec.rounds += 1
        rec.per_round.append(tuple(b - a for a, b in zip(before, rec.totals())))
        rec.round_samples.append({kind: slice(start, len(getattr(rec, kind))) for kind, start in counts.items()})
        k += 1
        if not args.trace and plain.window_s >= args.seconds and plain.rounds >= MIN_ROUNDS:
            return
        half = args.seconds / 2
        if args.trace and plain.window_s >= half and traced.window_s >= half:
            return


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's round size")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    return parser.parse_args(argv)


def run(args: argparse.Namespace, collect_ids: bool = False) -> tuple[dict, dict, set | None]:
    """Run one workload; returns (result, info, identifiers created). The
    identifiers are gathered only for the pseudonymity self-test."""
    spec = load_spec()["per_layer" if args.trace else "end_to_end"]
    import_program()
    import tracer as tracing
    from workloads import WORKLOADS, Recorder

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](tiny=args.size == "tiny")
    plain, traced = Recorder(), Recorder()
    if collect_ids:
        plain.ids = traced.ids = set()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        traced.untraced = tracer.paused

    args.out.mkdir(parents=True, exist_ok=True)
    scratch = args.out / f"state-{os.getpid()}"
    cpus = os.sched_getaffinity(0)
    # One CPU for every thread: see "Steadiness" in README.md.
    os.sched_setaffinity(0, {min(cpus)})
    try:
        drive(workload, args, plain, traced, tracer, scratch)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(scratch, ignore_errors=True)

    tally = plain.tally
    if args.trace:
        tally.merge(traced.tally)
        metrics = tracing.summarize(tracer.spans(), traced.rounds)
        untraced_rate, traced_rate = ratio(plain.steps, plain.window_s), ratio(traced.steps, traced.window_s)
        metrics.update(
            {
                "error_rate": ratio(tally.failed, tally.attempted),
                "trace.overhead": ratio(traced_rate, untraced_rate),
                "trace.untraced_steps_per_s": untraced_rate,
                "trace.traced_steps_per_s": traced_rate,
            }
        )
    else:
        metrics = end_to_end(plain)
    differ = set(metrics) ^ {m["name"] for m in spec}
    if differ:
        raise SystemExit(f"error: measured metrics differ from BENCHMARK.json: {sorted(differ)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    info = {
        "provenance": provenance(args, workload, [plain, traced], cpus),
        "check_failures": tally.report(),
    }
    if not args.trace:
        info["unscaled"] = end_to_end(plain, scaled=False)

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        info["layer_shares"] = tracing.layer_shares(tracer.spans())
        info["spans_file"] = f"{stem}-spans.tsv"
        tracer.write_spans(args.out / info["spans_file"])
    rounds = {"untraced": plain.per_round, "traced": traced.per_round}
    record = {**info, "result": result, "per_round": rounds}
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result, info, plain.ids


def main(argv: list[str] | None = None) -> int:
    result, info, _ = run(parse_args(argv))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
