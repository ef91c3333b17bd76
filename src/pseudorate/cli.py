"""Command line driver.

    pseudorate run <scenario.json> [--seed N] [--transport inproc|socket]
                                   [--out FILE] [--state-dir DIR]
    pseudorate verify <file>           # chain bundle or transcript
    pseudorate score <subject> --transcript FILE
    pseudorate demo [--seed N] [--transport ...] [--out FILE]

Human-readable summaries go to stdout; --out writes the full transcript in
the canonical encoding (the machine-readable form). Exit status: 0 on
success, 1 on verification failure or runtime error, 2 on usage/config
errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import crypto
from .encoding import EncodingError, decode
from .errors import TicketError
from .reputation import RatingPayload, ReputationSystem
from .scenario import ScenarioConfig, ScenarioError, Transcript, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudorate",
        description="Pseudonymous rating tickets: scenario runner and chain verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--transport", choices=("inproc", "socket"), default="inproc")
        p.add_argument("--out", type=Path, default=None, help="write the canonical transcript here")
        p.add_argument("--state-dir", type=Path, default=None, help="persist service logs here")

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", type=Path)
    common(p_run)

    p_verify = sub.add_parser("verify", help="verify chains from a bundle or transcript file")
    p_verify.add_argument("file", type=Path)

    p_score = sub.add_parser("score", help="report a subject's aggregate score from a transcript")
    p_score.add_argument("subject")
    p_score.add_argument("--transcript", type=Path, required=True)

    p_demo = sub.add_parser("demo", help="run the built-in happy-path scenario")
    common(p_demo)

    return parser


def demo_config() -> dict:
    """Built-in scenario: three agents buy tickets in different value groups,
    rate two subjects, pay at redemption, and revenue is shared."""
    return {
        "seed": 42,
        "rs_id": "rs-demo",
        "groups": {
            "1": {"impact": "1"},
            "2": {"impact": "2"},
            "3": {"impact": "3"},
        },
        "policy": {"kind": "flat", "per_group": {"1": 100, "2": 250, "3": 500}},
        "shares": {"cp": "1/5", "pca": "2/5", "rs": "2/5"},
        "charging": "ex_post",
        "agents": [
            {"name": "alice", "account": "acct-alice", "balance": 1000},
            {"name": "bob", "account": "acct-bob", "balance": 1000},
            {"name": "carol", "account": "acct-carol", "balance": 1000},
        ],
        "script": [
            {"action": "register", "agent": "alice"},
            {"action": "register", "agent": "bob"},
            {"action": "register", "agent": "carol"},
            {"action": "acquire", "agent": "alice", "group": 1},
            {"action": "acquire", "agent": "bob", "group": 2},
            {"action": "acquire", "agent": "carol", "group": 3},
            {"action": "redeem", "agent": "alice", "subject": "seller-books", "score": 4},
            {"action": "redeem", "agent": "bob", "subject": "seller-books", "score": 5},
            {"action": "redeem", "agent": "carol", "subject": "seller-games", "score": 2},
            {"action": "score", "subject": "seller-books"},
            {"action": "score", "subject": "seller-games"},
        ],
    }


def _emit_transcript(transcript: Transcript, out: Path | None) -> None:
    for line in transcript.summary_lines():
        print(line)
    if out is not None:
        out.write_bytes(transcript.to_bytes())
        print(f"transcript written to {out}")


def _cmd_run(args: argparse.Namespace, config: ScenarioConfig) -> int:
    if args.seed is not None:
        config.seed = args.seed
    transcript = run_scenario(config, transport=args.transport, state_dir=args.state_dir)
    _emit_transcript(transcript, args.out)
    return 0


def _verify_bundle(bundle: dict, data: bytes, spans: dict) -> tuple[bool, str]:
    try:
        chain = crypto.CredentialChain.from_bytes(bundle["chain"])
        registry = {int(g): pub for g, pub in bundle["groups"].items()}
    except (EncodingError, KeyError, ValueError, TypeError) as exc:
        return False, f"malformed bundle: {exc}"
    report = crypto.verify_chain(chain, registry)
    if not report.valid:
        return False, f"invalid chain: {report.reason}"
    if "payload" in bundle:
        try:
            payload = RatingPayload.from_record(bundle["payload"], data, spans)
        except EncodingError as exc:
            return False, f"malformed payload: {exc}"
        if chain.rating_cred.entity != payload.canonical_bytes():
            return False, "payload does not match signed bytes"
    return True, f"valid chain (group {report.group})"


def _cmd_verify(args: argparse.Namespace) -> int:
    spans: dict = {}
    try:
        data = args.file.read_bytes()
        raw = decode(data, spans)
    except (OSError, EncodingError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    if isinstance(raw, dict) and "events" in raw:
        bundles = Transcript.from_record(raw).chain_bundles()
        if not bundles:
            print("transcript contains no chains")
            return 1
    elif isinstance(raw, dict) and "chain" in raw:
        bundles = [raw]
    else:
        print("error: file is neither a transcript nor a chain bundle", file=sys.stderr)
        return 2
    failures = 0
    for i, bundle in enumerate(bundles):
        ok, message = _verify_bundle(bundle, data, spans)
        print(f"chain {i}: {message}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def _cmd_score(args: argparse.Namespace) -> int:
    try:
        transcript = Transcript.from_bytes(args.transcript.read_bytes())
    except (OSError, EncodingError, ScenarioError) as exc:
        print(f"error: cannot read transcript: {exc}", file=sys.stderr)
        return 2
    score = transcript.final.get("scores", {}).get(args.subject, ReputationSystem.none_value)
    print(f"{args.subject} {score}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "run":
            return _cmd_run(args, ScenarioConfig.from_json_file(args.scenario))
        if args.command == "demo":
            return _cmd_run(args, ScenarioConfig.from_dict(demo_config()))
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "score":
            return _cmd_score(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TicketError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
