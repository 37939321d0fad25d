"""Command-line interface: synth, validate, train, eval, query, bench."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import engine, trainer
from .corpus import (CorpusFormatError, QueryRecord, SynthSpec, read_corpus,
                     synth_corpus, validate_corpus, write_corpus)
from .model import load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4


def _fail(code: int, kind: str, message: str) -> int:
    print(f"error code={kind} exit={code} msg={message}", file=sys.stderr)
    return code


def _parse_k_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proclip",
                                     description="prompt-aware two-stage text-video retrieval")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic planted corpus")
    p.add_argument("--videos", type=int, required=True)
    p.add_argument("--queries", type=int, required=True)
    p.add_argument("--frames", type=int, default=32)
    p.add_argument("--dv", type=int, default=24)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--duration-range", type=float, nargs=2, default=(10.0, 90.0))
    p.add_argument("--snr", type=float, default=10.0)
    p.add_argument("--relevant-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("validate", help="check corpus invariants")
    p.add_argument("corpus")

    p = sub.add_parser("train", help="run the training stages")
    p.add_argument("--corpus", required=True)
    p.add_argument("--stage", choices=("retrieval", "distill", "both"), default="both")
    p.add_argument("--checkpoint", help="starting checkpoint (required for --stage distill)")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-frames", type=int, default=6)
    p.add_argument("--lr-backbone", type=float, default=1e-3)
    p.add_argument("--lr-head", type=float, default=1e-2)
    p.add_argument("--lr-distill", type=float, default=1e-1)
    p.add_argument("-o", "--output", required=True, help="checkpoint output path")
    p.add_argument("--log", help="training log CSV path")

    p = sub.add_parser("eval", help="retrieval metrics over all corpus queries")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=float, default=50.0)
    p.add_argument("--k-frames", type=int, default=12)
    p.add_argument("-o", "--output", help="metrics CSV path (default stdout)")

    p = sub.add_parser("query", help="rank videos for a single query")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--query-id")
    p.add_argument("--embedding", help="raw little-endian f32 sentence vector file")
    p.add_argument("--k", type=float, default=50.0)
    p.add_argument("--k-frames", type=int, default=12)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("-o", "--output", help="CSV path (default stdout)")

    p = sub.add_parser("bench", help="latency sweep over computation ratios")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--k-list", default="100,90,80,70,60,50,40,30,20,10,5")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--k-frames", type=int, default=12)
    p.add_argument("-o", "--output", help="latency CSV path (default stdout)")
    return parser


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _InvalidCorpus(Exception):
    """A corpus that fails `validate_corpus`: exit 4, as `proclip validate`."""


def _read_valid_corpus(path: str):
    corpus = read_corpus(path)
    violations = validate_corpus(corpus).violations
    if violations:
        raise _InvalidCorpus(f"{len(violations)} violations, first: {violations[0]}")
    return corpus


def _load_model_for(corpus, path: str):
    model = load_checkpoint(path)
    d_v, d = model.dims
    if corpus.dims["D_v"] != d_v or corpus.dims["D"] != d:
        raise CorpusFormatError("dimension-mismatch",
                                "model dims do not match corpus")
    return model


def _cmd_synth(args) -> int:
    if args.snr <= 0 or args.videos < 1 or args.queries < 1:
        return _fail(EXIT_VALIDATION, "bad-spec", "invalid synthesis parameters")
    spec = SynthSpec(
        n_videos=args.videos, n_queries=args.queries,
        frames_per_video=args.frames, d_v=args.dv, d=args.dim,
        duration_range=tuple(args.duration_range), relevance_snr=args.snr,
        relevant_frame_fraction=args.relevant_fraction, seed=args.seed,
    )
    bundle = synth_corpus(spec)
    write_corpus(bundle, args.output)
    print(f"wrote {args.output}: {args.videos} videos, {args.queries} queries")
    return EXIT_OK


def _cmd_validate(args) -> int:
    report = validate_corpus(read_corpus(args.corpus))
    if report.ok:
        print("ok")
        return EXIT_OK
    for v in report.violations:
        print(v)
    return _fail(EXIT_VALIDATION, "invalid-corpus",
                 f"{len(report.violations)} violations")


def _cmd_train(args) -> int:
    corpus = _read_valid_corpus(args.corpus)
    cfg = trainer.TrainConfig(batch_size=args.batch_size, epochs=args.epochs,
                              seed=args.seed, k_frames=args.k_frames,
                              lr_backbone=args.lr_backbone, lr_head=args.lr_head,
                              lr_distill=args.lr_distill)
    history = []
    if args.stage in ("retrieval", "both"):
        start = load_checkpoint(args.checkpoint) if args.checkpoint else None
        result = trainer.train_retrieval_stage(corpus, cfg, model=start)
        history = result.history
        model = result.model
    else:
        if not args.checkpoint:
            return _fail(EXIT_VALIDATION, "missing-checkpoint",
                         "--stage distill requires --checkpoint")
        model = load_checkpoint(args.checkpoint)
    if args.stage in ("distill", "both"):
        result = trainer.train_distill_stage(corpus, model, cfg)
        model = result.model
    save_checkpoint(model, args.output)
    if args.log:
        with open(args.log, "w") as fh:
            fh.write(trainer.training_log_csv(history))
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    corpus = _read_valid_corpus(args.corpus)
    model = _load_model_for(corpus, args.model)
    index = engine.index_corpus(corpus, model)
    config = engine.RetrievalConfig(k_percent=args.k, k_frames=args.k_frames)
    report = engine.evaluate(corpus.queries, index, config)
    _emit(engine.metrics_csv(report), args.output)
    return EXIT_OK


def _cmd_query(args) -> int:
    corpus = _read_valid_corpus(args.corpus)
    model = _load_model_for(corpus, args.model)
    if bool(args.query_id) == bool(args.embedding):
        return _fail(EXIT_VALIDATION, "bad-query",
                     "provide exactly one of --query-id / --embedding")
    if args.query_id:
        matches = [q for q in corpus.queries if q.id == args.query_id]
        if not matches:
            return _fail(EXIT_VALIDATION, "unknown-query",
                         f"query {args.query_id} not in corpus")
        query = matches[0]
    else:
        sentence = np.fromfile(args.embedding, dtype="<f4")
        if sentence.shape[0] != corpus.dims["D"]:
            return _fail(EXIT_VALIDATION, "bad-embedding",
                         f"expected {corpus.dims['D']} floats")
        query = QueryRecord(id="adhoc", words=sentence[None, :].copy(),
                            sentence=sentence, ground_truth_video="")
    index = engine.index_corpus(corpus, model)
    config = engine.RetrievalConfig(k_percent=args.k, k_frames=args.k_frames)
    ranked = engine.retrieve(query, index, config)
    lines = ["rank,video_id,score,stage"]
    for rank, vid in enumerate(ranked.video_ids[:args.top], start=1):
        if vid in ranked.stage2_scores:
            lines.append(f"{rank},{vid},{ranked.stage2_scores[vid]},2")
        else:
            lines.append(f"{rank},{vid},{ranked.stage1_scores[vid]},1")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_bench(args) -> int:
    corpus = _read_valid_corpus(args.corpus)
    model = _load_model_for(corpus, args.model)
    k_list = _parse_k_list(args.k_list)
    if not k_list or any(not 0 < k <= 100 or not math.isfinite(k) for k in k_list):
        return _fail(EXIT_VALIDATION, "bad-k-list", "k values must lie in (0, 100]")
    reports = engine.bench(corpus, model, k_list, rounds=args.rounds,
                           k_frames=args.k_frames)
    _emit(engine.latency_csv(reports), args.output)
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "validate": _cmd_validate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "query": _cmd_query,
    "bench": _cmd_bench,
}


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on unknown flags, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CorpusFormatError as exc:
        return _fail(EXIT_IO, exc.code, str(exc))
    except _InvalidCorpus as exc:
        return _fail(EXIT_VALIDATION, "invalid-corpus", str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "io-error", str(exc))
    except ValueError as exc:
        return _fail(EXIT_VALIDATION, "invalid-input", str(exc))


def main() -> None:
    sys.exit(run_cli())
