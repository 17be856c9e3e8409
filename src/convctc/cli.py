"""Command-line entry point.

Subcommands: train, eval, decode, verify, gen-synthetic, fit-stats.
Flag values override config-file values, which override built-in defaults.
"""

import argparse
import json
import sys

from .checkpoint import load_checkpoint
from .ctc import Alphabet, best_path_decode
from .data import TaskSpec, generate_synthetic, iter_static, load_dataset, load_manifest
from .evaluate import evaluate, load_mapping
from .features import assemble_input, fit_normalization, load_stats, save_stats
from .network import Network, NetworkConfig, figure3_config
from .tensor import DTYPES, load_tensor
from .train import STAGE_DEFAULTS, train
from .verify import SUITES


def _suite_name(name):
    if name not in SUITES:
        raise argparse.ArgumentTypeError(f"unknown suite {name!r} "
                                         f"(choose from {', '.join(SUITES)})")
    return name


def build_parser():
    parser = argparse.ArgumentParser(prog="convctc",
                                     description="Convolutional CTC sequence labeling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model with the two-stage recipe")
    p.add_argument("--config", help="network config JSON (default: the shipped "
                                    "10-conv/3-dense maxout stack)")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--train", required=True, dest="train_manifest")
    p.add_argument("--dev", required=True, dest="dev_manifest")
    p.add_argument("--out", default="run", help="output directory (checkpoints, metrics log)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", choices=list(DTYPES), default="f32")
    p.add_argument("--stage", choices=list(STAGE_DEFAULTS), default=None,
                   help="optimization stage (default: adam, or the resumed checkpoint's)")
    p.add_argument("--lr", type=float, default=None,
                   help="learning rate (default 1e-4 adam / 1e-5 sgd)")
    p.add_argument("--batch", type=int, default=20)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--dropout", type=float, default=None,
                   help="override every dropout rate in the config")
    p.add_argument("--l2", type=float, default=None,
                   help="L2 coefficient on weights (default 1e-5 in sgd stage, 0 otherwise)")
    p.add_argument("--patience", type=int, default=5,
                   help="evaluations without dev improvement before plateau action")
    p.add_argument("--batch-loss", choices=["sum", "mean"], default="sum")
    p.add_argument("--auto-finetune", action="store_true",
                   help="switch to SGD fine-tuning on plateau instead of stopping")
    p.add_argument("--clip", type=float, default=None, help="global gradient-norm clip")
    p.add_argument("--target-ler", type=float, default=None,
                   help="stop once dev label error rate reaches this value")
    p.add_argument("--stats", help="precomputed normalization stats file")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--no-timing", action="store_true",
                   help="write seconds=0.0 in the metrics log (reproducible logs)")

    p = sub.add_parser("eval", help="decode a manifest and report label error rate")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, dest="manifest")
    p.add_argument("--map", help="symbol folding file for scoring")
    p.add_argument("--report", help="write the full JSON report here")

    p = sub.add_parser("decode", help="decode one feature file to symbols on stdout")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("features", help="static feature file (binary tensor, bands x frames)")

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("suites", nargs="*", type=_suite_name, metavar="SUITE",
                   help=f"suites to run, any of {', '.join(SUITES)} (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=1000,
                   help="random instances for the ctc-oracle suite")

    p = sub.add_parser("gen-synthetic", help="generate the synthetic dataset")
    p.add_argument("--task", help="task spec JSON (default: 5 symbols, 41 bands, noise 0.1)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the task seed")

    p = sub.add_parser("fit-stats", help="fit normalization stats over a training manifest")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--train", required=True, dest="train_manifest")
    p.add_argument("--out", required=True)
    return parser


def _cmd_train(args):
    config = NetworkConfig.from_file(args.config) if args.config else figure3_config()
    alphabet = Alphabet.from_file(args.alphabet)
    train_manifest = load_manifest(args.train_manifest, alphabet, "train")
    dev_manifest = load_manifest(args.dev_manifest, alphabet, "dev")
    stats = load_stats(args.stats) if args.stats else None
    result = train(config, alphabet, train_manifest, dev_manifest, args.out,
                   seed=args.seed, precision=args.precision, stage=args.stage,
                   lr=args.lr, batch_size=args.batch, epochs=args.epochs,
                   patience=args.patience, l2=args.l2, dropout=args.dropout,
                   batch_loss=args.batch_loss, auto_finetune=args.auto_finetune,
                   clip=args.clip, target_ler=args.target_ler, stats=stats,
                   resume=args.resume, log_timing=not args.no_timing)
    print(f"done: {result.epochs_run} epoch(s), best dev_ler {result.best_dev_ler:.4f}")
    print(f"checkpoints: {result.best_path} (best), {result.last_path} (last)")
    return 0


def _cmd_eval(args):
    ck = load_checkpoint(args.checkpoint)
    net = Network(ck.config)
    manifest = load_manifest(args.manifest, ck.alphabet, "test")
    dtype = next(iter(ck.params.values())).dtype
    dataset = load_dataset(manifest, ck.stats, dtype=dtype)
    mapping = load_mapping(args.map, ck.alphabet) if args.map else None
    report = evaluate(net, ck.params, dataset, ck.alphabet, mapping)
    c = report.counts
    print(f"utterances: {len(report.per_utterance)}")
    print(f"edit distance: {c.distance} (S {c.substitutions} / I {c.insertions} / D {c.deletions})")
    print(f"label error rate: {report.label_error_rate:.4f}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_decode(args):
    ck = load_checkpoint(args.checkpoint)
    net = Network(ck.config)
    static = load_tensor(args.features)
    if static.ndim != 2 or static.shape[0] != ck.config.bands:
        raise SystemExit(f"feature file has shape {static.shape}; checkpoint expects "
                         f"({ck.config.bands}, frames)")
    dtype = next(iter(ck.params.values())).dtype
    x = assemble_input(static, ck.stats, dtype=dtype)
    log_probs = net.infer(x, ck.params)
    print(" ".join(ck.alphabet.decode(best_path_decode(log_probs))))
    return 0


def _cmd_verify(args):
    names = args.suites or list(SUITES)
    failed = []
    for name in names:
        if name == "ctc-oracle":
            ok, worst, details = SUITES[name](instances=args.instances, seed=args.seed)
        else:
            ok, worst, details = SUITES[name](seed=args.seed)
        for line in details:
            print(line)
        print(f"suite {name}: {'PASS' if ok else 'FAIL'} (worst {worst:.3e})")
        if not ok:
            failed.append(name)
    if failed:
        print(f"FAILED suites: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_gen_synthetic(args):
    spec = TaskSpec.from_file(args.task) if args.task else TaskSpec(symbols=5)
    if args.seed is not None:
        spec.seed = args.seed
    paths = generate_synthetic(spec, args.out)
    for key in ("alphabet", "train", "dev", "test"):
        print(f"{key}: {paths[key]}")
    return 0


def _cmd_fit_stats(args):
    alphabet = Alphabet.from_file(args.alphabet)
    manifest = load_manifest(args.train_manifest, alphabet, "train")
    stats = fit_normalization(iter_static(manifest))
    save_stats(args.out, stats)
    print(f"fitted stats over {len(manifest)} utterance(s) -> {args.out}")
    return 0


_COMMANDS = {"train": _cmd_train, "eval": _cmd_eval, "decode": _cmd_decode,
             "verify": _cmd_verify, "gen-synthetic": _cmd_gen_synthetic,
             "fit-stats": _cmd_fit_stats}


def main(argv=None):
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
