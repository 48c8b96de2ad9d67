"""Command-line front door: gen, train, eval and cluster-report subcommands.

Exit codes are a stable contract: 0 success, 2 config validation problems,
3 corrupt artifact files, 4 shape or class-count mismatches, 1 anything else.
Output files are written atomically, so failures never leave partial files.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import container, pipeline
from .config import RunConfig, parse_config
from .errors import ConfigError, ContainerError, ShapeError

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_CORRUPT = 3
EXIT_MISMATCH = 4


def cmd_gen(cfg: RunConfig, out_dir: Path) -> int:
    """Generate every configured dataset and write one container per id."""
    seed = cfg.seeds[0]
    datasets = cfg.build_datasets(seed)
    for ds_id, handle in datasets.items():
        path = out_dir / f"{ds_id}.sfl"
        pipeline.save_dataset(path, handle)
        print(f"{path} crc32={container.container_checksum(path):08x}")
    return EXIT_OK


def _system_name(bundle: pipeline.ModelBundle) -> str:
    return f"{bundle.provenance['graph']}+subset({bundle.selector_kind})"


def cmd_train(cfg: RunConfig, out_dir: Path, workers: int) -> int:
    """Train the full system once per seed; write bundles and a metrics CSV."""
    rows = []
    for seed in cfg.seeds:
        datasets = cfg.build_datasets(seed)
        target = datasets[cfg.target]
        bundle = pipeline.build_system(
            target,
            graph=cfg.stage_graph(),
            extra_datasets=datasets,
            config=cfg.system_config(seed),
            workers=workers,
        )
        metrics = pipeline.evaluate(bundle, target, "test")
        bundle_path = out_dir / f"bundle-seed{seed}.sfl"
        pipeline.save_bundle(bundle_path, bundle)
        rows.append((_system_name(bundle), seed, metrics.mean_accuracy, metrics.overall_accuracy))
        print(f"{bundle_path} seed={seed} mean_accuracy={metrics.mean_accuracy!r}")
    metrics_path = out_dir / "metrics.csv"
    pipeline.write_metrics_csv(metrics_path, rows)
    print(f"{metrics_path}")
    return EXIT_OK


def cmd_eval(bundle_path: Path, dataset_path: Path, out_dir: Path) -> int:
    """Load a bundle and a dataset, evaluate the test split, write CSVs."""
    bundle = pipeline.load_bundle(bundle_path)
    dataset = pipeline.load_dataset(dataset_path)
    metrics = pipeline.evaluate(bundle, dataset, "test")
    name, seed = _system_name(bundle), bundle.provenance["seed"]
    pipeline.write_metrics_csv(
        out_dir / "metrics.csv", [(name, seed, metrics.mean_accuracy, metrics.overall_accuracy)]
    )
    pipeline.write_confusion_csv(out_dir / "confusion.csv", metrics.confusion, dataset.class_names)
    print(f"mean_accuracy={metrics.mean_accuracy!r}")
    return EXIT_OK


def cmd_cluster_report(bundle_path: Path, dataset_path: Path, out_dir: Path) -> int:
    """Compare pre-clustering quality across the bundle base net's feature taps
    on the dataset's train split and write the comparison CSV.

    Rows: raw conv tap, raw penultimate fc tap, and lda-projected fc tap, each
    with its silhouette and cluster-size extremes.
    """
    reports = pipeline.tap_reports(pipeline.load_bundle(bundle_path), pipeline.load_dataset(dataset_path))
    lines = ["tap,silhouette,min_size,max_size"] + [r.csv_row() for r in reports]
    report_path = out_dir / "cluster_report.csv"
    container.atomic_write_text(report_path, "\n".join(lines) + "\n")
    for r in reports:
        print(f"{r.tap} silhouette={r.silhouette!r}")
    print(f"{report_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetlearn",
        description="Subset feature learning experiments on synthetic fine-grained benchmarks.",
    )
    parser.add_argument("--out-dir", default="out", help="directory for output files")
    parser.add_argument("--threads", type=int, default=1, help="worker threads (1 keeps runs bit-deterministic)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("gen", "generate the configured synthetic datasets"),
        ("train", "train the full system, one run per seed"),
    ):
        command = sub.add_parser(name, help=text)
        command.add_argument("--config", required=True)
        command.add_argument("--seed", type=int, default=None, help="override the configured seeds")
    for name, text in (
        ("eval", "evaluate a saved bundle on a saved dataset"),
        ("cluster-report", "compare pre-clustering quality across a saved bundle's feature taps"),
    ):
        command = sub.add_parser(name, help=text)
        command.add_argument("bundle")
        command.add_argument("dataset")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "gen":
            return cmd_gen(parse_config(args.config, args.seed), out_dir)
        if args.command == "train":
            return cmd_train(parse_config(args.config, args.seed), out_dir, args.threads)
        if args.command == "eval":
            return cmd_eval(Path(args.bundle), Path(args.dataset), out_dir)
        if args.command == "cluster-report":
            return cmd_cluster_report(Path(args.bundle), Path(args.dataset), out_dir)
        raise ConfigError(f"unknown command {args.command!r}")  # pragma: no cover
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContainerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except Exception as exc:  # noqa: BLE001  stable catch-all exit contract
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
