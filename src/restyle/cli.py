"""Command-line front end.

Subcommands: ``transfer`` (single text or a whole dataset), ``sweep``
(prompt-design grid), ``symb`` (generate the synthetic comparison corpus),
``clean`` (text cleanup), and ``eval`` (recompute metrics from a manifest or
plain text files). Backend endpoints come from RESTYLE_*_URL environment
variables; ``mock://`` URLs select the in-process mock backends.

Exit codes: 0 success, 1 backend failure, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .backends import BackendEndpoints, BackendError, DecodeConfig
from .data import (
    SymbSpec,
    clean_text,
    generate_symb,
    load_dataset,
    save_records,
)
from .metrics import EvalRow, summarize
from .pipeline import (
    DEFAULT_JOBS,
    PipelineError,
    RequestTemplate,
    SweepGrid,
    copy_baseline,
    directions_in,
    read_manifest,
    records_in,
    reevaluate_manifest,
    run_sweep,
    select_exemplars,
    transfer_corpus,
    transfer_one,
    write_manifest,
)
from .prompts import (
    DELIMITERS,
    TEMPLATES,
    PromptConfig,
    TransferRequest,
    delimiter_name,
    load_prompt_config,
    parse_direction,
    template_name,
)
from .reranking import STRENGTH_SOURCES, RerankConfig


class CliError(Exception):
    """Configuration problem detected before any backend call."""


def _run_config(args) -> RerankConfig:
    """The generation and rerank settings of a transfer or sweep run, from
    the RESTYLE_* environment and the generation flags."""
    decode = DecodeConfig(mode=args.decode_mode, beam_width=args.beam_width,
                          temperature=args.temperature)
    return RerankConfig(k=args.k, max_new_tokens=args.max_new_tokens, decode=decode,
                        use_fluency=not args.no_fluency,
                        strength_source=args.strength_source,
                        endpoints=BackendEndpoints.from_env())


def _parse_direction(item: str) -> tuple[str, str]:
    """A from:to pair, each style written as dataset records write it."""
    if ":" not in item:
        raise CliError(f"direction {item!r} must look like from:to")
    return parse_direction(*item.split(":", 1))


def _load_records(args) -> list:
    """The records of --dataset, read with --format, --clean and --strict."""
    return load_dataset(args.dataset, args.format, clean=args.clean,
                        strict=args.strict)


def _check_out(path: str) -> None:
    """Fail before any backend call if ``path`` cannot be opened for
    writing; a file already there is left as it was."""
    import os

    existed = os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


def _emit(payload: dict, args) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            if isinstance(value, dict):
                print(f"{key}:")
                for inner_key, inner_value in value.items():
                    print(f"  {inner_key}: {_fmt(inner_value)}")
            else:
                print(f"{key}: {_fmt(value)}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return "-" if value is None else str(value)


def _exemplar_pool(args, max_shots: int) -> list:
    """The records of --exemplars, read only when some shot count is above 0."""
    if max_shots <= 0:
        return []
    if not args.exemplars:
        raise CliError("--shots above 0 requires --exemplars FILE")
    return load_dataset(args.exemplars, args.format)


def cmd_transfer(args) -> int:
    prompts = (load_prompt_config(args.prompt_config) if args.prompt_config
               else PromptConfig())
    template = prompts.template(args.template)
    delimiter = prompts.delimiter(args.delimiter)
    cfg = _run_config(args)
    direction = parse_direction(args.from_style, args.to_style)
    exemplars = select_exemplars(_exemplar_pool(args, args.shots), direction,
                                 args.shots)

    if args.text is not None:
        req = TransferRequest(
            input_text=clean_text(args.text) if args.clean else args.text,
            source_style=direction[0], target_style=direction[1],
            template=template, delimiter=delimiter, exemplars=exemplars)
        winner, record, _ = transfer_one(req, cfg, seed=args.seed,
                                         example_id="cli-0")
        if args.json:
            print(json.dumps(record, indent=2))
        else:
            print(winner.text)
        return 0

    if not args.dataset:
        raise CliError("provide either --text or --dataset")
    records = records_in(_load_records(args), direction)
    if not records:
        raise CliError("no dataset records match the requested style direction")
    if args.out:
        _check_out(args.out)
    plan = RequestTemplate(template=template, delimiter=delimiter,
                           exemplars=exemplars)
    manifest = transfer_corpus(records, plan, cfg, jobs=args.jobs,
                               seed=args.seed)
    if args.out:
        write_manifest(manifest, args.out)
    if not args.json:
        for rec in manifest.records:
            if "error" in rec:
                print(f"{rec['id']}: ERROR {rec['error']}")
            else:
                print(f"{rec['id']}: {rec['winner']}")
    payload = {"run_id": manifest.run_id,
               "examples": len(manifest.records),
               "failed": len(manifest.records) - len(manifest.successful_records()),
               "summary": manifest.summary.to_dict()}
    if args.out:
        payload["manifest"] = args.out
    _emit(payload, args)
    return 0


def cmd_sweep(args) -> int:
    prompts = (load_prompt_config(args.prompt_config) if args.prompt_config
               else PromptConfig())
    cfg = _run_config(args)
    records = _load_records(args)
    if not records:
        raise CliError(f"{args.dataset} contains no records")

    template_names = (args.templates.split(",") if args.templates
                      else list(TEMPLATES))
    delimiter_names = (args.delimiters.split(",") if args.delimiters
                       else list(DELIMITERS))
    directions = (tuple(_parse_direction(item) for item in args.directions.split(","))
                  if args.directions else directions_in(records))
    grid = SweepGrid(templates=tuple(map(prompts.template, template_names)),
                     delimiters=tuple(map(prompts.delimiter, delimiter_names)),
                     directions=directions,
                     shots=tuple(int(s) for s in args.shots.split(",")))
    if args.out:
        _check_out(args.out)
    result = run_sweep(records, grid, cfg,
                       exemplars=_exemplar_pool(args, max(grid.shots)),
                       jobs=args.jobs, seed=args.seed)
    if args.out:
        result.save_csv(args.out)
        print(f"wrote {len(result.rows)} rows to {args.out}")
    else:
        sys.stdout.write(result.to_csv())
    failed = sum(1 for row in result.rows if "error" in row)
    if failed:
        print(f"{failed} of {len(result.rows)} cells failed", file=sys.stderr)
    return 0


def cmd_symb(args) -> int:
    records = generate_symb(SymbSpec(n=args.n, seed=args.seed))
    save_records(records, args.out, args.format)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_clean(args) -> int:
    lines = [clean_text(line) for line in (
        sys.stdin if args.input_path == "-" else _read_lines(args.input_path))]
    body = "\n".join(lines) + ("\n" if lines else "")
    if args.output_path == "-":
        sys.stdout.write(body)
    else:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(body)
    return 0


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def cmd_eval(args) -> int:
    if args.manifest:
        manifest = read_manifest(args.manifest)
        summary = reevaluate_manifest(manifest)
        _emit({"run_id": manifest.run_id, "summary": summary.to_dict()}, args)
        return 0
    if not args.hyp:
        raise CliError("provide --manifest or --hyp (with --src/--ref)")
    hyps = _read_lines(args.hyp)
    srcs = _read_lines(args.src) if args.src else None
    refs = _read_lines(args.ref) if args.ref else None
    for name, lines in (("--src", srcs), ("--ref", refs)):
        if lines is not None and len(lines) != len(hyps):
            raise CliError(f"{name} has {len(lines)} lines, --hyp has {len(hyps)}")
    absent = [None] * len(hyps)
    rows = [EvalRow(hyp, src, ref)
            for hyp, src, ref in zip(hyps, srcs or absent, refs or absent)]
    summary = summarize(rows, BackendEndpoints.from_env())
    _emit({"summary": summary.to_dict()}, args)
    return 0


def cmd_copy_baseline(args) -> int:
    records = _load_records(args)
    if not records:
        raise CliError(f"{args.dataset} contains no records")
    summary = copy_baseline(records, BackendEndpoints.from_env())
    _emit({"summary": summary.to_dict()}, args)
    return 0


def _add_common(parser: argparse.ArgumentParser, *, seed: bool = False,
                json_output: bool = False) -> None:
    """--verbose, plus --seed and --json on the subcommands that read them."""
    if seed:
        parser.add_argument("--seed", type=int, default=None,
                            help="base seed forwarded to the backends "
                                 f"(symb: generator seed, default {SymbSpec.seed})")
    if json_output:
        parser.add_argument("--json", action="store_true",
                            help="machine-readable output")
    parser.add_argument("--verbose", action="store_true")


def _add_dataset(parser: argparse.ArgumentParser, *, required: bool) -> None:
    parser.add_argument("--dataset", required=required,
                        help="JSONL/TSV dataset path")
    parser.add_argument("--format", default="jsonl", choices=["jsonl", "tsv"])
    parser.add_argument("--clean", action="store_true",
                        help="apply text cleanup to inputs")
    parser.add_argument("--strict", action="store_true",
                        help="fail on malformed dataset rows")


def _add_generation(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=RerankConfig.k,
                        help=f"candidates per example (default {RerankConfig.k})")
    parser.add_argument("--max-new-tokens", type=int,
                        default=RerankConfig.max_new_tokens)
    parser.add_argument("--no-fluency", action="store_true",
                        help="drop the fluency factor from reranking")
    parser.add_argument("--strength-source", default=RerankConfig.strength_source,
                        choices=STRENGTH_SOURCES)
    parser.add_argument("--decode-mode", default=DecodeConfig.mode,
                        choices=DecodeConfig.MODES)
    parser.add_argument("--beam-width", type=int,
                        default=DecodeConfig.beam_width,
                        help="defaults to --k; at least --k in beam mode")
    parser.add_argument("--temperature", type=float,
                        default=DecodeConfig.temperature)
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                        help="examples in flight: 1 runs them in the calling "
                             "thread, N>1 on N worker threads")
    parser.add_argument("--prompt-config", default=None,
                        help="JSON file adding templates/delimiters")


def build_parser() -> argparse.ArgumentParser:
    delim_help = ", ".join(f"{name} ({pair.open} {pair.close})"
                           for name, pair in DELIMITERS.items())
    parser = argparse.ArgumentParser(
        prog="restyle",
        description="Prompt-based textual style transfer with candidate reranking.",
        epilog=f"delimiter names: {delim_help}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transfer", help="transfer one text or a dataset")
    p.add_argument("--text", help="single input text")
    _add_dataset(p, required=False)
    p.add_argument("--from", dest="from_style", required=True,
                   help="source style ('not X' negates)")
    p.add_argument("--to", dest="to_style", required=True, help="target style")
    p.add_argument("--template", default=template_name(TransferRequest.template))
    p.add_argument("--delimiter", default=delimiter_name(TransferRequest.delimiter))
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--exemplars", help="dataset file supplying few-shot exemplars")
    p.add_argument("--out", help="manifest output path (dataset mode), "
                                 "checked before any call")
    _add_generation(p)
    _add_common(p, seed=True, json_output=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("sweep", help="template x delimiter x direction sweep")
    _add_dataset(p, required=True)
    p.add_argument("--templates", help="comma list (default: all four)")
    p.add_argument("--delimiters", help="comma list of names (default: all ten)")
    p.add_argument("--directions", help="comma list of from:to pairs "
                                        "(default: all in the dataset)")
    p.add_argument("--shots", default="0", help="comma list, e.g. 0,4")
    p.add_argument("--exemplars", help="dataset file supplying few-shot exemplars")
    p.add_argument("--out", help="CSV output path (default: stdout), "
                                 "checked before any call")
    _add_generation(p)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("symb", help="generate the symbolic comparison dataset")
    p.add_argument("--n", type=int, default=SymbSpec.n)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="jsonl", choices=["jsonl", "tsv"])
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_symb, seed=SymbSpec.seed)

    p = sub.add_parser("clean", help="clean text files line by line")
    p.add_argument("--in", dest="input_path", required=True,
                   help="input path or - for stdin")
    p.add_argument("--out", dest="output_path", default="-",
                   help="output path or - for stdout")
    _add_common(p)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("eval", help="recompute metrics from a manifest or files")
    p.add_argument("--manifest", help="run manifest (JSONL)")
    p.add_argument("--hyp", help="hypothesis file, one text per line")
    p.add_argument("--src", help="source file (enables s-sBLEU and GLEU)")
    p.add_argument("--ref", help="reference file (enables r-sBLEU and GLEU)")
    _add_common(p, json_output=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("copy-baseline",
                       help="evaluate the copy-the-input baseline on a dataset")
    _add_dataset(p, required=True)
    _add_common(p, json_output=True)
    p.set_defaults(func=cmd_copy_baseline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (BackendError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # PromptError, DatasetError and MetricError are ValueErrors; an OSError
    # is an input file that cannot be read or an output that cannot be written.
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
