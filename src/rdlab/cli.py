"""Command-line front end.

One subcommand per analysis operation, deterministic CSV/JSON artifacts, and
a run manifest next to every --out file.  Exit codes: 0 success, 1 a checked
inequality failed, 2 usage error, 3 budget or resource error.

A process builds the parser once, when it imports this module, and every
``run_command`` parses with it: an in-process caller that runs many commands
pays for the build once, and a shell run, which builds it once per process
either way, is unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .algebra import AlgebraElement
from .cache import (
    cache_path,
    check_ball_cache,
    read_ball_cache,
    sha256_file,
    write_ball_cache,
)
from .errors import BudgetExceededError, RdlabError
from .groups import (
    DEFAULT_BUDGET,
    ball_index,
    enumerate_balls,
    holding_balls,
    parse_descriptor,
)
from .norms import radial_to_algebra
from .rd import (
    FIT_POINTS,
    REPORT_FIT_FROM,
    RatioSeries,
    ball_product_sweep,
    ball_series_l2_bounds,
    build_ball_series,
    build_report,
    fit_exponent,
    make_witness,
    norm_bracket,
    ratio_series,
    rd_constant_series,
    require_nonzero,
    standard_embedding,
    standard_embeddings,
    verify_ball_product_bound,
    verify_doubling,
    verify_heredity,
    verify_series_product_bound,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def fmt(value):
    """CSV cell: 12 significant digits, '.' decimal separator."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def csv_text(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(obj):
    """Strict JSON: a nan or infinite float raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def parse_range(text):
    """The n values of ``n``, ``lo:hi`` or ``lo:hi:step``."""
    try:
        parts = [int(part) for part in text.split(":")]
    except ValueError:
        parts = []
    if len(parts) == 1:
        return parts
    if len(parts) == 2:
        parts.append(1)
    if len(parts) != 3 or parts[2] < 1 or parts[1] < parts[0]:
        raise ValueError(f"bad range {text!r}")
    lo, hi, step = parts
    return list(range(lo, hi + 1, step))


def parse_budget(text):
    """The ``--budget`` value: an int of at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"takes an integer of at least 0, not {text!r}")
    return value


def parse_finite(text):
    """A float flag's value: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"takes a finite number, not {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a negative number in exponent form or a
    negative infinity or nan (``-1e-9``, ``-inf``) after a space as a flag's
    value, as it takes ``-12`` and ``-1.5``, rather than as an unknown
    option; ``parse_finite`` then refuses the values that are not finite."""

    NEGATIVE_NUMBER = re.compile(
        r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self.NEGATIVE_NUMBER


class _Run:
    """Collects artifact text plus manifest metadata for one invocation."""

    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.cache_files = []
        self.spec = None

    def get_index(self, spec, radius, budget):
        """This command's ball loader: the ``--cache-dir`` file of ``spec``
        at exactly ``radius`` when there is one, else a new enumeration."""
        if self.args.cache_dir:
            path = cache_path(self.args.cache_dir, spec, radius)
            if path.is_file():
                self.cache_files.append(str(path))
                return read_ball_cache(path, spec, radius, budget=budget)
        return enumerate_balls(spec, radius, budget=budget)

    def emit(self, text, summary=None):
        out = self.args.out
        if out:
            # bytes, not write_text: the manifest hashes these exact bytes
            Path(out).write_bytes(text.encode("utf-8"))
            manifest = self.manifest(out, text)
            Path(out + ".manifest.json").write_bytes(
                json_text(manifest).encode("utf-8"))
            if summary:
                print(summary)
        else:
            # artifact owns stdout; keep it pipeable
            sys.stdout.write(text)
            if summary:
                print(summary, file=sys.stderr)

    def manifest(self, out, artifact_text):
        args = self.args
        parameters = {k: v for k, v in sorted(vars(args).items())
                      if k not in ("func",) and not callable(v)}
        return {
            "tool": "rdlab",
            "version": __version__,
            "group": self.spec.descriptor() if self.spec else None,
            "generators": ([self.spec.element_key(g) for g in self.spec.generators()]
                           if self.spec else None),
            "subcommand": args.command,
            "parameters": parameters,
            "seed": getattr(args, "seed", None),
            "cache_files": [{"path": p, "sha256": sha256_file(p)}
                            for p in self.cache_files],
            "out": out,
            "artifact_sha256": hashlib.sha256(
                artifact_text.encode("utf-8")).hexdigest(),
            "wall_time_s": time.perf_counter() - self.started,
        }


def _estimator_settings(args):
    """The norm_bracket settings the estimator flags give; a flag left unset
    keeps norm_bracket's default."""
    settings = {"depth": args.depth, "exponent": args.exponent,
                "R": args.domain_radius, "iters": args.iters, "seed": args.seed,
                "budget": args.budget}
    return {name: value for name, value in settings.items() if value is not None}


# -- subcommands -------------------------------------------------------------


def cmd_growth(run, args):
    spec = run.spec = parse_descriptor(args.group)
    index = ball_index(spec, args.radius, args.budget)
    rows = [(n, index.sphere_sizes[n], index.ball_sizes[n])
            for n in range(args.radius + 1)]
    if args.format == "json":
        text = json_text({"group": spec.descriptor(),
                          "sphere_sizes": [r[1] for r in rows],
                          "ball_sizes": [r[2] for r in rows]})
    else:
        text = csv_text(["n", "sphere_size", "ball_size"], rows)
    run.emit(text)
    return EXIT_OK


def _check_d_hat(args):
    if args.d_hat is not None and args.witness != "aN":
        raise RdlabError("--d-hat needs --witness aN")


def cmd_norm(run, args):
    _check_d_hat(args)
    if args.element and (args.witness or args.n is not None):
        raise RdlabError("norm takes --element or --witness with --n, not both")
    spec = run.spec = parse_descriptor(args.group)
    settings = _estimator_settings(args)
    if args.element:
        data = json.loads(Path(args.element).read_text(encoding="utf-8"))
        element = AlgebraElement.from_json_dict(spec, data)
    elif args.witness and args.n is not None:
        element = make_witness(spec, args.witness, args.n, args.d_hat)
    else:
        raise RdlabError("norm needs either --element or --witness with --n")
    est = norm_bracket(element, method=args.method, **settings)
    summary = f"norm in [{est.lower:.12g}, {est.upper:.12g}] ({est.method})"
    if est.stop_reason in ("budget", "float_range"):
        summary += (f"; stopped after {est.iterations} of {est.target_steps} "
                    f"steps ({est.stop_reason})")
    run.emit(json_text(est.to_json_dict()), summary=summary)
    return EXIT_OK


def _make_series(run, args):
    _check_d_hat(args)
    spec = run.spec = parse_descriptor(args.group)
    n_list = parse_range(args.range)
    return ratio_series(spec, args.witness, n_list, method=args.method,
                        d_hat=args.d_hat, **_estimator_settings(args))


def cmd_ratio(run, args):
    series = _make_series(run, args)
    if args.format == "json":
        text = json_text(series.to_json_dict())
    else:
        text = csv_text(RatioSeries.CSV_HEADER, series.to_csv_rows())
    run.emit(text)
    return EXIT_OK


def cmd_fit(run, args):
    window = None
    if args.window:
        try:
            window = tuple(int(x) for x in args.window.split(":"))
        except ValueError:
            window = ()
        if len(window) != 2 or window[0] > window[1]:
            raise RdlabError(
                f"--window takes lo:hi with lo <= hi, not {args.window!r}")
    series = _make_series(run, args)
    if not series.entries:
        raise RdlabError("no witness in the range has a nonzero l2 norm")
    # by default every n of the series, from its first
    window = window or (series.entries[0].n, None)
    fit = fit_exponent(series, window=window, which=args.which)
    row = [series.group, series.witness, fit.window[0], fit.window[1],
           fit.slope, fit.intercept, fit.r_squared]
    if args.format == "json":
        text = json_text({"group": series.group, "witness": series.witness,
                          "window_lo": fit.window[0], "window_hi": fit.window[1],
                          "slope": fit.slope, "intercept": fit.intercept,
                          "r2": fit.r_squared, "residual_sum": fit.residual_sum,
                          "points": fit.points})
    else:
        text = csv_text(["group", "witness", "window_lo", "window_hi",
                         "slope", "intercept", "r2"], [row])
    run.emit(text, summary=f"slope {fit.slope:.6g} (R^2 {fit.r_squared:.6g})")
    return EXIT_OK


# zseries embeds the series' dense element when B_{rK} has at most this many
# elements, and at most --budget
DENSE_ZSERIES_LIMIT = 10_000


def cmd_zseries(run, args):
    spec = run.spec = parse_descriptor(args.group)
    series = build_ball_series(spec, args.r, args.alpha, args.k)
    bounds = ball_series_l2_bounds(series)
    payload = series.to_json_dict()
    payload["element"] = None
    if series.ball_size_at_rk[-1] <= min(args.budget, DENSE_ZSERIES_LIMIT):
        payload["element"] = radial_to_algebra(series.function,
                                               args.budget).to_json_dict()
    payload["l2_bounds"] = bounds.to_json_dict()
    if bounds.upper is None:
        where = (f"l2^2 >= {bounds.lower:.6f} (no certified upper end: "
                 "l2 doubling fails)")
    else:
        where = f"l2^2 in [{bounds.lower:.6f}, {bounds.upper:.6f}]"
    run.emit(json_text(payload),
             summary=f"{where}, actual {bounds.actual:.6f}, "
                     f"doubling_ok={bounds.doubling_ok}")
    return EXIT_OK


def cmd_report(run, args):
    spec = run.spec = parse_descriptor(args.group)
    n_list = parse_range(args.range)
    fitted = sum(n >= REPORT_FIT_FROM for n in n_list)
    if fitted < FIT_POINTS:
        raise RdlabError(
            f"report: --range {args.range} gives {fitted} n >= "
            f"{REPORT_FIT_FROM}; the report fits its series on n >= "
            f"{REPORT_FIT_FROM} and needs at least {FIT_POINTS} of them")
    try:
        s_values = ([float(s) for s in args.s_list.split(",")]
                    if args.s_list else [])
    except ValueError:
        s_values = [math.nan]
    if not all(map(math.isfinite, s_values)):
        raise RdlabError("--s-list takes comma-separated finite numbers, not "
                         f"{args.s_list!r}")
    report = build_report(spec, n_list, s_values=s_values, method=args.method,
                          **_estimator_settings(args))
    if args.out:
        report.manifest_ref = args.out + ".manifest.json"
    if args.format == "csv":
        rows = list(report.ball_series.to_csv_rows())
        rows.extend(report.sphere_series.to_csv_rows())
        text = csv_text(RatioSeries.CSV_HEADER, rows)
    else:
        text = json_text(report.to_json_dict())
    run.emit(text, summary=f"growth slope {report.growth_fit.slope:.4f}, "
                           f"ball slope {report.ball_fit.slope:.4f}")
    return EXIT_OK


def _verdict_exit(ok):
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _verify_lemma1(run, args):
    # either the sweep to --radius (default 6) or the one pair --n, --k
    # (default k 6)
    if args.n is None and args.k is not None:
        raise RdlabError("verify lemma1: --k needs --n")
    if args.n is not None and args.radius is not None:
        raise RdlabError("verify lemma1: --radius cannot be combined with --n")
    spec = run.spec = parse_descriptor(args.group)
    if args.n is not None:
        worst = (args.n, 6 if args.k is None else args.k)
        ok, slack = verify_ball_product_bound(spec, *worst, budget=args.budget)
    else:
        ok, slack, worst = ball_product_sweep(
            spec, 6 if args.radius is None else args.radius, budget=args.budget)
    if args.min_slack is not None:
        ok = slack >= args.min_slack
    run.emit(json_text({"group": spec.descriptor(), "check": "lemma1",
                        "ok": ok, "min_slack": slack,
                        "worst_pair": list(worst)}),
             summary=(f"min slack {fmt(slack)}" if ok else
                      f"FAIL {spec.descriptor()} n={worst[0]} k={worst[1]} "
                      f"slack={fmt(slack)}"))
    return _verdict_exit(ok)


def _verify_lemma2(run, args):
    spec = run.spec = parse_descriptor(args.group)
    report = verify_series_product_bound(spec, args.r, args.alpha, args.beta,
                                         args.k, budget=args.budget)
    ok = report.ok
    if args.min_slack is not None:
        ok = report.min_slack >= args.min_slack
    run.emit(json_text({"group": spec.descriptor(), "check": "lemma2",
                        "ok": ok, "min_slack": report.min_slack,
                        "tail_comparison": [[j, t, b] for j, t, b
                                            in report.tail_comparison]}),
             summary=f"min slack {fmt(report.min_slack)}")
    return _verdict_exit(ok)


def _verify_doubling(run, args):
    # ball sizes come from the growth series: the check reads no index
    spec = run.spec = parse_descriptor(args.group)
    min_ratio, ok = verify_doubling(spec, args.r, args.k)
    run.emit(json_text({"group": spec.descriptor(), "check": "doubling",
                        "r": args.r, "k_max": args.k,
                        "min_ratio": min_ratio, "ok": ok}),
             summary=f"min l2 ratio {min_ratio:.6g} ({'>= 2' if ok else '< 2'})")
    return _verdict_exit(ok)


def _verify_heredity(run, args):
    n_list = parse_range(args.range)
    embedding = standard_embedding(args.embedding)
    run.spec = embedding.ambient
    report = verify_heredity(embedding, n_list, args.method,
                             **_estimator_settings(args))
    run.emit(json_text({"embedding": args.embedding, "ok": report.ok,
                        "rows": [dict(asdict(r), dominated=r.dominated)
                                 for r in report.rows]}),
             summary=f"heredity {'holds' if report.ok else 'FAILS'} "
                     f"on {len(report.rows)} points")
    return _verdict_exit(report.ok)


def _verify_divergence(run, args):
    series = _make_series(run, args)
    require_nonzero(series, (min(parse_range(args.range)), None), 1,
                    "a C_s trend")
    points, verdict = rd_constant_series(series, args.s)
    ok = verdict == args.expect
    run.emit(json_text({"group": series.group, "s": args.s,
                        "verdict": verdict, "expected": args.expect,
                        "points": [[n, c] for n, c in points]}),
             summary=f"C_s series verdict: {verdict} (expected {args.expect})")
    return _verdict_exit(ok)


def _cache_build(run, args):
    spec = run.spec = parse_descriptor(args.group)
    if not args.cache_dir:
        raise RdlabError("cache build needs --cache-dir")
    Path(args.cache_dir).mkdir(parents=True, exist_ok=True)
    index = enumerate_balls(spec, args.radius, budget=args.budget)
    path = cache_path(args.cache_dir, spec, args.radius)
    digest = write_ball_cache(index, path)
    run.cache_files.append(str(path))
    run.emit(json_text({"path": str(path), "sha256": digest,
                        "elements": index.size(), "radius": args.radius}),
             summary=f"wrote {path} ({index.size()} elements)")
    return EXIT_OK


def _cache_check(run, args):
    spec = run.spec = parse_descriptor(args.group)
    if not args.cache_dir:
        raise RdlabError("cache check needs --cache-dir")
    path = cache_path(args.cache_dir, spec, args.radius)
    ok, detail = check_ball_cache(path, spec, args.radius, budget=args.budget)
    run.emit(json_text({"path": str(path), "ok": ok, "detail": detail}),
             summary=detail)
    return _verdict_exit(ok)


# -- parser --------------------------------------------------------------------


def _flags(*parents):
    """A parent parser: argparse shares its actions with every subcommand
    that lists it, so a flag several subcommands read is defined once."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser():
    parser = _Parser(
        prog="rdlab",
        description="growth, convolution, and operator-norm measurements for "
                    "the rapid decay property")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    out = _flags()        # every subcommand
    out.add_argument("--out", help="artifact path; a manifest is written "
                                   "next to it")
    common = _flags(out)  # every subcommand that may read a ball index
    common.add_argument("--cache-dir", dest="cache_dir",
                        help="ball cache directory")
    common.add_argument("--budget", type=parse_budget, default=DEFAULT_BUDGET,
                        help="budget on the elements enumerated, the "
                             "support of a convolution and the entries of "
                             "each lemma1 table of counts")
    named = _flags()
    named.add_argument("--group", required=True,
                       help='group descriptor, e.g. Z, Z^2, H3, F2, C12, Z^1xF2')
    group = _flags(common, named)
    csv = _flags()        # report writes JSON by default
    csv.add_argument("--format", choices=["csv", "json"], default="csv")
    witness = _flags()    # norm has no default witness
    witness.add_argument("--witness", choices=["ball", "sphere", "aN"],
                         default="ball")
    witness.add_argument("--d-hat", dest="d_hat", type=parse_finite, default=None)
    estimator = _flags()  # the norm_bracket settings (_estimator_settings)
    estimator.add_argument("--method", default="auto",
                           choices=["trace", "power", "exact", "auto", "l1"])
    ladder = estimator.add_mutually_exclusive_group()
    ladder.add_argument("--depth", type=int, default=None,
                        help="trace-power squaring count")
    ladder.add_argument("--exponent", type=int, default=None,
                        help="trace-power target exponent 2k (even)")
    estimator.add_argument("--iters", type=int, default=None,
                           help="power-iteration count")
    estimator.add_argument("--R", dest="domain_radius", type=int, default=None,
                           help="power-iteration domain radius")
    estimator.add_argument("--seed", type=int, default=0,
                           help="power-iteration start vector seed")

    p = sub.add_parser("growth", parents=[group, csv],
                       help="sphere and ball sizes by BFS")
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("norm", parents=[group, estimator],
                       help="operator norm bracket of a witness or element")
    p.add_argument("--witness", choices=["ball", "sphere", "aN"])
    p.add_argument("--d-hat", dest="d_hat", type=parse_finite, default=None)
    p.add_argument("--n", type=int)
    p.add_argument("--element", help="path to an element JSON file")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("ratio", parents=[group, csv, witness, estimator],
                       help="witness norm/l2 ratio series")
    p.add_argument("--range", required=True, help="n range lo:hi[:step]")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("fit", parents=[group, csv, witness, estimator],
                       help="log-log exponent fit of a ratio series")
    p.add_argument("--range", required=True)
    p.add_argument("--window", help="fit window lo:hi (default: the range)")
    p.add_argument("--which", choices=["lower", "upper"], default="lower")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("zseries", parents=[group], help="power-weighted "
                       "normalized-ball series and its l2 bounds")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=parse_finite, required=True)
    p.add_argument("--k", type=int, required=True, help="truncation K")
    p.set_defaults(func=cmd_zseries)

    p = sub.add_parser("report", parents=[group, estimator],
                       help="growth + witness fits + constant series")
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--range", required=True)
    p.add_argument("--s-list", dest="s_list", help="comma-separated s values")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="check one of the exact inequalities")
    checks = p.add_subparsers(dest="check", required=True)

    c = checks.add_parser("lemma1", parents=[group], help="ball product bound")
    c.add_argument("--radius", type=int,
                   help="sweep bound for n+k (default 6); not with --n")
    c.add_argument("--n", type=int, help="check the one pair (n, k)")
    c.add_argument("--k", type=int, help="k of the pair (default 6); needs --n")
    c.add_argument("--min-slack", dest="min_slack", type=parse_finite, default=None,
                   help="fail unless the measured min slack reaches this")
    c.set_defaults(func=_verify_lemma1)

    c = checks.add_parser("lemma2", parents=[group],
                          help="ball-series product bound")
    c.add_argument("--r", type=int, default=1)
    c.add_argument("--alpha", type=parse_finite, default=1.0)
    c.add_argument("--beta", type=parse_finite, default=1.0)
    c.add_argument("--k", type=int, default=6, help="truncation K")
    c.add_argument("--min-slack", dest="min_slack", type=parse_finite, default=None,
                   help="fail unless the measured min slack reaches this")
    c.set_defaults(func=_verify_lemma2)

    c = checks.add_parser("doubling", parents=[out, named],
                          help="l2 doubling of the balls B_{rk}")
    c.add_argument("--r", type=int, default=1)
    c.add_argument("--k", type=int, default=6, help="largest k")
    c.set_defaults(func=_verify_doubling)

    c = checks.add_parser("heredity", parents=[common, estimator],
                          help="subgroup domination")
    c.add_argument("--embedding", required=True,
                   choices=sorted(standard_embeddings()))
    c.add_argument("--range", default="4:64:4")
    c.set_defaults(func=_verify_heredity)

    c = checks.add_parser("divergence", parents=[group, witness, estimator],
                          help="C_s divergence trend")
    c.add_argument("--s", type=parse_finite, default=0.4)
    c.add_argument("--range", default="4:64:4")
    c.add_argument("--expect", choices=["divergent", "bounded trend"],
                   default="divergent")
    c.set_defaults(func=_verify_divergence)

    p = sub.add_parser("cache", help="build or check ball cache files")
    actions = p.add_subparsers(dest="action", required=True)

    c = actions.add_parser("build", parents=[group],
                           help="enumerate a ball and write its cache file")
    c.add_argument("--radius", type=int, required=True)
    c.set_defaults(func=_cache_build)

    c = actions.add_parser("check", parents=[group],
                           help="re-enumerate and compare a cache file")
    c.add_argument("--radius", type=int, required=True)
    c.set_defaults(func=_cache_check)

    return parser


# parse_args keeps no state between calls: each call fills a fresh Namespace
# from immutable defaults, so one parser serves every command of a process
PARSER = build_parser()


def run_command(argv):
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    run = _Run(args)
    try:
        # the balls this command loads are held until it ends, no longer
        with holding_balls(run.get_index):
            return args.func(run, args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (RdlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
