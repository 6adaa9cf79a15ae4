"""Command-line front end.

One subcommand per analysis operation, deterministic CSV/JSON artifacts, and
a run manifest next to every --out file.  Exit codes: 0 success, 1 a checked
inequality failed, 2 usage error, 3 budget or resource error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .algebra import AlgebraElement
from .cache import (
    cache_filename,
    check_ball_cache,
    find_cache,
    read_ball_cache,
    sha256_file,
    write_ball_cache,
)
from .errors import BudgetExceededError, RdlabError
from .groups import DEFAULT_BUDGET, enumerate_balls, parse_descriptor
from .rd import (
    ball_product_sweep,
    ball_series_l2_bounds,
    build_ball_series,
    build_report,
    fit_exponent,
    index_radius,
    make_witness,
    norm_bracket,
    ratio_series,
    rd_constant_series,
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
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def parse_range(text):
    parts = text.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    lo, hi = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if step < 1 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    return list(range(lo, hi + 1, step))


class _Run:
    """Collects artifact text plus manifest metadata for one invocation."""

    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.cache_files = []
        self.spec = None

    def cache_dir(self):
        explicit = getattr(self.args, "cache_dir", None)
        return explicit or os.environ.get("RDLAB_CACHE_DIR")

    def get_index(self, spec, radius):
        budget = getattr(self.args, "budget", DEFAULT_BUDGET)
        directory = self.cache_dir()
        if directory:
            path = find_cache(directory, spec, radius)
            if path is not None:
                self.cache_files.append(str(path))
                return read_ball_cache(path, spec)
        return enumerate_balls(spec, radius, budget=budget)

    def planned_index(self, spec, method, radius, needs="witness"):
        """The index ``rd.index_radius`` asks for, or None if it asks for none."""
        radius = index_radius(spec, method, radius, needs,
                              getattr(self.args, "domain_radius", None))
        return None if radius is None else self.get_index(spec, radius)

    def emit(self, text, summary=None):
        args = self.args
        out = getattr(args, "out", None)
        if out:
            Path(out).write_text(text, encoding="utf-8")
            manifest = self.manifest(out, text)
            Path(out + ".manifest.json").write_text(json_text(manifest),
                                                    encoding="utf-8")
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


def _estimator_kwargs(args):
    out = {}
    for name in ("depth", "exponent", "iters", "seed", "budget"):
        value = getattr(args, name, None)
        if value is not None:
            out[name] = value
    if getattr(args, "extrapolate", False):
        out["extrapolate"] = True
    if getattr(args, "domain_radius", None) is not None:
        out["R"] = args.domain_radius
    return out


# -- subcommands -------------------------------------------------------------


def cmd_growth(run):
    args = run.args
    spec = run.spec = parse_descriptor(args.group)
    index = run.get_index(spec, args.radius)
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


def cmd_norm(run):
    args = run.args
    spec = run.spec = parse_descriptor(args.group)
    if args.element:
        data = json.loads(Path(args.element).read_text(encoding="utf-8"))
        element = AlgebraElement.from_json_dict(spec, data)
        index = run.planned_index(spec, args.method, element.support_radius,
                                  needs="element")
    elif args.witness and args.n is not None:
        index = run.planned_index(spec, args.method, args.n)
        element = make_witness(spec, args.witness, args.n, args.method, index,
                               args.d_hat)
    else:
        raise RdlabError("norm needs either --element or --witness with --n")
    est = norm_bracket(element, method=args.method, index=index,
                       **_estimator_kwargs(args))
    run.emit(json_text(est.to_json_dict()),
             summary=f"norm in [{est.lower:.12g}, {est.upper:.12g}] "
                     f"({est.method})")
    return EXIT_OK


def _make_series(run, args):
    spec = run.spec = parse_descriptor(args.group)
    n_list = parse_range(args.range)
    index = run.planned_index(spec, args.method, max(n_list))
    return ratio_series(spec, args.witness, n_list, method=args.method,
                        index=index, d_hat=args.d_hat,
                        **_estimator_kwargs(args))


def cmd_ratio(run):
    series = _make_series(run, run.args)
    if run.args.format == "json":
        text = json_text(series.to_json_dict())
    else:
        text = csv_text(["group", "witness", "n", "norm_lower", "norm_upper",
                         "l2", "ratio_lower", "ratio_upper"],
                        series.to_csv_rows())
    run.emit(text)
    return EXIT_OK


def cmd_fit(run):
    args = run.args
    series = _make_series(run, args)
    window = tuple(int(x) for x in args.window.split(":")) if args.window \
        else (min(e.n for e in series.entries), max(e.n for e in series.entries))
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


def cmd_zseries(run):
    args = run.args
    spec = run.spec = parse_descriptor(args.group)
    index = run.planned_index(spec, None, args.r * args.k, needs="series")
    series = build_ball_series(spec, args.r, args.alpha, args.k, index=index)
    bounds = ball_series_l2_bounds(series)
    payload = series.to_json_dict()
    payload["l2_bounds"] = bounds.to_json_dict()
    run.emit(json_text(payload),
             summary=f"l2^2 in [{bounds.lower:.6f}, {bounds.upper:.6f}], "
                     f"actual {bounds.actual:.6f}, doubling_ok={bounds.doubling_ok}")
    return EXIT_OK


def cmd_report(run):
    args = run.args
    spec = run.spec = parse_descriptor(args.group)
    n_list = parse_range(args.range)
    index = run.planned_index(spec, args.method, max(n_list))
    s_values = [float(s) for s in args.s_list.split(",")] if args.s_list else []
    report = build_report(spec, n_list, s_values=s_values, method=args.method,
                          index=index, **_estimator_kwargs(args))
    if args.out:
        report.manifest_ref = args.out + ".manifest.json"
    if args.format == "csv":
        rows = list(report.ball_series.to_csv_rows())
        rows.extend(report.sphere_series.to_csv_rows())
        text = csv_text(["group", "witness", "n", "norm_lower", "norm_upper",
                         "l2", "ratio_lower", "ratio_upper"], rows)
    else:
        text = json_text(report.to_json_dict())
    run.emit(text, summary=f"growth slope {report.growth_fit.slope:.4f}, "
                           f"ball slope {report.ball_fit.slope:.4f}")
    return EXIT_OK


def cmd_verify(run):
    args = run.args
    if args.check == "heredity":
        if not args.embedding:
            raise RdlabError("verify heredity needs --embedding")
    elif not args.group:
        raise RdlabError(f"verify {args.check} needs --group")
    handler = {
        "lemma1": _verify_lemma1,
        "lemma2": _verify_lemma2,
        "doubling": _verify_doubling,
        "heredity": _verify_heredity,
        "divergence": _verify_divergence,
    }[args.check]
    return handler(run, args)


def _verdict_exit(ok):
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _verify_lemma1(run, args):
    spec = run.spec = parse_descriptor(args.group)
    # ball products convolve, as the trace estimator does
    index = run.planned_index(spec, "trace", args.radius if args.n is None
                              else args.n + args.k)
    if args.n is not None and args.k is not None:
        ok, slack = verify_ball_product_bound(spec, args.n, args.k, index,
                                              budget=args.budget)
        worst = (args.n, args.k)
    else:
        ok, slack, worst = ball_product_sweep(spec, args.radius, index,
                                              budget=args.budget)
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
    index = run.planned_index(spec, "trace", args.r * args.k)
    report = verify_series_product_bound(spec, args.r, args.alpha, args.beta,
                                         args.k, index, budget=args.budget)
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
    spec = run.spec = parse_descriptor(args.group)
    index = run.planned_index(spec, None, args.r * (args.k + 1))
    min_ratio, ok = verify_doubling(spec, args.r, args.k, index)
    run.emit(json_text({"group": spec.descriptor(), "check": "doubling",
                        "r": args.r, "k_max": args.k,
                        "min_ratio": min_ratio, "ok": ok}),
             summary=f"min l2 ratio {min_ratio:.6g} ({'>= 2' if ok else '< 2'})")
    return _verdict_exit(ok)


def _verify_heredity(run, args):
    n_list = parse_range(args.range)
    embedding = standard_embedding(args.embedding)
    run.spec = embedding.ambient
    sub_index = run.get_index(embedding.sub, max(n_list) + 1)
    ambient_index = run.planned_index(embedding.ambient, "auto", max(n_list))
    report = verify_heredity(embedding, n_list, sub_index, ambient_index)
    run.emit(json_text({"embedding": args.embedding, "ok": report.ok,
                        "rows": [{"n": r.n, "subgroup_count": r.subgroup_count,
                                  "sub_ratio_lower": r.sub_ratio_lower,
                                  "sub_ratio_upper": r.sub_ratio_upper,
                                  "ambient_ratio_lower": r.ambient_ratio_lower,
                                  "ambient_ratio_upper": r.ambient_ratio_upper,
                                  "dominated": r.dominated}
                                 for r in report.rows]}),
             summary=f"heredity {'holds' if report.ok else 'FAILS'} "
                     f"on {len(report.rows)} points")
    return _verdict_exit(report.ok)


def _verify_divergence(run, args):
    series = _make_series(run, args)
    points, verdict = rd_constant_series(series, args.s)
    ok = verdict == args.expect
    run.emit(json_text({"group": series.group, "s": args.s,
                        "verdict": verdict, "expected": args.expect,
                        "points": [[n, c] for n, c in points]}),
             summary=f"C_s series verdict: {verdict} (expected {args.expect})")
    return _verdict_exit(ok)


def cmd_cache(run):
    args = run.args
    directory = run.cache_dir()
    if args.action == "build":
        if not args.group or args.radius is None:
            raise RdlabError("cache build needs --group and --radius")
        spec = run.spec = parse_descriptor(args.group)
        if not directory:
            raise RdlabError("cache build needs --cache-dir or RDLAB_CACHE_DIR")
        Path(directory).mkdir(parents=True, exist_ok=True)
        index = enumerate_balls(spec, args.radius, budget=args.budget)
        path = Path(directory) / cache_filename(spec.descriptor(), args.radius)
        digest = write_ball_cache(index, path)
        run.cache_files.append(str(path))
        run.emit(json_text({"path": str(path), "sha256": digest,
                            "elements": index.size(), "radius": args.radius}),
                 summary=f"wrote {path} ({index.size()} elements)")
        return EXIT_OK
    # check
    if args.file:
        path = Path(args.file)
        spec = None
    else:
        if not args.group or args.radius is None:
            raise RdlabError("cache check needs --file, or --group with --radius")
        spec = run.spec = parse_descriptor(args.group)
        if not directory:
            raise RdlabError("cache check needs --file, --cache-dir, "
                             "or RDLAB_CACHE_DIR")
        path = Path(directory) / cache_filename(spec.descriptor(), args.radius)
    ok, detail = check_ball_cache(path, spec, budget=args.budget)
    run.emit(json_text({"path": str(path), "ok": ok, "detail": detail}),
             summary=detail)
    return _verdict_exit(ok)


# -- parser --------------------------------------------------------------------


def _add_common(parser, group=True):
    if group:
        parser.add_argument("--group", required=True,
                            help='group descriptor, e.g. Z, Z^2, H3, F2, C12, Z^1xF2')
    parser.add_argument("--out", help="artifact path; a manifest is written "
                                      "next to it")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--cache-dir", dest="cache_dir",
                        help="ball cache directory (default $RDLAB_CACHE_DIR)")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="element-count budget for enumeration/convolution")
    parser.add_argument("--seed", type=int, default=0)


def _add_estimator(parser):
    parser.add_argument("--method", choices=["trace", "power", "exact", "auto", "l1"],
                        default="auto")
    parser.add_argument("--depth", type=int, default=None,
                        help="trace-power squaring count")
    parser.add_argument("--exponent", type=int, default=None,
                        help="trace-power target exponent 2k (even)")
    parser.add_argument("--iters", type=int, default=None,
                        help="power-iteration count")
    parser.add_argument("--extrapolate", action="store_true",
                        help="report the trace-power step-limit diagnostic")
    parser.add_argument("--R", dest="domain_radius", type=int, default=None,
                        help="power-iteration domain radius")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rdlab",
        description="growth, convolution, and operator-norm measurements for "
                    "the rapid decay property")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="sphere and ball sizes by BFS")
    _add_common(p)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("norm", help="operator norm bracket of a witness or element")
    _add_common(p)
    p.add_argument("--witness", choices=["ball", "sphere", "aN"])
    p.add_argument("--n", type=int)
    p.add_argument("--d-hat", dest="d_hat", type=float, default=None)
    p.add_argument("--element", help="path to an element JSON file")
    _add_estimator(p)
    p.set_defaults(func=cmd_norm, format="json")

    p = sub.add_parser("ratio", help="witness norm/l2 ratio series")
    _add_common(p)
    p.add_argument("--witness", choices=["ball", "sphere", "aN"], default="ball")
    p.add_argument("--range", required=True, help="n range lo:hi[:step]")
    p.add_argument("--d-hat", dest="d_hat", type=float, default=None)
    _add_estimator(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("fit", help="log-log exponent fit of a ratio series")
    _add_common(p)
    p.add_argument("--witness", choices=["ball", "sphere", "aN"], default="ball")
    p.add_argument("--range", required=True)
    p.add_argument("--window", help="fit window lo:hi (default: the range)")
    p.add_argument("--which", choices=["lower", "upper"], default="lower")
    p.add_argument("--d-hat", dest="d_hat", type=float, default=None)
    _add_estimator(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("zseries", help="power-weighted normalized-ball series "
                                       "and its l2 bounds")
    _add_common(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=int, required=True, help="truncation K")
    p.set_defaults(func=cmd_zseries, format="json")

    p = sub.add_parser("report", help="growth + witness fits + constant series")
    _add_common(p)
    p.add_argument("--range", required=True)
    p.add_argument("--s-list", dest="s_list", help="comma-separated s values")
    _add_estimator(p)
    p.set_defaults(func=cmd_report, format="json")

    p = sub.add_parser("verify", help="check one of the exact inequalities")
    p.add_argument("check", choices=["lemma1", "lemma2", "doubling",
                                     "heredity", "divergence"])
    _add_common(p, group=False)
    p.add_argument("--group", help="group descriptor")
    p.add_argument("--embedding", choices=sorted(standard_embeddings()),
                   help="named embedding for heredity")
    p.add_argument("--radius", type=int, default=6,
                   help="lemma1 sweep bound for n+k")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--s", type=float, default=0.4)
    p.add_argument("--range", default="4:64:4")
    p.add_argument("--witness", choices=["ball", "sphere", "aN"], default="ball")
    p.add_argument("--d-hat", dest="d_hat", type=float, default=None)
    p.add_argument("--expect", choices=["divergent", "bounded trend"],
                   default="divergent")
    p.add_argument("--min-slack", dest="min_slack", type=float, default=None,
                   help="fail unless the measured min slack reaches this")
    _add_estimator(p)
    p.set_defaults(func=cmd_verify, format="json")

    p = sub.add_parser("cache", help="build or check ball cache files")
    p.add_argument("action", choices=["build", "check"])
    _add_common(p, group=False)
    p.add_argument("--group", help="group descriptor")
    p.add_argument("--radius", type=int)
    p.add_argument("--file", help="explicit cache file path (check)")
    p.set_defaults(func=cmd_cache, format="json")

    return parser


def run_command(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    run = _Run(args)
    try:
        return args.func(run)
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
