import argparse
import hashlib
import json
import math
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rdlab as R
import rdlab.cli
import rdlab.groups
import rdlab.rd
from rdlab.cache import (
    CacheFormatError,
    cache_roundtrip,
    read_ball_cache,
    serialize_index,
    write_ball_cache,
)
from rdlab.cli import build_parser, run_command


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which are no JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def run(args, tmp_path=None, out=None):
    argv = list(args)
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    return run_command(argv)


class TestGrowth:
    def test_h3_csv(self, tmp_path):
        code = run(["growth", "--group", "H3", "--radius", "8",
                    "--format", "csv"], tmp_path, "h3.csv")
        assert code == 0
        lines = (tmp_path / "h3.csv").read_text().splitlines()
        assert lines[0] == "n,sphere_size,ball_size"
        assert lines[1] == "0,1,1"
        assert lines[2] == "1,4,5"
        assert lines[3] == "2,12,17"
        manifest = json.loads((tmp_path / "h3.csv.manifest.json").read_text())
        assert manifest["group"] == "H3"
        assert manifest["subcommand"] == "growth"
        assert len(manifest["generators"]) == 4

    def test_stdout_when_no_out(self, capsys):
        assert run_command(["growth", "--group", "Z", "--radius", "2"]) == 0
        out = capsys.readouterr().out
        assert "n,sphere_size,ball_size" in out

    def test_z2_json(self, tmp_path):
        assert run(["growth", "--group", "Z^2", "--radius", "5",
                    "--format", "json"], tmp_path, "g.json") == 0
        # |S_n| = 4n for n >= 1 on Z^2, so |B_n| = 2n^2 + 2n + 1
        assert json.loads((tmp_path / "g.json").read_text()) == {
            "group": "Z^2", "sphere_sizes": [1, 4, 8, 12, 16, 20],
            "ball_sizes": [2 * n * n + 2 * n + 1 for n in range(6)]}


class TestVerifyCommands:
    def test_lemma1_f2(self, tmp_path, capsys):
        code = run_command(["verify", "lemma1", "--group", "F2", "--radius", "6"])
        assert code == 0
        assert "min slack 0" in capsys.readouterr().err

    def test_lemma1_forced_failure(self, capsys):
        code = run_command(["verify", "lemma1", "--group", "Z", "--radius", "4",
                            "--min-slack", "0.5"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,radius,pair", [
        ([], 6, [1, 1]),
        (["--n", "2"], 8, [2, 6]),
        (["--n", "2", "--k", "1"], 3, [2, 1]),
    ])
    def test_lemma1_defaults(self, flags, radius, pair, tmp_path, monkeypatch):
        # Z counts its pairs in the one ball of the sweep bound or of n + k
        radii = []
        get_index = rdlab.cli._Run.get_index

        def recording_get_index(run, spec, radius, budget):
            radii.append(radius)
            return get_index(run, spec, radius, budget)
        monkeypatch.setattr(rdlab.cli._Run, "get_index", recording_get_index)
        assert run(["verify", "lemma1", "--group", "Z"] + flags, tmp_path,
                   "l1.json") == 0
        assert json.loads((tmp_path / "l1.json").read_text())["worst_pair"] == pair
        assert radii == [radius]

    def test_lemma2(self, capsys):
        code = run_command(["verify", "lemma2", "--group", "F2", "--r", "2",
                            "--alpha", "1", "--beta", "1", "--k", "6"])
        assert code == 0

    def test_lemma2_min_slack(self, tmp_path, capsys):
        base = ["verify", "lemma2", "--group", "Z", "--r", "1", "--k", "6"]
        assert run(base, tmp_path, "l2.json") == 0
        slack = json.loads((tmp_path / "l2.json").read_text())["min_slack"]
        assert run_command(base + ["--min-slack", repr(slack)]) == 0
        above = repr(math.nextafter(slack, math.inf))
        assert run(base + ["--min-slack", above], tmp_path, "l2.json") == 1
        data = json.loads((tmp_path / "l2.json").read_text())
        assert data["ok"] is False and data["min_slack"] == slack

    def test_doubling_exit_codes(self, capsys):
        assert run_command(["verify", "doubling", "--group", "F2",
                            "--r", "2", "--k", "6"]) == 0
        assert run_command(["verify", "doubling", "--group", "Z",
                            "--r", "2", "--k", "6"]) == 1

    def test_doubling_past_the_float_range(self, tmp_path, capsys):
        base = ["verify", "doubling", "--group", "F2"]
        assert run_command(base + ["--r", "700", "--k", "1"]) == 3
        assert "|B_1400|/|B_700| of F2 leaves the float range" in \
            capsys.readouterr().err
        assert run(base + ["--r", "400", "--k", "2"], tmp_path, "d.json") == 0
        data = json.loads((tmp_path / "d.json").read_text())
        assert data["ok"] is True and data["min_ratio"] == pytest.approx(2.656e95,
                                                                         rel=1e-3)

    def test_heredity(self, capsys):
        code = run_command(["verify", "heredity", "--embedding", "Z:Z^2",
                            "--range", "4:32:4"])
        assert code == 0

    def test_heredity_honours_the_estimator_flags(self, tmp_path, capsys):
        base = ["verify", "heredity", "--embedding", "Z:Z^2", "--range", "4:8:4"]
        assert run(base + ["--method", "l1"], tmp_path, "l1.json") == 0
        rows = json.loads((tmp_path / "l1.json").read_text())["rows"]
        assert [r["sub_ratio_lower"] for r in rows] == [1.0, 1.0]
        assert run_command(base + ["--method", "power", "--R", "10"]) == 0

    def test_divergence_both_expectations(self, capsys):
        base = ["verify", "divergence", "--group", "Z", "--range", "8:256:8",
                "--method", "exact"]
        assert run_command(base + ["--s", "0.4", "--expect", "divergent"]) == 0
        assert run_command(base + ["--s", "0.5", "--expect", "bounded trend"]) == 0
        assert run_command(base + ["--s", "0.5", "--expect", "divergent"]) == 1


class TestFlags:
    """Each subcommand and each verify check accepts exactly the flags its
    handler, or the estimator it calls, reads."""

    COMMON = {"--group", "--out", "--cache-dir", "--budget"}
    ESTIMATOR = {"--method", "--depth", "--exponent", "--iters", "--R", "--seed"}
    WITNESS = {"--witness", "--d-hat"}
    FLAGS = {
        "growth": COMMON | {"--format", "--radius"},
        "norm": COMMON | WITNESS | ESTIMATOR | {"--n", "--element"},
        "ratio": COMMON | WITNESS | ESTIMATOR | {"--format", "--range"},
        "fit": COMMON | WITNESS | ESTIMATOR | {"--format", "--range", "--window",
                                               "--which"},
        "zseries": COMMON | {"--r", "--alpha", "--k"},
        "report": COMMON | ESTIMATOR | {"--format", "--range", "--s-list"},
        "cache build": COMMON | {"--radius"},
        "cache check": COMMON | {"--radius"},
        "verify lemma1": COMMON | {"--radius", "--n", "--k", "--min-slack"},
        "verify lemma2": COMMON | {"--r", "--alpha", "--beta", "--k",
                                   "--min-slack"},
        # ball sizes alone, closed on every descriptor: no index to read
        "verify doubling": {"--group", "--out", "--r", "--k"},
        "verify heredity": COMMON - {"--group"} | ESTIMATOR | {"--embedding",
                                                               "--range"},
        "verify divergence": COMMON | WITNESS | ESTIMATOR | {"--s", "--range",
                                                             "--expect"},
    }

    @staticmethod
    def parsers():
        """{"growth": parser, ..., "verify lemma1": parser, ...}"""
        def children(parser):
            return next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        out = dict(children(build_parser()))
        for command in ("verify", "cache"):
            for action, parser in children(out.pop(command)).items():
                out[f"{command} {action}"] = parser
        return out

    @staticmethod
    def accepted(parser, key):
        return {key(a) for a in parser._actions
                if not isinstance(a, argparse._HelpAction)}

    def test_flag_table(self):
        flags = {name: self.accepted(p, lambda a: (a.option_strings or [a.dest])[0])
                 for name, p in self.parsers().items()}
        assert flags == self.FLAGS

    def test_readme_names_every_flag(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = re.search(r"## Command line\n(.*?)\n## ", readme, re.S).group(1)
        named = set(re.findall(r"--[A-Za-z][\w-]*", section))
        accepted = {flag for parser in self.parsers().values()
                    for action in parser._actions for flag in action.option_strings}
        assert set().union(*self.FLAGS.values()) - named == set()
        assert named - accepted == set()

    class Recording(argparse.Namespace):
        """Records the attributes read after parsing."""

        def __init__(self):
            super().__init__()
            self._read = set()

        def __getattribute__(self, name):
            if not name.startswith("_"):
                object.__getattribute__(self, "_read").add(name)
            return object.__getattribute__(self, name)

    @pytest.mark.parametrize("name,argvs", [
        ("growth", ["growth --group H3 --radius 2"]),
        ("norm", ["norm --group H3 --witness ball --n 1 --method power --R 2 "
                  "--iters 5"]),
        ("ratio", ["ratio --group H3 --range 1:2 --method trace --depth 1"]),
        # closed sizes read no index: a dense method reads --cache-dir and
        # --budget
        ("fit", ["fit --group H3 --range 2:5 --method exact",
                 "fit --group H3 --range 2:5 --method trace --depth 1"]),
        ("zseries", ["zseries --group H3 --r 1 --alpha 1.0 --k 3"]),
        ("report", ["report --group H3 --range 2:6 --method exact",
                    "report --group H3 --range 2:6 --method trace --depth 1"]),
        ("cache build", ["cache build --group Z --radius 2 --cache-dir {tmp}"]),
        ("verify lemma1", ["verify lemma1 --group H3 --radius 3",
                           "verify lemma1 --group H3 --n 1 --k 1"]),
        ("verify lemma2", ["verify lemma2 --group H3 --k 3"]),
        ("verify doubling", ["verify doubling --group H3 --k 2"]),
        ("verify heredity", ["verify heredity --embedding Z:Z --range 4:4 "
                             "--method trace --depth 1"]),
        ("verify divergence", ["verify divergence --group H3 --range 2:6:2 "
                               "--method exact",
                               "verify divergence --group H3 --range 2:6:2 "
                               "--method trace --depth 1"]),
        ("cache check", ["cache check --group Z --radius 2 --cache-dir {tmp}"]),
    ])
    def test_every_accepted_flag_is_read(self, name, argvs, tmp_path, capsys):
        if name == "cache check":      # a cache for it to check
            assert run_command(["cache", "build", "--group", "Z", "--radius",
                                "2", "--cache-dir", str(tmp_path)]) == 0
        read = set()
        for argv in argvs:
            args = build_parser().parse_args(argv.format(tmp=tmp_path).split(),
                                             namespace=self.Recording())
            args._read.clear()
            run = rdlab.cli._Run(args)
            with R.holding_balls(run.get_index):    # as run_command does
                args.func(run, args)
            read |= args._read
        parser = self.parsers()[name]
        assert read - {"func"} == self.accepted(parser, lambda a: a.dest) - {"check"}

    @pytest.mark.parametrize("argv", [
        "verify lemma1 --group Z --seed 3",
        "verify heredity --embedding Z:Z^2 --group Z",
        "norm --group Z --witness ball --n 2 --format csv",
        "zseries --group Z --r 1 --alpha 1.0 --k 3 --format csv",
        "growth --group Z --radius 2 --seed 1",
        "verify doubling --group H3 --k 2 --budget 10",
        "verify doubling --group H3 --k 2 --cache-dir {tmp}",
        "cache build --group Z --radius 2 --cache-dir {tmp} --seed 1",
        "cache build --group Z --radius 3 --cache-dir {tmp} --file x",
        "cache check --file {tmp}/x --group Z --radius 3",
        "verify lemma1 --group Z --k 3",
        "verify lemma1 --group Z --n 2 --k 1 --radius 9",
        "verify lemma1 --group Z --n 2 --radius 9",
        "norm --group Z^2 --element {tmp}/e.json --witness ball --n 5",
        "norm --group Z^2 --element {tmp}/e.json --n 5",
        "norm --group Z^2 --element {tmp}/e.json --witness ball",
        "norm --group Z^2 --element {tmp}/e.json --d-hat 1",
        "norm --group Z --witness ball --n 2 --d-hat 1",
        "ratio --group Z^2 --witness sphere --d-hat 3 --range 1:3",
        "ratio --group Z^2 --d-hat 3 --range 1:3",
        "fit --group Z --d-hat 1 --range 4:8 --method exact",
        "verify divergence --group Z --d-hat 1 --range 8:32:8 --method exact",
        # --depth and --exponent each set the whole trace ladder
        "norm --group F2 --witness ball --n 2 --method trace --depth 3 "
        "--exponent 8",
        "ratio --group F2 --range 2:3 --method trace --depth 3 --exponent 8",
        "report --group F2 --range 2:6 --method trace --depth 3 --exponent 8",
        "verify heredity --embedding Z:F2 --range 4:4 --method trace --depth 3 "
        "--exponent 8",
    ])
    def test_unread_flags_are_usage_errors(self, argv, tmp_path, capsys):
        # a valid element, so that only the flags can make --element fail
        (tmp_path / "e.json").write_text(json.dumps(R.point_mass(
            R.FreeAbelian(2), (0, 0)).to_json_dict()))
        assert run_command(argv.format(tmp=tmp_path).split()) == 2

    def test_readme_examples_parse(self, tmp_path, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S)
        lines = [line for line in block.group(1).splitlines()
                 if line.startswith("rdlab ")]
        assert len(lines) >= 13
        # in order, in one directory: cache check reads what cache build wrote
        monkeypatch.chdir(tmp_path)
        for line in lines:
            assert run_command(shlex.split(line)[1:]) == 0, line


class TestReadmeLibraryExample:
    def test_the_python_block_runs_as_its_comments_say(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
        names = {}
        exec(block, names)
        assert names["fit"].slope == pytest.approx(1.0, abs=0.05)
        assert names["verdict"] == "divergent"
        assert names["est"].lower == pytest.approx(3.3544, abs=5e-5)
        bounds = names["bounds"]
        assert bounds.lower <= bounds.actual <= bounds.upper


class TestFitAndRatio:
    def test_fit_z_ball(self, tmp_path):
        code = run(["fit", "--group", "Z", "--witness", "ball",
                    "--range", "4:256", "--method", "exact"], tmp_path, "fit.csv")
        assert code == 0
        header, row = (tmp_path / "fit.csv").read_text().splitlines()
        assert header == "group,witness,window_lo,window_hi,slope,intercept,r2"
        cells = row.split(",")
        assert cells[0] == "Z^1"
        assert abs(float(cells[4]) - 0.5) <= 0.02

    def test_ratio_csv_columns(self, tmp_path):
        code = run(["ratio", "--group", "Z^2", "--witness", "ball",
                    "--range", "4:12:4", "--method", "exact"], tmp_path, "r.csv")
        assert code == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == ("group,witness,n,norm_lower,norm_upper,l2,"
                            "ratio_lower,ratio_upper")
        first = lines[1].split(",")
        assert first[:3] == ["Z^2", "ball", "4"]
        assert float(first[3]) == 41.0

    def test_fit_json(self, tmp_path):
        assert run(["fit", "--group", "Z", "--range", "4:64:4", "--method",
                    "exact", "--format", "json"], tmp_path, "fit.json") == 0
        data = json.loads((tmp_path / "fit.json").read_text())
        # on Z the ball ratio is |B_n| / sqrt|B_n| = sqrt(2n + 1): fit
        # log sqrt(2n + 1) against log(1 + n) by the normal equations
        ns = range(4, 65, 4)
        xs = [math.log(1 + n) for n in ns]
        ys = [0.5 * math.log(2 * n + 1) for n in ns]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        assert data["slope"] == pytest.approx(slope, rel=1e-9)
        assert data["intercept"] == pytest.approx(my - slope * mx, rel=1e-9)
        assert (data["group"], data["witness"], data["window_lo"],
                data["window_hi"], data["points"]) == ("Z^1", "ball", 4, 64, 16)

    def test_report_csv(self, tmp_path):
        assert run(["report", "--group", "Z", "--range", "4:12:4", "--method",
                    "exact", "--format", "csv"], tmp_path, "rep.csv") == 0
        header, *rows = (tmp_path / "rep.csv").read_text().splitlines()
        assert header == ("group,witness,n,norm_lower,norm_upper,l2,"
                          "ratio_lower,ratio_upper")
        # an indicator on Z has its size as norm: 2n + 1 for B_n, 2 for S_n
        want = [("ball", n, 2 * n + 1) for n in (4, 8, 12)]
        want += [("sphere", n, 2) for n in (4, 8, 12)]
        assert len(rows) == len(want)
        for row, (witness, n, size) in zip(rows, want):
            cells = row.split(",")
            assert cells[:3] == ["Z^1", witness, str(n)]
            root = math.sqrt(size)
            assert [float(c) for c in cells[3:]] == pytest.approx(
                [size, size, root, root, root], rel=1e-11)

    def test_report_json(self, tmp_path):
        code = run(["report", "--group", "Z", "--range", "4:64:4",
                    "--s-list", "0.4,0.5", "--method", "exact"],
                   tmp_path, "rep.json")
        assert code == 0
        data = json.loads((tmp_path / "rep.json").read_text())
        assert abs(data["ball_fit"]["slope"] - 0.5) < 0.05
        assert data["constant_series"]["0.5"]["verdict"] == "bounded trend"
        assert data["manifest_ref"] == str(tmp_path / "rep.json.manifest.json")


class TestNormAndZseries:
    def test_norm_witness(self, tmp_path):
        code = run(["norm", "--group", "F2", "--witness", "sphere", "--n", "1",
                    "--method", "trace", "--exponent", "200"], tmp_path, "n.json")
        assert code == 0
        data = json.loads((tmp_path / "n.json").read_text())
        assert data["method"] == "trace_power"
        assert 3.3 <= data["lower"] <= 3.47
        assert data["upper"] == 4.0

    @pytest.mark.parametrize("witness,n,exponent,steps,target", [
        ("sphere", 1, 10000, 9, 14),
        ("ball", 3, 400, 7, 9),
    ])
    def test_norm_reports_where_the_ladder_stopped(self, witness, n, exponent,
                                                   steps, target, tmp_path,
                                                   capsys):
        assert run(["norm", "--group", "F2", "--witness", witness, "--n", str(n),
                    "--method", "trace", "--exponent", str(exponent)],
                   tmp_path, "n.json") == 0
        data = json.loads((tmp_path / "n.json").read_text())
        assert (len(data["steps"]), data["target_steps"], data["stop_reason"]) == \
            (steps, target, "float_range")
        assert f"stopped after {steps} of {target} steps (float_range)" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("method,bracket", [
        ("power", {"method": "power_iteration", "steps": [0.0], "iterations": 1,
                   "converged": True, "target_steps": 1, "stop_reason": "done"}),
        ("l1", {"method": "l1_bound", "steps": [], "iterations": 0,
                "converged": False}),
    ])
    def test_empty_element_has_the_exact_zero_bracket(self, method, bracket,
                                                      tmp_path):
        assert run(["norm", "--group", "Z^2", "--witness", "aN", "--n", "0",
                    "--d-hat", "1", "--method", method], tmp_path, "n.json") == 0
        text = (tmp_path / "n.json").read_text()
        assert json.loads(text) == dict(bracket, lower=0.0, upper=0.0)
        assert '"lower": 0.0' in text and '"upper": 0.0' in text

    def test_zseries_and_element_pipe(self, tmp_path):
        code = run(["zseries", "--group", "Z", "--r", "1", "--alpha", "1.0",
                    "--k", "3"], tmp_path, "z.json")
        assert code == 0
        data = json.loads((tmp_path / "z.json").read_text())
        assert data["l2_bounds"]["doubling_ok"] is False
        element_path = tmp_path / "el.json"
        element_path.write_text(json.dumps(data["element"]))
        code = run(["norm", "--group", "Z", "--element", str(element_path),
                    "--method", "exact"], tmp_path, "ne.json")
        assert code == 0
        est = json.loads((tmp_path / "ne.json").read_text())
        assert est["method"] == "amenable_exact"

    def test_zseries_element_within_the_budget(self, tmp_path):
        # the index, and so the cache read's enumeration, is needed only to
        # expand the element: --budget 840 leaves the element out, exit 0
        cache = str(tmp_path / "c")
        assert run(["cache", "build", "--group", "Z^2", "--radius", "20",
                    "--cache-dir", cache]) == 0
        argv = ["zseries", "--group", "Z^2", "--r", "2", "--alpha", "1.0",
                "--k", "10", "--cache-dir", cache]
        for budget, size in [("841", 841), ("840", None)]:
            assert run(argv + ["--budget", budget], tmp_path, "z.json") == 0
            element = json.loads((tmp_path / "z.json").read_text())["element"]
            assert (len(element["coeffs"]) if element else None) == size

    @pytest.mark.parametrize("group, r, alpha, k", [
        ("Z^2", 2, "0.75", 10), ("Z^1xF2", 1, "1.0", 4), ("F2", 2, "1.0", 300),
        ("Z^2", 10, "1.0", 20)])
    def test_zseries_doubling_is_verify_doubling(self, group, r, alpha, k,
                                                 tmp_path):
        # the same pairs k = 1..K-1, to the bit
        assert run(["zseries", "--group", group, "--r", str(r), "--alpha",
                    alpha, "--k", str(k)], tmp_path, "z.json") == 0
        assert run(["verify", "doubling", "--group", group, "--r", str(r),
                    "--k", str(k - 1)], tmp_path, "d.json") in (0, 1)
        bounds = strict_json((tmp_path / "z.json").read_text())["l2_bounds"]
        check = strict_json((tmp_path / "d.json").read_text())
        assert bounds["min_doubling_ratio"] == check["min_ratio"]
        assert bounds["doubling_ok"] is check["ok"]

    @pytest.mark.parametrize("argv, ratio", [
        ("zseries --group F2 --r 2 --alpha 1.0 --k 300", 3.0),
        ("zseries --group Z --r 1 --alpha 1 --k 1", None)])
    def test_zseries_doubling_ends(self, argv, ratio, tmp_path):
        # F2's ratio stays >= 3; one term has no pair: null, vacuously ok
        assert run(argv.split(), tmp_path, "z.json") == 0
        bounds = strict_json((tmp_path / "z.json").read_text())["l2_bounds"]
        assert bounds["min_doubling_ratio"] == ratio
        assert bounds["doubling_ok"] is True

    def test_zseries_without_doubling_has_no_upper_end(self, tmp_path, capsys):
        # H3 breaks l2 doubling, and its actual l2^2 passes 4 * lower
        assert run_command(["zseries", "--group", "H3", "--r", "1", "--alpha",
                            "1.0", "--k", "400"]) == 0
        out = capsys.readouterr()
        bounds = strict_json(out.out)["l2_bounds"]
        assert bounds["doubling_ok"] is False and bounds["upper"] is None
        assert bounds["upper_reason"] == rdlab.rd.NO_UPPER_REASON
        assert bounds["actual"] > 4 * bounds["lower"]
        assert "no certified upper end" in out.err

    def test_zseries_f2_large(self, tmp_path):
        code = run(["zseries", "--group", "F2", "--r", "2", "--alpha", "0.75",
                    "--k", "10"], tmp_path, "zf.json")
        assert code == 0
        data = json.loads((tmp_path / "zf.json").read_text())
        assert data["element"] is None
        b = data["l2_bounds"]
        assert b["lower"] <= b["actual"] <= b["upper"]


class TestIndexPlanning:
    """Which ball indexes each command reads, recorded at the two places an
    index comes from: the run's get_index and breadth-first enumeration."""

    @pytest.fixture
    def index_calls(self, monkeypatch):
        calls = {"get_index": [], "enumerate": []}
        enumerate_balls = rdlab.groups.enumerate_balls
        get_index = rdlab.cli._Run.get_index

        def recording_enumerate(spec, N, *args, **kwargs):
            calls["enumerate"].append((spec.descriptor(), N))
            return enumerate_balls(spec, N, *args, **kwargs)

        def recording_get_index(run, spec, radius, budget):
            calls["get_index"].append((spec.descriptor(), radius))
            return get_index(run, spec, radius, budget)

        for module in (rdlab.groups, rdlab.cli):
            monkeypatch.setattr(module, "enumerate_balls", recording_enumerate)
        monkeypatch.setattr(rdlab.cli._Run, "get_index", recording_get_index)
        return calls

    @pytest.mark.parametrize("argv", [
        "ratio --group F2 --range 2:6 --method trace --depth 3",
        "ratio --group F3 --witness aN --d-hat 1.0 --range 1:4 --method l1",
        "fit --group F2 --range 2:8 --method trace --depth 3",
        "report --group F2 --range 2:6 --s-list 1.0 --method trace --depth 3",
        "norm --group F3 --witness sphere --n 2 --method trace --depth 3",
        "zseries --group F2 --r 2 --alpha 1.0 --k 10",
        "verify lemma1 --group F2 --radius 10",
        "verify lemma2 --group F3 --r 1 --k 20",
        "verify divergence --group F2 --s 0.4 --range 2:10:2 --method trace "
        "--depth 3",
        "ratio --group C12 --range 2:5",              # amenable, closed sizes
        "zseries --group F2 --r 1 --alpha 1.0 --k 8",  # |B_8| = 13,121
    ])
    def test_free_group_witnesses_read_no_index(self, argv, index_calls):
        assert run_command(argv.split()) == 0
        assert index_calls == {"get_index": [], "enumerate": []}

    def test_a_failed_load_raises_its_own_error(self, capsys, index_calls):
        assert run_command(["verify", "lemma1", "--group", "H3", "--radius", "6",
                            "--budget", "10"]) == 3
        assert index_calls["get_index"] == [("H3", 6)]
        assert capsys.readouterr().err.count("error:") == 1

    def test_heredity_reads_the_subgroup_cache(self, tmp_path):
        argv = ["verify", "heredity", "--embedding", "Z:Z^2", "--range", "4:32:4"]
        assert run(argv, tmp_path, "plain.json") == 0
        cache_dir = tmp_path / "caches"
        assert run_command(["cache", "build", "--group", "Z", "--radius", "33",
                            "--cache-dir", str(cache_dir)]) == 0
        assert run(argv + ["--cache-dir", str(cache_dir)], tmp_path,
                   "cached.json") == 0
        manifest = json.loads((tmp_path / "cached.json.manifest.json").read_text())
        assert [f["path"] for f in manifest["cache_files"]] == \
            [str(cache_dir / "Z^1.N33.ballcache")]
        assert (tmp_path / "cached.json").read_bytes() == \
            (tmp_path / "plain.json").read_bytes()

    def test_heredity_into_f2_enumerates_only_the_subgroup(self, index_calls):
        assert run_command(["verify", "heredity", "--embedding", "Z:F2",
                            "--range", "4:12:4"]) == 0
        assert index_calls["get_index"] == [("Z^1", 13)]
        assert {group for group, _ in index_calls["enumerate"]} == {"Z^1"}

    # radii []: the command needs sphere sizes alone, which are closed, and
    # reads no index.  A series loads the ball of its largest n at once; a
    # power norm loads its witness's ball, then its domain's
    @pytest.mark.parametrize("argv,radii", [
        ("ratio --group H3 --witness sphere --range 1:3 --method trace "
         "--depth 2", [3]),
        ("fit --group H3 --range 2:5 --method exact", []),
        ("report --group H3 --range 2:6 --method exact", []),
        ("norm --group H3 --witness ball --n 2 --method trace --depth 2", [2]),
        ("norm --group H3 --witness ball --n 2 --method power --R 4 "
         "--iters 20", [2, 4]),
        ("zseries --group H3 --r 1 --alpha 1.0 --k 4", [4]),
        ("verify lemma1 --group H3 --radius 4", [4]),
        ("verify lemma1 --group H3 --n 2 --k 1", [3]),
        ("verify lemma2 --group H3 --r 1 --k 3", [3]),
        ("verify divergence --group H3 --s 0.4 --range 2:6:2 --method exact",
         []),
        ("ratio --group Z^2 --range 2:5 --method trace --depth 2", [5]),
        ("ratio --group Z^1xF2 --range 1:2 --depth 2", [2]),  # auto: trace
        ("ratio --group H3 --range 1:3 --method power --R 3 --iters 5",
         [3]),                                  # the domain is B_3
        ("ratio --group H3 --range 1:3 --method power --R 5 --iters 5",
         [3, 5]),
        ("zseries --group F2 --r 1 --alpha 1.0 --k 7", [7]),   # |B_7| = 4,373
        ("zseries --group H3 --r 1 --alpha 1.0 --k 12", [12]),
        ("zseries --group H3 --r 1 --alpha 1.0 --k 13", []),  # no element
    ])
    def test_h3_reads_one_index_of_the_radius_used(self, argv, radii,
                                                   index_calls):
        argv = argv.split()
        group = argv[argv.index("--group") + 1]
        assert run_command(argv) == 0
        loads = [(group, radius) for radius in radii]
        assert index_calls == {"get_index": loads, "enumerate": loads}

    @pytest.mark.parametrize("argv", [
        "report --group H3 --range 4:200 --method exact",
        "fit --group H3 --range 2:500 --method exact",
        "verify divergence --group H3 --s 0.4 --range 8:400:8 --method exact",
        "zseries --group H3 --r 1 --alpha 1.0 --k 400",
    ])
    def test_h3_sizes_past_the_enumeration_budget(self, argv, index_calls):
        # |B_59| passes the default budget of 5,000,000 elements; the closed
        # sizes read no index
        assert run_command(argv.split()) == 0
        assert index_calls == {"get_index": [], "enumerate": []}

    @pytest.mark.parametrize("group,k,size", [
        ("H3", 12, 8871),
        ("H3", 13, None),       # |B_13| = 12,195
        ("F2", 7, 4373),
        ("F2", 8, None),
    ])
    def test_zseries_embeds_the_element_up_to_ten_thousand(self, group, k, size,
                                                           tmp_path):
        assert run(["zseries", "--group", group, "--r", "1", "--alpha", "1.0",
                    "--k", str(k)], tmp_path, "z.json") == 0
        element = json.loads((tmp_path / "z.json").read_text())["element"]
        assert (len(element["coeffs"]) if element else None) == size

    def test_h3_doubling_reads_sizes_to_r_times_k_plus_1(self, index_calls,
                                                         monkeypatch):
        asked = []
        sizes = rdlab.groups.sphere_sizes

        def recording(spec, up_to):
            asked.append(up_to)
            return sizes(spec, up_to)
        monkeypatch.setattr(rdlab.groups, "sphere_sizes", recording)
        assert run_command(["verify", "doubling", "--group", "H3",
                            "--r", "1", "--k", "3"]) == 1
        assert asked == [4]
        assert index_calls == {"get_index": [], "enumerate": []}

    def test_given_element_reads_an_index_only_for_power(
            self, tmp_path, index_calls):
        # the support is checked by the closed H3 word length; only power
        # iteration reads an index, of its domain radius
        path = tmp_path / "el.json"
        ball = R.char_ball(rdlab.groups.enumerate_balls(R.DiscreteHeisenberg(), 1), 1)
        path.write_text(json.dumps(ball.to_json_dict()))
        index_calls["enumerate"].clear()
        base = ["norm", "--group", "H3", "--element", str(path)]
        for method in (["trace", "--depth", "2"], ["exact"], ["l1"]):
            assert run_command(base + ["--method", *method]) == 0, method
        assert index_calls == {"get_index": [], "enumerate": []}
        assert run_command(base + ["--method", "power", "--R", "3",
                                   "--iters", "20"]) == 0
        assert index_calls["get_index"] == [("H3", 3)]

    def test_power_on_a_radius_zero_witness(self, tmp_path, index_calls):
        assert run(["norm", "--group", "Z^2", "--witness", "ball", "--n", "0",
                    "--method", "power"], tmp_path, "n.json") == 0
        est = json.loads((tmp_path / "n.json").read_text())
        assert (est["lower"], est["upper"]) == (1.0, 1.0)
        assert index_calls["get_index"] == [("Z^2", 0), ("Z^2", 1)]

    def test_heredity_power_reads_the_domain_radius(self, index_calls):
        # the subgroup ball lists the witnesses; the ambient series loads
        # the ball of its largest n, then the domain; the subgroup's domain
        # comes last
        assert run_command(["verify", "heredity", "--embedding", "Z:Z^2",
                            "--range", "4:8:4", "--method", "power",
                            "--R", "10"]) == 0
        assert index_calls["get_index"] == [("Z^1", 9), ("Z^2", 8),
                                            ("Z^2", 10), ("Z^1", 10)]

    def test_heredity_reads_no_domain_radius_without_power(self, index_calls):
        assert run_command(["verify", "heredity", "--embedding", "Z:Z^2",
                            "--range", "4:8:4", "--method", "trace",
                            "--depth", "2", "--R", "20"]) == 0
        assert index_calls["get_index"] == [("Z^1", 9), ("Z^2", 8)]

    def test_power_on_a_free_group_reads_the_domain_ball(self, index_calls):
        assert run_command(["norm", "--group", "F2", "--witness", "ball",
                            "--n", "2", "--method", "power", "--R", "3",
                            "--iters", "20"]) == 0
        assert index_calls["get_index"] == [("F2", 2), ("F2", 3)]

    def test_small_series_still_attach_the_dense_element(self, tmp_path,
                                                        index_calls):
        assert run(["zseries", "--group", "F2", "--r", "1", "--alpha", "1.0",
                    "--k", "3"], tmp_path, "z.json") == 0
        assert index_calls["get_index"] == [("F2", 3)]
        data = json.loads((tmp_path / "z.json").read_text())
        assert len(data["element"]["coeffs"]) == R.ball_sizes(R.FreeGroup(2), 3)[3]

    @pytest.mark.parametrize("argv", [
        "ratio --group H3 --range 2:6 --method exact",
        "ratio --group H3 --witness aN --d-hat 2.0 --range 2:6 --method l1",
        "fit --group H3 --range 2:5 --method exact",
        "report --group H3 --range 2:6 --method exact",
        "norm --group H3 --witness sphere --n 4 --method exact",
        "verify divergence --group H3 --s 0.4 --range 2:6:2 --method exact",
    ])
    def test_h3_exact_norms_need_no_dense_witness(self, argv, index_calls,
                                                  monkeypatch):
        # nor an index: the sphere sizes are closed
        expanded = []
        monkeypatch.setattr(rdlab.rd, "witness_element",
                            lambda *args: expanded.append(args))
        assert run_command(argv.split()) == 0
        assert expanded == []
        assert index_calls == {"get_index": [], "enumerate": []}

    def test_z2_exact_ratio_reads_no_index(self, tmp_path, index_calls):
        # B_200 of Z^2 has 80,401 elements; the exact norms sum 201 sizes
        argv = ["ratio", "--group", "Z^2", "--range", "4:200", "--method",
                "exact", "--budget", "1000"]
        assert run(argv, tmp_path, "r.csv") == 0
        last = (tmp_path / "r.csv").read_text().splitlines()[-1].split(",")
        assert last[2:5] == ["200", "80401", "80401"]
        assert index_calls == {"get_index": [], "enumerate": []}

    def test_z2_exact_ratio_lists_no_cache(self, tmp_path):
        cache_dir = tmp_path / "caches"
        assert run_command(["cache", "build", "--group", "Z^2", "--radius", "200",
                            "--cache-dir", str(cache_dir)]) == 0
        assert (cache_dir / "Z^2.N200.ballcache").exists()
        assert run(["ratio", "--group", "Z^2", "--range", "4:200", "--method",
                    "exact", "--budget", "1000", "--cache-dir", str(cache_dir)],
                   tmp_path, "r.csv") == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["cache_files"] == []

    def test_free_group_ratio_past_the_enumeration_budget(self):
        # B_14 of F2 has 9.6 million elements; the radial witnesses need none
        assert run_command(["ratio", "--group", "F2", "--range", "2:14",
                            "--method", "trace", "--depth", "3",
                            "--budget", "1000"]) == 0

    def test_free_group_manifest_lists_no_cache(self, tmp_path):
        cache_dir = tmp_path / "caches"
        assert run_command(["cache", "build", "--group", "F2", "--radius", "4",
                            "--cache-dir", str(cache_dir)]) == 0
        assert run(["ratio", "--group", "F2", "--range", "2:4", "--method",
                    "l1", "--cache-dir", str(cache_dir)], tmp_path, "r.csv") == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["cache_files"] == []


class TestRadialWitnesses:
    def test_norm_and_ratio_agree(self, tmp_path):
        common = ["--group", "F2", "--witness", "aN", "--d-hat", "1.0",
                  "--method", "l1"]
        assert run(["norm", "--n", "5"] + common, tmp_path, "n.json") == 0
        assert run(["ratio", "--range", "5", "--format", "json"] + common,
                   tmp_path, "r.json") == 0
        est = json.loads((tmp_path / "n.json").read_text())
        entry = json.loads((tmp_path / "r.json").read_text())["entries"][0]
        assert (est["lower"], est["upper"]) == (entry["norm_lower"],
                                                entry["norm_upper"])
        # the correctly rounded sum of |S_m| / (1+m), m = 1..5
        sizes = R.sphere_sizes(R.FreeGroup(2), 5)
        assert est["upper"] == math.fsum(sizes[m] / (1 + m)
                                         for m in range(1, 6)) == 90.6

    @pytest.mark.parametrize("group,last,methods", [
        ("Z^2", 12, ["exact", "trace", "power"]),
        ("H3", 4, ["exact", "trace", "power"]),
        ("Z^1xF2", 3, ["trace", "power", "auto"]),
        ("F2", 6, ["trace", "power"]),
    ])
    def test_an_l2_is_the_sphere_function_sum(self, group, last, methods,
                                              tmp_path):
        # every method prints the l2 of the witness's sphere function, also
        # where its estimator expands the witness
        def l2(method):
            out = tmp_path / f"{method}.json"
            assert run(["ratio", "--group", group, "--witness", "aN",
                        "--d-hat", "1.5", "--range", f"1:{last}", "--method",
                        method, "--depth", "1", "--iters", "3", "--format",
                        "json"], tmp_path, out.name) == 0
            return [e["l2"] for e in json.loads(out.read_text())["entries"]]
        want = l2("l1")
        assert len(want) == last
        for method in methods:
            assert l2(method) == want, method

    def test_lemma1_exact_past_two_to_the_53(self, tmp_path):
        assert run(["verify", "lemma1", "--group", "F2", "--radius", "40"],
                   tmp_path, "l1.json") == 0
        data = json.loads((tmp_path / "l1.json").read_text())
        assert data["ok"] is True
        assert data["min_slack"] == 0
        assert '"min_slack": 0.0' in (tmp_path / "l1.json").read_text()

    @pytest.mark.parametrize("argv", [
        "zseries --group F2 --r 2 --alpha 1.0 --k 400",
        "ratio --group F2 --range 640:700:60 --method l1",
        "norm --group F2 --witness aN --d-hat 1.0 --n 700 --method l1",
    ])
    def test_past_the_float_range(self, argv, capsys):
        assert run_command(argv.split()) == 3
        assert "float range at radius 646" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_errors(self):
        assert run_command(["growth", "--group", "Z^2", "--bogus"]) == 2
        assert run_command(["growth", "--group", "Q8", "--radius", "2"]) == 2
        assert run_command(["nonsense"]) == 2

    @pytest.mark.parametrize("group, component", [
        ("F", "F"), ("C", "C"), ("Z^", "Z^"), ("Z^a", "Z^a"), ("Z^2xF", "F")])
    def test_a_bad_descriptor_component_is_named(self, group, component, capsys):
        assert run_command(["growth", "--group", group, "--radius", "1"]) == 2
        assert (f"error: unknown group descriptor component: {component!r}"
                in capsys.readouterr().err)

    def test_missing_arguments(self):
        assert run_command(["verify", "lemma1"]) == 2
        assert run_command(["verify", "heredity"]) == 2
        assert run_command(["cache", "build"]) == 2
        assert run_command(["cache", "check"]) == 2
        assert run_command(["norm", "--group", "Z"]) == 2

    @pytest.mark.parametrize("n_range, fitted", [
        ("0:3", 0), ("0", 0), ("2:5", 2), ("4:12:5", 2)])
    def test_a_report_range_too_short_to_fit_is_named(self, n_range, fitted,
                                                       capsys):
        argv = ["report", "--group", "Z", "--range", n_range, "--method", "exact"]
        assert run_command(argv) == 2
        assert (f"error: report: --range {n_range} gives {fitted} n >= 4; the "
                "report fits its series on n >= 4 and needs at least 3 of them"
                in capsys.readouterr().err)

    def test_cache_commands_need_a_directory(self, capsys):
        argv = ["--group", "Z", "--radius", "2"]
        assert run_command(["cache", "build"] + argv) == 2
        assert "cache build needs --cache-dir" in capsys.readouterr().err
        assert run_command(["cache", "check"] + argv) == 2
        assert "cache check needs --cache-dir" in capsys.readouterr().err

    def test_malformed_element_json(self, tmp_path, capsys):
        path = tmp_path / "el.json"
        for data, message in [
                ({"group": "Z^2", "support_radius": 1, "coeffs": [["0,3", 1.0]]},
                 "beyond support_radius"),
                ({"support_radius": 1, "coeffs": []}, "has no group"),
                ({"group": "Z^2", "coeffs": [["0,1", 1.0]]},
                 "has no support_radius"),
                ({"group": "Z^2", "support_radius": 1}, "has no coeffs"),
                ([1, 2], "must be an object"),
                ({"group": "Z^2", "support_radius": 1, "coeffs": [5]},
                 "[key, value] pair"),
                ({"group": "Z^2", "support_radius": 1, "coeffs": [[1, 1.0]]},
                 "string key"),
                ({"group": "Z^2", "support_radius": 1.5, "coeffs": []},
                 "support_radius 1.5, not an integer"),
                ({"group": "Z^2", "support_radius": -3, "coeffs": []},
                 "support_radius -3, below 0"),
                ({"group": "Z^2", "support_radius": "1", "coeffs": []},
                 "support_radius '1', not an integer"),
                ({"group": "Z^2", "support_radius": 1, "coeffs": {"0,1": 1.0}},
                 "coeffs must be a list"),
                ({"group": "Z^2", "support_radius": 1, "coeffs": [["0,1", "1"]]},
                 "gives '0,1' the value '1'"),
                ({"group": "Z^2", "support_radius": 1, "coeffs": [["0,1", None]]},
                 "gives '0,1' the value None"),
                ({"group": "Z^2", "support_radius": 1,
                  "coeffs": [["0,1", 10 ** 400]]}, "gives '0,1' the value 1000")]:
            path.write_text(json.dumps(data))
            assert run_command(["norm", "--group", "Z^2", "--element", str(path),
                                "--method", "l1"]) == 2, data
            assert message in capsys.readouterr().err, data

    def test_h3_support_radius_checked_by_the_word_length(self, tmp_path, capsys):
        # the closed H3 word length checks the declared radius as the file
        # is parsed, whatever the power domain
        path = tmp_path / "el.json"
        for key, radius, extra, code, message in [
                ("0,0,5", 1, [], 2, "'0,0,5' has length 10"),
                ("0,0,1", 1, ["--R", "6"], 2, "'0,0,1' has length 4"),
                ("0,0,1", 4, ["--R", "6"], 0, "norm in")]:
            path.write_text(json.dumps({"group": "H3", "support_radius": radius,
                                        "coeffs": [["0,0,0", 1.0], [key, 1.0]]}))
            assert run_command(["norm", "--group", "H3", "--element", str(path),
                                "--method", "power"] + extra) == code, key
            assert message in capsys.readouterr().err, key

    def test_power_iteration_budget(self, capsys):
        # |B_10| x |B_3| = 4309 x 53 matrix entries on H3
        argv = ["norm", "--group", "H3", "--witness", "ball", "--n", "3",
                "--method", "power", "--R", "10", "--budget"]
        assert run_command(argv + ["228376"]) == 3
        assert "228377 entries" in capsys.readouterr().err
        assert run_command(argv + ["228377"]) == 0

    def test_power_iteration_budget_comes_before_the_domain(self, capsys,
                                                             monkeypatch):
        # |B_45| x |B_3| = 1,751,491 x 53 entries: the matrix is refused from
        # the growth series, and B_45 is never searched; B_3 lists the witness
        enumerate_balls = rdlab.groups.enumerate_balls

        def witness_ball_only(spec, N, *args, **kwargs):
            if N > 3:
                raise AssertionError(f"searched B_{N}")
            return enumerate_balls(spec, N, *args, **kwargs)
        for module in (rdlab.groups, rdlab.cli):
            monkeypatch.setattr(module, "enumerate_balls", witness_ball_only)
        assert run_command(["norm", "--group", "H3", "--witness", "ball",
                            "--n", "3", "--method", "power", "--R", "45"]) == 3
        assert ("power iteration's matrix would hold 92829023 entries, past "
                "the budget of 5000000") in capsys.readouterr().err

    def test_radial_trace_budget(self, capsys):
        # b = chi(B_3)^2 on F2 has 7 sphere coefficients
        argv = ["norm", "--group", "F2", "--witness", "ball", "--n", "3",
                "--method", "trace", "--budget"]
        for budget in range(7):
            assert run_command(argv + [str(budget)]) == 3
            assert "before the first step" in capsys.readouterr().err
        assert run_command(argv + ["7"]) == 0
        assert "stopped after 2 of 7 steps (budget)" in capsys.readouterr().err

    def test_budget_error(self):
        assert run_command(["growth", "--group", "Z^2", "--radius", "6",
                            "--budget", "10"]) == 3

    @pytest.mark.parametrize("argv", [
        "growth --group Z --radius -1",
        "growth --group Z^1xF2 --radius -1 --format json",
        "cache build --group Z --radius -1"])
    def test_a_negative_radius_is_refused(self, argv, tmp_path, capsys):
        # growth loads its ball inside the command's holder, cache build
        # outside it; both refuse the radius and print no table
        argv = argv.split() + ["--cache-dir", str(tmp_path)]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert "error: radius must be >= 0" in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_verification_failure(self):
        assert run_command(["verify", "doubling", "--group", "Z",
                            "--r", "2", "--k", "4"]) == 1

    @pytest.mark.parametrize("argv, message", [
        ("ratio --group Z --range 1:3:1:9", "bad range '1:3:1:9'"),
        ("ratio --group Z --range 4:64:4:9", "bad range '4:64:4:9'"),
        ("fit --group Z --range 4:16 --window 4", "--window takes lo:hi"),
        ("fit --group Z --range 4:16 --window 4:8:2", "--window takes lo:hi"),
        ("ratio --group Z --range 3:", "bad range '3:'"),
        ("fit --group Z --range 4:16 --window 3:", "--window takes lo:hi"),
        # the aN witness at n = 0 is an empty sum: the series has no entry
        ("fit --group Z --witness aN --d-hat 1 --range 0",
         "no witness in the range has a nonzero l2 norm"),
        ("fit --group Z --witness aN --d-hat 1 --range 0 --window 0:0",
         "no witness in the range has a nonzero l2 norm"),
        ("ratio --group Z --range 4:8 --budget -1",
         "argument --budget: takes an integer of at least 0, not '-1'"),
        ("fit --group Z --range 4:16 --window 5:1",
         "--window takes lo:hi with lo <= hi, not '5:1'"),
        ("report --group Z --range 4:8 --s-list 1,,2",
         "--s-list takes comma-separated finite numbers, not '1,,2'"),
        ("report --group Z --range 4:8 --s-list 0.4,nan",
         "--s-list takes comma-separated finite numbers, not '0.4,nan'"),
        # a finite group's spheres are empty past its diameter: the witness
        # short of fit points is named
        ("report --group C5 --range 4:8",
         "error: the sphere witness on C5 is nonzero at 0 of its n >= 4; a fit "
         "needs 3"),
        ("report --group C1 --range 4:8",
         "error: the sphere witness on C1 is nonzero at 0 of its n >= 4; a fit "
         "needs 3"),
        ("fit --group C5 --witness sphere --range 1:8",
         "error: the sphere witness on C5 is nonzero at 2 of its n >= 1; a fit "
         "needs 3"),
        ("fit --group C5 --witness sphere --range 0:8 --window 2:8",
         "error: the sphere witness on C5 is nonzero at 1 of its n in 2:8; a "
         "fit needs 3"),
        ("fit --group Z --range 4:16 --window 5:6",
         "error: the ball witness on Z^1 is nonzero at 2 of its n in 5:6; a "
         "fit needs 3"),
        ("verify divergence --group C5 --witness sphere --range 4:8",
         "error: the sphere witness on C5 is nonzero at 0 of its n >= 4; a "
         "C_s trend needs 1"),
    ])
    def test_range_and_window_parts(self, argv, message, capsys):
        assert run_command(argv.split() + ["--method", "exact"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, value", [
        ("verify lemma2 --group Z --alpha nan", "--alpha", "nan"),
        ("verify lemma2 --group Z --beta inf", "--beta", "inf"),
        ("verify lemma2 --group Z --min-slack=-inf", "--min-slack", "-inf"),
        ("verify lemma1 --group Z --min-slack nan", "--min-slack", "nan"),
        ("zseries --group Z --r 1 --alpha inf --k 5", "--alpha", "inf"),
        ("ratio --group Z --witness aN --d-hat nan --range 1:3 --method exact",
         "--d-hat", "nan"),
        ("norm --group Z --witness aN --d-hat 1e999 --n 3", "--d-hat", "1e999"),
        ("verify divergence --group Z --s nan --range 4:8", "--s", "nan"),
        ("verify divergence --group Z --s 0.4x --range 4:8", "--s", "0.4x"),
        # a negative value after a space is the flag's value, not an option
        ("verify lemma1 --group Z --min-slack -inf", "--min-slack", "-inf"),
        ("verify lemma2 --group Z --min-slack -Infinity", "--min-slack",
         "-Infinity"),
        ("verify lemma2 --group Z --beta -nan", "--beta", "-nan"),
    ])
    def test_float_flags_take_finite_numbers(self, argv, flag, value, capsys):
        assert run_command(argv.split()) == 2
        assert (f"argument {flag}: takes a finite number, not {value!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, flag", [
        ("verify lemma1 --group Z --min-slack {v}", "min_slack"),
        ("verify lemma2 --group Z --min-slack {v}", "min_slack"),
        ("verify lemma2 --group Z --alpha {v}", "alpha"),
        ("verify lemma2 --group Z --beta {v}", "beta"),
        ("zseries --group Z --r 1 --alpha {v} --k 5", "alpha"),
        ("ratio --group Z --witness aN --d-hat {v} --range 1:3", "d_hat"),
        ("norm --group Z --witness aN --d-hat {v} --n 3", "d_hat"),
        ("fit --group Z --witness aN --d-hat {v} --range 4:8", "d_hat"),
        ("verify divergence --group Z --s {v} --range 4:8", "s"),
    ])
    @pytest.mark.parametrize("value", ["-1e-9", "-2.5E+3", "-.5e1", "-3."])
    def test_float_flags_take_negative_numbers_after_a_space(self, argv, flag,
                                                             value):
        args = build_parser().parse_args(argv.format(v=value).split())
        assert getattr(args, flag) == float(value)


Z1F2 = R.parse_descriptor("Z^1xF2")


def written(spec, radius):
    """The text ``cache build`` writes for ``spec`` to ``radius``."""
    return serialize_index(R.enumerate_balls(spec, radius))


# texts that Z^1xF2.N3.ballcache must not hold; each differs from what
# Z^1xF2 writes to radius 3 at its first line
REFUSED = {
    "v1-header": lambda: ("rdlab-ball-cache v1 | Z^1xF2 | N=3\n"
                          + written(Z1F2, 3).partition("\n")[2]),
    "another-radius": lambda: written(Z1F2, 2),
    "another-descriptor": lambda: written(R.parse_descriptor("F2xZ^1"), 3),
}


class TestCache:
    def test_roundtrip_library(self, tmp_path):
        assert cache_roundtrip(R.FreeAbelian(2), 10, tmp_path / "z2.ballcache")
        text = (tmp_path / "z2.ballcache").read_text().splitlines()
        assert text[0] == ("rdlab-ball-cache v2 | Z^2 | N=10 | "
                           "spheres=1,4,8,12,16,20,24,28,32,36,40")
        assert len(text) == 1 + 221

    def test_f2_radius_zero(self, tmp_path):
        assert cache_roundtrip(R.FreeGroup(2), 0, tmp_path / "f2.ballcache")
        lines = (tmp_path / "f2.ballcache").read_text().splitlines()
        assert lines[1] == "\t0"

    def test_build_check_and_corruption(self, tmp_path, capsys):
        cache_dir = tmp_path / "caches"
        assert run_command(["cache", "build", "--group", "Z^2", "--radius", "6",
                            "--cache-dir", str(cache_dir)]) == 0
        assert run_command(["cache", "check", "--group", "Z^2", "--radius", "6",
                            "--cache-dir", str(cache_dir)]) == 0
        path = cache_dir / "Z^2.N6.ballcache"
        text = path.read_text()
        path.write_text(text.replace("\t3", "\t4", 1))
        assert run_command(["cache", "check", "--group", "Z^2", "--radius", "6",
                            "--cache-dir", str(cache_dir)]) == 1
        assert (":15: expected '-1,-2\\t3\\n', found '-1,-2\\t4\\n'"
                in capsys.readouterr().err)

    @pytest.fixture
    def z2_cache(self, tmp_path):
        path = tmp_path / "Z^2.N6.ballcache"
        write_ball_cache(R.enumerate_balls(R.FreeAbelian(2), 6), path)
        return path

    def test_truncated_file_is_rejected(self, z2_cache):
        lines = z2_cache.read_text().splitlines(keepends=True)
        z2_cache.write_text("".join(lines[:-5]))
        with pytest.raises(CacheFormatError,
                           match=re.escape(":82: the file ends, expected '4,-2\\t6\\n'")):
            read_ball_cache(z2_cache, R.FreeAbelian(2), 6)

    def test_cut_file_without_closed_sizes_is_rejected(self, tmp_path):
        path = tmp_path / "H3.N6.ballcache"
        write_ball_cache(rdlab.groups.enumerate_balls(R.DiscreteHeisenberg(), 6),
                         path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-10]))
        with pytest.raises(CacheFormatError, match=re.escape(
                ":585: the file ends, expected '5,-1,-4\\t6\\n'")):
            read_ball_cache(path, R.DiscreteHeisenberg(), 6)

    def test_records_out_of_order_are_rejected(self, z2_cache):
        header, *records = z2_cache.read_text().splitlines(keepends=True)
        z2_cache.write_text(header + "".join(reversed(records)))
        with pytest.raises(CacheFormatError, match=re.escape(
                ":2: expected '0,0\\t0\\n', found '6,0\\t6\\n'")):
            read_ball_cache(z2_cache, R.FreeAbelian(2), 6)

    @pytest.mark.parametrize("case", REFUSED)
    def test_a_file_the_group_does_not_write_is_refused(self, case, tmp_path,
                                                        capsys):
        path = tmp_path / "Z^1xF2.N3.ballcache"
        text = REFUSED[case]()
        path.write_bytes(text.encode("utf-8"))
        want = written(Z1F2, 3).partition("\n")[0] + "\n"
        found = text.partition("\n")[0] + "\n"
        assert want != found
        message = f"{path}:1: expected {want!r}, found {found!r}"
        with pytest.raises(CacheFormatError, match=re.escape(message)):
            read_ball_cache(path, Z1F2, 3)
        argv = ["--group", "Z^1xF2", "--cache-dir", str(tmp_path)]
        assert run_command(["cache", "check", "--radius", "3"] + argv) == 1
        assert message in capsys.readouterr().err
        # a command reading the index fails at its first read, exit 2
        for command in (["growth", "--radius", "3"],
                        ["verify", "lemma1", "--radius", "3"]):
            assert run_command(command + argv) == 2, command
            assert message in capsys.readouterr().err, command

    def test_commands_reuse_cache(self, tmp_path):
        cache_dir = tmp_path / "caches"
        assert run_command(["cache", "build", "--group", "H3", "--radius", "6",
                            "--cache-dir", str(cache_dir)]) == 0
        out, fresh = tmp_path / "g.csv", tmp_path / "fresh.csv"
        assert run_command(["growth", "--group", "H3", "--radius", "6",
                            "--cache-dir", str(cache_dir),
                            "--out", str(out)]) == 0
        manifest = json.loads((out.parent / "g.csv.manifest.json").read_text())
        assert manifest["cache_files"]
        assert manifest["cache_files"][0]["path"].endswith("H3.N6.ballcache")
        # the cached run is the fresh run
        assert run_command(["growth", "--group", "H3", "--radius", "6",
                            "--out", str(fresh)]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_a_held_ball_ends_with_its_command(self, tmp_path, capsys):
        # the second run reads the file again, and finds the corruption
        assert run_command(["cache", "build", "--group", "H3", "--radius", "6",
                            "--cache-dir", str(tmp_path)]) == 0
        argv = ["growth", "--group", "H3", "--radius", "6", "--cache-dir",
                str(tmp_path)]
        assert run_command(argv) == 0
        path = tmp_path / "H3.N6.ballcache"
        path.write_text(path.read_text().replace("\t3\n", "\t4\n", 1))
        capsys.readouterr()
        assert run_command(argv) == 2
        assert ("H3.N6.ballcache:19: expected '-1,-2,0\\t3\\n', found "
                "'-1,-2,0\\t4\\n'"
                in capsys.readouterr().err)

    def test_a_file_with_swapped_lengths_is_rejected(self, tmp_path, capsys):
        # two records trade lengths and move to their sorted places, so the
        # records stay in (length, key) order and the header's sphere sizes
        # still hold
        assert run_command(["cache", "build", "--group", "H3", "--radius", "4",
                            "--cache-dir", str(tmp_path)]) == 0
        path = tmp_path / "H3.N4.ballcache"
        header, *lines = path.read_text().splitlines(keepends=True)
        swap = {"-1,-2,0": "4", "-1,-1,-1": "3"}
        records = sorted((int(swap.get(key, n)), key) for key, n in
                         (line[:-1].split("\t") for line in lines))
        path.write_text(header + "".join(f"{key}\t{n}\n" for n, key in records))
        message = ("H3.N4.ballcache:19: expected '-1,-2,0\\t3\\n', "
                   "found '-1,-1,-1\\t3\\n'")
        with pytest.raises(CacheFormatError, match=re.escape(message)):
            read_ball_cache(path, R.DiscreteHeisenberg(), 4)
        assert run_command(["ratio", "--group", "H3", "--witness", "sphere",
                            "--range", "4", "--method", "trace", "--depth", "2",
                            "--cache-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert run_command(["cache", "check", "--group", "H3", "--radius", "4",
                            "--cache-dir", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    def test_a_read_meets_the_budget(self, tmp_path, capsys):
        # a read enumerates the ball it checks the file against
        assert run_command(["cache", "build", "--group", "H3", "--radius", "6",
                            "--cache-dir", str(tmp_path)]) == 0
        assert run_command(["growth", "--group", "H3", "--radius", "6",
                            "--budget", "100", "--cache-dir", str(tmp_path)]) == 3
        assert "passed 100 elements" in capsys.readouterr().err

    def test_a_larger_cache_is_not_read(self, tmp_path):
        cache_dir = tmp_path / "caches"
        assert run_command(["cache", "build", "--group", "H3", "--radius", "8",
                            "--cache-dir", str(cache_dir)]) == 0
        for argv in ["growth --group H3 --radius 6",
                     "verify lemma1 --group H3 --radius 6"]:
            cached, fresh = tmp_path / "cached.txt", tmp_path / "fresh.txt"
            assert run_command(argv.split() + ["--cache-dir", str(cache_dir),
                                               "--out", str(cached)]) == 0
            assert run_command(argv.split() + ["--out", str(fresh)]) == 0
            assert cached.read_bytes() == fresh.read_bytes(), argv
            manifest = json.loads(Path(f"{cached}.manifest.json").read_text())
            assert manifest["cache_files"] == [], argv

    @pytest.fixture
    def non_utf8_cache(self, tmp_path):
        """A cache directory whose Z^2 radius-3 file ends in a 0xff byte."""
        assert run_command(["cache", "build", "--group", "Z^2", "--radius", "3",
                            "--cache-dir", str(tmp_path)]) == 0
        path = tmp_path / "Z^2.N3.ballcache"
        path.write_bytes(path.read_bytes() + b"\xff")
        return tmp_path

    def test_non_utf8_file_is_named(self, non_utf8_cache, capsys):
        message = f"{non_utf8_cache / 'Z^2.N3.ballcache'}: not UTF-8 text at byte 219"
        argv = ["--group", "Z^2", "--radius", "3", "--cache-dir", str(non_utf8_cache)]
        assert run_command(["growth"] + argv) == 2
        assert message in capsys.readouterr().err
        assert run_command(["cache", "check"] + argv) == 1
        assert message in capsys.readouterr().err

    def test_only_the_flag_names_a_cache_directory(self, non_utf8_cache,
                                                    monkeypatch):
        monkeypatch.setenv("RDLAB_CACHE_DIR", str(non_utf8_cache))
        assert run_command(["growth", "--group", "Z^2", "--radius", "3"]) == 0


# the lemma1, lemma2 and zseries artifacts, pinned byte for byte: the
# radial and dense checks on every kind of group, zseries with and
# without its dense element, with doubling holding and failing; heredity through ``embed``, and norms on the
# array and dict paths of ``product_keys``
ARTIFACT_DIGESTS = [
    ("verify lemma1 --group H3 --radius 8",
     "040df219073cdc12e1fc65ea016b24160c4c2493ec2e2bd664f74e99f32fd033"),
    ("verify lemma1 --group H3 --n 2 --k 3",
     "406b52afc8c4e40933ff444e631079a48cb8d84e5044103dbe695ec727aef407"),
    ("verify lemma1 --group Z^2 --radius 14",
     "5cc1853268bf8ee27d117c17b0e37944f4838ee8928a93b105bd8fc7f9f3a336"),
    ("verify lemma1 --group Z^2 --n 4 --k 5",
     "aab19dac1cf7e8f4b4077f75055e7710c3155944a3067004a4ab024a2b1c7007"),
    ("verify lemma1 --group Z --radius 30",
     "7287e46dd1c959694d495d0cde47bc7cab80dcba5f070362d7686cc2a815620c"),
    ("verify lemma1 --group Z^3 --radius 6",
     "8519041199735636b33590c0a67f1f199114b71b31bc783a9e4a908837b9088f"),
    ("verify lemma1 --group C12 --radius 9",
     "33a31fe48f50f5be98529d5cc2ec584c68953130b07030ae356805d4083c27dc"),
    ("verify lemma1 --group Z^1xF2 --radius 5",
     "281f7388c3868cac481bcf004c49bdf2b9ea39125d97e56b5e3eec09a7490600"),
    ("verify lemma1 --group F2 --radius 36",
     "5010237511530a9eec0a05c92a722a34c2cb4db732ddf234523f29fbbc653d31"),
    ("verify lemma1 --group F2 --radius 40",
     "5010237511530a9eec0a05c92a722a34c2cb4db732ddf234523f29fbbc653d31"),
    ("verify lemma1 --group F3 --radius 20",
     "3b8900bc5786c3b6a3fa287df6044868e0b695f020d27f14fce30a0ca380ffc5"),
    ("verify lemma2 --group Z^2 --r 2 --k 8",
     "49e9c60725f97b630ec4fd52e1b11ad8e386a651c7470f4515b29cf74d3a34dc"),
    ("verify lemma2 --group H3 --r 1 --k 7",
     "4214cb42b9941671ea4480e1a79a3480ce31ed08be2e5666ad689d21bd7353b9"),
    ("verify lemma2 --group F2 --r 1 --k 600",
     "e2df1a4635c9472654ed195037f837c1e9332a0f2a07957b935b9ee0a5912f2b"),
    ("verify lemma2 --group F3 --r 1 --k 20",
     "0f7c3561019d742099aa223bf53016e3daf5b79b8e45ab47d12bb7fe2a5c0b4a"),
    ("verify lemma2 --group Z --r 2 --k 30",
     "872aa34a58620bf5826823ee5050f95611bb32071ea4d994d246ea1790ad055b"),
    ("verify lemma2 --group C12 --r 1 --k 8",
     "7b423b22b80a6494228ca2d69758673d5e6d55524148e229a0f68fb4f7127e5d"),
    ("verify lemma2 --group Z^1xC5 --r 1 --k 6",
     "83c31ed9a084650918f4a03169e5504a5edf31b16911a0636580cb50568b018f"),
    ("zseries --group Z --r 1 --alpha 1.0 --k 3",
     "f43bd8eb5ea6abd464dd729090f536e3e1f3556c624a29c1a925f0797a752c16"),
    ("zseries --group H3 --r 1 --alpha 1.0 --k 6",
     "a21fd40e085d7af398bf3f411b606e65a34be397767981e862579e5e1ba8e26b"),
    ("zseries --group F2 --r 1 --alpha 1.0 --k 3",
     "93dbac6e76ee000f5ce537d43dea501d7685eaf3347fe5c96978547694b5eba2"),
    ("zseries --group Z^2 --r 2 --alpha 0.75 --k 10",
     "0391e7ae7fdc797183050fdf4515016ac6dfbd1f27fa7e9bc5d78528989f2b4b"),
    ("zseries --group C12 --r 1 --alpha 1.0 --k 8",
     "8e1060f42dba76e2a381406265192b909e0f85145a7ef156d166754872c291e9"),
    ("zseries --group Z^1xF2 --r 1 --alpha 1.0 --k 4",
     "6715a2ec54dde031885dedb6951605891c24692969b8d72a2ca1a1573f21d31f"),
    ("zseries --group F2 --r 2 --alpha 1.0 --k 300",
     "7f9344956d425da35889b5ffd03664d49bddbea47c05729ce0c04016c8d68c2a"),
    ("zseries --group Z^2 --r 10 --alpha 1.0 --k 20",
     "af1da8949f71dc619a650b41d3d1e675cad2393f7e9909225e3eabf0c6d3ae42"),
    ("zseries --group F2 --r 2 --alpha 0.54 --k 12",
     "07a46f53be52814cb85d344d3327abb4f2c5d095868815bdbc10463bd0eaed0f"),
    ("zseries --group Z --r 2 --alpha 1.0 --k 8",
     "c288141324abe1dcf13c5ce9f69e892b9a6a4287879c92fb08d15cf0778d2f42"),
    ("verify heredity --embedding Z:Z^2:diag --range 4:8:4",
     "7c666dd1a046a97dd886fb63ce5840c8470bbef173d57db1382096ee5ffb1ee8"),
    ("verify heredity --embedding Z:F2 --range 4:8:4",
     "00de37458fc82674e80f511d0c197b2a924315c83bd435d70d3d377a1bc825b5"),
    ("norm --group Z^1xF2 --witness ball --n 2 --method trace --depth 2",
     "72c6e9bc587d79e73a64bbc989d6e80e3f777bff1acfc239025f41379b0d094f"),
    ("norm --group C3xC4 --witness sphere --n 2 --method trace --depth 2",
     "2281c88bda0efe2f39209f9e7143d80691bfd0e7d1063af1532eb2bba89da15a"),
    ("norm --group Z^2 --witness ball --n 3 --method power --R 4",
     "0e7825ef92aaec07523ae8ce18bb2b0470a9e635aa8421378abe1f3890e41a27"),
    # the power-iteration job of the dense workload: 63 iterations
    ("norm --group H3 --witness ball --n 3 --method power --R 10 --seed 1",
     "c057bd3b13cdc6014b4ed5a2d52e9941c1a076abc7b42b652a630dfad2605ddc"),
    ("verify lemma1 --group C3xC4 --radius 4",
     "37427243d500f801a0d44a8d1311da95c33c0d383f1ee919fc20f52e019c41e0"),
    # deep radial ladders, whose products reach 513 to 1,153 coefficients
    ("ratio --group F2 --range 2:10 --method trace --exponent 1024 "
     "--format json",
     "addd329a4873e5aa1c6a0051ea7b69e7d1638b36a2b42768d65206a3b85a861b"),
    ("ratio --group F2 --witness aN --d-hat 1.0 --range 2:10 --method trace "
     "--exponent 1024 --format json",
     "72482d1f1126f36860fa0b0bac715859bfded64d20b289f0f6f3900b02c46103"),
    ("ratio --group F3 --witness sphere --range 1:7 --method trace "
     "--exponent 1024 --format json",
     "1189ec846c44dde0f5ccc64bb670d0c0ab9677a2ece5b887732c67bc818d8bbf"),
    ("norm --group F2 --witness sphere --n 1 --method trace --exponent 10000",
     "b7a4170b19862f27ef6556af60bbaeb1dda8764aaf19556930e2ee278a204e76"),
]


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        out = tmp_path / "rep.json"
        args = ["report", "--group", "Z", "--range", "4:32:4",
                "--s-list", "0.4", "--method", "exact", "--out", str(out)]
        assert run_command(args) == 0
        first = out.read_bytes()
        assert run_command(args) == 0
        assert out.read_bytes() == first

    def test_ratio_deterministic_with_power_method(self, tmp_path):
        out = tmp_path / "r.csv"
        args = ["ratio", "--group", "Z", "--witness", "sphere",
                "--range", "2:6:2", "--method", "power", "--R", "16",
                "--iters", "60", "--seed", "7", "--out", str(out)]
        assert run_command(args) == 0
        first = out.read_bytes()
        assert run_command(args) == 0
        assert out.read_bytes() == first

    def test_manifest_records_artifact_digest(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_command(["growth", "--group", "Z", "--radius", "4",
                            "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
        assert manifest["artifact_sha256"] == hashlib.sha256(
            out.read_bytes()).hexdigest()
        # the digest cache build reports is the digest of the file it wrote
        built = tmp_path / "built.json"
        assert run_command(["cache", "build", "--group", "Z", "--radius", "4",
                            "--cache-dir", str(tmp_path),
                            "--out", str(built)]) == 0
        report = json.loads(built.read_text())
        assert report["sha256"] == hashlib.sha256(
            Path(report["path"]).read_bytes()).hexdigest()

    @pytest.mark.parametrize("argv,sha256", ARTIFACT_DIGESTS,
                             ids=[argv for argv, _ in ARTIFACT_DIGESTS])
    def test_lemma_and_zseries_artifact_digests(self, argv, sha256, tmp_path):
        out = tmp_path / "artifact.json"
        assert run_command(argv.split() + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
        strict_json(out.read_text())


class TestSharedParser:
    """run_command parses every command of a process with the one parser
    built at import, so no command may leave state in it for the next."""

    # commands run between the pinned ones: a usage error (no --group), the
    # version and a budget stop
    DETOURS = [("growth --radius 2", 2),
               ("--version", 0),
               ("norm --group H3 --witness ball --n 2 --method power --R 3 "
                "--budget 0", 3)]

    def test_one_process_runs_the_pinned_commands_in_either_order(
            self, tmp_path, monkeypatch, capsys):
        def no_parser():
            raise AssertionError("run_command built a parser")
        monkeypatch.setattr(rdlab.cli, "build_parser", no_parser)
        out = tmp_path / "artifact.json"
        for order in (ARTIFACT_DIGESTS, ARTIFACT_DIGESTS[::-1]):
            for i, (argv, sha256) in enumerate(order):
                detour, code = self.DETOURS[i % len(self.DETOURS)]
                capsys.readouterr()
                assert run_command(detour.split()) == code, detour
                if detour == "--version":
                    assert capsys.readouterr().out == rdlab.__version__ + "\n"
                assert run_command(argv.split() + ["--out", str(out)]) == 0, argv
                assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256, argv

    @staticmethod
    def parsers(parser):
        """``parser`` and every parser below it, sub-subcommands included."""
        yield parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for child in action.choices.values():
                    yield from TestSharedParser.parsers(child)

    def test_no_action_carries_a_value_from_one_command_to_the_next(self):
        immutable = (type(None), bool, int, float, str)
        parsers = list(self.parsers(rdlab.cli.PARSER))
        # the top level, 8 subcommands, 5 verify checks and 2 cache actions
        assert len(parsers) == 16
        for parser in parsers:
            for action in parser._actions:
                assert type(action.default) in immutable, action
                assert type(action.const) in immutable, action
                assert not isinstance(action, (argparse._AppendAction,
                                               argparse._AppendConstAction)), action
            for name, value in parser._defaults.items():
                assert isinstance(value, types.FunctionType), name


class TestStrictJson:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_text_refuses_what_json_cannot_hold(self, value):
        with pytest.raises(ValueError):
            rdlab.cli.json_text({"x": value})

    def test_readme_commands_write_strict_json(self, tmp_path, monkeypatch,
                                               capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S)
        monkeypatch.chdir(tmp_path)
        parsed = 0
        for line in block.group(1).splitlines():
            argv = shlex.split(line)[1:]
            assert run_command(argv) == 0, line
            texts = [capsys.readouterr().out]
            if "--out" in argv:
                out = argv[argv.index("--out") + 1]
                texts += [Path(out).read_text(),
                          Path(out + ".manifest.json").read_text()]
            for text in texts:
                if text.startswith("{"):
                    strict_json(text)
                    parsed += 1
        assert parsed >= 12


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rdlab.cli", "growth", "--group", "Z",
             "--radius", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "3,2,7" in proc.stdout

    def test_package_invocation(self):
        # python -m rdlab runs rdlab/__main__.py, with the exit code of main
        for argv, code, out in [(["growth", "--group", "Z", "--radius", "3"],
                                 0, "3,2,7"),
                                (["verify", "doubling", "--group", "Z"], 1,
                                 '"ok": false')]:
            proc = subprocess.run([sys.executable, "-m", "rdlab"] + argv,
                                  capture_output=True, text=True)
            assert proc.returncode == code
            assert out in proc.stdout
