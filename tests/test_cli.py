import argparse
import hashlib
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rdlab as R
import rdlab.cli
import rdlab.groups
from rdlab.cache import (
    CacheFormatError,
    cache_roundtrip,
    find_cache,
    read_ball_cache,
    write_ball_cache,
)
from rdlab.cli import build_parser, run_command


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
        radii = []
        index = rdlab.cli._Run.index

        def recording_index(run, spec, radius, *args):
            radii.append(radius)
            return index(run, spec, radius, *args)
        monkeypatch.setattr(rdlab.cli._Run, "index", recording_index)
        assert run(["verify", "lemma1", "--group", "F2"] + flags, tmp_path,
                   "l1.json") == 0
        assert json.loads((tmp_path / "l1.json").read_text())["worst_pair"] == pair
        assert radii == [radius]

    def test_lemma2(self, capsys):
        code = run_command(["verify", "lemma2", "--group", "F2", "--r", "2",
                            "--alpha", "1", "--beta", "1", "--k", "6"])
        assert code == 0

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
    ESTIMATOR = {"--method", "--depth", "--exponent", "--iters", "--extrapolate",
                 "--R", "--seed"}
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
        "cache check": COMMON | {"--radius", "--file"},
        "verify lemma1": COMMON | {"--radius", "--n", "--k", "--min-slack"},
        "verify lemma2": COMMON | {"--r", "--alpha", "--beta", "--k",
                                   "--min-slack"},
        "verify doubling": COMMON | {"--r", "--k"},
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
        ("fit", ["fit --group H3 --range 2:5 --method exact"]),
        ("zseries", ["zseries --group H3 --r 1 --alpha 1.0 --k 3"]),
        ("report", ["report --group H3 --range 2:6 --method exact"]),
        ("cache build", ["cache build --group Z --radius 2 --cache-dir {tmp}"]),
        ("verify lemma1", ["verify lemma1 --group H3 --radius 3",
                           "verify lemma1 --group H3 --n 1 --k 1"]),
        ("verify lemma2", ["verify lemma2 --group H3 --k 3"]),
        ("verify doubling", ["verify doubling --group H3 --k 2"]),
        ("verify heredity", ["verify heredity --embedding Z:Z --range 4:4 "
                             "--method trace --depth 1"]),
        ("verify divergence", ["verify divergence --group H3 --range 2:6:2 "
                               "--method exact"]),
        ("cache check", ["cache check --group Z --radius 2 --cache-dir {tmp}",
                         "cache check --file {tmp}/Z^1.N2.ballcache"]),
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
            args.func(rdlab.cli._Run(args), args)
            read |= args._read
        parser = self.parsers()[name]
        assert read - {"func"} == self.accepted(parser, lambda a: a.dest) - {"check"}

    @pytest.mark.parametrize("argv", [
        "verify lemma1 --group Z --seed 3",
        "verify heredity --embedding Z:Z^2 --group Z",
        "norm --group Z --witness ball --n 2 --format csv",
        "zseries --group Z --r 1 --alpha 1.0 --k 3 --format csv",
        "growth --group Z --radius 2 --seed 1",
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

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S)
        lines = [line for line in block.group(1).splitlines()
                 if line.startswith("rdlab ")]
        assert len(lines) >= 13
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])


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
        # a cache spares the enumeration, so only the element meets --budget
        cache = str(tmp_path / "c")
        assert run(["cache", "build", "--group", "Z^2", "--radius", "20",
                    "--cache-dir", cache]) == 0
        argv = ["zseries", "--group", "Z^2", "--r", "2", "--alpha", "1.0",
                "--k", "10", "--cache-dir", cache]
        for budget, size in [("841", 841), ("840", None)]:
            assert run(argv + ["--budget", budget], tmp_path, "z.json") == 0
            element = json.loads((tmp_path / "z.json").read_text())["element"]
            assert (len(element["coeffs"]) if element else None) == size

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

        def recording_get_index(run, spec, radius):
            calls["get_index"].append((spec.descriptor(), radius))
            return get_index(run, spec, radius)

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

    def test_the_index_loads_at_its_first_read(self, index_calls):
        run = rdlab.cli._Run(build_parser().parse_args(
            ["growth", "--group", "H3", "--radius", "0"]))
        index = run.index(R.DiscreteHeisenberg(), 2, "power", R=4)
        assert (index.spec.descriptor(), index.radius) == ("H3", 4)
        assert index_calls["get_index"] == []
        assert index.sphere_sizes == [1, 4, 12, 36, 82]
        assert (1, 0, 0) in index and index.length((1, 0, 0)) == 1
        assert index_calls["get_index"] == [("H3", 4)]

    def test_a_failed_load_raises_its_own_error(self, capsys, index_calls):
        loads = []

        def load(spec, radius):
            loads.append(radius)
            raise AttributeError("inside the load")
        index = rdlab.cli._LazyIndex(R.FreeGroup(2), 3, load)
        with pytest.raises(AttributeError, match="inside the load"):
            index.sphere_sizes
        assert loads == [3]
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

    @pytest.mark.parametrize("argv,radius", [
        ("ratio --group H3 --witness sphere --range 1:3 --method trace "
         "--depth 2", 3),
        ("fit --group H3 --range 2:5 --method exact", 5),
        ("report --group H3 --range 2:6 --method exact", 6),
        ("norm --group H3 --witness ball --n 2 --method trace --depth 2", 2),
        ("norm --group H3 --witness ball --n 2 --method power --R 4 "
         "--iters 20", 4),
        ("zseries --group H3 --r 1 --alpha 1.0 --k 4", 4),
        ("verify lemma1 --group H3 --radius 4", 4),
        ("verify lemma1 --group H3 --n 2 --k 1", 3),
        ("verify lemma2 --group H3 --r 1 --k 3", 3),
        ("verify divergence --group H3 --s 0.4 --range 2:6:2 --method exact", 6),
        ("ratio --group Z^2 --range 2:5 --method trace --depth 2", 5),
        ("ratio --group Z^1xF2 --range 1:2 --depth 2", 2),  # auto: trace
        ("zseries --group F2 --r 1 --alpha 1.0 --k 7", 7),   # |B_7| = 4,373
        ("zseries --group H3 --r 1 --alpha 1.0 --k 12", 12),
        ("zseries --group H3 --r 1 --alpha 1.0 --k 13", 13),
    ])
    def test_h3_reads_one_index_of_the_radius_used(self, argv, radius,
                                                   index_calls):
        argv = argv.split()
        group = argv[argv.index("--group") + 1]
        assert run_command(argv) == 0
        assert index_calls["get_index"] == [(group, radius)]
        assert index_calls["enumerate"] == [(group, radius)]

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

    def test_h3_doubling_reads_sizes_to_r_times_k_plus_1(self, index_calls):
        assert run_command(["verify", "doubling", "--group", "H3",
                            "--r", "1", "--k", "3"]) == 1
        assert index_calls["get_index"] == [("H3", 4)]

    def test_given_element_needs_an_index_only_for_power(self, tmp_path,
                                                          index_calls):
        path = tmp_path / "el.json"
        ball = R.char_ball(rdlab.groups.enumerate_balls(R.DiscreteHeisenberg(), 1), 1)
        path.write_text(json.dumps(ball.to_json_dict()))
        index_calls["enumerate"].clear()
        base = ["norm", "--group", "H3", "--element", str(path)]
        assert run_command(base + ["--method", "trace", "--depth", "2"]) == 0
        assert index_calls["get_index"] == []
        assert run_command(base + ["--method", "power", "--R", "3",
                                   "--iters", "20"]) == 0
        assert index_calls["get_index"] == [("H3", 3)]

    def test_power_on_a_radius_zero_witness(self, tmp_path, index_calls):
        assert run(["norm", "--group", "Z^2", "--witness", "ball", "--n", "0",
                    "--method", "power"], tmp_path, "n.json") == 0
        est = json.loads((tmp_path / "n.json").read_text())
        assert (est["lower"], est["upper"]) == (1.0, 1.0)
        assert index_calls["get_index"] == [("Z^2", 1)]

    def test_heredity_power_reads_the_domain_radius(self, index_calls):
        assert run_command(["verify", "heredity", "--embedding", "Z:Z^2",
                            "--range", "4:8:4", "--method", "power",
                            "--R", "10"]) == 0
        assert index_calls["get_index"] == [("Z^1", 10), ("Z^2", 10)]

    def test_heredity_reads_no_domain_radius_without_power(self, index_calls):
        assert run_command(["verify", "heredity", "--embedding", "Z:Z^2",
                            "--range", "4:8:4", "--method", "trace",
                            "--depth", "2", "--R", "20"]) == 0
        assert index_calls["get_index"] == [("Z^1", 9), ("Z^2", 8)]

    def test_power_on_a_free_group_reads_the_domain_ball(self, index_calls):
        assert run_command(["norm", "--group", "F2", "--witness", "ball",
                            "--n", "2", "--method", "power", "--R", "3",
                            "--iters", "20"]) == 0
        assert index_calls["get_index"] == [("F2", 3)]

    def test_small_series_still_attach_the_dense_element(self, tmp_path,
                                                        index_calls):
        assert run(["zseries", "--group", "F2", "--r", "1", "--alpha", "1.0",
                    "--k", "3"], tmp_path, "z.json") == 0
        assert index_calls["get_index"] == [("F2", 3)]
        data = json.loads((tmp_path / "z.json").read_text())
        assert len(data["element"]["coeffs"]) == R.ball_sizes(R.FreeGroup(2), 3)[3]

    @pytest.mark.parametrize("argv,radius", [
        ("ratio --group H3 --range 2:6 --method exact", 6),
        ("ratio --group H3 --witness aN --d-hat 2.0 --range 2:6 --method l1", 6),
        ("fit --group H3 --range 2:5 --method exact", 5),
        ("report --group H3 --range 2:6 --method exact", 6),
        ("norm --group H3 --witness sphere --n 4 --method exact", 4),
        ("verify divergence --group H3 --s 0.4 --range 2:6:2 --method exact", 6),
    ])
    def test_h3_exact_norms_need_no_dense_witness(self, argv, radius,
                                                  index_calls, monkeypatch):
        expanded = []
        monkeypatch.setattr(rdlab.rd, "witness_element",
                            lambda *args: expanded.append(args))
        assert run_command(argv.split()) == 0
        assert expanded == []
        assert index_calls["get_index"] == [("H3", radius)]

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

    def test_missing_arguments(self):
        assert run_command(["verify", "lemma1"]) == 2
        assert run_command(["verify", "heredity"]) == 2
        assert run_command(["cache", "build"]) == 2
        assert run_command(["cache", "check"]) == 2
        assert run_command(["norm", "--group", "Z"]) == 2

    def test_malformed_element_json(self, tmp_path):
        path = tmp_path / "el.json"
        path.write_text(json.dumps({"group": "Z^2", "support_radius": 1,
                                    "coeffs": [["0,3", 1.0]]}))
        assert run_command(["norm", "--group", "Z^2", "--element", str(path),
                            "--method", "l1"]) == 2

    def test_budget_error(self):
        assert run_command(["growth", "--group", "Z^2", "--radius", "6",
                            "--budget", "10"]) == 3

    def test_verification_failure(self):
        assert run_command(["verify", "doubling", "--group", "Z",
                            "--r", "2", "--k", "4"]) == 1


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
        assert "digest mismatch" in capsys.readouterr().err

    @pytest.fixture
    def z2_cache(self, tmp_path):
        path = tmp_path / "Z^2.N6.ballcache"
        write_ball_cache(R.enumerate_balls(R.FreeAbelian(2), 6), path)
        return path

    def test_truncated_file_is_rejected(self, z2_cache):
        lines = z2_cache.read_text().splitlines(keepends=True)
        z2_cache.write_text("".join(lines[:-5]))
        with pytest.raises(CacheFormatError,
                           match="sphere 6 has 19 elements, the closed form 24"):
            read_ball_cache(z2_cache, R.FreeAbelian(2))

    def test_cut_file_without_closed_sizes_is_rejected(self, tmp_path):
        path = tmp_path / "H3.N6.ballcache"
        write_ball_cache(rdlab.groups.enumerate_balls(R.DiscreteHeisenberg(), 6),
                         path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-10]))
        with pytest.raises(CacheFormatError,
                           match="sphere 6 has 284 elements, the header 294"):
            read_ball_cache(path)

    def test_v1_file_is_rejected(self, z2_cache, capsys):
        header, *records = z2_cache.read_text().splitlines(keepends=True)
        z2_cache.write_text("rdlab-ball-cache v1 | Z^2 | N=6\n" + "".join(records))
        with pytest.raises(CacheFormatError, match="rebuild it"):
            read_ball_cache(z2_cache)
        assert run_command(["cache", "check", "--file", str(z2_cache)]) == 1
        assert "rebuild it" in capsys.readouterr().err
        # a command reading the index fails at its first read, exit 2
        assert run_command(["verify", "lemma1", "--group", "Z^2", "--radius", "5",
                            "--cache-dir", str(z2_cache.parent)]) == 2
        assert "rebuild it" in capsys.readouterr().err

    def test_records_out_of_order_are_rejected(self, z2_cache):
        header, *records = z2_cache.read_text().splitlines(keepends=True)
        z2_cache.write_text(header + "".join(reversed(records)))
        with pytest.raises(CacheFormatError, match=r"out of \(length, key\) order"):
            read_ball_cache(z2_cache)

    def test_other_generators_never_read_a_cache(self, z2_cache):
        spec = R.FreeAbelian(2, generators=[(1, 0), (-1, 0), (1, 1), (-1, -1)])
        assert spec.descriptor() == "Z^2"
        assert find_cache(z2_cache.parent, spec, 3) is None
        with pytest.raises(CacheFormatError, match="standard generators"):
            read_ball_cache(z2_cache, spec)
        assert read_ball_cache(z2_cache).sphere_sizes == [1, 4, 8, 12, 16, 20, 24]

    def test_a_product_with_a_custom_factor_reads_no_cache(self, tmp_path):
        # the product's descriptor names no generating set of its factors
        standard = R.DirectProduct([R.FreeGroup(2), R.FreeAbelian(1)])
        path = tmp_path / "F2xZ^1.N3.ballcache"
        write_ball_cache(R.enumerate_balls(standard, 3), path)
        spec = R.DirectProduct([R.FreeGroup(2, generators=["a", "A", "ab", "BA"]),
                                R.FreeAbelian(1)])
        assert spec.descriptor() == "F2xZ^1"
        assert not spec.has_standard_generators()
        assert spec.closed_sphere_sizes(3) is None
        assert find_cache(tmp_path, spec, 3) is None
        with pytest.raises(CacheFormatError, match="standard generators"):
            read_ball_cache(path, spec)
        assert find_cache(tmp_path, standard, 3) == path

    def test_commands_reuse_cache(self, tmp_path):
        cache_dir = tmp_path / "caches"
        assert run_command(["cache", "build", "--group", "H3", "--radius", "6",
                            "--cache-dir", str(cache_dir)]) == 0
        out = tmp_path / "g.csv"
        assert run_command(["growth", "--group", "H3", "--radius", "6",
                            "--cache-dir", str(cache_dir),
                            "--out", str(out)]) == 0
        manifest = json.loads((out.parent / "g.csv.manifest.json").read_text())
        assert manifest["cache_files"]
        assert manifest["cache_files"][0]["path"].endswith("H3.N6.ballcache")

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "envcaches"
        monkeypatch.setenv("RDLAB_CACHE_DIR", str(cache_dir))
        assert run_command(["cache", "build", "--group", "Z^2",
                            "--radius", "5"]) == 0
        assert (cache_dir / "Z^2.N5.ballcache").exists()


# the lemma1, lemma2 and zseries artifacts, pinned byte for byte: the
# radial and dense checks on every kind of group, zseries with and
# without its dense element
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
     "f03238b10599eb41a6cdda169ff32077f124f431523139926af411392fda9713"),
    ("verify lemma2 --group H3 --r 1 --k 7",
     "302ee66a6bd00baecd445e6961c9310251485bdf726d3bda8abeb44dcd6235b4"),
    ("verify lemma2 --group F2 --r 1 --k 600",
     "18f107e0f428b3cb5eb8815b5b0eacd6860c5ec6199108d077160a9960183934"),
    ("verify lemma2 --group F3 --r 1 --k 20",
     "715771ecf09ec28f02b70d20632157a498e9e121b5105c1eda311c864ce37c7f"),
    ("verify lemma2 --group Z --r 2 --k 30",
     "22b0decdd4ef290cb598234aaa3ea70d9b2d54834a9675f092f3a0e218d23038"),
    ("verify lemma2 --group C12 --r 1 --k 8",
     "7b423b22b80a6494228ca2d69758673d5e6d55524148e229a0f68fb4f7127e5d"),
    ("verify lemma2 --group Z^1xC5 --r 1 --k 6",
     "274ea5cce6cad0e89363f406ff348177f7555a53961a993454c4a33b03e4e53c"),
    ("zseries --group Z --r 1 --alpha 1.0 --k 3",
     "658fc6f9f31dc23d807c026d81538ada7bd7309bae91bd6916e2fa69d99693e6"),
    ("zseries --group H3 --r 1 --alpha 1.0 --k 6",
     "c547e2e4b9168e12a55d0cea68b5664ecdaf545d5412bd1b89ff2cee69ab3375"),
    ("zseries --group F2 --r 1 --alpha 1.0 --k 3",
     "9c56992b99c13bbd2c9535c4ad49379f70a00f9cdb73c3d605e17942ee21d008"),
    ("zseries --group Z^2 --r 2 --alpha 0.75 --k 10",
     "b3c86aca10ba8b2b13be2051c408a9ab69862433ca86662935cfba007c7cdf39"),
    ("zseries --group C12 --r 1 --alpha 1.0 --k 8",
     "ec11c41ffc369388bf026ee7f63c0117124d3756750b5cc67185bbad988b3b2e"),
    ("zseries --group Z^1xF2 --r 1 --alpha 1.0 --k 4",
     "93792d2485a036cf9e86fb6827fbda476659e0c7840e140687d702b7661057bc"),
    ("zseries --group F2 --r 2 --alpha 1.0 --k 300",
     "0ae446dffcd2cdcffb4896d62f8291f4e73b403f50bd78bbed50625c52b94e02"),
    ("zseries --group Z^2 --r 10 --alpha 1.0 --k 20",
     "481a91ffaaf418574381553a9917a45ecb2737b3a1f510df9dcd9b32d10e58e9"),
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

    @pytest.mark.parametrize("argv,sha256", ARTIFACT_DIGESTS,
                             ids=[argv for argv, _ in ARTIFACT_DIGESTS])
    def test_lemma_and_zseries_artifact_digests(self, argv, sha256, tmp_path):
        out = tmp_path / "artifact.json"
        assert run_command(argv.split() + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rdlab.cli", "growth", "--group", "Z",
             "--radius", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "3,2,7" in proc.stdout
