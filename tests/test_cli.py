import json
import math
import subprocess
import sys

import pytest

import rdlab as R
import rdlab.cli
import rdlab.groups
from rdlab.cache import cache_roundtrip
from rdlab.cli import run_command


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

    def test_divergence_both_expectations(self, capsys):
        base = ["verify", "divergence", "--group", "Z", "--range", "8:256:8",
                "--method", "exact"]
        assert run_command(base + ["--s", "0.4", "--expect", "divergent"]) == 0
        assert run_command(base + ["--s", "0.5", "--expect", "bounded trend"]) == 0
        assert run_command(base + ["--s", "0.5", "--expect", "divergent"]) == 1


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
    ])
    def test_free_group_witnesses_read_no_index(self, argv, index_calls):
        assert run_command(argv.split()) == 0
        assert index_calls == {"get_index": [], "enumerate": []}

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
    ])
    def test_h3_reads_one_index_of_the_radius_used(self, argv, radius,
                                                   index_calls):
        assert run_command(argv.split()) == 0
        assert index_calls["get_index"] == [("H3", radius)]
        assert index_calls["enumerate"] == [("H3", radius)]

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
        assert len(data["element"]["coeffs"]) == R.free_ball_size(2, 3)

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
        assert est["upper"] == math.fsum(R.free_sphere_size(2, m) / (1 + m)
                                         for m in range(1, 6)) == 90.6

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
        assert text[0] == "rdlab-ball-cache v1 | Z^2 | N=10"
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
        import hashlib
        out = tmp_path / "g.csv"
        assert run_command(["growth", "--group", "Z", "--radius", "4",
                            "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
        assert manifest["artifact_sha256"] == hashlib.sha256(
            out.read_bytes()).hexdigest()


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rdlab.cli", "growth", "--group", "Z",
             "--radius", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "3,2,7" in proc.stdout
