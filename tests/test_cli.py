import json
import subprocess
import sys

import rdlab as R
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
