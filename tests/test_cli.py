import json
import os

import pytest

from puriscope.cli import main


def run_cli(tmp_path, *args):
    out = tmp_path / "result.json"
    rc = main(list(args) + ["--out", str(out), "--jobs", "1"])
    payload = json.loads(out.read_text()) if out.exists() else None
    return rc, payload, out


class TestCliRuns:
    def test_identities(self, tmp_path):
        rc, payload, _ = run_cli(tmp_path, "identities", "--trials", "6", "--seed", "7")
        assert rc == 0
        assert payload["experiment"] == "identities"
        assert payload["summary"]["pass"] is True
        devs = payload["summary"]["metrics"]["max_deviation"]
        assert all(v <= 1e-9 for v in devs.values())

    def test_moment_schema(self, tmp_path):
        rc, payload, _ = run_cli(
            tmp_path, "moment", "--n", "3", "--trials", "4", "--budget", "8000", "--seed", "3"
        )
        assert rc == 0
        assert set(payload) == {
            "experiment",
            "config",
            "results",
            "summary",
            "seed",
            "version",
            "timestamp",
        }
        assert len(payload["results"]) == 4
        assert payload["version"].startswith("puriscope-")

    def test_swap_test(self, tmp_path):
        rc, payload, _ = run_cli(
            tmp_path, "swap-test", "--n", "2", "--t", "2", "--budget", "4000",
            "--trials", "4", "--seed", "5",
        )
        assert rc == 0
        assert payload["summary"]["metrics"]["max_exact_oracle_gap"] <= 1e-9

    def test_crypto_blind(self, tmp_path):
        rc, payload, _ = run_cli(
            tmp_path, "crypto-blind", "--n", "3", "--rounds", "10000", "--seed", "1"
        )
        assert rc == 0
        row = payload["results"][0]
        assert abs(row["keep_fraction"] - 0.5) <= 0.02

    def test_separation_csv(self, tmp_path):
        rc, payload, out = run_cli(
            tmp_path, "separation", "--task", "purity", "--n", "3..4",
            "--budget", "1600", "--trials", "25", "--seed", "9", "--format", "csv",
        )
        assert rc == 0
        csv_file = out.with_suffix(".csv")
        assert csv_file.exists()
        header = csv_file.read_text().splitlines()[0]
        assert {"n", "strategy", "success"} <= set(header.split(","))
        assert len(payload["results"]) == 4


class TestCliContract:
    def test_unknown_subcommand_exits_64(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["definitely-not-real"])
        assert err.value.code == 64

    def test_nonpositive_trials_exits_64(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["moment", "--n", "2", "--trials", "0", "--jobs", "1"])
        assert err.value.code == 64
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, n", [("separation", "3..2"), ("moment", "abc"), ("moment", "2..1")]
    )
    def test_bad_n_exits_64(self, tmp_path, capsys, experiment, n):
        out = tmp_path / "result.json"
        with pytest.raises(SystemExit) as err:
            main([experiment, "--n", n, "--trials", "1", "--jobs", "1", "--out", str(out)])
        assert err.value.code == 64
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_subcommand_exits_64(self):
        assert main([]) == 64

    def test_precondition_failure_exits_2(self, tmp_path):
        rc, payload, _ = run_cli(
            tmp_path, "moment", "--n", "3", "--rank", "2", "--ancilla", "0",
            "--trials", "2", "--seed", "1",
        )
        assert rc == 2
        assert payload is None

    def test_determinism_modulo_timestamp(self, tmp_path):
        _, first, _ = run_cli(
            tmp_path, "cooling", "--n", "3", "--trials", "3", "--budget", "6000", "--seed", "21"
        )
        _, second, _ = run_cli(
            tmp_path, "cooling", "--n", "3", "--trials", "3", "--budget", "6000", "--seed", "21"
        )
        first.pop("timestamp")
        second.pop("timestamp")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PURISCOPE_SEED", "777")
        rc, payload, _ = run_cli(tmp_path, "identities", "--trials", "2")
        assert rc == 0
        assert payload["seed"] == 777

    def test_parallel_matches_serial(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["pca", "--n", "3", "--trials", "4", "--budget", "6000", "--seed", "4",
              "--jobs", "1", "--out", str(out_a)])
        main(["pca", "--n", "3", "--trials", "4", "--budget", "6000", "--seed", "4",
              "--jobs", "2", "--out", str(out_b)])
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["results"] == b["results"]
