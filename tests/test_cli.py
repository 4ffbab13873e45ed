import argparse
import functools
import gc
import json
import math
import operator
import os
import types

import numpy as np
import pytest

import puriscope
from puriscope import cli
from puriscope.cli import main
from puriscope.errors import InsufficientDataError
from puriscope.reports import EstimatorReport


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
            "environment",
            "version",
            "timestamp",
        }
        assert len(payload["results"]) == 4
        assert payload["version"] == f"puriscope-{puriscope.__version__}"

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

    @pytest.mark.parametrize("rounds", ["200", "1000"])
    def test_crypto_blind_gates_follow_the_round_count(self, tmp_path, rounds):
        # the gates are set at the default 10,000 rounds and scale as the 1/sqrt(rounds) shot noise
        rc, _, _ = run_cli(tmp_path, "crypto-blind", "--n", "2", "--rounds", rounds, "--seed", "1")
        assert rc == 0

    @pytest.mark.parametrize(
        "args, rows",
        [
            (("qfi", "--n", "3", "--trials", "2"), 2),
            (("channel-unitarity", "--n", "1", "--budget", "10000", "--trials", "2"), 2),
            (("channel-distill", "--n", "1", "--budget", "100000", "--trials", "2"), 2),
            (("channel-pca", "--n", "1", "--budget", "200000", "--trials", "2"), 2),
            (("crypto-verify", "--n", "3", "--trials", "4", "--budget", "2000"), 3),
        ],
        ids=lambda v: v[0] if isinstance(v, tuple) else None,
    )
    def test_runs_with_finite_rows(self, tmp_path, args, rows):
        rc, payload, _ = run_cli(tmp_path, *args)
        assert rc in (0, 3)
        assert len(payload["results"]) == rows  # crypto-verify: one row per server kind

        def leaves(value):
            if isinstance(value, (dict, list)):
                items = value.values() if isinstance(value, dict) else value
                return [x for v in items for x in leaves(v)]
            return [] if isinstance(value, str) else [value]

        values = leaves(payload["results"])
        assert values and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)

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

    @pytest.mark.parametrize(
        "flag, value", [("--trials", "0"), ("--jobs", "0"), ("--jobs", "-1"), ("--seed", "-1")]
    )
    def test_nonpositive_trials_exits_64(self, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(["moment", "--n", "2", "--trials", "1", "--jobs", "1", flag, value])
        assert err.value.code == 64
        assert flag in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "argv", [("qfi", "--rounds", "5"), ("qfi", "--t", "3"), ("identities", "--n", "3")]
    )
    def test_unread_flag_exits_64(self, tmp_path, capsys, argv):
        # --t is not taken as an abbreviation of qfi's --trials
        out = tmp_path / "result.json"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--trials", "1", "--jobs", "1", "--out", str(out)])
        assert err.value.code == 64
        assert argv[1] in capsys.readouterr().err
        assert not out.exists()

    def test_missing_subcommand_exits_64(self):
        assert main([]) == 64

    def test_subcommands_are_the_experiment_table(self):
        subparsers = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert list(subparsers.choices) == list(cli.EXPERIMENTS) == [
            "identities", "moment", "cooling", "pca", "qfi", "channel-unitarity",
            "channel-distill", "channel-pca", "separation", "crypto-verify", "crypto-blind",
            "swap-test",
        ]

    def test_precondition_failure_exits_2(self, tmp_path):
        rc, payload, _ = run_cli(
            tmp_path, "moment", "--n", "3", "--rank", "2", "--ancilla", "0",
            "--trials", "2", "--seed", "1",
        )
        assert rc == 2
        assert payload is None

    @pytest.mark.parametrize("seed, trial", [(4, 0), (0, 3)])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_precondition_failure_names_seed_and_trial(self, tmp_path, monkeypatch, capsys, seed, trial, jobs):
        # Seed 0 fails first on trial 3, so with jobs=2 and the pool forced
        # after trial 0 the index comes back from a worker.
        monkeypatch.setattr(cli, "_POOL_AFTER_S", 0)
        out = tmp_path / "result.json"
        rc = main(["channel-pca", "--n", "3", "--trials", "4", "--jobs", str(jobs),
                   "--seed", str(seed), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"precondition failure (seed {seed}): trial {trial}: leading-weight gap ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "fn, good, payload, error",
        [
            pytest.param(np.linalg.inv, np.eye(2), np.zeros((2, 2)), "LinAlgError", id="LinAlgError"),
            pytest.param(
                functools.partial(operator.truediv, 1.0), 1.0, 0.0, "ZeroDivisionError",
                id="ZeroDivisionError",
            ),
        ],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_numerical_failure_exits_2(self, tmp_path, monkeypatch, capsys, fn, good, payload, error, jobs):
        # jobs=2 runs the good payload here, forks the pool and raises in a
        # worker, and the pool re-raises it in main.
        monkeypatch.setattr(cli, "_POOL_AFTER_S", 0)
        failing = lambda args: cli._parallel_map(fn, [good, payload, payload], args.jobs)  # noqa: E731
        monkeypatch.setitem(cli.EXPERIMENTS, "pca", (failing, cli.EXPERIMENTS["pca"][1]))
        out = tmp_path / "result.json"
        rc = main(["pca", "--n", "3", "--trials", "2", "--jobs", str(jobs), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {error}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_memory_error_exits_2(self, tmp_path, monkeypatch, capsys):
        def out_of_memory(args):
            raise MemoryError("Unable to allocate 16.0 PiB")

        monkeypatch.setitem(cli.EXPERIMENTS, "qfi", (out_of_memory, cli.EXPERIMENTS["qfi"][1]))
        out = tmp_path / "result.json"
        assert main(["qfi", "--n", "3", "--trials", "1", "--seed", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "resource failure (seed 5): MemoryError: Unable to allocate 16.0 PiB\n"
        assert not out.exists()

    @pytest.mark.parametrize("experiment, n", [("qfi", 62), ("moment", 70)])
    def test_state_past_the_address_space_exits_2(self, tmp_path, capsys, experiment, n):
        # numpy refuses such a draw with a ValueError before allocating;
        # it reads as the same resource failure as a failed allocation.
        out = tmp_path / "result.json"
        argv = [experiment, "--n", str(n), "--trials", "1", "--seed", "5", "--jobs", "1"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"resource failure (seed 5): MemoryError: 2 columns of 2**{n} amplitudes exceed the address space\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["crypto-verify", "--n", "62", "--trials", "1"],
            ["crypto-blind", "--n", "62"],
            ["channel-unitarity", "--n", "40", "--trials", "1", "--jobs", "1"],
            ["channel-pca", "--n", "62", "--trials", "1", "--jobs", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_draw_past_the_address_space_exits_2(self, tmp_path, capsys, argv):
        # a Haar vector, a Haar unitary and a random channel's frame are
        # sized by the one check that sample_ensemble's draws go through
        out = tmp_path / "result.json"
        assert main(argv + ["--seed", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("resource failure (seed 5): MemoryError: ")
        assert err.endswith(" amplitudes exceed the address space\n") and err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_out_exits_2_naming_the_path(self, tmp_path, capsys):
        rc = main(["moment", "--n", "2", "--trials", "1", "--seed", "5", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"resource failure (seed 5): cannot write {tmp_path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_crypto_blind_writes_its_transcript_in_a_new_directory(self, tmp_path):
        out = tmp_path / "new" / "x.json"
        assert main(["crypto-blind", "--n", "2", "--rounds", "2000", "--seed", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["experiment"] == "crypto-blind"
        assert len(out.with_suffix(".transcript.jsonl").read_text().splitlines()) == 2000

    def test_crypto_blind_under_a_regular_file_exits_2_naming_the_path(self, tmp_path, capsys):
        parent = tmp_path / "file"
        parent.write_text("")
        out = parent / "x.json"
        assert main(["crypto-blind", "--n", "2", "--rounds", "200", "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"resource failure (seed 1): cannot write {out}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

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

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_env_seed_exits_64(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("PURISCOPE_SEED", value)
        with pytest.raises(SystemExit) as err:
            run_cli(tmp_path, "identities", "--trials", "1")
        assert err.value.code == 64
        assert "PURISCOPE_SEED" in capsys.readouterr().err

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_POOL_AFTER_S", 0)  # trials 1-3 run in workers
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["pca", "--n", "3", "--trials", "4", "--budget", "6000", "--seed", "4",
              "--jobs", "1", "--out", str(out_a)])
        main(["pca", "--n", "3", "--trials", "4", "--budget", "6000", "--seed", "4",
              "--jobs", "2", "--out", str(out_b)])
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["results"] == b["results"]


class _RecordingPool:
    """A ProcessPoolExecutor stand-in that forks nothing: it records each pool's
    worker count and payloads, and runs them in this process."""

    opened: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads, chunksize):
        self.opened.append((self.max_workers, list(payloads)))
        return map(fn, payloads)


@pytest.mark.parametrize(
    "trials, jobs, in_process, workers",
    [
        (10, 8, 4, 6),  # 6 trials remain at the switch, so 6 workers, not 8
        (10, 2, 4, 2),
        (5, 8, 5, None),  # one trial remains at the switch: no pool
        (3, 8, 3, None),  # 0.09 s in all: no pool
        (10, 1, 10, None),
    ],
)
def test_pool_takes_the_rest_after_pool_after_s(monkeypatch, trials, jobs, in_process, workers):
    # Each trial takes 0.03 s on a fake clock, so the fourth one ends past
    # _POOL_AFTER_S = 0.1 s.
    import concurrent.futures

    clock = [0.0]

    def trial(payload):
        clock[0] += 0.03
        return payload * 10

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "opened", [])
    assert cli._POOL_AFTER_S == 0.1
    assert cli._parallel_map(trial, list(range(trials)), jobs) == [10 * p for p in range(trials)]
    expected = [] if workers is None else [(workers, list(range(in_process, trials)))]
    assert _RecordingPool.opened == expected


# A small value for every experiment flag, so each subcommand runs in well under a second.
TINY_FLAGS = {
    "n": "2", "ancilla": "1", "rank": "2", "t": "2", "budget": "400", "trials": "1",
    "rounds": "100", "task": "purity",
}


@pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
def test_every_offered_flag_is_read(tmp_path, monkeypatch, experiment):
    runner, flags = cli.EXPERIMENTS[experiment]
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    offered = {a.dest for a in subparsers.choices[experiment]._actions} - {"help"}
    assert offered == {*flags, *cli.RUN_SETTINGS}

    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    spy = lambda args: runner(Recording(**vars(args)))  # noqa: E731
    monkeypatch.setitem(cli.EXPERIMENTS, experiment, (spy, flags))
    argv = [experiment, *(x for flag in flags for x in (f"--{flag}", TINY_FLAGS[flag]))]
    rc = main(argv + ["--seed", "1", "--jobs", "1", "--out", str(tmp_path / "result.json")])
    assert rc in (0, 3)
    assert set(flags) <= reads


class TestQubitCountFlag:
    # Only separation sweeps qubit counts; everywhere else --n is one integer.
    @pytest.mark.parametrize(
        "experiment, n", [("qfi", "3..6"), ("moment", "2,3"), ("channel-pca", "1..2")]
    )
    def test_range_on_a_scalar_subcommand_exits_64(self, tmp_path, capsys, experiment, n):
        out = tmp_path / "result.json"
        with pytest.raises(SystemExit) as err:
            main([experiment, "--n", n, "--trials", "1", "--jobs", "1", "--out", str(out)])
        assert err.value.code == 64
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, swept", [("3", [3]), ("3..4", [3, 4]), ("3,4", [3, 4])])
    def test_separation_records_the_text_given(self, tmp_path, n, swept):
        rc, payload, _ = run_cli(
            tmp_path, "separation", "--n", n, "--budget", "1600", "--trials", "2", "--seed", "1"
        )
        assert rc in (0, 3)
        assert payload["config"]["n"] == n
        assert [row["n"] for row in payload["results"]] == [m for m in swept for _ in range(2)]

    @pytest.mark.parametrize(
        "experiment",
        [name for name, (_, flags) in cli.EXPERIMENTS.items() if "n" in flags and name != "separation"],
    )
    def test_scalar_config_n_is_an_int(self, tmp_path, experiment):
        flags = cli.EXPERIMENTS[experiment][1]
        argv = [x for flag in flags for x in (f"--{flag}", TINY_FLAGS[flag])]
        rc, payload, _ = run_cli(tmp_path, experiment, *argv, "--seed", "1")
        assert rc in (0, 3)
        assert payload["config"]["n"] == 2 and type(payload["config"]["n"]) is int


class TestNonFiniteResults:
    @pytest.mark.parametrize("value, stderr", [(math.nan, 0.1), (1.0, math.nan), (1.0, math.inf)])
    def test_row_refuses_non_finite(self, value, stderr):
        with pytest.raises(InsufficientDataError, match="not finite"):
            cli._row(EstimatorReport(value=value, stderr=stderr), trial=0)

    def test_non_finite_summary_exits_2(self, tmp_path, monkeypatch, capsys):
        # A value no row check covers still never reaches the file as NaN.
        nan_summary = lambda args: ([{"trial": 0}], {"metric": math.nan}, True)  # noqa: E731
        monkeypatch.setitem(cli.EXPERIMENTS, "pca", (nan_summary, cli.EXPERIMENTS["pca"][1]))
        out = tmp_path / "result.json"
        assert main(["pca", "--n", "3", "--trials", "1", "--seed", "6", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("numerical failure (seed 6): ")
        assert not out.exists()


def test_main_leaves_the_collector_alone(tmp_path):
    # The GC policy belongs to the process entry, run(); main() is for callers in-process.
    frozen = gc.get_freeze_count()
    rc, _, _ = run_cli(tmp_path, "moment", "--n", "2", "--trials", "1", "--seed", "1")
    assert rc == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def _subparser(parser, name):
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[name]


class TestSingleSubcommandParser:
    @pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
    def test_offers_what_the_full_parser_offers(self, experiment):
        def flags(parser):
            return [
                (a.option_strings, a.dest, a.default, a.type, a.choices, a.help)
                for a in _subparser(parser, experiment)._actions
            ]

        assert flags(cli.build_parser(experiment)) == flags(cli.build_parser())

    @pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
    def test_help_text_is_the_full_parsers(self, experiment, capsys):
        texts = []
        for parser in (cli.build_parser(experiment), cli.build_parser()):
            with pytest.raises(SystemExit) as err:
                parser.parse_args([experiment, "--help"])
            assert err.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    def test_top_level_help_lists_every_subcommand(self):
        full = cli.build_parser()
        assert all(cli.build_parser(name).format_help() == full.format_help() for name in cli.EXPERIMENTS)

    def test_qfi_run_adds_only_its_flags(self, tmp_path, monkeypatch):
        added = []
        add_argument = argparse._ActionsContainer.add_argument

        def recording(self, *args, **kwargs):
            added.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", recording)
        rc, _, _ = run_cli(tmp_path, "qfi", "--n", "2", "--trials", "1", "--budget", "400", "--seed", "1")
        assert rc in (0, 3)
        help_flags = 2  # puriscope's and qfi's --help
        assert len(added) == len(cli.EXPERIMENTS["qfi"][1]) + len(cli.RUN_SETTINGS) + help_flags
