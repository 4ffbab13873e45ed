"""What a fresh interpreter loads and sets: lazy package import, CLI import budget, thread pin,
the CLI process's collector policy and its console script.

The checks of what loads run in a fresh interpreter each, because the
test process has long since imported numpy and the whole package.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import puriscope

SRC = str(pathlib.Path(puriscope.__file__).resolve().parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUBMODULES = ("core", "ensembles", "measurement", "estimators", "baselines", "channels", "crypto", "reports")
EXPORTS = [
    "DensityMatrix", "Observable", "PureState", "SpectralDecomposition",
    "eigh", "matrix_power_trace", "partial_trace", "schmidt_decompose", "trace_norm",
    "EnsembleFamily", "EnsembleSpec", "LabeledSample", "analytic_mean_purity", "child_rng",
    "classical_correlate", "haar_unitary", "purify", "sample_ensemble",
    "verification_state",
    "ShotBudget", "TomographyResult", "measure_in_basis", "tomography",
    "PurificationIdentity", "estimate_moment", "estimate_pca", "estimate_qfi",
    "estimate_virtual_cooling", "oracle_identity_check", "qfi_oracle",
    "DistinguishResult", "distinguish_experiment", "single_copy_purity_attack",
    "swap_test_moment", "wilson_interval",
    "QuantumChannel", "StinespringIsometry", "amplitude_damping_channel", "canonicalize",
    "channel_pca_estimate", "depolarizing_channel", "random_channel", "unitarity_estimate",
    "unitary_channel", "virtual_distillation_estimate",
    "BlindEstimationResult", "ServerKind", "ServerModel",
    "run_blind_estimation", "run_verification",
    "EstimatorReport",
]


def python(*args, cwd=None, expect=0, **env_vars):
    """Run a fresh interpreter on this checkout's package, without the caller's thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env.update(env_vars)
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )
    assert done.returncode == expect, done.stderr
    return done


def loaded_after(code: str) -> dict:
    """``sys.modules`` membership and ``__all__`` after running ``code`` in a fresh interpreter."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps({'modules': sorted(sys.modules), 'all': sys.modules['puriscope'].__all__}))"
    )
    return json.loads(python("-c", probe).stdout.splitlines()[-1])


class TestLazyPackage:
    def test_import_loads_no_numpy(self):
        state = loaded_after("import puriscope")
        assert "numpy" not in state["modules"]
        assert [m for m in state["modules"] if m.startswith("puriscope")] == ["puriscope"]

    def test_first_read_loads_every_submodule(self):
        state = loaded_after("import puriscope\npuriscope.EnsembleSpec")
        assert {f"puriscope.{name}" for name in SUBMODULES} <= set(state["modules"])
        assert state["all"] == EXPORTS

    def test_missing_dunder_raises_without_loading(self):
        code = (
            "import puriscope\n"
            "try:\n    puriscope.__wrapped__\n"
            "except AttributeError:\n    pass\n"
            "else:\n    raise SystemExit('no AttributeError')"
        )
        assert "numpy" not in loaded_after(code)["modules"]

    def test_from_imports(self):
        python("-c", "from puriscope import cli; assert callable(cli.main)")
        done = python("-c", "from puriscope import *; print(len([EstimatorReport, run_verification, eigh]))")
        assert done.stdout.strip() == "3"

    def test_first_read_binds_every_export(self):
        puriscope.EstimatorReport
        assert set(EXPORTS) <= set(vars(puriscope))
        assert all(getattr(puriscope, name) is getattr(getattr(puriscope, module), name)
                   for module in SUBMODULES for name in puriscope._EXPORTS[module])


def cli_imports(cwd, *argv) -> set:
    """The modules a fresh ``python -X importtime -m puriscope.cli *argv`` imports."""
    done = python("-X", "importtime", "-m", "puriscope.cli", *argv, "--seed", "1", cwd=cwd)
    return {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines() if "|" in line}


def test_qfi_run_imports_no_unused_experiment_code(tmp_path):
    imported = cli_imports(tmp_path, "qfi", "--n", "3", "--trials", "1", "--jobs", "1")
    assert "puriscope.estimators" in imported
    assert not imported & {"puriscope.baselines", "puriscope.channels", "puriscope.crypto",
                           "concurrent.futures"}


def test_small_fan_out_never_forks(tmp_path):
    # The second trial is the only one left when a pool could start, and one
    # remaining trial never goes to a pool, however long the first took.
    imported = cli_imports(tmp_path, "moment", "--n", "2", "--trials", "2", "--jobs", "2")
    assert "puriscope.estimators" in imported
    assert "concurrent.futures" not in imported


@pytest.mark.parametrize(
    "env_vars, expected",
    [
        ({}, dict.fromkeys(THREAD_VARS, "1")),
        ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None,
                                         "MKL_NUM_THREADS": None}),
    ],
    ids=["unset", "caller-set"],
)
def test_environment_block_records_thread_pin(tmp_path, env_vars, expected):
    out = tmp_path / "result.json"
    python("-m", "puriscope.cli", "moment", "--n", "2", "--trials", "1", "--jobs", "1",
           "--seed", "1", "--out", str(out), cwd=tmp_path, **env_vars)
    environment = json.loads(out.read_text())["environment"]
    assert environment["thread_env"] == expected
    assert environment["jobs"] == 1
    assert environment["cpu_count"] == os.cpu_count()
    assert environment["python"] == "{}.{}.{}".format(*sys.version_info[:3])
    assert environment["numpy"] and environment["blas"]


# Run the CLI module as __main__, as ``python -m`` does, and report how the
# collector ran: at each collection, the freeze count and whether numpy had
# started to load; and the collector's state at exit.
RUN_AS_MAIN = """
import gc, json, runpy, sys
seen = []
gc.callbacks.append(
    lambda phase, info: phase == "start" and seen.append([gc.get_freeze_count(), "numpy" in sys.modules])
)
sys.argv[0] = "puriscope"
try:
    runpy.run_module("puriscope.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "seen": seen, "enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}))
"""


def test_cli_process_freezes_its_import_heap(tmp_path):
    done = python("-c", RUN_AS_MAIN, "moment", "--n", "2", "--trials", "2", "--jobs", "1",
                  "--seed", "1", cwd=tmp_path)
    state = json.loads(done.stdout.splitlines()[-1])
    assert state["code"] == 0
    assert state["enabled"]
    assert state["frozen"] > 10_000
    # No collection ran between numpy starting to load and the first freeze,
    # so none walked the heap the imports built.
    assert [0, True] not in state["seen"]


def test_pool_under_the_process_entry_matches_serial(tmp_path):
    # Through run(), as ``-m`` runs it, with every trial after the first sent to the pool.
    wrapper = (
        "import gc, sys\ngc.disable()\nfrom puriscope import cli\ncli._POOL_AFTER_S = 0\n"
        "code = cli.run()\nprint('concurrent.futures' in sys.modules, gc.get_freeze_count() > 0)\n"
        "sys.exit(code)"
    )
    argv = ["pca", "--n", "3", "--trials", "4", "--budget", "6000", "--seed", "4"]
    done = python("-c", wrapper, *argv, "--jobs", "2", "--out", "pool.json", cwd=tmp_path)
    assert done.stdout.splitlines()[-1] == "True True"
    python("-m", "puriscope.cli", *argv, "--jobs", "1", "--out", "serial.json", cwd=tmp_path)
    pool, serial = (json.loads((tmp_path / name).read_text()) for name in ("pool.json", "serial.json"))
    assert pool["results"] == serial["results"]


def test_console_script_is_the_process_entry(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(SRC).parent / "pyproject.toml"
    module, attr = tomllib.loads(pyproject.read_text())["project"]["scripts"]["puriscope"].split(":")
    assert (module, attr) == ("puriscope.cli", "run")
    # What an installed ``puriscope`` script runs, against ``python -m``, on a run that exits 3.
    script = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())"
    argv = ["moment", "--n", "3", "--budget", "12", "--trials", "2", "--jobs", "1", "--seed", "1"]
    python("-c", script, *argv, "--out", "script.json", cwd=tmp_path, expect=3)
    python("-m", "puriscope.cli", *argv, "--out", "module.json", cwd=tmp_path, expect=3)
    script_out, module_out = (json.loads((tmp_path / name).read_text()) for name in ("script.json", "module.json"))
    del script_out["timestamp"], module_out["timestamp"]
    assert script_out == module_out


def test_nan_stderr_exits_2_naming_seed_and_trial(tmp_path):
    # In a fresh process, where the run's divide-by-zero warnings are not errors:
    # trial 18 of this run bootstraps a nan stderr, which JSON cannot hold.
    done = python("-m", "puriscope.cli", "qfi", "--n", "2", "--budget", "200", "--trials", "40",
                  "--jobs", "1", "--seed", "1", "--out", "result.json", cwd=tmp_path, expect=2)
    assert "precondition failure (seed 1): trial 18: " in done.stderr
    assert "stderr nan is not finite" in done.stderr
    assert not (tmp_path / "result.json").exists()
