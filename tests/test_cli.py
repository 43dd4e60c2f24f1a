import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import fermiball
from fermiball import experiments
from fermiball.cli import main
from fermiball.experiments import EXPERIMENTS, load_config, run_experiments


def write_config(tmp_path, **overrides):
    doc = {
        "potential": [[[0, 0, 1], 0.05], [[0, 1, 0], 0.05], [[1, 0, 0], 0.05]],
        "experiments": [],
        "seed": 42,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# ------------------------------------------------------------ config


def test_load_config_potential_symmetrized(tmp_path):
    path = write_config(tmp_path)
    config = load_config(json.loads(path.read_text()))
    assert config.potential((0, 0, -1)) == 0.05


def test_load_config_conflicting_potential(tmp_path):
    path = write_config(
        tmp_path, potential=[[[0, 0, 1], 0.05], [[0, 0, -1], 0.06]]
    )
    with pytest.raises(ValueError, match="potential"):
        load_config(json.loads(path.read_text()))


def test_load_config_field_errors(tmp_path):
    base = json.loads(write_config(tmp_path).read_text())
    bad = dict(base)
    bad["experiments"] = ["no_such_thing"]
    with pytest.raises(ValueError, match="no_such_thing"):
        load_config(bad)
    # wrongly typed JSON values name their field instead of raising TypeError;
    # an integer field takes no bool, float or string, so none is truncated
    cases = (
        ("n_particles", None),
        ("n_particles", 33401.9),
        ("n_particles", "33401"),
        ("workers", None),
        ("seed", [1]),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "7"),
        ("workers", 2.7),
        ("potential", 5),
        ("potential", None),
        ("experiments", 5),
        ("experiments", None),
        ("options", {"patch_audit": 3}),
    )
    for field, value in cases:
        with pytest.raises(ValueError, match=field):
            load_config(dict(base, **{field: value}))


def test_load_config_does_not_import_cli():
    # experiments -> cli carries no import cycle
    code = (
        "import sys\n"
        "from fermiball.experiments import load_config\n"
        "load_config({'experiments': ['gauss_count']})\n"
        "assert 'fermiball.cli' not in sys.modules, 'load_config imported fermiball.cli'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fermiball.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_load_config_does_not_import_scipy():
    # the package never imports scipy; the tests use it only as an oracle
    code = (
        "import sys\n"
        "from fermiball.experiments import load_config\n"
        "load_config({'experiments': ['gauss_count']})\n"
        "assert 'scipy' not in sys.modules, 'load_config imported scipy'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fermiball.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


#: every experiment of the registry at its smallest grid
SMALLEST_OPTIONS = {
    "gauss_count": {"k_fermi_sq_grid": [4.5]},
    "kinetic_sum_scaling": {"k_fermi_sq_grid": [20.5]},
    "equator_sum_scaling": {"k_fermi_sq_grid": [20.5]},
    "slice_count_bound": {"k_fermi_sq_grid": [20.5]},
    "ellipse_count": {"axis_ratios": [1], "radii": [10]},
    "patch_audit": {"k_fermi_sq": 100.5, "m_grid": [6], "r_v": 1.0},
    "normalization_asymptotics": {"k_fermi_sq": 100.5, "m_patches": 6},
    "kernel_identities": {"n_systems": 1, "max_side": 4},
    "kernel_bound_fit": {"k_fermi_sq": 100.5, "m_grid": [6]},
    "rpa_compare": {"schedule": [[400.5, 8]]},
    "hf_stability": {"k_fermi_sq": 20.5, "n_swaps": 5, "n_check": 2},
}


def test_run_of_every_experiment_does_not_import_scipy(tmp_path):
    assert set(SMALLEST_OPTIONS) | {"small_v_fit"} == set(EXPERIMENTS)
    doc = {
        "experiments": list(EXPERIMENTS),
        "seed": 1,
        "options": SMALLEST_OPTIONS,
        "output_dir": str(tmp_path / "out"),
    }
    code = (
        "import json, sys\n"
        "from fermiball.experiments import load_config, run_experiments\n"
        f"manifest, ok = run_experiments(load_config(json.loads({json.dumps(doc)!r})))\n"
        "assert ok, manifest['experiments']\n"
        "assert 'scipy' not in sys.modules, 'a run imported scipy'\n"
        "assert 'numpy.ma' not in sys.modules, 'a run imported numpy.ma'\n"
        # the draws come from the interpreter's random.Random; numpy.random
        # would import secrets -> hmac -> _hashlib (OpenSSL), and the manifest
        # digests come from the interpreter's built-in SHA-256
        "for name in ('numpy.random', 'secrets', '_hashlib'):\n"
        "    assert name not in sys.modules, f'a run imported {name}'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fermiball.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_validate_leaves_openssl_unloaded(tmp_path):
    path = write_config(tmp_path, experiments=list(EXPERIMENTS))
    code = (
        "import sys\n"
        "from fermiball.cli import main\n"
        f"assert main(['validate', '--config', {str(path)!r}]) == 0\n"
        "assert '_hashlib' not in sys.modules, 'validate loaded _hashlib'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fermiball.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_manifest_hashes_fall_back_to_hashlib(tmp_path):
    # an interpreter built without the built-in SHA-256 module hashes with
    # hashlib, to the same digests
    path = write_config(
        tmp_path,
        experiments=["gauss_count", "small_v_fit"],
        options={"gauss_count": SMALLEST_OPTIONS["gauss_count"]},
    )
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from fermiball.cli import main\n"
        f"assert main(['run', '--config', {str(path)!r}]) == 0\n"
        "assert '_hashlib' in sys.modules, 'the run did not hash with hashlib'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fermiball.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out"
    entries = json.loads((out / "manifest.json").read_text())["experiments"]
    assert {name: entry["sha256"] for name, entry in entries.items()} == {
        name: hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
        for name in ("gauss_count", "small_v_fit")
    }


def test_ball_cache_builds_each_radius_once(monkeypatch):
    builds = []
    real_build = experiments.build_fermi_ball

    def counting_build(**kwargs):
        builds.append(kwargs["k_fermi_sq"])
        return real_build(**kwargs)

    monkeypatch.setattr(experiments, "build_fermi_ball", counting_build)
    cache = experiments.BallCache()
    got = [cache.get(ksq) for ksq in (20.5, 4.5, 20.5, Fraction(41, 2), 4.5)]
    assert builds == [Fraction(41, 2), Fraction(9, 2)]
    assert got[0] is got[2] is got[3] and got[1] is got[4]
    assert got[0] is not got[1]


# ------------------------------------------------------------ CLI commands


def test_unread_config_keys_are_named_errors(tmp_path, capsys):
    # a top-level key, experiment name or option key that nothing reads
    # would otherwise be ignored, and a wrongly typed option value would
    # fail only once its experiment runs; validate and run both exit 1
    # before any experiment runs
    cases = [
        ("gauss_cout", {"options": {"gauss_cout": {"k_fermi_sq_grid": [25.5]}}}),
        ("m_patch", {"m_patch": 16}),
        # the radius and the equator exponent are set per experiment, in its options
        ("k_fermi", {"k_fermi": 20.0}),
        ("k_fermi_sq", {"k_fermi_sq": 400.5}),
        ("delta", {"delta": 1.0 / 24.0}),
        ("m_patches", {"m_patches": 8}),
        ("m_patches", {"m_patches": 7}),
        ("m_patches", {"m_patches": None}),
        ("m_gird", {"options": {"patch_audit": {"m_gird": [6]}}}),
        ("potential_value", {"options": {"rpa_compare": {"potential_value": 0.2}}}),
        ("ctx", {"options": {"gauss_count": {"ctx": 1}}}),
        # option values of the wrong JSON type, named with their experiment
        ("m_grid", {"options": {"patch_audit": {"m_grid": 6}}}),
        ("patch_audit", {"options": {"patch_audit": {"m_grid": 6}}}),
        ("n_swaps", {"options": {"hf_stability": {"n_swaps": True}}}),
        ("r_v", {"options": {"patch_audit": {"r_v": "2"}}}),
        ("schedule", {"options": {"rpa_compare": {"schedule": "400.5"}}}),
        # every float anywhere in the options is finite
        ("k_fermi_sq_grid", {"options": {"gauss_count": {"k_fermi_sq_grid": [math.nan]}}}),
        ("k_fermi_sq", {"options": {"patch_audit": {"k_fermi_sq": math.nan}}}),
        ("r_v", {"options": {"patch_audit": {"r_v": math.nan}}}),
        # an option with an int default, or a list of ints, takes integers only
        ("n_check", {"options": {"hf_stability": {"n_check": 1.5}}}),
        ("n_systems", {"options": {"kernel_identities": {"n_systems": 2.5}}}),
        ("axis_ratios", {"options": {"ellipse_count": {"axis_ratios": [1.5]}}}),
        ("m_grid", {"options": {"patch_audit": {"m_grid": [6.0]}}}),
        # every entry of a list option is of its default entries' kind: a
        # number (not a bool or a string), or a [number, integer] pair
        ("k_fermi_sq_grid", {"options": {"gauss_count": {"k_fermi_sq_grid": [True, "25.5"]}}}),
        ("k_fermi_sq_grid", {"options": {"gauss_count": {"k_fermi_sq_grid": [25.5, "400.5"]}}}),
        ("schedule", {"options": {"rpa_compare": {"schedule": [["400.5", 8]]}}}),
        ("schedule", {"options": {"rpa_compare": {"schedule": [[400.5, True]]}}}),
        ("schedule", {"options": {"rpa_compare": {"schedule": [[400.5, 8.0]]}}}),
        ("schedule", {"options": {"rpa_compare": {"schedule": [[400.5]]}}}),
        ("schedule", {"options": {"rpa_compare": {"schedule": [400.5, 8]}}}),
    ]
    # top-level values are checked by the options' rule, and every value is
    # named with its place in the document: none is coerced, truncated or
    # read as another
    delta_at = "options['equator_sum_scaling']['delta']"

    def equator_delta(value):
        return {"options": {"equator_sum_scaling": {"delta": value}}}

    field_cases = [
        (f"{delta_at} must be a finite number, got '0.05'", equator_delta("0.05")),
        ("experiments must be a list, got {'gauss_count': 1}", {"experiments": {"gauss_count": 1}}),
        ("potential[0][0][0] must be an integer, got 1.5", {"potential": [[[1.5, 0, 0], 0.05]]}),
        ("potential[0][1] must be a finite number, got '0.05'", {"potential": [[[1, 0, 0], "0.05"]]}),
        ("potential[0][1] must be a finite number, got True", {"potential": [[[1, 0, 0], True]]}),
        ("potential[0][1] must be a finite number, got nan", {"potential": [[[1, 0, 0], math.nan]]}),
        (f"{delta_at} must be a finite number, got 1000", equator_delta(10**400)),
        ("potential[1][0] must be a list of 3 entries", {"potential": [[[1, 0, 0], 0.1], [[1, 0], 0.1]]}),
        ("output_dir must be a string, got 5", {"output_dir": 5}),
        ("seed must be >= 0, got -1", {"seed": -1}),
        # a run would call it twice and write its CSV twice under one manifest entry
        ("experiment 'small_v_fit' is named twice", {"experiments": ["small_v_fit"] * 2}),
    ]
    out = tmp_path / "out"

    def assert_refused(i, named, extra):
        doc = {"experiments": ["gauss_count"], "output_dir": str(out), **extra}
        with pytest.raises(ValueError, match=re.escape(named)):
            load_config(doc)
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 1
            assert named in capsys.readouterr().err

    for i, (name, extra) in enumerate(cases):
        assert_refused(i, repr(name), extra)
    for i, (named, extra) in enumerate(field_cases, len(cases)):
        assert_refused(i, named, extra)
    assert not out.exists()
    with pytest.raises(ValueError, match="JSON object"):
        load_config([["seed", 1]])


def test_benchmark_workload_configs_load(tmp_path, capsys):
    # the benchmark's configs must stay valid under the config key checks
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(perfbench))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(perfbench))
    assert WORKLOADS
    for workload in WORKLOADS.values():
        doc = workload.config(1)
        # the benchmark writes both keys; neither has an effect
        assert {"n_particles", "workers"} <= set(doc)
        assert load_config(doc).experiments == workload.experiments
        path = tmp_path / f"{workload.name}.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out == f"ok: experiments={workload.experiments}\n"


def test_benchmark_tracer_binds(tmp_path):
    # perfbench/trace_run.py wraps package functions by name and reads their
    # parameters and results; a renamed hook target would leave its metrics at 0
    root = Path(__file__).resolve().parent.parent
    doc = {
        "experiments": ["rpa_compare", "kernel_bound_fit", "kernel_identities", "patch_audit"],
        "seed": 1,
        "options": {"rpa_compare": {"schedule": [[400.5, 8]]}, "kernel_identities": {"n_systems": 8}},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(root / "perfbench" / "trace_run.py"), "--config", str(config)]
    argv += ["--out", str(tmp_path / "out"), "--workers", "1", "--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(spans.read_text())["metrics"]
    for name in ("bogokernel.modes", "bogokernel.build_mode_system.calls", "experiments.rpa_compare.s"):
        assert metrics[name] > 0, name


CONFIG_FILES = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda path: path.name)
def test_config_files_load(path):
    # validated only: running reach.json takes 5.1-5.3 s (39 MB peak RSS, 2-core VM)
    config = load_config(json.loads(path.read_text()))
    assert config.experiments
    if path.name == "reach.json":
        assert config.experiments == ["rpa_compare"]
        schedule = config.options["rpa_compare"]["schedule"]
        assert schedule == [[102400.5, 128], [409600.5, 256], [1638400.5, 512]]


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(EXPERIMENTS)


def test_validate_ok_and_fail(tmp_path, capsys):
    path = write_config(tmp_path, experiments=["gauss_count"])
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "ok: experiments=['gauss_count']\n"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": -1}))
    assert main(["validate", "--config", str(bad)]) == 1
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 1


def test_config_without_a_potential_echoes_the_default(tmp_path):
    # small_v_fit and hf_stability read the default potential when the config
    # sets none, and the manifest echoes the potential the run used
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out")}))
    config = load_config(json.loads(path.read_text()))
    assert dict(config.potential.items()) == dict(experiments.default_potential().items())
    assert main(["run", "--config", str(path)]) == 0
    echoed = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["potential"]
    assert echoed == [[list(k), 0.05] for k in sorted(experiments.UNIT_VECTORS)]
    assert len(echoed) == 6


def test_equator_delta_is_an_option_of_its_experiment(tmp_path):
    grid = {"k_fermi_sq_grid": [20.5, 100.5]}
    path = write_config(
        tmp_path,
        experiments=["equator_sum_scaling"],
        options={"equator_sum_scaling": {**grid, "delta": 0.05}},
    )
    assert main(["run", "--config", str(path)]) == 0
    with open(tmp_path / "out" / "equator_sum_scaling.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["delta"] for row in rows] == ["0.05", "0.05"]
    # inside (0, 1/6) but outside the equator sum's range (0, 77/624): the
    # library call refuses it when the experiment runs, and the run goes on
    path = write_config(
        tmp_path,
        experiments=["equator_sum_scaling", "gauss_count"],
        options={"equator_sum_scaling": {**grid, "delta": 0.14}, "gauss_count": grid},
    )
    assert main(["run", "--config", str(path)]) == 2
    out = tmp_path / "out"
    entries = json.loads((out / "manifest.json").read_text())["experiments"]
    assert entries["equator_sum_scaling"]["status"] == "failed"
    assert "delta must lie in (0, 77/624)" in entries["equator_sum_scaling"]["error"]
    assert entries["gauss_count"]["status"] == "ok"
    assert not (out / "equator_sum_scaling.csv").exists()


def test_failed_experiment_leaves_no_stale_csv(tmp_path):
    # a run into a directory that holds an earlier run's CSV of an experiment
    # that now fails must not leave that CSV beside a failed manifest entry
    path = write_config(
        tmp_path, experiments=["gauss_count"], options={"gauss_count": {"k_fermi_sq_grid": [4.5]}}
    )
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert (out / "gauss_count.csv").exists()
    path = write_config(
        tmp_path,
        experiments=["gauss_count", "small_v_fit"],
        options={"gauss_count": {"k_fermi_sq_grid": [-1.0]}},
    )
    assert main(["run", "--config", str(path)]) == 2
    entries = json.loads((out / "manifest.json").read_text())["experiments"]
    assert entries["gauss_count"]["status"] == "failed"
    assert not (out / "gauss_count.csv").exists()
    assert entries["small_v_fit"]["status"] == "ok"
    assert (out / "small_v_fit.csv").exists()


def test_run_empty_experiments_writes_manifest(tmp_path):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["experiments"] == {}
    assert manifest["config"]["seed"] == 42


def test_run_small_experiments(tmp_path):
    path = write_config(
        tmp_path,
        experiments=["gauss_count", "small_v_fit", "kernel_identities"],
        options={
            "gauss_count": {"k_fermi_sq_grid": [4.5, 20.5]},
            "kernel_identities": {"n_systems": 4, "max_side": 6},
        },
    )
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    for name in ("gauss_count", "small_v_fit", "kernel_identities"):
        entry = manifest["experiments"][name]
        assert entry["status"] == "ok"
        assert (out / entry["file"]).exists()
    rows = (out / "gauss_count.csv").read_text().splitlines()
    assert rows[0] == "k_fermi,n,ball_volume,rel_error"
    assert len(rows) == 3


def test_run_headers_are_the_row_keys(tmp_path):
    # a CSV's header is its experiment's row keys, in the order the
    # experiment builds them; kernel_identities builds its rows stack by stack
    path = write_config(
        tmp_path,
        experiments=["kernel_identities", "small_v_fit"],
        options={"kernel_identities": {"n_systems": 2, "max_side": 4}},
    )
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    headers = {
        name: (out / f"{name}.csv").read_text().splitlines()[0]
        for name in ("kernel_identities", "small_v_fit")
    }
    assert headers == {
        "kernel_identities": (
            "system,size,offdiagonal_rel,spectrum_rel_dev,l_block_dev,hyperbolic,"
            "orthogonality,symplectic_plus,symplectic_minus,det_O"
        ),
        "small_v_fit": "chi,abs_chi,reference_magnitude,magnitude_ratio,quadratic_constant",
    }


def test_run_empty_grid_writes_empty_file(tmp_path):
    path = write_config(
        tmp_path, experiments=["gauss_count"], options={"gauss_count": {"k_fermi_sq_grid": []}}
    )
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    entry = json.loads((out / "manifest.json").read_text())["experiments"]["gauss_count"]
    assert entry["status"] == "ok" and entry["rows"] == 0
    assert (out / entry["file"]).read_bytes() == b""
    assert entry["sha256"] == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_write_csv_row_missing_a_header_key_raises(tmp_path):
    rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}, {"a": 5}]
    with pytest.raises(ValueError, match=r"^row 2 .*: missing \['b'\], extra \[\]$"):
        experiments._write_csv(tmp_path / "x.csv", rows)
    assert not (tmp_path / "x.csv").exists()


def test_write_csv_row_with_an_extra_key_raises(tmp_path):
    # the extra column would be dropped without a word
    rows = [{"a": 1, "b": 2}, {"c": 0, "b": 3, "a": 4}]
    with pytest.raises(ValueError, match=r"^row 1 .*: missing \[\], extra \['c'\]$"):
        experiments._write_csv(tmp_path / "x.csv", rows)
    assert not (tmp_path / "x.csv").exists()


def test_run_reproducible_csv_bytes(tmp_path):
    outputs = []
    for sub in ("a", "b"):
        path = write_config(
            tmp_path,
            output_dir=str(tmp_path / sub),
            experiments=["kernel_identities"],
            options={"kernel_identities": {"n_systems": 5, "max_side": 8}},
        )
        assert main(["run", "--config", str(path)]) == 0
        outputs.append((tmp_path / sub / "kernel_identities.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_hf_stability_draws_follow_the_seed(tmp_path):
    # one seed gives one byte-identical CSV, another seed other swaps
    outputs = {}
    for sub, seed in (("a", 42), ("b", 42), ("c", 43)):
        path = write_config(
            tmp_path,
            output_dir=str(tmp_path / sub),
            experiments=["hf_stability"],
            seed=seed,
            options={"hf_stability": {"n_swaps": 50, "n_check": 5}},
        )
        assert main(["run", "--config", str(path)]) == 0
        outputs[sub] = (tmp_path / sub / "hf_stability.csv").read_bytes()
    assert outputs["a"] == outputs["b"]
    swaps = {
        sub: [(row["hole"], row["particle"]) for row in csv.DictReader(out.decode().splitlines())][1:]
        for sub, out in outputs.items()
    }
    assert len(swaps["a"]) == len(swaps["c"]) == 5 and swaps["a"] != swaps["c"]


#: sha256 of each integer-driven lattice CSV at seed 1 with default options.
#: These experiments feed exact lattice counts into fixed float expressions, so
#: a change to the lattice layer that keeps the counts keeps these bytes.
LATTICE_CSV_SHA256 = {
    "gauss_count": "0d966da8b4ce9ff1a2955c7adcd9a9c8bc4280c3a93c2ca15ad5b65427279ed5",
    "kinetic_sum_scaling": "a6d8d6b64af46fe7deb3280fcedd68b3c58cdfb9c29ddd32c11d49be7363a459",
    "equator_sum_scaling": "12e2a424cde6496fe8d63082967f82317263ce01d788b9ec5c7325ee6175838b",
    "slice_count_bound": "b42087a2288c5bea414cf931993c3551b7e1b77db9de24c6f56819d705a02de6",
    "ellipse_count": "066a45cf532d07fc003577769e4aaa52f5eac0b0931ba03d849ac5f084a3675c",
    "hf_stability": "1172d500af990416cef1fad94dcbf98725e4ab2171a4e9c8538162ab103ff254",
}


def test_lattice_csv_golden_bytes(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"experiments": list(LATTICE_CSV_SHA256), "seed": 1})
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    got = {
        name: hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
        for name in LATTICE_CSV_SHA256
    }
    assert got == LATTICE_CSV_SHA256


def test_hf_stability_golden_bytes_at_benchmark_radius(tmp_path):
    # the hf_stability options of perfbench's lattice_reach workload
    path = tmp_path / "config.json"
    options = {"hf_stability": {"k_fermi_sq": 6400.5, "n_check": 1}}
    path.write_text(
        json.dumps(
            {"experiments": ["hf_stability"], "seed": 1, "options": options}
        )
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "hf_stability.csv").read_bytes()).hexdigest()
    assert digest == "33aa0b3d5edf1cbb0bf2dd5605cc503a8e6c93b4adb073854520ea0ea681185e"


#: sha256 of each CSV pinned on its own below, at seed 1 with these options
SINGLE_CSV_SHA256 = {
    # default options: k_F^2 = 1600.5, r_v = 2, M in {6, 16, 30}
    "patch_audit": ({}, "d4c3d43710c17f34dbe20f4937450c252f90b39cb4b21b640dce6e0a2ce2ce01"),
    # 40 random systems up to side 30, solved in equal-size stacks
    "kernel_identities": (
        {"n_systems": 40, "max_side": 30},
        "a5c016242f58bb2dedb9391881bfacc966864f8b327da5d5b7e06084aafe077e",
    ),
    # no seed and no lattice input
    "small_v_fit": ({}, "1da7fa46776fb140c8ada21d0d6f605f26f3f3cf0077b528b266e44ec2f583e9"),
}


def assert_single_csv_golden_bytes(tmp_path, name):
    options, digest = SINGLE_CSV_SHA256[name]
    path = tmp_path / "config.json"
    doc = {"experiments": [name], "seed": 1, "options": {name: options}}
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest() == digest


def test_patch_audit_golden_bytes(tmp_path):
    assert_single_csv_golden_bytes(tmp_path, "patch_audit")


def test_kernel_identities_golden_bytes(tmp_path):
    assert_single_csv_golden_bytes(tmp_path, "kernel_identities")


def test_small_v_fit_golden_bytes(tmp_path):
    assert_single_csv_golden_bytes(tmp_path, "small_v_fit")


#: sha256 of the experiments whose corridor, equator exponent, potential and
#: k are fixed in the code, at seed 1 with default options
FIXED_SETTING_CSV_SHA256 = {
    "normalization_asymptotics": "1142f7e97eaf6a6b9a96529df0c542408388e1544c3bbb2a296f2835a052625b",
    "rpa_compare": "e7e92f921444fab7dd902f6bca31e045124948c6cc35360f712d8d7fb00a124b",
    "kernel_bound_fit": "376ff1e702207ae4ae99b89ab8875102faa6992558a1c3ca47583213e7ef8ae4",
}


def test_fixed_setting_csv_golden_bytes(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"experiments": list(FIXED_SETTING_CSV_SHA256), "seed": 1})
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    got = {
        name: hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
        for name in FIXED_SETTING_CSV_SHA256
    }
    assert got == FIXED_SETTING_CSV_SHA256


def test_rpa_compare_golden_bytes_at_many_patches(tmp_path):
    # the schedule of perfbench's rpa_many_patches workload, M = 512..2048;
    # rpa_compare draws nothing from the seed
    path = tmp_path / "config.json"
    schedule = [[6400.5, 512], [6400.5, 1024], [6400.5, 2048]]
    options = {"rpa_compare": {"schedule": schedule}}
    path.write_text(
        json.dumps(
            {"experiments": ["rpa_compare"], "seed": 1, "options": options}
        )
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "rpa_compare.csv").read_bytes()).hexdigest()
    assert digest == "631cbdac1ce0981d90cc9f7223a3a9b7f639455a8141c7cd062d631a05e830a4"


def test_every_experiment_is_byte_pinned():
    # a fast path cannot change the CSV of an experiment that no golden hash
    # pins without a test noticing
    pinned = set(LATTICE_CSV_SHA256) | set(FIXED_SETTING_CSV_SHA256) | set(SINGLE_CSV_SHA256)
    assert pinned == set(EXPERIMENTS)


def test_readme_example_config_loads():
    # the README's example config must stay valid under the config key checks
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = readme.split("```json\n")[1:]
    assert len(blocks) == 1
    config = load_config(json.loads(blocks[0].split("```")[0]))
    assert config.experiments


def test_manifest_records_wall_time_and_peak_rss(tmp_path):
    path = write_config(
        tmp_path,
        experiments=["gauss_count"],
        options={"gauss_count": {"k_fermi_sq_grid": [4.5]}},
    )
    assert main(["run", "--config", str(path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["wall_s"] > 0
    assert manifest["peak_rss_mb"] > 0


def test_run_manifest_hashes_match(tmp_path):
    path = write_config(
        tmp_path, experiments=list(EXPERIMENTS), seed=1, options=SMALLEST_OPTIONS
    )
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    entries = json.loads((out / "manifest.json").read_text())["experiments"]
    assert set(entries) == set(EXPERIMENTS)
    for name, entry in entries.items():
        digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
        assert entry["sha256"] == digest, name


@pytest.mark.parametrize(
    "platform, maxrss", [("linux", 50 << 10), ("darwin", 50 << 20)], ids=["linux", "macos"]
)
def test_manifest_peak_rss_reads_the_platform_unit(tmp_path, monkeypatch, platform, maxrss):
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    class Usage:
        ru_maxrss = maxrss

    monkeypatch.setattr(experiments.resource, "getrusage", lambda who: Usage)
    monkeypatch.setattr(experiments.sys, "platform", platform)
    manifest, ok = run_experiments(load_config({"output_dir": str(tmp_path)}))
    assert ok and manifest["peak_rss_mb"] == 50.0


def test_run_failure_sets_exit_code_and_continues(tmp_path):
    # hf_stability rejects a potential outside the stability regime but the
    # other experiments still run
    path = write_config(
        tmp_path,
        potential=[[[0, 0, 1], 50.0], [[0, 0, -1], 50.0]],
        experiments=["hf_stability", "gauss_count"],
        options={
            "hf_stability": {"k_fermi_sq": 20.5, "n_swaps": 5, "n_check": 2},
            "gauss_count": {"k_fermi_sq_grid": [4.5]},
        },
    )
    assert main(["run", "--config", str(path)]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["experiments"]["hf_stability"]["status"] == "failed"
    assert "stability regime" in manifest["experiments"]["hf_stability"]["error"]
    assert manifest["experiments"]["gauss_count"]["status"] == "ok"


@pytest.mark.parametrize(
    "options, named",
    [
        ({"r_v": -1.0}, "r_v must be a nonnegative number, got -1.0"),
        ({"m_grid": [7]}, "m_patches must be an even integer >= 2, got 7"),
    ],
)
def test_run_names_a_bad_patch_parameter(tmp_path, options, named):
    # values that pass load_config but that build_patches refuses
    path = write_config(
        tmp_path,
        experiments=["patch_audit"],
        options={"patch_audit": {"k_fermi_sq": 400.5, **options}},
    )
    assert main(["run", "--config", str(path)]) == 2
    entry = json.loads((tmp_path / "out" / "manifest.json").read_text())["experiments"]["patch_audit"]
    assert entry["status"] == "failed"
    assert entry["error"] == f"PatchConstructionError: {named}"


@pytest.mark.parametrize(
    "experiment, options, named",
    [
        ("hf_stability", {"n_swaps": 0}, "n_swaps must be >= 1, got 0"),
        ("hf_stability", {"n_swaps": -1}, "n_swaps must be >= 1, got -1"),
        ("hf_stability", {"n_check": -1}, "n_check must be >= 0, got -1"),
        ("kernel_identities", {"max_side": 0}, "max_side must be >= 1, got 0"),
        ("kernel_identities", {"max_side": -2}, "max_side must be >= 1, got -2"),
        ("kernel_identities", {"n_systems": -3}, "n_systems must be >= 0, got -3"),
        # below 1 the hole band hf_stability draws from is empty
        ("hf_stability", {"k_fermi_sq": 0.5}, "k_fermi_sq must be >= 1, got 0.5"),
    ],
)
def test_run_names_an_out_of_range_count(tmp_path, experiment, options, named):
    path = write_config(
        tmp_path, experiments=[experiment], options={experiment: options}
    )
    assert main(["run", "--config", str(path)]) == 2
    entry = json.loads((tmp_path / "out" / "manifest.json").read_text())["experiments"][experiment]
    assert entry["status"] == "failed"
    assert entry["error"] == f"ExperimentError: {named}"


def test_run_workers_key_has_no_effect(tmp_path):
    # experiments run one after another whatever the worker count
    digests = {}
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        path = write_config(
            tmp_path,
            experiments=["gauss_count", "small_v_fit", "ellipse_count"],
            workers=workers,
            output_dir=str(out),
            options={"gauss_count": {"k_fermi_sq_grid": [4.5]}},
        )
        assert main(["run", "--config", str(path)]) == 0
        digests[workers] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert len(digests[1]) == 3
    assert digests[1] == digests[2]


def test_run_starts_no_thread(tmp_path, monkeypatch):
    seen = []

    def probe(ctx):
        seen.append((threading.current_thread(), threading.active_count()))
        return [{"x": 1}]

    for name in ("gauss_count", "small_v_fit"):
        monkeypatch.setitem(EXPERIMENTS, name, probe)
    threads_before = threading.active_count()
    path = write_config(tmp_path, experiments=["gauss_count", "small_v_fit"], workers=2)
    assert main(["run", "--config", str(path)]) == 0
    assert seen == [(threading.main_thread(), threads_before)] * 2
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("below_file", [False, True], ids=["file", "below_file"])
def test_run_names_an_unusable_output_dir(tmp_path, capsys, monkeypatch, below_file):
    ran = []
    monkeypatch.setitem(EXPERIMENTS, "gauss_count", lambda ctx: ran.append(ctx) or [{"x": 1}])
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker / "sub" if below_file else blocker
    path = write_config(tmp_path, experiments=["gauss_count"])
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert f"config error: output directory {out}: " in capsys.readouterr().err
    assert ran == []
    assert blocker.read_text() == "not a directory"


def test_output_dir_env_override(tmp_path, monkeypatch):
    import fermiball.cli as cli_mod

    monkeypatch.setenv(cli_mod.OUTPUT_DIR_ENV, str(tmp_path / "env_out"))
    path = write_config(tmp_path, output_dir=str(tmp_path / "ignored"))
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "env_out" / "manifest.json").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_run_workers_flag_is_checked_as_the_config_field(tmp_path, capsys, workers):
    # 0 was once ignored as unset and -1 reached the thread pool
    path = write_config(tmp_path, experiments=["gauss_count"])
    assert main(["run", "--config", str(path), "--workers", workers]) == 1
    assert "config error: workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_workers_flag_overrides_the_config(tmp_path):
    path = write_config(
        tmp_path, experiments=["gauss_count"], options={"gauss_count": {"k_fermi_sq_grid": [4.5]}}
    )
    assert main(["run", "--config", str(path), "--workers", "2"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["workers"] == 2
