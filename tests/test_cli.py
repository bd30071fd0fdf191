import csv
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import ttsketch
from ttsketch.cli import (
    CONFIGS,
    EXPERIMENTS,
    _config,
    main,
    run_eigensolve,
    run_hadamard,
    synthetic_lowrank_plus_noise,
)
from ttsketch.io import write_tt
from ttsketch.tt import tt_dense, tt_norm, tt_random


def write_cfg(path, cfg):
    with open(path, "w") as f:
        json.dump(cfg, f)
    return str(path)


def read_summary(out):
    with open(os.path.join(out, "summary.json")) as f:
        return json.load(f)


def read_csv_rows(path):
    with open(path) as f:
        return list(csv.reader(f))


def test_gamma_table_command(tmp_path):
    out = str(tmp_path)
    cfg = write_cfg(tmp_path / "cfg.json", {"d": 4, "R": 2, "field": "real"})
    assert main(["gamma_table", "--config", cfg, "--out", out]) == 0
    s = read_summary(out)
    assert_allclose(s["sum"], s["sum_closed_form"], rtol=1e-12)
    assert s["gamma_full"] == 1.0
    assert_allclose(s["gamma_empty_recursion"], s["gamma_empty_closed_form"],
                    rtol=1e-12)
    rows = read_csv_rows(os.path.join(out, "gamma_table.csv"))
    assert rows[0] == ["mask", "modes", "gamma"]
    assert len(rows) == 1 + 2 ** 4


def test_verify_moments_command(tmp_path):
    out = str(tmp_path)
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"R": 2, "n": 3, "nsamples": 3000, "fields": ["real"]})
    assert main(["verify_moments", "--config", cfg, "--out", out]) == 0
    s = read_summary(out)
    assert s["rows"] == 2
    assert s["max_z"] < 5.0


def test_embed_quality_command(tmp_path):
    out = str(tmp_path)
    cfg = write_cfg(tmp_path / "cfg.json", {
        "d": 5, "n": 3, "r": 3, "trials": 3,
        "variants": [{"variant": "tts", "P": 2, "R": 4}],
    })
    assert main(["embed_quality", "--config", cfg, "--out", out]) == 0
    s = read_summary(out)
    block = s["tts_P2_R4"]
    assert 0 < block["sigma_min_sq"]["median"] <= block["sigma_max_sq"]["median"]
    rows = read_csv_rows(os.path.join(out, "embed_quality.csv"))
    assert len(rows) == 1 + 3


def test_round_synthetic_command(tmp_path):
    out = str(tmp_path)
    cfg = write_cfg(tmp_path / "cfg.json", {
        "d": 6, "n": 3, "signal_rank": 4, "noise_rank": 3, "PR": 4,
        "R_list": [2], "eps_list": [1e-3], "trials": 2,
    })
    assert main(["round_synthetic", "--config", cfg, "--out", out]) == 0
    s = read_summary(out)
    blk = s["eps_0.001"]
    assert blk["deterministic"]["median"] < 2e-3
    assert blk["R2"]["median"] < 1e-1


def test_hadamard_command(tmp_path):
    out = str(tmp_path)
    cfg = write_cfg(tmp_path / "cfg.json", {
        "bits": 5, "target_rank": 8, "R_list": [2], "PR": 8, "trials": 2,
    })
    assert main(["hadamard", "--config", cfg, "--out", out]) == 0
    s = read_summary(out)
    assert s["deterministic"]["rel_error"] < 1.0
    assert s["R2"]["rel_error"]["median"] < 1.0


def test_hadamard_csv_is_reproducible(tmp_path):
    cfg = {"bits": 4, "target_rank": 6, "R_list": [1, 2], "PR": 6, "trials": 2}
    texts = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        summary = run_hadamard(cfg, 3, str(out))
        texts.append((out / "hadamard.csv").read_bytes())
    assert texts[0] == texts[1]
    assert b"wall_time_ms" not in texts[0]
    assert summary["R2"]["wall_time_ms"]["n"] == 2


@pytest.mark.parametrize("seed", [4016, 404014, 406003])
def test_default_eigensolve_survives_svd_nonconvergence(tmp_path, seed):
    # At these seeds LAPACK's divide-and-conquer SVD fails on a sketched
    # unfolding inside tt_rand_round.
    summary = run_eigensolve({}, seed, str(tmp_path))
    assert summary["rel_energy_error"] < 1e-3


def test_eigensolve_command(tmp_path):
    out = str(tmp_path)
    argv = ["eigensolve", "--out", out, "--model", "tfim", "--d", "6",
            "--ranks", "8", "--P", "4", "--R", "8", "--m", "6",
            "--restarts", "4", "--seed", "1"]
    assert main(argv) == 0
    s = read_summary(out)
    assert s["model"] == "tfim"
    assert s["rel_energy_error"] < 1e-3
    rows = read_csv_rows(os.path.join(out, "eigensolve.csv"))
    assert rows[0][0] == "restart"
    assert len(rows) >= 2


def test_eigensolve_zero_hamiltonian_writes_valid_json(tmp_path):
    # The relative error of a zero ground energy is NaN, which JSON lacks.
    cfg = write_cfg(tmp_path / "cfg.json", {"J": 0, "g": 0, "d": 6})
    assert main(["eigensolve", "--config", cfg, "--out", str(tmp_path)]) == 0

    def reject(name):
        raise ValueError("summary.json holds " + name)

    with open(tmp_path / "summary.json") as f:
        s = json.load(f, parse_constant=reject)
    assert s["dense_ground_energy"] == 0
    assert s["ritz_value"] == 0
    assert "rel_energy_error" not in s


def test_convert_round_trip(tmp_path):
    x = tt_random((2, 3, 2), (1, 2, 2, 1), seed=5)
    src = str(tmp_path / "x.tt")
    mid = str(tmp_path / "x.json")
    back = str(tmp_path / "y.tt")
    write_tt(src, x)
    assert main(["convert", src, mid]) == 0
    assert main(["convert", mid, back]) == 0
    from ttsketch.io import read_tt
    y = read_tt(back)
    assert_allclose(tt_dense(y), tt_dense(x), atol=1e-15)


def test_synthetic_lowrank_plus_noise_norms():
    sig, x = synthetic_lowrank_plus_noise(5, 3, 4, 2, 1e-2, seed=0)
    assert_allclose(tt_norm(sig), 1.0, rtol=1e-12)
    diff = tt_norm(x) ** 2 - 1.0
    # cross term is random but the noise norm is exactly eps
    assert abs(tt_norm(x) - 1.0) < 2e-2


def test_unknown_model_exits(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {"model": "bogus", "d": 3})
    with pytest.raises(SystemExit):
        main(["eigensolve", "--config", cfg, "--out", str(tmp_path)])


# (experiment, config, the part of the error that names the key)
BAD_CONFIGS = [
    ("round_synthetic", {"PRR": 32}, "key 'PRR'"),
    ("hadamard", {"trials": 2.5}, "config 'trials'"),
    ("eigensolve", {"model": "bogus"}, "config 'model'"),
    ("embed_quality", {"variants": [{"variant": "tts", "P": None, "R": 1}]}, "spec 'P'"),
    ("embed_quality", {"variants": [{"variant": "tts", "P": 2, "seed": 1}]}, "'seed': 1}"),
    ("embed_quality", {"variants": [{"variant": "f_tt_r", "P": 3}]},
     "entry {'variant': 'f_tt_r', 'P': 3}: unknown variant 'f_tt_r'"),
    ("embed_quality", {"variants": [{"variant": "khatri_rao", "P": 5, "base": "gaussian"}]},
     "entry {'variant': 'khatri_rao', 'P': 5, 'base': 'gaussian'} must be an object"),
    ("gamma_table", {"d": True}, "config 'd'"),
    ("verify_moments", {"fields": ["real", "quaternion"]}, "config 'fields'"),
    ("gamma_table", {"d": 17}, "config 'd'"),
    ("eigensolve", {"d": 1}, "config 'd'"),
    # Two entries with one summary key would pool their pairwise-equal rows.
    ("embed_quality", {"d": 6, "n": 2, "r": 3, "trials": 2,
                       "variants": [{"variant": "khatri_rao", "P": 5},
                                    {"variant": "khatri_rao", "P": 5, "R": 1}]},
     "'R': 1} both give summary key 'khatri_rao_P5_R1'"),
    # JSON's NaN and Infinity used to reach LAPACK, which failed to converge.
    ("eigensolve", {"g": math.nan}, "config 'g'"),
    ("round_synthetic", {"eps_list": [math.inf], "d": 4, "trials": 1, "R_list": [1]},
     "config 'eps_list'"),
    # An empty list used to run, and then fail on an empty max().
    ("verify_moments", {"fields": []}, "config 'fields'"),
]
BAD_IDS = ["unknown-key", "float-int", "model", "null-P", "variant-key", "retired-variant",
           "retired-base", "bool-int", "fields", "gamma-d-cap", "eigensolve-one-site",
           "repeated-variant", "nan-float", "inf-float-list", "empty-list"]


@pytest.mark.parametrize("name,cfg,named", BAD_CONFIGS, ids=BAD_IDS)
def test_bad_config_raises_naming_the_key(tmp_path, name, cfg, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        EXPERIMENTS[name](cfg, 0, str(tmp_path))


@pytest.mark.parametrize("name,cfg,named", BAD_CONFIGS, ids=BAD_IDS)
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, name, cfg, named):
    path = write_cfg(tmp_path / "cfg.json", cfg)
    with pytest.raises(SystemExit) as exc:
        main([name, "--config", path, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def test_bad_eigensolve_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eigensolve", "--model", "bogus", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "'model'" in capsys.readouterr().err


def test_one_site_eigensolve_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eigensolve", "--d", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "'d'" in capsys.readouterr().err


def test_kron_basis_wider_than_the_space_fails_fast(tmp_path):
    # r = 5 > n**d = 4 distinct index tuples: the basis draw used to loop
    # forever, so both calls run in a child with a timeout.
    src = os.path.dirname(os.path.dirname(ttsketch.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "from ttsketch.cli import _kron_basis; _kron_basis(2, 2, 5, seed=0)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1 and "ValueError: r = 5" in proc.stderr
    cfg = write_cfg(tmp_path / "cfg.json", {"d": 2, "n": 2, "r": 5, "trials": 1})
    proc = subprocess.run([sys.executable, "-m", "ttsketch.cli", "embed_quality", "--config",
                           cfg, "--out", str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2 and "config 'r'" in proc.stderr
    assert _config("embed_quality", {"d": 2, "n": 2, "r": 4})["r"] == 4
    assert _config("embed_quality", {"d": 2, "n": 2, "r": 5, "basis": "tt"})["r"] == 5


def test_config_defaults_and_widening():
    cfg = _config("hadamard", {"target_rank": 8})
    assert cfg["PR"] == 16 and cfg["R_list"] == [1, 2, 4, 8, 16]
    cfg = _config("eigensolve", {"J": 2})
    assert cfg["J"] == 2.0 and isinstance(cfg["J"], float)
    cfg = _config("embed_quality", {"r": 3})
    assert cfg["variants"] == [{"variant": "tts", "P": 6, "R": 1},
                               {"variant": "tts", "P": 2, "R": 3}]
    assert _config("embed_quality", cfg) == cfg


# Small JSON-like values: the ints stay small so that no config asks for a
# large sketch.
json_leaves = (st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
               | st.text(max_size=3) | st.sampled_from(["tfim", "kron", "tt", "real"]))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
variant_entries = st.fixed_dictionaries(
    {"variant": st.sampled_from(["tts", "khatri_rao", "otts"]) | json_values},
    optional={"P": st.integers(1, 4) | json_values, "R": st.integers(1, 4) | json_values,
              "seed": json_values})


def plausible(kind):
    """Values of a config table type, and some just outside it."""
    if isinstance(kind, list):
        return st.lists(plausible(kind[0]), max_size=3)
    if isinstance(kind, tuple):
        return st.sampled_from(kind + ("bogus",))
    if kind is int:
        return st.integers(0, 6)
    if kind is float:
        return st.floats(-3, 3) | st.integers(-3, 3) | st.sampled_from([math.nan, math.inf,
                                                                         -math.inf])
    return st.lists(variant_entries, max_size=2)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(CONFIGS)))
def test_config_fuzz_gives_config_or_value_error(data, name):
    table = CONFIGS[name]
    values = {key: plausible(kind) for key, (kind, _) in table.items()}
    cfg = data.draw(st.fixed_dictionaries({}, optional=values)
                    | st.fixed_dictionaries({}, optional={k: v | json_values
                                                          for k, v in values.items()})
                    | st.dictionaries(st.sampled_from(sorted(table)) | st.text(max_size=3),
                                      json_values, max_size=3))
    try:
        out = _config(name, cfg)
    except ValueError as e:
        assert any(repr(k) in str(e) for k in set(cfg) | set(table)), str(e)
        return
    assert set(out) == set(table) and None not in out.values()
    for v in out.values():  # floats are finite and lists hold something
        assert v != []
        assert all(math.isfinite(u) for u in (v if isinstance(v, list) else [v])
                   if isinstance(u, float))
    assert _config(name, out) == out
