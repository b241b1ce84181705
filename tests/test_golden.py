"""Pinned trajectories and artifacts: equal configs give the same bits across versions.

Each case hashes the six per-step outputs of ``run`` (dtype, shape and raw
bytes, in a fixed order). A refactor of the engine must leave every digest
unchanged; a change that alters trajectories on purpose re-pins them and says
so. The artifact cases pin the sha256 of every file that
``write_run_artifact`` and the ``stats``, ``sweep``, ``compare`` and ``bounds``
commands write (CSV and JSON), so estimator and writer changes must keep the bytes too.
"""

import datetime
import hashlib
from pathlib import Path

import numpy as np
import pytest

from specmarket import (
    Endogenous,
    Exogenous,
    MarketConfig,
    Mixed,
    exponential_weights,
    run,
    uniform_weights,
)
from specmarket.cli import main
from specmarket.io import emit_config, write_run_artifact

FIELDS = ("prices", "returns", "mus", "taus", "mean_spec_capital", "final_spec_capitals")

CASES = {
    "endogenous": MarketConfig(n_speculators=64, use_param=0.5, info_mode=Endogenous(4),
                               horizon=3000, seed=1),
    "exogenous_uniform": MarketConfig(n_speculators=64, use_param=0.5,
                                      info_mode=Exogenous(uniform_weights(16)),
                                      horizon=5000, seed=2),
    "exogenous_exp": MarketConfig(n_speculators=48, use_param=0.3,
                                  info_mode=Exogenous(exponential_weights(0.1, 32)),
                                  horizon=5000, seed=3),
    "mixed": MarketConfig(n_speculators=40, use_param=0.6,
                          info_mode=Mixed(2, 2, exponential_weights(0.5, 4)),
                          horizon=5000, seed=4, n_producers=4),
    "random_producers": MarketConfig(n_speculators=48, use_param=0.5, info_mode=Endogenous(5),
                                     horizon=3000, seed=5, n_producers=8,
                                     producer_kind="random"),
    "ties_n2_gamma1": MarketConfig(n_speculators=2, use_param=1.0, info_mode=Endogenous(2),
                                   horizon=2000, seed=3),
}

GOLDEN = {
    "endogenous": "5e094ed5dc5dad603b73323b6d4d9465603cd773d654418af6cfc53319f882ef",
    "exogenous_exp": "dd33e78f6e1b594b95c90a88724cdc403c893845e34b4fc84f2b137b71eecf6f",
    "exogenous_uniform": "b74826497b589a2e99142d3efa2f1f07a957c7b773c5a11d42754c94d9dd768b",
    "mixed": "40078b6cc197f6e3a0eb805050d79ad4588560961bb249f46c79854b21f23869",
    "random_producers": "281a9a05e2e65a0a0fc9cd0bc4319241e332666e7c720629bd21890c19ef3b8d",
    "ties_n2_gamma1": "22f0fc38a3aaf76573f804f0f052716bba18f70d4d11a25aa9bbef1fff8a4f7d",
}


def record_digest(record) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        array = getattr(record, name)
        if name == "taus":
            # hashed in the encoding the pins were made with, float64 with NaN
            # for a state's first occurrence, so they still prove the same trajectories
            array = np.where(array == 0, np.nan, array)
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert record_digest(run(CASES[case])) == GOLDEN[case]


# ---------------------------------------------------------------------------
# artifact bytes: the files that write_run_artifact and the CLI writers emit
# ---------------------------------------------------------------------------

ARTIFACT_CASES = ("endogenous", "exogenous_exp")  # exogenous_exp has empty tau cells and surprise.csv

GOLDEN_ARTIFACTS = {
    "endogenous": {
        "autocorr.csv": "efdba77283649f54319176a9111a2c5ffa64dc30fdbdaa25d9d6ee1fbc047d8f",
        "ccdf.csv": "601b9e6d9e5289a8c53dcbc9ba7be8316ebef48f8874dc8e7ccd96d4f7861740",
        "config.ini": "48aa78a2b87121641f9857f5fc4274a42ae98969c6a30854d9995534b2469b88",
        "run.csv": "84379cfe7e7dcccc2f1f3300a2c82588ed6d3a83d22ffc077072863a9d3bf969",
        "summary.json": "ff29f8b93f67b04f607f83bb526ec2334ea3a893fd87b0eac8aa6d416aea124e",
        "surprise.csv": "eefb433edaa9e201e86aa050810d47a3f83264a1b32c95b31adbe88841dc23e5",
    },
    "exogenous_exp": {
        "autocorr.csv": "b0a575a6372dabc9b0b1da0e255f9cd794762f3bdc533776d0dadfb0057ec8b2",
        "ccdf.csv": "513d73318b3707b432c90c9f06289c6e98a02bcd464c8793c394f3dda7765d62",
        "config.ini": "b13d6f2b7e390793fdae89e339e2bb793980ed8fda4c44c8fb40b058c392431c",
        "run.csv": "8a7304400dbe3581bc78058c611041ce4415a044790870ef5c73d83399a673bf",
        "summary.json": "52e6524bc968b539b055316aff887753ed17e1fbbe8dced5a57334f3f23b26bf",
        "surprise.csv": "415659f34e342ec6074a5deeaee46ae68f9a31ae16b2c90c9cb033829416a8bc",
    },
}

GOLDEN_CLI = {
    "compare": {
        "compare_autocorr.csv": "f9671f083928d170d7ae3eede8806089adf2cab79a494d7c64ce957ffbcc2f91",
        "compare_ccdf.csv": "efa8231e5f840d85a19daf1e4d11da1aa7044a898b75bc5daf450aff513e99df",
        "compare_summary.json": "fcd4d8351390f8f8c47d7cb0740dab016341083357967bd1d9728f50700846b3",
    },
    "stats": {
        "autocorr.csv": "efdba77283649f54319176a9111a2c5ffa64dc30fdbdaa25d9d6ee1fbc047d8f",
        "ccdf.csv": "601b9e6d9e5289a8c53dcbc9ba7be8316ebef48f8874dc8e7ccd96d4f7861740",
        "summary.json": "5f19a2f889778cacaa5c34aaed0ec3ab2a3f712bb15f0ededb3a0be15c7b9d5c",
    },
    "sweep": {"grid.csv": "fb24a57459d418176e3b4741b3ad39faac63110eabeb92326fbcf4a67b3c9a20"},
    "sweep_json": {"grid.json": "2be26048d679da275a9447fffae2e8a9759a71cb56898eace08ed34c15866658"},
    "sweep_failing": {"grid.csv": "747472a938e45714204334e3cc6ae5368f9ec1d8b4e7e3e2f5ff0c837014c8c7"},
    "sweep_failing_json": {
        "grid.json": "af74afba9e16d1d0f211a1db4ad413cefba2cfd5225c3763ce835a6e40c4a27e"},
    "bounds": {"bounds.csv": "b313c540de0ea5c861ffbbff70fb414d75e6f7fc58ed232710c894991513887c"},
    "bounds_json": {"bounds.json": "d6def46279b5fcb387b2ec4c2e617a4103c44972c6b5e8e0e388e5994ca07ef0"},
    "bounds_d512": {"bounds.csv": "98d68f0d7032aad3ea0e6e366635b1eb2dd9386180589390bae2977479405af8"},
    "bounds_d512_json": {"bounds.json": "2a1e491f303ac75cb5a5b6dc574530696985e1ad35cf19813392614996031708"},
}


def file_digests(paths) -> dict:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


@pytest.mark.parametrize("case", ARTIFACT_CASES)
def test_golden_artifact_bytes(case, tmp_path):
    files = write_run_artifact(tmp_path, CASES[case], run(CASES[case]))
    assert file_digests(files.values()) == GOLDEN_ARTIFACTS[case]


def test_golden_cli_bytes(tmp_path):
    config = CASES["endogenous"]
    write_run_artifact(tmp_path / "sim", config, run(config))
    ini = tmp_path / "sweep.ini"
    ini.write_text(emit_config(config) + "\n[sweep]\naxes = alpha\nalpha = 0.25, 2\nrepetitions = 2\n")
    # an integer axis, and a node whose every repetition is refused: empty cells and failures
    failing = tmp_path / "failing.ini"
    failing.write_text(emit_config(config) + "\n[sweep]\naxes = n_states, use_param\nn_states = 16\n"
                       "use_param = 0.5, 1.5\nrepetitions = 3\nmetrics = variance, income_factor\n")
    closes = 50.0 * np.exp(np.cumsum(np.random.default_rng(6).normal(0, 0.01, size=400)))
    day = datetime.date(1990, 1, 1)
    empirical = tmp_path / "emp.csv"
    empirical.write_text("".join(f"{day + datetime.timedelta(days=i)},{float(c)!r}\n"
                                 for i, c in enumerate(closes)))
    outputs = {}
    bounds = ["bounds", "--states", "64", "--alphas", "0.25,0.5,1,2,4"]
    # the README table: its small alphas run the recursion out to N_s = 16384
    bounds_d512 = ["bounds", "--states", "512", "--alphas", "0.03125,0.0625,0.125,0.25,0.5,1,2,4,8"]
    for name, argv in (
        ("stats", ["stats", "--input", str(tmp_path / "sim" / "run.csv")]),
        ("sweep", ["sweep", "--config", str(ini)]),
        ("sweep_json", ["sweep", "--config", str(ini), "--format", "json"]),
        ("sweep_failing", ["sweep", "--config", str(failing)]),
        ("sweep_failing_json", ["sweep", "--config", str(failing), "--format", "json"]),
        ("compare", ["compare", "--config", str(ini), "--empirical", str(empirical)]),
        ("bounds", bounds),
        ("bounds_json", bounds + ["--format", "json"]),
        ("bounds_d512", bounds_d512),
        ("bounds_d512_json", bounds_d512 + ["--format", "json"]),
    ):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        outputs[name] = file_digests(sorted(out.iterdir()))
    assert outputs == GOLDEN_CLI
