"""`report` on the benchmark's generated workloads writes pinned bytes.

The generator and the workload shapes are loaded from perfbench/ by path, as
test_span_contract.py loads spans.py. Each (workload, seed) pins the sha256 of
the `manifest.json` that `report` writes (which holds every artifact's digest)
and of its stdout table, so a refactor that moves any byte fails here.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from patchsim.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (manifest.json sha256, stdout sha256) per workload and seed
PINNED = {
    ("paper-report", 1): (
        "3161bb151487665c029e0e44b6ec8ee971a27fabd65110771a9dbce9adfe81ca",
        "ce293c8e2fd0cd03fd11ca49692d412f06b5ff76c05504ab01285064d36fd048",
    ),
    ("paper-report", 2): (
        "79298019d7eec24eacaea0381791af6952de93bd5b3b82e7fb470abeeaf4c420",
        "237c52abf6d51c2c2919c5b44194b1de98e6cd7d697c9909fca3194f086c808a",
    ),
    ("paper-report", 3): (
        "276600149791571145bf991e265d525f9741d13e97611f9a9bc16b5445a579ae",
        "b7973e06a6a9eca35d6d136f505499e8689d7b275444968214640853951e089c",
    ),
    ("campaign-heavy", 1): (
        "0edb24716e5484e9c0eadbf36fff28d377b2fea78179c8dd53a5ec9cfb9d2a15",
        "72339eb99a20c97551708c1645ac54518eabeb3ff6404c3699d2459ceb59677f",
    ),
    ("campaign-heavy", 2): (
        "a4a476ab3ede798152e888d4f43b8f2fbe7b831cae5ec30a0f9838199730d168",
        "52e1a12b8a46fbf5cc30e5d9ffffab422abfe734bee9e4a01f015ed240727849",
    ),
    ("campaign-heavy", 3): (
        "7c20c27cf9b119a7565abe88a870867f87be19942eb25c40cdd63d81c4e7238f",
        "1b09605601fc2818c1218b76ffbc5d01cb9ecb6b527aa43e7794f3fc2fa7f6d8",
    ),
    ("reactive-long", 1): (
        "e232269ff5c184aac4dee399714a99fcc7e938ffcbbc8df3645a46e2ea3c5ce1",
        "f1046a5a1fadd51a8167772165f7db8b09cf2f4a3fb74d061e07ddf18925396a",
    ),
    ("reactive-long", 2): (
        "eb6094d1d497a9c6b94030cc54634c7a1865d351402df9284c1b1cfeb621e686",
        "6ff155d7f89ca849832bc783a0188aed5f0bbaf085339721730bf6c73b0553ed",
    ),
    ("reactive-long", 3): (
        "93e3e5762188ed04fe5292bf8db3ef3dfbd2af2e9419256f425f6df59b8ddf89",
        "1a77a8d5529b9ffa37b3c7fb08c05b5951e6ab162c084d630595759aafe20968",
    ),
}


def _load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # run.py imports gen and spans by bare name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as monkeypatch:
        gen = _load(monkeypatch, "gen")
        _load(monkeypatch, "spans")
        yield gen, _load(monkeypatch, "run").WORKLOADS


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_generated_workload_report_is_pinned(workloads, tmp_path, name, seed):
    gen, table = workloads
    shape = table[name].shape
    gen.generate(shape, seed, tmp_path / "in")
    argv = [
        "report",
        "--releases", str(tmp_path / "in" / "releases.csv"),
        "--vulns", str(tmp_path / "in" / "vulns.json"),
        "--campaigns", str(tmp_path / "in" / "campaigns.csv"),
        "--epoch", shape.epoch,
        "--horizon", shape.horizon,
        "--out", str(tmp_path / "out"),
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run(argv) == 0
    got = (_sha((tmp_path / "out" / "manifest.json").read_bytes()), _sha(stdout.getvalue().encode("utf-8")))
    assert got == PINNED[(name, seed)]
