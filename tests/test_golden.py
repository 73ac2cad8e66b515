"""Golden outputs: `train` on every front and the `ed` tables write the recorded bytes.

Each command runs in-process from a fresh working directory with a relative
``--out``, because ``summary.json`` and ``ed_summary.json`` echo it.  Every
output file's sha256 is compared with ``GOLDEN``, and each `ed` command's
stdout (its ``key: value`` records and ``==`` lines) with ``STDOUT``;
``tests/golden/`` holds the recorded files themselves, so a mismatch names
the first differing line and the largest relative difference between its
numbers.  A last-digit rounding move then reads differently from a real
change.

The table was recorded with numpy 2.4.6 and OpenBLAS 0.3.31.188.0
(scipy-openblas64, DYNAMIC_ARCH) under Python 3.11 on x86-64, on the
SkylakeX kernel.  OpenBLAS picks its kernel by CPU, and another kernel
rounds the matrix products differently, so on another host the digests
may differ by rounding alone; a mismatch names both kernels.  On the
recorded kernel the bytes do not depend on the BLAS thread count, which
one test checks.  An update of the table is a change of test data: list
it in CHANGES.md with its cause.
"""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qccnn
from qccnn.circuits import ANSATZ_KEYS
from qccnn.cli import EXIT_OK, main

from blas import kernel_note

REFERENCE = Path(__file__).parent / "golden"

COMMANDS = [
    *(["train", "--ansatz", front, "--data", "synthetic:train_n=32,val_n=16", "--epochs", "2",
       "--seeds", "0", "--out", f"train/{front}"] for front in (*ANSATZ_KEYS, "classical")),
    ["ed", "--seeds", "0", "--theta-samples", "5", "--data-samples", "50", "--out", "ed"],
    ["ed", "--ed-inputs", "synthetic:train_n=32,val_n=16", "--stride", "1", "--seeds", "0",
     "--theta-samples", "3", "--data-samples", "20", "--out", "ed-inputs"],
]

GOLDEN = {
    "ed/ed_results.csv": "344020d73c27b08f3885111c49c16d03101d1e156c987e6863edeab20d7d6b2e",
    "ed/ed_summary.json": "edc1e213ab754bb5bfdc208a80cd7977b243aaf814ba1158aee6be87ee6570c2",
    "ed-inputs/ed_results.csv": "ecf4a95136f139f588ca9ea6ee4ab4dcfc639fcea8f530f86426771dbc16937b",
    "ed-inputs/ed_summary.json": "dc1f3096e9d621e90659a40d2e7475103fc74c3451afdca56d4f841943578467",
    "train/ancilla-cy/checkpoint_seed0.json": "995d0a71d03719bf559af3d1bb80d91b6887149aafc7f7468d0f6319b8b36249",
    "train/ancilla-cy/metrics.csv": "af23a0e7e73381e41edaad74c6d174ab737f8ad8343ef197ef5b91e61d017d8b",
    "train/ancilla-cy/summary.json": "9eb837aff718c88b64f69dc2cddabf66738bef326ca8951ce76e8127ffd39635",
    "train/ancilla-cz/checkpoint_seed0.json": "05be06866026ae2361b5ec78c5a4e32878040d612a310a438b5e82fed0e5a5f3",
    "train/ancilla-cz/metrics.csv": "af23a0e7e73381e41edaad74c6d174ab737f8ad8343ef197ef5b91e61d017d8b",
    "train/ancilla-cz/summary.json": "9ae9bd5592afb4e0b29c7f0a6f6d44072415767ebcf4fc7359c8cc0ab2148865",
    "train/classical/checkpoint_seed0.json": "46df6c96e4b5495d601a838cbe1d8eb172f6888634ed67a085eedfd41d045661",
    "train/classical/metrics.csv": "4419b307d03d7db965f0359b7311518a3c4998d616d451ead3cd11076b2f546b",
    "train/classical/summary.json": "8971c2f17cd2c4f386c9053f1924c5e12c8fa00b8d28b556202735e5f650ce41",
    "train/conv/checkpoint_seed0.json": "f0f297b5c91ccd8fa01662f507d9321dbf2729c08a330bfc3e934ecfe5e7614c",
    "train/conv/metrics.csv": "4c8f326ec2df9601854e46603814ead8864f52ba7cd51460397f93a6648b8ddf",
    "train/conv/summary.json": "3d26ed154fd301973e4fd450beb04718b709d0368732d84127cb2a3f527e2d42",
    "train/midcircuit-rx/checkpoint_seed0.json": "f7165ee45fd8f08bf10abda09395eec3b91fae6ee8712a7593435dc3f3f848f8",
    "train/midcircuit-rx/metrics.csv": "86b0168d3f49b16d786538c3788b313ca8e8e73d24e78bd8dd7f749cc7997108",
    "train/midcircuit-rx/summary.json": "6115f923b6611cef5b9cbccd3067227adc86e631229b92a7a42201367157c224",
    "train/midcircuit-ry/checkpoint_seed0.json": "e9fc0242c147bf18bd9c03247ecb1daa6776289c253f18cb061f244be15ae6e2",
    "train/midcircuit-ry/metrics.csv": "8e769c7d692ac3851ca73bf0862cde31eecb1a3d82105e1662a08bab1c90ce6e",
    "train/midcircuit-ry/summary.json": "5b92805292b878636beb7bc223e5802fd64dbf466672c6b68b037f6e713ef250",
    "train/mod-a/checkpoint_seed0.json": "03bf38e2f6721ef18defbe10bd744af790ba6dd234c459a17d5436563f1ef58e",
    "train/mod-a/metrics.csv": "696cc12dc2df0159a01916fd951d80cbfa1b6f990be40c81e246e7ee8bb61785",
    "train/mod-a/summary.json": "15b6604ff09dbbd9e2a16de515127f1a3110b8dc98e5bb9c8c4b449ce8e42e0a",
    "train/mod-b/checkpoint_seed0.json": "565761ea226841f160d401a900f7f8aad7f726755016d5a3d062bc1712659288",
    "train/mod-b/metrics.csv": "cf896162c282fe2ab2f1b537b5017640c47b57f2c6553e777108f27fc45cc962",
    "train/mod-b/summary.json": "4af1fece2b5c7810eeee84888ce707cef0e29923afeb38a4ebac2412688e74e6",
    "train/mod-c/checkpoint_seed0.json": "eef2e053fd7e508cef3fa1f06528308aa23d9e6e76d879f35980adc395e345e6",
    "train/mod-c/metrics.csv": "24c82dfdb7a8532e46561b8de22a883c5ddbf9515356ac9e0f8a64c9f0cc1850",
    "train/mod-c/summary.json": "a883e547ce80acaa8db1bdfdb6c826de243b573a8c2c3ea20d37fb4458f0a837",
    "train/select-sign/checkpoint_seed0.json": "ae2fec40b0ad3815ce32da776da06b925b9553f35a85c0f8fa6a5d4f5292f877",
    "train/select-sign/metrics.csv": "50dba1323334efeca306084e73765b5d160d63ed5713da82f7c7a0f942852664",
    "train/select-sign/summary.json": "ffbaa262636eb0d23eb8ae70e5ea125a0258de36327e3580f64d170c522ecdf7",
    "train/select-tanh/checkpoint_seed0.json": "b3a8b4351c24fb2bd8e7d7732ec3f36ccfea201cb3d7e1c792f329c136bcba47",
    "train/select-tanh/metrics.csv": "a8eb9bdda7c6c6c82cf358cb4e3a94368b8cb4be1e5f0e821e3899b6e4fe0504",
    "train/select-tanh/summary.json": "36ade02d4c60f859424c995401176b7d39c76239418765db0cf8a58b3eacc0fb",
}

# The stdout of each `ed` command, by its --out; recorded in tests/golden/stdout/<out>.txt.
STDOUT = {
    "ed": "7fffe4d89438c44e129891e4938194764258bcab48bd5e427e1a04a0d46ccd27",
    "ed-inputs": "b00fd250d51e727e93bc0844772660db53c0b4780576812d5e4ca01fe4698466",
}

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _first_difference(got: str, want: str) -> str:
    """The first differing line of two texts and the largest relative difference of its numbers."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for number, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        if a == b:
            continue
        column = next(i for i, (x, y) in enumerate(zip(a + "\0", b + "\0")) if x != y)
        window = slice(max(0, column - 60), column + 60)
        text = (f"line {number}, column {column + 1}:\n"
                f"  got  ...{a[window]}\n  want ...{b[window]}")
        xs = [float(x) for x in _NUMBER.findall(a)]
        ys = [float(y) for y in _NUMBER.findall(b)]
        if len(xs) != len(ys):
            return f"{text}\n  the lines hold {len(xs)} and {len(ys)} numbers"
        rel = max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(xs, ys) if x != y),
                  default=0.0)
        return f"{text}\n  largest relative difference between its numbers: {rel:.3g}"
    return f"line counts differ: got {len(got_lines)}, want {len(want_lines)}"


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """A directory of every command's outputs, each under its relative --out; stdouts by --out."""
    root = tmp_path_factory.mktemp("golden")
    printed = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert main(argv) == EXIT_OK, argv
            printed[argv[-1]] = stdout.getvalue()
    return root, printed


@pytest.fixture(scope="module")
def outputs(runs) -> Path:
    return runs[0]


def test_the_commands_write_exactly_the_recorded_files(outputs):
    written = sorted(p.relative_to(outputs).as_posix() for p in outputs.rglob("*") if p.is_file())
    assert written == sorted(GOLDEN)


def test_recorded_files_match_the_table():
    recorded = [*GOLDEN.items(), *((f"stdout/{out}.txt", d) for out, d in STDOUT.items())]
    for name, digest in recorded:
        assert _sha256((REFERENCE / name).read_bytes()) == digest, name


def _assert_matches(got: bytes, name: str, digest: str):
    """`got` has `digest`, or the failure names its first difference from the recorded `name`."""
    if _sha256(got) != digest:
        want = (REFERENCE / name).read_text()
        pytest.fail(f"{name} differs from the recorded output; "
                    f"{_first_difference(got.decode(), want)}\n({kernel_note()})")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_its_golden_digest(outputs, name):
    _assert_matches((outputs / name).read_bytes(), name, GOLDEN[name])


@pytest.mark.parametrize("out", sorted(STDOUT))
def test_ed_stdout_matches_its_golden_digest(runs, out):
    # The ``key: value`` record of each key and seed (ansatz, seed, d, gamma,
    # n, theta_samples, data_samples, log_param_volume, ed, normalized_ed),
    # then each key's ``==`` line, byte for byte.
    assert sorted(STDOUT) == sorted(a[-1] for a in COMMANDS if a[0] == "ed")
    _assert_matches(runs[1][out].encode(), f"stdout/{out}.txt", STDOUT[out])


def test_train_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when it loads, so each run is a process
    # of its own, from a working directory of its own.  Under the AVX2 kernel
    # (OPENBLAS_CORETYPE=Haswell) this front's checkpoint and metrics differ
    # between 1 and 2 threads; under the recorded kernel they must not.
    argv = next(a for a in COMMANDS if a[:3] == ["train", "--ansatz", "ancilla-cz"])
    package = str(Path(qccnn.__file__).parents[1])
    written = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": package}
        done = subprocess.run([sys.executable, "-m", "qccnn.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        written.append({p.relative_to(cwd).as_posix(): p.read_bytes()
                        for p in cwd.rglob("*") if p.is_file()})
    one, two = written
    assert sorted(one) == sorted(name for name in GOLDEN if name.startswith("train/ancilla-cz/"))
    differ = [name for name in sorted(one) if one[name] != two.get(name)]
    assert not differ, f"{differ} differ between 1 and 2 BLAS threads ({kernel_note()})"
