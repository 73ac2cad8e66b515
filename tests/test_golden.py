"""Golden outputs: `train` on every front, the `ed` tables and `curves` write the recorded bytes.

Each command runs in-process from a fresh working directory with a relative
``--out``, because ``summary.json`` and ``ed_summary.json`` echo it.  Every
output file's sha256 is compared with ``GOLDEN``, and each `ed` command's
stdout (its ``key: value`` records and ``==`` lines) with ``STDOUT``.
`curves` reads recorded runs (``CURVES_RUNS``), and its CSV and SVG are
compared with ``CURVES``;
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
    "ed/ed_results.csv": "bc379470450c14b156d7be7b3f07ed7e2e89a65db6c99c27cc618272a793ff7a",
    "ed/ed_summary.json": "9878a8de8e55c64f67d6f39ff0ea73d43c3333eb1e70ea34358f7d4600303bd2",
    "ed-inputs/ed_results.csv": "cbf093e60d3669ed9aaee9c8cb638eee3ec17491a3fe04e63f4b65e4455c4dc5",
    "ed-inputs/ed_summary.json": "8f99fc48f3101a450ba0bd7e38b5d3e030dcc1abb9702119ecf9931739ce1cb1",
    "train/ancilla-cy/checkpoint_seed0.json": "7bf545a445e437d8df5f1043606b8739068f252bd61e00bbfb03ee434e7411c7",
    "train/ancilla-cy/metrics.csv": "0c6cd229f04d5b788c9fed850ba83eee8cb36d3b0877207f2c4d76015288a449",
    "train/ancilla-cy/summary.json": "9eb837aff718c88b64f69dc2cddabf66738bef326ca8951ce76e8127ffd39635",
    "train/ancilla-cz/checkpoint_seed0.json": "abacf8bc47b6830d8e1f28dada718b778e7b49124b8c7bc2f052f6823cd39e79",
    "train/ancilla-cz/metrics.csv": "0c6cd229f04d5b788c9fed850ba83eee8cb36d3b0877207f2c4d76015288a449",
    "train/ancilla-cz/summary.json": "9ae9bd5592afb4e0b29c7f0a6f6d44072415767ebcf4fc7359c8cc0ab2148865",
    "train/classical/checkpoint_seed0.json": "46df6c96e4b5495d601a838cbe1d8eb172f6888634ed67a085eedfd41d045661",
    "train/classical/metrics.csv": "4419b307d03d7db965f0359b7311518a3c4998d616d451ead3cd11076b2f546b",
    "train/classical/summary.json": "8971c2f17cd2c4f386c9053f1924c5e12c8fa00b8d28b556202735e5f650ce41",
    "train/conv/checkpoint_seed0.json": "b98ee13efc00ab4b3123e6a9eae14a85764d4d9f54e90c3cd0c8d1cdae2b6f69",
    "train/conv/metrics.csv": "7dad88d099f773b99b147e7a7ad5dc281de37f557f5f5590c0ebadf1e0010d71",
    "train/conv/summary.json": "3d26ed154fd301973e4fd450beb04718b709d0368732d84127cb2a3f527e2d42",
    "train/midcircuit-rx/checkpoint_seed0.json": "2e33ad2532d4e22e3df4f519c6dabfc653ead29a5371295fc387a804d08734c3",
    "train/midcircuit-rx/metrics.csv": "4174e8e7c215bf9bd12d0583c4c391e9d2481025803d1e366437b7f4449f5aa6",
    "train/midcircuit-rx/summary.json": "6115f923b6611cef5b9cbccd3067227adc86e631229b92a7a42201367157c224",
    "train/midcircuit-ry/checkpoint_seed0.json": "4cd523bd8841c2fc37664032debc1a832f474325cdf62ef5b3fed8cbb8e0991d",
    "train/midcircuit-ry/metrics.csv": "44a3b6f50677df576992dc36649bdf0b0e6e4fa3dc7c257e5650b92c6c52f3a2",
    "train/midcircuit-ry/summary.json": "5b92805292b878636beb7bc223e5802fd64dbf466672c6b68b037f6e713ef250",
    "train/mod-a/checkpoint_seed0.json": "17609817a47873e07e605029004ea62aa385f111b826fd150f24a79d12eafe6b",
    "train/mod-a/metrics.csv": "fe421b3d5a01967019c0e840163ee52c2840f393b0456ec735444d1134e92505",
    "train/mod-a/summary.json": "15b6604ff09dbbd9e2a16de515127f1a3110b8dc98e5bb9c8c4b449ce8e42e0a",
    "train/mod-b/checkpoint_seed0.json": "d691dd30f3b137631828dc479a3179492a0d925fc3ce4c357ef704f065816a93",
    "train/mod-b/metrics.csv": "47e81345e417e2eacfa5d4419409600a318f3234081a635c38974f2596b3f61b",
    "train/mod-b/summary.json": "4af1fece2b5c7810eeee84888ce707cef0e29923afeb38a4ebac2412688e74e6",
    "train/mod-c/checkpoint_seed0.json": "8159e0955f803b5035e56f9104cd4703d7ff6c4b209dffcdf4b0b50b0dd2c4d7",
    "train/mod-c/metrics.csv": "59af9768c624b23e73326b7969216807bfaf6c0a9b48477aa0fa23c6879b5399",
    "train/mod-c/summary.json": "a883e547ce80acaa8db1bdfdb6c826de243b573a8c2c3ea20d37fb4458f0a837",
    "train/select-sign/checkpoint_seed0.json": "ae2fec40b0ad3815ce32da776da06b925b9553f35a85c0f8fa6a5d4f5292f877",
    "train/select-sign/metrics.csv": "50dba1323334efeca306084e73765b5d160d63ed5713da82f7c7a0f942852664",
    "train/select-sign/summary.json": "ffbaa262636eb0d23eb8ae70e5ea125a0258de36327e3580f64d170c522ecdf7",
    "train/select-tanh/checkpoint_seed0.json": "cee113be81d6e6b044a375e97df0fed8d676e9850feaca71642eb16b1c1855bc",
    "train/select-tanh/metrics.csv": "02eb21e9fa4210cd6eb21b7c2df133ff10a3bbc1e774a15b3d1deb41b90fdf6c",
    "train/select-tanh/summary.json": "36ade02d4c60f859424c995401176b7d39c76239418765db0cf8a58b3eacc0fb",
}

# The stdout of each `ed` command, by its --out; recorded in tests/golden/stdout/<out>.txt.
STDOUT = {
    "ed": "569b491a23f01492cdadc77184d5805055b7b7c722736cef4015e1868d237cc6",
    "ed-inputs": "87adc656377faced80b00b5ae99284f485b59a9b5da2dcf6b538c69cf055bdbe",
}

# `curves` over recorded runs, by name: the run directories under tests/golden/ it reads.
# The 11 `train` runs have one seed each; the fixture's four seeds stop after 6, 6, 5
# and 1 epochs, so its later epochs average fewer seeds.
CURVES_RUNS = {
    "train": [f"train/{front}" for front in (*ANSATZ_KEYS, "classical")],
    "classical-4-seeds": ["curves/classical-4-seeds"],
}

# The command that wrote the fixture's metrics.csv, run from tests/golden/curves/.
SEEDS_FIXTURE = ["train", "--ansatz", "classical", "--data", "synthetic:size=6,train_n=12,val_n=6",
                 "--epochs", "6", "--seeds", "0,1,2,3", "--stop-at-train-acc", "0.7",
                 "--out", "classical-4-seeds"]

# The fixture and each `curves` output (curves/<name>.csv and .svg), recorded under tests/golden/.
CURVES = {
    "curves/classical-4-seeds/metrics.csv":
        "8ade31ead5625c7f5c7657be410319c213a5392452635f6af67dd28a7b9859f5",
    "curves/classical-4-seeds.csv": "3804f40dff53bce62cfb2812a9fd5aad6ff4ef5791a808ae38281ed2486568ed",
    "curves/classical-4-seeds.svg": "cd6b973da332920b470c236fa2ec538682597e8c5483622d0a81a4ed9240c83f",
    "curves/train.csv": "8c704b13fe7302ea4da330ff2eb35360241e50fd4d2dc2c874534396d4cb0e92",
    "curves/train.svg": "9cb1f62a42a65c02ed1c7d82cf065a8ef1f04a6cc321da26522c6059b86aa066",
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
    recorded = [*GOLDEN.items(), *CURVES.items(),
                *((f"stdout/{out}.txt", d) for out, d in STDOUT.items())]
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


def test_the_multi_seed_fixture_is_what_train_writes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(SEEDS_FIXTURE) == EXIT_OK
    name = "curves/classical-4-seeds/metrics.csv"
    _assert_matches((tmp_path / "classical-4-seeds" / "metrics.csv").read_bytes(), name,
                    CURVES[name])


@pytest.mark.parametrize("name", sorted(CURVES_RUNS))
def test_curves_match_their_golden_digests(tmp_path, name):
    # Run on the recorded inputs, so these pin `curves` alone, not the runs it reads.
    # Each series is labelled by its directory's name.
    written = {suffix: tmp_path / f"{name}.{suffix}" for suffix in ("csv", "svg")}
    argv = ["curves", *(str(REFERENCE / run) for run in CURVES_RUNS[name]),
            "--out", str(written["csv"]), "--svg", str(written["svg"])]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    for suffix, path in written.items():
        recorded = f"curves/{name}.{suffix}"
        _assert_matches(path.read_bytes(), recorded, CURVES[recorded])


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
