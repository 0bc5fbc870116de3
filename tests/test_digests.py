"""Pinned output bytes on datasets made by arithmetic and on a synthetic one.

Integer edge weights and 0/1 prices make every sum the scorer and the walk
make exact, so the outputs must not depend on which kernel OpenBLAS picks
for the CPU.  The synthetic dataset has integer Zipf weights and 0/1 prices
too, so its files and a partition of it are pinned the same way.  Float
weights and prices make sums inexact; the scorer and the walk's kernel add
them without BLAS, so a report and a walk's telemetry must not depend on
the kernel either.
Each command runs in a subprocess under a forced OPENBLAS_CORETYPE (a core
type the CPU lacks is skipped), and the float-priced ones also with numpy's
own SIMD dispatch held below X86_V4 and below X86_V3 (NPY_DISABLE_CPU_FEATURES;
a level the CPU or numpy lacks is skipped).  The sha256 of each output file
is compared with a digest committed here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cloudcut

try:
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_features__

N_USERS = 40
N_REGIONS = 6
N_CLOUDS = 3

# the CPU features each forced OpenBLAS core type needs
CORE_TYPES = {"Prescott": ("SSE3",), "Haswell": ("AVX2", "FMA3")}
# numpy's own SIMD dispatch levels below the CPU's: each is named by the
# level it drops below, and turns off the features of that level and up
SIMD_LEVELS = {"X86_V4": "X86_V4 AVX512_ICL AVX512_SPR",
               "X86_V3": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"}

DIGESTS = {
    "partition/assignment.csv":
        "f01aff5e0a136a3e86dd1880e518284a1fb325ef620c4a4dabe224c3f029ad26",
    "partition/report.json":
        "a695cfddd6e8dc93ed95593d0ee242d12661c7a669e78660230159e38797d703",
    "partition/telemetry.jsonl":
        "9722bb56bed83f2982bee048707033bcb0a3203acc6d140cbf63059462d734f6",
    "evaluate/report.json":
        "68169d9ad48f50f2dc70383480f7811a6de70552b48b585bca3c36d81ca3ce30",
    "sweep/sweep_alpha.csv":
        "41bafdb04e06908a1774b21fae550aefd4a9ae0225846ed2edf2abdcb8e49e64",
}


def write_dataset(root):
    """Edges with integer weights (0 among them) and a duplicate pair, 0/1
    prices, and plain-decimal affinities and profiles, all from i and r."""
    users = [f"u{i}" for i in range(N_USERS)]
    edges = [f"{users[i]},{users[j]},{(i + k) % 5}\n"
             for i in range(N_USERS) for k in (1, 3, 7)
             for j in [(i * k + k * k) % N_USERS] if j != i]
    edges.append("u2,u3,4\n")
    (root / "edges.csv").write_text("".join(edges), encoding="utf-8")
    (root / "regions.csv").write_text(
        "".join(f"r{r},c{r % N_CLOUDS}\n" for r in range(N_REGIONS)), encoding="utf-8")
    clouds = [f"c{c}" for c in range(N_CLOUDS)]
    (root / "pricing.csv").write_text(
        "cloud," + ",".join(clouds) + "\n"
        + "".join(f"{a}," + ",".join("0" if a == b else "1" for b in clouds) + "\n"
                  for a in clouds), encoding="utf-8")
    (root / "affinities.csv").write_text(
        "".join(f"{u},r{r},0.{(3 * i + 5 * r) % 10},0.{(i + 2 * r) % 8}25\n"
                for i, u in enumerate(users) for r in range(N_REGIONS)), encoding="utf-8")
    (root / "profiles.csv").write_text(
        "".join(f"{u},{i % 4}.5,0.{i % 3}5,r{i % N_REGIONS}\n" for i, u in enumerate(users)),
        encoding="utf-8")


def write_priced_dataset(root):
    """write_dataset's tables with float edge weights and prices, which make
    the scorer's and the walk's sums inexact, so that their order shows in
    the last bits of the report and the telemetry's gains; and an assignment
    of every user."""
    write_dataset(root)
    edges = [f"u{i},u{j},{(7 * i + 3 * j) % 61 / 13!r}\n"
             for i in range(N_USERS) for j in range(N_USERS) if (i * j + i + j) % 3 and i != j]
    (root / "edges.csv").write_text("".join(edges), encoding="utf-8")
    clouds = [f"c{c}" for c in range(N_CLOUDS)]
    (root / "pricing.csv").write_text(
        "cloud," + ",".join(clouds) + "\n"
        + "".join(f"{a}," + ",".join(repr(((3 * i + 5 * j) % 9 + 0.7) / 97) for j in range(N_CLOUDS)) + "\n"
                  for i, a in enumerate(clouds)), encoding="utf-8")
    (root / "assignment.csv").write_text(
        "".join(f"u{i},c{(i * i + i // 5) % N_CLOUDS}\n" for i in range(N_USERS)), encoding="utf-8")


def write_coordinate_dataset(root):
    """write_dataset's tables with plain-decimal region coordinates, from r.
    Run without --affinities, each user's affinities derive from the
    position of its home region, so the model holds one affinity row per
    region."""
    write_dataset(root)
    (root / "regions.csv").write_text(
        "".join(f"r{r},c{r % N_CLOUDS},0.{(3 * r + 1) % 10}5,0.{(7 * r + 2) % 10}5\n"
                for r in range(N_REGIONS)), encoding="utf-8")


def run_cli(root, core_type, *argv, affinities=True, simd_off=None):
    inputs = ["--edges", "edges.csv", "--regions", "regions.csv", "--pricing", "pricing.csv",
              "--profiles", "profiles.csv"]
    if affinities:
        inputs += ["--affinities", "affinities.csv"]
    run_command(root, core_type, *argv, *inputs, simd_off=simd_off)


def run_command(root, core_type, *argv, simd_off=None):
    """Run the CLI under a forced OpenBLAS core type and, if simd_off names
    any, with those numpy SIMD features turned off."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core_type, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(cloudcut.__file__).parents[1]))
    env.pop("CLOUDCUT_OUTPUT_DIR", None)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if simd_off:
        env["NPY_DISABLE_CPU_FEATURES"] = simd_off
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from cloudcut.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", *argv],
        cwd=root, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("core_type", sorted(CORE_TYPES))
def test_outputs_match_their_pinned_digests_on_each_blas_kernel(tmp_path, core_type):
    if not all(__cpu_features__.get(f) for f in CORE_TYPES[core_type]):
        pytest.skip(f"the CPU cannot run OpenBLAS's {core_type} kernels")
    write_dataset(tmp_path)
    run_cli(tmp_path, core_type, "partition", "--telemetry", "--touched-budget", "1",
            "--alpha", "0.6", "--output-dir", "partition")
    run_cli(tmp_path, core_type, "evaluate", "partition/assignment.csv", "--alpha", "0.3",
            "--output-dir", "evaluate")
    run_cli(tmp_path, core_type, "sweep-alpha", "--output-dir", "sweep")
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in DIGESTS}
    assert got == DIGESTS


COORDINATE_DIGESTS = {
    "partition/assignment.csv":
        "cf19563b9f815dfe08f0a4787dda90ba80fe5919f44a485e6ab5b40e0a2eef58",
    "partition/report.json":
        "fb1ab9ea65905e7a47b2c45b79a0f4ab33c529dfc0bb032b7919b8a22efaa9cf",
    "partition/telemetry.jsonl":
        "e242838553928e2c507b3eb3c45c12c9f9d1ca93ccf36c719cab46a8c2b19e8f",
    "sweep/sweep_providers.csv":
        "00d0e492bba8ba7aeeb81d0b39af38b831b60f1b60fd55ae583b4ef93a62d98b",
}


@pytest.mark.parametrize("core_type", sorted(CORE_TYPES))
def test_coordinate_derived_outputs_match_their_pinned_digests_on_each_blas_kernel(tmp_path,
                                                                                  core_type):
    # a model whose users share affinity rows, whole and restricted to each
    # cloud count
    if not all(__cpu_features__.get(f) for f in CORE_TYPES[core_type]):
        pytest.skip(f"the CPU cannot run OpenBLAS's {core_type} kernels")
    write_coordinate_dataset(tmp_path)
    run_cli(tmp_path, core_type, "partition", "--telemetry", "--touched-budget", "1",
            "--alpha", "0.6", "--output-dir", "partition", affinities=False)
    run_cli(tmp_path, core_type, "sweep-providers", "--alpha", "0.6", "--output-dir", "sweep",
            affinities=False)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in COORDINATE_DIGESTS}
    assert got == COORDINATE_DIGESTS


PRICED_REPORT = "905d1a021570546606df9a13a4ab0279a76f0590fca22f9129fb45c7b9e097d6"


@pytest.mark.parametrize("core_type", sorted(CORE_TYPES))
def test_a_float_priced_report_matches_its_pinned_digest_on_each_blas_kernel(tmp_path, core_type):
    # evaluate's sums do not go through BLAS: inexact terms give one report
    # whichever kernel OpenBLAS picks
    if not all(__cpu_features__.get(f) for f in CORE_TYPES[core_type]):
        pytest.skip(f"the CPU cannot run OpenBLAS's {core_type} kernels")
    write_priced_dataset(tmp_path)
    run_cli(tmp_path, core_type, "evaluate", "assignment.csv", "--alpha", "0.3",
            "--output-dir", "evaluate")
    report = (tmp_path / "evaluate" / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == PRICED_REPORT, report.decode()


def skip_unless_simd_level(level):
    """Skip a level the CPU does not reach, or one numpy does not dispatch
    to: a feature it does not know, or one of its baseline."""
    features = SIMD_LEVELS[level].split()
    if not __cpu_features__.get(level):
        pytest.skip(f"the CPU lacks {level}")
    if not set(features) <= set(__cpu_features__) or set(features) & set(__cpu_baseline__):
        pytest.skip(f"numpy does not dispatch to {level}")


@pytest.mark.parametrize("level", sorted(SIMD_LEVELS))
def test_a_float_priced_report_matches_its_pinned_digest_below_each_simd_level(tmp_path, level):
    # evaluate's sums must not depend on the vector width numpy picks either
    skip_unless_simd_level(level)
    write_priced_dataset(tmp_path)
    run_cli(tmp_path, "Prescott", "evaluate", "assignment.csv", "--alpha", "0.3",
            "--output-dir", "evaluate", simd_off=SIMD_LEVELS[level])
    report = (tmp_path / "evaluate" / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == PRICED_REPORT, report.decode()


PRICED_TELEMETRY = "07102c714081868e567df59a05ac5cb38b14dde33bfb8e00ab9024331a71e4d9"


@pytest.mark.parametrize("core_type", sorted(CORE_TYPES))
def test_a_float_priced_walk_matches_its_pinned_telemetry_on_each_blas_kernel(tmp_path,
                                                                             core_type):
    # the walk's kernel does not multiply through BLAS: inexact gains get the
    # same last bits whichever kernel OpenBLAS picks
    if not all(__cpu_features__.get(f) for f in CORE_TYPES[core_type]):
        pytest.skip(f"the CPU cannot run OpenBLAS's {core_type} kernels")
    write_priced_dataset(tmp_path)
    run_cli(tmp_path, core_type, "partition", "--telemetry", "--touched-budget", "1",
            "--alpha", "0.6", "--output-dir", "partition")
    telemetry = (tmp_path / "partition" / "telemetry.jsonl").read_bytes()
    assert hashlib.sha256(telemetry).hexdigest() == PRICED_TELEMETRY, telemetry.decode()


@pytest.mark.parametrize("level", sorted(SIMD_LEVELS))
def test_a_float_priced_walk_matches_its_pinned_telemetry_below_each_simd_level(tmp_path,
                                                                               level):
    skip_unless_simd_level(level)
    write_priced_dataset(tmp_path)
    run_cli(tmp_path, "Prescott", "partition", "--telemetry", "--touched-budget", "1",
            "--alpha", "0.6", "--output-dir", "partition", simd_off=SIMD_LEVELS[level])
    telemetry = (tmp_path / "partition" / "telemetry.jsonl").read_bytes()
    assert hashlib.sha256(telemetry).hexdigest() == PRICED_TELEMETRY, telemetry.decode()


SYNTH_DIGESTS = {
    "synth/edges.csv":
        "dcdf8ea1bc52defebc11a5ff1885cce17bfd1adaa5613d635bd99b634206969c",
    "synth/profiles.csv":
        "82bf325dc6f82c88981fae5a575a0c661336996433c2f6b862e1cb965b5a193f",
    "partition/assignment.csv":
        "3155ecad6c6673845ee5f3c14d8d0043d4a32f288e78e6f65915e77747aae956",
    "partition/report.json":
        "1b1a02d879536d6fcd77c0bcb98399a7f82e34037ed72ec970aceaaa077e7f93",
    "partition/telemetry.jsonl":
        "d28f8ae51b02e4ed00ff256a40601e3068272aba3d58973e534ddae41f83bc86",
}


@pytest.mark.parametrize("core_type", sorted(CORE_TYPES))
def test_synthetic_outputs_match_their_pinned_digests_on_each_blas_kernel(tmp_path, core_type):
    # the synthetic graph's endpoints and Zipf weights, the profiles whose
    # upload volumes are each user's mean out-weight, and a partition of the
    # dataset, all from the seed alone
    if not all(__cpu_features__.get(f) for f in CORE_TYPES[core_type]):
        pytest.skip(f"the CPU cannot run OpenBLAS's {core_type} kernels")
    for command, *flags in (("synth",), ("partition", "--telemetry")):
        run_command(tmp_path, core_type, command, *flags, "--users", "2000", "--seed", "7",
                    "--output-dir", command)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in SYNTH_DIGESTS}
    assert got == SYNTH_DIGESTS
