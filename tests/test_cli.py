"""CLI commands end to end: files, determinism, exit codes."""

import builtins
import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

try:
    import resource
except ImportError:   # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabichain import analytic, blas, cli, config, dynamics, output
from rabichain.cli import main
from rabichain.dynamics import grid_points
from rabichain.lattice import CouplingCalibration, OpticalConstants, parse_recipe, verify_recipe
from rabichain.model import FullState, RabiParams
from conftest import (OPENBLAS_THREADS, blas_threads, every_openblas_at_one_thread, openblas_libraries,
                      set_blas_threads)
from test_dynamics import failing_lapack, perturbed_eigh_tridiagonal

DSC_CONFIG = """
[model]
omega0 = 0
omega = 0.23
g = 0.15
n_trunc = 64
initial = e0

[grid]
t_max = 60
dt = 0.1

[design]
n_guides = 15
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(DSC_CONFIG)
    return path


def read_table(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split("\t")
    data = np.array([[float(x) for x in ln.split("\t")] for ln in lines[1:]])
    return header, data


def test_simulate_writes_timeseries_and_map(config_path, tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    header, ts = read_table(out / "timeseries.tsv")
    assert header == ["t_mm", "P_e", "P_g", "P_r", "mean_n"]
    assert ts.shape == (601, 5)
    _, imap = read_table(out / "intensity_map.tsv")
    assert imap.shape == (601, 65)  # t column + 64 sites
    # periodic bouncing with period ~27.3 mm
    t, pr = ts[:, 0], ts[:, 3]
    peak = pr[(t > 20) & (t < 35)].argmax()
    t_peak = t[(t > 20) & (t < 35)][peak]
    assert abs(t_peak - 27.3) < 0.3
    # P_e + P_g = 1
    assert np.abs(ts[:, 1] + ts[:, 2] - 1.0).max() < 1e-10


def run_under_file_size_limit(limit, *args):
    """The CLI in a child process whose files cannot grow past ``limit`` bytes."""
    return subprocess.run(
        [sys.executable, "-m", "rabichain.cli", *args],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_a_write_past_the_file_size_limit_leaves_the_earlier_file(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    earlier = (out / "intensity_map.tsv").read_bytes()
    umask = os.umask(0)
    os.umask(umask)
    assert (out / "intensity_map.tsv").stat().st_mode & 0o777 == 0o666 & ~umask   # a plain open's
    limit = len(earlier) // 2   # timeseries.tsv fits, the map does not
    assert (out / "timeseries.tsv").stat().st_size < limit
    proc = run_under_file_size_limit(limit, "simulate", "--config", str(config_path), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "File too large" in proc.stderr
    assert (out / "intensity_map.tsv").read_bytes() == earlier
    assert sorted(p.name for p in out.iterdir()) == ["intensity_map.tsv", "timeseries.tsv"]


def earlier_and_other(tmp_path, command, text, other_text, *flags):
    """``command`` on ``text`` into out/ and on ``other_text`` into other/: the files of both."""
    for name, config_text in (("out", text), ("other", other_text)):
        (tmp_path / f"{name}.cfg").write_text(config_text)
        assert main([command, "--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(tmp_path / name), *flags]) == 0
    return [{p.name: p.read_bytes() for p in (tmp_path / name).iterdir()} for name in ("out", "other")]


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_a_simulate_whose_table_fails_to_write_leaves_none_of_its_new_files(tmp_path):
    # a 829 B raster and a 4,614 B timeseries: the raster fits under the limit, the table does not
    text = (DSC_CONFIG.replace("n_trunc = 64", "n_trunc = 16").replace("t_max = 60", "t_max = 5")
            + "\n[output]\noutputs = timeseries\n")
    other_text = text.replace("g = 0.15", "g = 0.14")
    earlier, other = earlier_and_other(tmp_path, "simulate", text, other_text, "--image")
    limit = len(other["timeseries.tsv"]) // 2
    assert len(other["intensity_map.pgm"]) < limit
    assert other["intensity_map.pgm"] != earlier["intensity_map.pgm"]
    proc = run_under_file_size_limit(limit, "simulate", "--config", str(tmp_path / "other.cfg"),
                                     "--out", str(tmp_path / "out"), "--image")
    assert proc.returncode == 2, proc.stderr
    assert "File too large" in proc.stderr
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == earlier


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_a_design_whose_recipe_fails_to_write_leaves_none_of_its_new_files(tmp_path):
    other_text = DSC_CONFIG.replace("g = 0.15", "g = 0.14")
    earlier, other = earlier_and_other(tmp_path, "design", DSC_CONFIG, other_text)
    limit = len(other["recipe.tsv"]) - 1   # the report fits, the recipe does not
    assert len(other["recipe_report.txt"]) < limit
    assert other["recipe_report.txt"] != earlier["recipe_report.txt"]
    proc = run_under_file_size_limit(limit, "design", "--config", str(tmp_path / "other.cfg"),
                                     "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert "File too large" in proc.stderr
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == earlier


# omega0 = 0.08 and a state on both chains; at n_trunc 320 the chains reach 160 sites, so
# the map has dead columns
STREAM_CONFIG = (DSC_CONFIG.replace("omega0 = 0", "omega0 = 0.08").replace("n_trunc = 64", "n_trunc = 320")
                 .replace("initial = e0", "initial_e = 0.6\ninitial_g = 0.8"))


@pytest.mark.parametrize("points", [1024, 1025, 1087, 1088, 2049])
def test_streamed_files_are_the_text_of_the_whole_trajectory(tmp_path, points):
    # one block; a block with a joined 1- or 63-point tail; two blocks; two blocks with a joined tail
    text = STREAM_CONFIG.replace("t_max = 60", f"t_max = {(points - 1) * 0.1!r}")
    (tmp_path / "run.cfg").write_text(text)
    run = config.load_config(tmp_path / "run.cfg")
    n = run.params.n_trunc
    with blas.one_thread():   # every array can differ in the last bit between thread counts
        traj = dynamics.run_trajectory(run.params, run.initial, run.t_max, run.dt)
        assert traj.t_grid.shape[0] == points
        assert traj.pnt[:, -1].max() == 0.0 < traj.pnt[:, 0].max()
        whole = {"timeseries.tsv": "".join(output.timeseries_text(traj)).encode("ascii"),
                 "intensity_map.tsv": "".join(output.intensity_map_text(traj)).encode("ascii"),
                 "intensity_map.pgm": output.intensity_map_pgm(traj.pnt.T, n)}
        for i, (outputs, image) in enumerate([("timeseries", False), ("intensity_map", False),
                                              ("timeseries, intensity_map", True), ("", True)]):
            cfg, out = tmp_path / f"{i}.cfg", tmp_path / f"out{i}"
            cfg.write_text(text + f"\n[output]\noutputs = {outputs}\n")
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]
                        + ["--image"] * image) == 0
            names = [f"{kind.strip()}.tsv" for kind in outputs.split(",") if kind.strip()]
            names += ["intensity_map.pgm"] * image
            assert {p.name: p.read_bytes() for p in out.iterdir()} == {k: whole[k] for k in names}


def test_truncation_note_is_the_top_site_occupancy_of_the_whole_map(tmp_path, capsys):
    # n_trunc 15 is truncation-contaminated; 2,049 points are two blocks
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DSC_CONFIG.replace("n_trunc = 64", "n_trunc = 15").replace("t_max = 60", "t_max = 204.8"))
    run = config.load_config(cfg)
    traj = dynamics.run_trajectory(run.params, run.initial, run.t_max, run.dt)
    tops = [dynamics.top_occupancy(pop, 15)
            for _, pop, *_ in dynamics.trajectory_blocks(run.params, run.initial, traj.t_grid)]
    assert len(tops) == 2
    assert max(tops) == traj.top_site_occupancy == float(traj.pnt[:, -2:].max())
    assert traj.truncation_flagged
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == (
        f"note: truncation-contaminated run, top-site occupancy {traj.top_site_occupancy:.3e}\n")


# Runs the CLI, then prints how many threads are left, and exits with the CLI's code.
CHILD_RUN = """
import json, sys, threading
from rabichain import cli
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "threads": threading.active_count()}))
sys.exit(rc)
"""


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_a_write_that_fails_in_the_middle_of_the_map_leaves_no_file_and_no_thread(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DSC_CONFIG.replace("t_max = 60", "t_max = 300"))   # 3,001 points: three blocks
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "whole")]) == 0
    limit = (tmp_path / "whole" / "intensity_map.tsv").stat().st_size // 2
    assert (tmp_path / "whole" / "timeseries.tsv").stat().st_size < limit
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_RUN, "simulate", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )
    assert proc.returncode == 2, proc.stderr
    assert "File too large" in proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"rc": 2, "threads": 1}
    assert list(out.iterdir()) == []   # no temporary file, no cut-off file, no timeseries


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_a_signal_in_the_middle_of_the_map_leaves_no_file_and_no_traceback(tmp_path, signum):
    # the map_export run, n_trunc 1024 over 6,001 points: the signal comes while the map is written
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DSC_CONFIG.replace("n_trunc = 64", "n_trunc = 1024").replace("t_max = 60", "t_max = 600"))
    out = tmp_path / "out"
    child = subprocess.Popen(
        [sys.executable, "-m", "rabichain.cli", "simulate", "--config", str(cfg), "--out", str(out)],
        stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    deadline = time.monotonic() + 60
    while not list(out.glob(".intensity_map.tsv.*.tmp")) and child.poll() is None:
        assert time.monotonic() < deadline, "no temporary map file appeared"
        time.sleep(0.002)
    child.send_signal(signum)
    _, stderr = child.communicate(timeout=60)
    assert child.returncode == 128 + signum, stderr
    assert stderr == f"stopped by {signal.Signals(signum).name}\n"
    assert list(out.iterdir()) == []


def test_main_restores_the_signal_handlers_it_sets(config_path, tmp_path, monkeypatch):
    before = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
    seen = {}

    def simulate(*args):
        seen.update({s: signal.getsignal(s) for s in before})
        return 0

    monkeypatch.setattr(cli, "cmd_simulate", simulate)
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    assert seen == dict.fromkeys(before, cli._stop)
    assert {s: signal.getsignal(s) for s in before} == before


def test_main_off_the_main_thread_sets_no_signal_handler(config_path, tmp_path):
    before = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
    with ThreadPoolExecutor(max_workers=1) as pool:
        rc = pool.submit(main, ["simulate", "--config", str(config_path), "--out", str(tmp_path)]).result()
    assert rc == 0
    assert {s: signal.getsignal(s) for s in before} == before


def test_simulate_is_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config_path), "--out", str(out1), "--image"]) == 0
    assert main(["simulate", "--config", str(config_path), "--out", str(out2), "--image"]) == 0
    for name in ("timeseries.tsv", "intensity_map.tsv", "intensity_map.pgm"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_frozen_map_without_coupling(config_path, tmp_path):
    cfg = tmp_path / "frozen.cfg"
    cfg.write_text(DSC_CONFIG.replace("g = 0.15", "g = 0"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, imap = read_table(out / "intensity_map.tsv")
    assert np.abs(imap[:, 1:] - imap[0, 1:]).max() < 1e-12


def test_simulate_image_header_and_orientation(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out), "--image"]) == 0
    blob = (out / "intensity_map.pgm").read_bytes()
    assert blob.startswith(b"P5\n601 64\n255\n")  # width = times, height = sites
    pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8).reshape(64, 601)
    assert pixels[0, 0] == 255  # all power enters site 0 at t = 0
    assert pixels.max() == 255


def test_simulate_signed_detuning_changes_the_map(config_path, tmp_path):
    # simulating the two signed-detuning devices with the same input guide
    # gives visibly different intensity maps (the left/right contrast)
    maps = {}
    for sign, name in ((-0.08, "neg"), (+0.08, "pos")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(DSC_CONFIG.replace("omega0 = 0", f"omega0 = {sign}"))
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, maps[name] = read_table(out / "intensity_map.tsv")
    assert np.abs(maps["neg"][:, 1:] - maps["pos"][:, 1:]).max() > 0.05


def test_sweep_single_point_matches_simulate(config_path, tmp_path):
    out = tmp_path / "out"
    assert main([
        "sweep", "--config", str(config_path), "--out", str(out),
        "--omega0-list", "0",
    ]) == 0
    header, data = read_table(out / "sweep.tsv")
    assert header == ["omega0_mm1", "min_P_r", "min_population", "max_mean_n"]
    # omega0 = 0 minima match the closed forms at T/2
    assert data[0, 1] == pytest.approx(0.18244, abs=2e-4)
    assert data[0, 3] == pytest.approx(1.70132, abs=2e-4)


@pytest.mark.parametrize("points", [1000, 1087, 1088, 2049])
def test_sweep_folds_the_extremes_of_the_whole_trajectory(tmp_path, points):
    # one block; a block with a joined 63-point tail; two blocks; two blocks with a joined tail
    t_bounce = 2 * np.pi / 0.23
    dt = t_bounce / (points - 1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DSC_CONFIG.replace("dt = 0.1", f"dt = {dt!r}"))
    omega0_list = [-0.08, 0.0, 0.05]
    rows = []
    with blas.one_thread():   # as the sweep pool runs
        for v in omega0_list:
            params = RabiParams(omega0=abs(v), omega=0.23, g=0.15, n_trunc=64)
            initial = FullState.basis_state("e" if v >= 0 else "g", 0, 64)
            traj = dynamics.run_trajectory(params, initial, t_bounce, dt)
            assert traj.t_grid.shape[0] == points
            population = traj.p_e if v >= 0 else traj.p_g
            rows.append((v, traj.p_r.min(), population.min(), traj.mean_n.max()))
    whole = "".join(output.sweep_summary_text(rows)).encode("ascii")
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs,
                     "--omega0-list=" + ",".join(map(str, omega0_list))]) == 0
        assert (out / "sweep.tsv").read_bytes() == whole


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_notes_each_truncation_contaminated_point_in_list_order(tmp_path, capsys, jobs):
    # n_trunc 8 at g 0.3: the top two sites of either point hold about 0.31
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DSC_CONFIG.replace("g = 0.15", "g = 0.3").replace("n_trunc = 64", "n_trunc = 8"))
    t_bounce = 2 * np.pi / 0.23
    with blas.one_thread():   # as the sweep pool runs
        tops = [dynamics.run_trajectory(RabiParams(omega0=v, omega=0.23, g=0.3, n_trunc=8),
                                        FullState.basis_state("e", 0, 8), t_bounce, 0.1)
                .top_site_occupancy for v in (0.1, 0.0)]
    assert min(tops) > 0.3
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--jobs", jobs,
                 "--omega0-list=0.1,0"]) == 0
    assert capsys.readouterr().err == "".join(
        f"note: truncation-contaminated sweep point omega0 = {v!r}, top-site occupancy {top:.3e}\n"
        for v, top in zip((0.1, 0.0), tops))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    assert capsys.readouterr().err.startswith("note: truncation-contaminated run, ")


def test_the_benchmark_sweep_notes_no_truncation(tmp_path, capsys):
    # the 24 seed-0 points of perfbench's checks workload at n_trunc 512, where the state
    # reaches site 170 at most
    rng = random.Random(0)
    omega0_list = ",".join(repr(round(rng.uniform(-0.3, 0.3), 4)) for _ in range(24))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DSC_CONFIG.replace("n_trunc = 64", "n_trunc = 512").replace("dt = 0.1\n", ""))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--jobs", "2",
                 f"--omega0-list={omega0_list}"]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_monotone_and_parallel_deterministic(config_path, tmp_path):
    # "=" form: a bare value starting with "-" would parse as an option
    args = ["sweep", "--config", str(config_path),
            "--omega0-list=-0.08,-0.04,0,0.04,0.08"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--jobs", "4"]) == 0
    assert (out1 / "sweep.tsv").read_bytes() == (out2 / "sweep.tsv").read_bytes()
    _, data = read_table(out1 / "sweep.tsv")
    assert np.all(np.diff(data[:, 1]) < 0)  # min P_r strictly decreasing
    assert np.all(np.diff(data[:, 2]) < 0)  # min population strictly decreasing


needs_openblas = pytest.mark.skipif(not blas_threads(), reason="no OpenBLAS listed in /proc/self/maps")


@needs_openblas
def test_commands_cap_blas_threads_and_restore_them(config_path, tmp_path, monkeypatch, capsys):
    before = blas_threads()
    seen = {}
    real_validation, real_point = cli.run_validation, cli._sweep_point

    def validation():
        seen["validate"] = blas_threads()
        return real_validation()

    def point(*args):
        seen["sweep"] = blas_threads()
        return real_point(*args)

    monkeypatch.setattr(cli, "run_validation", validation)
    monkeypatch.setattr(cli, "_sweep_point", point)
    assert main(["validate"]) == 0
    assert blas_threads() == before
    assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "out"),
                 "--omega0-list=-0.04,0,0.04", "--jobs", "2"]) == 0
    assert blas_threads() == before
    assert seen["validate"] == seen["sweep"] == {**before, "numpy": 1}   # scipy's keeps its count


def test_sweep_output_does_not_depend_on_the_blas_cap(config_path, tmp_path, monkeypatch):
    args = ["sweep", "--config", str(config_path), "--omega0-list=-0.08,-0.04,0,0.04,0.08",
            "--jobs", "2"]
    assert main(args + ["--out", str(tmp_path / "capped")]) == 0
    monkeypatch.setattr(cli, "one_thread", contextlib.nullcontext)
    assert main(args + ["--out", str(tmp_path / "default")]) == 0
    assert ((tmp_path / "capped" / "sweep.tsv").read_bytes()
            == (tmp_path / "default" / "sweep.tsv").read_bytes())


def no_numpy_openblas(monkeypatch):
    """Make ``blas`` look numpy's OpenBLAS up afresh and find none: no symbol resolves."""
    monkeypatch.setattr(blas, "_openblas", lambda: SimpleNamespace())
    monkeypatch.setattr(blas, "_lapack", blas._lapack.__wrapped__)   # not the handle found already


def proc_reads(monkeypatch, maps=None):
    """Make ``open`` refuse every /proc path but /proc/self/maps, which reads as ``maps`` (None: refused too)."""
    real_open = open

    def fake_open(path, *args, **kwargs):
        if str(path) == "/proc/self/maps" and maps is not None:
            return io.StringIO(maps)
        if str(path).startswith("/proc"):
            raise PermissionError(f"no access to {path}")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", fake_open)


@pytest.mark.parametrize("maps", [None, "", "7f00-7f01 r-xp 00000000 08:01 42 /usr/lib/libm.so.6\n"])
def test_blas_cap_does_nothing_without_an_openblas_listed(monkeypatch, maps):
    # neither numpy's handle nor /proc/self/maps (None: unreadable) lists an OpenBLAS: the cap
    # sets no count.  The counts are read through the libraries listed before the patches
    libraries = openblas_libraries()

    def counts():
        return {build: getattr(handle, OPENBLAS_THREADS[build][0])() for build, handle in libraries.items()}

    before = counts()
    no_numpy_openblas(monkeypatch)
    proc_reads(monkeypatch, maps)
    assert blas_threads() == {}
    with blas.one_thread():
        assert counts() == before
    assert counts() == before
    assert blas.numpy_core.__wrapped__() is None   # no core to read: the full product


def test_a_missing_lapack_exits_2_naming_both_symbols(config_path, tmp_path, capsys, monkeypatch):
    # a numpy whose OpenBLAS exports no ILP64 LAPACK: the first eigensolve fails in one line,
    # and writes nothing.  design solves nothing and runs
    no_numpy_openblas(monkeypatch)
    assert main(["validate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("library error: numpy's OpenBLAS exports no scipy_dstevd_64_ "
                                   "and no scipy_dsyevr_64_")
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "sim")]) == 2
    assert not (tmp_path / "sim").exists()
    assert main(["design", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "recipe.tsv").exists()


def test_numpys_openblas_is_found_without_reading_proc(monkeypatch):
    # numpy's extension module leads to its OpenBLAS: no /proc file is read, on any platform
    core = blas.numpy_core()
    proc_reads(monkeypatch)
    monkeypatch.setattr(blas, "_openblas", blas._openblas.__wrapped__)   # looked up afresh
    monkeypatch.setattr(blas, "_lapack", blas._lapack.__wrapped__)
    assert blas.numpy_core.__wrapped__() == core
    count = blas._openblas().scipy_openblas_get_num_threads64_
    before = count()
    with blas.one_thread():
        assert count() == 1
        evals, _ = dynamics.eigh_tridiagonal(np.zeros(3), np.ones(2))
    assert count() == before
    assert np.allclose(evals, [-np.sqrt(2), 0.0, np.sqrt(2)])


# the variables OpenBLAS reads its thread count from when it loads
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_fresh(script, *args, env=None):
    """Run ``script`` in a new interpreter on this rabichain; its last stdout line, as JSON.

    pytest has imported scipy here already: what a command loads, and when,
    shows only in a fresh process.  The child can import ``conftest`` too.
    It sees none of the shell's BLAS_THREAD_VARIABLES, so its OpenBLAS start
    at their default count; ``env`` adds variables.
    """
    env = {**{k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES},
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]),
           **(env or {})}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_rabichain_loads_no_numpy():
    loaded = run_fresh("import json, sys, rabichain\n"
                       "print(json.dumps(['numpy' in sys.modules, rabichain.__version__]))\n")
    assert loaded == [False, "0.1.0"]


def test_package_names_load_their_module_on_first_use():
    import rabichain

    assert (rabichain.RabiParams, rabichain.FullState) == (RabiParams, FullState)
    assert (rabichain.lf_period, rabichain.lf_revival) == (analytic.lf_period, analytic.lf_revival)
    assert rabichain.run_trajectory is dynamics.run_trajectory
    assert set(rabichain.__all__) <= set(dir(rabichain))
    with pytest.raises(AttributeError, match="no attribute 'observables'"):
        rabichain.observables


# Imports the CLI first, as `python -m rabichain.cli` and the console script do; then
# runs the command and counts this process's threads.  A joined Python thread may take
# a moment to leave /proc; an OpenBLAS worker never does.
FRESH_CLI = """
import json, os, sys, time
import rabichain.cli
from conftest import blas_threads
loaded = blas_threads()
rc = rabichain.cli.main(sys.argv[1:])
deadline = time.monotonic() + 5
while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
    time.sleep(0.01)
print(json.dumps({"rc": rc, "loaded": loaded, "after": blas_threads(),
                  "threads": len(os.listdir("/proc/self/task"))}))
"""


@needs_openblas
@pytest.mark.parametrize("command", [
    ["simulate", "--image"], ["sweep", "--omega0-list=-0.04,0,0.04", "--jobs", "2"],
    ["validate"], ["design"],
])
def test_the_cli_loads_every_openblas_at_one_thread(config_path, tmp_path, command):
    # OPENBLAS_NUM_THREADS=2 asks for a worker; the CLI, imported first, loads numpy's OpenBLAS
    # alone, and it starts none
    files = [] if command == ["validate"] else ["--config", config_path, "--out", tmp_path / "out"]
    run = run_fresh(FRESH_CLI, *command, *files, env={"OPENBLAS_NUM_THREADS": "2"})
    assert run["rc"] == 0
    assert run["loaded"] == {"numpy": 1}
    assert run["after"] == run["loaded"]
    assert run["threads"] == 1


@pytest.mark.parametrize("threads", [None, "2"])
def test_importing_the_cli_after_numpy_leaves_the_environment(threads):
    env = run_fresh("import json, os, numpy\n"
                    "before = dict(os.environ)\n"
                    "import rabichain.cli\n"
                    "print(json.dumps([before == dict(os.environ),"
                    " os.environ.get('OPENBLAS_NUM_THREADS')]))\n",
                    env=None if threads is None else {"OPENBLAS_NUM_THREADS": threads})
    assert env == [True, threads]


def test_import_and_design_load_no_scipy(config_path, tmp_path):
    loaded = run_fresh(
        "import json, sys\n"
        "import rabichain.cli\n"
        "loaded = ['scipy' in sys.modules]\n"
        "rc = rabichain.cli.main(sys.argv[1:])\n"
        "print(json.dumps([rc, *loaded, 'scipy' in sys.modules]))\n",
        "design", "--config", config_path, "--out", tmp_path / "out",
    )
    assert loaded == [0, False, False]
    assert (tmp_path / "out" / "recipe.tsv").exists()


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--omega0-list=-0.04,0,0.04",
                                                   "--jobs", "2"], ["validate"]])
def test_solving_commands_load_no_scipy_linalg(config_path, tmp_path, command):
    # the chains and the dense oracle are solved by the LAPACK of numpy's OpenBLAS: no scipy at all
    files = [] if command == ["validate"] else ["--config", config_path, "--out", tmp_path / "out"]
    loaded = run_fresh(
        "import json, sys\n"
        "import rabichain.cli\n"
        "rc = rabichain.cli.main(sys.argv[1:])\n"
        "print(json.dumps([rc, 'scipy' in sys.modules]))\n",
        *command, *files,
    )
    assert loaded == [0, False]
    assert not files or any((tmp_path / "out").iterdir())


# Runs each command given as JSON where scipy cannot be imported; validate's stdout is kept
NO_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None   # every import of scipy, or of a module in it, raises ImportError
import rabichain.cli
rcs, stdout = [], io.StringIO()
for command in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(stdout):
        rcs.append(rabichain.cli.main(command))
print(json.dumps([rcs, stdout.getvalue()]))
"""


def test_no_command_needs_scipy(config_path, tmp_path, capsys):
    # simulate, sweep and validate run where scipy is missing, and write the bytes of a normal run
    def commands(out):
        return [["simulate", "--config", str(config_path), "--out", str(out / "simulate"), "--image"],
                ["sweep", "--config", str(config_path), "--out", str(out / "sweep"), "--jobs", "2",
                 "--omega0-list=-0.08,-0.04,0,0.04,0.08"],
                ["validate"]]
    rcs, stdout = run_fresh(NO_SCIPY, json.dumps(commands(tmp_path / "no_scipy")))
    assert rcs == [0, 0, 0]
    capsys.readouterr()
    assert [main(command) for command in commands(tmp_path / "normal")] == [0, 0, 0]
    assert stdout == capsys.readouterr().out
    files = sorted(p.relative_to(tmp_path / "normal") for p in (tmp_path / "normal").rglob("*.*"))
    assert len(files) == 4   # timeseries, map and raster; the sweep summary
    for name in files:
        assert (tmp_path / "no_scipy" / name).read_bytes() == (tmp_path / "normal" / name).read_bytes()


# A host that imported scipy, and numpy with it, before rabichain: both OpenBLAS keep
# their default counts.  A command caps every OpenBLAS the package calls, numpy's, and
# leaves scipy's count alone.  Records the thread counts once the command's solves have
# run, still inside its cap.
FRESH_BLAS = """
import json, sys
import scipy.linalg
from conftest import blas_threads
from rabichain import cli
seen = {}
def recorded(name, fn):
    def call(*args):
        result = fn(*args)
        seen[name] = blas_threads()
        return result
    return call
cli.run_validation = recorded("validate", cli.run_validation)
cli._sweep_point = recorded("sweep", cli._sweep_point)
cli.timeseries_rows = recorded("simulate", cli.timeseries_rows)
cli.intensity_map_rows = recorded("simulate", cli.intensity_map_rows)
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "seen": seen, "after": blas_threads()}))
"""


@pytest.fixture(scope="module")
def fresh_counts():
    """The thread counts of a fresh interpreter that has imported scipy, so both OpenBLAS, and run nothing."""
    return run_fresh("import json\nimport scipy.linalg\nfrom conftest import blas_threads\n"
                     "print(json.dumps(blas_threads()))\n")


@needs_openblas
def test_validate_caps_every_openblas_in_a_fresh_interpreter(fresh_counts):
    run = run_fresh(FRESH_BLAS, "validate")
    assert run["rc"] == 0
    assert run["seen"]["validate"] == {"numpy": 1, "scipy": fresh_counts["scipy"]}
    assert run["after"] == fresh_counts


@needs_openblas
def test_sweep_caps_every_openblas_in_a_fresh_interpreter(config_path, tmp_path, fresh_counts):
    run = run_fresh(FRESH_BLAS, "sweep", "--config", config_path, "--out", tmp_path / "out",
                    "--omega0-list=-0.04,0,0.04", "--jobs", "2")
    assert run["rc"] == 0
    assert run["seen"]["sweep"] == {"numpy": 1, "scipy": fresh_counts["scipy"]}
    assert run["after"] == fresh_counts


@needs_openblas
@pytest.mark.parametrize("outputs", ["timeseries, intensity_map", "timeseries"])
def test_simulate_runs_every_openblas_at_one_thread(tmp_path, outputs, fresh_counts):
    # with a map or without, whatever the CPU count: the writer thread is the parallelism
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DSC_CONFIG + f"\n[output]\noutputs = {outputs}\n")
    run = run_fresh(FRESH_BLAS, "simulate", "--config", cfg, "--out", tmp_path / "out")
    assert run["rc"] == 0
    assert run["seen"]["simulate"] == {"numpy": 1, "scipy": fresh_counts["scipy"]}
    assert run["after"] == fresh_counts


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_a_forced_openblas_core_is_read_and_takes_the_full_product(core):
    # numpy's OpenBLAS is a DYNAMIC_ARCH build: OPENBLAS_CORETYPE picks its kernels when it
    # loads.  No core but SkylakeX has had its GEMM panels checked, so the product is not cut
    read = run_fresh("import json\nfrom rabichain import blas, dynamics\ncore = blas.numpy_core()\n"
                     "print(json.dumps([core, dynamics._inner_dimension(170, 1024, core)]))\n",
                     env={"OPENBLAS_CORETYPE": core})
    assert read == [core, 1024]


BLOCK_LAYOUT_SCRIPT = """import json
import numpy as np
from rabichain import blas, dynamics
from rabichain.model import FullState, RabiParams
cases, differ = 0, []
with blas.one_thread():
    for n, g in ((300, 0.4), (1024, 0.15)):
        params = RabiParams(omega0=0.04, omega=0.23, g=g, n_trunc=n)
        e0 = FullState.basis_state("e", 0, n)
        for points in (1025, 1088, 2049):
            dynamics.BLOCK_POINTS = 1024
            blocked = dynamics.run_trajectory(params, e0, (points - 1) * 0.1, 0.1)
            dynamics.BLOCK_POINTS = points + 1   # one block: the whole-grid product
            assert len(dynamics._grid_blocks(points)) == 1
            whole = dynamics.run_trajectory(params, e0, (points - 1) * 0.1, 0.1)
            for name in ("pnt", "p_e", "p_r", "mean_n"):
                cases += 1
                if not np.array_equal(getattr(blocked, name), getattr(whole, name)):
                    differ.append([n, points, name])
print(json.dumps([blas.numpy_core(), cases, differ]))
"""


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_the_block_layout_keeps_the_whole_grid_bits_on_a_forced_openblas_core(core):
    # the blocks start at multiples of 1024 and a short tail joins the block before it, so
    # gemm and gemv sum every cell in the order of the whole-grid call: checked on the
    # kernels of the other cores this OpenBLAS can run, at 1025, 1088 and 2049 points
    read = run_fresh(BLOCK_LAYOUT_SCRIPT, env={"OPENBLAS_CORETYPE": core})
    assert read == [core, 24, []]


@needs_openblas
def test_simulate_files_do_not_depend_on_the_cpu_count_or_the_blas_threads(tmp_path):
    # a map over two blocks at n_trunc 300: evolved at 2 BLAS threads, 1,436 of its 2,049
    # rows differed from the 1-thread run's in the last bit
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DSC_CONFIG.replace("g = 0.15", "g = 0.4").replace("n_trunc = 64", "n_trunc = 300")
                   .replace("t_max = 60", "t_max = 204.8"))
    files = ["timeseries.tsv", "intensity_map.tsv", "intensity_map.pgm"]
    before = blas_threads()
    with every_openblas_at_one_thread():   # the reference run's count; the old counts are back after
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "one"), "--image"]) == 0
        two = dict.fromkeys(before, 2)
        if set_blas_threads(two) != two:
            pytest.skip("an OpenBLAS here cannot be set to 2 threads")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "two"), "--image"]) == 0
        assert blas_threads() == two
    assert blas_threads() == before
    for name in files:
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name


def test_design_writes_recipe_and_report(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["design", "--config", str(config_path), "--out", str(out)]) == 0
    recipe = parse_recipe((out / "recipe.tsv").read_text())
    assert recipe.n_guides == 15
    report = verify_recipe(
        recipe,
        RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=64),
        CouplingCalibration(),
        OpticalConstants(),
    )
    assert report.max_rel_deviation < 1e-6
    assert "max relative deviation" in (out / "recipe_report.txt").read_text()
    # byte-identical on rerun
    again = tmp_path / "again"
    assert main(["design", "--config", str(config_path), "--out", str(again)]) == 0
    assert (out / "recipe.tsv").read_bytes() == (again / "recipe.tsv").read_bytes()
    assert (out / "recipe_report.txt").read_bytes() == (again / "recipe_report.txt").read_bytes()


def test_design_that_fails_to_write_its_report_keeps_the_earlier_recipe(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["design", "--config", str(config_path), "--out", str(out)]) == 0
    earlier = (out / "recipe.tsv").read_bytes()
    cfg = tmp_path / "other.cfg"
    cfg.write_text(DSC_CONFIG.replace("g = 0.15", "g = 0.14"))
    assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "other")]) == 0
    assert (tmp_path / "other" / "recipe.tsv").read_bytes() != earlier
    (out / "recipe_report.txt").unlink()
    (out / "recipe_report.txt").mkdir()   # the report can no longer be renamed into place
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == 2
    assert (out / "recipe.tsv").read_bytes() == earlier
    assert sorted(p.name for p in out.iterdir()) == ["recipe.tsv", "recipe_report.txt"]
    assert list((out / "recipe_report.txt").iterdir()) == []


def test_design_infeasible_coupling_exits_2(config_path, tmp_path):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(DSC_CONFIG.replace("g = 0.15", "g = 10"))
    rc = main(["design", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2


SMALL_DESIGN = """
[model]
omega = 2.5
g = 0.3
n_trunc = 9

[grid]
t_max = 1

[design]
n_guides = 3
v_max = 100
"""


def test_design_missing_its_targets_exits_2_and_writes_nothing(tmp_path, capsys):
    # the kappa window runs from 0.0 to inf, so every guide sits at d_ref
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(SMALL_DESIGN + "gamma = 1e308\n")
    rc = main(["design", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "max relative deviation 6.464466e-01" in err
    assert f"bound {cli.RECIPE_DEVIATION_TOL:.0e}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", ["dn_dv = 1e-320\nv_base = 1e-320", "radius_mm = 1e-320"])
def test_design_arithmetic_overflow_exits_2_without_a_warning(tmp_path, capsys, extra):
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(SMALL_DESIGN + extra + "\n")
    rc = main(["design", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "the recipe arithmetic fails: overflow" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_design_requires_design_section(tmp_path):
    cfg = tmp_path / "nodesign.cfg"
    cfg.write_text(DSC_CONFIG.split("[design]")[0])
    rc = main(["design", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1


def test_bad_config_exits_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(DSC_CONFIG.replace("omega = 0.23", "omega = 0"))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1


@pytest.mark.parametrize(
    "line, bad, key",
    [
        ("g = 0.15", "g = nan", "model.g"),
        ("omega0 = 0", "omega0 = inf", "model.omega0"),
        ("omega = 0.23", "omega = inf", "model.omega"),
        ("t_max = 60", "t_max = inf", "grid.t_max"),
        ("dt = 0.1", "dt = inf", "grid.dt"),
    ],
)
def test_non_finite_config_value_exits_1_naming_the_key(tmp_path, capsys, line, bad, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(DSC_CONFIG.replace(line, bad))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{key}: must be finite" in err
    assert not (tmp_path / "out").exists()


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("a run was started: the input was not checked first")


def refuse_to_run(monkeypatch):
    """Make the one name the commands evolve through, trajectory_blocks, raise."""
    monkeypatch.setattr(cli, "trajectory_blocks", _refuse_to_run)


SWEEP_ARGS = ["--omega0-list=0.1,-0.1"]


@pytest.mark.parametrize(
    "command, line, bad",
    [
        ("simulate", "dt = 0.1", "dt = 1e-300"),
        ("simulate", "t_max = 60", "t_max = 1e12"),
        ("sweep", "dt = 0.1", "dt = 1e-300"),
    ],
)
def test_grid_too_large_for_memory_exits_1_before_allocating(
    tmp_path, capsys, monkeypatch, command, line, bad
):
    refuse_to_run(monkeypatch)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(DSC_CONFIG.replace(line, bad))
    extra = SWEEP_ARGS if command == "sweep" else []
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra])
    assert rc == 1
    err = capsys.readouterr().err
    assert "grid.dt" in err and "grid.t_max" in err
    assert "physical memory" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, line, bad, extra, key",
    [
        ("simulate", "t_max = 60\ndt = 0.1", "t_max = 1e308\ndt = 1e308", [], "grid.t_max"),
        ("sweep", "omega = 0.23", "omega = 1", ["--omega0-list=0.1,1e308"], "grid.dt"),
    ],
)
def test_grid_whose_phases_overflow_exits_1(
    tmp_path, capsys, monkeypatch, command, line, bad, extra, key
):
    refuse_to_run(monkeypatch)
    cfg = tmp_path / "far.cfg"
    cfg.write_text(DSC_CONFIG.replace(line, bad))
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"config error: {key} = " in err and "phases lambda t overflow" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_1_exits_1(config_path, tmp_path, capsys, monkeypatch, jobs):
    refuse_to_run(monkeypatch)
    rc = main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "out"),
               *SWEEP_ARGS, "--jobs", jobs])
    assert rc == 1
    assert f"config error: --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, grid",
    [
        ("simulate", "t_max = 0.05\n"),          # shorter than the default dt 0.1
        ("sweep", "t_max = 60\ndt = 50\n"),     # longer than the bounce period 27.3
    ],
)
def test_step_longer_than_grid_exits_1(tmp_path, capsys, monkeypatch, command, grid):
    refuse_to_run(monkeypatch)
    cfg = tmp_path / "short.cfg"
    cfg.write_text(DSC_CONFIG.replace("t_max = 60\ndt = 0.1\n", grid))
    extra = SWEEP_ARGS if command == "sweep" else []
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra])
    assert rc == 1
    assert "the step is longer than the grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_without_t_max_exits_1_naming_the_key(tmp_path, capsys, monkeypatch):
    refuse_to_run(monkeypatch)
    cfg = tmp_path / "no_t_max.cfg"
    cfg.write_text(DSC_CONFIG.replace("t_max = 60\ndt = 0.1\n", ""))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "config error: grid.t_max is required by simulate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_with_nothing_to_write_exits_1_naming_the_key(tmp_path, capsys, monkeypatch):
    refuse_to_run(monkeypatch)
    cfg = tmp_path / "silent.cfg"
    cfg.write_text(DSC_CONFIG + "\n[output]\noutputs =\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "config error: output.outputs is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_with_empty_outputs_and_image_writes_only_the_pgm(tmp_path):
    cfg = tmp_path / "image.cfg"
    cfg.write_text(DSC_CONFIG.replace("n_trunc = 64", "n_trunc = 16") + "\n[output]\noutputs =\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--image"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["intensity_map.pgm"]


def test_simulate_dt_larger_than_t_max_exits_1_naming_the_key(tmp_path, capsys, monkeypatch):
    refuse_to_run(monkeypatch)
    cfg = tmp_path / "short.cfg"
    cfg.write_text(DSC_CONFIG.replace("t_max = 60", "t_max = 0.05"))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "grid.t_max = 0.05" in err and "the step is longer than the grid" in err
    assert not (tmp_path / "out").exists()


def test_sweep_ignores_a_t_max_shorter_than_dt(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(DSC_CONFIG.replace("t_max = 60\ndt = 0.1", "t_max = 0.01\ndt = 0.05"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), *SWEEP_ARGS]) == 0
    _, data = read_table(out / "sweep.tsv")
    assert data.shape == (2, 4)


def test_design_needs_no_grid_section(tmp_path):
    cfg = tmp_path / "design.cfg"
    cfg.write_text(DSC_CONFIG.replace("[grid]\nt_max = 60\ndt = 0.1\n", ""))
    assert "[grid]" not in cfg.read_text()
    out = tmp_path / "out"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    assert parse_recipe((out / "recipe.tsv").read_text()).n_guides == 15
    assert (out / "recipe_report.txt").exists()


@pytest.mark.parametrize(
    "line, bad, key",
    [
        ("initial = e0", "initial_e = 1, nan", "model.initial_e/initial_g"),
        ("initial = e0", "initial_e = 0,,1", "model.initial_e"),
        ("omega0 = 0", "omega0 = 1e308", "model.omega0/omega"),
        ("g = 0.15", "g = 1e308", "model.g/omega"),
        ("omega = 0.23", "omega = 1e-320", "model.g/omega"),
        ("n_trunc = 64", "n_trunc = 1000000000000", "model.n_trunc"),
        ("n_guides = 15", "n_guides = 1000000000000", "design.n_guides"),
    ],
)
def test_overflowing_model_value_exits_1_naming_the_key(
    tmp_path, capsys, monkeypatch, line, bad, key
):
    refuse_to_run(monkeypatch)
    monkeypatch.setattr(cli, "design", _refuse_to_run)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(DSC_CONFIG.replace(line, bad))
    command = "design" if key.startswith("design.") else "simulate"
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308"])
def test_sweep_overflowing_omega0_exits_1_before_any_point_runs(
    config_path, tmp_path, capsys, monkeypatch, value
):
    refuse_to_run(monkeypatch)
    rc = main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "out"),
               f"--omega0-list=0.1,{value}"])
    assert rc == 1
    assert "config error: --omega0-list: value " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_working_set_beyond_memory_exits_1_although_the_map_fits(
    config_path, tmp_path, capsys, monkeypatch
):
    refuse_to_run(monkeypatch)
    map_bytes = 8 * 601 * 64   # DSC_CONFIG: 601 points x 64 sites
    need = config.check_memory("grid", n_trunc=64, points=601)
    assert need > 3 * map_bytes
    monkeypatch.setattr(config, "_physical_memory_bytes", lambda: (map_bytes + need) / 2)
    rc = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_memory_check_counts_the_points_that_run_at_once(
    config_path, tmp_path, capsys, monkeypatch
):
    points = grid_points(2 * np.pi / 0.23, 0.1)   # one bounce period at grid.dt
    one = config.check_memory("grid", n_trunc=64, points=points)
    two = config.check_memory("grid", n_trunc=64, points=points, runs=2)
    monkeypatch.setattr(config, "_physical_memory_bytes", lambda: (one + two) / 2)
    args = ["sweep", "--config", str(config_path), "--omega0-list=0.1,-0.1"]
    assert main(args + ["--out", str(tmp_path / "a"), "--jobs", "2"]) == 1
    assert "for 2 sweep points at once" in capsys.readouterr().err
    assert main(args + ["--out", str(tmp_path / "b"), "--jobs", "1"]) == 0


@pytest.mark.parametrize(
    "command, extra, outputs",
    [
        ("simulate", ["--image"], "timeseries, intensity_map"),
        ("simulate", [], "timeseries"),
        ("sweep", ["--jobs", "2", "--omega0-list=-0.1,0.05,0.1"], "timeseries"),
        ("simulate", [], "timeseries, intensity_map"),
    ],
)
def test_memory_estimate_covers_the_measured_peak(tmp_path, command, extra, outputs):
    # g/omega 3: every site is reached and the product is not cut (94 of 96 components live);
    # a two-chain state where the command allows one
    n, t_max, dt = 96, 40.0, 0.02
    text = (DSC_CONFIG.replace("g = 0.15", "g = 0.7").replace("n_trunc = 64", f"n_trunc = {n}")
            .replace("omega0 = 0", "omega0 = 0.1").replace("t_max = 60", f"t_max = {t_max}")
            .replace("dt = 0.1", f"dt = {dt}")
            .replace("initial = e0", "initial_e = 0.6\ninitial_g = 0.8"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + f"\n[output]\noutputs = {outputs}\n")
    tracemalloc.start()
    try:
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    if command == "sweep":
        points, runs = grid_points(2 * np.pi / 0.23, dt), 2
    else:
        points, runs = grid_points(t_max, dt), 1
    keep_map = "--image" in extra   # as the command passes it
    assert config.check_memory("grid", n_trunc=n, points=points, runs=runs,
                               keep_map=keep_map) >= peak


def test_design_memory_estimate_covers_the_measured_peak(tmp_path):
    # weak couplings over a wide spacing window and speed window: 3000 guides are feasible
    n_guides = 3000
    cfg = tmp_path / "long.cfg"
    cfg.write_text(DSC_CONFIG.replace("g = 0.15", "g = 0.001").replace(
        "n_guides = 15", f"n_guides = {n_guides}\nd_max = 50\nv_min = -1e9\nv_max = 1e9"))
    tracemalloc.start()
    try:
        rc = main(["design", "--config", str(cfg), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert config.check_memory("design.n_guides", n_guides=n_guides) >= peak


@pytest.mark.parametrize("perturb", ["eigenvalue", "eigenvector"])
def test_eigensolve_out_of_tolerance_exits_2(config_path, tmp_path, capsys, monkeypatch, perturb):
    monkeypatch.setattr(dynamics, "eigh_tridiagonal", perturbed_eigh_tridiagonal(perturb))
    rc = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "out of tolerance" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_failed_eigensolve_exits_2(config_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(blas, "_lapack", failing_lapack(1))   # dstevd did not converge
    rc = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "eigensolver failed on C-chain" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_default_section_is_an_unknown_section(tmp_path, capsys):
    # configparser would copy its keys into [model], which lacks omega here
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[DEFAULT]\nomega = 0.23\n" + DSC_CONFIG.replace("omega = 0.23\n", ""))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--omega0-list=0"]) == 1
    assert "unknown section [DEFAULT]" in capsys.readouterr().err


def test_missing_config_exits_1(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert rc == 1


def test_validate_passes_and_is_deterministic(capsys):
    assert main(["validate"]) == 0
    first = capsys.readouterr().out
    assert main(["validate"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "overall: PASS" in first


def test_validate_detects_broken_closed_form(monkeypatch, capsys):
    # mutation check: a perturbed closed form must fail the agreement suite
    true_lf = analytic.lf_revival
    monkeypatch.setattr(analytic, "lf_revival", lambda p, t: true_lf(p, t) * 1.001)
    assert main(["validate"]) == 3
    assert "[FAIL] closed forms" in capsys.readouterr().out


def test_console_entry_point_smoke(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DSC_CONFIG.replace("n_trunc = 64", "n_trunc = 32"))
    proc = subprocess.run(
        [sys.executable, "-m", "rabichain.cli", "simulate",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "timeseries.tsv").exists()


# ---------------------------------------------------------------------------
# config fuzzing: every input ends in exit code 0, 1 or 2, never a traceback
# ---------------------------------------------------------------------------

SPECIAL = ["nan", "inf", "-inf", "1e308", "1e-320", "-0", "0", "x1", ""]
ABSENT = None

# Sane values (and n_trunc and n_guides 10^12, refused up front) that keep
# every accepted run at n_trunc <= 33 and <= 51 grid points (simulate
# t_max / dt <= 5 / 0.1, sweep 2 pi / omega / dt <= 2.51 / 0.05).  One initial
# state is drawn as a whole, then up to three keys get a SPECIAL value.
FUZZ_POOLS = {
    ("model", "omega0"): [ABSENT, "0", "0.5", "-1"],
    ("model", "omega"): ["2.5", "4"],
    ("model", "g"): ["0.3", "1"],
    ("model", "n_trunc"): ["9", "33", "2", "1000000000000", "9", "33"],
    ("grid", "t_max"): ["1", "5"],
    ("grid", "dt"): [ABSENT, "0.2", "0.5"],
    ("design", "n_guides"): ["3", "15", "3", "1000000000000"],
    ("design", "v_max"): ["100", ABSENT],   # the default 14.5 is too slow for omega >= 2.5
    **{("design", key): [ABSENT, value] for key, value in [
        ("kappa0", "0.15"), ("gamma", "0.18"), ("d_ref", "14"), ("d_min", "6"),
        ("d_max", "15"), ("n_eff_base", "1.45"), ("wavelength_nm", "633"),
        ("radius_mm", "650"), ("dn_dv", "1.5e-5"), ("v_base", "11"), ("v_min", "9.5"),
    ]},
}
FUZZ_INITIAL = [{"initial": "e0"}, {}, {"initial_g": "1"},
                {"initial_e": "0.6", "initial_g": "0, 0.8j"}, {"initial": "g1"}]
FUZZ_KEYS = sorted(FUZZ_POOLS) + [("model", k) for k in ("initial", "initial_e", "initial_g")]
FUZZ_COMMANDS = {
    "simulate": [[], ["--image"]],
    "sweep": [["--omega0-list=0.1,-0.1"], ["--omega0-list=0,nan"], ["--omega0-list=1e308"],
              ["--omega0-list=x"], ["--omega0-list="], ["--omega0-list=0.5", "--jobs", "2"]],
    "design": [[]],
}


@st.composite
def fuzzed_runs(draw):
    values = {key: draw(st.sampled_from(pool)) for key, pool in FUZZ_POOLS.items()}
    values.update({("model", k): v for k, v in draw(st.sampled_from(FUZZ_INITIAL)).items()})
    specials = draw(st.sampled_from([0, 0, 1, 2, 3]))
    for key in draw(st.lists(st.sampled_from(FUZZ_KEYS), min_size=specials,
                             max_size=specials, unique=True)):
        values[key] = draw(st.sampled_from(SPECIAL))
    command = draw(st.sampled_from(list(FUZZ_COMMANDS)))
    with_design = command == "design" or draw(st.booleans())
    sections = ["model", "grid"] + (["design"] if with_design else [])
    text = "".join(
        f"[{section}]\n" + "".join(
            f"{k} = {v}\n" for (s, k), v in values.items() if s == section and v is not ABSENT
        )
        for section in sections
    )
    return text, command, draw(st.sampled_from(FUZZ_COMMANDS[command]))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(fuzzed_runs())
def test_fuzzed_config_ends_in_an_exit_code(run):
    text, command, extra = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        rc = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out"), *extra])
    assert rc in (0, 1, 2)
