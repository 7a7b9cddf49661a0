"""Command-line interface: verbs, exit codes, output files, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ubrsim
from ubrsim import experiment
from ubrsim.cli import main
from ubrsim.experiment import run_grid, write_results
from ubrsim.scenarios import build_scenario


def run_grid_to(tmp_path, name, argv_extra=()):
    out = tmp_path / name
    rc = main(["run", "--delay-class", "wan", "--scale", "0.1", "--seed", "1",
               "--connections", "1", "--duration-s", "0.5", "--out", str(out),
               "--quiet", *argv_extra])
    return rc, out


def test_run_writes_full_grid_csv(tmp_path, capsys):
    rc, out = run_grid_to(tmp_path, "res.csv")
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 25                     # header + 24 cells
    assert lines[0].startswith("delay_class,drop_policy,tcp_flavor")
    assert all(line.endswith(",ok") for line in lines[1:])
    # --quiet keeps stderr clear of progress chatter
    assert capsys.readouterr().err == ""


def test_run_progress_lines_on_stderr(tmp_path, capsys):
    rc = main(["run", "--delay-class", "wan", "--scale", "0.1",
               "--connections", "1", "--duration-s", "0.5",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    err = capsys.readouterr().err
    assert "[ 1/24]" in err and "[24/24]" in err
    assert "eff=" in err and "fair=" in err


def test_run_is_byte_deterministic(tmp_path):
    rc1, out1 = run_grid_to(tmp_path, "a.csv")
    rc2, out2 = run_grid_to(tmp_path, "b.csv")
    assert rc1 == rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_drop_log_needs_out_file(capsys):
    rc = main(["run", "--delay-class", "wan", "--scale", "0.1",
               "--connections", "1", "--duration-s", "0.5", "--drop-log",
               "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == ("error: --drop-log needs --out, the log "
                                       "is written next to the results file\n")


def test_run_into_a_missing_directory_fails_before_the_first_cell(tmp_path,
                                                                  capsys):
    out = tmp_path / "missing" / "res.csv"
    rc = main(["run", "--delay-class", "wan", "--scale", "0.1",
               "--connections", "1", "--duration-s", "0.5", "--drop-log",
               "--out", str(out)])
    assert rc == 1
    # no progress line: no cell ran
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{out}'\n")
    assert not out.parent.exists()


def test_run_drop_log_written_next_to_results(tmp_path):
    rc, out = run_grid_to(tmp_path, "res.csv", argv_extra=("--drop-log",))
    assert rc == 0
    drops = tmp_path / "res.csv.drops.csv"
    assert drops.exists()
    head = drops.read_text().splitlines()[0]
    assert head.startswith("drop_policy,tcp_flavor,buffer_rtt,t_ns,port")


def test_run_rejects_bad_flags(tmp_path, capsys):
    rc = main(["run", "--delay-class", "wan", "--scale", "1.5", "--quiet"])
    assert rc == 1
    assert "error: scale must be in (0, 1], got 1.5\n" == capsys.readouterr().err
    rc = main(["run", "--delay-class", "wan", "--workers", "0", "--quiet"])
    assert rc == 1
    assert "error: workers must be >= 1, got 0\n" == capsys.readouterr().err


def test_run_reports_each_distinct_failure_once(tmp_path, capsys, monkeypatch):
    real_run_cell = experiment.run_cell

    def run_cell_failing_two_flavors(spec, log_drops=False):
        if spec.tcp_flavor in ("reno", "sack"):
            raise RuntimeError(f"{spec.tcp_flavor} broke")
        return real_run_cell(spec, log_drops=log_drops)

    monkeypatch.setattr(experiment, "run_cell", run_cell_failing_two_flavors)
    rc, _ = run_grid_to(tmp_path, "res.csv")
    assert rc == 1
    blocks = capsys.readouterr().err.split("cells ")[1:]
    assert len(blocks) == 2                     # one per distinct status
    for block, flavor in zip(blocks, ("reno", "sack")):
        head, *trace = block.splitlines()
        cells = ", ".join(f"{policy}/{flavor}/{buffer}" for policy in ("epd", "sd")
                          for buffer in ("0.5", "1", "2"))
        assert head == f"{cells} (6 of 24): error: RuntimeError: {flavor} broke"
        # the first cell's traceback, once
        assert trace[0] == "Traceback (most recent call last):"
        assert trace.count(trace[0]) == 1
        assert "in run_cell_failing_two_flavors" in block
        assert trace[-1] == f"RuntimeError: {flavor} broke"


def test_a_run_with_one_failure_in_every_cell_reports_it_once(capsys):
    # 0.2 s is too short for any meo request to be answered
    rc = main(["run", "--delay-class", "meo", "--connections", "1",
               "--duration-s", "0.2", "--quiet", "--out", os.devnull])
    assert rc == 1
    head, *trace = capsys.readouterr().err.splitlines()
    status = "MetricError: no connection offered any load"
    assert head.startswith("cells epd/vanilla/0.5, ")
    assert head.endswith(f", sd/sack/2 (24 of 24): error: {status}")
    # the first cell's traceback, once, and nothing after it
    assert trace[0] == "Traceback (most recent call last):"
    assert trace.count(trace[0]) == 1
    assert trace[-1].endswith(status)
    assert not any(line.startswith("cells ") for line in trace)


def test_analyze_results_round_trip(tmp_path, capsys):
    rc, out = run_grid_to(tmp_path, "res.csv")
    assert rc == 0
    rc = main(["analyze", "--metric", "efficiency", "--in", str(out),
               "--out", str(tmp_path / "rep")])
    assert rc == 0
    txt = capsys.readouterr().out
    assert "allocation of variation" in txt
    assert "effects with 90 percent confidence bounds" in txt
    assert (tmp_path / "rep.effects.csv").exists()
    assert (tmp_path / "rep.variation.csv").exists()


def test_analyze_missing_file_fails_cleanly(tmp_path, capsys):
    rc = main(["analyze", "--metric", "efficiency",
               "--in", str(tmp_path / "absent.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_rejects_error_rows(tmp_path, capsys):
    out = tmp_path / "res.csv"
    out.write_text("drop_policy,tcp_flavor,buffer_rtt,efficiency,status\n"
                   "epd,reno,1,0.5,error: boom\n")
    rc = main(["analyze", "--metric", "efficiency", "--in", str(out)])
    assert rc == 1
    assert "status != ok" in capsys.readouterr().err


def test_oracle_verb_reports_reference_statistics(capsys):
    rc = main(["oracle", "--delay-class", "wan", "--metric", "efficiency"])
    assert rc == 0
    txt = capsys.readouterr().out
    assert "=== reference table: wan / efficiency ===" in txt
    assert "s_e: 0.0156" in txt
    assert "mean                            0.7701" in txt


def test_oracle_all_classes_and_metrics(capsys):
    rc = main(["oracle"])
    assert rc == 0
    txt = capsys.readouterr().out
    for cls in ("wan", "meo", "geo"):
        for metric in ("efficiency", "fairness"):
            assert f"=== reference table: {cls} / {metric} ===" in txt


def test_oracle_out_writes_what_analyze_writes_for_each_table(tmp_path, capsys):
    assert main(["oracle", "--out", str(tmp_path / "oracle")]) == 0
    data = Path(ubrsim.__file__).parent / "data"
    for cls in ("wan", "meo", "geo"):
        for metric in ("efficiency", "fairness"):
            assert main(["analyze", "--metric", metric,
                         "--in", str(data / f"reference_{cls}.csv"),
                         "--out", str(tmp_path / "analyze")]) == 0
            for part in ("variation", "effects"):
                written = tmp_path / f"oracle.{cls}.{metric}.{part}.csv"
                expected = tmp_path / f"analyze.{part}.csv"
                assert written.read_bytes() == expected.read_bytes()
    assert len(list(tmp_path.glob("oracle.*.csv"))) == 12


# SHA-256 of the analyzer's output: `ubrsim oracle`'s stdout (every class and
# metric), and `analyze --out`'s stdout, variation CSV and effects CSV for
# the tiny wan grid whose results CSV `RESULTS_DIGESTS["wan"]` pins (seed 3,
# scale 0.1, 2 connections, 1 s).  A refactor of the analysis keeps every
# printed and written digit.
ORACLE_DIGEST = "fe76f123e2f997b605d57903f47a068373629e9fc0baa83486dc422bf7da7caa"
ANALYZE_DIGESTS = {
    "efficiency": (
        "c11d0329f957facfdb0b9678cb2c4591c423b59f151c38355bd9a08af4c083f3",
        "1eaaaa77fc815cb686cc1dd87f951ccbdc220e0c97a9ac1b1831a1a0a3dce038",
        "c309bfe33ba92b8ae4dc615ea9f50c2cbf0ddc8560c795080bf13b7f7cdd1830",
    ),
    "fairness": (
        "5f379f050d70d9ad515ad357b16c8675c32c4544ee0b0e7b4c50751bc4cdc47a",
        "13755edcd1f8a5e1a21ea3e185fdd45232058a479cfc176feee1178dc50e34e2",
        "1d38ff7cb9c348fd9b45f05d2e0276420e7613701e96b268727710f54b11b609",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_oracle_output_is_pinned_byte_for_byte(capsys):
    assert main(["oracle"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == ORACLE_DIGEST


def test_analyze_output_is_pinned_byte_for_byte(tmp_path, capsys):
    sc = build_scenario("wan", seed=3, scale=0.1, connections=2, duration_s=1.0)
    results = tmp_path / "res.csv"
    write_results(run_grid(sc), str(results))
    for metric, digests in ANALYZE_DIGESTS.items():
        prefix = tmp_path / metric
        assert main(["analyze", "--metric", metric, "--in", str(results),
                     "--out", str(prefix)]) == 0
        stdout = capsys.readouterr().out.encode()
        written = [(tmp_path / f"{metric}.{part}.csv").read_bytes()
                   for part in ("variation", "effects")]
        assert tuple(map(_sha256, [stdout, *written])) == digests


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])                            # --delay-class is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("ubrsim ")


def test_serial_run_imports_no_pool_traceback_or_resources(tmp_path):
    # a fresh interpreter runs a serial grid through the CLI; -S keeps `site`
    # from importing importlib.resources before ubrsim does
    script = f"""
import json, sys
import ubrsim.cli, ubrsim.experiment
rc = ubrsim.cli.main(["run", "--delay-class", "wan", "--scale", "0.1",
                      "--connections", "1", "--duration-s", "0.5",
                      "--out", {str(tmp_path / "r.csv")!r}, "--quiet"])
lazy = ("multiprocessing", "concurrent.futures", "traceback", "importlib.resources",
        "typing")
print(json.dumps([rc, [m for m in lazy if m in sys.modules]]))
"""
    src = str(Path(ubrsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 25
