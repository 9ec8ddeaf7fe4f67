"""CLI surface: exit codes, file handling, determinism, report formats."""

import json
import os
import stat
import xml.etree.ElementTree as ET

import pytest

from planesep import cli, oracle, repository
from planesep.errors import GeometryExhaustedError

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def primes_repo_path(tmp_path):
    out = tmp_path / "repo.txt"
    rc = run_cli("build", "--source", "primes:100", "--out", str(out),
                 "--dims", "2", "--seed", "4")
    assert rc == 0
    return out


class TestBuild:
    def test_primes_100(self, primes_repo_path, capsys):
        repo = repository.load(primes_repo_path)
        assert repo.count == 25

    def test_empty_source_builds_empty_repo(self, tmp_path):
        src = tmp_path / "vals.txt"
        src.write_text("# nothing here\n\n")
        out = tmp_path / "empty.txt"
        assert run_cli("build", "--source", str(src), "--out", str(out)) == 0
        assert repository.load(out).count == 0

    def test_duplicate_lines_reported_not_fatal(self, tmp_path, capsys):
        src = tmp_path / "vals.txt"
        src.write_text("7\n11\n7\n13\n")
        out = tmp_path / "dups.txt"
        assert run_cli("build", "--source", str(src), "--out", str(out)) == 0
        assert "duplicates_skipped 1" in capsys.readouterr().out
        assert repository.load(out).count == 3

    def test_missing_source_file(self, tmp_path):
        out = tmp_path / "x.txt"
        assert run_cli("build", "--source", str(tmp_path / "nope.txt"),
                       "--out", str(out)) == 2
        assert not out.exists()

    def test_bad_line_in_source(self, tmp_path):
        src = tmp_path / "vals.txt"
        src.write_text("7\nbanana\n")
        assert run_cli("build", "--source", str(src),
                       "--out", str(tmp_path / "y.txt")) == 2

    @pytest.mark.parametrize("base", ["0", "1"])
    def test_base_below_two_exit_2(self, tmp_path, base):
        # checked before the width is inferred, which never ends for such a base
        with pytest.raises(SystemExit) as exc:
            run_cli("build", "--source", "primes:50", "--out", str(tmp_path / "r.txt"),
                    "--base", base)
        assert exc.value.code == 2

    def test_unwritable_out_leaves_no_partial_file(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "repo.txt"
        assert run_cli("build", "--source", "primes:50",
                       "--out", str(missing_dir)) == 2
        assert not missing_dir.exists()

    def test_random_source(self, tmp_path):
        out = tmp_path / "rand.txt"
        assert run_cli("build", "--source", "random:30:100000:5",
                       "--out", str(out)) == 0
        assert repository.load(out).count == 30

    def test_jsonl_report(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        assert run_cli("--format", "jsonl", "build", "--source", "primes:50",
                       "--out", str(out)) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["N_f"] == 15
        assert payload["verified"] is True

    def test_report_prints_every_counter(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        assert run_cli("--format", "jsonl", "build", "--source", "primes:500",
                       "--dims", "3", "--out", str(out)) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        counters = repository.load(out).counters.as_dict()
        assert {k: payload[k] for k in counters} == counters

    def test_insert_into_a_store_built_from_an_empty_file(self, tmp_path):
        # the same bytes as a build of the values at the same width and seed
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        grown, built = tmp_path / "grown.txt", tmp_path / "built.txt"
        assert run_cli("build", "--source", str(empty), "--dims", "4", "--out", str(grown)) == 0
        assert run_cli("insert", str(grown), "--source", "primes:10000") == 0
        assert run_cli("build", "--source", "primes:10000", "--dims", "4",
                       "--out", str(built)) == 0
        assert grown.read_bytes() == built.read_bytes()

    def test_deterministic_repository_bytes(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for path in (a, b):
            assert run_cli("build", "--source", "primes:500", "--out", str(path),
                           "--dims", "3", "--seed", "17") == 0
        assert a.read_bytes() == b.read_bytes()


class TestQuery:
    def test_found_exit_0(self, primes_repo_path, capsys):
        assert run_cli("query", str(primes_repo_path), "97") == 0
        out = capsys.readouterr().out
        assert "found" in out
        assert "multiplications" in out

    def test_absent_exit_1(self, primes_repo_path, capsys):
        # a value that shares a prime's quadrant, found in the store
        repo = repository.load(primes_repo_path)
        v = next(v for v in range(100) if repository.query(repo, v).reason
                 is repository.AbsenceReason.COORDINATE_MISMATCH)
        assert run_cli("query", str(primes_repo_path), str(v)) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "found NO" in lines
        assert "reason coordinate_mismatch" in lines

    def test_malformed_repo_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a repository\n")
        assert run_cli("query", str(bad), "7") == 2

    def test_missing_repo_exit_2(self, tmp_path):
        assert run_cli("query", str(tmp_path / "nope.txt"), "7") == 2

    @pytest.mark.parametrize("command", ["query", "stats"])
    def test_bad_header_value_exit_2(self, primes_repo_path, capsys, command):
        text = primes_repo_path.read_text()
        primes_repo_path.write_text(text.replace("\nbase 10\n", "\nbase 1\n", 1))
        argv = [command, str(primes_repo_path)] + (["7"] if command == "query" else [])
        assert run_cli(*argv) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_overflowing_value_exit_2(self, primes_repo_path):
        assert run_cli("query", str(primes_repo_path), "100") == 2


class TestInsert:
    def test_insert_updates_file(self, primes_repo_path, capsys):
        src_vals = primes_repo_path.parent / "more.txt"
        src_vals.write_text("97\n89\n")  # both already stored
        assert run_cli("insert", str(primes_repo_path),
                       "--source", str(src_vals)) == 0
        assert "skipped_duplicates 2" in capsys.readouterr().out

    def test_insert_new_values_queryable(self, tmp_path):
        out = tmp_path / "repo.txt"
        assert run_cli("build", "--source", "primes:50", "--out", str(out),
                       "--dims", "2") == 0
        assert run_cli("insert", str(out), "--source", "primes:100") == 0
        assert run_cli("query", str(out), "97") == 0

    def test_value_too_wide_exit_2(self, primes_repo_path):
        src = primes_repo_path.parent / "wide.txt"
        src.write_text("101\n")
        assert run_cli("insert", str(primes_repo_path), "--source", str(src)) == 2


class TestStats:
    def test_reports_bounds(self, primes_repo_path, capsys):
        assert run_cli("stats", str(primes_repo_path)) == 0
        out = capsys.readouterr().out
        assert "quoted_q_10n 20" in out
        assert "N_f 25" in out
        assert "ov_mult_floor" in out

    def test_load_failure_exit_2(self, tmp_path):
        assert run_cli("stats", str(tmp_path / "none.txt")) == 2

    def test_fields(self, primes_repo_path, capsys):
        assert run_cli("--format", "jsonl", "stats", str(primes_repo_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "q0" not in payload and "q_emitted" not in payload
        assert payload["baseline_thresholds"] == 9 * 2
        assert payload["q_total"] == repository.load(primes_repo_path).q

    def test_counters_self_consistent(self, primes_repo_path):
        repo = repository.load(primes_repo_path)
        floor = repo.count * repo.dims_history[0] * repo.q
        assert repo.counters.multiplications >= floor

    def test_threshold_baseline_is_not_a_bound(self, tmp_path, capsys):
        out = tmp_path / "repo.txt"
        assert run_cli("build", "--source", "primes:100000", "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("stats", str(out)) == 0
        text = capsys.readouterr().out
        q = repository.load(out).q
        assert f"q_total {q}\n" in text and q > 45
        assert "baseline_thresholds 45\n" in text
        assert "ov_mult_floor_ok yes\n" in text
        # 9,592 points in R^5 need at least 18 planes: 17 make 9,402 cells
        assert "q_lower_bound 18\n" in text
        assert "q_lower_bound_ok yes\n" in text

    def test_expected_count_past_the_float_range(self, tmp_path, capsys):
        src = tmp_path / "vals.txt"
        src.write_text(f"7\n12345\n{10**330 + 7}\n{10**331 + 3}\n")
        out = tmp_path / "wide.txt"
        assert run_cli("build", "--source", str(src), "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("stats", str(out), "--format", "jsonl") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 332 and payload["expected_N_f"] == 10**332 // 332
        assert run_cli("stats", str(out)) == 0
        assert f"expected_N_f {10**332 // 332}\n" in capsys.readouterr().out

    def test_ov_floor_uses_first_width_after_growth(self, tmp_path, capsys):
        repo = repository.build(list(oracle.sieve(1000).primes()), 3, 0)
        repository.grow_dimension(repo, 6)
        out = tmp_path / "grown.txt"
        repository.save(repo, out)
        assert run_cli("stats", str(out), "--format", "jsonl") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dims_history"] == [3, 6]
        assert payload["ov_mult_floor"] == repo.count * 3 * repo.q
        assert payload["multiplications"] >= payload["ov_mult_floor"]
        assert payload["ov_mult_floor_ok"] is True


class TestBench:
    def test_cube_scenario(self, capsys):
        assert run_cli("bench", "cube:200:8", "--seed", "3") == 0
        out = capsys.readouterr().out
        assert "q_total" in out
        assert "verified yes" in out

    def test_primes_scenario_reports_bound(self, capsys):
        assert run_cli("--format", "jsonl", "bench", "primes:100:2", "--seed", "1") == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert payload["mult_scale"] == 2 * 10**3
        assert payload["verified"] is True

    def test_unknown_scenario_exit_2(self):
        assert run_cli("bench", "torus:1:2:3") == 2
        assert run_cli("bench", "cube:200:8:3") == 2  # the seed is --seed only

    @pytest.mark.parametrize("repeat", ["0", "-1"])
    def test_repeat_below_one_exit_2(self, capsys, repeat):
        # a run of no repeats would measure nothing and report success
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "cube:10:2", "--repeat", repeat)
        assert exc.value.code == 2
        assert "count must be at least 1" in capsys.readouterr().err

    def test_repeat_runs_one_report_per_seed(self, capsys):
        assert run_cli("--format", "jsonl", "bench", "cube:30:3", "--repeat", "2") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line)["seed"] for line in lines] == [0, 1]


class TestReportFormats:
    """Every report prints the same keys as text lines and as JSON."""

    @staticmethod
    def keys_in_both_formats(capsys, *argv):
        run_cli("--format", "text", *argv)
        lines = capsys.readouterr().out.splitlines()
        run_cli("--format", "jsonl", *argv)
        payload = json.loads(capsys.readouterr().out)
        return sorted(line.split(" ", 1)[0] for line in lines if line), sorted(payload)

    def test_build(self, tmp_path, capsys):
        src = tmp_path / "vals.txt"
        src.write_text("7\n11\n7\n13\n")  # one duplicate, so duplicates_skipped appears
        text, js = self.keys_in_both_formats(
            capsys, "build", "--source", str(src), "--out", str(tmp_path / "r.txt"))
        assert "duplicates_skipped" in js
        assert text == js

    @pytest.mark.parametrize("value", ["97", "91"])
    def test_query_found_and_absent(self, primes_repo_path, capsys, value):
        text, js = self.keys_in_both_formats(capsys, "query", str(primes_repo_path), value)
        assert text == js

    def test_insert(self, primes_repo_path, capsys):
        src = primes_repo_path.parent / "more.txt"
        src.write_text("97\n")
        text, js = self.keys_in_both_formats(
            capsys, "insert", str(primes_repo_path), "--source", str(src))
        assert text == js

    def test_stats(self, primes_repo_path, capsys):
        text, js = self.keys_in_both_formats(capsys, "stats", str(primes_repo_path))
        assert "quoted_q_10n" in js
        assert text == js

    @pytest.mark.parametrize("scenario", ["cube:50:3", "primes:100:2"])
    def test_bench(self, capsys, scenario):
        text, js = self.keys_in_both_formats(capsys, "bench", scenario)
        assert "verified" in js
        assert text == js


class TestPlot:
    def test_svg_marker_and_line_counts(self, primes_repo_path, tmp_path, capsys):
        out = tmp_path / "fig.svg"
        assert run_cli("plot", str(primes_repo_path), str(out)) == 0
        repo = repository.load(primes_repo_path)
        root = ET.parse(out).getroot()
        circles = root.findall(f".//{SVG_NS}circle")
        lines = root.findall(f".//{SVG_NS}line")
        assert len(circles) == 25
        assert len(lines) == repo.q

    def test_empty_repo_axes_only(self, tmp_path):
        repo_path = tmp_path / "empty.txt"
        src = tmp_path / "none.txt"
        src.write_text("")
        assert run_cli("build", "--source", str(src), "--out", str(repo_path),
                       "--dims", "2") == 0
        out = tmp_path / "fig.svg"
        assert run_cli("plot", str(repo_path), str(out)) == 0
        root = ET.parse(out).getroot()
        assert not root.findall(f".//{SVG_NS}circle")
        assert root.findall(f".//{SVG_NS}text")

    def test_non_2d_repo_exit_4(self, tmp_path):
        repo_path = tmp_path / "r3.txt"
        assert run_cli("build", "--source", "primes:500", "--out", str(repo_path),
                       "--dims", "3") == 0
        assert run_cli("plot", str(repo_path), str(tmp_path / "f.svg")) == 4

    def test_deterministic_svg_bytes(self, primes_repo_path, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for out in (a, b):
            assert run_cli("plot", str(primes_repo_path), str(out)) == 0
        assert a.read_bytes() == b.read_bytes()


def _geometry_exhausted(*args, **kwargs):
    raise GeometryExhaustedError("shift-and-refit budget spent")


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def mode_of(path):
    return stat.S_IMODE(path.stat().st_mode)


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.usefixtures("umask_022")
class TestFileModes:
    """A file the CLI writes has the mode ``open`` would give it: 0o666
    less the umask when new, its own mode when replaced."""

    def test_build_out_is_created_as_open_creates_it(self, tmp_path):
        out = tmp_path / "r.txt"
        assert run_cli("build", "--source", "primes:100", "--out", str(out)) == 0
        assert mode_of(out) == 0o644

    def test_insert_keeps_the_mode_of_the_file_it_rewrites(self, primes_repo_path):
        primes_repo_path.chmod(0o640)
        src = primes_repo_path.parent / "more.txt"
        src.write_text("1\n4\n")
        before = primes_repo_path.read_bytes()
        assert run_cli("insert", str(primes_repo_path), "--source", str(src)) == 0
        assert primes_repo_path.read_bytes() != before
        assert mode_of(primes_repo_path) == 0o640

    def test_plot_out_is_created_as_open_creates_it(self, primes_repo_path, tmp_path):
        out = tmp_path / "f.svg"
        assert run_cli("plot", str(primes_repo_path), str(out)) == 0
        assert mode_of(out) == 0o644


class TestAtomicWrite:
    @pytest.mark.parametrize("command", ["build", "insert"])
    def test_the_whole_file_is_synced_before_it_is_renamed_into_place(
            self, primes_repo_path, monkeypatch, command):
        # without the fsync, a crash after the rename could leave the
        # repository path naming a file whose data never reached the disk
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            calls.append(("fsync", st.st_ino, st.st_size))
            real_fsync(fd)

        def replace(src, dst):
            st = os.stat(src)
            calls.append(("replace", st.st_ino, st.st_size, str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        out = primes_repo_path
        if command == "build":
            argv = ["build", "--source", "primes:200", "--out", str(out)]
        else:
            src = out.parent / "more.txt"
            src.write_text("1\n4\n")
            argv = ["insert", str(out), "--source", str(src)]
        assert run_cli(*argv) == 0
        written = out.stat()
        assert calls == [("fsync", written.st_ino, written.st_size),
                         ("replace", written.st_ino, written.st_size, str(out))]


class TestExitCodes:
    """Every failure exits 2, 3 or 4 with one stderr line; none exits 1 ("absent")."""

    # argv with {repo} (n=2), {repo3} (n=3), {bad} (not UTF-8) and {tmp} filled in
    CASES = {
        "bad dims": (["build", "--source", "primes:50", "--out", "{tmp}/r.txt", "--dims", "-1"],
                     2, "error: "),
        "value wider than bench digits": (["bench", "primes:100:1"], 2, "error: "),
        "query non-UTF-8 file": (["query", "{bad}", "7"], 2, "error: cannot load "),
        "stats non-UTF-8 file": (["stats", "{bad}"], 2, "error: cannot load "),
        "missing repository": (["query", "{tmp}/nope.txt", "7"], 2, "error: cannot load "),
        "out in missing directory": (
            ["build", "--source", "primes:50", "--out", "{tmp}/no/such/r.txt"],
            2, "error: cannot write "),
        "out is a directory": (["plot", "{repo}", "{tmp}"], 2, "error: cannot write "),
        "build algorithm failure": (["build", "--source", "primes:50", "--out", "{tmp}/r.txt"],
                                    3, "algorithm failure: "),
        "insert algorithm failure": (["insert", "{repo}", "--source", "primes:200"],
                                     3, "algorithm failure: "),
        "plot at n=3": (["plot", "{repo3}", "{tmp}/f.svg"], 4, "error: "),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_failure_exit_code_and_message(self, primes_repo_path, tmp_path, monkeypatch,
                                           capsys, case):
        argv, code, prefix = self.CASES[case]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe garbage")
        repo3 = tmp_path / "r3.txt"
        repository.save(repository.build(list(oracle.sieve(500).primes()), 3, 0), repo3)
        files = sorted(tmp_path.rglob("*"))
        before = primes_repo_path.read_bytes()
        if code == 3:
            monkeypatch.setattr(repository, "build", _geometry_exhausted)
            monkeypatch.setattr(repository, "insert", _geometry_exhausted)
        capsys.readouterr()
        argv = [a.format(repo=primes_repo_path, repo3=repo3, bad=bad, tmp=tmp_path)
                for a in argv]
        assert run_cli(*argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(prefix) and err.count("\n") == 1
        assert "Traceback" not in err
        # nothing was written: no new or partial file, the repository unchanged
        assert sorted(tmp_path.rglob("*")) == files
        assert primes_repo_path.read_bytes() == before
