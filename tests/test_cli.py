"""CLI behavior: output shape, exit codes, config handling, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tametori.cli import load_config, main
from tametori.identities import GridSpec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_tsv(capsys):
    code, out, err = run(capsys, "classify", "--q", "5", "--e", "2", "--f", "2")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "i\tj\tclass\tQ_alpha\tq_pm\tu_dim"
    assert lines[1] == "0\t1\tsymmetric-unramified\t25\t5\t2"
    assert lines[2] == "1\t0\tsymmetric-ramified\t25\t25\t2"
    assert lines[3] == "1\t1\tsymmetric-unramified\t25\t5\t2"
    assert len(lines) == 4


def test_classify_json_asymmetric_nulls(capsys):
    code, out, _ = run(
        capsys, "classify", "--q", "5", "--e", "4", "--f", "1", "--format", "json"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["class"] for r in rows] == [
        "asymmetric",
        "symmetric-ramified",
        "asymmetric",
    ]
    assert rows[0]["q_pm"] is None
    assert rows[1]["q_pm"] == 5  # F_pm is the ramified quadratic, residue q


def test_classify_tsv_dashes_for_none(capsys):
    code, out, _ = run(capsys, "classify", "--q", "5", "--e", "4", "--f", "1")
    assert code == 0
    first = out.strip().splitlines()[1].split("\t")
    assert first[2] == "asymmetric" and first[4] == "-"


def test_verify_worked_example(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--q", "3", "--e", "1", "--f", "2",
        "--m", "1", "--d", "2", "--h", "1",
        "--tower", "E", "--levels", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t")[0] == "kind"
    orbit = lines[1].split("\t")
    assert orbit[0] == "orbit"
    assert (orbit[1], orbit[2]) == ("0", "1")
    assert orbit[5] == "symmetric-unramified"
    assert (orbit[7], orbit[8]) == ("-1", "1")  # lhs
    assert (orbit[9], orbit[10]) == ("-1", "1")  # rhs
    assert orbit[11] == "1"
    agg = lines[2].split("\t")
    assert agg[0] == "aggregate" and agg[11] == "1"


def test_verify_json(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--q", "3", "--e", "2", "--f", "1",
        "--m", "1", "--d", "2", "--h", "1",
        "--format", "json",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[-1]["kind"] == "aggregate"
    assert rows[-1]["pass"] == 1
    assert rows[0]["class"] == "symmetric-ramified"
    assert rows[0]["depth"] == -1


@pytest.mark.parametrize(
    "argv",
    [
        # ramified bottom subfield
        ("verify", "--q", "3", "--e", "2", "--f", "1",
         "--m", "1", "--d", "2", "--h", "1", "--tower", "F", "--levels", "1"),
        # residue characteristic divides e
        ("classify", "--q", "3", "--e", "3", "--f", "1"),
        # unknown subfield selector
        ("verify", "--q", "3", "--e", "1", "--f", "2",
         "--m", "1", "--d", "2", "--h", "1", "--tower", "5.0", "--levels", "1"),
        # level count mismatch
        ("verify", "--q", "3", "--e", "1", "--f", "2",
         "--m", "1", "--d", "2", "--h", "1", "--tower", "E", "--levels", "1,2"),
        # h not coprime to d
        ("verify", "--q", "3", "--e", "1", "--f", "2",
         "--m", "1", "--d", "2", "--h", "0"),
        # m*d != e*f
        ("verify", "--q", "3", "--e", "1", "--f", "2",
         "--m", "3", "--d", "1"),
        # w out of range
        ("classify", "--q", "3", "--e", "1", "--f", "1", "--w", "9"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


README_VERIFY = ("verify", "--q", "3", "--e", "1", "--f", "2",
                 "--m", "1", "--d", "2", "--h", "1", "--tower", "E", "--levels", "1")


def run_python(flags, *argv):
    """The CLI in a fresh interpreter started with flags (for example -O)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *flags, "-m", "tametori.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_invariants_hold_under_python_O():
    """python -O strips assert statements; the checks are typed errors, so the
    README's verify example prints the same bytes and exit code, and a
    dimension mismatch on that field still exits 2."""
    plain, opt = (run_python(flags, *README_VERIFY) for flags in ((), ("-O",)))
    assert plain.stdout and (opt.stdout, opt.returncode) == (plain.stdout, plain.returncode)
    bad = list(README_VERIFY)
    bad[bad.index("--m") + 1] = "2"
    mismatch = run_python(("-O",), *bad)
    assert mismatch.returncode == 2
    assert mismatch.stderr.startswith("error: DimensionMismatch:")


def test_identity_failure_exits_1(capsys, monkeypatch):
    """Force a mismatch by negating iota inside the symmetric-ramified zeta
    branch; the verdict must fail and the exit code flip to 1."""
    import tametori.identities as ident

    real_iota = ident.iota
    monkeypatch.setattr(ident, "iota", lambda inst, o: -real_iota(inst, o))
    code, out, _ = run(
        capsys,
        "verify",
        "--q", "3", "--e", "2", "--f", "1",
        "--m", "1", "--d", "2", "--h", "1",
    )
    assert code == 1
    rows = out.strip().splitlines()
    assert rows[-1].split("\t")[-1] == "0"


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def write_config(tmp_path, text):
    path = tmp_path / "grid.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_config_roundtrip(tmp_path):
    path = write_config(
        tmp_path,
        """
        # comment line
        q_list = 3,5
        n_max = 4
        w_policy = sample:2   # inline comment
        w_seed = 9
        t_max = 1
        a_max = 3
        strict = 0
        """,
    )
    grid = load_config(path)
    assert grid == GridSpec(
        q_list=(3, 5), n_max=4, w_extra=2, w_seed=9, t_max=1, a_max=3
    )


@pytest.mark.parametrize(
    "word,value", [("0", False), ("false", False), ("1", True), ("true", True)]
)
def test_load_config_strict_words(tmp_path, word, value):
    path = write_config(tmp_path, f"q_list = 3,9\nn_max = 1\nstrict = {word}\n")
    grid = load_config(path)
    assert grid == GridSpec(q_list=(3, 9), n_max=1, strict_admissible=value)


def test_load_config_defaults(tmp_path):
    path = write_config(tmp_path, "q_list = 3\nn_max = 2\n")
    grid = load_config(path)
    assert grid == GridSpec(q_list=(3,), n_max=2)


@pytest.mark.parametrize(
    "text",
    [
        "q_list = 3\nn_max = 2\nbogus = 1\n",
        "q_list = 3\n",  # missing n_max
        "q_list = 3\nn_max = 2\nw_policy = sometimes\n",
        "q_list 3\nn_max = 2\n",  # no equals sign
        "q_list =\nn_max = 2\n",  # empty value
        "q_list = 3\nn_max = 2\nstrict = yes\n",
        "q_list = 3\nn_max = -2\n",
        "q_list = 3\nn_max = 0\n",
        "q_list = 3\nn_max = 2\nt_max = -1\n",
        "q_list = 3\nn_max = 2\na_max = -4\n",
        "q_list = 3,3\nn_max = 2\n",  # a repeated q doubles the grid
        "q_list = 3\nn_max = 2\nw_policy = sample:-1\n",
        "q_list = 3,4\nn_max = 2\n",  # q=4 is even
        "q_list = 3,6\nn_max = 2\n",  # q=6 is no prime power
        "q_list = 3,1\nn_max = 2\n",
    ],
)
def test_bad_config_exits_2(capsys, tmp_path, no_sweep, text):
    path = write_config(tmp_path, text)
    code, out, err = run(capsys, "sweep", "--config", path)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2 and err.startswith("error:")


def test_sweep_tsv_and_determinism(capsys, tmp_path):
    path = write_config(
        tmp_path, "q_list = 3\nn_max = 3\nw_policy = sample:1\nw_seed = 5\nt_max = 1\na_max = 2\n"
    )
    code, out1, _ = run(capsys, "sweep", "--config", path)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0].split("\t")[:4] == ["q", "e", "f", "w"]
    assert lines[-1].startswith("# ")
    stats = dict(kv.split("=") for kv in lines[-1][2:].split())
    assert stats["failures"] == "0"
    assert int(stats["instances"]) > 0
    assert len(lines) == 2  # header + summary, no failure rows
    code2, out2, _ = run(capsys, "sweep", "--config", path)
    assert code2 == 0 and out2 == out1


def test_sweep_jobs_matches_sequential(capsys, tmp_path):
    path = write_config(
        tmp_path, "q_list = 3,5\nn_max = 3\nt_max = 1\na_max = 2\n"
    )
    jobs = str(min(3, os.cpu_count() or 1))  # --jobs may not exceed the CPU count
    _, seq, _ = run(capsys, "sweep", "--config", path)
    _, par, _ = run(capsys, "sweep", "--config", path, "--jobs", jobs)
    assert seq == par


@pytest.fixture
def no_sweep(monkeypatch):
    """Fail the test if the CLI gets as far as sweeping (or starting workers)."""
    import tametori.identities as ident

    def refuse(*args, **kwargs):
        raise AssertionError("sweep ran on invalid input")

    monkeypatch.setattr(ident, "sweep", refuse)


def test_duplicate_config_key_exits_2(capsys, tmp_path, no_sweep):
    path = write_config(tmp_path, "q_list = 3\nn_max = 2\nn_max = 4\n")
    code, out, err = run(capsys, "sweep", "--config", path)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "duplicate config key 'n_max'" in err


@pytest.mark.parametrize("jobs", [0, -1, -8, (os.cpu_count() or 1) + 1])
def test_sweep_jobs_out_of_range_exits_2(capsys, tmp_path, no_sweep, jobs):
    path = write_config(tmp_path, "q_list = 3\nn_max = 2\n")
    code, out, err = run(capsys, "sweep", "--config", path, "--jobs", str(jobs))
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"--jobs {jobs}" in err


def test_sweep_json_summary(capsys, tmp_path):
    path = write_config(tmp_path, "q_list = 3\nn_max = 2\nstrict = 1\n")
    code, out, _ = run(capsys, "sweep", "--config", path, "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[-1]["kind"] == "summary"
    assert rows[-1]["failures"] == 0
    assert rows[-1]["skipped_nonstrict"] > 0  # e=2 models lose their t=0 shape
    assert all(r["kind"] == "summary" for r in rows)  # no failure rows


def test_sweep_error_row_exits_1(capsys, tmp_path, monkeypatch):
    """An instance that raises is a failure row under the usual header; the
    sweep goes on and exits 1."""
    import tametori.identities as ident
    from tametori.errors import NotTwoTorsion

    path = write_config(tmp_path, "q_list = 3\nn_max = 2\n")
    _, clean, _ = run(capsys, "sweep", "--config", path)
    real = ident.verify_instance

    def flaky(inst, *rest):
        if inst.X.params.e == 2 and inst.A.d == 2:
            raise NotTwoTorsion("forced")
        return real(inst, *rest)

    monkeypatch.setattr(ident, "verify_instance", flaky)
    code, out, _ = run(capsys, "sweep", "--config", path)
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == clean.splitlines()[0]
    rows = [dict(zip(lines[0].split("\t"), line.split("\t"))) for line in lines[1:-1]]
    assert rows and all(r["orbits"] == "error:NotTwoTorsion" for r in rows)
    assert {(r["e"], r["d"]) for r in rows} == {("2", "2")}
    stats = dict(kv.split("=") for kv in lines[-1][2:].split())
    assert stats["failures"] == str(len(rows))
    assert stats["instances"] == dict(kv.split("=") for kv in clean.splitlines()[-1][2:].split())["instances"]


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_sweep_dry_run_counts(capsys, tmp_path, monkeypatch, fmt):
    """--dry-run prints the counts a real sweep reports and verifies nothing."""
    import tametori.identities as ident

    path = write_config(
        tmp_path, "q_list = 3,5\nn_max = 4\nw_policy = sample:1\nw_seed = 7\nt_max = 1\na_max = 2\nstrict = 1\n"
    )
    _, full, _ = run(capsys, "sweep", "--config", path, "--format", "json")
    summary = json.loads(full.strip().splitlines()[-1])

    def refuse(inst):
        raise AssertionError("dry run verified an instance")

    monkeypatch.setattr(ident, "verify_instance", refuse)
    code, out, _ = run(capsys, "sweep", "--config", path, "--dry-run", "--format", fmt)
    assert code == 0
    keys = ("params", "instances", "skipped_nonstrict")
    want = {k: summary[k] for k in keys}
    assert want["skipped_nonstrict"] > 0
    if fmt == "json":
        assert json.loads(out) == {"kind": "dry-run", **want}
    else:
        assert out == "# " + " ".join(f"{k}={want[k]}" for k in keys) + "\n"


def _tsv_header(out):
    return tuple(out.splitlines()[0].split("\t"))


def _json_rows(out):
    return [json.loads(line) for line in out.splitlines()]


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--q", "5", "--e", "2", "--f", "2"),
        ("classify", "--q", "5", "--e", "4", "--f", "1"),
        ("verify", "--q", "3", "--e", "1", "--f", "4", "--m", "2", "--d", "2",
         "--h", "1", "--tower", "E,2.0", "--levels", "1,3"),
        ("verify", "--q", "3", "--e", "1", "--f", "1", "--m", "1", "--d", "1"),
    ],
)
def test_tsv_header_is_the_json_row_keys(capsys, argv):
    """classify and verify name each column once: the TSV header is the key
    set of every JSON row, and every TSV line has one cell per column."""
    _, tsv, _ = run(capsys, *argv)
    _, js, _ = run(capsys, *argv, "--format", "json")
    header = _tsv_header(tsv)
    rows = _json_rows(js)
    assert rows and all(sorted(row) == sorted(header) for row in rows)
    assert all(len(line.split("\t")) == len(header) for line in tsv.splitlines())


def test_classify_header_prints_without_orbits(capsys):
    """A field with no orbits (n = 1) still prints the classify header in
    TSV, and nothing in JSON."""
    _, tsv, _ = run(capsys, "classify", "--q", "3", "--e", "1", "--f", "1")
    _, js, _ = run(capsys, "classify", "--q", "3", "--e", "1", "--f", "1", "--format", "json")
    _, full, _ = run(capsys, "classify", "--q", "5", "--e", "2", "--f", "2")
    assert tsv == full.splitlines()[0] + "\n"
    assert js == ""


def test_sweep_header_is_the_failure_row_keys(capsys, tmp_path, monkeypatch):
    """The sweep header is FAILURE_COLUMNS on a clean sweep and on a failing
    one, and the JSON failure rows carry the same keys plus kind."""
    import tametori.identities as ident

    path = write_config(tmp_path, "q_list = 3\nn_max = 2\n")
    _, clean, _ = run(capsys, "sweep", "--config", path)
    assert _tsv_header(clean) == ident.FAILURE_COLUMNS
    assert len(clean.splitlines()) == 2
    real_iota = ident.iota
    monkeypatch.setattr(ident, "iota", lambda inst, o: -real_iota(inst, o))
    _, tsv, _ = run(capsys, "sweep", "--config", path)
    _, js, _ = run(capsys, "sweep", "--config", path, "--format", "json")
    assert _tsv_header(tsv) == ident.FAILURE_COLUMNS
    failures = [row for row in _json_rows(js) if row["kind"] == "failure"]
    assert failures and len(failures) == len(tsv.splitlines()) - 2
    assert all(sorted(set(row) - {"kind"}) == sorted(ident.FAILURE_COLUMNS) for row in failures)
    assert all(len(line.split("\t")) == len(ident.FAILURE_COLUMNS) for line in tsv.splitlines()[:-1])
