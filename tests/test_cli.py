import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fibquasi
from fibquasi import cli, engine, words
from fibquasi.cli import main
from fibquasi.fib import fib_word
from fibquasi.verify import REGISTRY


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_word(capsys):
    code, out, _ = run(capsys, "gen", "6")
    assert code == 0 and out == "abaababaabaab\n"


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "8", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 8, "word": fib_word(8)}


def test_gen_length_far_end(capsys):
    code, out, _ = run(capsys, "gen", "90", "--len")
    assert code == 0 and out.strip() == "4660046610375530309"


def test_gen_invalid_index(capsys):
    code, _, err = run(capsys, "gen", "-1")
    assert code == 2 and "nonnegative" in err


def test_gen_guard_names_limit(capsys):
    code, _, err = run(capsys, "gen", "31")
    assert code == 2 and "30" in err


def test_gen_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FIBQUASI_NMAX", "8")
    assert run(capsys, "gen", "8")[0] == 0
    assert run(capsys, "gen", "9")[0] == 2


def test_analyze_covers(capsys):
    code, out, _ = run(capsys, "analyze", "abaab", "--covers", "--json")
    assert code == 0
    assert json.loads(out) == {"word": "abaab", "covers": ["abaab"]}


def test_analyze_seeds_include_rotation(capsys):
    code, out, _ = run(capsys, "analyze", "abaab", "--seeds", "--json")
    assert code == 0
    assert "baa" in json.loads(out)["seeds"]


def test_analyze_multiple_sets(capsys):
    code, out, _ = run(capsys, "analyze", "abaababa", "--borders",
                       "--left-seeds", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["borders"] == ["a", "aba"]
    assert len(doc["left_seeds"]) == 5


def test_analyze_json_round_trip_property(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(deadline=None, database=None)
    @hypothesis.given(st.text(alphabet="ab", min_size=1, max_size=60))
    def check(y):
        code, out, _ = run(capsys, "analyze", y, "--borders", "--covers",
                           "--left-seeds", "--right-seeds", "--seeds",
                           "--circular", "--json")
        assert code == 0
        assert json.loads(out) == {
            "word": y,
            "borders": words.borders(y),
            "covers": engine.covers_of(y),
            "left_seeds": engine.left_seeds_of(y),
            "right_seeds": engine.right_seeds_of(y),
            "seeds": engine.seeds_of(y),
            "circular_covers": engine.circular_covers_of(y),
        }

    check()


@pytest.mark.parametrize("names", [[c.name] for c in REGISTRY.values()]
                         + [list(REGISTRY)])
def test_analyze_json_is_json_dumps_of_the_document(capsys, names):
    # analyze --json writes each set as one join; json.dumps of the same
    # document is its reference, byte for byte, on one-letter words and
    # on words with an empty set (ab and ba have no border)
    flags = [f"--{REGISTRY[name].flag}" for name in names]
    for y in ("a", "b", "ab", "ba", "aab", "abaab", "abaababa"):
        code, out, _ = run(capsys, "analyze", y, *flags, "--json")
        doc = {"word": y}
        doc.update((name, REGISTRY[name].oracle(y)) for name in names)
        assert (code, out) == (0, json.dumps(doc) + "\n"), (y, names)


def test_analyze_rejects_alphabet(capsys):
    code, _, err = run(capsys, "analyze", "abcab", "--covers")
    assert code == 2 and "outside" in err


def test_analyze_requires_category(capsys):
    assert run(capsys, "analyze", "abaab")[0] == 2


def test_analyze_file_input(capsys, tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("abaab\n")
    code, out, _ = run(capsys, "analyze", "--file", str(path), "--covers",
                       "--json")
    assert code == 0 and json.loads(out)["covers"] == ["abaab"]
    assert run(capsys, "analyze", "ab", "--file", str(path), "--covers")[0] == 2


def test_analyze_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "analyze", "--file", "/nonexistent",
                         "--seeds")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "/nonexistent" in err


def test_analyze_size_refusal_and_force(capsys):
    big = "a" * 2001
    assert run(capsys, "analyze", big, "--seeds")[0] == 2
    code, out, _ = run(capsys, "analyze", big, "--seeds", "--json", "--force")
    assert code == 0
    assert len(json.loads(out)["seeds"]) == 2001


def test_analyze_giant_word_needs_force(capsys):
    code, _, err = run(capsys, "analyze", "a" * (10 ** 6 + 1), "--borders")
    assert code == 2 and "--force" in err


@pytest.mark.parametrize("flag", ["left-seeds", "right-seeds", "seeds",
                                  "circular"])
def test_enum_refusal_names_the_force_flag(capsys, flag):
    code, out, err = run(capsys, "enum", "17", f"--{flag}")
    assert code == 2 and out == ""
    assert "--force" in err and "force=True" in err


def test_enum_json_refusal_writes_nothing(capsys):
    code, out, err = run(capsys, "enum", "17", "--seeds", "--json")
    assert code == 2 and out == "" and "--force" in err


@pytest.mark.parametrize("flag", ["borders", "covers"])
def test_enum_linear_catalogs_are_not_refused(capsys, flag):
    assert run(capsys, "enum", "17", f"--{flag}")[0] == 0


def test_enum_force_overrides_refusal(capsys):
    code, out, _ = run(capsys, "enum", "17", "--left-seeds", "--json",
                       "--force")
    assert code == 0
    assert json.loads(out)["words"]


@pytest.mark.parametrize("argv", [["gen", "5"], ["occurrences", "6", "3"],
                                  ["verify", "--max-n", "2"]])
def test_force_is_rejected_where_it_overrides_nothing(capsys, argv):
    code, out, err = run(capsys, *argv, "--force")
    assert code == 2 and out == ""
    assert "usage:" in err and "unrecognized arguments: --force" in err


def test_analyze_refusal_names_the_force_flag(capsys):
    code, _, err = run(capsys, "analyze", "ab" * 1001, "--circular")
    assert code == 2 and "--force" in err


def test_enum_covers_json(capsys):
    code, out, _ = run(capsys, "enum", "7", "--covers", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["words"] == ["aba", "abaababa", fib_word(7)]
    assert doc["category"] == "covers"


def test_enum_borders_text(capsys):
    code, out, _ = run(capsys, "enum", "5", "--borders")
    assert code == 0
    assert out.splitlines()[-2:] == ["  a", "  aba"]


def test_enum_circular(capsys):
    code, out, _ = run(capsys, "enum", "4", "--circular", "--json")
    assert code == 0 and json.loads(out)["words"] == ["aba", "abaab"]


def test_enum_requires_one_category(capsys):
    assert run(capsys, "enum", "5")[0] == 2
    assert run(capsys, "enum", "5", "--covers", "--borders")[0] == 2


def test_enum_guard(capsys):
    assert run(capsys, "enum", "31", "--covers")[0] == 2


def test_occurrences_fast_path(capsys):
    code, out, _ = run(capsys, "occurrences", "6", "3")
    assert code == 0 and out == "1 4 6 9\n"
    code, out, _ = run(capsys, "occurrences", "6", "3", "--json")
    assert json.loads(out)["method"] == "closed_form"


def test_occurrences_small_base_routes_to_scan(capsys):
    code, out, _ = run(capsys, "occurrences", "5", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "scan" and doc["positions"] == [1, 4, 6]


def test_occurrences_naive_flag_is_a_usage_error(capsys):
    # Both placements give the same positions (the occurrence_fast_path
    # battery), so no option chooses between them.
    code, out, err = run(capsys, "occurrences", "6", "3", "--naive")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --naive" in err


@pytest.mark.parametrize("command", [None, "gen", "analyze", "enum",
                                     "occurrences", "verify"])
def test_help_names_the_set_flags_on_analyze_and_enum_only(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.startswith("usage: fibquasi")
    flags = {c.flag for c in REGISTRY.values()}
    named = {f for f in flags if re.search(rf"(?<![\w-])--{f}(?![\w-])", out)}
    assert named == (flags if command in ("analyze", "enum") else set())


def test_occurrences_bad_pair(capsys):
    assert run(capsys, "occurrences", "3", "6")[0] == 2


@pytest.mark.parametrize("argv", [["gen", "-1", "--len"],
                                  ["occurrences", "-1", "3"],
                                  ["occurrences", "6", "-1"],
                                  ["verify", "--max-n", "31"]])
def test_bad_index_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_rejects_out_of_range(capsys):
    assert run(capsys, "verify", "--max-n", "999")[0] == 2


def test_verify_passes_below_finding(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4")
    assert code == 0 and "failed=0" in out


def test_verify_reports_finding(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "6")
    assert code == 1
    assert "FAIL n=5 seeds" in out and "missing=baaba" in out


def test_verify_category_filter(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "6", "--only", "covers")
    assert code == 0
    cell_lines = [line for line in out.splitlines()
                  if line.startswith(("PASS n=", "FAIL n="))]
    assert cell_lines and all(" covers " in line for line in cell_lines)


def test_verify_unknown_category(capsys):
    assert run(capsys, "verify", "--only", "periods")[0] == 2


def test_verify_cap_runs_a_cell_above_the_default_caps(capsys):
    code, out, _ = run(capsys, "verify", "--min-n", "15", "--max-n", "15",
                       "--cap", "15", "--only", "seeds", "--json")
    assert code == 1
    (cell,) = json.loads(out)["cells"]
    assert (cell["n"], cell["category"]) == (15, "seeds")
    assert (cell["missing"], cell["extra"]) == (["baaba"], [])


def test_verify_cap_sets_every_category(capsys):
    # below every default cap, so only --cap can skip these cells
    code, out, _ = run(capsys, "verify", "--min-n", "2", "--max-n", "3",
                       "--cap", "2", "--json")
    assert code == 0
    cells = [(c["n"], c["category"]) for c in json.loads(out)["cells"]]
    assert cells == [(2, c) for c in cli.CATEGORIES]


@pytest.mark.parametrize("cap", ["-1", "91"])
def test_verify_cap_out_of_range_is_usage_error(capsys, cap):
    code, out, err = run(capsys, "verify", "--cap", cap)
    assert (code, out) == (2, "")
    assert err.startswith("error: cap ") and "Traceback" not in err


def test_verify_cap_names_only_the_selected_categories(capsys):
    code, out, err = run(capsys, "verify", "--cap", "-1", "--only", "seeds")
    assert (code, out) == (2, "")
    assert "seeds" in err and "borders" not in err


def test_verify_report_file(capsys, tmp_path):
    path = tmp_path / "report.jsonl"
    code, _, _ = run(capsys, "verify", "--max-n", "4", "--report", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    assert docs[-1]["failed"] == 0
    assert any("category" in d for d in docs)


def test_verify_bad_range_keeps_existing_report(capsys, tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text("earlier report\n")
    code, _, err = run(capsys, "verify", "--min-n", "5", "--max-n", "3",
                       "--report", str(path))
    assert code == 2 and err.startswith("error: ")
    assert path.read_text() == "earlier report\n"


def test_verify_unwritable_report_is_usage_error(capsys, tmp_path):
    path = tmp_path / "no" / "such" / "dir" / "r.jsonl"
    code, _, err = run(capsys, "verify", "--max-n", "2", "--report",
                       str(path))
    assert code == 2
    assert err.startswith("error: ") and "r.jsonl" in err


def test_verify_unwritable_report_fails_before_suite(capsys, tmp_path,
                                                     monkeypatch):
    def suite_must_not_run(config):
        pytest.fail("run_suite ran before the report path was checked")

    monkeypatch.setattr(cli, "run_suite", suite_must_not_run)
    path = tmp_path / "no" / "such" / "dir" / "r.jsonl"
    code, _, err = run(capsys, "verify", "--report", str(path))
    assert code == 2
    assert err.startswith("error: ") and "r.jsonl" in err


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken_suite(config):
        raise RuntimeError("unsound report: 'ab' classified missing")

    monkeypatch.setattr(cli, "run_suite", broken_suite)
    code, out, err = run(capsys, "verify", "--max-n", "2", "--json")
    assert code == 3
    assert out == ""
    assert err == "internal error: unsound report: 'ab' classified missing\n"


def test_enum_guard_is_read_per_call(capsys, monkeypatch):
    assert run(capsys, "enum", "9", "--seeds")[0] == 0
    monkeypatch.setenv("FIBQUASI_NMAX", "8")
    assert run(capsys, "enum", "9", "--seeds")[0] == 2
    assert run(capsys, "enum", "8", "--seeds")[0] == 0


def test_gen_closed_pipe_exits_quietly():
    # F_25 (121393 letters) overflows the pipe buffer, so the write is
    # still pending when the reader goes away.
    env = dict(os.environ)
    src = str(Path(fibquasi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "fibquasi.cli", "gen", "25"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    assert proc.stdout.read(10) == fib_word(25)[:10].encode()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert "Traceback" not in err and "Error" not in err
    assert code not in (0, 1)


def test_enum_json_closed_pipe_exits_quietly():
    # enum 14 --seeds is 19.6 MB as JSON and about as much as text,
    # written in several writes, so most of it is still unwritten when
    # the reader goes away.
    env = dict(os.environ)
    src = str(Path(fibquasi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("FIBQUASI_NMAX", None)
    for mode, head in (["--json"], b'{"n": 14, '), ([], b"forms:\n  {"):
        proc = subprocess.Popen([sys.executable, "-m", "fibquasi.cli",
                                 "enum", "14", "--seeds", *mode],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(10) == head
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert "Traceback" not in err and "Error" not in err
        assert code not in (0, 1)


# The enum child runs under this small process, whose RUSAGE_CHILDREN
# peak is the child's alone, not that of the test process's children.
_CHILD_PEAK_KB = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "fibquasi.cli", *sys.argv[1:]],
               stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_enum_json_holds_one_length_of_words_at_a_time():
    # enum 16 --seeds writes 290 MB of words; spelled all at once before
    # the first write they peaked at 374 MB (352 MB as text), and one
    # length at a time the process peaks under 50 MB in either mode.
    env = dict(os.environ)
    src = str(Path(fibquasi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("FIBQUASI_NMAX", None)
    for mode in (["--json"], []):
        proc = subprocess.run([sys.executable, "-c", _CHILD_PEAK_KB, "enum",
                               "16", "--seeds", *mode, "--force"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 120 * 1024


def test_verify_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc) == out.strip()


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_verify_json_deterministic(capsys):
    first = run(capsys, "verify", "--max-n", "5", "--json")
    second = run(capsys, "verify", "--max-n", "5", "--json")
    assert first[0] == second[0] == 1
    a = json.dumps(_strip_timing(json.loads(first[1])))
    b = json.dumps(_strip_timing(json.loads(second[1])))
    assert a == b


def test_verify_json_same_under_any_hash_seed():
    # Two runs in one process share one hash seed; set iteration order
    # only changes between processes.
    src = str(Path(fibquasi.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "fibquasi.cli", "verify", "--max-n", "8",
             "--json"], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        outputs.append(json.dumps(_strip_timing(json.loads(proc.stdout))))
    assert outputs[0] == outputs[1]


def test_verify_same_under_optimize_flag():
    # Invariants are explicit raises, not asserts, so -O changes nothing.
    env = dict(os.environ)
    src = str(Path(fibquasi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["-m", "fibquasi.cli", "verify", "--max-n", "6", "--json"]
    runs = [subprocess.run([sys.executable, *flags, *argv], env=env,
                           capture_output=True, text=True, timeout=120)
            for flags in ([], ["-O"])]
    assert [r.returncode for r in runs] == [1, 1]
    plain, optimized = (_strip_timing(json.loads(r.stdout)) for r in runs)
    assert plain == optimized


# Run with -S (no site-packages, so no pytest or hypothesis) and -E (no
# PYTHON* variables); the package source is put on sys.path by hand.
STDLIB_ONLY_PROGRAM = """
import importlib, importlib.util, pkgutil, sys
sys.path.insert(0, sys.argv[1])
for absent in ("pytest", "hypothesis"):
    if importlib.util.find_spec(absent) is not None:
        sys.exit(f"{absent} is importable without site-packages")
import fibquasi
for module in pkgutil.iter_modules(fibquasi.__path__):
    importlib.import_module("fibquasi." + module.name)
from fibquasi import cli
sys.exit(cli.main(["verify", "--max-n", "3", "--json"]))
"""


def test_package_runs_on_the_standard_library_alone():
    src = Path(fibquasi.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-E", "-c", STDLIB_ONLY_PROGRAM, str(src)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    assert json.loads(proc.stdout)["summary"]
    try:
        import tomllib
    except ImportError:
        return
    with open(src.parent / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["dependencies"] == []


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 2
