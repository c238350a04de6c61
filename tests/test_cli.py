"""CLI: golden invocations, exit codes, output round trips."""

import json
import os
import platform
import subprocess
import sys

import pytest

import garsidekit
from garsidekit import kernels
from garsidekit.artin import artin_structure
from garsidekit.bkl import bkl_structure
from garsidekit.cli import dispatch
from garsidekit.core import equals, greedy_nf
from garsidekit.errors import WordSyntaxError
from garsidekit.core import rational_nf
from garsidekit.syntax import (
    BadAtomOrder,
    IndexOutOfRange,
    UnknownToken,
    format_greedy,
    format_rational,
    format_word,
    parse_greedy,
    parse_rational,
    parse_word,
)


@pytest.fixture
def b3():
    return artin_structure(3)


class TestParseWord:
    def test_artin(self, b3):
        w = parse_word("s1 s2^-1", b3)
        assert w.letters == ((0, 1), (1, -1))

    def test_bkl(self):
        w = parse_word("a(3,1)", bkl_structure(3))
        assert w.letters == ((1, 1),)

    def test_empty_is_identity(self, b3):
        assert parse_word("", b3).letters == ()
        assert parse_word("   ", b3).letters == ()

    def test_bad_atom_order(self):
        with pytest.raises(BadAtomOrder):
            parse_word("a(1,3)", bkl_structure(3))

    def test_unknown_token(self, b3):
        with pytest.raises(UnknownToken) as err:
            parse_word("s1 foo", b3)
        assert err.value.position == 2

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_word("s5", artin_structure(4))
        with pytest.raises(IndexOutOfRange):
            parse_word("a(9,1)", bkl_structure(4))

    def test_round_trip(self, rng, b3):
        from conftest import random_word

        for structure in (b3, bkl_structure(4)):
            for _ in range(30):
                w = random_word(rng, structure, 12)
                assert parse_word(format_word(w), structure) == w


class TestNormalFormText:
    def test_greedy_round_trip(self, rng, b3):
        from conftest import random_word

        for structure in (b3, bkl_structure(4)):
            for _ in range(25):
                w = random_word(rng, structure, 15)
                printed = format_greedy(greedy_nf(w))
                assert equals(parse_greedy(printed, structure), w)

    def test_rational_round_trip(self, rng, b3):
        from conftest import random_word

        for structure in (b3, bkl_structure(4)):
            for _ in range(25):
                w = random_word(rng, structure, 15)
                printed = format_rational(rational_nf(greedy_nf(w)))
                assert equals(parse_rational(printed, structure), w)

    def test_bad_nf_string(self, b3):
        with pytest.raises(WordSyntaxError):
            parse_greedy("nonsense", b3)
        with pytest.raises(WordSyntaxError):
            parse_rational("D^1 (s1)", b3)


class TestDispatch:
    def test_nf_rational_worked_example(self, capsys):
        code = dispatch(
            [
                "nf",
                "--structure",
                "artin",
                "--strands",
                "3",
                "--form",
                "rational",
                "s2 s2 s1^-1 s1^-1",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "neg (s1 s2)(s2 s1) pos (s2 s1)(s1 s2)"

    @pytest.mark.parametrize(
        "form,printed",
        [
            ("greedy", "D^-1 (a(4,3) a(3,2) a(2,1) a(6,5))(a(6,4) a(4,1) a(3,2))(a(4,1))(a(2,1))"),
            ("rational", "neg (a(5,1)) pos (a(6,4) a(4,1) a(3,2))(a(4,1))(a(2,1))"),
        ],
    )
    def test_nf_band_golden(self, kit, monkeypatch, capsys, form, printed):
        """A band B_6 word's greedy and rational forms on each twin, which
        pin its band normal form, meets and atom spellings."""
        for name in ("word_to_nf", "multiply_nf", "invert_nf", "nf_lengths"):
            monkeypatch.setattr(kernels, name, getattr(kit, name))
        word = "a(6,1) a(3,2) a(5,4) a(4,1) a(6,5)^-1 a(2,1)"
        assert dispatch(["nf", "--structure", "bkl", "--strands", "6", "--form", form, word]) == 0
        assert capsys.readouterr().out.strip() == printed

    def test_nf_greedy(self, capsys):
        assert dispatch(["nf", "--strands", "3", "s1 s2 s1"]) == 0
        assert capsys.readouterr().out.strip() == "D^1"

    def test_len_cross_metric(self, capsys):
        code = dispatch(
            ["len", "--metric", "rational-bkl", "--strands", "3", "s2 s2 s1^-1 s1^-1"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_len_band_word(self, capsys):
        code = dispatch(["len", "--metric", "rational-artin", "--strands", "3", "a(3,1)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_oracle_identity(self, capsys):
        code = dispatch(
            ["oracle", "--structure", "artin", "--strands", "3", "--max", "6", ""]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_oracle_not_found_exit_1(self, capsys):
        code = dispatch(
            ["oracle", "--strands", "3", "--max", "2", "s1 s2 s1 s1 s2 s1"]
        )
        assert code == 1

    def test_oracle_timeout_exit_2(self, capsys):
        code = dispatch(["oracle", "--strands", "3", "--timeout", "0", "s1 s2 s1 s1 s2 s1"])
        assert code == 2
        assert "deadline" in capsys.readouterr().err
        code = dispatch(["oracle", "--strands", "3", "--timeout", "600", "s1 s2 s1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_solve_success_and_failure(self, tmp_path, capsys):
        spec = {
            "template": ["x1", "p1", "x1^-1"],
            "generators": {"x1": ["s1 s1", "s2 s2"]},
            "parameters": {"p1": "s2"},
            "target": "s1 s1 s2 s1^-1 s1^-1",
        }
        path = tmp_path / "eq.json"
        path.write_text(json.dumps(spec))
        code = dispatch(
            ["solve", "--spec", str(path), "--strands", "3", "--n", "1", "--memory", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "x1 = s1 s1" in out

        spec["target"] = "s1"
        path.write_text(json.dumps(spec))
        code = dispatch(
            ["solve", "--spec", str(path), "--strands", "3", "--n", "1", "--memory", "8"]
        )
        assert code == 1

    def test_solve_timeout_exit_1(self, tmp_path):
        spec = {
            "template": ["x1"],
            "generators": {"x1": ["s1 s1", "s2 s2"]},
            "parameters": {},
            "target": "s1",
        }
        path = tmp_path / "eq.json"
        path.write_text(json.dumps(spec))
        code = dispatch(
            [
                "solve",
                "--spec",
                str(path),
                "--strands",
                "3",
                "--n",
                "2",
                "--timeout",
                "0",
            ]
        )
        assert code == 1

    def test_experiment_writes_files(self, tmp_path, capsys):
        cfg = {
            "ns": 4,
            "wl": 2,
            "ng": 2,
            "sl": 2,
            "samples": 5,
            "metric": "rational-bkl",
            "seed": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        csv_path = tmp_path / "out.csv"
        svg_path = tmp_path / "out.svg"
        code = dispatch(
            [
                "experiment",
                "--config",
                str(cfg_path),
                "--csv",
                str(csv_path),
                "--svg",
                str(svg_path),
            ]
        )
        assert code == 0
        assert csv_path.read_text().startswith("position,count,probability,cumulative")
        assert "<svg" in svg_path.read_text()

    def test_compare_writes_both(self, tmp_path, capsys):
        cfg = {
            "ns": 4,
            "wl": 2,
            "ng": 2,
            "sl": 2,
            "samples": 5,
            "metric": "rational-bkl",
            "seed": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        a, b, svg = (tmp_path / x for x in ("a.csv", "b.csv", "cmp.svg"))
        code = dispatch(
            [
                "compare",
                "--config",
                str(cfg_path),
                "--csv-a",
                str(a),
                "--csv-b",
                str(b),
                "--svg",
                str(svg),
            ]
        )
        assert code == 0
        assert a.exists() and b.exists()
        assert svg.read_text().count("<polyline") == 2
        assert "fraction_nonneg" in capsys.readouterr().out

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert dispatch(["nf", "--strands", "3", "a(1,3)"]) == 2
        assert dispatch(["nf", "--strands", "3", "bogus"]) == 2
        assert dispatch(["solve", "--spec", str(tmp_path / "missing.json"),
                         "--strands", "3", "--n", "1"]) == 2
        assert dispatch(["nonsense"]) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            {},
            [],
            "s1",
            {"template": ["x1"], "generators": {"x1": ["s1"]}},
            {"template": [5], "generators": {"x1": ["s1"]}, "target": "s1"},
            {"template": "x1", "generators": {"x1": ["s1"]}, "target": "s1"},
            {"template": ["x1"], "generators": {"x1": "s1 s2"}, "target": "s1"},
            {"template": ["x1"], "generators": [["s1"]], "target": "s1"},
            {"template": ["x1", "p1"], "generators": {"x1": ["s1"]},
             "parameters": {"p1": 2}, "target": "s1"},
            {"template": ["x1"], "generators": {"x1": ["s1"]}, "target": ["s1"]},
        ],
    )
    def test_malformed_spec_exit_2(self, tmp_path, capsys, spec):
        path = tmp_path / "eq.json"
        path.write_text(json.dumps(spec))
        argv = ["solve", "--spec", str(path), "--strands", "3", "--n", "1"]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["experiment", "compare"])
    @pytest.mark.parametrize(
        "config",
        [
            [1, 2],
            {"ns": 3},
            [["ns", 4], ["wl", 2], ["ng", 2], ["sl", 2], ["samples", 5], ["seed", 3]],
            {"ns": 4, "wl": "2", "ng": 2, "sl": 2, "samples": 5, "seed": 3,
             "metric": "rational-bkl"},
            {"ns": 4, "wl": 2, "ng": 2, "sl": 2, "samples": 5, "seed": None,
             "metric": "rational-bkl"},
        ],
    )
    def test_malformed_config_exit_2(self, tmp_path, capsys, command, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path)]
        if command == "experiment":
            argv += ["--csv", str(tmp_path / "out.csv")]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out.csv").exists()


class TestInfo:
    @pytest.mark.parametrize("pure", [False, True], ids=["as-is", "pure"])
    def test_prints_backend_and_interpreter(self, pure):
        """One JSON object: the backend this environment selects and its
        file, the Python version and the CPU count."""
        env = dict(os.environ)
        if pure:
            env["GARSIDEKIT_PURE"] = "1"
        src = os.path.dirname(os.path.dirname(garsidekit.__file__))
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        done = subprocess.run(
            [sys.executable, "-m", "garsidekit.cli", "info"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        backend = "pure" if pure else kernels.BACKEND
        assert json.loads(done.stdout) == {
            "backend": backend,
            "kernels": kernels.backends()[backend].__file__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        }
        assert done.stdout.count("\n") == 1
