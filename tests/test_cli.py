"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dppm
from dppm.cli import EXIT_IO, EXIT_OK, EXIT_PRIVACY, EXIT_REFUTED, EXIT_USAGE, main
from dppm.matchers import BudgetLedger


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"abracadabra" * 40)
    return path


def run_cli(args):
    return main([str(a) for a in args])


# Each makes a calibrated scale or threshold overflow to inf.
OVERFLOWING = [("1e-310", "0.1"), ("1", "1e-320")]


def assert_one_line_usage_error(code, capsys):
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dppm: invalid arguments:")
    assert captured.err.count("\n") == 1


class TestMatch:
    def test_existence_record(self, corpus, capsys):
        code = run_cli(
            [
                "match",
                "--variant",
                "existence",
                "--pattern",
                "abra",
                "--k",
                "1",
                "--epsilon",
                "1",
                "--beta",
                "0.1",
                "--seed",
                "7",
                corpus,
            ]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["answer"] in ("YES", "NO")
        assert record["seed"] == 7
        assert record["k"] == 1
        assert record["budget_max"] <= 1.0

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code = run_cli(
            [
                "match",
                "--pattern",
                "ab",
                "--k",
                "1",
                "--epsilon",
                "1",
                "--beta",
                "0.1",
                tmp_path / "nope.txt",
            ]
        )
        assert code == EXIT_IO

    def test_k_exceeding_m_exits_2(self, corpus, capsys):
        code = run_cli(
            [
                "match",
                "--pattern",
                "abra",
                "--k",
                "7",
                "--epsilon",
                "1",
                "--beta",
                "0.1",
                corpus,
            ]
        )
        assert code == EXIT_USAGE
        assert "k=7" in capsys.readouterr().err

    def test_privacy_cap_failure_exits_5(self, corpus, capsys, monkeypatch):
        # A ledger whose peak is twice the cap: the guarantee failed, so the
        # run releases nothing and says so in one line.
        monkeypatch.setattr(BudgetLedger, "_peak", lambda self: 2 * self.share)
        code = run_cli(
            ["match", "--variant", "existence", "--pattern", "abra", "--k", "1",
             "--epsilon", "1", "--beta", "0.1", corpus]
        )
        assert code == EXIT_PRIVACY == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("dppm: privacy guarantee failed: ")
        assert "privacy budget exceeded" in captured.err
        assert captured.err.count("\n") == 1

    def test_pattern_from_file(self, corpus, tmp_path, capsys):
        ppath = tmp_path / "pattern.bin"
        ppath.write_bytes(b"abra")
        code = run_cli(
            [
                "match",
                "--pattern",
                f"@{ppath}",
                "--k",
                "0",
                "--epsilon",
                "1",
                "--beta",
                "0.1",
                "--seed",
                "1",
                corpus,
            ]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["regime"] == "TrivialFallback"

    def test_zero_noise_deterministic_existence(self, corpus, capsys):
        args = [
            "match",
            "--variant",
            "existence",
            "--pattern",
            "abra",
            "--k",
            "0",
            "--epsilon",
            "1",
            "--beta",
            "0.1",
            "--zero-noise",
            corpus,
        ]
        run_cli(args)
        first = capsys.readouterr().out
        record = json.loads(first)
        assert record["answer"] == "YES" and record["witness"] == 0

    def test_env_seed_default(self, corpus, capsys, monkeypatch):
        monkeypatch.setenv("DPPM_SEED", "99")
        run_cli(
            [
                "match",
                "--pattern",
                "abra",
                "--k",
                "1",
                "--epsilon",
                "1",
                "--beta",
                "0.1",
                corpus,
            ]
        )
        assert json.loads(capsys.readouterr().out)["seed"] == 99

    def test_human_format(self, corpus, capsys):
        code = run_cli(
            [
                "match",
                "--pattern",
                "abra",
                "--k",
                "1",
                "--epsilon",
                "1",
                "--beta",
                "0.1",
                "--format",
                "human",
                corpus,
            ]
        )
        assert code == EXIT_OK
        assert "regime:" in capsys.readouterr().out

    @pytest.mark.parametrize("epsilon, beta", OVERFLOWING)
    def test_overflowing_parameters_exit_2(self, corpus, capsys, epsilon, beta):
        code = run_cli(
            [
                "match",
                "--variant",
                "existence",
                "--pattern",
                "abra",
                "--k",
                "0",
                "--epsilon",
                epsilon,
                "--beta",
                beta,
                corpus,
            ]
        )
        assert_one_line_usage_error(code, capsys)


class TestInspectPattern:
    def test_close_period_reported(self, capsys):
        code = run_cli(
            [
                "inspect-pattern",
                "--pattern",
                "abababab",
                "--k",
                "0",
                "--epsilon",
                "1",
                "--beta",
                "0.1",
                "--n",
                "100",
            ]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["candidate_length"] == 2
        assert record["candidate_root_hex"] == b"ab".hex()
        assert record["candidate_distance"] == 0

    def test_non_periodic_pattern(self, capsys):
        code = run_cli(
            [
                "inspect-pattern",
                "--pattern",
                "abcdefgh",
                "--k",
                "1",
                "--epsilon",
                "1",
                "--beta",
                "0.1",
                "--n",
                "10000",
            ]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["regime"] == "NonPeriodicCounting"

    def test_widest_search_fallback(self, capsys):
        # Dispatch searches no period lengths here, so the candidate comes
        # from the widest close-period search.
        code = run_cli(
            [
                "inspect-pattern",
                "--pattern",
                "abababababababab",
                "--k",
                "1",
                "--epsilon",
                "1",
                "--beta",
                "0.1",
                "--n",
                "100",
            ]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["regime"] == "NonPeriodicCounting"
        assert record["candidate_length"] == 2
        assert record["candidate_root_hex"] == b"ab".hex()
        assert record["candidate_distance"] == 0

    def test_invalid_beta_exits_2(self, capsys):
        code = run_cli(
            [
                "inspect-pattern",
                "--pattern",
                "abab",
                "--k",
                "1",
                "--epsilon",
                "1",
                "--beta",
                "1.5",
                "--n",
                "100",
            ]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("epsilon, beta", OVERFLOWING)
    def test_overflowing_parameters_exit_2(self, capsys, epsilon, beta):
        code = run_cli(
            [
                "inspect-pattern",
                "--pattern",
                "abab",
                "--k",
                "1",
                "--epsilon",
                epsilon,
                "--beta",
                beta,
                "--n",
                "100",
            ]
        )
        assert_one_line_usage_error(code, capsys)


BENCH_CONFIG = """\
# existence sweep at desk scale
n = 400
m = 16
k = 1
epsilon = 1.0
beta = 0.1
trials = 8
seed = 21
generator = planted-occurrence
variant = existence
"""


class TestBench:
    def test_csv_shape(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text(BENCH_CONFIG)
        out = tmp_path / "report.csv"
        code = run_cli(["bench", config, "--out", out])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 8 + 1
        assert lines[0].startswith("trial,")
        assert lines[-1].startswith("summary,")

    def test_byte_identical_reruns(self, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text(BENCH_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["bench", config, "--out", out1]) == EXIT_OK
        assert run_cli(["bench", config, "--out", out2]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_noise_run_has_no_violations(self, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text(BENCH_CONFIG + "noise = zero\n")
        out = tmp_path / "zero.csv"
        assert run_cli(["bench", config, "--out", out]) == EXIT_OK
        rows = out.read_text().splitlines()
        header = rows[0].split(",")
        violated = header.index("violated")
        assert all(r.split(",")[violated] == "False" for r in rows[1:-1])

    @pytest.mark.parametrize(
        "text",
        [
            "this is not key value\n",
            BENCH_CONFIG.replace("n = 400\n", "n = 50\n") + "n = 20\n",
            BENCH_CONFIG.replace("variant = existence", "variant = bogus"),
        ],
        ids=["not-key-value", "duplicate-key", "unknown-variant"],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, text):
        config = tmp_path / "bench.cfg"
        config.write_text(text)
        assert_one_line_usage_error(run_cli(["bench", config]), capsys)


class TestDpAudit:
    def audit_args(self, tmp_path, matcher):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_bytes(b"ababab")
        b.write_bytes(b"abbbab")
        return [
            "dp-audit",
            "--pattern",
            "ba",
            "--k",
            "0",
            "--epsilon",
            "1",
            "--beta",
            "0.1",
            "--neighbor",
            b,
            "--trials",
            "400",
            "--matcher",
            matcher,
            "--seed",
            "5",
            a,
        ]

    def test_real_matcher_passes(self, tmp_path, capsys):
        code = run_cli(self.audit_args(tmp_path, "existence"))
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        summary = json.loads(lines[-1])
        assert summary["result"] == "not-refuted"

    def test_canary_refuted_exits_4(self, tmp_path, capsys):
        code = run_cli(self.audit_args(tmp_path, "canary"))
        assert code == EXIT_REFUTED
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["result"] == "refuted"

    def test_overflowing_ratio_bound_exits_2(self, tmp_path, capsys):
        args = self.audit_args(tmp_path, "existence")
        args[args.index("--epsilon") + 1] = "1000"
        assert_one_line_usage_error(run_cli(args), capsys)

    def test_non_neighbors_exit_2_without_group(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_bytes(b"aaaaaa")
        b.write_bytes(b"bbaaaa")
        code = run_cli(
            [
                "dp-audit",
                "--pattern",
                "ba",
                "--k",
                "0",
                "--epsilon",
                "1",
                "--beta",
                "0.1",
                "--neighbor",
                b,
                "--trials",
                "10",
                a,
            ]
        )
        assert code == EXIT_USAGE


class TestSeedRange:
    """A root seed outside [0, 2**64) exits 2 from every surface that takes
    one: it used to run as the seed it equals modulo 2**64 while the record
    printed it as given."""

    def args(self, tmp_path, command):
        a = tmp_path / "a.txt"
        a.write_bytes(b"ababab")
        query = ["--pattern", "ba", "--k", "0", "--epsilon", "1", "--beta", "0.1"]
        if command == "match":
            return ["match", *query, a]
        b = tmp_path / "b.txt"
        b.write_bytes(b"abbbab")
        return ["dp-audit", *query, "--neighbor", b, "--trials", "50", a]

    @pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**64])
    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("command", ["match", "dp-audit"])
    def test_seed_must_fit_64_bits(
        self, tmp_path, capsys, monkeypatch, command, via, seed
    ):
        args = self.args(tmp_path, command)
        if via == "flag":
            args[1:1] = ["--seed", seed]
        else:
            monkeypatch.setenv("DPPM_SEED", str(seed))
        code = run_cli(args)
        if seed == 2**64 - 1:
            assert code == EXIT_OK
            assert json.loads(capsys.readouterr().out.splitlines()[-1])["seed"] == seed
        else:
            assert_one_line_usage_error(code, capsys)


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports this checkout's dppm,
    installed or not."""
    src = str(Path(dppm.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


class TestEntryPoint:
    @pytest.mark.parametrize("module", ["dppm.cli", "dppm"])
    def test_module_invocation(self, corpus, module):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                module,
                "match",
                "--variant",
                "existence",
                "--pattern",
                "abra",
                "--k",
                "1",
                "--epsilon",
                "1",
                "--beta",
                "0.1",
                "--seed",
                "3",
                str(corpus),
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == EXIT_OK
        assert json.loads(result.stdout)["seed"] == 3

    def test_import_leaves_scipy_stats_unloaded(self):
        # No scipy module at all: scipy is imported only when an audit
        # computes its interval.
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, dppm, dppm.cli; "
                "print(any(name.split('.')[0] == 'scipy' for name in sys.modules))",
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == EXIT_OK
        assert result.stdout.strip() == "False"
