import json

import pytest

from builders import CHECKED_HELPER, protect_text
from conftest import corpus_text
from vmguard.bundle import deserialize, serialize
from vmguard.cli import (EXIT_FAILURE, EXIT_OK, EXIT_TAMPER, EXIT_TRAP,
                         SEED_ENV, main)


@pytest.fixture()
def fib_vir(tmp_path):
    src = tmp_path / "fib.vir"
    src.write_text(corpus_text("fib"))
    return src


@pytest.fixture()
def helper_vir(tmp_path):
    src = tmp_path / "helper.vir"
    src.write_text(CHECKED_HELPER)
    return src


def protect(src, out, *extra):
    return main(["protect", str(src), "-o", str(out), "--seed", "41",
                 *extra])


def test_protect_reports_seed_and_size(fib_vir, tmp_path, capsys):
    out = tmp_path / "fib.vsc"
    assert protect(fib_vir, out) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "seed: 41" in stdout
    assert f"wrote {out}" in stdout
    assert "4 protected functions" in stdout
    assert out.read_bytes()[:4] == b"VSC1"


def test_protect_same_seed_is_reproducible(fib_vir, tmp_path):
    a, b = tmp_path / "a.vsc", tmp_path / "b.vsc"
    assert protect(fib_vir, a) == EXIT_OK
    assert protect(fib_vir, b) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_protect_missing_source_fails(tmp_path, capsys):
    rc = main(["protect", str(tmp_path / "nope.vir"), "-o",
               str(tmp_path / "x.vsc")])
    assert rc == EXIT_FAILURE
    assert "error:" in capsys.readouterr().err


def test_coverage_missing_source_fails(tmp_path, capsys):
    rc = main(["coverage", str(tmp_path / "nope.vir")])
    assert rc == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope.vir" in err


# more digits than int() converts from a string by default
HUGE = "9" * 5000


def test_protect_reports_an_oversize_literal_as_a_parse_error(tmp_path,
                                                              capsys):
    src = tmp_path / "huge.vir"
    src.write_text(corpus_text("fib").replace("const i64 2\n",
                                              f"const i64 {HUGE}\n"))
    rc = protect(src, tmp_path / "huge.vsc")
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert "integer literal too long" in err and "line " in err


def test_run_reports_an_oversize_plain_literal_as_a_bundle_error(tmp_path,
                                                                 capsys):
    # fib stays plain at level 50, seed 0; its source is length-prefixed
    data = serialize(protect_text(corpus_text("fib"), seed=0, level=50))
    start = data.index(b"func @fib(")
    end = start + int.from_bytes(data[start - 4:start], "little")
    text = data[start:end].replace(b"const i64 2\n",
                                   f"const i64 {HUGE}\n".encode())
    path = tmp_path / "huge.vsc"
    path.write_bytes(data[:start - 4] + len(text).to_bytes(4, "little")
                     + text + data[end:])
    rc = main(["run", str(path), "8"])
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert "does not parse" in err and "integer literal too long" in err


def test_run_prints_output_and_return_value(fib_vir, tmp_path, capsys):
    out = tmp_path / "fib.vsc"
    protect(fib_vir, out)
    capsys.readouterr()
    assert main(["run", str(out), "8"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.splitlines() == ["21", "21", "ret=0"]


def test_run_modes_agree(fib_vir, tmp_path, capsys):
    out = tmp_path / "fib.vsc"
    protect(fib_vir, out)
    capsys.readouterr()
    assert main(["run", str(out), "8", "--mode", "secure"]) == EXIT_OK
    secure_out = capsys.readouterr().out
    assert main(["run", str(out), "8", "--mode", "optimized"]) == EXIT_OK
    assert capsys.readouterr().out == secure_out


def test_run_rejects_non_bundle_files(fib_vir, capsys):
    assert main(["run", str(fib_vir)]) == EXIT_FAILURE
    assert "error:" in capsys.readouterr().err


def test_run_rejects_unparsable_plain_source(fib_vir, tmp_path, capsys):
    out = tmp_path / "fib.vsc"
    assert protect(fib_vir, out, "--coverage-pct", "50") == EXIT_OK
    data = out.read_bytes()
    assert b"func @" in data
    out.write_bytes(data.replace(b"func @", b"func #", 1))
    assert main(["run", str(out), "8"]) == EXIT_FAILURE
    assert "does not parse" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["secure", "optimized"])
def test_run_rejects_plain_source_that_does_not_validate(tmp_path, capsys,
                                                         mode):
    # fib at level 50, seed 0, with plain @fib calling itself on a value it
    # never defines: the text parses, so only validation can refuse it
    data = serialize(protect_text(corpus_text("fib"), seed=0, level=50))
    assert data.count(b"@fib(%n1)") == 1
    out = tmp_path / "fib.vsc"
    out.write_bytes(data.replace(b"@fib(%n1)", b"@fib(%n9)"))
    assert main(["run", str(out), "8", "--mode", mode]) == EXIT_FAILURE
    assert "does not validate" in capsys.readouterr().err


def test_trap_exits_42(helper_vir, tmp_path, capsys):
    out = tmp_path / "h.vsc"
    protect(helper_vir, out)
    capsys.readouterr()
    rc = main(["run", str(out)])            # main needs one input
    captured = capsys.readouterr()
    assert rc == EXIT_TRAP
    assert "trap: input exhausted" in captured.err


def test_step_limit_trap_exits_42(fib_vir, tmp_path, capsys):
    out = tmp_path / "fib.vsc"
    protect(fib_vir, out)
    capsys.readouterr()
    rc = main(["run", str(out), "8", "--step-limit", "10"])
    captured = capsys.readouterr()
    assert rc == EXIT_TRAP
    assert "trap: step limit exceeded" in captured.err


def tamper(bundle, out, *extra):
    return main(["tamper", str(bundle), "-o", str(out), "--seed", "5",
                 *extra])


def test_tamper_writes_a_change_manifest(helper_vir, tmp_path, capsys):
    clean, dirty = tmp_path / "h.vsc", tmp_path / "h-bad.vsc"
    protect(helper_vir, clean)
    capsys.readouterr()
    rc = tamper(clean, dirty, "--strategy", "flip", "--function", "g",
                "--element", "0", "--mask", "0x10")
    stdout = capsys.readouterr().out
    assert rc == EXIT_OK
    changes = [json.loads(line) for line in stdout.splitlines()]
    assert len(changes) == 1
    assert changes[0]["function"] == "g"
    assert changes[0]["after"] == changes[0]["before"] ^ 0x10
    assert dirty.read_bytes() != clean.read_bytes()


def test_tampered_checkee_is_detected_at_run_time(helper_vir, tmp_path,
                                                  capsys):
    clean, dirty = tmp_path / "h.vsc", tmp_path / "h-bad.vsc"
    protect(helper_vir, clean)
    tamper(clean, dirty, "--strategy", "flip", "--function", "g",
           "--element", "0")
    capsys.readouterr()
    rc = main(["run", str(dirty), "3"])
    captured = capsys.readouterr()
    assert rc == EXIT_TAMPER
    assert "tamper detected: checksum mismatch" in captured.err
    # --explain-tamper names the offending function
    rc = main(["run", str(dirty), "3", "--explain-tamper"])
    assert rc == EXIT_TAMPER
    assert "@g" in capsys.readouterr().err


def test_checksum_preserving_tamper_slips_through(helper_vir, tmp_path,
                                                  capsys):
    clean, dirty = tmp_path / "h.vsc", tmp_path / "h-bad.vsc"
    protect(helper_vir, clean)
    tamper(clean, dirty, "--strategy", "preserve-pair", "--function", "g")
    capsys.readouterr()
    rc = main(["run", str(dirty), "3"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    assert "ret=21" in captured.out


def test_preserve_pair_draws_its_mask_unless_one_is_given(fib_vir, tmp_path,
                                                         capsys):
    clean, dirty = tmp_path / "fib.vsc", tmp_path / "bad.vsc"
    protect(fib_vir, clean)
    capsys.readouterr()

    def masks(seed, *extra):
        rc = main(["tamper", str(clean), "-o", str(dirty), "--seed",
                   str(seed), "--strategy", "preserve-pair", *extra])
        changes = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert rc == EXIT_OK and len(changes) == 2
        (mask,) = {c["before"] ^ c["after"] for c in changes}
        return mask

    assert len({masks(seed) for seed in range(1, 5)}) > 1
    assert {masks(seed, "--mask", "0x10") for seed in range(1, 5)} == {0x10}


def test_verify_flag_rejects_corrupt_bundles_up_front(helper_vir, tmp_path,
                                                      capsys):
    clean, dirty = tmp_path / "h.vsc", tmp_path / "h-bad.vsc"
    protect(helper_vir, clean)
    tamper(clean, dirty, "--strategy", "zero-range", "--function", "main",
           "--start", "0", "--length", "4")
    capsys.readouterr()
    rc = main(["run", str(dirty), "3", "--verify"])
    captured = capsys.readouterr()
    assert rc == EXIT_FAILURE
    assert "verify:" in captured.err
    # the pristine bundle passes the same gate
    assert main(["run", str(clean), "3", "--verify"]) == EXIT_OK


def test_tamper_strategy_options_are_validated(helper_vir, tmp_path,
                                               capsys):
    clean = tmp_path / "h.vsc"
    protect(helper_vir, clean)
    capsys.readouterr()
    rc = tamper(clean, tmp_path / "x.vsc", "--strategy", "flip")
    assert rc == EXIT_FAILURE
    assert "needs --function" in capsys.readouterr().err
    rc = tamper(clean, tmp_path / "x.vsc", "--strategy", "flip",
                "--function", "nope", "--element", "0")
    assert rc == EXIT_FAILURE


def test_protect_sensitive_selects_named_functions(fib_vir, tmp_path,
                                                   capsys):
    out = tmp_path / "fib.vsc"
    rc = protect(fib_vir, out, "--sensitive", "fib,main")
    stdout = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "2 protected functions" in stdout
    bundle = deserialize(out.read_bytes())
    assert sorted(f.name for f in bundle.virt_functions()) == \
        ["fib", "main"]


def test_protect_sensitive_rejects_unknown_names(fib_vir, tmp_path,
                                                 capsys):
    rc = protect(fib_vir, tmp_path / "x.vsc", "--sensitive", "nonexistent")
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert "@nonexistent" in err
    assert "available" in err and "@fib_iter" in err


def test_protect_omits_seed_unless_asked(helper_vir, tmp_path, capsys):
    plain, debug = tmp_path / "p.vsc", tmp_path / "d.vsc"
    protect(helper_vir, plain)
    protect(helper_vir, debug, "--debug-seed")
    capsys.readouterr()
    assert deserialize(plain.read_bytes()).seed is None
    assert deserialize(debug.read_bytes()).seed == 41


def test_protect_mode_hint_steers_run_auto(fib_vir, tmp_path, capsys):
    out = tmp_path / "fib.vsc"
    rc = protect(fib_vir, out, "--mode", "optimized")
    assert rc == EXIT_OK
    assert deserialize(out.read_bytes()).optimized_hint
    capsys.readouterr()
    assert main(["run", str(out), "8"]) == EXIT_OK   # auto picks the hint
    assert "21" in capsys.readouterr().out


def test_run_accepts_input_flags(fib_vir, tmp_path, capsys):
    out = tmp_path / "fib.vsc"
    protect(fib_vir, out)
    capsys.readouterr()
    assert main(["run", str(out), "--input", "8"]) == EXIT_OK
    flagged = capsys.readouterr().out
    assert main(["run", str(out), "8"]) == EXIT_OK
    assert capsys.readouterr().out == flagged


@pytest.mark.parametrize("argv", [
    ["--mode", "optimized", "8", "--step-limit", "100000"],
    ["8", "--mode", "optimized", "--step-limit", "100000"],
    ["--mode", "optimized", "--step-limit", "100000", "8"],
], ids=["between-options", "before-options", "after-options"])
def test_run_takes_inputs_before_or_after_options(fib_vir, tmp_path, capsys,
                                                  argv):
    out = tmp_path / "fib.vsc"
    protect(fib_vir, out)
    capsys.readouterr()
    assert main(["run", str(out), *argv]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["21", "21", "ret=0"]


@pytest.mark.parametrize("argv", [["run", "x.vsc", "--mode", "optimized",
                                   "--bogus"],
                                  ["coverage", "x.vir", "7"]])
def test_leftover_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_tamper_without_output_or_trials_fails(helper_vir, tmp_path,
                                               capsys):
    clean = tmp_path / "h.vsc"
    protect(helper_vir, clean)
    capsys.readouterr()
    rc = main(["tamper", str(clean)])
    assert rc == EXIT_FAILURE
    assert "need -o/--output" in capsys.readouterr().err


def test_tamper_trials_report_counts_are_exhaustive(fib_vir, tmp_path,
                                                    capsys):
    clean = tmp_path / "fib.vsc"
    protect(fib_vir, clean)
    capsys.readouterr()
    rc = main(["tamper", str(clean), "--trials", "12", "--seed", "5",
               "--input", "6"])
    stdout = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "total: 12 of 12 trials" in stdout
    counts = {}
    for line in stdout.splitlines():
        for key in ("detected:", "trapped:",
                    "undetected unchecked root:",
                    "undetected guard not executed:",
                    "undetected checksum collision:"):
            if line.startswith(key):
                counts[key] = int(line.split(":")[1])
    assert len(counts) == 5
    assert sum(counts.values()) == 12


def test_tamper_trials_classify_preserving_pairs_as_collisions(
        helper_vir, tmp_path, capsys):
    clean = tmp_path / "h.vsc"
    protect(helper_vir, clean)
    capsys.readouterr()
    rc = main(["tamper", str(clean), "--trials", "8", "--seed", "5",
               "--strategy", "preserve-pair", "--function", "g",
               "--input", "3"])
    stdout = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "undetected checksum collision: 8" in stdout


@pytest.mark.parametrize("strategy", ["swap-opcodes", "zero-range",
                                      "preserve-pair"])
def test_targetless_strategies_draw_their_targets(fib_vir, tmp_path, capsys,
                                                  strategy):
    clean, dirty = tmp_path / "fib.vsc", tmp_path / "bad.vsc"
    protect(fib_vir, clean)
    capsys.readouterr()
    rc = main(["tamper", str(clean), "--trials", "6", "--seed", "5",
               "--strategy", strategy, "--input", "6"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK, captured.err
    assert "total: 6 of 6 trials" in captured.out
    assert tamper(clean, dirty, "--strategy", strategy) == EXIT_OK
    assert capsys.readouterr().out and dirty.read_bytes() != \
        clean.read_bytes()


def test_tamper_trials_honour_a_step_limit(fib_vir, tmp_path, capsys):
    clean = tmp_path / "fib.vsc"
    protect(fib_vir, clean)
    capsys.readouterr()
    trials = ["tamper", str(clean), "--trials", "4", "--seed", "5",
              "--input", "6"]
    # too tight for the honest run, which must end normally
    assert main([*trials, "--step-limit", "20"]) == EXIT_FAILURE
    assert "honest run must succeed, got trap" in capsys.readouterr().err
    assert main([*trials, "--step-limit", "100000"]) == EXIT_OK
    assert "total: 4 of 4 trials" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["protect", "coverage"])
def test_a_source_that_is_not_utf8_is_refused(tmp_path, capsys, command):
    src = tmp_path / "bad.vir"
    src.write_bytes(corpus_text("fib").encode()[:40] + b"\xff\xfe")
    extra = ["-o", str(tmp_path / "bad.vsc")] if command == "protect" else []
    assert main([command, str(src), *extra]) == EXIT_FAILURE
    assert "can't decode byte 0xff" in capsys.readouterr().err


def test_zero_range_trials_refuse_a_zero_length(fib_vir, tmp_path, capsys):
    clean = tmp_path / "fib.vsc"
    protect(fib_vir, clean)
    capsys.readouterr()
    rc = main(["tamper", str(clean), "--trials", "4", "--seed", "5",
               "--strategy", "zero-range", "--length", "0", "--input", "6"])
    assert rc == EXIT_FAILURE
    assert "length 0 is not positive" in capsys.readouterr().err


def test_tamper_trials_refuse_a_negative_count(fib_vir, tmp_path, capsys):
    clean = tmp_path / "fib.vsc"
    protect(fib_vir, clean)
    capsys.readouterr()
    rc = main(["tamper", str(clean), "--trials", "-3", "--input", "6"])
    captured = capsys.readouterr()
    assert rc == EXIT_FAILURE
    assert "trial count -3 is negative" in captured.err
    assert "total:" not in captured.out


@pytest.mark.parametrize("seed", ["abc", "-5", str(2 ** 64), "1.5", ""])
def test_bad_seed_flags_are_usage_errors(helper_vir, tmp_path, capsys, seed):
    out = tmp_path / "h.vsc"
    for argv in (["protect", str(helper_vir), "-o", str(out),
                  "--debug-seed", "--seed", seed],
                 ["tamper", str(out), "--trials", "1", "--seed", seed],
                 ["bench", "--tier", "tiny", "--seed", seed]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "is not an integer in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["abc", "-1", hex(2 ** 64)])
def test_a_bad_seed_in_the_environment_is_refused(helper_vir, tmp_path,
                                                  monkeypatch, capsys, seed):
    monkeypatch.setenv(SEED_ENV, seed)
    out = tmp_path / "h.vsc"
    rc = main(["protect", str(helper_vir), "-o", str(out)])
    assert rc == EXIT_FAILURE
    assert f"${SEED_ENV}: seed {seed!r}" in capsys.readouterr().err
    assert not out.exists()


def test_the_largest_seed_is_embedded_and_read_back(helper_vir, tmp_path,
                                                    capsys):
    out = tmp_path / "h.vsc"
    rc = main(["protect", str(helper_vir), "-o", str(out), "--debug-seed",
               "--seed", hex(2 ** 64 - 1)])
    assert rc == EXIT_OK
    assert deserialize(out.read_bytes()).seed == 2 ** 64 - 1


def test_seed_env_var_feeds_protection(helper_vir, tmp_path, monkeypatch,
                                       capsys):
    monkeypatch.setenv(SEED_ENV, "0x2A")
    out = tmp_path / "h.vsc"
    rc = main(["protect", str(helper_vir), "-o", str(out)])
    stdout = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "seed: 42" in stdout
    explicit = tmp_path / "e.vsc"
    main(["protect", str(helper_vir), "-o", str(explicit), "--seed", "42"])
    assert out.read_bytes() == explicit.read_bytes()


def test_coverage_reports_the_static_summary(fib_vir, capsys):
    rc = main(["coverage", str(fib_vir), "--seed", "7",
               "--coverage-pct", "50"])
    stdout = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "seed: 7" in stdout
    assert "virtualized:" in stdout
    assert "virtualized and checked:" in stdout
    for name in ("main", "fib", "fib_iter", "diff"):
        assert name in stdout


def test_bench_smoke_runs_one_tiny_cell(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    rc = main(["bench", "--programs", "fib", "--tier", "tiny", "--reps",
               "1", "--seeds", "1", "--seed", "3", "--csv",
               str(csv_path)])
    stdout = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "fib" in stdout
    assert "coverage at level 100" in stdout
    assert "protected %" in stdout
    text = csv_path.read_text()
    assert text.splitlines()[0].startswith("program,level,")
    assert len(text.splitlines()) == 5       # header + 2 arms x 2 modes


def test_bench_rejects_a_malformed_level_list_as_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--levels", "x", "--tier", "tiny"])
    assert exc.value.code == 2
    assert "--levels" in capsys.readouterr().err


def test_bench_refuses_a_negative_connectivity(capsys):
    rc = main(["bench", "--programs", "fib", "--tier", "tiny", "--reps",
               "1", "--seeds", "1", "--seed", "3", "--connectivity", "-1"])
    assert rc == EXIT_FAILURE
    assert "connectivity -1 is negative" in capsys.readouterr().err


def test_bench_rejects_unknown_programs(capsys):
    rc = main(["bench", "--programs", "nope", "--tier", "tiny", "--reps",
               "1", "--seeds", "1", "--seed", "3"])
    assert rc == EXIT_FAILURE
    assert "error:" in capsys.readouterr().err
