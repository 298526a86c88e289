"""End-to-end command tests, driving cli.main() in process."""

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from decimal import Context, Decimal

import pytest
from hypothesis import given, settings, strategies as st

from mechx import cli, specfile
from mechx.aemachine import INCREMENTER, serialize_machine
from mechx.capacity import EXACT_DIGITS_LIMIT, analyze

from conftest import SIMPLE_ROBOT


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_human_output(self, capsys):
        code, out, err = run_cli(capsys, "compute", "@nao")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "platform: NAO"
        assert lines[1] == "kind: artificial"
        assert lines[2] == "degrees of freedom: 25 (14 groups)"
        assert "C(all) = 4.1e+71 (72 digits)" in lines
        assert "K(all) = 238 bits (rounded)" in lines
        assert "K(mechanical) = 238 bits (rounded)" in lines
        assert "processor: Atom Z530, 47000000 transistors" in lines
        assert (
            "computational capacity = 47000000.0 bits "
            "(14148410 digits as a configuration count)" in lines
        )
        k_lines = [l for l in lines if l.endswith(" bits") and "K(all)" in l]
        assert len(k_lines) == 1
        value = float(k_lines[0].split("=")[1].split()[0])
        assert value == pytest.approx(237.9045888528941, abs=1e-9)

    def test_json_output(self, capsys):
        code, out, err = run_cli(capsys, "compute", "@nao", "--json")
        assert code == 0
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert payload["platform"] == "NAO"
        assert payload["mode"] == "both"
        assert payload["k_bits_all_rounded"] == 238
        assert payload["c_digits_all"] == 72
        assert payload["transistors"] == 47_000_000
        assert payload["computational_bits"] == 47_000_000.0
        assert payload["computational_config_digits"] == 14_148_410
        assert "c_exact_all" not in payload
        # Keys are emitted sorted, so output is canonical.
        assert out.strip() == json.dumps(payload, sort_keys=True)

    def test_json_exact_mode(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "@nao", "--json", "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "exact"
        exact = int(payload["c_exact_all"])
        assert len(str(exact)) == payload["c_digits_all"] == 72
        assert str(exact).startswith("41")
        assert int(payload["c_exact_mechanical"]) == exact

    def test_json_log_space_mode(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "@nao", "--json", "--log-space")
        payload = json.loads(out)
        assert code == 0
        assert payload["mode"] == "log_space"
        assert "c_exact_all" not in payload
        assert payload["k_bits_all"] == pytest.approx(237.9, abs=0.1)

    def test_exact_and_log_space_conflict(self, capsys):
        code, _, err = run_cli(capsys, "compute", "@nao", "--exact", "--log-space")
        assert code == 1
        assert "usage error" in err

    def test_mechanical_only(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "@nao", "--mechanical-only")
        assert code == 0
        assert "K(all)" not in out
        assert "K(mechanical) = 238 bits (rounded)" in out
        _, jout, _ = run_cli(
            capsys, "compute", "@nao", "--mechanical-only", "--json"
        )
        payload = json.loads(jout)
        assert "k_bits_all" not in payload
        assert payload["k_bits_mechanical_rounded"] == 238

    @pytest.mark.parametrize(
        "flags", [(), ("--json",), ("--log-space",), ("--exact",)]
    )
    def test_mechanical_only_skips_non_mechanical_ranges(self, capsys, tmp_path, flags):
        # The LED's non-integral range cannot be resolved, but the printed
        # count never uses it; the full count still refuses the file.
        path = tmp_path / "led.mechx"
        path.write_text(
            'platform "p"\n'
            'group "led" count 1 range 0 1 resolution 0.3 tag "non-mechanical"\n'
            'group "servo" count 1 states 2\n'
            'processor "mcu" transistors 100\n',
            encoding="utf-8",
        )
        argv = ("compute", str(path), *flags)
        code, out, err = run_cli(capsys, *argv, "--mechanical-only")
        assert (code, err) == (0, "")
        if flags == ("--json",):
            payload = json.loads(out)
            assert payload["k_bits_mechanical"] == 1.0
            assert payload["computational_bits"] == 100.0
        else:
            assert "K(mechanical) = 1.0 bits" in out.splitlines()
            assert "processor: mcu, 100 transistors" in out.splitlines()
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: group 'led': span/resolution")

    def test_file_path_input(self, capsys, tmp_path):
        path = tmp_path / "simple.mechx"
        path.write_text(SIMPLE_ROBOT, encoding="utf-8")
        code, out, _ = run_cli(capsys, "compute", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "platform: simple-robot"
        assert "degrees of freedom: 4 (3 groups)" in lines
        assert "K(all) = 26 bits (rounded)" in lines
        assert "K(mechanical) = 25 bits (rounded)" in lines

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compute", str(tmp_path / "nope.mechx"))
        assert code == 2
        assert "error" in err

    def test_unknown_dataset_ref(self, capsys):
        code, _, err = run_cli(capsys, "compute", "@not-a-robot")
        assert code == 2
        assert "error" in err

    def test_parse_error_file(self, capsys, tmp_path):
        path = tmp_path / "bad.mechx"
        path.write_text('platform "x"\nwibble\n', encoding="utf-8")
        code, _, err = run_cli(capsys, "compute", str(path))
        assert code == 2
        assert "line 2" in err

    def test_non_integral_span_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "frac.mechx"
        path.write_text(
            'platform "x"\ngroup "j" count 1 range 0 10.05 resolution 0.1\n',
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "compute", str(path))
        assert code == 2
        assert "error" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "compute", "@bellagio", "--json")
        _, second, _ = run_cli(capsys, "compute", "@bellagio", "--json")
        assert first == second

    def test_exact_json_is_hermetic(self, capsys, tmp_path):
        # 3600**1300 has 4,624 digits, beyond the interpreter's default
        # int-to-str limit of 4,300.
        path = tmp_path / "wide.mechx"
        path.write_text(
            'platform "wide"\n'
            'group "g" count 1300 states 3600\n'
            'group "led" count 3 states 2 tag "non-mechanical"\n',
            encoding="utf-8",
        )
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "compute", str(path), "--exact", "--json")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        payload = json.loads(out)
        report = analyze(specfile.parse_platform(path.read_text()).platform)
        sys.set_int_max_str_digits(0)
        try:
            assert payload["c_exact_mechanical"] == str(report.count_mechanical.exact)
            assert payload["c_exact_all"] == str(report.count_all.exact)
        finally:
            sys.set_int_max_str_digits(limit)
        assert payload["c_digits_mechanical"] == 4624

    def test_exact_count_above_limit_is_refused(self, capsys, tmp_path):
        path = tmp_path / "huge.mechx"
        path.write_text(
            'platform "huge"\ngroup "g" count 1000000000000 states 3600\n',
            encoding="utf-8",
        )
        for flags in (("--exact",), ("--exact", "--json")):
            code, out, err = run_cli(capsys, "compute", str(path), *flags)
            assert (code, out) == (2, "")
            assert err == (
                "error: exact count has 3556302500768 digits, "
                f"above the limit of {EXACT_DIGITS_LIMIT}\n"
            )
        # The default mode needs no exact product at all.
        code, out, _ = run_cli(capsys, "compute", str(path))
        assert code == 0
        assert "C(all) = 1.9e+3556302500767 (3556302500768 digits)" in out
        assert "K(all) = 11813781191217 bits (rounded)" in out

    @pytest.mark.parametrize("flags", [(), ("--log-space",), ("--json",)])
    def test_count_beyond_float_range_is_refused(self, capsys, tmp_path, flags):
        path = tmp_path / "vast.mechx"
        text = 'platform "vast"\ngroup "g" count 1{} states 3600\n'
        path.write_text(text.format("0" * 400), encoding="utf-8")
        code, out, err = run_cli(capsys, "compute", str(path), *flags)
        assert (code, out) == (2, "")
        assert err == "error: configuration count too large: K is 2**1021 bits or more\n"
        path.write_text(text.format("0" * 306), encoding="utf-8")
        code, out, _ = run_cli(capsys, "compute", str(path), *flags)
        assert code == 0 and "1.181378119121703" in out

    def test_exact_limit_leaves_room_for_large_counts(self, capsys, tmp_path):
        path = tmp_path / "large.mechx"
        path.write_text(
            'platform "large"\ngroup "g" count 28000 states 3600\n', encoding="utf-8"
        )
        code, out, _ = run_cli(capsys, "compute", str(path), "--exact", "--json")
        assert code == 0
        assert len(json.loads(out)["c_exact_all"]) == 99577 < EXACT_DIGITS_LIMIT

    @pytest.mark.parametrize("command", ["compute", "validate", "aem-run"])
    def test_invalid_utf8_names_file_and_line(self, capsys, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b'platform "x"\r\n# caf\xc3\xa9\r\ngroup "\xff" count 1 states 2\n')
        argv = [command, str(path)] + (["--max-steps", "5"] if command == "aem-run" else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {str(path)!r}: line 3: invalid UTF-8 byte 0xff\n"

    @pytest.mark.parametrize(
        "tail, error",
        [
            (b"kind robot\n", "line 3: expected 'artificial' or 'natural', found 'robot'"),
            (b"\xff\n", "cannot read {path!r}: line 3: invalid UTF-8 byte 0xff"),
        ],
    )
    def test_reader_and_utf8_check_number_lines_alike(self, capsys, tmp_path, tail, error):
        # A form feed or U+2028 ends no line, for the reader or the UTF-8 check.
        path = tmp_path / "f.mechx"
        path.write_bytes('platform "x"\r\n# form\x0cfeed\u2028\r'.encode() + tail)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out, err) == (2, "", f"error: {error.format(path=str(path))}\n")

    def test_processor_digit_count_for_huge_transistor_count(self, capsys, tmp_path):
        path = tmp_path / "p.mechx"
        path.write_text('platform "p"\nprocessor transistors 1e100\n', encoding="utf-8")
        code, out, _ = run_cli(capsys, "compute", str(path))
        assert code == 0
        t = int(1e100)  # the parser stores the rounded integer
        ctx = Context(prec=len(str(t)) + 60)
        digits = int(ctx.multiply(Decimal(t), Decimal(2).log10(ctx))) + 1
        assert out.splitlines()[-1] == (
            f"computational capacity = 1e+100 bits ({digits} digits as a configuration count)"
        )


class TestCompare:
    def test_human(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "@nao", "@roomba")
        assert code == 0
        assert "larger: NAO" in out
        assert "difference (left - right)" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "@nao", "@roomba", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["larger"] == "NAO"
        assert payload["k_bits_left"] == pytest.approx(237.9, abs=0.1)
        assert payload["k_bits_right"] == pytest.approx(23.6, abs=0.1)
        assert payload["bits_difference"] == pytest.approx(
            payload["k_bits_left"] - payload["k_bits_right"], abs=1e-9
        )

    @pytest.mark.parametrize("left", ["@nao", "zero"])
    def test_json_zero_bits_on_the_right_is_null(self, capsys, tmp_path, left):
        zero = tmp_path / "zero.mechx"
        zero.write_text('platform "zero"\ngroup "g" count 3 states 1\n', encoding="utf-8")
        left = str(zero) if left == "zero" else left

        def no_constants(name):
            raise ValueError(f"not JSON: {name}")

        code, out, _ = run_cli(capsys, "compare", left, str(zero), "--json")
        assert code == 0
        assert json.loads(out, parse_constant=no_constants)["bits_ratio"] is None
        code, out, _ = run_cli(capsys, "compare", left, str(zero))
        assert "bits ratio = inf\n" in out

    def test_self_comparison_equal(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "@nao", "@nao", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["larger"] == ""
        assert payload["bits_difference"] == 0.0

    def test_counts_each_side_as_mechanical_only_compute_does(self, capsys, tmp_path):
        # The LED's non-integral range stops the full count, but compare
        # reports only the mechanical one and never resolves the LED.
        path = tmp_path / "led.mechx"
        path.write_text(
            'platform "p"\n'
            'group "led" count 1 range 0 1 resolution 0.3 tag "non-mechanical"\n'
            'group "servo" count 1 states 2\n',
            encoding="utf-8",
        )
        k = {}
        for ref in (str(path), "@nao"):
            code, out, _ = run_cli(capsys, "compute", ref, "--mechanical-only", "--json")
            assert code == 0
            k[ref] = json.loads(out)["k_bits_mechanical"]
        assert k[str(path)] == 1.0
        code, out, err = run_cli(capsys, "compare", str(path), "@nao")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == f"left: p, K(mechanical) = {k[str(path)]!r} bits"
        assert lines[1] == f"right: NAO, K(mechanical) = {k['@nao']!r} bits"
        code, out, err = run_cli(capsys, "compare", str(path), "@nao", "--json")
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert (payload["k_bits_left"], payload["k_bits_right"]) == (k[str(path)], k["@nao"])

    def test_line_feed_in_a_name_is_written_as_its_escape(self, capsys, tmp_path):
        path = tmp_path / "nl.mechx"
        path.write_text(
            'platform "new\\nline"\n'
            'processor "cpu\\nx" transistors 100\n'
            'group "servo" count 1 states 2\n',
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "compute", str(path))
        lines = out.splitlines()
        assert code == 0 and len(lines) == 11
        assert lines[0] == "platform: new\\nline"
        assert lines[9] == "processor: cpu\\nx, 100 transistors"
        code, out, _ = run_cli(capsys, "compare", str(path), str(path))
        lines = out.splitlines()
        assert code == 0 and len(lines) == 6
        assert lines[0] == "left: new\\nline, K(mechanical) = 1.0 bits"
        assert lines[1] == "right: new\\nline, K(mechanical) = 1.0 bits"
        zero = tmp_path / "zero.mechx"
        zero.write_text('platform "zero"\ngroup "g" count 3 states 1\n', encoding="utf-8")
        code, out, _ = run_cli(capsys, "compare", str(zero), str(path))
        lines = out.splitlines()
        assert code == 0 and len(lines) == 6
        assert lines[5] == "larger: new\\nline"
        # JSON keeps the name as it is.
        for argv in (("compute", str(path)), ("compare", str(path), str(path))):
            code, out, _ = run_cli(capsys, *argv, "--json")
            payload = json.loads(out)
            assert payload.get("platform", payload.get("left")) == "new\nline"


class TestDatasetList:
    def test_lists_all(self, capsys):
        code, out, err = run_cli(capsys, "dataset-list")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 29
        assert all(l.startswith("@") for l in lines)
        nao = [l for l in lines if l.endswith(" NAO")]
        assert nao == ["@nao                      artificial NAO"]


class TestPlot:
    def test_fig3_writes_files(self, capsys, tmp_path):
        out_csv = tmp_path / "fig3.csv"
        out_svg = tmp_path / "fig3.svg"
        code, out, err = run_cli(
            capsys,
            "plot",
            "--figure",
            "3",
            "--out-csv",
            str(out_csv),
            "--out-svg",
            str(out_svg),
        )
        assert code == 0
        assert "fig3_bits_vs_bits: 19 points" in out
        assert err.count("skipped") == 3
        csv_lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "label,series,x,y"
        assert len(csv_lines) == 20
        svg = out_svg.read_text(encoding="utf-8")
        assert svg.startswith("<svg ")
        assert svg.count('class="marker"') == 19

    @pytest.mark.parametrize("bad", ["--out-csv", "--out-svg"])
    def test_unwritable_output_is_data_error(self, capsys, tmp_path, bad):
        paths = {"--out-csv": str(tmp_path / "x.csv"), "--out-svg": str(tmp_path / "x.svg")}
        paths[bad] = str(tmp_path / "no-such-dir" / "x")
        argv = ["plot", "--figure", "1"] + [a for kv in paths.items() for a in kv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        # Warnings about skipped platforms come first.
        assert err.splitlines()[-1].startswith(f"error: cannot write {paths[bad]!r}: [Errno 2] ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", ["--width", "--height"])
    @pytest.mark.parametrize(
        "size, message",
        [
            ("nan", "width and height must be positive"),
            ("-1", "width and height must be positive"),
            ("inf", "width and height must be at most 1000000 px"),
            ("1e308", "width and height must be at most 1000000 px"),
        ],
        ids=["nan", "-1", "inf", "1e308"],
    )
    def test_size_out_of_range_is_data_error(self, capsys, tmp_path, option, size, message):
        out_csv, out_svg = tmp_path / "x.csv", tmp_path / "x.svg"
        code, out, err = run_cli(
            capsys, "plot", "--figure", "1", "--out-csv", str(out_csv),
            "--out-svg", str(out_svg), option, size,
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"error: {message}"
        assert not out_csv.exists() and not out_svg.exists()

    def test_figure_number_out_of_range(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "plot",
            "--figure",
            "9",
            "--out-csv",
            str(tmp_path / "x.csv"),
            "--out-svg",
            str(tmp_path / "x.svg"),
        )
        assert code == 1
        assert "usage error" in err


class TestValidate:
    def test_clean_file(self, capsys, tmp_path):
        path = tmp_path / "ok.mechx"
        path.write_text(SIMPLE_ROBOT, encoding="utf-8")
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert "ok: 'simple-robot' parsed with 1 warnings" in out

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.mechx"
        path.write_text("wibble\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "error" in err and "line 1" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "gone.mechx"))
        assert code == 2

    def test_non_finite_span_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "huge.mechx"
        path.write_text(
            'platform "a"\ngroup "g" count 1 range 0 1e400 resolution 1\n',
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: line 2: span/resolution = inf is not finite\n"


# An integer literal one past the 4300-digit limit would fail in int()
# with the interpreter's own message; each reader reports it by line.
TOO_LONG = "9" * 5000
MECHX_HEAD = 'platform "p"\n'
AEM_HEAD = "flavor computation\nstates a\nsymbols blank e\ninit a\n"


@pytest.mark.parametrize(
    "name, text, what",
    [
        ("year.mechx", f"{MECHX_HEAD}year {TOO_LONG}\n", "year"),
        ("count.mechx", f'{MECHX_HEAD}group "g" count {TOO_LONG} states 2\n', "multiplicity"),
        ("states.mechx", f'{MECHX_HEAD}group "g" count 1 states {TOO_LONG}\n', "state count"),
        ("tape.aem", f"{AEM_HEAD}tape {TOO_LONG} e\n", "cell index"),
    ],
    ids=["year", "count", "states", "tape"],
)
def test_over_long_integer_is_line_numbered_error(capsys, tmp_path, name, text, what):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    if name.endswith(".aem"):
        command = ["aem-run", str(path), "--max-steps", "1"]
    else:
        command = ["compute", str(path)]
    code, out, err = run_cli(capsys, *command)
    assert (code, out) == (2, "")
    line = text.count("\n")
    assert err == f"error: line {line}: {what} has 5000 digits, above the limit of 4300\n"


def test_integer_at_the_digit_limit_parses(capsys, tmp_path):
    path = tmp_path / "year.mechx"
    path.write_text(f'platform "p"\nyear {"9" * 4300}\n', encoding="utf-8")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert out.startswith("warning: line 1: informational:")


@pytest.mark.parametrize("transistors", ["123456789012345678901", str(2**53 + 1)])
def test_integer_transistor_count_is_exact(capsys, tmp_path, transistors):
    path = tmp_path / "p.mechx"
    path.write_text(f'platform "p"\nprocessor transistors {transistors}\n', encoding="utf-8")
    code, out, _ = run_cli(capsys, "compute", str(path))
    assert code == 0
    assert f"processor: (unnamed), {transistors} transistors" in out.splitlines()
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert "notation" not in out and out.endswith("ok: 'p' parsed with 2 warnings\n")


def test_largest_transistor_count_computes(capsys, tmp_path):
    t = int(sys.float_info.max)
    path = tmp_path / "p.mechx"
    path.write_text(f'platform "p"\nprocessor transistors {t}\n', encoding="utf-8")
    code, out, _ = run_cli(capsys, "compute", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    ctx = Context(prec=len(str(t)) + 60)
    assert payload["transistors"] == t
    assert payload["computational_bits"] == sys.float_info.max
    assert payload["computational_config_digits"] == int(ctx.multiply(Decimal(t), Decimal(2).log10(ctx))) + 1


@pytest.mark.parametrize(
    "literal, message",
    [
        (
            "1" + "0" * 400,
            "transistor count must be an integer from 0 to 1.7976931348623157e+308, "
            f"found '1{'0' * 39}'... (401 characters)",
        ),
        ("9" * 4301, "transistor count has 4301 digits, above the limit of 4300"),
    ],
    ids=["401-digits", "4301-digits"],
)
def test_out_of_range_transistor_count_exits_2(capsys, tmp_path, literal, message):
    path = tmp_path / "p.mechx"
    path.write_text(f'platform "p"\nprocessor transistors {literal}\n', encoding="utf-8")
    for command in ("compute", "validate"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out, err) == (2, "", f"error: line 2: {message}\n")


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("count.mechx", 'platform "p"\ngroup "g" count ٣ states 2\n',
         "line 2: expected multiplicity (an integer), found '٣'"),
        ("tape.aem", f"{AEM_HEAD}tape 1_0 e\n", "line 5: cell index must be an integer, got '1_0'"),
        ("tape.aem", f"{AEM_HEAD}tape ٣ e\n", "line 5: cell index must be an integer, got '٣'"),
    ],
    ids=["mechx-count", "aem-underscore", "aem-arabic-indic"],
)
def test_non_ascii_or_underscored_digits_exit_2(capsys, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    if name.endswith(".aem"):
        command = ["aem-run", str(path), "--max-steps", "1"]
    else:
        command = ["compute", str(path)]
    code, out, err = run_cli(capsys, *command)
    assert (code, out, err) == (2, "", f"error: {message}\n")


class TestAemRun:
    @pytest.fixture()
    def incrementer_file(self, tmp_path):
        path = tmp_path / "inc.aem"
        path.write_text(
            serialize_machine(INCREMENTER.machine, INCREMENTER.tape),
            encoding="utf-8",
        )
        return path

    def test_trace_output(self, capsys, incrementer_file):
        code, out, err = run_cli(
            capsys, "aem-run", str(incrementer_file), "--max-steps", "100",
            "--trace",
        )
        assert code == 0
        assert err == ""
        assert out == (
            "outcome halted\n"
            "final state=q_done head=4 steps=4 cells=[1:1 2:1 3:1 4:1]\n"
            "0 q_scan 1 1 1 R\n"
            "1 q_scan 2 1 1 R\n"
            "2 q_scan 3 1 1 R\n"
            "3 q_scan 4 e 1 S\n"
        )

    def test_no_trace(self, capsys, incrementer_file):
        code, out, _ = run_cli(
            capsys, "aem-run", str(incrementer_file), "--max-steps", "100"
        )
        assert code == 0
        assert out.splitlines()[0] == "outcome halted"
        assert len(out.splitlines()) == 2

    def test_budget_without_strict_halt(self, capsys, incrementer_file):
        code, out, _ = run_cli(
            capsys, "aem-run", str(incrementer_file), "--max-steps", "2"
        )
        assert code == 0
        assert out.startswith("outcome budget_exhausted\n")

    def test_budget_with_strict_halt(self, capsys, incrementer_file):
        code, out, err = run_cli(
            capsys, "aem-run", str(incrementer_file), "--max-steps", "2",
            "--strict-halt",
        )
        assert code == 3
        assert out.startswith("outcome budget_exhausted\n")
        assert "budget of 2 steps exhausted" in err

    def test_strict_halt_passes_when_halting(self, capsys, incrementer_file):
        code, _, _ = run_cli(
            capsys, "aem-run", str(incrementer_file), "--max-steps", "100",
            "--strict-halt",
        )
        assert code == 0

    def test_format_error(self, capsys, tmp_path):
        path = tmp_path / "bad.aem"
        path.write_text("flavor turing\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "aem-run", str(path), "--max-steps", "5")
        assert code == 2
        assert "line 1" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "aem-run", str(tmp_path / "gone.aem"), "--max-steps", "5"
        )
        assert code == 2

    def test_reader_closing_early_is_quiet(self, tmp_path):
        # `mechx aem-run ... --trace | head`: the listing is written in
        # chunks, and the chunks after the reader has gone must not end in
        # a traceback.
        path = tmp_path / "mover.aem"
        path.write_text(
            "flavor computation\nstates a\nsymbols blank b\ninit a\n"
            "rule a b -> a b R\n",
            encoding="utf-8",
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "mechx.cli", "aem-run", str(path),
             "--max-steps", "200000", "--trace"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline() == b"outcome budget_exhausted\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""


_MOVER = "flavor computation\nstates a\nsymbols blank b\ninit a\nrule a b -> a b R\n"


@pytest.fixture()
def reader_files(tmp_path):
    """Inputs for every command: a platform whose exact count has 71,127
    digits (more than one 64 KiB piece), a small platform and a machine
    that never halts."""
    (tmp_path / "big.mechx").write_text('platform "big"\ngroup "g" count 20000 states 3600\n')
    (tmp_path / "robot.mechx").write_text(SIMPLE_ROBOT)
    (tmp_path / "mover.aem").write_text(_MOVER)
    return tmp_path


@pytest.mark.parametrize(
    "argv, code",
    [
        (["dataset-list"], 0),
        (["compute", "@nao"], 0),
        (["compute", "@nao", "--json"], 0),
        (["compute", "{dir}/big.mechx", "--exact", "--json"], 0),
        (["compare", "@nao", "@cat"], 0),
        (["compare", "@nao", "@cat", "--json"], 0),
        (["validate", "{dir}/robot.mechx"], 0),
        (["plot", "--figure", "3", "--out-csv", "{dir}/f.csv", "--out-svg", "{dir}/f.svg"], 0),
        (["aem-run", "{dir}/mover.aem", "--max-steps", "20000", "--trace"], 0),
        (["aem-run", "{dir}/mover.aem", "--max-steps", "5", "--strict-halt"], 3),
    ],
    ids=[
        "dataset-list", "compute", "compute-json", "compute-exact-json", "compare",
        "compare-json", "validate", "plot", "aem-run-trace", "aem-run-strict-halt",
    ],
)
def test_a_reader_gone_before_the_start_ends_each_command_quietly(
    reader_files, argv, code
):
    # `mechx ... | true`: the first write fails, and the command still
    # exits with the code and the stderr it has with an open reader.
    def run(stdout):
        return subprocess.run(
            [sys.executable, "-m", "mechx.cli", *(a.format(dir=reader_files) for a in argv)],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
            timeout=120,
        )

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        gone = run(write_end)
    finally:
        os.close(write_end)
    open_reader = run(subprocess.PIPE)
    assert open_reader.stdout and open_reader.returncode == code
    assert (gone.returncode, gone.stderr) == (code, open_reader.stderr)


# What may follow each subcommand, most of it well formed; an argv also
# draws from the other subcommands' words and from short arbitrary text.
# Words are drawn with replacement, so options come repeated too.
_OPERANDS = {
    "compute": [
        "@nao", "@nope", "robot.mechx", "uneven.mechx", "bad.mechx", "--json",
        "--exact", "--log-space", "--mechanical-only", "--json=1",
    ],
    "compare": [
        "@nao", "@cat", "@nope", "robot.mechx", "uneven.mechx", "bad.mechx", "--json", "--json=1",
    ],
    "dataset-list": ["--help"],
    "plot": [
        "--figure", "1", "3", "5", "6", "--out-csv", "out.csv", "--out-svg", "out.svg",
        "--width", "--height", "100", "640", "0", "-1", "1e3", "nan", "inf", ".",
    ],
    "validate": ["robot.mechx", "uneven.mechx", "bad.mechx", "gone.mechx", "-"],
    "aem-run": [
        "inc.aem", "mover.aem", "bad.aem", "gone.aem", "--max-steps", "0", "1",
        "100", "2000", "--trace", "--strict-halt", "--max", "--max-steps=5", "-1",
    ],
}
_WORDS = sorted({word for words in _OPERANDS.values() for word in words} | {"--", "-h"})


def _argv(command):
    word = st.sampled_from(_OPERANDS[command])
    other = st.one_of(st.sampled_from(_WORDS), st.text(max_size=4))
    return st.lists(st.one_of(word, word, other), max_size=8).map(
        lambda rest: [command, *rest]
    )


def test_any_argv_ends_with_a_documented_exit_code(tmp_path):
    # Every argv a user can type gives exit code 0, 1, 2 or 3 and never a
    # traceback.  Arbitrary text is at most four characters, so a step
    # budget stays below 10,000.
    (tmp_path / "robot.mechx").write_text(SIMPLE_ROBOT)
    (tmp_path / "bad.mechx").write_text('platform "p"\ngroup "g" count x\n')
    (tmp_path / "uneven.mechx").write_text(
        'platform "p"\ngroup "g" count 1 range 0 1 resolution 0.3\n'
    )
    (tmp_path / "inc.aem").write_text(serialize_machine(INCREMENTER.machine, INCREMENTER.tape))
    (tmp_path / "mover.aem").write_text(_MOVER)
    (tmp_path / "bad.aem").write_text("flavor computation\nrule\n")

    @given(st.sampled_from(sorted(_OPERANDS)).flatmap(_argv))
    @settings(max_examples=300, deadline=None)
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue()

    # Relative names, and any text given as an output path, stay in tmp_path.
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        check()
    finally:
        os.chdir(cwd)


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage error" in err

    def test_missing_required_argument(self, capsys):
        code, _, err = run_cli(capsys, "compute")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "compute" in out


@st.composite
def _well_formed(draw, command):
    """An argv laid out as the command's table entry says, in any order,
    with one more word of the grammar in it half the time."""
    spec = cli._COMMANDS[command]
    words = st.sampled_from([w for w in _OPERANDS[command] if not w.startswith("-")])
    chunks = [[draw(words)] for _ in spec["positionals"]]
    for flag, kw in spec["options"].items():
        if kw.get("required") or draw(st.booleans()):
            chunks.append([flag] if "action" in kw else [flag, draw(words)])
    argv = [command, *itertools.chain.from_iterable(draw(st.permutations(chunks)))]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_WORDS)))
    return argv


def _fields(namespace) -> str:
    # repr tells 640 from 640.0 and shows nan as nan, which == cannot.
    return repr(sorted(vars(namespace).items()))


def test_matcher_agrees_with_argparse():
    # The matcher may leave any argv to argparse, but one it takes must
    # come out as argparse would make it.
    parser = cli.build_parser()
    taken = set()

    commands = st.sampled_from(sorted(_OPERANDS))

    @given(st.one_of(commands.flatmap(_argv), commands.flatmap(_well_formed)))
    @settings(max_examples=600, deadline=None)
    def check(argv):
        got = cli._match(argv)
        if got is not None:
            assert _fields(got) == _fields(parser.parse_args(argv)), argv
            taken.add(argv[0])

    check()
    assert taken == set(cli._COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["comp", "@nao"],
        ["compute", "@nao", "-h"],
        ["compute", "@nao", "--js"],
        ["compute", "@nao", "--json=1"],
        ["compute", "@nao", "--json", "--json"],
        ["compute", "--", "@nao"],
        ["compute", "@nao", "--exact", "--log-space"],
        ["compute"],
        ["compare", "@nao"],
        ["validate", "-"],
        ["plot", "--figure", "1", "--out-csv", "a"],
        ["plot", "--figure", "6", "--out-csv", "a", "--out-svg", "b"],
        ["plot", "--figure", "1", "--out-csv", "a", "--out-svg", "b", "--width", "-1"],
        ["aem-run", "m.aem", "--max", "5"],
        ["aem-run", "m.aem", "--max-steps=5"],
        ["aem-run", "m.aem", "--max-steps", "-1"],
        ["aem-run", "m.aem", "--max-steps", "x"],
        ["aem-run", "m.aem", "--max-steps"],
    ],
    ids=" ".join,
)
def test_matcher_leaves_other_spellings_to_argparse(argv):
    assert cli._match(argv) is None


@pytest.mark.parametrize("workload", ["catalog", "bigcount", "tape"])
def test_matcher_takes_every_benchmark_command(bench, workload):
    # The benchmark times the path that well-formed argv takes.
    _, gen = bench
    parser = cli.build_parser()
    for seed in (1, 2, 3):
        pool = gen.make_pool(workload, seed, sorted(specfile.DATASET_MANIFEST))
        for cmd in itertools.chain(pool.once, *pool.blocks):
            argv = [str(a) for a in cmd.argv]
            got = cli._match(argv)
            assert got is not None, argv
            assert _fields(got) == _fields(parser.parse_args(argv)), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "@nao"],
        ["dataset-list"],
        ["plot", "--figure", "1", "--out-csv", "f.csv", "--out-svg", "f.svg"],
    ],
    ids=lambda argv: argv[0],
)
def test_corrupt_bundled_dataset_exits_2(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(specfile, "_documents", {})
    monkeypatch.setattr(specfile, "_read_data_file", lambda stem: 'platform "p"\ngroup\n')
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: bundled dataset corrupt: [a-z0-9-]+\.mechx: line 2: .+\n", err)
    assert not list(tmp_path.iterdir())
