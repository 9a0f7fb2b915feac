import gc
import hashlib
import io
import json
import math

import pytest

from flowring import cli
from flowring.bell import partitions
from flowring.cli import main
from flowring.expr import series_from_text
from flowring.flow import flow_series
from flowring.scalars import Domain, parse_scalar


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of exit code, stdout and stderr of fixed runs, pinning bit-exact
# output: any change to a printed coefficient or message changes them.
GOLDEN = {
    "series-quartic-n64": (
        ["series", "--field", "-7/3 + 5/4*x - 11/6*x^2 + 3/10*x^3 - 13/9*x^4",
         "--order-x", "64", "--order-t", "64", "--format", "json"],
        0, "0ba3e6d397f0e3750da3f9ff13019ace74a0c2034886c56734f6af05a91d395b",
    ),
    "flow-gaussian-n24": (
        ["flow", "--field", "1/2 + i*x - 2/3*x^2 + exp(i*x)", "--domain", "gaussian",
         "--order-x", "24", "--order-t", "12"],
        0, "289d0dca96f78ee0a878bab69dd2667bbf2042b8389974b5ff6850d853dddf7a",
    ),
    # eval on each catalog kind, in both formats
    "eval-affine-text": (
        ["eval", "--field=3/2", "--x=0.25", "--t=0.5"],
        0, "af3eed13c850625b50d9b79a43ed2bf2aeab52e24be30cd78a0fbb5d40d32491",
    ),
    "eval-affine-json": (
        ["eval", "--field=3/2", "--x=0.25", "--t=0.5", "--format=json"],
        0, "a19fb9bbd1ab15c5dd16f926688865e9d00082c819d0077530620b18f19dd5c3",
    ),
    "eval-exponential-text": (
        ["eval", "--field=1-2*x", "--x=0.25", "--t=0.5"],
        0, "28f77cc58e71e349293055a26c9082742ff3c0788ab1abca3cb1124ba9c5d3b0",
    ),
    "eval-exponential-json": (
        ["eval", "--field=1-2*x", "--x=0.25", "--t=0.5", "--format=json"],
        0, "6e5d4ff9148c27310d5481bfb6828e5859abe29b9d152b4b2f89f8929db18de1",
    ),
    "eval-power-text": (
        ["eval", "--field=3/2*x^3", "--x=0.5", "--t=0.25"],
        0, "bb2b944ae3e6b84c88d9c9ecff949de085cca7acc068038fc71c570541cfccc8",
    ),
    "eval-power-json": (
        ["eval", "--field=3/2*x^3", "--x=0.5", "--t=0.25", "--format=json"],
        0, "0b92e1ebd8b0801ddfd19ad10f076b88ff4aa2362af81f22c6c7e5ae3ef62e93",
    ),
    "eval-expfield-text": (
        ["eval", "--field=exp(-1/2*x)", "--x=0.5", "--t=0.25"],
        0, "ba34e9d864989dac1c714846506453ae36e76a97c55466a0a5369cd8a37bd3d1",
    ),
    "eval-expfield-json": (
        ["eval", "--field=exp(-1/2*x)", "--x=0.5", "--t=0.25", "--format=json"],
        0, "21212231f8e0f770c2cdcb43ad81c67f749a6fdbb82eb179944d6ef6205ec06e",
    ),
    "eval-quadratic-text": (
        ["eval", "--field=x^2-x+1", "--x=0.5", "--t=0.25"],
        0, "d292c7cb283c30e26343147585f894248b1b97a82a065a86d3d922e679c442cc",
    ),
    "eval-quadratic-json": (
        ["eval", "--field=x^2-x+1", "--x=0.5", "--t=0.25", "--format=json"],
        0, "603c0c7b2d7375e2ec50424af91e740e3981e923585ba627e2c663ee404d3d1b",
    ),
    # monomials of high degree and the zero field
    "eval-monomial-x60": (
        ["eval", "--field=x^60", "--x=0.9", "--t=0.1"],
        0, "521394ec486d3231c166bbf3243cef4f1fafa3e8af1fcde22158506ec051f70f",
    ),
    "eval-monomial-x300000": (
        ["eval", "--field=x^300000", "--x=0.1", "--t=0.01"],
        0, "839485a6971b27c4741ddd72ec6b0f8e8dc0e3b3b79f87f862b253eaea92f814",
    ),
    "eval-zero-field": (
        ["eval", "--field=0", "--x=0.5", "--t=2"],
        0, "443c3d56323b6d13b11ebaf664d0cf3592d72753095856d501c4a3ad38a41dc1",
    ),
    "eval-gaussian-exp-ix": (
        ["eval", "--field=exp(i*x)", "--domain=gaussian", "--x=0.5", "--t=0.25",
         "--order-x=24", "--order-t=12"],
        0, "50c6a05638d7a67fa4078024502c628309f9e3a1e00e1eb3b54488e02a1db8ee",
    ),
    # one reject per documented error exit code
    "reject-parse-exit-1": (
        ["eval", "--field=x^^2", "--x=0.5", "--t=0.25"],
        1, "cd65fb7d1f3579342a8fd4b0431a13c97b7aa0220651e97acd2db0f37899deab",
    ),
    "reject-domain-exit-2": (
        ["series", "--field=i*x"],
        2, "86c513970359062205ec6848e7dcc229f921a708794ab81f0edec64355036985",
    ),
    "reject-usage-exit-3": (
        ["series", "--field=x", "--order-x=99"],
        3, "1e69c0a9e079af13aa85a3bd36e9fd16ef1c1886c1bf1770062fd1e56fa3f9bc",
    ),
    # non-finite values in eval are domain errors
    "eval-sin-infinite-argument": (
        ["eval", "--field=x+sin(10^308*x)", "--x=10", "--t=0.01"],
        2, "04b4d369e1e180f6936217e23359f54880e40b16210034e55ddceb98f907793d",
    ),
    "eval-sin-nonfinite-series": (
        ["eval", "--field=x+sin(10^300*x)", "--x=10", "--t=0.01"],
        2, "6eed15efdb408c62bb9cd8ac1614f0a0caf6bb1e4e9feb3c1cb8183b12034a06",
    ),
    # decompose in both modes, both formats and the Gaussian domain
    "decompose-sum-text": (
        ["decompose", "--mode=sum", "--part=1", "--part=-x", "--part=x^2", "--part=-x^3",
         "--order-x=10", "--order-t=6"],
        0, "cc15d123efb26f82b876495e6395f6067e463c9add05ca5cecc5d425db83107f",
    ),
    "decompose-sum-json": (
        ["decompose", "--mode=sum", "--part=1", "--part=-x", "--part=x^2",
         "--order-x=10", "--order-t=6", "--format=json"],
        0, "e988c2c66660759673b8607afdb7d2906f17d48e0f949421cdec1a458b85c1b5",
    ),
    "decompose-product-text": (
        ["decompose", "--mode=product", "--part=1-x", "--part=x^2+1",
         "--order-x=10", "--order-t=5"],
        0, "1d35dd26452e5fa865eaaee047b972faf63a3bed7cb413a1f55986c197b9de4c",
    ),
    "decompose-product-json": (
        ["decompose", "--mode=product", "--part=1-x", "--part=x^2+1",
         "--order-x=10", "--order-t=5", "--format=json"],
        0, "fb1739837fc717a252ab41a2e0371edd63439c937728cee65e674534422cedfb",
    ),
    "decompose-gaussian": (
        ["decompose", "--mode=sum", "--part=exp(i*x)", "--part=-1/2*i*x", "--domain=gaussian",
         "--order-x=10", "--order-t=5"],
        0, "fcc587f22d1a16365c8e8d0510a4b779273023591d14a2e3d588fd75bea661b0",
    ),
    # decompose's order flags and its required --part
    "decompose-without-part": (
        ["decompose", "--mode=sum"],
        3, "4fd253eb88d10ad7c304b2a6901dbf25bfd33f8f82a273e9cb817e83d4a37c4d",
    ),
    "decompose-order-x-99": (
        ["decompose", "--mode=sum", "--part=x", "--order-x=99"],
        3, "1e69c0a9e079af13aa85a3bd36e9fd16ef1c1886c1bf1770062fd1e56fa3f9bc",
    ),
    "decompose-order-t-above-order-x": (
        ["decompose", "--mode=sum", "--part=x", "--order-x=4", "--order-t=5"],
        3, "7f63af4fdf65b325673d3b67b32b5641831ed4268e4818d8d05b21c924ebac41",
    ),
    # one usage error from each exception class that main reports with exit 3
    "usage-error-flag-value": (
        ["eval", "--field=x", "--x=0.1", "--t=abc"],
        3, "41420389bbb98e46f7705d5de459d278de5da0c3746ccbae089411f67b234d83",
    ),
    "usage-error-scalar-literal": (
        ["bell-debug", "--n", "2", "--b", "1,y", "--a", "1,1"],
        3, "22d1aa00b6776ca097d9fe4384aba2b8222ed7e7e3e1f8982ff08d5c57ee0242",
    ),
    "usage-error-out-of-range": (
        ["bell-debug", "--n", "0", "--b", "1", "--a", "1"],
        3, "7afc2da938e5b9aeff87f6a0066df44d9ea76085534f589737480b0485e1cf34",
    ),
    # a Gaussian scalar in the rational domain, even one with zero imaginary part
    "series-gaussian-scale-in-rational-domain": (
        ["series", "--field=exp((1+i-i)*x)"],
        2, "86c513970359062205ec6848e7dcc229f921a708794ab81f0edec64355036985",
    ),
    # "2/3" lexes as the exponent; the message says how to divide instead
    "series-exponent-written-as-division": (
        ["series", "--field=x^2/3"],
        1, "9d9f7912f59748c2afa8e399be2dff9589eb1e76c55a7204c4fa51f355052f17",
    ),
    # any exponent written with "/" is rejected, also one whose quotient is an integer
    "series-exponent-division-reducing-to-an-integer": (
        ["series", "--field=x^4/2"],
        1, "bef22466e8cdec0f2f106ca4890d68648f5bc0e362f98864ba20d222505f2411",
    ),
    "series-zero-exponent-written-as-division": (
        ["series", "--field=x^0/3"],
        1, "d181f274d522325a01ea3a8dec16d7eca19091070d64e025e2a215dcb1464f66",
    ),
    # a number token is named by its lexeme, "token 2"
    "series-unexpected-number-token": (
        ["series", "--field=exp 2"],
        1, "ef3aba3ac12cc5102022c341255a4d58d014b4c032d064848578eff2e66ff017",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_digests(name):
    argv, expected_code, digest = GOLDEN[name]
    code, out, err = run_cli(*argv)
    assert code == expected_code
    assert _sha256(f"{code}\n{out}\0{err}") == digest


GARBAGE_FREE_RUNS = [
    ["series", "--field=x^2-1/3*x", "--order-x=10", "--order-t=5", "--format=json"],
    ["flow", "--field=exp(i*x)", "--domain=gaussian", "--order-x=8", "--order-t=4",
     "--format=json"],
    ["eval", "--field=x^2+1", "--x=0.2", "--t=0.3", "--format=json"],
    ["eval", "--field=-x^3", "--x=0.5", "--t=0.1", "--format=json"],
    ["decompose", "--mode=product", "--part=x", "--part=1+x", "--order-x=8", "--order-t=4",
     "--format=json"],
    ["verify", "--seed=1", "--format=json"],
]


def test_runs_leave_no_cyclic_garbage():
    """Memory of a long run must not wait for the cyclic collector."""
    for argv in GARBAGE_FREE_RUNS:  # first runs fill caches such as the parser
        run_cli(*argv)
    gc.collect()
    gc.disable()
    try:
        for argv in GARBAGE_FREE_RUNS:
            code, _, _ = run_cli(*argv)
            assert code == 0
        assert len(partitions(12)) == 77
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_series_text_output():
    code, out, err = run_cli("series", "--field", "x^2", "--order-t", "4")
    assert code == 0 and not err
    lines = out.splitlines()
    assert lines[0].startswith("field:")
    assert lines[1].startswith("A[0]: 0 1 0")
    assert lines[3].split()[:5] == ["A[2]:", "0", "0", "0", "12"]
    assert len(lines) == 6


def test_flow_rows_match_monomial_coefficients():
    code, out, _ = run_cli("flow", "--field", "x^2", "--order-t", "4", "--order-x", "8")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("t[")]
    # A_n(x^2) = n! x^(n+1): EGF entry n!*(n+1)! at index n+1
    for n, row in enumerate(rows[1:], start=1):
        values = row.split()[1:]
        assert values[n + 1] == str(math.factorial(n) * math.factorial(n + 1))


def test_flow_json_round_trips_bit_exactly():
    code, out, _ = run_cli(
        "flow", "--field", "exp(i*x)", "--domain", "gaussian",
        "--order-x", "8", "--order-t", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    reference = flow_series(series_from_text("exp(i*x)", 8, Domain.GAUSSIAN), 4)
    assert list(payload) == ["field", "orderT", "tcoeffs"]
    assert payload["tcoeffs"] == reference.to_json_dict()["terms"]
    assert payload["orderT"] == 4
    printed = [payload["field"], *payload["tcoeffs"]]
    for entry, series in zip(printed, [reference.field, *reference.terms], strict=True):
        assert entry["domain"] == "gaussian" and entry["orderX"] == series.order
        assert [parse_scalar(c, Domain.GAUSSIAN) for c in entry["coeffs"]] == list(series.coeffs)


def test_eval_reports_closed_form_and_rk4():
    code, out, _ = run_cli("eval", "--field", "x^2+1", "--x", "0", "--t", "0.3")
    assert code == 0
    lines = dict(
        line.split(" = ", 1) for line in out.splitlines() if " = " in line
    )
    series_value = float(lines["series"])
    closed_value = float(lines["closed_form"].split()[0])
    rk4_value = float(lines["rk4"])
    assert abs(series_value - math.tan(0.3)) < 1e-7
    assert abs(closed_value - math.tan(0.3)) < 1e-12
    assert abs(rk4_value - math.tan(0.3)) < 1e-9


def test_eval_json_format():
    code, out, _ = run_cli(
        "eval", "--field", "x^2", "--x", "0.1", "--t", "0.5", "--format", "json",
        "--order-x", "41", "--order-t", "16",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["series"] - 0.1 / 0.95) < 1e-10
    assert abs(payload["closed_form"] - 0.1 / 0.95) < 1e-12
    assert payload["closed_form_kind"]["kind"] == "power"


def test_decompose_text_verdict():
    code, out, _ = run_cli(
        "decompose", "--mode", "sum",
        "--part", "1", "--part=-x", "--part", "x^2", "--part=-x^3",
        "--order-t", "6",
    )
    assert code == 0
    assert "combined equals the direct flow: PASS" in out
    assert "component[3]:" in out


def test_decompose_product_json():
    code, out, _ = run_cli(
        "decompose", "--mode", "product", "--part", "1-x", "--part", "x^2+1",
        "--order-t", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_direct"] is True
    assert len(payload["components"]) == 2


def test_bell_debug():
    code, out, _ = run_cli("bell-debug", "--n", "3", "--b", "1,1,1", "--a", "1,1,1")
    assert code == 0
    assert out.strip() == "Y_3 = 5"


def test_rk4_debug_hidden_command():
    code, out, _ = run_cli("rk4-debug", "--field", "x", "--x", "1", "--t", "0.5")
    assert code == 0
    assert "y(0.5)" in out


def test_exit_code_parse_error():
    code, _, err = run_cli("series", "--field", "x^^2")
    assert code == 1
    assert "parse error" in err


def test_exit_code_domain_errors():
    code, _, err = run_cli("series", "--field", "i*x")
    assert code == 2 and "domain error" in err
    code, _, err = run_cli("series", "--field", "exp(x^2)")
    assert code == 2
    code, _, err = run_cli("series", "--field", "x", "--order-x", "4", "--order-t", "4")
    assert code == 0
    code, _, err = run_cli("flow", "--field", "x", "--order-x", "2", "--order-t", "2")
    assert code == 0


def test_exit_code_usage_errors():
    code, _, err = run_cli("series", "--field", "x", "--order-x", "99")
    assert code == 3 and "usage error" in err
    code, _, err = run_cli("series", "--field", "x", "--order-t", "20", "--order-x", "16")
    assert code == 3
    code, _, err = run_cli("series", "--field", "x", "--bogus-flag", "1")
    assert code == 3
    code, _, err = run_cli("bogus-command")
    assert code == 3
    code, _, err = run_cli("bell-debug", "--n", "70", "--b", "1", "--a", "1")
    assert code == 3
    code, _, err = run_cli("decompose", "--mode", "sum", "--part", "-x")
    assert code == 3 and "expected one argument" in err


_BEYOND_DOUBLE = "1" + "0" * 310


@pytest.mark.parametrize("field, x, t", [
    ("x^2000", "2", "0.01"),
    ("10^300*x", "0.1", "0.5"),
    ("(10^200)^2*x", "0.1", "0.5"),
    (f"x^3+x^2+{_BEYOND_DOUBLE}", "0.1", "0.01"),
    (f"x+cos({_BEYOND_DOUBLE}*x)", "0.1", "0.01"),
    (f"x^3+exp({_BEYOND_DOUBLE}*x)", "0.1", "0.01"),
    ("x+sin(10^308*x)", "10", "0.01"),
    ("x+sin(10^300*x)", "10", "0.01"),
], ids=["closed-form-power", "closed-form-exp", "closed-form-param", "rk4-constant",
        "rk4-cos-scale", "rk4-exp-scale", "rk4-sin-infinite-argument", "series-not-finite"])
def test_eval_overflow_is_a_domain_error(field, x, t):
    code, _, err = run_cli("eval", f"--field={field}", f"--x={x}", f"--t={t}")
    assert code == 2
    assert err.startswith("domain error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_main_builds_the_parser_once():
    cli._build_parser.cache_clear()
    run_cli("series", "--field=x", "--order-x=2", "--order-t=1")
    run_cli("flow", "--field=x", "--order-x=2", "--order-t=1")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_shared_parser_keeps_no_state_between_calls():
    cli._build_parser.cache_clear()
    usage = ["series", "--field=x", "--order-x", "1/2"]
    code, _, first_err = run_cli(*usage)
    assert code == 3
    code, out, _ = run_cli("decompose", "--mode=sum", "--part=x", "--part=1", "--order-x=4",
                           "--order-t=2")
    assert code == 0 and out.startswith("mode: sum with 2 part(s)")
    code, out, _ = run_cli("decompose", "--mode=sum", "--part=x^2", "--order-x=4", "--order-t=2")
    assert code == 0 and out.startswith("mode: sum with 1 part(s)")
    assert run_cli(*usage) == (3, "", first_err)


@pytest.mark.parametrize("command, flag", [
    ("series", "--field=-x"), ("flow", "--field=-x"), ("eval", "--field=-x"),
    ("decompose", "--part=-x"),
])
def test_help_shows_how_to_pass_a_leading_minus(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert flag in " ".join(capsys.readouterr().out.split())


def test_decompose_help_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert _sha256(out) == "a6e32b69c591c050c2a44101da3d13a550b22254cf2105c9c3435f44edc0a68a"


def test_verify_command_passes():
    code, out, _ = run_cli("verify", "--seed", "7")
    assert code == 0
    assert "RESULT:" in out
    assert "FAIL" not in out
    assert _sha256(out) == "1ec24a144c766f7ffb1241910a612896f8d871ed13e8fee09d684feafb4b6fd1"


def test_verify_json_format(monkeypatch):
    from flowring import cli
    from flowring.verify import CheckOutcome

    monkeypatch.setattr(
        cli, "run_suite", lambda seed: [CheckOutcome("demo", True, "ok")]
    )
    code, out, _ = run_cli("verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"name": "demo", "passed": True, "detail": "ok"}]


def test_verify_failure_exit_code(monkeypatch):
    from flowring import cli
    from flowring.verify import CheckOutcome

    monkeypatch.setattr(
        cli, "run_suite", lambda seed: [CheckOutcome("demo", False, "broken")]
    )
    code, out, _ = run_cli("verify")
    assert code == 4
    assert "FAIL demo" in out
