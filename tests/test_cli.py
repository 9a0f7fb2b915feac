import contextlib
import gc
import hashlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flowring import cli
from flowring.autonomous import autonomous_sequence
from flowring.bell import partitions
from flowring.cli import main
from flowring.expr import parse, series_from_text
from flowring.flow import flow_series, match_closed_form
from flowring.scalars import Domain, format_scalar, parse_scalar


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv), out=out, err=err)
        except SystemExit as exc:  # --help prints through argparse, then exits
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


_BEYOND_DOUBLE = "1" + "0" * 310

# The golden corpus: SHA-256 of exit code, stdout and stderr of fixed runs,
# pinning bit-exact output, so any change to a printed coefficient or message
# changes them. A digest is taken when its entry is added. A change that keeps
# every output changes no entry; one that changes an output on purpose retakes
# only the entries it changes, and says which.
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
    # --help of the program and of every command, at COLUMNS=80
    "help-program": (
        ["--help"],
        0, "520b8e81b5f89192123cbfe08a8da73b3d70e3fd93986f57e8852b3c5bd590a5",
    ),
    "help-series": (
        ["series", "--help"],
        0, "3df4bac0d7a84707a97fc2ce5934e9e262ca915d0fe79652bd614697e3b00347",
    ),
    "help-flow": (
        ["flow", "--help"],
        0, "08cd2bc96fed7ab1a300f89464d345a1e9ba7c69010e70357cddc2999fa1ae99",
    ),
    "help-eval": (
        ["eval", "--help"],
        0, "16358063d4fdf793ed6188f165fb50c9629b2847f5aec4d374a6d022d3b71cd5",
    ),
    "help-decompose": (
        ["decompose", "--help"],
        0, "e8b664f461e11cca01d7fda151e9343fb043c6a0021a94d6d908cdd2da28fbc6",
    ),
    "help-verify": (
        ["verify", "--help"],
        0, "367bc2e4a1a062ce419a2cbf05247d96f1068aef4cdd6568196115ea49a8d8bb",
    ),
    "help-bell-debug": (
        ["bell-debug", "--help"],
        0, "7634677bedcb91d4e20e6d083a5638ac70bab07c722a5ba90517358bd458632c",
    ),
    "help-rk4-debug": (
        ["rk4-debug", "--help"],
        3, "7f08842b23ce98c5c013c1a4e8813750b959380c47e22930ab4918fc38abd30d",
    ),
    "no-command": ([], 3, "3f06c66bbbffdb3096ad378db2237dd331f4ab98bdaa8bccf737071a7be40108"),
    # series and flow in both formats and both domains
    "series-x-text": (
        ["series", "--field=x"],
        0, "ddcf9be2154c39aac494cd6ec58eec4dbd64721ab06d8c71071f656d6a54a712",
    ),
    "series-x-json": (
        ["series", "--field=x", "--format=json"],
        0, "48e9e045d5e2b62edfa311b42b506776a29319b488af04cbd5824326253e06fd",
    ),
    "series-default-orders": (
        ["series", "--field=1+x^2"],
        0, "2323a491d539f26c66305e725fafba643fc0645be289c7d1d76f5e92283e23cc",
    ),
    "series-leading-minus-text": (
        ["series", "--field=-x", "--order-x=6", "--order-t=3"],
        0, "0c5b62cb3fc853b244174d1267a579c7b0a7b80f31eb157ee1df9131c08a95e4",
    ),
    "series-leading-minus-json": (
        ["series", "--field=-x^2+1/3", "--order-x=6", "--order-t=3", "--format=json"],
        0, "c4f6cf8cd4b7b211ada6e49c3622a3c5a89cbdc16fa6a5713df6014f9225e97e",
    ),
    "series-constant": (
        ["series", "--field=3/2", "--order-x=4", "--order-t=2"],
        0, "ffe11862b291cdf51bf1f4669ea1b663aecbcebfec5e558358cc02697acefa63",
    ),
    "series-zero-field": (
        ["series", "--field=0", "--order-x=4", "--order-t=2"],
        0, "a227b497e96f1224a391babe9555ad522929ca07a5032d4087bdfcc11428f83f",
    ),
    "series-smallest-orders": (
        ["series", "--field=x^2", "--order-x=1", "--order-t=1"],
        0, "dfefd1375fd47d9b306343b1e66a03ec142bfaa438e6f7def8d7ce781608b1d9",
    ),
    "series-order-t-equals-order-x": (
        ["series", "--field=x^2-x", "--order-x=6", "--order-t=6"],
        0, "bd62a982a71eaf3bc186722fa21f9a59d62b912305017433fe75673dca89d560",
    ),
    "series-exp-sin-cos": (
        ["series", "--field=exp(x)+sin(2*x)-cos(-1/2*x)", "--order-x=8", "--order-t=4"],
        0, "5682fc5505c52a811bf646a24537228443cf58372501ac1ec3d2415ff54f1164",
    ),
    "series-power-of-a-sum": (
        ["series", "--field=(1+x)^5", "--order-x=8", "--order-t=3"],
        0, "7b601c321d32136577719691defbe0172b5b1767aea27895f32609868867ad42",
    ),
    "series-adjacency-multiplies": (
        ["series", "--field=2x(x+1)", "--order-x=6", "--order-t=3"],
        0, "93eef78e439646028301e8f4f85d3916ac3dd2ab2c6a1a790959985fc00a0df7",
    ),
    "series-whitespace": (
        ["series", "--field= x ^ 2 + 1 ", "--order-x=4", "--order-t=2"],
        0, "1ed2698149cfd090708accc6ba2fa1b586823d3051063db5583229141a2e11df",
    ),
    "series-gaussian-one-minus-ix": (
        ["series", "--domain=gaussian", "--field=1-i*x", "--order-x=4", "--order-t=2"],
        0, "551ef8ed299da876fcc218c9ad61795c34b9f2b3d7a6c34626f6de2ae8fde405",
    ),
    "series-gaussian-one-minus-ix-json": (
        ["series", "--domain=gaussian", "--field=1-i*x", "--order-x=4", "--order-t=2",
         "--format=json"],
        0, "e52589c2ff7bec8076f24f5d132db14780d1fb43dafce8aa8de586407678c42c",
    ),
    "series-gaussian-adjacent-ix": (
        ["series", "--domain=gaussian", "--field=ix^2-1/2", "--order-x=5", "--order-t=3"],
        0, "d71f831a3b3f91ab6f31e4f4133bd97e0b13704939acd1149c906a89cadba337",
    ),
    # a rational minus a Gaussian scalar, in _poly: GaussianRational.__rsub__
    "series-gaussian-scale-of-a-difference": (
        ["series", "--domain=gaussian", "--field=exp(x-i*x)", "--order-x=4", "--order-t=2"],
        0, "9701a88e85b59cfef1f911c9726dc0e7a6925eb37074553d1f69e66d44f72d17",
    ),
    "eval-gaussian-field-through-i-squared": (
        ["eval", "--domain=gaussian", "--field=1-i*i*x", "--x=0.1", "--t=0.1"],
        0, "939944d2e7d6662e3163fd609c7d91401852bcce2e257cfd90c42facaecb9d6a",
    ),
    "series-gaussian-real-field": (
        ["series", "--domain=gaussian", "--field=x^2+1", "--order-x=5", "--order-t=3"],
        0, "2027090a1e7d6f5053dfae29cb92798307e7a246ec1839d12b570e4926baf77e",
    ),
    "series-gaussian-trig": (
        ["series", "--domain=gaussian", "--field=sin(i*x)+cos(1/2*i*x)", "--order-x=6",
         "--order-t=3", "--format=json"],
        0, "7702bbd4e62ce3219925124198a1ebd76d5da656ead3fc15f776f126a12c6b28",
    ),
    "series-monomial-x3000000": (
        ["series", "--field=x^3000000", "--order-x=8", "--order-t=4"],
        0, "946cf70f31b06b40f24f3fc61ba4653ccd76f6dbfac4ae3f5044278003cf652f",
    ),
    "flow-text": (
        ["flow", "--field=x^2", "--order-x=8", "--order-t=4"],
        0, "584186e35ba56cdeb15141d60b25f5752816bcb5124f11f7fda0e5d25a043f97",
    ),
    "flow-json": (
        ["flow", "--field=1-x", "--order-x=6", "--order-t=3", "--format=json"],
        0, "cd3465b3b541019347b3a9720c8d6cd3d82025012a1bbd1772ac7fcb4f73c306",
    ),
    "flow-leading-minus": (
        ["flow", "--field=-x^3", "--order-x=6", "--order-t=3"],
        0, "d93467a8577728719e0709357f1d942804b910d6b3d34e737f558bad80843bae",
    ),
    "flow-gaussian-json": (
        ["flow", "--field=exp(i*x)", "--domain=gaussian", "--order-x=8", "--order-t=4",
         "--format=json"],
        0, "c12f661e2015af228f2b64847505a84ea91842d2a323a8788d9a972b963c6249",
    ),
    # eval beyond the catalog, in the Gaussian domain, and at large exponents
    "eval-not-in-catalog-text": (
        ["eval", "--field=x^3+x", "--x=0.2", "--t=0.1"],
        0, "93453e93cda8bcee827a60d3b1d399ee4d1dd36c21fac9acfc52f0f650a5ac97",
    ),
    "eval-exp-plus-sin-json": (
        ["eval", "--field=exp(1/2*x)+sin(-1/2*x)", "--x=0.1", "--t=0.2", "--format=json"],
        0, "823d1641ab1077acfeac1a940dfebf84b5cae4b30b5410d77808c8c5d4e539f6",
    ),
    "eval-leading-minus": (
        ["eval", "--field=-x", "--x=1", "--t=0.5"],
        0, "230c35da617ed369da0afd7023e0a5bd9558e952dbddbbede352abee61f41b3f",
    ),
    "eval-gaussian-complex-json": (
        ["eval", "--field=exp(i*x)", "--domain=gaussian", "--x=0.5", "--t=0.25",
         "--order-x=24", "--order-t=12", "--format=json"],
        0, "1b7814306cb9c1884d195b0454115c261670c4cd4d5408f5a5b901305cee480f",
    ),
    "eval-gaussian-complex-field": (
        ["eval", "--field=i*x", "--domain=gaussian", "--x=0.1", "--t=0.1"],
        0, "2ed5d528d530b994dd74f4fedec33d3f7847e1a29afda5a8c2269dc491d25a7b",
    ),
    "eval-gaussian-real-field": (
        ["eval", "--field=x^2+1", "--domain=gaussian", "--x=0.1", "--t=0.2"],
        0, "95d5d1e93f202cdedfd47522c575dad3cbf0913402aeb0afe97d6a26a284f5a7",
    ),
    "eval-monomial-x30000": (
        ["eval", "--field=x^30000", "--x=0.1", "--t=0.01"],
        0, "bd928ee5269a85d1bd42db5732cc04ccd8978d8fdfa362efbc6c222009b1c967",
    ),
    "eval-monomial-x3000000": (
        ["eval", "--field=x^3000000", "--x=0.1", "--t=0.01"],
        0, "2cbf42e01911c93d6abaf1881f2909873482ea78cc426fb982af4ddf91163035",
    ),
    # fields on which |series - rk4| exceeds 1e-5: the truncation error at N = 16, M = 12
    "eval-truncation-gap-quintic": (
        ["eval", "--field=x^5+2*x^4+x^3+2*x^2+x+2", "--x=0.1691", "--t=0.1464",
         "--order-x=16", "--order-t=12", "--format=json"],
        0, "28ab12c02d43642186bf369d33bdfea3d1e8b8012e0a7287ff895d597ccf5f8c",
    ),
    "eval-truncation-gap-half-quintic-a": (
        ["eval", "--field=x^5+2*x^4+1/2*x^3+2*x^2+1/2*x+2", "--x=0.1999", "--t=0.14",
         "--order-x=16", "--order-t=12", "--format=json"],
        0, "ae8eafac6270f9ff0c503de5054ac0aaa15b16058bf0a62feb20be79878aa19e",
    ),
    "eval-truncation-gap-half-quintic-b": (
        ["eval", "--field=x^5+2*x^4+1/2*x^3+2*x^2+1/2*x+2", "--x=0.1927", "--t=0.145",
         "--order-x=16", "--order-t=12", "--format=json"],
        0, "196c9917c3d6b39c312f6a81d8ab45e8acb16a32e147c2443eca4ea8b58009f0",
    ),
    # eval's RK4 takes 512 steps, which no flag changes
    "eval-steps-64": (
        ["eval", "--field=x", "--x=0.1", "--t=0.1", "--steps=64"],
        3, "d241b45073b208cde9b21d0925a621657582b5cca6087b39a41af30dcf618549",
    ),
    "eval-steps-8": (
        ["eval", "--field=x", "--x=0.1", "--t=0.1", "--steps=8"],
        3, "69d2b2975f3101c52f6c9e0cdce3dddbe7298646b744896405e8599a222fb7b4",
    ),
    # values beyond the double range, and points that are not finite, exit 2
    "eval-overflow-closed-form-power": (
        ["eval", "--field=x^2000", "--x=2", "--t=0.01"],
        2, "5b56b868ad510ead3b94b769ca1bd3b7c06660801875d3122f778b78e6adecbc",
    ),
    "eval-overflow-closed-form-exp": (
        ["eval", "--field=10^300*x", "--x=0.1", "--t=0.5"],
        2, "691e7482f9e7384564acf916c6f2188875456a1660923572675526cb327996a8",
    ),
    "eval-overflow-closed-form-param": (
        ["eval", "--field=(10^200)^2*x", "--x=0.1", "--t=0.5"],
        2, "691e7482f9e7384564acf916c6f2188875456a1660923572675526cb327996a8",
    ),
    "eval-overflow-rk4-constant": (
        ["eval", f"--field=x^3+x^2+{_BEYOND_DOUBLE}", "--x=0.1", "--t=0.01"],
        2, "4a7e68e56b8a94fc4835938c7f01a15c0e584fab0543f434c1f9ad5934e4b083",
    ),
    "eval-overflow-rk4-cos-scale": (
        ["eval", f"--field=x+cos({_BEYOND_DOUBLE}*x)", "--x=0.1", "--t=0.01"],
        2, "4a7e68e56b8a94fc4835938c7f01a15c0e584fab0543f434c1f9ad5934e4b083",
    ),
    "eval-overflow-rk4-exp-scale": (
        ["eval", f"--field=x^3+exp({_BEYOND_DOUBLE}*x)", "--x=0.1", "--t=0.01"],
        2, "4a7e68e56b8a94fc4835938c7f01a15c0e584fab0543f434c1f9ad5934e4b083",
    ),
    "eval-overflow-closed-form-time": (
        ["eval", "--field=x", "--x=0.1", "--t=1e308"],
        2, "0401e7781915ef55ad220afa51c4e6d2fb35aa501c0962384c7f05d5f2a9aa0a",
    ),
    "eval-point-nan": (
        ["eval", "--field=x", "--x=nan", "--t=0.1"],
        2, "69b11ad7c5cfba2fe9ac3d2a3681b764358354e54ededdc4fb7c71049007f511",
    ),
    "eval-point-inf": (
        ["eval", "--field=x", "--x=inf", "--t=0.1"],
        2, "69b11ad7c5cfba2fe9ac3d2a3681b764358354e54ededdc4fb7c71049007f511",
    ),
    "eval-point-beyond-closed-form": (
        ["eval", "--field=x^2", "--x=3", "--t=2"],
        2, "4bb0110b193b77756b68d50cef06385dfcd1ec321e6f3557beff0d37469c7772",
    ),
    "eval-missing-x": (
        ["eval", "--field=x", "--t=0.1"],
        3, "7b1044c1343c08101e7dcb60aa98a038e53abd6afdc087a99aec0c0bdb6ab54c",
    ),
    # decompose: the sum of x and x^2 passes because both sides fold the field (an open defect)
    "decompose-sum-x-and-x-squared": (
        ["decompose", "--mode=sum", "--part=x", "--part=x^2", "--order-x=6", "--order-t=3"],
        0, "7620ac55e7194f873323150882377d95a272fc609217419bb612e6a0f28f334e",
    ),
    "decompose-product-gaussian-json": (
        ["decompose", "--mode=product", "--part=1+i*x", "--part=x", "--domain=gaussian",
         "--order-x=6", "--order-t=3", "--format=json"],
        0, "f1a2da4a95e22ce89d8038d53396c6b9cebd363c79f9aeb58ad7ecd3524f37f0",
    ),
    "decompose-unknown-mode": (
        ["decompose", "--mode=diff", "--part=x"],
        3, "b7d1c83c3f32bfa1e18b5ca9455a3c58cd52ba5ff9b9f663b1a70c563769725e",
    ),
    "decompose-parse-error": (
        ["decompose", "--mode=sum", "--part=x^^2"],
        1, "cd65fb7d1f3579342a8fd4b0431a13c97b7aa0220651e97acd2db0f37899deab",
    ),
    "decompose-domain-error": (
        ["decompose", "--mode=sum", "--part=i*x"],
        2, "86c513970359062205ec6848e7dcc229f921a708794ab81f0edec64355036985",
    ),
    # verify
    "verify-seed-7": (
        ["verify", "--seed", "7"],
        0, "519afca04c5758d0a28e906ee854bb82621c3dc792954e2c19608fdffe4f321f",
    ),
    "verify-seed-not-an-integer": (
        ["verify", "--seed=abc"],
        3, "7a15585b54ddd7137bb05220392a90a95385443df3854aa2568ce8e56d5a0f6a",
    ),
    "verify-unknown-format": (
        ["verify", "--format=xml"],
        3, "3ea6077eecef286d6fa8c5fda9b63b9185ce698621d4269c71486c266dc30bc8",
    ),
    # bell-debug
    "bell-debug-n3": (
        ["bell-debug", "--n", "3", "--b", "1,1,1", "--a", "1,1,1"],
        0, "6b9386eefb462980368d9ed29e5575d41201e646b1b96379112c89bf77a94491",
    ),
    "bell-debug-n8-rational": (
        ["bell-debug", "--n", "8", "--b", "1,2,3,4,5,6,7,8",
         "--a", "1/2,1/3,1/4,1/5,1/6,1/7,1/8,1/9"],
        0, "c72be785ed9d37901e6637667049c57cc41ee8f97ecb2b2e6de1dd5aff9fc987",
    ),
    "bell-debug-gaussian": (
        ["bell-debug", "--n", "3", "--b", "i,1,1/2", "--a", "1,-i,2", "--domain", "gaussian"],
        0, "4dbff58dfff030c88558c9be6dc94825b8f26c12b33578d72d842f4f518b6b5d",
    ),
    "bell-debug-gaussian-in-rational-domain": (
        ["bell-debug", "--n", "2", "--b", "i,1", "--a", "1,1"],
        2, "601aaf035b7cb86d82760bf54d190f1c8b161621f886ac4efbe7bf34b7bca27e",
    ),
    "bell-debug-n70": (
        ["bell-debug", "--n", "70", "--b", "1", "--a", "1"],
        3, "e6da3869024ffba03739a824ca3a6d94f8ed401368f3155538ad51bdb3f41fa7",
    ),
    "bell-debug-short-lists": (
        ["bell-debug", "--n", "3", "--b", "1", "--a", "1"],
        3, "d27d0ff4b0893b8f97512cb479e3681b5a52f495be5f35b5cff6ac4cd5cfef41",
    ),
    "bell-debug-zero-denominator": (
        ["bell-debug", "--n", "1", "--b", "1/0", "--a", "1"],
        3, "a202282644898f4be93ede9948dca95e200267c89927029ee222b9b702481f18",
    ),
    # rk4-debug, a former test hook
    "rk4-debug-default-steps": (
        ["rk4-debug", "--field=x", "--x=1", "--t=0.5"],
        3, "7f08842b23ce98c5c013c1a4e8813750b959380c47e22930ab4918fc38abd30d",
    ),
    "rk4-debug-steps-64": (
        ["rk4-debug", "--field=x^2", "--x=0.1", "--t=0.5", "--steps=64"],
        3, "7f08842b23ce98c5c013c1a4e8813750b959380c47e22930ab4918fc38abd30d",
    ),
    "rk4-debug-steps-8": (
        ["rk4-debug", "--field=x", "--x=1", "--t=0.5", "--steps=8"],
        3, "7f08842b23ce98c5c013c1a4e8813750b959380c47e22930ab4918fc38abd30d",
    ),
    "rk4-debug-parse-error": (
        ["rk4-debug", "--field=x^^2", "--x=1", "--t=0.5"],
        3, "7f08842b23ce98c5c013c1a4e8813750b959380c47e22930ab4918fc38abd30d",
    ),
    # parse errors, exit 1
    "parse-unknown-name": (
        ["series", "--field=y"],
        1, "97d7b0f96b5404b5a904958dcd820dd9d715124aebc6745274592b0578315830",
    ),
    "parse-unexpected-character": (
        ["series", "--field=x$2"],
        1, "d9c47add98bcf176dcb4cc7a470ee576549e24d90cec38b1c10bdd72504dbdc7",
    ),
    "parse-zero-denominator": (
        ["series", "--field=1/0*x"],
        1, "7b24f8805414d8671f64f083eae238975a4fabf8dfdc69532c5a7355019957a3",
    ),
    "parse-unclosed-parenthesis": (
        ["series", "--field=(x+1"],
        1, "7e8f9946d24848de86a9a9fb13157c43ea544dc5e7d43ba3cf1aaecb8a7aaa71",
    ),
    "parse-unopened-parenthesis": (
        ["series", "--field=x+1)"],
        1, "a64244d20cd952da4a001181aa8083c8893a15470dea124e56bd4430d66accbf",
    ),
    "parse-empty-field": (
        ["series", "--field="],
        1, "b433f03b6d39cfafbcbb1ae0b3b30dfe1683ea9136ce65ceee75352afd252bda",
    ),
    "parse-leading-plus": (
        ["series", "--field=+x"],
        1, "933e1e9a4c196938078123bc4916a8a2247912dbb4e71bafff885986c2fed4cc",
    ),
    "parse-negative-exponent": (
        ["series", "--field=x^-1"],
        1, "2cb288966aa3cdbe9872208d2175a67eabdfc1b522941ae4b540b2e7ba3688b3",
    ),
    "parse-trailing-operator": (
        ["flow", "--field=x*"],
        1, "7a12db142e964414225357a2f3e38d877bd7cf0fe9fae1d9eed909062ddd0ca3",
    ),
    "parse-exponent-division-of-a-group": (
        ["series", "--field=(x+1)^3/2"],
        1, "d9cd146f0724aaae54fe74da88edf31feb8efecd4ace4f39661328ffe2c123e3",
    ),
    "parse-exponent-division-keeps-the-lexeme": (
        ["series", "--field=x^6/4"],
        1, "9f19e3243178ff96f352bdfedabb680a8b57b64d1263fb3fb366095fa860f913",
    ),
    # domain errors, exit 2
    "domain-exp-of-a-square": (
        ["series", "--field=exp(x^2)"],
        2, "601398415f81adbcc9688ead20b59bd50d5db1c1727b2229b7add78f6c4faae6",
    ),
    "domain-nested-function": (
        ["series", "--field=sin(exp(x))"],
        2, "356858e3942eaf1abc6eae0baa9d6287889722c943ab17128161ac572c873bd6",
    ),
    "domain-exp-of-a-constant": (
        ["series", "--field=exp(1)"],
        2, "601398415f81adbcc9688ead20b59bd50d5db1c1727b2229b7add78f6c4faae6",
    ),
    "domain-sin-of-i-squared": (
        ["series", "--field=sin(i*i*x)"],
        2, "86c513970359062205ec6848e7dcc229f921a708794ab81f0edec64355036985",
    ),
    "domain-flow-needs-gaussian": (
        ["flow", "--field=x+i"],
        2, "86c513970359062205ec6848e7dcc229f921a708794ab81f0edec64355036985",
    ),
    # usage errors, exit 3
    "usage-order-t-zero": (
        ["series", "--field=x", "--order-t=0"],
        3, "7f63af4fdf65b325673d3b67b32b5641831ed4268e4818d8d05b21c924ebac41",
    ),
    "usage-order-x-zero": (
        ["flow", "--field=x", "--order-x=0"],
        3, "1e69c0a9e079af13aa85a3bd36e9fd16ef1c1886c1bf1770062fd1e56fa3f9bc",
    ),
    "usage-order-t-above-order-x": (
        ["series", "--field=x", "--order-t", "20", "--order-x", "16"],
        3, "7f63af4fdf65b325673d3b67b32b5641831ed4268e4818d8d05b21c924ebac41",
    ),
    "usage-order-x-not-an-integer": (
        ["series", "--field=x", "--order-x", "1/2"],
        3, "d9e108c7a03b6a3e212c2c91951707340c5d61ee5d70f898547c6264977cb90c",
    ),
    "usage-unknown-domain": (
        ["series", "--field=x", "--domain=real"],
        3, "034d75baef38ab4dacf24a815a102dce6d37012cde1d3d5f69392d190dcc67a6",
    ),
    "usage-unknown-format": (
        ["flow", "--field=x", "--format=xml"],
        3, "3ea6077eecef286d6fa8c5fda9b63b9185ce698621d4269c71486c266dc30bc8",
    ),
    "usage-missing-field": (
        ["series"],
        3, "d418dedbf25993fc3b53b67710e5d52e51cac65db4f9b34b609c19d80dcabb4c",
    ),
    "usage-unknown-command": (
        ["bogus-command"],
        3, "117749ede7d297152e25090b425bec0fbda99ace7ba823c09d1a222e96a7b2d1",
    ),
    "usage-unknown-flag": (
        ["series", "--field=x", "--bogus-flag", "1"],
        3, "cc00e830d3a2e1a22c53c397463c98d8807a7fab347799dfb55f7f9d2a9c5067",
    ),
    "usage-part-with-leading-minus": (
        ["decompose", "--mode", "sum", "--part", "-x"],
        3, "ada5839096da90e8aa33551f65a299f129029c7797d2e679800c715c12bbe3c6",
    ),
    "usage-field-with-leading-minus": (
        ["series", "--field", "-x"],
        3, "54131180239e187718355582d0d594d6d6601abb9e6d21e6bd3bbce828851dd8",
    ),
    # expressions nest at most 100 levels deep; deeper input is a parse error
    "series-depth-100-parentheses": (
        ["series", "--field=" + "(" * 99 + "x" + ")" * 99, "--order-x=4", "--order-t=2"],
        0, "460e791c1a8023c2b69ef50e3eb902852caefbf89ba19a50d1ea8ca87f3dd1ad",
    ),
    "series-depth-101-parentheses": (
        ["series", "--field=" + "(" * 100 + "x" + ")" * 100, "--order-x=4", "--order-t=2"],
        1, "c8368fc4583f510575ec8329c89395b70794dc79216d5ea0c103ea48a0eb37fa",
    ),
    "series-depth-100-product": (
        ["series", "--field=" + "*".join(["x"] * 100), "--order-x=4", "--order-t=2"],
        0, "a227b497e96f1224a391babe9555ad522929ca07a5032d4087bdfcc11428f83f",
    ),
    "series-depth-101-product": (
        ["series", "--field=" + "*".join(["x"] * 101), "--order-x=4", "--order-t=2"],
        1, "68b9a2417da8793580586a09ad6f0809029504334843d8bde65b5484ad2ed05c",
    ),
    "flow-depth-100-minus-signs-gaussian": (
        ["flow", "--field=" + "-" * 99 + "x", "--domain=gaussian", "--order-x=4",
         "--order-t=2", "--format=json"],
        0, "af3f17d254b5075c1c9949d5a553dd9721c75e8b6b15526f4d21d04366563fdf",
    ),
    "eval-depth-100-sum": (
        ["eval", "--field=" + "+".join(["x"] * 100), "--x=0.1", "--t=0.01"],
        0, "44df6b87d38affce38ed04ea3a259b2f99963c11f4c831c646315c58d0bc9162",
    ),
    "eval-depth-100-product": (
        ["eval", "--field=" + "*".join(["x"] * 100), "--x=0.1", "--t=0.1"],
        0, "e5411465dff084166a52273129b7ede9845fe744861d9ae230d292b13862260e",
    ),
    "series-198-parentheses": (
        ["series", "--field=" + "(" * 198 + "x" + ")" * 198],
        1, "6ae0a99c99f995e134a56a41cfc38e1f047062b2a27ab9bd1da6648126297068",
    ),
    "series-991-factors": (
        ["series", "--field=" + "*".join(["x"] * 991)],
        1, "68b9a2417da8793580586a09ad6f0809029504334843d8bde65b5484ad2ed05c",
    ),
    "eval-992-terms": (
        ["eval", "--field=" + "+".join(["x"] * 992), "--x=0.1", "--t=0.1"],
        1, "68b9a2417da8793580586a09ad6f0809029504334843d8bde65b5484ad2ed05c",
    ),
    # Python converts at most 4300 digits between an int and its text: a longer
    # literal is a parse error, a longer printed scalar a domain error
    "series-literal-4300-digits": (
        ["series", "--field=" + "7" * 4300 + "*x", "--order-x=2", "--order-t=1"],
        0, "738f1a496b5fe6420ff579ddf317b809a0ac48f702cf5b51ec889a8def7af710",
    ),
    "series-literal-4301-digits": (
        ["series", "--field=" + "7" * 4301 + "*x"],
        1, "3dacbe4b2f2df7c825b1c6b97f61aa249b831c62bb75497ea65cc04cea4019e7",
    ),
    "series-denominator-4301-digits": (
        ["series", "--field=1/" + "7" * 4301 + "*x"],
        1, "3dacbe4b2f2df7c825b1c6b97f61aa249b831c62bb75497ea65cc04cea4019e7",
    ),
    "eval-exponent-4301-digits": (
        ["eval", "--field=x^" + "7" * 4301, "--x=0.1", "--t=0.1"],
        1, "47fabcbb71594936a55f089f4cb8f5aae92ecf92eb7973e3ac8c6c424641833e",
    ),
    "series-coefficient-beyond-digit-limit": (
        ["series", "--field=(10^100)^100"],
        2, "14909a6cac68a6c8ae9e2e5ca361ef23ca0b63d62ff9544c7f6155ac8d280588",
    ),
    "series-rows-beyond-digit-limit": (
        ["series", "--field=(10^100)^42*x^2", "--order-t=3"],
        2, "14909a6cac68a6c8ae9e2e5ca361ef23ca0b63d62ff9544c7f6155ac8d280588",
    ),
    "series-coefficient-beyond-digit-limit-json": (
        ["series", "--field=(10^100)^100", "--format=json"],
        2, "14909a6cac68a6c8ae9e2e5ca361ef23ca0b63d62ff9544c7f6155ac8d280588",
    ),
    "flow-term-beyond-digit-limit-json": (
        ["flow", "--field=(10^100)^42*x^2", "--order-t=3", "--format=json"],
        2, "14909a6cac68a6c8ae9e2e5ca361ef23ca0b63d62ff9544c7f6155ac8d280588",
    ),
    "decompose-coefficient-beyond-digit-limit": (
        ["decompose", "--mode=sum", "--part=(10^100)^100", "--part=x"],
        2, "14909a6cac68a6c8ae9e2e5ca361ef23ca0b63d62ff9544c7f6155ac8d280588",
    ),
    "decompose-coefficient-beyond-digit-limit-json": (
        ["decompose", "--mode=sum", "--part=(10^100)^100", "--part=x", "--format=json"],
        2, "14909a6cac68a6c8ae9e2e5ca361ef23ca0b63d62ff9544c7f6155ac8d280588",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_digests(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv, expected_code, digest = GOLDEN[name]
    code, out, err = run_cli(*argv)
    assert code == expected_code
    assert _sha256(f"{code}\n{out}\0{err}") == digest


@pytest.mark.parametrize("name", sorted(n for n, entry in GOLDEN.items() if entry[1] in (1, 2, 3)))
def test_a_failing_command_writes_nothing_to_stdout(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv, expected_code, _ = GOLDEN[name]
    code, out, err = run_cli(*argv)
    assert (code, out) == (expected_code, "")
    assert err


def test_a_bell_debug_value_beyond_the_digit_limit_is_a_usage_error():
    # --b and --a are flags, so a value beyond the limit is a usage error
    code, out, err = run_cli("bell-debug", "--n", "1", "--b", "7" * 4301, "--a", "1")
    assert (code, out) == (3, "")
    assert err.startswith("usage error: ") and "more than 4300 digits" in err
    assert "set_int_max_str_digits" not in err


# strings with quotes, backslashes, control characters, DEL and non-ASCII text
_json_strings = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\x80\xe9\u20ac\u4e2d\U0001f600 /')),
    max_size=12,
)
_json_payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _json_strings),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_json_strings, inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(deadline=None)
@given(_json_payloads)
def test_json_text_is_json_dumps_with_indent_2(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


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


def _assert_sequence_json(payload, key, reference):
    """The printed field and terms of a sequence equal the reference's, and parse back to them."""
    assert list(payload) == ["field", "orderT", key]
    assert payload["orderT"] == reference.order_t
    printed = [payload["field"], *payload[key]]
    for entry, series in zip(printed, [reference.field, *reference.terms], strict=True):
        assert list(entry) == ["domain", "orderX", "coeffs"]
        assert entry["domain"] == reference.domain.value and entry["orderX"] == series.order
        assert entry["coeffs"] == [format_scalar(c) for c in series.coeffs]
        assert [parse_scalar(c, reference.domain) for c in entry["coeffs"]] == list(series.coeffs)


def test_series_json_round_trips_bit_exactly():
    code, out, _ = run_cli(
        "series", "--field", "1/3-2/5*x+x^2", "--order-x", "9", "--order-t", "4",
        "--format", "json",
    )
    assert code == 0
    reference = autonomous_sequence(series_from_text("1/3-2/5*x+x^2", 9), 4)
    _assert_sequence_json(json.loads(out), "terms", reference)


def test_flow_json_round_trips_bit_exactly():
    code, out, _ = run_cli(
        "flow", "--field", "exp(i*x)", "--domain", "gaussian",
        "--order-x", "8", "--order-t", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    reference = flow_series(series_from_text("exp(i*x)", 8, Domain.GAUSSIAN), 4)
    _assert_sequence_json(payload, "tcoeffs", reference)
    assert payload["tcoeffs"][0]["coeffs"][1] == "1"  # the flow starts at x


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
    assert payload["closed_form_kind"] == {"kind": "power", "params": ["1", "2"]}

    code, out, _ = run_cli("eval", "--field=-3/2*x^4", "--x=0.1", "--t=0.5", "--format=json")
    assert code == 0
    kind = json.loads(out)["closed_form_kind"]
    assert kind["kind"] == "power"
    params = tuple(parse_scalar(p) for p in kind["params"])
    assert params == (Fraction(-3, 2), 4) == match_closed_form(parse("-3/2*x^4")).params


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
