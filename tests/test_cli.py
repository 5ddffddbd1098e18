import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ivpoly.cli import MAX_TRUNCATION, run
from ivpoly.errors import InputTooLargeError
from ivpoly.rationals import MAX_DIGITS, parse_rational


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def invoke_json(capsys, *argv):
    status, out, _ = invoke(capsys, *argv, "--format", "json")
    return status, json.loads(out)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestMonoidCommands:
    def test_atoms_golden(self, capsys):
        status, payload = invoke_json(
            capsys, "monoid-atoms", "--spec", "grams", "--denom-bound", "100"
        )
        assert status == 0
        assert payload["result"]["atoms"] == ["1/3", "1/10", "1/28", "1/88"]

    def test_member_certificate(self, capsys):
        status, payload = invoke_json(
            capsys, "monoid-member", "--spec", "grams", "--q", "1/2"
        )
        assert status == 0
        assert payload["result"] == {
            "member": True,
            "exact": True,
            "certificate": {"1": 5},
        }

    def test_factor(self, capsys):
        status, payload = invoke_json(
            capsys, "monoid-factor", "--spec", "explicit", "--gens", "2,3",
            "--b", "6", "--length-cap", "5",
        )
        assert status == 0
        assert payload["result"]["lengths"] == [2, 3]
        assert payload["result"]["elasticity"] == "3/2"

    def test_grams_decompose(self, capsys):
        status, payload = invoke_json(capsys, "grams-decompose", "--q", "3/5")
        assert status == 0
        assert payload["result"] == {
            "member": True,
            "nu": "1/2",
            "coefficients": {"1": 1},
        }

    def test_factor_surfaces_infinite_flag(self, capsys):
        status, payload = invoke_json(
            capsys, "monoid-factor", "--spec", "grams", "--b", "1/2",
            "--length-cap", "5",
        )
        assert status == 0
        assert payload["result"]["lengths"] == [5]
        assert payload["result"]["provably_infinite"]
        assert payload["result"]["elasticity_is_lower_bound"]

    def test_accp_chain(self, capsys):
        status, payload = invoke_json(capsys, "accp-chain", "--n-max", "10")
        assert status == 0
        assert payload["result"]["all_ascending_strict"]
        assert len(payload["result"]["steps"]) == 11


class TestRingCommands:
    def test_mul(self, capsys):
        a = json.dumps({"ring": "Q", "terms": [["1", "1/2"], ["1", "0"]]})
        b = json.dumps({"ring": "Q", "terms": [["1", "1/2"], ["-1", "0"]]})
        status, payload = invoke_json(capsys, "ring-mul", "--a", a, "--b", b)
        assert status == 0
        assert payload["result"]["product"]["terms"] == [["1", "1"], ["-1", "0"]]

    def test_root(self, capsys):
        f = json.dumps({"ring": "F2", "terms": [["1", "3"], ["1", "1/2"]]})
        status, payload = invoke_json(capsys, "ring-root", "--f", f)
        assert status == 0
        assert payload["result"]["verified"]
        assert payload["result"]["root"]["terms"] == [["1", "3/2"], ["1", "1/4"]]


class TestIvpCommands:
    def test_member(self, capsys):
        status, payload = invoke_json(capsys, "ivp-member", "--poly", "0,-1/2,1/2")
        assert status == 0 and payload["result"]["member"]

    def test_unicode_minus_accepted(self, capsys):
        status, payload = invoke_json(capsys, "ivp-member", "--poly", "0,−1/2,1/2")
        assert status == 0 and payload["result"]["member"]

    def test_basis_and_binomial_input(self, capsys):
        status, payload = invoke_json(capsys, "ivp-basis", "--poly", "0,0,1")
        assert status == 0
        assert payload["result"]["deltas"] == ["0", "1", "2"]
        status, payload = invoke_json(
            capsys, "ivp-basis", "--poly", "0,1,2", "--binomial"
        )
        assert status == 0
        assert payload["result"]["coeffs"] == ["0", "0", "1"]

    def test_factor_x_squared_minus_x(self, capsys):
        status, payload = invoke_json(capsys, "ivp-factor", "--poly", "0,-1,1")
        assert status == 0
        assert payload["result"]["lengths"] == [2]
        assert len(payload["result"]["factorizations"]) == 2

    def test_divisors(self, capsys):
        status, payload = invoke_json(capsys, "ivp-divisors", "--poly", "0,-1,1")
        assert status == 0 and payload["result"]["count"] == 6

    def test_irreducible_on_site(self, capsys):
        status, payload = invoke_json(
            capsys, "ivp-irreducible", "--poly", "1,6", "--site", "0,1"
        )
        assert status == 0 and payload["result"]["irreducible"]

    def test_irreducible_on_site_at_degree_two(self, capsys):
        status, payload = invoke_json(
            capsys, "ivp-irreducible", "--poly", "0,0,1", "--site", "0,1"
        )
        assert status == 0 and payload["result"] == {"irreducible": False}

    def test_divisors_on_site(self, capsys):
        # x^2 - x takes the values 0, 0, 2 on {0, 1, 2}
        status, payload = invoke_json(
            capsys, "ivp-divisors", "--poly", "0,-1,1", "--site", "0,1,2"
        )
        assert status == 0
        assert payload["result"]["divisors"] == [
            ["1"], ["2"], ["-1", "1"], ["0", "1"], ["0", "-1", "1"], ["0", "-1/2", "1/2"]
        ]

    def test_factor_on_site(self, capsys):
        status, payload = invoke_json(
            capsys, "ivp-factor", "--poly", "0,0,1", "--site", "0,1"
        )
        assert status == 0
        assert payload["result"]["factorizations"] == [[["0", "1"], ["0", "1"]]]
        assert payload["result"]["lengths"] == [2]

    def test_furstenberg(self, capsys):
        status, payload = invoke_json(
            capsys, "ivp-furstenberg", "--poly", "0,1", "--site", "0"
        )
        assert status == 0 and payload["result"]["divisor"] == ["2"]

    def test_nonatomic_witness(self, capsys):
        status, payload = invoke_json(
            capsys, "ivp-nonatomic", "--poly", "0,1", "--site", "0"
        )
        assert status == 0
        assert payload["result"]["point"] == 0
        assert payload["result"]["half"] == ["0", "1/2"]
        assert payload["result"]["complete_proof"]


class TestConeCommands:
    def test_member_one(self, capsys):
        status, payload = invoke_json(
            capsys, "cone-member", "--target", "1", "--truncation", "6"
        )
        assert status == 0 and payload["result"]["member"]

    def test_degree_bound_error(self, capsys):
        status, payload = invoke_json(
            capsys, "cone-member", "--target", "0,0,0,0,1", "--truncation", "2"
        )
        assert status == 1
        assert payload["error"]["code"] == "degree-bound-exceeded"

    def test_idf(self, capsys):
        status, payload = invoke_json(
            capsys, "cone-idf", "--index", "2", "--truncation", "8"
        )
        assert status == 0 and payload["result"]["all_ok"]


class TestErrorsAndExitCodes:
    def test_malformed_rational(self, capsys):
        status, payload = invoke_json(capsys, "ivp-member", "--poly", "0,zzz")
        assert status == 1
        assert payload["error"]["code"] == "malformed-rational"
        assert payload["result"] is None

    def test_duplicate_site_points(self, capsys):
        status, payload = invoke_json(
            capsys, "ivp-member", "--poly", "0,1", "--site", "0,0"
        )
        assert status == 1
        assert payload["error"]["code"] == "duplicate-site-points"

    def test_unsupported_site_degree(self, capsys):
        # x vanishes on all of {0}, so x / n divides x for every n
        status, payload = invoke_json(
            capsys, "ivp-divisors", "--poly", "0,1", "--site", "0"
        )
        assert status == 1
        assert payload["error"]["code"] == "unsupported-site-degree"

    def test_non_integer_site_point(self, capsys):
        status, payload = invoke_json(
            capsys, "ivp-member", "--poly", "0,1", "--site", "0,x"
        )
        assert status == 1
        assert payload["error"]["code"] == "malformed-input"

    def test_handler_bug_is_an_internal_error(self, capsys, monkeypatch):
        from ivpoly import cli

        def broken(args):
            raise KeyError("missing")

        monkeypatch.setattr(cli, "_cmd_ivp_member", broken)
        status, payload = invoke_json(capsys, "ivp-member", "--poly", "0,1")
        assert status == 1 and payload["result"] is None
        assert payload["error"] == {"code": "internal-error", "message": "KeyError: 'missing'"}
        status, out, err = invoke(capsys, "ivp-member", "--poly", "0,1")
        assert status == 1 and out == ""
        assert err == "error[internal-error]: KeyError: 'missing'\n"

    def test_non_member_rejected(self, capsys):
        status, payload = invoke_json(capsys, "ivp-divisors", "--poly", "0,1/2")
        assert status == 1
        assert payload["error"]["code"] == "not-a-member"

    def test_oversized_rational_is_a_coded_error(self, capsys):
        status, payload = invoke_json(
            capsys, "monoid-member", "--spec", "grams", "--q", "1e100000"
        )
        assert status == 1
        assert payload["op"] == "monoid-member" and payload["result"] is None
        assert payload["error"]["code"] == "input-too-large"

    @pytest.mark.parametrize("argv", [
        ("cone-member", "--target", "1"),
        ("cone-idf", "--index", "1"),
        ("monoid-member", "--spec", "prime-reciprocal", "--q", "1/2"),
        ("monoid-atoms", "--spec", "prime-reciprocal", "--denom-bound", "10"),
    ])
    def test_truncation_cap(self, capsys, argv):
        cap = str(MAX_TRUNCATION)
        status, payload = invoke_json(capsys, *argv, "--truncation", cap)
        assert status == 0 and payload["error"] is None
        status, payload = invoke_json(capsys, *argv, "--truncation", str(MAX_TRUNCATION + 1))
        assert status == 1 and payload["result"] is None
        assert payload["error"]["code"] == "input-too-large"

    def test_truncation_is_ignored_by_closed_form_specs(self, capsys):
        status, payload = invoke_json(
            capsys, "monoid-member", "--spec", "grams", "--q", "1/2", "--truncation", "100000"
        )
        assert status == 0 and payload["result"]["member"]

    @pytest.mark.parametrize(
        "text",
        ["1e1000", "9" * (MAX_DIGITS + 1), "1/" + "7" * (MAX_DIGITS + 1), "1e-1000",
         "1e99999999999", "1" + "0" * 999 + "e1"],
    )
    def test_digit_cap(self, text):
        with pytest.raises(InputTooLargeError):
            parse_rational(text)

    def test_largest_accepted_rationals(self):
        assert parse_rational("9" * MAX_DIGITS) == 10**MAX_DIGITS - 1
        assert parse_rational("-1e999") == -(10**999)
        assert parse_rational("1e-999") == Fraction(1, 10**999)

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"])
        assert exc.value.code == 2

    def test_malformed_ring_element_json(self, capsys):
        status, payload = invoke_json(capsys, "ring-mul", "--a", "not json", "--b", "{}")
        assert status == 1
        assert payload["error"]["code"] == "malformed-input"
        status, payload = invoke_json(
            capsys, "ring-root", "--f", '{"terms": []}'
        )
        assert status == 1  # missing ring tag

    @pytest.mark.parametrize(
        "argv",
        [
            ("monoid-member", "--spec", "grams", "--q", "x/y"),
            ("grams-decompose", "--q", ""),
            ("ivp-member", "--poly", ""),
        ],
    )
    def test_malformed_inputs_fail_cleanly(self, capsys, argv):
        status, payload = invoke_json(capsys, *argv)
        assert status == 1
        assert payload["error"] is not None and payload["error"]["code"]

    @staticmethod
    def _status_of(argv):
        # argparse signals usage errors through SystemExit(2)
        try:
            return run(argv)
        except SystemExit as exc:
            return exc.code

    @given(st.text(alphabet="0123456789/-,xq. ", min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_exit_codes_partition_cleanly(self, text):
        # any input parses (0), is a coded domain error (1), or a usage error (2)
        status = self._status_of(["grams-decompose", "--q", text, "--format", "json"])
        assert status in (0, 1, 2)

    def test_grams_prime_beyond_index_bound(self, capsys):
        # 935414457 = 3 * 163 * 1912913; the Grams index of 1912913 is refused
        status, payload = invoke_json(capsys, "grams-decompose", "--q", "9/935414457")
        assert status == 1 and payload["error"]["code"] == "input-too-large"

    @given(st.text(alphabet="0123456789,-", min_size=0, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_site_strings_never_crash(self, text):
        status = self._status_of(
            ["ivp-member", "--poly", "0,1", "--site", text, "--format", "json"]
        )
        assert status in (0, 1, 2)


class TestInputsThatOnceCrashed:
    """Each of these exited through a traceback, with no envelope."""

    EMPTY_Z = '{"ring":"Z","terms":[]}'

    def _error_code(self, capsys, *argv):
        status, payload = invoke_json(capsys, *argv)
        assert status == 1 and payload["result"] is None
        return payload["error"]["code"]

    def test_duplicate_explicit_generators(self, capsys):
        code = self._error_code(capsys, "monoid-member", "--spec", "explicit",
                                "--gens", "1,1", "--q", "2")
        assert code == "duplicate-generators"

    def test_term_that_is_not_a_pair(self, capsys):
        code = self._error_code(capsys, "ring-mul", "--a", '{"ring":"Z","terms":[["1"]]}',
                                "--b", self.EMPTY_Z)
        assert code == "malformed-input"

    def test_root_term_that_is_not_a_pair(self, capsys):
        code = self._error_code(capsys, "ring-root", "--f",
                                '{"ring":"F3","terms":[["1","1","x"]]}')
        assert code == "malformed-input"

    def test_ring_tag_that_is_not_a_string(self, capsys):
        code = self._error_code(capsys, "ring-mul", "--a", '{"ring":5,"terms":[]}',
                                "--b", self.EMPTY_Z)
        assert code == "malformed-input"

    def test_nesting_too_deep_for_the_decoder(self, capsys):
        code = self._error_code(capsys, "ring-mul", "--a", "[" * 50_000, "--b", self.EMPTY_Z)
        assert code == "malformed-input"

    def test_integer_too_long_for_the_decoder(self, capsys):
        code = self._error_code(capsys, "ring-mul", "--a", "[" + "1" * 5000 + "]",
                                "--b", self.EMPTY_Z)
        assert code == "malformed-input"

    @pytest.mark.parametrize("tag", ["F²", "F" + "7" * 5000, "F"],
                             ids=["superscript", "5000-digits", "no-digits"])
    def test_ring_tags_that_are_not_primes(self, capsys, tag):
        a = json.dumps({"ring": tag, "terms": []})
        code = self._error_code(capsys, "ring-mul", "--a", a, "--b", self.EMPTY_Z)
        assert code == "unsupported-coefficient-ring"

    def test_prime_reciprocal_truncation_zero(self, capsys):
        code = self._error_code(capsys, "monoid-atoms", "--spec", "prime-reciprocal",
                                "--truncation", "0", "--denom-bound", "10")
        assert code == "bad-truncation"


#: JSON values, with the element's own keys and some valid strings mixed in so
#: that near misses of {"ring": str, "terms": [[str, str], ...]} turn up
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.sampled_from(["Z", "Q", "F3", "1", "1/2"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["ring", "terms"]) | st.text(), inner, max_size=3),
)


@given(_JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_any_json_element_gets_an_envelope(x):
    out = io.StringIO()
    with redirect_stdout(out):
        status = run(["ring-mul", "--a", json.dumps(x), "--b", '{"ring":"Z","terms":[]}',
                      "--format", "json"])
    assert status in (0, 1)
    envelope = json.loads(out.getvalue())
    assert envelope.keys() == {"op", "result", "error"} and envelope["op"] == "ring-mul"


class TestJsonEnvelope:
    def test_roundtrip_is_byte_identical(self, capsys):
        for argv in (
            ("monoid-atoms", "--spec", "grams", "--denom-bound", "100"),
            ("ivp-factor", "--poly", "0,-1,1"),
            ("cone-idf", "--index", "1", "--truncation", "6"),
        ):
            status, out, _ = invoke(capsys, *argv, "--format", "json")
            assert status == 0
            assert canonical(json.loads(out)) == out.strip()

    def test_envelope_shape(self, capsys):
        _, payload = invoke_json(capsys, "ivp-member", "--poly", "0,1")
        assert set(payload) == {"op", "result", "error"}
        assert payload["op"] == "ivp-member"


_TOP_HELP = """\
usage: ivpoly [-h]
              {monoid-member,monoid-atoms,monoid-factor,grams-decompose,accp-chain,ring-mul,ring-root,ivp-member,ivp-basis,ivp-divisors,ivp-factor,ivp-irreducible,ivp-furstenberg,ivp-nonatomic,cone-member,cone-idf,verify-paper}
              ...

Exact factorization toolkit for integer-valued polynomials, Puiseux monoids,
monoid rings, and rational cones.

positional arguments:
  {monoid-member,monoid-atoms,monoid-factor,grams-decompose,accp-chain,ring-mul,ring-root,ivp-member,ivp-basis,ivp-divisors,ivp-factor,ivp-irreducible,ivp-furstenberg,ivp-nonatomic,cone-member,cone-idf,verify-paper}
    monoid-member       membership with certificate
    monoid-atoms        atoms within a denominator bound
    monoid-factor       factorizations into atoms
    grams-decompose     dyadic-plus-residues decomposition
    accp-chain          strictly ascending ideal chain witness
    ring-mul            monoid-ring product
    ring-root           p-th root over a prime field
    ivp-member          integer-valuedness
    ivp-basis           binomial-basis coordinates
    ivp-divisors        all divisors up to associates
    ivp-factor          all factorizations into irreducibles
    ivp-irreducible     irreducibility
    ivp-furstenberg     an irreducible divisor
    ivp-nonatomic       vanishing non-atomicity witness
    cone-member         rational-cone membership certificate
    cone-idf            irreducible-family verification at one index
    verify-paper        replay the built-in golden fact suite

options:
  -h, --help            show this help message and exit
"""

_IVP_FACTOR_HELP = """\
usage: ivpoly ivp-factor [-h] [--format {text,json}] --poly POLY [--binomial]
                         [--site SITE]

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --poly POLY           comma-separated rational coefficients, lowest degree
                        first
  --binomial            interpret the list as binomial-basis coordinates
  --site SITE           "Z" (default) or a comma-separated list of integers
"""


class TestOutputIsStable:
    """Help texts and error envelopes, byte for byte.

    The help texts are argparse's layout (Python 3.10 or later) at a
    terminal width of 80 columns.
    """

    @pytest.mark.parametrize("argv, text", [
        (["--help"], _TOP_HELP),
        (["ivp-factor", "--help"], _IVP_FACTOR_HELP),
    ], ids=["top", "ivp-factor"])
    def test_help(self, capsys, monkeypatch, argv, text):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr() == (text, "")

    def test_domain_error(self, capsys):
        assert invoke(capsys, "ivp-irreducible", "--poly", "0,1/2", "--format", "json") == (
            1,
            '{"error":{"code":"not-a-member","message":"f is not integer-valued on its site"},'
            '"op":"ivp-irreducible","result":null}\n',
            "",
        )
        assert invoke(capsys, "ivp-nonatomic", "--poly", "0") == (
            1, "", "error[unsupported-site-degree]: the vanishing witness concerns finite sites\n")

    def test_internal_error(self, capsys, monkeypatch):
        from ivpoly import cli

        def broken(args):
            return {}["key"]

        monkeypatch.setattr(cli, "_cmd_monoid_member", broken)
        argv = ("monoid-member", "--spec", "grams", "--q", "1/3")
        assert invoke(capsys, *argv, "--format", "json") == (
            1,
            '{"error":{"code":"internal-error","message":"KeyError: \'key\'"},'
            '"op":"monoid-member","result":null}\n',
            "",
        )
        assert invoke(capsys, *argv) == (1, "", "error[internal-error]: KeyError: 'key'\n")


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ivpoly.cli", "grams-decompose", "--q", "1/10",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["coefficients"] == {"1": 1}


def test_irreducible_x10_plus_7_in_a_subprocess_within_10_s():
    proc = subprocess.run(
        [sys.executable, "-m", "ivpoly.cli", "ivp-irreducible", "--poly",
         "7,0,0,0,0,0,0,0,0,0,1", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == {"irreducible": True}


def test_ring_mul_over_a_mersenne_prime_field_in_a_subprocess_within_10_s():
    a = json.dumps({"ring": "F2305843009213693951", "terms": [["1", "1/2"], ["3", "0"]]})
    b = json.dumps({"ring": "F2305843009213693951", "terms": [["1", "1/2"], ["-1", "0"]]})
    proc = subprocess.run(
        [sys.executable, "-m", "ivpoly.cli", "ring-mul", "--a", a, "--b", b,
         "--format", "json"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0
    product = json.loads(proc.stdout)["result"]["product"]
    assert product["terms"] == [["1", "1"], ["2", "1/2"], [str(2**61 - 4), "0"]]


def test_huge_cone_truncation_in_a_subprocess_within_10_s():
    proc = subprocess.run(
        [sys.executable, "-m", "ivpoly.cli", "cone-member", "--target", "1",
         "--truncation", "100000", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["op"] == "cone-member" and payload["result"] is None
    assert payload["error"]["code"] == "input-too-large"


def test_verify_paper_full_suite_exits_zero(capsys):
    status, payload = invoke_json(capsys, "verify-paper")
    assert status == 0
    assert payload["result"]["all_passed"]
    assert len(payload["result"]["facts"]) == 13


def test_verify_paper_subset(capsys):
    status, payload = invoke_json(capsys, "verify-paper", "--facts", "grams-atoms,ckd-family")
    assert status == 0
    assert [f["id"] for f in payload["result"]["facts"]] == ["grams-atoms", "ckd-family"]


@pytest.mark.parametrize("argv, result", [
    (["ivp-irreducible", "--poly", "1000000000000000003"], {"irreducible": True}),
    # x^4 + (10^12+39)(10^12+61): no factor of the constant is needed
    (["ivp-irreducible", "--poly", "1000000000100000000002379,0,0,0,1"], {"irreducible": True}),
    (["ivp-divisors", "--poly", "1000000016000000063"],
     {"count": 4, "divisors": [["1"], ["1000000007"], ["1000000009"], ["1000000016000000063"]]}),
    (["ivp-furstenberg", "--poly", "0,1000000016000000063", "--site", "0,1"],
     {"divisor": ["1000000007"]}),
])
def test_large_constants_in_a_subprocess_within_10_s(argv, result):
    proc = subprocess.run(
        [sys.executable, "-m", "ivpoly.cli", *argv, "--format", "json"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == result
