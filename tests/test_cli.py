"""Command-line interface: reports, exit codes, artifacts, determinism."""

import copy
import functools
import hashlib
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from livsic import (
    LSystem,
    c_entropy,
    cli,
    compose_entropy,
    couple,
    dissipation_elementary_closed,
    make_elementary,
    validate,
    verify,
)
from livsic.cli import main, system_from_descriptor


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# JSON values that are not numbers, or not floats, with the end of the message naming them
NOT_A_FLOAT = [
    pytest.param("null", "must be a number, got null", id="null"),
    pytest.param('"0.5"', "must be a number, got string", id="string"),
    pytest.param("true", "must be a number, got boolean", id="boolean"),
    pytest.param("[1]", "must be a number, got array", id="array"),
    pytest.param("1" + "0" * 400, "is an integer beyond the float range", id="huge-int"),
]


class TestElementary:
    def test_known_entropy_and_dissipation(self, capsys):
        code, out, _ = run(capsys, "elementary", "--lambda0", "1,1")
        assert code == 0
        assert "0.804718956217" in out
        report = json.loads(out)
        assert report["dissipation"] == 0.8
        assert report["classification"]["class"] == "none"

    def test_infinite_entropy_case(self, capsys):
        report = run_json(capsys, "elementary", "--lambda0", "0,1")
        assert report["entropy"] == "inf"
        assert report["dissipation"] == 1.0
        assert report["classification"]["class"] == "M_hat"
        assert report["classification"]["kappa"] == 0.0

    @pytest.mark.parametrize("lam, entropy", [("1e300,1e300", 1e-300), ("1e160,1", 2e-320)])
    def test_huge_parameter_reports_tiny_entropy(self, capsys, lam, entropy):
        report = run_json(capsys, "elementary", "--lambda0", lam)
        assert report["entropy"] == entropy

    def test_tiny_entropy_keeps_its_dissipation(self, capsys):
        # D = 1 - exp(-2S) cancels to 0.0 here; -expm1(-2S) keeps 2S
        report = run_json(capsys, "elementary", "--lambda0", "1e160,1")
        assert report["dissipation"] == dissipation_elementary_closed(1e160 + 1j) == 4e-320

    def test_small_entropy_keeps_its_digits(self, capsys):
        # (1/2) ln(hi/lo) rounds this S to 0.0
        report = run_json(capsys, "elementary", "--lambda0", "1e10,1")
        assert report["entropy"] == 2e-20 and report["dissipation"] == 4e-20

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "elementary", "--lambda0", "1,-1")
        assert code == 3 and "domain" in err

    @pytest.mark.parametrize("lam, message", [
        ("1,-1", "must satisfy Im > 0, got (1-1j)"), ("1,0", "must satisfy Im > 0, got (1+0j)"),
        ("inf,1", "must be finite, got (inf+1j)"), ("nan,1", "must be finite, got (nan+1j)"),
        ("0,inf", "must be finite, got infj"), ('{"re": Infinity, "im": 1}', "must be finite, got (inf+1j)"),
    ])
    def test_domain_error_names_the_condition(self, capsys, tmp_path, lam, message):
        # a JSON object is read as a descriptor through --in, the rest as --lambda0
        if lam.startswith("{"):
            path = tmp_path / "sys.json"
            path.write_text(f'{{"lambda0": {lam}}}')
            argv = ["classify", "--in", str(path)]
        else:
            argv = ["elementary", f"--lambda0={lam}"]
        assert run(capsys, *argv) == (3, "", f"domain error: parameter {message}\n")

    def test_malformed_parameter(self, capsys):
        code, _, _ = run(capsys, "elementary", "--lambda0", "nonsense")
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_writes_system_descriptor(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        run_json(capsys, "elementary", "--lambda0", "0,1", "--out", str(path))
        doc = json.loads(path.read_text())
        assert doc["T"] == [[{"re": 0.0, "im": 1.0}]]
        assert doc["K"] == [{"re": 1.0, "im": 0.0}]
        assert doc["J"] == 1

    @pytest.mark.parametrize("argv, key", [
        (["elementary", "--lambda0", "1,1"], "system"),
        (["skew", "--lambda0", "1,1"], "skew_system"),
        (["couple", "--lambda0", "0,0.5", "--mu0", "1,2"], "system"),
    ])
    def test_out_file_is_the_reported_system(self, capsys, tmp_path, argv, key):
        path = tmp_path / "sys.json"
        report = run_json(capsys, *argv, "--out", str(path))
        assert path.read_text() == json.dumps(report[key], indent=2) + "\n"

    def test_out_file_of_a_plain_coupling_reads_back(self, capsys, tmp_path):
        # a chain coupled with a plain 1x1 system is a plain LSystem; its T and K
        # are exact in 12 digits, so the file reads back to the same system
        desc, path = tmp_path / "pair.json", tmp_path / "sys.json"
        desc.write_text(json.dumps([{"lambda0": _c(0.5, 1)}, {"T": [[_c(0, 1)]], "K": [_c(1, 0)]}]))
        run_json(capsys, "couple", "--in", str(desc), "--out", str(path))
        coupled = couple(make_elementary(0.5 + 1j).system, LSystem([[1j]], [1.0], 1)).system
        assert coupled.T.tolist() == [[0.5 + 1j, 2j], [0j, 1j]]
        assert system_from_descriptor(json.loads(path.read_text())) == coupled

    def test_wire_refuses_what_it_does_not_know(self):
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            json.dumps(object(), default=cli._wire)


@pytest.mark.parametrize("argv, expected", [
    (["elementary", "--lambda0", "1"], "argument --lambda0: expected 're,im', got '1'"),
    (["elementary", "--lambda0", "a,b"], "argument --lambda0: expected 're,im', got 'a,b'"),
    (["surface", "--grid=1,2,3"],
     "argument --grid: expected 'xmin,xmax,ymin,ymax,nx,ny', got '1,2,3'"),
    (["surface", "--grid=-1,1,0.5,2,a,3"],
     "argument --grid: expected 'xmin,xmax,ymin,ymax,nx,ny', got '-1,1,0.5,2,a,3'"),
])
def test_usage_error_names_the_expected_format(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.endswith(f"error: {expected}\n") and "_parse" not in err


@pytest.mark.parametrize("argv", [["classify", "--lambda0", "1e300,1e300"],
                                  ["couple", "--lambda0", "1e300,1e300", "--mu0", "1,1"]])
def test_huge_parameter_prints_no_numpy_warning(capsys, argv):
    # the resolvent guard's norm of a system this large used to overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, _, err = run(capsys, *argv)
    assert caught == [] and "Warning" not in err


@pytest.mark.parametrize("lam", ["4.5361301052989466e+241,3.2429930722848203e+136",
                                 "-2.334038771118839e+208,7.541437558050817e-234"])
def test_elementary_whose_im_v_at_i_underflows_names_the_float_range(capsys, lam):
    # Im V(i) = Im(l)/(Re(l)^2 + 1) is positive, only below the float range
    code, out, err = run(capsys, "elementary", f"--lambda0={lam}")
    assert (code, out) == (2, "")
    assert "below the float range" in err and "not positive" not in err


@pytest.mark.parametrize("lam, code, message", [
    ("1,1e308", 0, ""),
    # V(i) = 1/(1e308 - i) is finite, but its imaginary part underflows to 0
    ("1e308,1", 2, "invariant violation: Im V(i) = 0.0 is not positive\n"),
])
def test_parts_near_the_float_maximum_do_not_overflow(capsys, lam, code, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, _, err = run(capsys, "classify", "--lambda0", lam)
    assert caught == [] and (got, err) == (code, message)


class TestDescriptor:
    T_K = {"T": [[{"re": 0.0, "im": 1.0}]], "K": [{"re": 1.0, "im": 0.0}]}

    def test_default_directing_sign(self):
        assert system_from_descriptor(self.T_K).J == 1

    @pytest.mark.parametrize("j, written", [
        (1.7, "1.7"), (-1.5, "-1.5"), (0.5, "0.5"), ("1", "'1'"), (2, "2"),
    ])
    def test_directing_sign_is_not_truncated(self, capsys, tmp_path, j, written):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({**self.T_K, "J": j}))
        code, out, err = run(capsys, "classify", "--in", str(path))
        assert code == 2 and out == ""
        assert err == f"invariant violation: directing sign must be +1 or -1, got {written}\n"

    @pytest.mark.parametrize("j", [1, -1])
    def test_overflowing_channel_gives_an_infinite_residual(self, capsys, tmp_path, j):
        # K K* overflows at 1e308^2; the complex product J K K* made the residual NaN
        doc = {"T": [[_c(0.5, 1.0), _c(0.0, 2.0)], [_c(0.0, 0.0), _c(-1.0, 1.0)]],
               "K": [_c(1e308, 0.0), _c(1.0, 0.0)], "J": j}
        assert validate(system_from_descriptor(doc)).residual == math.inf
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "classify", "--in", str(path)) == (
            2, "", "invariant violation: colligation identity violated: "
                   "residual inf > threshold 3.693e-09\n")

    @pytest.mark.parametrize("doc, message", [
        ('{"T": [[{"re": Infinity, "im": 0}]], "K": [{"re": 1, "im": 0}]}',
         "non-finite entries in system matrices"),
        ('{"T": [[{"re": 0, "im": 1}]], "K": [{"re": 1, "im": -Infinity}]}',
         "non-finite entries in system matrices"),
        ("5", "descriptor must be an object or list, got int"),
        ('{"x": 1}', "descriptor has none of the keys 'T', 'lambda0', 'factors'"),
        ('{"T": [[{"re": 0, "im": 1}]]}', "system descriptor has no key 'K'"),
        ('{"T": 5, "K": []}', "'T' must be a list, got int"),
        ('{"T": [[5]], "K": []}', "'T' entry (0, 0) must be an object, got int"),
        ('{"T": [[{"re": 0, "im": 1}]], "K": [{"im": 0}]}', "'K' entry 0 has no key 're'"),
        ('{"lambda0": {"re": 1}}', "'lambda0' has no key 'im'"),
        ('{"lambda0": 5}', "'lambda0' must be an object, got int"),
        ('{"factors": []}', "coupling descriptor has no factors"),
        ("[]", "coupling descriptor has no factors"),
    ])
    @pytest.mark.parametrize("sub", ["classify", "entropy"])
    def test_malformed_descriptor_exits_1(self, capsys, tmp_path, doc, message, sub):
        path = tmp_path / "sys.json"
        path.write_text(doc)
        code, out, err = run(capsys, sub, "--in", str(path))
        assert code == 1 and out == ""
        assert err == f"malformed input: {message}\n"

    @pytest.mark.parametrize("sub", ["classify", "entropy"])
    def test_needs_a_system(self, capsys, sub):
        code, out, err = run(capsys, sub)
        assert code == 1 and out == ""
        assert err == f"malformed input: {sub} needs --in or --lambda0\n"

    @pytest.mark.parametrize("sub", ["classify", "entropy", "couple"])
    def test_nesting_past_the_recursion_limit_exits_1(self, capsys, tmp_path, sub):
        leaf = '{"lambda0": {"re": 0, "im": 1}}'
        path = tmp_path / "deep.json"
        path.write_text('{"factors": [' * 500 + leaf + (", " + leaf + "]}") * 500)
        code, out, err = run(capsys, sub, "--in", str(path))
        assert (code, out) == (1, "") and err.startswith("malformed input: ")

    def test_flat_factor_list_equals_the_nested_tree(self, capsys, tmp_path):
        # the 32 factors of the benchmark's cli workload at seed 101, which
        # reads them as a balanced binary tree
        rng = np.random.default_rng([101, 4])
        lams = rng.uniform(-2.0, 2.0, 32) + 1j * rng.uniform(0.1, 2.5, 32)
        docs = {"flat": {"factors": [_nested([lam]) for lam in lams]}, "nested": _nested(lams)}
        flat, nested = (system_from_descriptor(doc) for doc in docs.values())
        assert flat.T.tobytes() == nested.T.tobytes() and flat.K.tobytes() == nested.K.tobytes()
        for sub in ("classify", "entropy"):
            outs = []
            for name, doc in docs.items():
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps(doc))
                outs.append(run(capsys, sub, "--in", str(path)))
            assert outs[0] == outs[1] and outs[0][0] == 0

    @pytest.mark.parametrize("sub, inline, named", [
        ("classify", ["--lambda0", "0,3"], "--lambda0"),
        ("entropy", ["--lambda0", "0,3"], "--lambda0"),
        ("couple", ["--lambda0", "5,5", "--mu0", "6,6"], "--lambda0"),
        ("couple", ["--mu0", "6,6"], "--mu0"),
    ])
    def test_in_excludes_the_inline_parameters(self, capsys, tmp_path, sub, inline, named):
        # a one-factor list of the system at lambda0 = i, alone a valid input to all three
        path = tmp_path / "s.json"
        run_json(capsys, "elementary", "--lambda0", "0,1", "--out", str(path))
        path.write_text(json.dumps([json.loads(path.read_text())]))
        run_json(capsys, sub, "--in", str(path))
        assert run(capsys, sub, "--in", str(path), *inline) == (
            1, "", f"malformed input: --in and {named} cannot be given together\n")

    @pytest.mark.parametrize("j, written", [(True, "True"), (False, "False")])
    def test_boolean_directing_sign_exits_2(self, capsys, tmp_path, j, written):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({**self.T_K, "J": j}))
        code, out, err = run(capsys, "classify", "--in", str(path))
        assert code == 2 and out == ""
        assert err == f"invariant violation: directing sign must be +1 or -1, got {written}\n"


class TestSkew:
    def test_doubling_identities(self, capsys):
        report = run_json(capsys, "skew", "--lambda0", "1,1")
        # companion shares entropy/dissipation with the original
        assert report["entropy"] == 0.804718956217
        assert report["dissipation"] == 0.8
        block = report["self_coupling"]
        assert block["entropy"] == pytest.approx(2 * 0.8047189562170502, rel=1e-11)
        assert block["dissipation"] == pytest.approx(0.96, rel=1e-11)
        assert block["dissipation_identity"] == pytest.approx(0.96, rel=1e-11)
        assert block["impedance_at_i"]["im"] == pytest.approx(2 / 3, rel=1e-11)
        assert block["classification"]["class"] == "M_hat_kappa"

    def test_overflowing_modulus_is_a_mapped_error(self, capsys):
        code, out, err = run(capsys, "skew", "--lambda0", "1e300,1e300")
        assert code == 2 and out == ""
        assert "|lambda0|^2 overflows" in err and "Traceback" not in err

    def test_self_skew_system_matches_original(self, capsys):
        report = run_json(capsys, "skew", "--lambda0", "0,1")
        assert report["skew_system"]["T"] == [[{"re": -0.0, "im": 1.0}]]


class TestCouple:
    def test_kappa_product(self, capsys):
        report = run_json(capsys, "couple", "--lambda0", "0,0.5", "--mu0", "0,0.5")
        third = 1 / 3
        assert report["factors"][0]["classification"]["kappa"] == pytest.approx(third, rel=1e-11)
        assert report["factors"][1]["classification"]["kappa"] == pytest.approx(third, rel=1e-11)
        assert report["classification"]["kappa"] == pytest.approx(1 / 9, rel=1e-11)

    def test_huge_factor_reports_its_closed_form_entropy(self, capsys):
        report = run_json(capsys, "couple", "--lambda0", "1e300,1e300", "--mu0", "1,1")
        assert report["factor_entropies"][0] == 1e-300
        assert report["factor_dissipations"][0] == 2e-300
        assert report["factor_entropies"][1] == 0.804718956217

    @pytest.mark.parametrize("argv", [
        ("couple", "--lambda0", "1e308,1e308", "--mu0", "1,1"),
        ("couple", "--lambda0", "1e200,1e-200", "--mu0", "1e200,1e-200"),
        ("couple", "--lambda0", "0,1e308", "--mu0", "0,1e308"),
        ("skew", "--lambda0", "1e308,1e308"),
    ])
    def test_closed_forms_past_the_float_range_exit_2(self, capsys, argv):
        # the closed forms are evaluated before the coupled system is built, so
        # their RangeError, not the overflowing block or a coefficient, is reported
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("invariant violation: ") and "exceed the float range" in err

    def test_overflowing_coupling_block_exits_2(self, capsys, tmp_path):
        # well-formed input whose block 2i K1 K2* = 2e308 i is beyond the float range
        path = tmp_path / "pair.json"
        path.write_text(json.dumps([{"lambda0": {"re": 0, "im": 1e308}}] * 2))
        code, out, err = run(capsys, "couple", "--in", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("invariant violation: ") and "exceeds the float range" in err

    def test_requires_both_parameters(self, capsys):
        code, _, _ = run(capsys, "couple", "--lambda0", "0,0.5")
        assert code == 1

    def test_accepts_emitted_descriptors(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_json(capsys, "elementary", "--lambda0", "1,1", "--out", str(p1))
        run_json(capsys, "elementary", "--lambda0", "0,2", "--out", str(p2))
        coupling_doc = {"factors": [json.loads(p1.read_text()), json.loads(p2.read_text())]}
        cpath = tmp_path / "pair.json"
        cpath.write_text(json.dumps(coupling_doc))
        report = run_json(capsys, "couple", "--in", str(cpath))
        # entropy adds: 0.5 ln 5 + ln 3
        import math
        assert report["entropy"] == pytest.approx(0.5 * math.log(5) + math.log(3), rel=1e-10)
        assert len(report["system"]["T"]) == 2


    @pytest.mark.parametrize("doc, message", [
        ("5", "coupling descriptor must be an object or list, got int"),
        ('{"x": 1}', "coupling descriptor has no key 'factors'"),
        ('{"factors": 5}', "'factors' must be a list, got int"),
        ('{"factors": []}', "coupling descriptor has no factors"),
        ("[]", "coupling descriptor has no factors"),
    ])
    def test_malformed_coupling_descriptor_exits_1(self, capsys, tmp_path, doc, message):
        path = tmp_path / "factors.json"
        path.write_text(doc)
        code, out, err = run(capsys, "couple", "--in", str(path))
        assert code == 1 and out == ""
        assert err == f"malformed input: {message}\n"

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("bare_list", [False, True])
    def test_in_couples_one_or_more_factors(self, capsys, tmp_path, count, bare_list):
        lams = [complex(0.5 * k - 0.5, 1.0 + k) for k in range(count)]
        diagonal = [_c(lam.real, lam.imag) for lam in lams]
        factors = [{"lambda0": entry} for entry in diagonal]
        path = tmp_path / "factors.json"
        path.write_text(json.dumps(factors if bare_list else {"factors": factors}))
        report = run_json(capsys, "couple", "--in", str(path))
        entropies = [c_entropy(make_elementary(lam).system) for lam in lams]
        assert len(report["factors"]) == len(report["system"]["T"]) == count
        # coupled left to right: the factors' parameters down T's diagonal, in order
        assert [row[i] for i, row in enumerate(report["system"]["T"])] == diagonal
        assert report["factor_entropies"] == [_round12(s) for s in entropies]
        # S of the coupling is the left fold of the factor entropies
        assert report["entropy"] == _round12(functools.reduce(compose_entropy, entropies))
        classified = run_json(capsys, "classify", "--in", str(path))
        assert classified["classification"] == report["classification"]


class TestClassify:
    def test_inline_parameter(self, capsys):
        report = run_json(capsys, "classify", "--lambda0", "0,3")
        assert report["classification"]["class"] == "M_hat_kappa_inverse"
        assert report["classification"]["kappa"] == 0.5
        assert report["closed_form"]["kappa"] == 0.5

    def test_round_trip_descriptor(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        run_json(capsys, "elementary", "--lambda0", "0,0.3", "--out", str(path))
        report = run_json(capsys, "classify", "--in", str(path))
        assert report["classification"]["class"] == "M_hat_kappa"
        assert report["classification"]["kappa"] == pytest.approx(7 / 13, rel=1e-11)

    def test_invalid_colligation_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "T": [[{"re": 0.0, "im": 2.0}]],
            "K": [{"re": 1.0, "im": 0.0}],
            "J": 1,
        }))
        code, _, err = run(capsys, "classify", "--in", str(path))
        assert code == 2 and "colligation" in err

    def test_malformed_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "classify", "--in", str(path))
        assert code == 1

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "classify", "--in", str(tmp_path / "nope.json"))
        assert code == 1

    @pytest.mark.parametrize("value, message", NOT_A_FLOAT)
    @pytest.mark.parametrize("template, field", [
        pytest.param('{"lambda0": {"re": %s, "im": 1}}', "'re' of 'lambda0'", id="lambda0"),
        pytest.param('{"T": [[{"re": 0, "im": %s}]], "K": [{"re": 1, "im": 0}]}',
                     "'im' of 'T' entry (0, 0)", id="T"),
    ])
    def test_non_float_number_exits_1(self, capsys, tmp_path, value, message, template, field):
        path = tmp_path / "sys.json"
        path.write_text(template % value)
        code, out, err = run(capsys, "classify", "--in", str(path))
        assert code == 1 and out == ""
        assert err == f"malformed input: {field} {message}\n"


class TestEntropySubcommand:
    def test_closed_and_resolvent(self, capsys):
        report = run_json(capsys, "entropy", "--lambda0", "0,2")
        import math
        assert report["entropy"] == pytest.approx(math.log(3), rel=1e-11)
        assert report["entropy_resolvent"] == pytest.approx(math.log(3), rel=1e-10)

    def test_long_chain_reads_the_sum_of_factor_entropies(self, capsys, tmp_path):
        import math

        from livsic import c_entropy_elementary_closed
        lams = [complex(0.25 * k - 4.0, 0.1 + 0.075 * k) for k in range(32)]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(_nested(lams)))
        report = run_json(capsys, "entropy", "--in", str(path))
        s_sum = sum(c_entropy_elementary_closed(lam) for lam in lams)
        assert report["entropy"] == pytest.approx(s_sum, rel=1e-11)
        assert report["dissipation"] == pytest.approx(1.0 - math.exp(-2.0 * s_sum), rel=1e-11)

    def test_near_unit_parameter_is_finite(self, capsys):
        report = run_json(capsys, "entropy", "--lambda0", "1e-170,1")
        assert report["entropy"] == report["entropy_resolvent"] == 392.13261299
        report = run_json(capsys, "entropy", "--lambda0", "1e-300,1")
        assert report["entropy"] == report["entropy_resolvent"] == 691.468675079

    def test_descriptor_input(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"lambda0": {"re": 1.0, "im": 1.0}}))
        report = run_json(capsys, "entropy", "--in", str(path))
        assert report["entropy"] == 0.804718956217

    def test_mirror_parameter_near_minus_i_is_finite(self, capsys, tmp_path):
        # S = (1/2) ln(1e-20/4); the small-S log1p form would round it to -inf
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"T": [[{"re": 1e-10, "im": -1}]],
                                    "K": [{"re": 1, "im": 0}], "J": -1}))
        report = run_json(capsys, "entropy", "--in", str(path))
        assert report["entropy"] == -23.7189981105 and report["dissipation"] == -4e20

    def test_dissipation_below_the_float_range_exits_2(self, capsys, tmp_path):
        # S = ln(1e-310) - ln 2, so D = 1 - exp(-2S) is about -4e620
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"T": [[{"re": 1e-310, "im": -1}]],
                                    "K": [{"re": 1, "im": 0}], "J": -1}))
        code, out, err = run(capsys, "entropy", "--in", str(path))
        assert code == 2 and out == ""
        assert err.startswith("invariant violation: D = 1 - exp(-2S) is below the float range "
                              "for S = -714.49") and err.count("\n") == 1


class TestSurface:
    def test_csv_layout_and_infinity(self, capsys):
        code, out, _ = run(capsys, "surface", "--grid=-2,2,0.25,3,81,12")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,S,D"
        assert len(lines) == 1 + 81 * 12
        assert "0,1,inf,1" in lines
        assert sum(1 for ln in lines if "inf" in ln) == 1

    def test_infinity_only_at_the_unit_node_near_i(self, capsys):
        code, out, _ = run(capsys, "surface", "--grid=-1e-160,1e-160,0.5,1.5,3,3")
        assert code == 0
        lines = out.splitlines()
        assert [ln for ln in lines if "inf" in ln] == ["0,1,inf,1"]
        assert "1e-160,1,369.10676206,1" in lines and "-1e-160,1,369.10676206,1" in lines

    def test_deterministic_bytes(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["surface", "--grid=-1,1,0.5,2,11,7", "--out", str(f1)]) == 0
        assert main(["surface", "--grid=-1,1,0.5,2,11,7", "--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()
        assert b"\r" not in f1.read_bytes()

    def test_domain_error(self, capsys):
        code, _, _ = run(capsys, "surface", "--grid=-1,1,0,2,5,5")
        assert code == 3

    @pytest.mark.parametrize("grid", ["-1,1,1,-1,3,3", "-1,1,nan,1,3,3", "-1,inf,1,2,3,3"])
    def test_non_finite_or_nonpositive_bounds_exit_3(self, capsys, grid):
        code, out, err = run(capsys, "surface", f"--grid={grid}")
        assert code == 3 and out == "" and "domain error" in err


class TestSynth:
    def test_netlist_from_json(self, capsys, tmp_path):
        path = tmp_path / "foster.json"
        path.write_text(json.dumps({"a0": 1.0, "stages": [{"a": 2.0, "b": 1.0}]}))
        code, out, _ = run(capsys, "synth", "--in", str(path))
        assert code == 0
        assert out == ("C0 n0 n1 1.00000000000\n"
                       "L1 n1 n2 2.00000000000\n"
                       "C1 n1 n2 0.500000000000\n"
                       ".end\n")

    def test_invariant_violation_exits_2(self, capsys, tmp_path):
        path = tmp_path / "foster.json"
        path.write_text(json.dumps({"a0": -1.0, "stages": []}))
        code, _, _ = run(capsys, "synth", "--in", str(path))
        assert code == 2

    def test_requires_input(self, capsys):
        code, _, _ = run(capsys, "synth")
        assert code == 1

    @pytest.mark.parametrize("doc, message", [
        ("{}", "Foster data has no key 'a0'"),
        ("[1]", "Foster data must be an object, got list"),
        ('{"a0": 1.0, "stages": 5}', "'stages' must be a list, got int"),
        ('{"a0": 1.0, "stages": [{"a": 2.0}]}', "Foster stage 1 has no key 'b'"),
        ('{"a0": 1.0, "stages": [{"a": 2.0, "b": 1.0}, 5]}', "Foster stage 2 must be an object, got int"),
    ])
    def test_malformed_data_exits_1(self, capsys, tmp_path, doc, message):
        path = tmp_path / "foster.json"
        path.write_text(doc)
        code, out, err = run(capsys, "synth", "--in", str(path))
        assert code == 1 and out == ""
        assert err == f"malformed input: {message}\n"

    @pytest.mark.parametrize("value, message", NOT_A_FLOAT)
    @pytest.mark.parametrize("template, field", [
        pytest.param('{"a0": %s}', "'a0' of Foster data", id="a0"),
        pytest.param('{"a0": 1, "stages": [{"a": 1, "b": 2}, {"a": 1, "b": %s}]}',
                     "'b' of Foster stage 2", id="b"),
    ])
    def test_non_float_number_exits_1(self, capsys, tmp_path, value, message, template, field):
        path = tmp_path / "foster.json"
        path.write_text(template % value)
        code, out, err = run(capsys, "synth", "--in", str(path))
        assert code == 1 and out == ""
        assert err == f"malformed input: {field} {message}\n"

    @pytest.mark.parametrize("doc", [
        {"a0": float("nan"), "stages": [{"a": 1.0, "b": 2.0}]},
        {"a0": 1.0, "stages": [{"a": float("nan"), "b": 2.0}]},
        {"a0": 1.0, "stages": [{"a": 1.0, "b": float("inf")}]},
    ])
    def test_non_finite_data_exits_2(self, capsys, tmp_path, doc):
        path = tmp_path / "foster.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "synth", "--in", str(path))
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("b", [1e-200, 1e-155])
    def test_tiny_resonance_exits_2(self, capsys, tmp_path, b):
        path = tmp_path / "foster.json"
        path.write_text(json.dumps({"a0": 0.0, "stages": [{"a": 1.0, "b": b}]}))
        code, out, err = run(capsys, "synth", "--in", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"invariant violation: stage 1 resonance {b!r} is too small")


    @pytest.mark.parametrize("b", [1e200, 1.35e154])
    def test_huge_resonance_exits_2(self, capsys, tmp_path, b):
        path = tmp_path / "foster.json"
        path.write_text(json.dumps({"a0": 0.0, "stages": [{"a": 1.0, "b": b}]}))
        code, out, err = run(capsys, "synth", "--in", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"invariant violation: stage 1 resonance {b!r} is too large")


    def test_subnormal_inductance_exits_2(self, capsys, tmp_path):
        path = tmp_path / "foster.json"
        path.write_text(json.dumps({"a0": 0.0, "stages": [{"a": 1.0, "b": 1.2e154},
                                                          {"a": 1.0, "b": 1.3e154}]}))
        code, out, err = run(capsys, "synth", "--in", str(path))
        assert code == 2 and out == ""
        assert err.startswith("invariant violation: component value 6.94")
        assert "below the smallest normal float" in err


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "42")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 13

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "--seed", "7")
        _, out2, _ = run(capsys, "verify", "--seed", "7")
        assert out1 == out2

    def test_failed_check_exits_2_and_says_so(self, capsys, monkeypatch):
        results = [verify.CheckResult("closed_form", 1e-15, 1e-10),
                   verify.CheckResult("broken", 2e-3, 1e-10)]
        monkeypatch.setattr(verify, "run_verification", lambda seed: results)
        code, out, err = run(capsys, "verify", "--seed", "3")
        assert code == 2
        assert out == ("closed_form: max_residual=1.000000e-15 tol=1e-10 PASS\n"
                       "broken: max_residual=2.000000e-03 tol=1e-10 FAIL\n"
                       "verification FAILED (2 checks, seed=3)\n")
        assert err == "invariant violation: verification failed: 1 of 2 checks over tolerance\n"


def _c(re, im):
    return {"re": re, "im": im}


def _nested(lams):
    """Balanced binary {"factors": [...]} tree over elementary factors."""
    if len(lams) == 1:
        return {"lambda0": _c(float(lams[0].real), float(lams[0].imag))}
    half = len(lams) // 2
    return {"factors": [_nested(lams[:half]), _nested(lams[half:])]}


def _round12(x):
    """x as the CLI reports it, to 12 significant digits."""
    return float(f"{x:.12g}")


def _json_nodes(doc, path=()):
    """(path, node) for doc and every node inside it, depth first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_nodes(value, path + (key,))


class TestExitCodeTable:
    """Seeded mutations of a system, a pair and a Foster descriptor, each
    read through ``--in``: every outcome is a row of the exit-code table."""

    SYSTEM = {"T": [[_c(0.5, 1.0), _c(0.0, 2.0)], [_c(0.0, 0.0), _c(-1.0, 1.0)]],
              "K": [_c(1.0, 0.0), _c(1.0, 0.0)], "J": 1}
    PAIR = {"factors": [{"lambda0": _c(1.0, 1.0)}, {"lambda0": _c(-0.5, 2.0)}]}
    FOSTER = {"a0": 1.0, "stages": [{"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 3.0}]}
    SEEDS = [SYSTEM, PAIR, FOSTER]
    CASES = [("classify", SYSTEM), ("entropy", SYSTEM), ("classify", PAIR), ("entropy", PAIR),
             ("couple", PAIR), ("couple", [SYSTEM, SYSTEM]), ("synth", FOSTER)]
    VALUES = [None, True, "x", [], {}, 0, -1, 2, -0.0, 1e308, 1e-320, 10 ** 400, [1],
              {"re": 1}, _c(0.0, 0.0), _c(1.0, -1.0), _c(1e308, 1e308), _c(1e-300, 1e-300)]
    SCALES = [0.0, -1.0, 3.0, 1e-300, 1e300]
    PREFIXES = {1: "malformed input: ", 2: "invariant violation: ", 3: "domain error: "}

    def _mutated(self, rng, doc):
        """doc with one or two numbers scaled, or nodes replaced or removed."""
        doc = copy.deepcopy(doc)
        for _ in range(rng.choice([1, 1, 2])):
            nodes = list(_json_nodes(doc))
            numbers = [(path, node) for path, node in nodes if isinstance(node, float)]
            path, node = rng.choice(numbers if numbers and rng.random() < 0.6 else nodes)
            if not path:
                doc = copy.deepcopy(rng.choice(self.VALUES + self.SEEDS))
                continue
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if isinstance(node, float) and rng.random() < 0.8:
                parent[path[-1]] = node * rng.choice(self.SCALES)
            elif rng.random() < 0.5:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(rng.choice(self.VALUES + self.SEEDS))
        return doc

    def test_every_outcome_is_a_row(self, capsys, tmp_path):
        rng = random.Random(5)
        path = tmp_path / "doc.json"
        codes = set()
        for _ in range(1000):
            sub, seed = rng.choice(self.CASES)
            text = json.dumps(self._mutated(rng, seed))
            if rng.random() < 0.05:
                text = text[:rng.randrange(len(text))]
            path.write_text(text)
            code, out, err = run(capsys, sub, "--in", str(path))
            if code:
                assert code in self.PREFIXES and out == "", (sub, text, code, err)
                assert err.startswith(self.PREFIXES[code]), (sub, text, code, err)
                assert err.count("\n") == 1, (sub, text, err)
            else:
                assert out and err == "", (sub, text, err)
            codes.add(code)
        assert codes == {0, 1, 2, 3}


#: The README examples whose stdout the benchmark pins byte for byte.
README_EXAMPLES = {
    "elementary": ["elementary", "--lambda0", "1,1"],
    "skew": ["skew", "--lambda0", "1,1"],
    "couple": ["couple", "--lambda0", "0,0.5", "--mu0", "0,0.5"],
    "surface": ["surface", "--grid=-2,2,0.05,3,81,60"],
    "verify": ["verify", "--seed", "42"],
}
GOLDENS = Path(__file__).resolve().parents[1] / "bench" / "goldens.json"


class TestGoldens:
    def test_goldens_cover_the_examples(self):
        assert json.loads(GOLDENS.read_text()).keys() == README_EXAMPLES.keys()

    @pytest.mark.parametrize("name", sorted(README_EXAMPLES))
    def test_stdout_matches_pinned_digest(self, capsys, name):
        code, out, _ = run(capsys, *README_EXAMPLES[name])
        data = out.encode()
        assert code == 0
        digest = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        assert digest == json.loads(GOLDENS.read_text())[name]
