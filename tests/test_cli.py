"""Command-line interface: reports, exit codes, artifacts, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from livsic.cli import main, system_from_descriptor


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "elementary", "--lambda0", "1,-1")
        assert code == 3 and "domain" in err

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


    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("bare_list", [False, True])
    def test_in_needs_exactly_two_factors(self, capsys, tmp_path, count, bare_list):
        factors = [{"lambda0": {"re": 0.0, "im": 1.0 + k}} for k in range(count)]
        path = tmp_path / "factors.json"
        path.write_text(json.dumps(factors if bare_list else {"factors": factors}))
        for sub in ("couple", "classify"):
            code, out, err = run(capsys, sub, "--in", str(path))
            assert code == 1 and out == ""
            assert f"coupling descriptor needs 2 factors, got {count}" in err


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


class TestEntropySubcommand:
    def test_closed_and_resolvent(self, capsys):
        report = run_json(capsys, "entropy", "--lambda0", "0,2")
        import math
        assert report["entropy"] == pytest.approx(math.log(3), rel=1e-11)
        assert report["entropy_resolvent"] == pytest.approx(math.log(3), rel=1e-10)

    def test_descriptor_input(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"lambda0": {"re": 1.0, "im": 1.0}}))
        report = run_json(capsys, "entropy", "--in", str(path))
        assert report["entropy"] == 0.804718956217


class TestSurface:
    def test_csv_layout_and_infinity(self, capsys):
        code, out, _ = run(capsys, "surface", "--grid=-2,2,0.25,3,81,12")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,S,D"
        assert len(lines) == 1 + 81 * 12
        assert "0,1,inf,1" in lines
        assert sum(1 for ln in lines if "inf" in ln) == 1

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
