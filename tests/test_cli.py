"""Tests for the command-line interface, file formats, and exit codes."""

import contextlib
import hashlib
import io
import json
import random
import tempfile
import time
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from golden_data import F0, N, PLAN_G6
from gspmax import construct, goldbach
from gspmax.arith import poly_mul
from gspmax.cli import (
    MAX_SCAN_BOUND,
    SCAN_BOUND_ENV,
    certificate_from_json,
    certificate_to_json,
    main,
)
from gspmax.construct import TripleRootScreen
from gspmax.verify import FLAG_NAMES, check_hypotheses


def _flag_statuses(output: str) -> dict[str, str]:
    statuses = {}
    for line in output.splitlines():
        parts = line.split(None, 2)
        if len(parts) >= 2 and parts[0] in FLAG_NAMES:
            statuses[parts[0]] = parts[1]
    return statuses


def _write_poly(path, coeffs) -> None:
    data = {"degree": len(coeffs) - 1, "coeffs": [str(c) for c in coeffs]}
    path.write_text(json.dumps(data))


_DROP = object()


def _mutated_text(data, path, replacement) -> str:
    """The JSON text of data with the value at path dropped or replaced."""
    if not path:
        return "" if replacement is _DROP else json.dumps(replacement)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if replacement is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return json.dumps(data)


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cert = root / "cert.json"
    poly = root / "f.json"
    code = main(
        ["construct", "--genus", "6", "--fixture", "--out", str(cert), "--poly-out", str(poly)]
    )
    assert code == 0
    return cert, poly


@pytest.fixture(scope="module")
def seed0_files(tmp_path_factory):
    """Seed-0 certificate and polynomial paths for genus 6, 8 and 10."""
    root = tmp_path_factory.mktemp("seed0")
    files = {}
    for g in (6, 8, 10):
        cert, poly = root / f"cert{g}.json", root / f"f{g}.json"
        code = main(
            ["construct", "--genus", str(g), "--out", str(cert), "--poly-out", str(poly)]
        )
        assert code == 0
        files[g] = cert, poly
    return files


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(SCAN_BOUND_ENV, raising=False)


class TestGoldbachCommand:
    def test_max_lists_exceptions(self, capsys):
        assert main(["goldbach", "--max", "100"]) == 0
        out = capsys.readouterr().out
        assert "exceptions up to 100: 4, 6, 8, 10, 12, 16, 28" in out

    def test_genus_lists_tuples(self, capsys):
        assert main(["goldbach", "--genus", "6"]) == 0
        out = capsys.readouterr().out
        assert "14 = 7 + 7 = 3 + 11, q3 = 13" in out

    def test_exceptional_genus_reports_and_exits_zero(self, capsys):
        assert main(["goldbach", "--genus", "7"]) == 0
        out = capsys.readouterr().out
        assert "genus 7 is exceptional" in out
        assert "known excluded primes for genus 7: 5, 11, 13" in out

    def test_exceptional_genus_without_table_row(self, capsys):
        assert main(["goldbach", "--genus", "1"]) == 0
        out = capsys.readouterr().out
        assert "exceptional" in out
        assert "excluded" not in out

    def test_requires_exactly_one_mode(self):
        with pytest.raises(SystemExit) as info:
            main(["goldbach"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["goldbach", "--max", "10", "--genus", "6"])
        assert info.value.code == 2

    def test_bad_bound_is_usage_error(self):
        assert main(["goldbach", "--max", "3"]) == 2

    def test_max_above_cap_is_usage_error_before_any_sieve(self, capsys, monkeypatch):
        def no_sieve(bound):
            raise AssertionError(f"sieve to {bound} was started")

        monkeypatch.setattr(goldbach, "primes_up_to", no_sieve)
        for value in (MAX_SCAN_BOUND + 1, 10**40):
            assert main(["goldbach", "--max", str(value)]) == 2
            err = capsys.readouterr().err
            assert err == f"gspmax: --max must be at most {MAX_SCAN_BOUND}, got {value}\n"


class TestConstructCommand:
    def test_fixture_certificate_matches_goldens(self, fixture_files):
        cert_path, _ = fixture_files
        data = json.loads(cert_path.read_text())
        assert data["schema"] == 1
        assert data["genus"] == 6
        assert data["N"] == str(N)
        assert data["f0"] == [str(c) for c in F0]
        assert data["plan"] == PLAN_G6
        assert data["tuple"] == {"q1": 7, "q2": 7, "q3": 13, "q4": 3, "q5": 11}
        assert len(data["specs"]) == 11
        assert data["repair"]["z"] == "0"
        assert data["repair"]["f"] == data["f0"]
        assert data["repair"]["status"] == "clean"
        assert data["repair"]["found_primes"] == ["2", "17", "19", "37", "41"]
        assert data["repair"]["residual_cofactor"] == "1"
        assert data["report"]["verdict"]["kind"] == "maximal-all-ell"
        assert data["report"]["verdict"]["conditional"] is False

    def test_polynomial_file_matches_goldens(self, fixture_files):
        _, poly_path = fixture_files
        data = json.loads(poly_path.read_text())
        assert data["degree"] == 14
        assert data["coeffs"] == [str(c) for c in F0]

    @pytest.mark.parametrize(
        "options, digest",
        [
            (
                ["--genus", "6", "--fixture"],
                "969a4c832ecfb04c9ca7ba7515f260c29a9a3e2637503991fa8c27b675cfb8fb",
            ),
            (
                ["--genus", "6", "--seed", "0"],
                "343830b9139d1e5400e4b18432817b1bcd06047dacdc58b8a1eb7f3978340ff0",
            ),
            (
                ["--genus", "14", "--seed", "0"],
                "59ebe49f70940e687653d1b6664d7e5e0d1b44702b4a63e0290c6624f174c0ac",
            ),
            (
                ["--genus", "20", "--seed", "0"],
                "58045096fb8bd638e0343e9260bedd94d883fb9a58e63ae5aef279735fb76d25",
            ),
        ],
    )
    def test_certificate_file_digest_is_pinned(self, tmp_path, options, digest):
        out = tmp_path / "cert.json"
        assert main(["construct", *options, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "options, scan, code, digest",
        [
            (
                ["--genus", "6", "--fixture"],
                [],
                0,
                "98fd442be24371b447792a730fed232e5eb25bfffed551bcbd13fc79fbbe7a0a",
            ),
            (
                ["--genus", "6", "--fixture"],
                ["--scan-bound", "10"],
                3,
                "43213131e1e180757584f34091935db076cf300330966a85b8737a5b01a21ed6",
            ),
            (
                ["--genus", "6", "--seed", "0"],
                [],
                0,
                "c30bbf8dd38d6c926db8c41ba99b31fca6a8f65164c803d66f2eda053db36142",
            ),
        ],
    )
    def test_verify_output_digest_is_pinned(self, tmp_path, capsys, options, scan, code, digest):
        # construct and verify run at the same scan bound
        cert, poly = tmp_path / "cert.json", tmp_path / "f.json"
        files = ["--out", str(cert), "--poly-out", str(poly)]
        assert main(["construct", *options, *scan, *files]) == code
        capsys.readouterr()
        assert main(["verify", "--poly", str(poly), "--cert", str(cert), *scan]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_broken_witness_shows_as_failing_flag(self, tmp_path, monkeypatch):
        real = construct.witness_poly

        def broken(spec, g, **kwargs):
            if spec.kind == "irreducible":
                return [-1] + [0] * (2 * g + 1) + [1]  # x^(2g+2) - 1 splits mod p_irr
            return real(spec, g, **kwargs)

        monkeypatch.setattr(construct, "witness_poly", broken)
        out = tmp_path / "cert.json"
        assert main(["construct", "--genus", "6", "--fixture", "--out", str(out)]) == 1
        flags = json.loads(out.read_text())["report"]["flags"]
        statuses = {fl["name"]: fl["status"] for fl in flags}
        assert statuses.pop("S_2g+2") == "fail"
        assert set(statuses.values()) == {"pass"}

    def test_exhausted_witness_search_is_construction_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        real = construct.witness_poly

        def starved(spec, g, **kwargs):
            if spec.kind == "irreducible":
                kwargs["budget"] = 0
            return real(spec, g, **kwargs)

        monkeypatch.setattr(construct, "witness_poly", starved)
        out = tmp_path / "cert.json"
        assert main(["construct", "--genus", "6", "--out", str(out)]) == 5
        assert capsys.readouterr().err == "gspmax: construction failed: no witness found\n"
        assert not out.exists()

    def test_unrepairable_triple_root_is_construction_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        real = construct.witness_poly

        def cubed(spec, g, **kwargs):
            if spec.kind == "irreducible":
                return [0] * (2 * g + 2) + [1]  # x^(2g+2): one root of multiplicity 2g+2
            return real(spec, g, **kwargs)

        monkeypatch.setattr(construct, "witness_poly", cubed)
        out = tmp_path / "cert.json"
        assert main(["construct", "--genus", "6", "--fixture", "--out", str(out)]) == 5
        assert capsys.readouterr().err == (
            "gspmax: construction failed: unrepairable multiplicity-3 root at 23 dividing n\n"
        )
        assert not out.exists()

    def test_construct_screens_once_and_verify_screens_again(self, tmp_path, resultant_calls):
        cert, poly = tmp_path / "cert.json", tmp_path / "f.json"
        args = ["--genus", "10", "--seed", "0", "--out", str(cert), "--poly-out", str(poly)]
        assert main(["construct", *args]) == 0
        # the repair's Res(f', f'') and Res(f, f''); the report reuses its screen
        assert resultant_calls == [(22, 21), (23, 21)]
        resultant_calls.clear()
        assert main(["verify", "--poly", str(poly), "--cert", str(cert)]) == 0
        assert resultant_calls == [(22, 21), (23, 21)]

    def test_rerun_is_byte_identical(self, fixture_files, tmp_path):
        cert_path, _ = fixture_files
        again = tmp_path / "again.json"
        assert main(["construct", "--genus", "6", "--fixture", "--out", str(again)]) == 0
        assert again.read_bytes() == cert_path.read_bytes()

    def test_exceptional_genus_exits_four(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(["construct", "--genus", "7", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "admits no prime tuple" in err
        assert "known excluded primes for genus 7: 5, 11, 13" in err
        assert not out.exists()

    def test_fixture_flag_limited_to_genus_6(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["construct", "--genus", "8", "--fixture", "--out", str(out)])
        assert code == 2

    @pytest.mark.parametrize("genus", ["6", "8"])
    def test_negative_seed_is_usage_error_before_any_build(
        self, tmp_path, capsys, monkeypatch, genus
    ):
        # -1 is the fixture seed inside the library; the command line takes it only via --fixture
        def no_build(*args, **kwargs):
            raise AssertionError("build started")

        monkeypatch.setattr("gspmax.cli.build_certificate", no_build)
        out, poly = tmp_path / "cert.json", tmp_path / "f.json"
        argv = ["construct", "--genus", genus, "--seed", "-1", "--out", str(out)]
        assert main([*argv, "--poly-out", str(poly)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "gspmax: --seed must be non-negative, got -1\n"
        assert captured.out == ""
        assert not out.exists() and not poly.exists()


class TestVerifyCommand:
    def test_fixture_verifies_unconditionally(self, fixture_files, capsys):
        cert_path, poly_path = fixture_files
        code = main(["verify", "--poly", str(poly_path), "--cert", str(cert_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "congruent to the certified class mod N: yes" in out
        assert _flag_statuses(out) == dict.fromkeys(FLAG_NAMES, "pass")
        assert "verdict: maximal-all-ell [full-hypothesis-set]" in out
        assert "conditional" not in out

    def test_fixture_verifies_conditionally(self, fixture_files, capsys):
        # below 17 the screen leaves G's composite part 17^a 19^b 37^c 41^d
        cert_path, poly_path = fixture_files
        code = main(
            ["verify", "--poly", str(poly_path), "--cert", str(cert_path),
             "--scan-bound", "10"]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "congruent to the certified class mod N: yes" in out
        statuses = _flag_statuses(out)
        assert set(statuses) == set(FLAG_NAMES)
        assert statuses["ss"] == "conditional"
        assert all(v == "pass" for k, v in statuses.items() if k != "ss")
        assert "composite cofactor of 285 bits remains above the scan bound" in out
        assert "verdict: maximal-all-ell [full-hypothesis-set]" in out
        assert "(conditional on no triple roots above the scan bound)" in out

    def test_clean_class_member_verifies_with_identical_flags(
        self, fixture_files, tmp_path, capsys
    ):
        cert_path, poly_path = fixture_files
        code = main(["verify", "--poly", str(poly_path), "--cert", str(cert_path)])
        base = _flag_statuses(capsys.readouterr().out)
        shifted = list(F0)
        shifted[1] += 2 * N
        member = tmp_path / "member.json"
        _write_poly(member, shifted)
        code = main(["verify", "--poly", str(member), "--cert", str(cert_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert _flag_statuses(out) == base

    def test_class_member_with_stray_triple_root_fails_honestly(
        self, fixture_files, tmp_path, capsys
    ):
        cert_path, _ = fixture_files
        shifted = list(F0)
        shifted[1] += N
        member = tmp_path / "member.json"
        _write_poly(member, shifted)
        code = main(["verify", "--poly", str(member), "--cert", str(cert_path)])
        out = capsys.readouterr().out
        assert code == 1
        statuses = _flag_statuses(out)
        assert statuses["ss"] == "fail"
        for name in ("2T", "p2", "p3", "p2'", "p3'", "S_2g+2"):
            assert statuses[name] == "pass"
        assert "stray triple-root primes" in out and "[13]" in out

    def test_perturbed_polynomial_breaks_congruence(self, fixture_files, tmp_path, capsys):
        cert_path, _ = fixture_files
        perturbed = list(F0)
        perturbed[1] += 1
        member = tmp_path / "member.json"
        _write_poly(member, perturbed)
        code = main(["verify", "--poly", str(member), "--cert", str(cert_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "leaves the certified congruence class" in out

    def test_truncated_certificate_is_usage_error(self, fixture_files, tmp_path, capsys):
        cert_path, poly_path = fixture_files
        broken = tmp_path / "broken.json"
        broken.write_bytes(cert_path.read_bytes()[:200])
        code = main(["verify", "--poly", str(poly_path), "--cert", str(broken)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_malformed_polynomial_is_usage_error(self, fixture_files, tmp_path, capsys):
        cert_path, _ = fixture_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"degree": 14, "coeffs": ["1", "2"]}))
        code = main(["verify", "--poly", str(bad), "--cert", str(cert_path)])
        assert code == 2
        assert "malformed polynomial file" in capsys.readouterr().err

    def test_scan_bound_env_and_flag_precedence(
        self, fixture_files, tmp_path, capsys, monkeypatch
    ):
        cert_path, poly_path = fixture_files
        monkeypatch.setenv(SCAN_BOUND_ENV, "950")
        assert main(["verify", "--poly", str(poly_path), "--cert", str(cert_path)]) == 0
        assert "to 950" in capsys.readouterr().out
        code = main(
            ["verify", "--poly", str(poly_path), "--cert", str(cert_path),
             "--scan-bound", "1200"]
        )
        assert code == 0
        assert "to 1200" in capsys.readouterr().out

    def test_invalid_scan_bound_env_is_usage_error(
        self, fixture_files, capsys, monkeypatch
    ):
        cert_path, poly_path = fixture_files
        monkeypatch.setenv(SCAN_BOUND_ENV, "many")
        assert main(["verify", "--poly", str(poly_path), "--cert", str(cert_path)]) == 2
        assert SCAN_BOUND_ENV in capsys.readouterr().err

    def test_scan_bound_above_cap_is_usage_error_before_any_sieve(
        self, fixture_files, tmp_path, capsys, monkeypatch
    ):
        def no_sieve(bound):
            raise AssertionError(f"sieve to {bound} was started")

        monkeypatch.setattr(construct, "primes_up_to", no_sieve)
        monkeypatch.setattr(construct, "iter_primes", no_sieve)
        cert_path, poly_path = fixture_files
        huge = str(10**40)
        verify = ["verify", "--poly", str(poly_path), "--cert", str(cert_path)]
        assert main(verify + ["--scan-bound", huge]) == 2
        err = capsys.readouterr().err
        assert err == f"gspmax: scan bound must be between 2 and {MAX_SCAN_BOUND}, got {huge}\n"
        monkeypatch.setenv(SCAN_BOUND_ENV, str(MAX_SCAN_BOUND + 1))
        assert main(verify) == 2
        out = tmp_path / "cert.json"
        assert main(["construct", "--genus", "6", "--out", str(out)]) == 2
        assert "scan bound must be between" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("top", ["[1, 2]", '"cert"', "7", "null"])
    def test_non_object_files_are_usage_errors(
        self, fixture_files, tmp_path, capsys, top
    ):
        cert_path, poly_path = fixture_files
        bad = tmp_path / "bad.json"
        bad.write_text(top)
        assert main(["verify", "--poly", str(poly_path), "--cert", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == f"gspmax: malformed certificate file {bad}: not a JSON object\n"
        assert main(["verify", "--poly", str(bad), "--cert", str(cert_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"gspmax: malformed polynomial file {bad}: not a JSON object\n"

    @pytest.mark.parametrize(
        "content",
        [b'{"degree": ' + b"9" * 4301 + b"}", b'{"degree": "\xff"}'],
        ids=["oversized-number", "invalid-utf8"],
    )
    def test_unparseable_bytes_are_usage_errors(self, fixture_files, tmp_path, capsys, content):
        # a number past the int digit limit and invalid UTF-8 both raise
        # ValueError, not JSONDecodeError, inside json.load
        cert_path, poly_path = fixture_files
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        for argv in (["--poly", str(bad), "--cert", str(cert_path)],
                     ["--poly", str(poly_path), "--cert", str(bad)]):
            assert main(["verify", *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"gspmax: {bad} is not valid JSON: ")
            assert err.count("\n") == 1

    def test_non_object_spec_entry_is_usage_error(self, fixture_files, tmp_path, capsys):
        cert_path, poly_path = fixture_files
        data = json.loads(cert_path.read_text())
        data["specs"][0] = [1, 2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", "--poly", str(poly_path), "--cert", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gspmax: malformed certificate file {bad}: ")
        assert err.count("\n") == 1


class TestInertiaCommand:
    def test_pair_block_type(self, fixture_files, capsys):
        _, poly_path = fixture_files
        assert main(["inertia", "--poly", str(poly_path), "--prime", "19"]) == 0
        out = capsys.readouterr().out
        assert "type 1-{7,7} recognized at 19" in out
        assert "2 x size 7 at depth 1/7" in out
        assert "-zeta_7^j for j = 1..6, each 2 times" in out
        assert "tame inertia order divides 98" in out

    def test_single_block_type(self, fixture_files, capsys):
        _, poly_path = fixture_files
        assert main(["inertia", "--poly", str(poly_path), "--prime", "37"]) == 0
        out = capsys.readouterr().out
        assert "type 2-{13} recognized at 37" in out
        assert "size 13 at depth 2/13" in out
        assert "zeta_13^j for j = 1..12" in out
        assert "tame inertia order divides 26" in out

    def test_totally_toric_prime(self, fixture_files, capsys):
        _, poly_path = fixture_files
        assert main(["inertia", "--poly", str(poly_path), "--prime", "3"]) == 0
        out = capsys.readouterr().out
        assert "no t-Eisenstein block pattern recognized at 3" in out
        assert "semistable at 3, toric dimension 6 (totally toric)" in out
        assert "6 x size 2" in out

    def test_autodetects_depth_parameter(self, fixture_files, capsys):
        _, poly_path = fixture_files
        assert main(["inertia", "--poly", str(poly_path), "--prime", "17"]) == 0
        out = capsys.readouterr().out
        assert "type 2-{11} recognized at 17" in out
        assert "eigenvalue 1 with multiplicity 2" in out

    def test_good_reduction_prime(self, fixture_files, capsys):
        _, poly_path = fixture_files
        assert main(["inertia", "--poly", str(poly_path), "--prime", "101"]) == 0
        out = capsys.readouterr().out
        assert "semistable at 101, toric dimension 0" in out

    def test_composite_prime_is_usage_error(self, fixture_files, capsys):
        _, poly_path = fixture_files
        assert main(["inertia", "--poly", str(poly_path), "--prime", "15"]) == 2
        assert "odd prime" in capsys.readouterr().err

    def test_partial_override_is_usage_error(self, fixture_files, capsys):
        _, poly_path = fixture_files
        code = main(["inertia", "--poly", str(poly_path), "--prime", "17", "--t", "2"])
        assert code == 2
        assert "together" in capsys.readouterr().err

    def test_block_size_sharing_a_factor_with_t_is_usage_error(self, tmp_path, capsys):
        # (x^3 - 125)(x^11 + x + 1) has type 3-{3} at 5, but 3 divides t = 3
        poly = tmp_path / "cube.json"
        _write_poly(poly, poly_mul([-125, 0, 0, 1], [1, 1] + [0] * 9 + [1]))
        code = main(["inertia", "--poly", str(poly), "--prime", "5", "--t", "3", "--qs", "3"])
        assert code == 2
        assert capsys.readouterr().err == "gspmax: block sizes must be coprime to t\n"

    def test_repeated_factor_is_usage_error(self, tmp_path, capsys):
        poly = tmp_path / "square.json"
        _write_poly(poly, [1, -2, 1] + [0] * 9 + [1, -2, 1])
        assert main(["inertia", "--poly", str(poly), "--prime", "5"]) == 2
        assert "squarefree" in capsys.readouterr().err


class TestCertificateRoundTrip:
    @pytest.mark.parametrize(
        "options, code, status",
        [
            (["--genus", "6", "--fixture"], 0, "clean"),
            (["--genus", "6", "--fixture", "--scan-bound", "10"], 3, "conditional"),
            (["--genus", "8", "--seed", "0"], 0, "clean"),
            (["--genus", "10", "--seed", "0"], 0, "clean"),
        ],
        ids=["fixture", "fixture-scan-10", "seed0-g8", "seed0-g10"],
    )
    def test_lossless(self, tmp_path, options, code, status):
        cert_path = tmp_path / "cert.json"
        assert main(["construct", *options, "--out", str(cert_path)]) == code
        data = json.loads(cert_path.read_text())
        assert data["repair"]["status"] == status
        cert, report = certificate_from_json(data)
        assert cert.repair.status == status
        assert certificate_to_json(cert, report) == data

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("status", "conditional", 'repair.status: stored "conditional", expected "clean"'),
            ("residual_cofactor", "6", 'repair.status: stored "clean", expected "conditional"'),
        ],
        ids=["status-conditional", "residual_cofactor-6"],
    )
    def test_status_that_disagrees_with_the_screen_is_usage_error(
        self, fixture_files, tmp_path, capsys, key, value, message
    ):
        cert_path, poly_path = fixture_files
        data = json.loads(cert_path.read_text())
        data["repair"][key] = value
        other = tmp_path / "status.json"
        other.write_text(json.dumps(data))
        assert main(["verify", "--poly", str(poly_path), "--cert", str(other)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("gspmax: malformed certificate file")
        assert lines[0] == f"gspmax: malformed certificate file {other}: {message}"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("scan", "found_primes", ["3"]),
            ("verdict", "kind", "none"),
            (None, "admissible_derived", False),
        ],
    )
    def test_report_that_does_not_follow_from_its_evidence_is_usage_error(
        self, fixture_files, tmp_path, capsys, section, key, value
    ):
        cert_path, poly_path = fixture_files
        data = json.loads(cert_path.read_text())
        report = data["report"]
        (report if section is None else report[section])[key] = value
        other = tmp_path / "report.json"
        other.write_text(json.dumps(data))
        assert main(["verify", "--poly", str(poly_path), "--cert", str(other)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"gspmax: malformed certificate file {other}: ")

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("f", lambda f: [str(int(c) + 1) for c in f]),
            ("n_tilde", lambda _: "7"),
            ("z", lambda _: "12345"),
        ],
        ids=["f-plus-one", "n_tilde-7", "z-12345"],
    )
    def test_repair_that_does_not_follow_from_its_actions_is_usage_error(
        self, fixture_files, tmp_path, capsys, key, edit
    ):
        cert_path, poly_path = fixture_files
        data = json.loads(cert_path.read_text())
        repair = data["repair"]
        f0, n_tilde, z = int(repair["f"][0]), int(repair["n_tilde"]), int(repair["z"])
        message = {
            "f": f'repair.f[0]: stored "{f0 + 1}", expected "{f0}"',
            "n_tilde": f'repair.n_tilde: stored "7", expected "{n_tilde}"',
            "z": f'repair.f[0]: stored "{f0}", expected "{f0 + (12345 - z) * n_tilde}"',
        }[key]
        repair[key] = edit(repair[key])
        bad = tmp_path / "repair.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", "--poly", str(poly_path), "--cert", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gspmax: malformed certificate file {bad}: {message}\n"

    def test_unavailable_screen_survives_the_report_round_trip(self, fixture_files):
        # f = x^14 + 3: f' and f'' share the root 0, so no screen can be taken;
        # the repaired f itself is derived from f0, so only the screen is swapped
        cert, _ = certificate_from_json(json.loads(fixture_files[0].read_text()))
        f = (3,) + (0,) * 13 + (1,)
        report = check_hypotheses(list(f), cert.plan, scan_bound=10**3)
        assert report.screen == TripleRootScreen((), 0, 10**3)
        cert = replace(cert, repair=replace(cert.repair, screen=report.screen))
        data = certificate_to_json(cert, report)
        assert data["report"]["scan"] == {
            "bound": 10**3, "found_primes": [], "bad_primes": [], "residual_cofactor": "0"
        }
        assert certificate_from_json(json.loads(json.dumps(data))) == (cert, report)

    def test_unknown_schema_is_usage_error(self, fixture_files, tmp_path, capsys):
        cert_path, poly_path = fixture_files
        data = json.loads(cert_path.read_text())
        data["schema"] = 2
        other = tmp_path / "v2.json"
        other.write_text(json.dumps(data))
        assert main(["verify", "--poly", str(poly_path), "--cert", str(other)]) == 2
        assert "unsupported certificate schema" in capsys.readouterr().err

    def test_tampered_plan_is_usage_error(self, fixture_files, tmp_path, capsys):
        cert_path, poly_path = fixture_files
        data = json.loads(cert_path.read_text())
        data["plan"]["p_2"] = 20
        other = tmp_path / "tampered.json"
        other.write_text(json.dumps(data))
        assert main(["verify", "--poly", str(poly_path), "--cert", str(other)]) == 2
        assert "malformed certificate file" in capsys.readouterr().err


class TestCertifiedClass:
    # each id names the defect; {N} in a message is the certificate's own N
    @pytest.mark.parametrize(
        "path, value, message",
        [
            pytest.param(
                ("N",), "0", 'N: stored "0", expected "{N}"',
                id="N-0-N is not the product of the spec moduli",
            ),
            pytest.param(
                ("N",), "-5", 'N: stored "-5", expected "{N}"',
                id="N--5-N is not the product of the spec moduli",
            ),
            pytest.param(
                ("N",), "1", 'N: stored "1", expected "{N}"',
                id="N-1-N is not the product of the spec moduli",
            ),
            pytest.param(
                ("specs",), [], "specs: stored 0 entries, expected 11",
                id="specs-value3-the specs are not the local conditions of the plan",
            ),
            pytest.param(
                ("genus",), "100000000000", "f0 must have 2g + 3 coefficients",
                id="genus-100000000000-f0 must have 2g + 3 coefficients",
            ),
            pytest.param(
                ("f0",), ["1"], "f0 must have 2g + 3 coefficients",
                id="f0-value5-f0 must have 2g + 3 coefficients",
            ),
            pytest.param(
                ("specs", -1), _DROP, "specs: stored 10 entries, expected 11",
                id="specs-without-the-2-adic-entry",
            ),
            pytest.param(
                ("comment",), "x", "comment: unexpected", id="unknown-top-level-key"
            ),
            pytest.param(
                ("specs", 0, "note"), "x", "specs[0].note: unexpected",
                id="unknown-key-in-a-spec-entry",
            ),
            pytest.param(
                ("genus",), "6", 'genus: stored "6", expected 6', id="genus-as-a-string"
            ),
            pytest.param(
                ("report", "partial_admissible"), 1,
                "report.partial_admissible: stored 1, expected true",
                id="partial-admissibility-as-an-integer",
            ),
            pytest.param(
                ("genus",), {"a": list(range(30))}, "not a decimal integer: an object",
                id="genus-as-an-object-is-named-by-its-kind",
            ),
            pytest.param(
                ("report", "flags", 0, "name"), "bogus", "unknown flag name 'bogus'",
                id="unknown-flag-name",
            ),
            pytest.param(
                ("report", "flags", 0, "detail"), {"any": [1, 2]},
                "flag name, status and detail must be strings",
                id="flag-detail-as-an-object",
            ),
            pytest.param(
                ("report", "flags", -1), _DROP,
                "flags must be 2G+eps, 2T, TT, p2, p3, p2', p3', 3, S_2g+2, ss, in that order",
                id="report-without-the-ss-flag",
            ),
        ],
    )
    def test_class_that_misses_the_plan_is_usage_error(
        self, seed0_files, tmp_path, capsys, path, value, message
    ):
        cert_path, poly_path = seed0_files[6]
        data = json.loads(cert_path.read_text())
        message = message.format(N=data["N"])
        bad = tmp_path / "bad.json"
        bad.write_text(_mutated_text(data, path, value))
        assert main(["verify", "--poly", str(poly_path), "--cert", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"gspmax: malformed certificate file {bad}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "kind, fields",
        [("good_reduction_2", {"m": 10**11}), ("type", {"t": 10**11, "m": 10**11 + 1})],
    )
    def test_huge_exponent_is_rejected_before_any_power(
        self, fixture_files, tmp_path, capsys, kind, fields
    ):
        # p ** m for these entries would not finish; every modulus comes from
        # the plan's menu, and the round trip rejects the stored exponent
        cert_path, poly_path = fixture_files
        data = json.loads(cert_path.read_text())
        i, entry = next((i, e) for i, e in enumerate(data["specs"]) if e["kind"] == kind)
        message = f"specs[{i}].m: stored {fields['m']}, expected {entry['m']}"
        entry.update(fields)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        start = time.perf_counter()
        assert main(["verify", "--poly", str(poly_path), "--cert", str(bad)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"gspmax: malformed certificate file {bad}: {message}\n"

    def test_altered_witness_is_usage_error(self, seed0_files, tmp_path, capsys):
        cert_path, poly_path = seed0_files[6]
        data = json.loads(cert_path.read_text())
        entry = data["specs"][0]
        entry["witness"][0] = str(int(entry["witness"][0]) + 1)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", "--poly", str(poly_path), "--cert", str(bad)]) == 2
        modulus = entry["modulus"]
        assert capsys.readouterr().err == (
            f"gspmax: malformed certificate file {bad}: "
            f"f0 does not match the witness at {entry['prime']} mod {modulus}\n"
        )

    def test_constructed_certificates_and_class_members_still_verify(
        self, fixture_files, seed0_files, tmp_path, capsys
    ):
        cert_path, poly_path = fixture_files
        assert main(["verify", "--poly", str(poly_path), "--cert", str(cert_path)]) == 0
        # members f + N*h as drawn by the verify-class benchmark workload; all
        # exit 0 at the commit before the class checks were added
        rng = random.Random("class-members")
        for g, count in ((6, 3), (8, 1), (10, 1)):
            cert_path, poly_path = seed0_files[g]
            assert main(["verify", "--poly", str(poly_path), "--cert", str(cert_path)]) == 0
            data = json.loads(cert_path.read_text())
            f = [int(c) for c in data["repair"]["f"]]
            n = int(data["N"])
            for _ in range(count):
                h = [rng.randrange(n) for _ in range(2 * g + 2)]
                member = tmp_path / "member.json"
                _write_poly(member, [a + n * b for a, b in zip(f, h + [0])])
                assert main(["verify", "--poly", str(member), "--cert", str(cert_path)]) == 0
        assert "malformed" not in capsys.readouterr().err


_REPLACEMENTS = [_DROP, 0, -5, 10**11, "100000000000", "9" * 4300, "x", None, 1.5, True, [], {}]

# (file, key path) pairs to mutate; -1 is the last item of a list, so
# ("specs", -1) is the 2-adic entry and dropping ("f0", -1) shortens f0
_TARGETS = (
    [("poly", ()), ("poly", ("degree",)), ("poly", ("coeffs",)), ("poly", ("coeffs", -1))]
    + [("cert", path) for path in [
        (), ("schema",), ("genus",), ("N",), ("f0",), ("f0", -1), ("specs",), ("specs", 0),
        ("tuple",), ("tuple", "q3"), ("plan",), ("plan", "p_2"), ("plan", "p_irr"),
        ("repair",), ("repair", "f"), ("repair", "z"), ("repair", "n_tilde"),
        ("repair", "pre_stage"), ("repair", "status"), ("report",), ("report", "flags"),
        ("report", "flags", 0, "name"), ("report", "flags", 0, "detail"),
        ("report", "scan", "found_primes"), ("report", "verdict", "text"),
        ("report", "mod_2", "full_cycle"),
    ]]
    + [
        ("cert", ("specs", i, key))
        for i in (0, 2, -1)
        for key in ("prime", "kind", "m", "t", "qs", "count", "modulus", "witness")
    ]
)


class TestReaderFuzz:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(_TARGETS), st.sampled_from(_REPLACEMENTS))
    @example(("cert", ("specs", -1, "m")), 10**11)
    @example(("cert", ("genus",)), 10**11)
    @example(("cert", ("N",)), 0)
    @example(("cert", ("specs",)), "x")
    @example(("poly", ("degree",)), "9" * 4300)
    def test_mutated_files_end_in_an_exit_code_and_one_line(
        self, fixture_files, target, replacement
    ):
        which, path = target
        texts = dict(zip(("cert", "poly"), (p.read_text() for p in fixture_files)))
        texts[which] = _mutated_text(json.loads(texts[which]), path, replacement)
        with tempfile.TemporaryDirectory() as root:
            argv = ["verify"]
            for name, text in texts.items():
                file_path = f"{root}/{name}.json"
                with open(file_path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                argv += [f"--{name}", file_path]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert 0 <= code <= 5
        lines = err.getvalue().splitlines()
        assert len(lines) <= 1
        assert all(line.startswith("gspmax: ") for line in lines)
