import argparse
import contextlib
import io
import json
import os
from pathlib import Path
import shlex
import subprocess
import sys
import textwrap
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skos.exact_linalg
from skos import bott
from skos.berezinian import SuperMatrix
from skos.cli import _parse, build_parser, run
from skos.complexes import GradedComplex


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestHomologyCommand:
    def test_odd_line_torsion_text(self):
        code, out, err = call(
            ["homology", "--kind", "koszul", "--rank", "0,1", "--base", "Z",
             "--weight", "3", "--position", "-2"]
        )
        assert code == 0
        assert "torsion_odd=[3]" in out

    def test_json_record(self):
        code, out, _ = call(
            ["homology", "--kind", "koszul", "--rank", "0,1", "--base", "Z",
             "--weight", "3", "--position", "-2", "--output", "json"]
        )
        rec = json.loads(out)
        assert rec["summaries"] == [
            {"position": -2, "even_rank": 0, "odd_rank": 0,
             "torsion_even": [], "torsion_odd": [3]}
        ]

    def test_all_positions_when_unspecified(self):
        code, out, _ = call(
            ["homology", "--kind", "derham", "--rank", "1,0", "--weight", "4",
             "--base", "Z", "--output", "json"]
        )
        rec = json.loads(out)
        assert [s["position"] for s in rec["summaries"]] == [0, 1]

    def test_specialized(self):
        code, out, _ = call(
            ["homology", "--kind", "specialize", "--rank", "2,0", "--omega", "2,3",
             "--base", "Z", "--output", "json"]
        )
        rec = json.loads(out)
        assert all(s["even_rank"] == 0 and not s["torsion_even"] for s in rec["summaries"])

    def test_text_head_names_omega(self):
        """Two omegas give two headers, as ``skos specialize`` prints them."""
        heads = []
        for omega in ("2,3", "4,6"):
            code, out, err = call(["homology", "--kind", "specialize", "--rank", "2,0", "--omega", omega])
            assert (code, err) == (0, "")
            heads.append(out.splitlines()[0])
        assert heads == ["homology of specialized, rank (2|0), omega [2, 3], base Z",
                         "homology of specialized, rank (2|0), omega [4, 6], base Z"]
        assert call(["specialize", "--rank", "2,0", "--omega", "2,3"])[1].startswith(
            "specialized complex, rank (2|0), omega [2, 3]\n")

    def test_window_violation_is_exit_1(self):
        code, out, err = call(
            ["homology", "--kind", "koszul", "--rank", "0,1", "--weight", "5",
             "--cap", "2", "--position", "-2"]
        )
        assert code == 1
        assert "window" in err

    @pytest.mark.parametrize("argv, shown", [
        (["--kind", "specialize", "--rank", "1,1", "--omega", "2,0", "--cap", "2"], [-1, 0]),
        (["--kind", "berezinian", "--rank", "1,1", "--weight", "0"], [0, 1, 2, 3, 4, 5]),
        (["--kind", "koszul", "--rank", "0,1", "--weight", "5", "--cap", "2"], [-1, 0]),
    ], ids=["specialized", "berezinian", "koszul"])
    def test_window_edges_are_left_out_after_one_ask(self, argv, shown):
        """Without --position each position of the window is read once, by
        ``homology``; one on the window's edge raises WindowError there and
        is left out of the output."""
        asked = []
        outgoing = GradedComplex.outgoing
        with mock.patch.object(GradedComplex, "outgoing", lambda C, pos: asked.append(pos) or outgoing(C, pos)):
            code, out, err = call(["homology", *argv, "--output", "json"])
        assert (code, err) == (0, "")
        assert [s["position"] for s in json.loads(out)["summaries"]] == shown
        assert len(asked) == len(set(asked)) == len(shown) + 1

    @pytest.mark.parametrize("kind, rank, message", [
        ("koszul", "1,1", "--weight is required for this complex kind"),
        ("specialize", "2,0", "--omega is required for the specialized complex"),
    ])
    def test_missing_option_of_the_kind_is_exit_1(self, kind, rank, message):
        assert call(["homology", "--kind", kind, "--rank", rank]) == (1, "", f"skos: error: {message}\n")

    def test_large_prime_modulus(self):
        # 10**18 + 3 has no factor below 10**9, out of reach of trial division
        argv = ["homology", "--kind", "koszul", "--rank", "1,0", "--weight", "1", "--base"]
        code, out, err = call(argv + ["Fp:1000000000000000003"])
        assert (code, err) == (0, "")
        assert "base Fp:1000000000000000003" in out
        # from the least strong pseudoprime to every Miller-Rabin base used on,
        # the parser refuses the modulus, as it refuses a composite one
        code, out, err = call(argv + ["Fp:3317044064679887385961981"])
        assert code == 2
        assert "primality is decided below 3317044064679887385961981 only" in err

    def test_berezinian_kind(self):
        code, out, _ = call(
            ["homology", "--kind", "berezinian", "--rank", "1,1", "--weight", "0",
             "--base", "Q", "--position", "1", "--output", "json"]
        )
        rec = json.loads(out)
        assert rec["summaries"][0]["odd_rank"] == 1

    @pytest.mark.parametrize("position, cap", [(-3000, 6), (-1, 6), (0, 6), (5, 6), (6, 7), (8, 9), (None, 6)])
    def test_berezinian_window_follows_the_position(self, position, cap):
        """Berezinian positions start at 0: a negative one is refused after
        the default window 0..6, not after |position| + 1 positions."""
        import skos.complexes

        caps = []
        build = skos.complexes.build_berezinian
        argv = ["homology", "--kind", "berezinian", "--rank", "1,1", "--weight", "0", "--output", "json"]
        with mock.patch.object(skos.complexes, "build_berezinian",
                               lambda a, b, n, cap: caps.append(cap) or build(a, b, n, cap)):
            code, out, err = call(argv + ([] if position is None else ["--position", str(position)]))
        assert caps == [cap]
        if position is not None and position < 0:
            assert (code, out) == (1, "")
            assert f"position {position} is not materialized" in err
        else:
            assert code == 0 and json.loads(out)["summaries"]

    def test_far_negative_berezinian_position_exits_at_once(self):
        # a window of |position| + 1 positions would run out of the time and the address space
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024, 1_500_000 * 1024))

        proc = subprocess.run(
            [sys.executable, "-m", "skos", "homology", "--kind", "berezinian", "--rank", "1,1",
             "--weight", "0", "--position", "-100000000"],
            capture_output=True, text=True, preexec_fn=limit, timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "position -100000000 is not materialized" in proc.stderr


class TestComplexCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ["koszul", "--rank", "2,1", "--weight", "3"],
            ["derham", "--rank", "1,2", "--weight", "2"],
            ["berezinian-complex", "--rank", "1,1", "--weight", "1", "--cap", "4"],
            ["specialize", "--rank", "2,1", "--omega", "2,3,0", "--cap", "3"],
        ],
    )
    def test_json_records_reparse(self, argv):
        code, out, _ = call(argv + ["--output", "json"])
        assert code == 0
        C = GradedComplex.from_record(json.loads(out))
        code2, out2, _ = call(argv + ["--output", "json"])
        assert out == out2  # byte determinism
        assert C.to_record() == json.loads(out)

    def test_text_summary(self):
        code, out, _ = call(["koszul", "--rank", "0,1", "--weight", "3"])
        assert code == 0
        assert "position -3" in out

    @pytest.mark.parametrize("command,weight", [("koszul", "-2"), ("derham", "-1")])
    def test_negative_weight_names_the_weight(self, command, weight):
        code, _, err = call([command, "--rank", "1,1", f"--weight={weight}"])
        assert code == 1
        assert "weight must be nonnegative" in err

    def test_deep_basis(self):
        # a basis over 1100 even generators: one slot per generator
        code, out, err = call(["koszul", "--rank", "1100,0", "--weight", "1"])
        assert (code, err) == (0, "")
        assert "dim (1100|0)" in out

    def test_nonzero_odd_slot_rejected(self):
        code, _, err = call(["specialize", "--rank", "1,1", "--omega", "2,5"])
        assert code == 1
        assert "odd slot" in err


class TestBerCommand:
    def test_identity_prints_one(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(SuperMatrix.identity(2, 1, 3).to_record()))
        code, out, _ = call(["ber", "--input", str(path)])
        assert code == 0 and out == "1\n"

    def test_json_output(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(SuperMatrix.identity(1, 1, 2).to_record()))
        code, out, _ = call(["ber", "--input", str(path), "--output", "json"])
        rec = json.loads(out)
        assert rec["text"] == "1"

    def test_non_invertible_is_exit_1(self, tmp_path):
        rec = SuperMatrix.identity(1, 1, 2).to_record()
        rec["entries"][0] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(rec))
        code, _, err = call(["ber", "--input", str(path)])
        assert code == 1
        assert "not invertible" in err

    def test_random_check_deterministic(self):
        a = call(["ber", "--random-check", "3", "--p", "1", "--q", "1",
                  "--gens", "3", "--seed", "7"])
        b = call(["ber", "--random-check", "3", "--p", "1", "--q", "1",
                  "--gens", "3", "--seed", "7"])
        assert a == b and a[0] == 0

    def test_random_check_four_four_six_generators(self):
        code, out, err = call(["ber", "--random-check", "2", "--p", "4", "--q", "4", "--gens", "6"])
        assert code == 0, err
        assert out.startswith("ok: 2 seeded supermatrices (p=4, q=4, gens=6")

    def test_missing_input_is_exit_1(self):
        code, _, err = call(["ber"])
        assert code == 1

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_input_is_exit_1(self, tmp_path, name):
        path = tmp_path / name
        code, out, err = call(["ber", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("skos: error: [Errno ") and err.endswith(f"{str(path)!r}\n")

    def test_random_check_negative_size_is_exit_1(self):
        # a negative --p or --q meets this check ahead of the one in SuperMatrix.identity
        for size in (["--gens", "-1"], ["--p", "-1"], ["--q", "-2"]):
            code, _, err = call(["ber", "--random-check", "1", *size])
            assert code == 1
            assert err == ("skos: error: --random-check COUNT must be positive "
                           "and --p, --q and --gens nonnegative\n")

    @pytest.mark.parametrize("p,q,gens", [(1, 1, 40), (1, 1, 12), (4, 4, 8), (46, 45, 0),
                                          (10**12, 0, 0), (0, 1, 2**40)])
    def test_random_check_too_large_is_exit_1_at_once(self, p, q, gens):
        # (p+q)^2 * 2^gens monomials past the bound are refused before the first draw
        proc = subprocess.run(
            [sys.executable, "-m", "skos", "ber", "--random-check", "1",
             "--p", str(p), "--q", str(q), "--gens", str(gens)],
            capture_output=True, text=True, timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("skos: error: --random-check draws (p+q)^2 * 2^gens monomials "
                               f"per check, at most 8192: p={p}, q={q}, gens={gens} is too large\n")

    @pytest.mark.parametrize("p,q,gens", [(4, 4, 7), (0, 0, 40)])
    def test_random_check_at_the_bound_runs(self, p, q, gens):
        code, out, err = call(["ber", "--random-check", "1",
                               "--p", str(p), "--q", str(q), "--gens", str(gens)])
        assert (code, err) == (0, "")
        assert out.startswith(f"ok: 1 seeded supermatrices (p={p}, q={q}, gens={gens}")

    @pytest.mark.parametrize(
        "record,named",
        [
            ({"q": 1, "grassmann_gens": 1, "entries": [[]]}, "no 'p' key"),
            ({"p": None, "q": 0, "grassmann_gens": 0, "entries": []}, "field 'p'"),
            ({"p": 1, "q": 0, "grassmann_gens": 0, "entries": [5]}, "field 'entries[0]'"),
            ([1, 2], "must be a JSON object, got list"),
            ({"p": 1, "q": 0, "grassmann_gens": 1, "entries": [[{"coeff": "1"}]]},
             "no 'thetas' key in a term of entries[0]"),
            ({"p": 1.9, "q": 0, "grassmann_gens": 0, "entries": [[{"coeff": "2", "thetas": []}]]},
             "field 'p'"),
            ({"p": 1, "q": False, "grassmann_gens": 0, "entries": [[{"coeff": "2", "thetas": []}]]},
             "field 'q'"),
            ({"p": 1, "q": 0, "grassmann_gens": "1", "entries": [[{"coeff": "2", "thetas": []}]]},
             "field 'grassmann_gens'"),
            ({"p": 1, "q": 0, "grassmann_gens": 1, "entries": [[{"coeff": "2", "thetas": [1.0]}]]},
             "field 'entries[0]'"),
            ({"p": 1, "q": 0, "grassmann_gens": 1, "entries": [[{"coeff": "2", "thetas": [True]}]]},
             "field 'entries[0]'"),
            ({"p": 1, "q": 0, "grassmann_gens": -3, "entries": [[{"coeff": "2", "thetas": []}]]},
             "field 'grassmann_gens'"),
            ({"p": -1, "q": 1, "grassmann_gens": 0, "entries": []}, "field 'p'"),
            ({"p": 1, "q": -1, "grassmann_gens": 0, "entries": []}, "field 'q'"),
            ({"p": 1, "q": 0, "grassmann_gens": 0,
              "entries": [[{"coeff": json.loads("[" * 900 + "1" + "]" * 900), "thetas": []}]]},
             "field 'entries[0]'"),
            ({"p": 1, "q": 0, "grassmann_gens": 0, "entries": [[{"coeff": "1/0", "thetas": []}]]},
             "field 'entries[0]'"),
            ({"p": 1, "q": 0, "grassmann_gens": 0, "entries": [[{"coeff": True, "thetas": []}]]},
             "field 'entries[0]'"),
            ({"p": 1, "q": 0, "grassmann_gens": 0, "entries": [[{"coeff": 2.5, "thetas": []}]]},
             "field 'entries[0]'"),
        ],
    )
    def test_malformed_record_is_exit_1(self, tmp_path, record, named):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(record))
        code, out, err = call(["ber", "--input", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("skos: error: supermatrix record") and err.count("\n") == 1
        assert len(err) < 200
        assert named in err and "Traceback" not in err

    def test_memory_exhaustion_is_exit_1(self, tmp_path):
        # t_(2^40) is an integer of 2^40 bits; the address-space limit is
        # set in the child only
        resource = pytest.importorskip("resource")
        gens = 2**40
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"p": 1, "q": 0, "grassmann_gens": gens,
                                    "entries": [[{"coeff": "1", "thetas": [1, gens]}]]}))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024, 1_500_000 * 1024))

        proc = subprocess.run(
            [sys.executable, "-m", "skos", "ber", "--input", str(path)],
            capture_output=True, text=True, preexec_fn=limit, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "skos: error: out of memory\n"

    @pytest.mark.parametrize("text", ["[" * 100000, '{"p": ' + "[" * 100000 + "}"],
                             ids=["array", "field"])
    def test_deeply_nested_json_is_exit_1(self, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "skos", "ber", "--input", str(path)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"skos: error: {path}: JSON nested too deeply\n"


class TestBottCommands:
    def test_csv_row(self):
        code, out, _ = call(
            ["bott", "--m", "1", "--n", "1", "--p", "1", "--r", "2",
             "--method", "both", "--output", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,p,r,i,even,odd,method"
        assert "1,1,1,2,0,2,2,both" in lines

    def test_text_table(self):
        code, out, _ = call(["bott", "--m", "1", "--n", "0", "--p", "0", "--r", "-2"])
        assert code == 0
        assert "H^1=(1|0)" in out

    def test_ranges_and_determinism(self):
        argv = ["bott", "--m", "2", "--n", "1", "--p", "0", "--p-max", "1",
                "--r", "-2", "--r-max", "2", "--output", "json"]
        a = call(argv)
        b = call(argv)
        assert a == b and a[0] == 0
        rec = json.loads(a[1])
        cells = [(t["p"], t["r"]) for t in rec["tables"]]
        assert cells == sorted(cells)

    def test_base_other_than_q_needs_direct(self):
        code, out, err = call(["bott", "--m", "1", "--n", "1", "--p", "1", "--r", "2",
                               "--method", "both", "--base", "Z"])
        assert (code, out) == (1, "")
        assert err == "skos: error: method 'both' computes over Q only, not over Z\n"

    def test_p_lower_bound_computes_only_printed_cells(self, monkeypatch):
        cells = []
        direct = bott.forms_cohomology_direct

        def counting(*args):
            cells.append(args[:4])
            return direct(*args)

        monkeypatch.setattr(bott, "forms_cohomology_direct", counting)
        code, out, err = call(["bott", "--m", "2", "--n", "2", "--p", "6", "--r", "2",
                               "--method", "direct"])
        assert (code, err) == (0, "")
        assert out == "m=2 n=2 p=6 r=2 [direct]: H^0=(0|0)  H^1=(0|0)  H^2=(376|376)\n"
        assert cells == [(2, 2, 6, 2)]

        cells.clear()
        code, out, _ = call(["bott", "--m", "1", "--n", "1", "--p", "1", "--p-max", "2",
                             "--r", "-1", "--r-max", "1", "--method", "both", "--output", "csv"])
        assert code == 0
        assert out.splitlines()[1:] == [
            "1,1,1,-1,0,0,0,both", "1,1,1,-1,1,4,4,both", "1,1,1,0,0,0,0,both",
            "1,1,1,0,1,2,2,both", "1,1,1,1,0,0,0,both", "1,1,1,1,1,0,0,both",
            "1,1,2,-1,0,0,0,both", "1,1,2,-1,1,6,6,both", "1,1,2,0,0,0,0,both",
            "1,1,2,0,1,4,4,both", "1,1,2,1,0,0,0,both", "1,1,2,1,1,2,2,both",
        ]
        assert len(cells) == (len(out.splitlines()) - 1) // 2 == 6

    def test_line_bundle(self):
        code, out, _ = call(["line-bundle", "--m", "1", "--n", "1", "--r", "2",
                             "--output", "csv"])
        assert "1,1,0,2,0,3,2,formula" in out

    @pytest.mark.parametrize("tail", [
        ["--output", "text"], ["--output", "json"], ["--output", "csv"], ["--r-max", "1"],
    ])
    def test_line_bundle_is_the_p_zero_formula_table(self, tail):
        """``line-bundle`` prints what ``bott --p 0 --method formula`` prints,
        byte for byte, its range error included."""
        common = ["--m", "2", "--n", "1", "--r", "-2"] + (tail if "--r-max" in tail else ["--r-max", "3"] + tail)
        line_bundle = call(["line-bundle"] + common)
        assert line_bundle == call(["bott", "--p", "0", "--method", "formula"] + common)
        assert line_bundle[1] or line_bundle[2].startswith("skos: error: --r-max 1 ")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["bott", "--m", "1", "--n", "1", "--p", "0", "--r", "2", "--r-max", "1"], "--r-max"),
            (["bott", "--m", "1", "--n", "1", "--p", "3", "--p-max", "1", "--r", "0"], "--p-max"),
            (["bott", "--m", "1", "--n", "1", "--p", "-2", "--p-max", "1", "--r", "0"], "--p"),
            (["line-bundle", "--m", "1", "--n", "1", "--r", "2", "--r-max", "1"], "--r-max"),
        ],
    )
    def test_bad_range_is_exit_1(self, argv, option):
        code, out, err = call(argv)
        assert (code, out) == (1, "")
        assert err.startswith("skos: error: ") and err.count("\n") == 1
        assert f"{option} " in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["unknown-command"],
            ["homology", "--kind", "bogus"],
            ["homology", "--kind", "koszul"],  # missing --rank
            ["homology", "--kind", "koszul", "--rank", "0,1", "--base", "Fp:6",
             "--weight", "1"],
            ["koszul", "--rank", "x,y", "--weight", "1"],
            ["bott", "--m", "1", "--n", "1", "--p", "0", "--r", "1", "--frob", "2"],
        ],
    )
    def test_exit_2(self, argv):
        code, _, _ = call(argv)
        assert code == 2


def _subcommands():
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestCommandTable:
    def test_every_subcommand_binds_a_handler(self):
        subcommands = _subcommands()
        assert set(subcommands) == {"koszul", "derham", "berezinian-complex", "specialize",
                                    "homology", "ber", "bott", "line-bundle"}
        for name, sp in subcommands.items():
            assert callable(sp.get_default("handler")), name

    def test_help_goes_to_the_given_stdout(self):
        for argv in [["--help"]] + [[name, "--help"] for name in _subcommands()]:
            first = call(argv)
            assert first[0] == 0 and first[1].startswith("usage: skos") and first[2] == "", argv
            assert call(argv) == first, argv

    def test_usage_error_repeats_identically(self):
        first = call(["homology", "--kind", "bogus"])
        assert first[0] == 2 and "invalid choice: 'bogus'" in first[2]
        assert call(["homology", "--kind", "bogus"]) == first

    def test_second_run_builds_no_parser(self, monkeypatch):
        argv = ["koszul", "--rank", "0,1", "--weight", "1"]
        first = call(argv)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert call(argv) == first
        assert built == []

    def test_import_builds_no_parser(self):
        code = textwrap.dedent(
            """
            import argparse
            init, built = argparse.ArgumentParser.__init__, []

            def counting_init(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                init(self, *args, **kwargs)

            argparse.ArgumentParser.__init__ = counting_init
            import skos.cli
            print(len(built))
            """
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


README = Path(__file__).resolve().parents[1] / "README.md"

# Edge cases of the argument paths: no command, top-level help, an unknown
# command, a missing option, an extra positional, abbreviated options, a
# negative value read as an option, "--", --opt=value, subcommand help, an
# unknown option and a composite base that is not a field.
PARSE_CORPUS = [
    [],
    ["-h"],
    ["bogus"],
    ["homology", "--kind", "koszul"],
    ["koszul", "--rank", "0,1", "--weight", "1", "extra"],
    ["homology", "--kind", "koszul", "--ra", "0,1", "--we", "2"],
    ["specialize", "--rank", "2,0", "--omega", "-1,2"],
    ["bott", "--m", "1", "--n", "1", "--p", "0", "--r", "-4"],
    ["koszul", "--rank", "0,1", "--", "--weight", "1"],
    ["specialize", "--rank=2,0", "--omega=-1,2"],
    ["bott", "-h"],
    ["ber", "--random-check", "3"],
    ["bott", "--m", "1", "--n", "1", "--p", "0", "--r", "1", "--frob", "2"],
    ["homology", "--kind", "koszul", "--rank", "0,1", "--base", "Fp:4", "--weight", "1"],
] + [
    shlex.split(line)[1:] for line in README.read_text().splitlines() if line.startswith("skos ")
]
VALUES = ["0", "1", "2", "-1", "-4", "1,1", "x", "", "Fp:7", "Fp:4"]


def _outcome(parse, argv):
    """``vars`` of the namespace, or (exit code, stdout, stderr) of the usage exit."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(list(argv))), out.getvalue(), err.getvalue()
    except SystemExit as e:
        return e.code, out.getvalue(), err.getvalue()


def _argvs(name):
    """argv lists for one subcommand, from its option strings, their
    prefixes, --opt=value forms, "--", "-h" and a few values."""
    options = sorted(o for a in _subcommands()[name]._actions for o in a.option_strings)
    prefixes = sorted({o[:k] for o in options for k in range(3, len(o))})
    assigned = [f"{o}={v}" for o in options for v in VALUES]
    token = st.sampled_from(options + prefixes + assigned + ["--", "-h"] + VALUES)
    pair = st.tuples(st.sampled_from(options + prefixes), st.sampled_from(VALUES)).map(list)
    parts = st.lists(st.one_of(pair, token.map(lambda t: [t])), max_size=7)
    return parts.map(lambda ps: [name] + [t for p in ps for t in p])


class TestOneParsePass:
    """``_parse`` (what ``run`` parses with) equals ``build_parser().parse_args``."""

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
    def test_corpus(self, argv):
        assert _outcome(_parse, argv) == _outcome(build_parser().parse_args, argv)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(_subcommands())).flatmap(_argvs))
    def test_fuzzed_argv(self, argv):
        assert _outcome(_parse, argv) == _outcome(build_parser().parse_args, argv)

    @pytest.mark.parametrize(
        "argv, passes",
        [(["koszul", "--rank", "0,1", "--weight", "1"], 0),
         (["koszul", "--rank", "0,1", "--weight", "1", "extra"], 0),
         ([], 1),
         (["bogus"], 1)],
    )
    def test_full_parser_runs_only_without_a_known_subcommand(self, monkeypatch, argv, passes):
        parser, calls = build_parser(), []
        known = parser.parse_known_args

        def counting(*args, **kwargs):
            calls.append(args)
            return known(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counting)
        call(argv)
        assert len(calls) == passes


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "skos", "homology", "--kind", "koszul", "--rank", "0,1",
         "--base", "Z", "--weight", "3", "--position", "-2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "torsion_odd=[3]" in proc.stdout


@pytest.mark.parametrize("argv, lines", [
    (["koszul", "--rank", "3,3", "--weight", "6", "--output", "json"], 1),  # 785 KB, past the pipe's buffer
    (["koszul", "--rank", "1,1", "--weight", "1"], 0),  # one short write, flushed at exit
], ids=["after-first-line", "before-any"])
def test_closed_stdout_is_not_an_error(argv, lines):
    """A reader that stops early ends the run with exit 0 and nothing on
    stderr, whether the closed pipe meets a write or the flush at exit.
    stdout is block-buffered, as in a shell pipeline."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "skos", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert [proc.stdout.readline() for _ in range(lines)] == [b"{\n"] * lines
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)
# valid pieces are listed more than once, to be drawn more often
_INDICES = st.sets(st.integers(1, 6), max_size=2).map(sorted)
_THETAS = st.one_of(_INDICES, _INDICES, _INDICES, st.lists(st.integers(-1, 7), max_size=4), _JSON)
_GOOD_COEFF = st.sampled_from(["1", "-2", "1/2", "0"])
_COEFF = st.one_of(_GOOD_COEFF, _GOOD_COEFF, _GOOD_COEFF, st.sampled_from(["3/0", "x"]), _JSON)
_GOOD_TERM = st.fixed_dictionaries({"coeff": _COEFF, "thetas": _THETAS})
_TERM = st.one_of(_GOOD_TERM, _GOOD_TERM, _GOOD_TERM, _JSON)


@st.composite
def _records(draw):
    """Near-valid supermatrix records: a valid shape most of the time, so
    the fuzz reaches the term parser and ``ber`` as well as the header."""
    p, q, gens = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 6))
    n = p + q
    count = draw(st.sampled_from([n * n, n * n, n * n + 1]))
    entry = st.lists(_TERM, max_size=2)
    entries = draw(st.lists(st.one_of(entry, entry, entry, _JSON), min_size=count, max_size=count))
    rec = {"p": p, "q": q, "grassmann_gens": gens, "entries": entries}
    for key in draw(st.lists(st.sampled_from(sorted(rec)), max_size=1)):
        rec[key] = draw(_JSON)
    return rec


@settings(max_examples=300, deadline=None)
@given(st.one_of(*[_records().map(json.dumps)] * 3, _JSON.map(json.dumps), st.text(max_size=30)))
def test_ber_input_fuzz_exits_0_or_1(text):
    """``skos ber --input -`` on arbitrary JSON (and non-JSON) text ends in
    exit 0 with a value or exit 1 with one error line; an exception that
    escapes ``run`` fails the test."""
    with mock.patch("sys.stdin", io.StringIO(text)):
        code, out, err = call(["ber", "--input", "-"])
    if code == 0:
        assert out.endswith("\n") and err == ""
    else:
        assert code == 1 and out == ""
        assert err.startswith("skos: error: ") and err.count("\n") == 1


@st.composite
def _slice(draw):
    """The ``skos homology`` options that fix one small slice: a + b <= 3 and weight <= 3."""
    kind = draw(st.sampled_from(["koszul", "derham", "berezinian", "specialize"]))
    a = draw(st.integers(0, 3))
    b = draw(st.integers(0, 3 - a))
    argv = ["homology", "--kind", kind, "--rank", f"{a},{b}"]
    if kind == "specialize":
        omega = draw(st.lists(st.integers(-4, 4), min_size=a, max_size=a)) + [0] * b
        return argv + ["--omega=" + ",".join(map(str, omega))]
    return argv + ["--weight", str(draw(st.integers(0, 3)))]


@st.composite
def _homology_runs(draw):
    """Runs over at most three slices, so later runs meet slices named by earlier ones."""
    slices = draw(st.lists(_slice(), min_size=1, max_size=3))
    return [draw(st.sampled_from(slices)) + ["--base", draw(st.sampled_from(["Z", "Q", "Fp:2", "Fp:3"]))]
            + draw(st.sampled_from([[], ["--position", str(draw(st.integers(-4, 4)))]]))
            + draw(st.sampled_from([[], ["--output", "json"]]))
            for _ in range(draw(st.integers(2, 8)))]


@settings(max_examples=40, deadline=None)
@given(_homology_runs())
def test_repeated_homology_runs_answer_as_cold_runs(runs):
    """``skos homology`` runs one after another in one process, each reviving
    what earlier runs named, print and exit as each run alone does on an
    empty table of named differentials."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(skos.exact_linalg, "_named", OrderedDict())
        warm = [call(argv) for argv in runs]
    for argv, answer in zip(runs, warm):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(skos.exact_linalg, "_named", OrderedDict())
            assert call(argv) == answer, argv
