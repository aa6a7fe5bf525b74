import hashlib
import json
import subprocess
import sys
from itertools import combinations

import pytest

from hyperramsey.core import (
    Tournament,
    TwoColoring,
    coloring_to_json,
    complete_hypergraph,
    hypergraph_to_json,
    tournament_to_json,
)
from hyperramsey.constructions import loose_cycle_lb, loose_path_lb, tau_lower_construction
from hyperramsey.cli import main

from oracles import all_red


def run_cli(args, tmp_path=None):
    proc = subprocess.run([sys.executable, "-m", "hyperramsey.cli", *args],
                          capture_output=True, text=True)
    return proc


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestConstruct:
    def test_burr_with_manifest(self, tmp_path):
        out = tmp_path / "c.json"
        man = tmp_path / "m.json"
        rc = main(["construct", "burr", "--param", "k=3", "--param", "chi=2",
                   "--param", "sigma=2", "--param", "vG=4",
                   "--out", str(out), "--manifest-out", str(man)])
        assert rc == 0
        col = json.loads(out.read_text())
        assert col["n"] == 4 and col["encoding"] == "colex-v1"
        manifest = json.loads(man.read_text())
        assert manifest["parameters"]["chi"] == 2
        assert len(manifest["partition"]) == 2

    @pytest.mark.parametrize("params, message", [
        (["k=3", "chi=2", "sigma=1", "vG=4", "bogus=9"], "construct burr does not read --param bogus"),
        (["k=x", "chi=2", "sigma=1", "vG=4"], "--param k=x is not an integer"),
        (["chi=2", "sigma=1", "vG=4"], "construct burr needs --param k="),
        (["k=3", "chi=2", "sigma=1", "vG=4", "k=4"], "--param k is given twice"),
        (["k3", "chi=2", "sigma=1", "vG=4"], "--param 'k3' is not key=value"),
    ], ids=["unread-key", "non-integer", "missing-key", "repeated-key", "missing-equals"])
    def test_param_errors_name_the_key(self, tmp_path, capsys, params, message):
        out = tmp_path / "c.json"
        argv = ["construct", "burr", *[a for p in params for a in ("--param", p)], "--out", str(out)]
        assert main(argv) == 1
        assert f"invalid input: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_uniformity_below_two_exits_1(self, capsys):
        # k = 1 used to reach a division by k - 1
        params = ["k=1", "chi=2", "n=4", "t=2", "q=2"]
        assert main(["construct", "loose-cycle", *[a for p in params for a in ("--param", p)]]) == 1
        assert "invalid input: need k >= 2" in capsys.readouterr().err

    def test_bad_params_exit_1(self, capsys):
        # the ell >= 2 construction rejects loose paths
        rc = main(["construct", "ell-path", "--param", "k=3", "--param", "ell=1",
                   "--param", "n=5", "--param", "chi=2"])
        assert rc == 1
        capsys.readouterr()


class TestVerify:
    def test_free_instance(self, tmp_path):
        aux = tau_lower_construction(2, 3)
        inst = loose_path_lb(3, 2, 11, 3, aux)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(inst.coloring))
        hpath = write_json(tmp_path, "h.json", hypergraph_to_json(inst.blue_target))
        out = tmp_path / "cert.json"
        rc = main(["verify", "--coloring", cpath, "--red-pattern", "path:3:1:11",
                   "--blue-target", hpath, "--out", str(out)])
        assert rc == 0
        cert = json.loads(out.read_text())
        assert cert["kind"] == "free"

    def test_pattern_target(self, tmp_path):
        col = all_red(3, 5)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(col))
        out = tmp_path / "cert.json"
        rc = main(["verify", "--coloring", cpath, "--red-pattern", "path:3:2:4",
                   "--blue-target", "edge:3", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["kind"] == "red_path"


class TestRamsey:
    def test_edge_edge(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["ramsey", "--red", "edge:3", "--blue", "edge:3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == 3
        assert payload["lower_witness"]["n"] == 2

    @pytest.mark.parametrize("red, value", [("fano", 7), ("tth:2:2", 4)])
    def test_red_pattern_without_order_field(self, tmp_path, red, value):
        # v(G) comes from the pattern's hypergraph, not from an "n" in its spec
        out = tmp_path / "r.json"
        assert main(["ramsey", "--red", red, "--blue", "edge:3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["value"], payload["exact"], payload["burr_bound"]) == (value, True, value)

    @pytest.mark.parametrize("red, blue, value", [
        ("path:3:2:4", "tth:1:3", 3),
        ("tth:1:4", "clique:3:4", 4),
        ("path:3:2:4", "clique:3:2", 2),
    ])
    def test_edgeless_side_is_found(self, tmp_path, red, blue, value):
        # an edgeless side lies in every colouring with as many vertices as
        # it has, so the value is exact and the witness one vertex short
        out = tmp_path / "r.json"
        assert main(["ramsey", "--red", red, "--blue", blue, "--cap", "6", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["value"], payload["exact"], payload["lower_bound"]) == (value, True, value)
        assert payload["lower_witness"]["n"] == value - 1
        if blue == "tth:1:3":
            assert (payload["burr_bound"], payload["verdict"]) == (3, "good")

    def test_verdict_needs_the_burr_hypothesis(self, tmp_path):
        # the red side is four isolated vertices, not connected, so the Burr
        # bound 5 does not apply to the value 4
        out = tmp_path / "r.json"
        assert main(["ramsey", "--red", "tth:1:4", "--blue", "clique:3:4", "--cap", "6",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["value"], payload["burr_bound"], payload["verdict"]) == (4, 5, "n/a")

    def test_impossible_path_order_exit_1(self):
        # no 3-uniform loose path has 6 vertices
        proc = run_cli(["ramsey", "--red", "path:3:1:6", "--blue", "edge:3"])
        assert proc.returncode == 1, proc.stderr
        assert "invalid input: no such path" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_blue_uniformity_mismatch_exit_1(self):
        proc = run_cli(["ramsey", "--red", "path:3:2:4", "--blue", "clique:4:5"])
        assert proc.returncode == 1, proc.stderr
        assert "invalid input: uniformity mismatch" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestTauAndDramsey:
    def test_tau(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["tau", "--k", "3", "--alpha", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == 5 and payload["witness"]["n"] == 5

    def test_tau_cap_below_the_construction(self, tmp_path):
        # nothing is searched: the 5-vertex construction is the witness
        out = tmp_path / "t.json"
        assert main(["tau", "--k", "3", "--alpha", "4", "--cap", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["value"], payload["exact"], payload["lower"], payload["upper"]) == (None, False, 5, 6)
        assert payload["witness"]["n"] == 5

    def test_dramsey(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["dramsey", "--chi", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == 4 and payload["witness"]["n"] == 3

    def test_dramsey_chi4_pinned(self, tmp_path):
        # sha256 of the JSON, recorded from the DFS without symmetry breaking
        out = tmp_path / "d.json"
        assert main(["dramsey", "--chi", "4", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "962fa0a9c9891992f4e29ee802bcedac04269a3da90b6f208d7e6124d27cba49")


class TestChainAndEngine:
    def test_chain_assemble(self, tmp_path):
        col = all_red(3, 14)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(col))
        bpath = write_json(tmp_path, "b.json", [list(range(7)), list(range(7, 14))])
        out = tmp_path / "chains.json"
        rc = main(["chain", "--coloring", cpath, "--blocks", bpath,
                   "--ell", "1", "--alpha", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert not payload["stalled"]
        assert payload["chains"][0]["kind"] == "closed"

    def test_engine_loose(self, tmp_path):
        col = TwoColoring.random(3, 13, 0.95, seed=42)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(col))
        out = tmp_path / "e.json"
        rc = main(["engine", "loose", "--coloring", cpath, "--target", "13",
                   "--blue-target", "tth:2:2", "--block-size", "5", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["outcome"] == "red_witness"

    def test_engine_loose_two_uniform(self, tmp_path):
        # the auxiliary move once built a 1-uniform hypergraph here and exited 1
        col = TwoColoring.random(2, 14, 0.5, seed=4)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(col))
        out = tmp_path / "e.json"
        proc = run_cli(["engine", "loose", "--coloring", cpath, "--target", "9",
                        "--blue-target", "clique:2:3", "--block-size", "4", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["outcome"] == "red_witness"
        cert = write_json(tmp_path, "cert.json", payload["certificate"])
        assert run_cli(["check", "--certificate", cert, "--coloring", cpath]).returncode == 0

    def test_engine_tight(self, tmp_path):
        col = TwoColoring.random(3, 13, 0.95, seed=0)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(col))
        out = tmp_path / "e.json"
        rc = main(["engine", "tight", "--coloring", cpath, "--target", "10",
                   "--tth", "2:2", "--block-size", "6", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["outcome"] == "red_witness"


class TestCheck:
    def make_red_path_cert(self, tmp_path):
        col = all_red(3, 7)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(col))
        cert = {"kind": "red_path", "witness": [0, 1, 2, 3, 4], "stats": {},
                "detail": {"ell": 1, "k": 3}}
        return col, cpath, cert

    def test_valid_certificate(self, tmp_path):
        _, cpath, cert = self.make_red_path_cert(tmp_path)
        certpath = write_json(tmp_path, "cert.json", cert)
        assert main(["check", "--certificate", certpath, "--coloring", cpath]) == 0

    def test_tampered_certificate_exit_3(self, tmp_path):
        col, _, cert = self.make_red_path_cert(tmp_path)
        # flip one witness edge blue
        from hyperramsey.core import colex_rank
        bits = col.red_bits & ~(1 << colex_rank((0, 1, 2)))
        tampered = TwoColoring(3, 7, bits)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(tampered))
        certpath = write_json(tmp_path, "cert.json", cert)
        assert main(["check", "--certificate", certpath, "--coloring", cpath]) == 3

    def test_embedding_certificate(self, tmp_path):
        col = TwoColoring.all_blue(3, 6)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(col))
        from hyperramsey.core import complete_hypergraph
        cert = {"kind": "blue_embedding", "witness": [0, 1, 2, 3], "stats": {},
                "detail": {"target": hypergraph_to_json(complete_hypergraph(3, 4))}}
        certpath = write_json(tmp_path, "cert.json", cert)
        assert main(["check", "--certificate", certpath, "--coloring", cpath]) == 0

    def test_empty_path_is_trivially_valid(self, tmp_path, capsys):
        # an empty witness is a path of order 0, which no 3-uniform path has
        cert = {"kind": "red_path", "witness": [], "detail": {"ell": 1, "k": 3}}
        assert main(["check", "--certificate", write_json(tmp_path, "cert.json", cert),
                     "--coloring", write_json(tmp_path, "c.json", coloring_to_json(TwoColoring.all_blue(3, 5)))]) == 3
        assert json.loads(capsys.readouterr().out) == {"valid": False, "reason": "need n >= k, got n=0, k=3"}

    def test_missing_file_exit_1(self):
        assert main(["check", "--certificate", "/nonexistent/cert.json"]) == 1

    def check_refused(self, tmp_path, capsys, cert, coloring=None):
        args = ["check", "--certificate", write_json(tmp_path, "cert.json", cert)]
        if coloring is not None:
            args += ["--coloring", write_json(tmp_path, "c.json", coloring_to_json(coloring))]
        assert main(args) == 3
        assert json.loads(capsys.readouterr().out)["valid"] is False

    def test_independent_set_without_host_refused(self, tmp_path, capsys):
        cert = {"kind": "independent_set", "witness": [0, 1, 2], "stats": {},
                "detail": {"exact": True}}
        self.check_refused(tmp_path, capsys, cert, all_red(3, 5))

    def test_tt_embedding_without_tournament_refused(self, tmp_path, capsys):
        cert = {"kind": "tt_embedding", "witness": [0, 1, 2], "stats": {},
                "detail": {"exact": True}}
        self.check_refused(tmp_path, capsys, cert)

    def test_not_free_without_coloring_refused(self, tmp_path, capsys):
        col = all_red(3, 5)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(col))
        cert_out = tmp_path / "nf.json"
        assert main(["verify", "--coloring", cpath, "--red-pattern", "path:3:2:4",
                     "--blue-target", "edge:3", "--out", str(cert_out)]) == 0
        cert = json.loads(cert_out.read_text())
        assert cert["kind"] == "red_path"  # verify's refutation of freeness
        self.check_refused(tmp_path, capsys, cert)

    def test_inexact_free_attestation_refused(self, tmp_path, capsys):
        cert = {"kind": "free", "witness": None, "stats": {},
                "detail": {"red_pattern": "path:3:2:8", "blue_pattern": "edge:3", "exact": False}}
        self.check_refused(tmp_path, capsys, cert, all_red(3, 4))


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["construct", "nope"], "invalid choice: 'nope'"),
        (["ramsey", "--red", "path:3:2:5"], "the following arguments are required: --blue"),
    ], ids=["invalid-choice", "missing-required-option"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        # argparse's own code, 2, is the guard's here; a bad command line is
        # invalid input, reported with argparse's usage line and message
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: hyperramsey {argv[0]}") and message in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hyperramsey")


class TestTableDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        # two invocations write byte-identical JSON
        outs = []
        for i in range(2):
            out = tmp_path / f"t{i}.json"
            rc = main(["table", "--json-out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_text_mode_runs(self, capsys):
        assert main(["table"]) == 0
        text = capsys.readouterr().out
        assert "pass" in text and "FAIL" not in text


    @pytest.mark.parametrize("budget,exact", [(8, [False, False, False, False]),
                                              (30, [True, False, True, True])], ids=["8", "30"])
    def test_guarded_freeness_rows_are_inexact(self, monkeypatch, budget, exact):
        # the largest search of each row takes 9 nodes (row 1's blue copy),
        # 42 (row 2's tight path), 25 (row 3's blue copy) and 19 (row 4's
        # red cycle), so a budget of 8 cuts all four rows and one of 30 only
        # row 2; a row whose search spent the budget must say so
        from hyperramsey.table import freeness_rows, render_text
        monkeypatch.setattr("hyperramsey.search.DEFAULT_NODE_BUDGET", budget)
        rows = freeness_rows()
        assert [r["exact"] for r in rows] == exact
        status = [line.split()[-1] for line in render_text(rows).splitlines()[2:]]
        assert status == ["pass" if e else "INEXACT" for e in exact]


class TestSearchStops:
    def test_cap_stop_past_the_old_ceiling(self, capsys):
        # n = 8..10 need 56..120 colouring bits, past the old 36-bit
        # ceiling; every order up to the cap is free, so the cap stops the
        # search with the bound n_cap + 1
        rc = main(["ramsey", "--red", "path:3:2:8", "--blue", "clique:3:4", "--cap", "10"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert (payload["value"], payload["exact"], payload["lower_bound"]) == (None, False, 11)
        assert payload["lower_witness"]["n"] == 10

    def test_budget_stop_exits_0(self, capsys, monkeypatch):
        # a spent node budget stops the search below the cap, not with exit 2
        monkeypatch.setattr("hyperramsey.search.DEFAULT_NODE_BUDGET", 40)
        assert main(["dramsey", "--chi", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["value"], payload["exact"], payload["lower_bound"]) == (None, False, 8)
        assert payload["witness"]["n"] == 7

    def test_size_guard_exits_2(self, capsys):
        # the chromatic profile of K_17^(3) is past the 16-vertex guard
        assert main(["ramsey", "--red", "path:3:2:4", "--blue", "clique:3:17", "--cap", "2"]) == 2
        assert "guard exceeded" in capsys.readouterr().err


class TestConstructAllNames:
    def test_loose_path(self, tmp_path):
        out = tmp_path / "c.json"
        rc = main(["construct", "loose-path", "--param", "k=3", "--param", "chi=2",
                   "--param", "n=11", "--param", "t=3", "--out", str(out)])
        assert rc == 0 and json.loads(out.read_text())["n"] == 10

    def test_loose_cycle_pencil(self, tmp_path):
        out = tmp_path / "c.json"
        rc = main(["construct", "loose-cycle", "--param", "k=3", "--param", "chi=2",
                   "--param", "n=6", "--param", "t=2", "--param", "q=2",
                   "--param", "variant=pencil", "--out", str(out)])
        assert rc == 0 and json.loads(out.read_text())["n"] == 7

    def test_non_transitive(self, tmp_path):
        out = tmp_path / "c.json"
        rc = main(["construct", "non-transitive", "--param", "m=3", "--param", "t=4",
                   "--out", str(out)])
        assert rc == 0 and json.loads(out.read_text())["n"] == 8

    def test_transitive(self, tmp_path):
        out = tmp_path / "c.json"
        rc = main(["construct", "transitive", "--param", "n=9", "--out", str(out)])
        assert rc == 0 and json.loads(out.read_text())["n"] == 12

    def test_ell_path_with_manifest_hashes(self, tmp_path):
        out = tmp_path / "c.json"
        man = tmp_path / "run.json"
        rc = main(["--manifest", str(man), "construct", "ell-path",
                   "--param", "k=3", "--param", "ell=2", "--param", "n=8",
                   "--param", "chi=2", "--out", str(out)])
        assert rc == 0
        manifest = json.loads(man.read_text())
        import hashlib
        assert manifest["output_sha256"]["out"] == hashlib.sha256(out.read_bytes()).hexdigest()
        # no subcommand takes a seed, so the manifest records none
        assert sorted(manifest) == ["command", "input_sha256", "output_sha256", "wall_time_s"]


class TestVerifyThenCheckRoundTrip:
    def test_spent_budget_gives_a_refused_attestation(self, tmp_path, monkeypatch, capsys):
        # the red cycle search of the pencil colouring takes 19 nodes: at a
        # budget of 10 verify writes an inexact free certificate, and check
        # refuses it
        inst = loose_cycle_lb(3, 2, 6, 2, "pencil", q=2)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(inst.coloring))
        tpath = write_json(tmp_path, "t.json", hypergraph_to_json(inst.blue_target))
        cert_out = tmp_path / "cert.json"
        monkeypatch.setattr("hyperramsey.search.DEFAULT_NODE_BUDGET", 10)
        assert main(["verify", "--coloring", cpath, "--red-pattern", "cycle:3:1:6",
                     "--blue-target", tpath, "--out", str(cert_out)]) == 0
        cert = json.loads(cert_out.read_text())
        assert (cert["kind"], cert["detail"]["exact"]) == ("free", False)
        capsys.readouterr()
        assert main(["check", "--certificate", str(cert_out), "--coloring", cpath]) == 3
        assert "inexact freeness attestation" in capsys.readouterr().out

    def test_free_certificate_accepted_as_attestation(self, tmp_path):
        col = all_red(3, 4)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(col))
        cert_out = tmp_path / "cert.json"
        rc = main(["verify", "--coloring", cpath, "--red-pattern", "path:3:2:8",
                   "--blue-target", "edge:3", "--out", str(cert_out)])
        assert rc == 0
        assert json.loads(cert_out.read_text())["kind"] == "free"
        rc = main(["check", "--certificate", str(cert_out), "--coloring", cpath])
        assert rc == 0

    def test_not_free_certificate_revalidates_inner_witness(self, tmp_path):
        # a colouring that is not free gets the certificate of the copy found
        col = all_red(3, 5)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(col))
        cert_out = tmp_path / "cert.json"
        rc = main(["verify", "--coloring", cpath, "--red-pattern", "path:3:2:4",
                   "--blue-target", "edge:3", "--out", str(cert_out)])
        assert rc == 0
        assert json.loads(cert_out.read_text())["kind"] == "red_path"
        rc = main(["check", "--certificate", str(cert_out), "--coloring", cpath])
        assert rc == 0


class TestEngineCycleKind:
    def test_cycle_target_through_cli(self, tmp_path):
        col = all_red(3, 12)
        cpath = write_json(tmp_path, "c.json", coloring_to_json(col))
        out = tmp_path / "e.json"
        rc = main(["engine", "loose", "--coloring", cpath, "--target", "10",
                   "--target-kind", "cycle", "--blue-target", "tth:2:2",
                   "--block-size", "6", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["outcome"] == "red_witness"
        cert = payload["certificate"]
        assert (cert["kind"], len(cert["witness"])) == ("red_cycle", 10)
        certpath = write_json(tmp_path, "cert.json", cert)
        assert main(["check", "--certificate", certpath, "--coloring", cpath]) == 0

    @pytest.mark.parametrize("kind, order", [("path", 8), ("cycle", 9)])
    def test_order_no_loose_path_or_cycle_has_exit_1(self, tmp_path, capsys, kind, order):
        cpath = write_json(tmp_path, "c.json", coloring_to_json(all_red(3, 12)))
        rc = main(["engine", "loose", "--coloring", cpath, "--target", str(order),
                   "--target-kind", kind, "--blue-target", "tth:2:2"])
        assert rc == 1
        assert f"loose {kind}" in capsys.readouterr().err

    def test_blue_target_of_another_uniformity_exit_1(self, tmp_path, capsys):
        cpath = write_json(tmp_path, "c.json", coloring_to_json(all_red(3, 8)))
        rc = main(["engine", "loose", "--coloring", cpath, "--target", "5", "--blue-target", "edge:4"])
        assert rc == 1
        assert "invalid input: the blue target is 4-uniform" in capsys.readouterr().err

    def test_order_no_tight_path_has_exit_1(self, tmp_path):
        cpath = write_json(tmp_path, "c.json", coloring_to_json(all_red(3, 12)))
        proc = run_cli(["engine", "tight", "--coloring", cpath, "--target", "2", "--tth", "2:2"])
        assert proc.returncode == 1, proc.stderr
        assert "invalid input" in proc.stderr and "tight path" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("mode_args, named", [
        (["tight"], "--tth"),
        (["loose"], "--blue-target"),
        (["tight", "--tth", "2"], "cannot parse pattern 'tth:2'"),
    ], ids=["tight-no-tth", "loose-no-blue-target", "tth-one-field"])
    def test_missing_or_bad_target_option_exit_1(self, tmp_path, mode_args, named):
        cpath = write_json(tmp_path, "c.json", coloring_to_json(TwoColoring.all_blue(3, 10)))
        proc = run_cli(["engine", *mode_args, "--coloring", cpath, "--target", "9"])
        assert proc.returncode == 1, proc.stderr
        assert "invalid input" in proc.stderr and named in proc.stderr
        assert "Traceback" not in proc.stderr


# chain witnesses (k = 3) on an all-red colouring of 9 vertices, one per
# problem `validate_chain` reports; None is validate_chain's own certificate
_OPEN9 = {"kind": "open", "ell": 1, "vertices": list(range(9))}
CHAIN_CASES = {
    "all-red": (None, None, "revalidated"),
    "one-k-set-blue": (None, (4, 5, 6), "interval 1: k-set (4, 5, 6) is not red"),
    "unknown-kind": ({**_OPEN9, "kind": "twisted", "intervals": [[0, 5], [4, 5]]}, None, "unknown kind 'twisted'"),
    "repeated-vertex": ({**_OPEN9, "vertices": [0, 1, 2, 3, 4, 5, 6, 7, 0], "intervals": [[0, 5], [4, 5]]}, None,
                        "vertex list has repeats"),
    "vertex-outside-host": ({**_OPEN9, "vertices": [0, 1, 2, 3, 4, 5, 6, 7, 9], "intervals": [[0, 5], [4, 5]]},
                            None, "vertex outside the host"),
    "no-intervals": ({**_OPEN9, "intervals": []}, None, "no intervals"),
    "closed-one-element": ({**_OPEN9, "kind": "closed", "intervals": [[0, 9]]}, None,
                           "closed chain needs at least two elements"),
    "closed-order-k": ({"kind": "closed", "ell": 1, "vertices": [0, 1, 2], "intervals": [[0, 3], [2, 3]]}, None,
                       "closed chain order must exceed k (wrap would repeat an edge)"),
    "interval-below-k": ({"kind": "open", "ell": 2, "vertices": [0, 1], "intervals": [[0, 2]]}, None,
                         "interval 0: length 2 < k"),
    "interval-length-mod": ({**_OPEN9, "vertices": [0, 1, 2, 3], "intervals": [[0, 4]]}, None,
                            "interval 0: length 4 != ell (mod k-ell)"),
    "interval-longer-than-chain": ({**_OPEN9, "vertices": [0, 1, 2], "intervals": [[0, 5]]}, None,
                                   "interval 0: longer than the chain"),
    "first-interval-late": ({**_OPEN9, "intervals": [[1, 5], [5, 3]]}, None, "interval 0 must start at position 0"),
    "junction-overlap": ({**_OPEN9, "intervals": [[0, 5], [3, 5]]}, None,
                         "interval 1: junction overlap is not exactly ell"),
    "open-cover": ({**_OPEN9, "intervals": [[0, 5]]}, None, "intervals do not cover the chain"),
    "closed-closure": ({**_OPEN9, "kind": "closed", "intervals": [[0, 5], [4, 5]]}, None,
                       "cyclic closure overlap is not exactly ell"),
}


class TestCertificateRoundTrips:
    @pytest.mark.parametrize("engine_args", [["loose", "--blue-target", "tth:2:2"],
                                             ["tight", "--tth", "2:2"]],
                             ids=["loose", "tight"])
    def test_engine_blue_certificate_checks(self, tmp_path, engine_args):
        cpath = write_json(tmp_path, "c.json", coloring_to_json(TwoColoring.all_blue(3, 12)))
        out = tmp_path / "e.json"
        assert main(["engine", *engine_args, "--coloring", cpath, "--target", "9",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["outcome"] == "blue_witness"
        certpath = write_json(tmp_path, "cert.json", payload["certificate"])
        assert main(["check", "--certificate", certpath, "--coloring", cpath]) == 0

    @pytest.mark.parametrize("blue_target", ["clique:3:4", "file"])
    def test_not_free_blue_certificate_checks(self, tmp_path, blue_target):
        from hyperramsey.core import complete_hypergraph
        cpath = write_json(tmp_path, "c.json", coloring_to_json(TwoColoring.all_blue(3, 6)))
        if blue_target == "file":
            blue_target = write_json(tmp_path, "h.json", hypergraph_to_json(complete_hypergraph(3, 4)))
        cert_out = tmp_path / "cert.json"
        assert main(["verify", "--coloring", cpath, "--red-pattern", "path:3:2:4",
                     "--blue-target", blue_target, "--out", str(cert_out)]) == 0
        cert = json.loads(cert_out.read_text())
        assert cert["kind"] == "blue_embedding"
        assert cert["detail"]["target"] == hypergraph_to_json(complete_hypergraph(3, 4))
        assert main(["check", "--certificate", str(cert_out), "--coloring", cpath]) == 0

    @pytest.mark.parametrize("coloring, rc", [(TwoColoring.all_blue(3, 8), 0),
                                              (all_red(3, 8), 3),
                                              (None, 3)],
                             ids=["all-blue", "all-red", "no-colouring"])
    def test_blue_crossing_attestation_rescanned(self, tmp_path, capsys, coloring, rc):
        cert = {"kind": "blue_crossing_attestation", "witness": None, "stats": {},
                "detail": {"blocks": [[0, 1, 2, 3], [4, 5, 6, 7]], "exact": True}}
        args = ["check", "--certificate", write_json(tmp_path, "cert.json", cert)]
        if coloring is not None:
            args += ["--coloring", write_json(tmp_path, "c.json", coloring_to_json(coloring))]
        assert main(args) == rc
        assert json.loads(capsys.readouterr().out)["valid"] is (rc == 0)

    def test_blue_crossing_attestation_blocks_must_be_host_vertices(self, tmp_path, capsys):
        cert = {"kind": "blue_crossing_attestation", "witness": None, "stats": {},
                "detail": {"blocks": [[0, 1, 2, 3], [3, 8, 9]], "exact": True}}
        args = ["check", "--certificate", write_json(tmp_path, "cert.json", cert),
                "--coloring", write_json(tmp_path, "c.json", coloring_to_json(TwoColoring.all_blue(3, 8)))]
        assert main(args) == 3
        assert "disjoint blocks" in json.loads(capsys.readouterr().out)["reason"]

    @pytest.mark.parametrize("flip, rc", [(False, 0), (True, 3)], ids=["untouched", "edge-flipped"])
    def test_red_cycle_not_free_round_trip(self, tmp_path, flip, rc):
        from hyperramsey.core import colex_rank
        cpath = write_json(tmp_path, "c.json", coloring_to_json(all_red(3, 6)))
        cert_out = tmp_path / "cert.json"
        assert main(["verify", "--coloring", cpath, "--red-pattern", "cycle:3:1:6",
                     "--blue-target", "edge:3", "--out", str(cert_out)]) == 0
        cert = json.loads(cert_out.read_text())
        assert (cert["kind"], cert["detail"]["ell"]) == ("red_cycle", 1)
        if flip:
            # the cycle's first window turns blue
            seq = cert["witness"]
            bits = all_red(3, 6).red_bits & ~(1 << colex_rank(tuple(sorted(seq[:3]))))
            cpath = write_json(tmp_path, "c.json", coloring_to_json(TwoColoring(3, 6, bits)))
        assert main(["check", "--certificate", str(cert_out), "--coloring", cpath]) == rc

    @pytest.mark.parametrize("sequence", [[], [0, 1, 2]], ids=["empty", "short-red"])
    def test_path_is_checked_on_its_witness_not_a_sequence(self, tmp_path, sequence):
        # only {0,1,2} is red, so the sequence is a red path and the witness is not
        from hyperramsey.core import colex_rank
        col = TwoColoring(3, 6, 1 << colex_rank((0, 1, 2)))
        cert = {"kind": "red_path", "witness": [0, 1, 2, 3, 4],
                "detail": {"ell": 1, "k": 3, "sequence": sequence}}
        assert main(["check", "--certificate", write_json(tmp_path, "cert.json", cert),
                     "--coloring", write_json(tmp_path, "c.json", coloring_to_json(col))]) == 3


    def test_cycle_is_checked_on_its_witness_not_a_sequence(self, tmp_path):
        # only the windows of the loose cycle 0..5 are red, so the witness
        # [0, 2, 4, 1, 3, 5] is no red cycle whatever detail.sequence says
        col = TwoColoring.from_red_edges(3, 6, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])
        cert = {"kind": "red_cycle", "witness": [0, 2, 4, 1, 3, 5],
                "detail": {"ell": 1, "k": 3, "sequence": [0, 1, 2, 3, 4, 5]}}
        assert main(["check", "--certificate", write_json(tmp_path, "cert.json", cert),
                     "--coloring", write_json(tmp_path, "c.json", coloring_to_json(col))]) == 3

    def test_not_free_wrapper_is_refused(self, tmp_path, capsys):
        # the old wrapper's inner certificate is a valid red path; its own
        # witness is not, and the kind is no longer one check knows
        from hyperramsey.core import colex_rank
        col = TwoColoring(3, 6, 1 << colex_rank((0, 1, 2)))
        inner = {"kind": "red_path", "witness": [0, 1, 2], "stats": {}, "detail": {"ell": 1}}
        cert = {"kind": "not_free", "witness": [3, 4, 5], "stats": {},
                "detail": {"side": "red", "pattern": "path:3:1:3", "inner": inner}}
        assert main(["check", "--certificate", write_json(tmp_path, "cert.json", cert),
                     "--coloring", write_json(tmp_path, "c.json", coloring_to_json(col))]) == 3
        assert "unknown certificate kind 'not_free'" in capsys.readouterr().out

    @pytest.mark.parametrize("witness, blue_set, reason", CHAIN_CASES.values(), ids=CHAIN_CASES.keys())
    def test_chain_certificate_rechecked(self, tmp_path, capsys, witness, blue_set, reason):
        # validate_chain's certificate of an open loose chain with elements
        # 0..4 and 4..8 is accepted; a blue k-set inside element 1 breaks it,
        # and so does each broken layout written as chain JSON from outside
        from hyperramsey.chains import CliqueChain, validate_chain
        from hyperramsey.core import colex_rank
        col = all_red(3, 9)
        if witness is None:
            cert = validate_chain(CliqueChain("open", 3, 1, tuple(range(9)), ((0, 5), (4, 5))), col)
            assert cert.kind == "chain"
            cert = cert.to_json()
        else:
            cert = {"kind": "chain", "witness": {"k": 3, **witness}}
        if blue_set is not None:
            col = TwoColoring(3, 9, col.red_bits & ~(1 << colex_rank(blue_set)))
        rc = main(["check", "--certificate", write_json(tmp_path, "cert.json", cert),
                   "--coloring", write_json(tmp_path, "c.json", coloring_to_json(col))])
        assert (rc, json.loads(capsys.readouterr().out)) == (0 if reason == "revalidated" else 3,
                                                             {"valid": rc == 0, "reason": reason})


# well-formed certificates whose witness has the wrong structure, that lack
# what a check needs or that claim another uniformity, on a colouring whose
# one blue triple is {3, 4, 5}: the structure is checked before any colour,
# so each reason names the structural fault, and one case's only fault is
# that blue triple
_K4 = hypergraph_to_json(complete_hypergraph(3, 4))
_REPEATS = "witness repeats a vertex"
_OUTSIDE = "witness has a vertex outside 0..5"
MISSHAPEN_WITNESSES = {
    "path-repeated-vertex": ({"kind": "red_path", "witness": [0, 1, 2, 1, 3], "detail": {"ell": 1, "k": 3}},
                             _REPEATS),
    "path-vertex-outside-host": ({"kind": "red_path", "witness": [0, 1, 2, 3, 6], "detail": {"ell": 1, "k": 3}},
                                 _OUTSIDE),
    "path-wrong-length": ({"kind": "red_path", "witness": [0, 1, 2, 3], "detail": {"ell": 1, "k": 3}},
                          "no such path: n=4 must satisfy n = 1 (mod 2)"),
    "cycle-repeated-vertex": ({"kind": "red_cycle", "witness": [0, 1, 2, 3, 2, 5], "detail": {"ell": 1, "k": 3}},
                              _REPEATS),
    "cycle-vertex-outside-host": ({"kind": "red_cycle", "witness": [0, 1, 2, 3, 4, 7],
                                   "detail": {"ell": 1, "k": 3}}, _OUTSIDE),
    "cycle-wrong-length": ({"kind": "red_cycle", "witness": [0, 1, 2, 3, 4], "detail": {"ell": 1, "k": 3}},
                           "no such cycle: n=5 must satisfy n = 0 (mod 2)"),
    "cycle-repeated-window": ({"kind": "red_cycle", "witness": [0, 1, 2], "detail": {"ell": 2, "k": 3}},
                              "degenerate cycle: edges coincide at n=3, k=3, ell=2"),
    "embedding-not-injective": ({"kind": "red_embedding", "witness": [0, 1, 1, 2], "detail": {"target": _K4}},
                                _REPEATS),
    "embedding-short": ({"kind": "red_embedding", "witness": [0, 1, 2], "detail": {"target": _K4}},
                        "witness has 3 vertices, its target 4"),
    "embedding-vertex-outside-host": ({"kind": "red_embedding", "witness": [0, 1, 2, 6], "detail": {"target": _K4}},
                                      _OUTSIDE),
    "path-blue-window": ({"kind": "red_path", "witness": [1, 2, 3, 4, 5], "detail": {"ell": 1, "k": 3}},
                         "edge [3, 4, 5] is not red"),
    "path-without-ell": ({"kind": "red_path", "witness": [0, 1, 2], "detail": {"k": 3}},
                         "missing witness, ell or k"),
    "cycle-without-k": ({"kind": "red_cycle", "witness": [0, 1, 2, 3], "detail": {"ell": 1}},
                        "missing witness, ell or k"),
    "embedding-without-target": ({"kind": "red_embedding", "witness": [0, 1, 2, 3], "detail": {"exact": True}},
                                 "embedding certificate lacks its target"),
    "embedding-absence": ({"kind": "red_embedding", "witness": None, "detail": {"target": _K4, "exact": True}},
                          "absence attestations cannot be re-validated in one pass"),
    # an edgeless 3-vertex target embeds anywhere, and 0..4 is a red loose
    # path; neither is what its certificate claims
    "embedding-edgeless-7-uniform-target": ({"kind": "red_embedding", "witness": [0, 1, 2],
                                             "detail": {"target": {"k": 7, "n": 3, "edges": []}}},
                                            "the certificate is 7-uniform, the colouring 3-uniform"),
    "path-claims-k-2": ({"kind": "red_path", "witness": [0, 1, 2, 3, 4], "detail": {"ell": 1, "k": 2}},
                        "the certificate is 2-uniform, the colouring 3-uniform"),
}


@pytest.mark.parametrize("cert, reason", MISSHAPEN_WITNESSES.values(), ids=MISSHAPEN_WITNESSES.keys())
def test_misshapen_witness_exit_3(tmp_path, capsys, cert, reason):
    col = TwoColoring.from_red_edges(3, 6, [e for e in combinations(range(6), 3) if e != (3, 4, 5)])
    assert main(["check", "--certificate", write_json(tmp_path, "cert.json", cert),
                 "--coloring", write_json(tmp_path, "c.json", coloring_to_json(col))]) == 3
    assert json.loads(capsys.readouterr().out) == {"valid": False, "reason": reason}


MALFORMED_CERTIFICATES = {
    "chain-witness-null": {"kind": "chain", "witness": None},
    "path-witness-string": {"kind": "red_path", "witness": [0, 1, "a"], "detail": {"ell": 1, "k": 3}},
    "cycle-ell-string": {"kind": "red_cycle", "witness": [0, 1, 2, 3], "detail": {"ell": "x", "k": 3}},
    "top-level-list": [],
    "path-ell-k": {"kind": "red_path", "witness": [0, 1, 2], "detail": {"ell": 3, "k": 3}},
    "chain-interval-string": {"kind": "chain", "witness": {"kind": "open", "k": 3, "ell": 1,
                                                           "vertices": [0, 1, 2],
                                                           "intervals": [[0, "3"]]}},
    "tth-chi-string": {"kind": "blue_embedding", "witness": [0, 1, 2, 3],
                       "detail": {"target": "tth", "chi": "2", "m": 2}},
    "target-edge-string": {"kind": "blue_embedding", "witness": [0, 1, 2],
                           "detail": {"target": {"k": 3, "n": 3, "edges": [[0, 1, "2"]]}}},
    "crossing-block-int": {"kind": "blue_crossing_attestation", "detail": {"blocks": [0, 1]}},
    # a JSON boolean is not an integer, though Python's bool is an int
    "path-witness-and-ell-bool": {"kind": "red_path", "witness": [True, 2, 3], "detail": {"ell": True, "k": 3}},
}


@pytest.mark.parametrize("cert", MALFORMED_CERTIFICATES.values(), ids=MALFORMED_CERTIFICATES.keys())
def test_malformed_certificate_exit_1(tmp_path, cert):
    proc = run_cli(["check", "--certificate", write_json(tmp_path, "cert.json", cert),
                    "--coloring", write_json(tmp_path, "c.json", coloring_to_json(all_red(3, 6)))])
    assert proc.returncode == 1, proc.stderr
    assert "invalid input" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("non_object, message", [("coloring", "a colouring is a JSON object"),
                                                  ("hypergraph", "a hypergraph is a JSON object")],
                         ids=["coloring", "hypergraph"])
def test_non_object_json_file_exit_1(tmp_path, non_object, message):
    files = {"coloring": coloring_to_json(TwoColoring.all_blue(3, 6)),
             "hypergraph": hypergraph_to_json(complete_hypergraph(3, 4))}
    files[non_object] = []
    proc = run_cli(["verify", "--coloring", write_json(tmp_path, "c.json", files["coloring"]),
                    "--red-pattern", "path:3:2:4",
                    "--blue-target", write_json(tmp_path, "h.json", files["hypergraph"])])
    assert proc.returncode == 1, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


_BITMAP = coloring_to_json(TwoColoring.all_blue(3, 6))["red_bitmap"]
MALFORMED_INPUT_FILES = {
    "coloring-k-null": ("coloring", {"k": None, "n": 6, "encoding": "colex-v1", "red_bitmap": _BITMAP}),
    "coloring-k-n-float": ("coloring", {"k": 3.9, "n": 6.2, "encoding": "colex-v1", "red_bitmap": _BITMAP}),
    "coloring-bitmap-int": ("coloring", {"k": 3, "n": 6, "encoding": "colex-v1", "red_bitmap": 5}),
    "tournament-arcs-int": ("tournament", {"n": 3, "arcs": 5}),
    "tournament-n-float": ("tournament", {"n": 3.5, "arcs": [[0, 1], [1, 2], [2, 0]]}),
    "tournament-arc-string": ("tournament", {"n": 3, "arcs": [[0, 1], [1, 2], [2, "0"]]}),
    "tournament-loop": ("tournament", {"n": 2, "arcs": [[1, 1]]}),
    "tournament-top-level-list": ("tournament", []),
    # a JSON boolean is not an integer, though Python's bool is an int
    "coloring-n-bool": ("coloring", {"k": 3, "n": True, "encoding": "colex-v1", "red_bitmap": ""}),
    "tournament-n-bool": ("tournament", {"n": True, "arcs": []}),
    "hypergraph-edge-bool": ("hypergraph", {"k": 3, "n": 4, "edges": [[True, 2, 3]]}),
    "blocks-int": ("blocks", 5),
    "blocks-vertex-string": ("blocks", [[0, 1, "x"], [4, 5, 6, 7]]),
    "blocks-vertex-outside-host": ("blocks", [[0, 1, 99], [4, 5, 6, 7]]),
    "blocks-overlapping": ("blocks", [[0, 1, 2, 3], [3, 4, 5, 6]]),
}


@pytest.mark.parametrize("kind, obj", MALFORMED_INPUT_FILES.values(), ids=MALFORMED_INPUT_FILES.keys())
def test_malformed_input_file_exit_1(tmp_path, kind, obj):
    path = write_json(tmp_path, f"{kind}.json", obj)
    if kind == "coloring":
        args = ["verify", "--coloring", path, "--red-pattern", "path:3:2:4", "--blue-target", "clique:3:4"]
    elif kind == "hypergraph":
        args = ["verify", "--coloring", write_json(tmp_path, "c.json", coloring_to_json(TwoColoring.all_blue(3, 6))),
                "--red-pattern", "path:3:2:4", "--blue-target", path]
    elif kind == "blocks":
        args = ["chain", "--coloring", write_json(tmp_path, "c.json", coloring_to_json(all_red(3, 8))),
                "--blocks", path, "--ell", "1", "--alpha", "2"]
    else:
        args = ["construct", "transitive", "--param", f"tournament={path}", "--param", "n=9",
                "--out", str(tmp_path / "out.json")]
    proc = run_cli(args)
    assert proc.returncode == 1, proc.stderr
    assert "invalid input" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unparsable_pattern_is_named(tmp_path):
    proc = run_cli(["verify", "--coloring", write_json(tmp_path, "c.json", coloring_to_json(TwoColoring.all_blue(3, 6))),
                    "--red-pattern", "path:3:2:4", "--blue-target", "a:b.json"])
    assert proc.returncode == 1, proc.stderr
    assert "invalid input: cannot parse pattern 'a:b.json'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_target_file_whose_name_holds_a_colon(tmp_path):
    hpath = write_json(tmp_path, "h:1.json", hypergraph_to_json(complete_hypergraph(3, 4)))
    out = tmp_path / "cert.json"
    assert main(["verify", "--coloring", write_json(tmp_path, "c.json", coloring_to_json(TwoColoring.all_blue(3, 6))),
                 "--red-pattern", "path:3:2:4", "--blue-target", hpath, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "blue_embedding"


def test_tournament_file_gives_the_same_construction(tmp_path):
    path = write_json(tmp_path, "t.json", tournament_to_json(Tournament.cyclic_triangle()))
    outs = []
    for extra in ([], ["--param", f"tournament={path}"]):
        out = tmp_path / f"out{len(outs)}.json"
        assert main(["construct", "transitive", "--param", "n=9", *extra, "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
