import csv
import io
import json
import os

import pytest

from tet4d.cli import main
from tet4d.scenes import SceneFile, decode_objects, generate, load_scene


def run_cli(args, capsys=None):
    try:
        rc = main(args)
    except SystemExit as ex:
        rc = ex.code
    return rc


@pytest.fixture
def work(tmp_path):
    return tmp_path


def _gen(work, name, *args):
    path = str(work / name)
    rc = run_cli(list(args) + ["--out", path])
    assert rc == 0
    return path


class TestGen:
    def test_deterministic_bytes(self, work):
        a = _gen(work, "a.json", "gen", "--kind", "TETRAHEDRA", "--n", "10",
                 "--range", "8", "--seed", "11")
        b = _gen(work, "b.json", "gen", "--kind", "TETRAHEDRA", "--n", "10",
                 "--range", "8", "--seed", "11")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_objects_valid(self, work):
        p = _gen(work, "t.json", "gen", "--kind", "TETRAHEDRA", "--n", "10",
                 "--range", "9", "--seed", "3")
        from tet4d.kernel4d import hyperplane_of

        tets = decode_objects(load_scene(p))
        assert len(tets) == 10
        for t in tets:
            hyperplane_of(t)

    def test_n_zero_usage_error(self, work):
        rc = run_cli(["gen", "--kind", "SEGMENTS", "--n", "0",
                      "--out", str(work / "x.json")])
        assert rc == 3

    def test_options_of_other_kinds_usage_error(self, work):
        # --style cluster is for TETRAHEDRA and --m for FLATS_AND_LINES only
        out = work / "x.json"
        for kind, option in (("SEGMENTS", ["--style", "cluster"]),
                             ("MOVING_TETRAHEDRA", ["--style", "cluster"]),
                             ("TETRAHEDRA", ["--m", "3"]), ("TRIANGLES", ["--m", "3"])):
            rc = run_cli(["gen", "--kind", kind, "--n", "4", *option, "--out", str(out)])
            assert rc == 3, (kind, option)
            assert not out.exists()
        with pytest.raises(ValueError):
            generate("TETRAHEDRA", 4, 4, 1, style="clustered")

    def test_all_kinds_roundtrip(self, work):
        for kind, n in (("SEGMENTS", 5), ("TRIANGLES", 5), ("TETRAHEDRA", 5),
                        ("MOVING_TETRAHEDRA", 4), ("FLATS_AND_LINES", 4)):
            p = _gen(work, f"{kind}.json", "gen", "--kind", kind, "--n", str(n),
                     "--range", "6", "--seed", "1")
            decode_objects(load_scene(p))


class TestQuery:
    def test_engine_both_no_mismatch(self, work):
        tets = _gen(work, "t.json", "gen", "--kind", "TETRAHEDRA", "--n", "12",
                    "--range", "6", "--spread", "7", "--seed", "5")
        segs = _gen(work, "s.json", "gen", "--kind", "SEGMENTS", "--n", "12",
                    "--range", "6", "--spread", "7", "--seed", "6")
        out = str(work / "rep.json")
        rc = run_cli(["query", "--scene", tets, "--queries", segs,
                      "--setup", "seg-tetra", "--mode", "report",
                      "--sigma", "2", "--engine", "both", "--out", out])
        assert rc == 0
        rep = json.load(open(out))
        assert rep["mismatch"] is False
        assert rep["report"] == rep["oracle"] == rep["structure"]

    def test_count_equals_report_length(self, work):
        tets = _gen(work, "t.json", "gen", "--kind", "TETRAHEDRA", "--n", "15",
                    "--range", "5", "--spread", "8", "--seed", "9")
        segs = _gen(work, "s.json", "gen", "--kind", "SEGMENTS", "--n", "15",
                    "--range", "5", "--spread", "8", "--seed", "10")
        outc = str(work / "c.json")
        outr = str(work / "r.json")
        assert run_cli(["query", "--scene", tets, "--queries", segs, "--setup",
                        "seg-tetra", "--mode", "count", "--out", outc]) == 0
        assert run_cli(["query", "--scene", tets, "--queries", segs, "--setup",
                        "seg-tetra", "--mode", "report", "--out", outr]) == 0
        c = json.load(open(outc))["report"]["count"]
        r = json.load(open(outr))["report"]["pairs"]
        assert c == len(r)

    def test_sigma_out_of_range_usage(self, work):
        tets = _gen(work, "t.json", "gen", "--kind", "TETRAHEDRA", "--n", "3",
                    "--seed", "1")
        segs = _gen(work, "s.json", "gen", "--kind", "SEGMENTS", "--n", "3",
                    "--seed", "2")
        rc = run_cli(["query", "--scene", tets, "--queries", segs,
                      "--setup", "seg-tetra", "--sigma", "9"])
        assert rc == 2

    def test_sigma_with_large_numerator(self, work):
        # sigma = 2001/1000 makes n^2001, beyond any float
        tets = _gen(work, "t.json", "gen", "--kind", "TETRAHEDRA", "--n", "30",
                    "--range", "6", "--spread", "7", "--seed", "3")
        segs = _gen(work, "s.json", "gen", "--kind", "SEGMENTS", "--n", "10",
                    "--range", "6", "--spread", "7", "--seed", "4")
        out = str(work / "o.json")
        rc = run_cli(["query", "--scene", tets, "--queries", segs, "--setup", "seg-tetra",
                      "--mode", "count", "--sigma", "2.001", "--out", out])
        assert rc == 0
        assert json.load(open(out))["mismatch"] is False

    def test_incompatible_scene_schema_error(self, work):
        segs = _gen(work, "s.json", "gen", "--kind", "SEGMENTS", "--n", "3",
                    "--seed", "2")
        rc = run_cli(["query", "--scene", segs, "--queries", segs,
                      "--setup", "seg-tetra"])
        assert rc == 3

    def test_malformed_scene_schema_error(self, work):
        bad = work / "bad.json"
        bad.write_text('{"version": 1, "kind": "TETRAHEDRA", "objects": [[["1","2"]]]}')
        segs = _gen(work, "s.json", "gen", "--kind", "SEGMENTS", "--n", "3", "--seed", "2")
        rc = run_cli(["query", "--scene", str(bad), "--queries", segs,
                      "--setup", "seg-tetra"])
        assert rc == 3

    def test_tri_tri_and_tetra_seg(self, work):
        tris = _gen(work, "tr.json", "gen", "--kind", "TRIANGLES", "--n", "10",
                    "--range", "5", "--spread", "7", "--seed", "21")
        tris2 = _gen(work, "tr2.json", "gen", "--kind", "TRIANGLES", "--n", "8",
                     "--range", "5", "--spread", "7", "--seed", "22")
        out = str(work / "o.json")
        assert run_cli(["query", "--scene", tris, "--queries", tris2,
                        "--setup", "tri-tri", "--mode", "count", "--out", out]) == 0
        assert json.load(open(out))["mismatch"] is False
        segs = _gen(work, "sg.json", "gen", "--kind", "SEGMENTS", "--n", "10",
                    "--range", "5", "--spread", "7", "--seed", "23")
        tets = _gen(work, "tt.json", "gen", "--kind", "TETRAHEDRA", "--n", "6",
                    "--range", "5", "--spread", "7", "--seed", "24")
        assert run_cli(["query", "--scene", segs, "--queries", tets,
                        "--setup", "tetra-seg", "--mode", "report", "--out", out]) == 0
        assert json.load(open(out))["mismatch"] is False


class TestFlatsCcdArrange:
    def test_flats_both_engines(self, work):
        fl = _gen(work, "f.json", "gen", "--kind", "FLATS_AND_LINES", "--n", "8",
                  "--m", "6", "--range", "7", "--seed", "31")
        out = str(work / "fr.json")
        assert run_cli(["flats", "--scene", fl, "--mode", "report", "--out", out]) == 0
        rep = json.load(open(out))
        assert rep["mismatch"] is False

    def test_ccd_end_to_end(self, work):
        mv = _gen(work, "m.json", "gen", "--kind", "MOVING_TETRAHEDRA", "--n", "8",
                  "--range", "6", "--spread", "4", "--seed", "41")
        out = str(work / "c.json")
        assert run_cli(["ccd", "--scene", mv, "--mode", "report", "--out", out]) == 0
        rep = json.load(open(out))
        assert rep["count"] == len(rep["collisions"])
        from fractions import Fraction

        from _oracles import collision_verified_at

        moving = decode_objects(load_scene(mv))
        for col in rep["collisions"]:
            i, j = col["pair"]
            assert collision_verified_at(moving, i, j, Fraction(col["witnessTime"]))

    def test_arrange_cluster(self, work):
        cl = _gen(work, "cl.json", "gen", "--kind", "TETRAHEDRA", "--n", "10",
                  "--range", "4", "--spread", "12", "--style", "cluster",
                  "--seed", "51")
        out = str(work / "a.json")
        wit = str(work / "w.json")
        assert run_cli(["arrange", "--scene", cl, "--out", out,
                        "--witness-out", wit]) == 0
        rep = json.load(open(out))
        assert rep["mismatch"] is False
        assert rep["k4"] >= rep["k3"] >= rep["k2"]
        assert os.path.exists(wit)

    def test_arrange_touching_clusters(self, work):
        # tetrahedra of different clusters meet only in segments or points
        objs = []
        for k in range(4):
            objs += generate("TETRAHEDRA", 5, 4, 70 + k, spread=12, style="cluster").objects
        path = str(work / "touch.json")
        with open(path, "w") as fh:
            fh.write(SceneFile(1, "TETRAHEDRA", objs, None).to_json())
        out = str(work / "a.json")
        assert run_cli(["arrange", "--scene", path, "--out", out]) == 0
        assert json.load(open(out))["mismatch"] is False

    def test_arrange_oracle_rejects_scene(self, work):
        # three copies of one tetrahedron: the triple's hyperplanes coincide
        t = [["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]]
        path = str(work / "same.json")
        with open(path, "w") as fh:
            fh.write(SceneFile(1, "TETRAHEDRA", [t, t, t], None).to_json())
        assert run_cli(["arrange", "--scene", path, "--out", str(work / "a.json")]) == 3

    def test_arrange_pipeline_error_is_mismatch(self, work, monkeypatch):
        from tet4d import arrangement
        from tet4d.kernel4d import DegeneratePosition

        def failing(tets, seed=0):
            raise DegeneratePosition("injected")

        monkeypatch.setattr(arrangement, "k_counts", failing)
        cl = _gen(work, "cl.json", "gen", "--kind", "TETRAHEDRA", "--n", "6",
                  "--range", "4", "--spread", "12", "--style", "cluster",
                  "--seed", "51")
        out = str(work / "a.json")
        assert run_cli(["arrange", "--scene", cl, "--out", out]) == 4
        assert json.load(open(out))["mismatch"] is True


class TestBench:
    def test_rows_cutoff_and_determinism(self, work):
        tets = _gen(work, "t.json", "gen", "--kind", "TETRAHEDRA", "--n", "15",
                    "--range", "6", "--spread", "7", "--seed", "61")
        segs = _gen(work, "s.json", "gen", "--kind", "SEGMENTS", "--n", "10",
                    "--range", "6", "--spread", "7", "--seed", "62")
        out1 = str(work / "b1.csv")
        out2 = str(work / "b2.csv")
        for out in (out1, out2):
            assert run_cli(["bench", "--scene", tets, "--queries", segs,
                            "--setup", "seg-tetra", "--sigma-grid", "1,1.5,2,3,6",
                            "--repetitions", "2", "--out", out]) == 0
        rows1 = list(csv.DictReader(open(out1)))
        rows2 = list(csv.DictReader(open(out2)))
        assert len(rows1) == 10  # 5 sigmas x 2 repetitions
        cutoffs = [int(r["leafCutoff"]) for r in rows1[:5]]
        assert cutoffs == sorted(cutoffs, reverse=True)
        assert len(set(cutoffs)) == len(cutoffs)  # strictly ordered
        assert all(r["mismatch"] == "False" for r in rows1)
        assert all(r["leafMedianNonIncreasing"] == "True" for r in rows1)

        def strip(rows):
            return [{k: v for k, v in r.items() if k != "wallMillis"} for r in rows]

        # identical non-timing columns across repetitions and across runs
        assert strip(rows1[:5]) == strip(rows1[5:])
        assert strip(rows1) == strip(rows2)


class TestPredict:
    def test_sigma_rows(self, capsys):
        assert run_cli(["predict", "--sigma-grid", "1,2,6"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["sigma", "queryExponent", "prematureExponent"]
        table = {r[0]: r[1] for r in rows[1:]}
        assert float(table["2"]) == 0.5
        assert float(table["1"]) == pytest.approx(5 / 6)
        assert float(table["6"]) == 0.0

    def test_mu_rows(self, capsys):
        assert run_cli(["predict", "--mu-grid", "0,1,3/2"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        table = {r[0]: r[1] for r in rows[1:]}
        assert float(table["1"]) == 1.625
        assert float(table["3/2"]) == 2.0
        assert float(table["0"]) == 1.0


class TestNumberArguments:
    """sigma must be a fraction in [1, 6] and mu a fraction >= 0; anything
    else is a usage error, exit 2, before any scene is read."""

    @pytest.mark.parametrize("args", [
        ("query", "--setup", "seg-tetra", "--sigma", "abc"),
        ("query", "--setup", "seg-tetra", "--sigma", "1/0"),
        ("flats", "--sigma", "0"),
        ("bench", "--setup", "seg-tetra", "--sigma-grid", "1,x"),
        ("bench", "--setup", "seg-tetra", "--sigma-grid", "2,13/2"),
    ])
    def test_bad_sigma_on_a_scene_usage(self, work, capsys, args):
        tets = _gen(work, "t.json", "gen", "--kind", "TETRAHEDRA", "--n", "3", "--seed", "1")
        segs = _gen(work, "s.json", "gen", "--kind", "SEGMENTS", "--n", "3", "--seed", "2")
        assert run_cli([args[0], "--scene", tets, "--queries", segs, *args[1:]]) == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("--sigma-grid", "9"), ("--sigma-grid", "x"), ("--sigma-grid", "1,,2"),
        ("--mu-grid", "x"), ("--mu-grid", "-1"), ("--mu-grid", "0,1/0"),
    ])
    def test_bad_predict_grid_usage(self, capsys, args):
        assert run_cli(["predict", *args]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_fraction_grids_accepted(self, capsys):
        assert run_cli(["predict", "--sigma-grid", "1,3/2,6"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [r[0] for r in rows[1:]] == ["1", "3/2", "6"]
