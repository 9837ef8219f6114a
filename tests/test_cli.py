import numpy as np
import pytest

from jwprop import read_labels, read_scores
from jwprop.cli import main
from jwprop.engine import DIAG_COLUMNS


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def pipeline_files(tmp_path):
    base = tmp_path / "base.tsv"
    graph = tmp_path / "graph.tsv"
    truth = tmp_path / "truth.tsv"
    train = tmp_path / "train.tsv"
    assert run_cli("gen-pa", "--nodes", 300, "--m", 3, "--seed", 1, "--out", base) == 0
    assert run_cli("synth-sybil", "--graph", base, "--attack-edges", 400,
                   "--seed", 1, "--out-graph", graph, "--out-truth", truth) == 0
    assert run_cli("sample-train", "--truth", truth, "--pos", 30, "--neg", 30,
                   "--seed", 1, "--out", train) == 0
    return {"graph": graph, "truth": truth, "train": train, "dir": tmp_path}


class TestPipeline:
    def test_end_to_end(self, pipeline_files, capsys):
        d = pipeline_files["dir"]
        scores = d / "scores.tsv"
        log = d / "log.tsv"
        rc = run_cli("run", "--graph", pipeline_files["graph"],
                     "--undirected", "--train", pipeline_files["train"],
                     "--method", "lbp-jwp", "--reg", "consistency",
                     "--lambda", 1.0, "--gamma", 0.01, "--out", scores, "--log", log)
        assert rc == 0
        ids, vals, preds = read_scores(scores)
        assert len(ids) == 600
        assert np.all(np.isfinite(vals))
        assert log.read_text().startswith("t\t")

        rc = run_cli("eval", "--scores", scores, "--truth", pipeline_files["truth"],
                     "--exclude", pipeline_files["train"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()[-1]
        assert out.startswith("AUC\t")
        assert float(out.split("\t")[1]) > 0.8

    @pytest.mark.parametrize("method,direction", [("lbp-jwp", "--undirected"),
                                                  ("rw-jwp", "--undirected"),
                                                  ("lbp-jwp", "--directed")])
    def test_log_leaves_scores_unchanged(self, pipeline_files, capsys, method,
                                         direction):
        d = pipeline_files["dir"]
        args = ("run", "--graph", pipeline_files["graph"], direction,
                "--train", pipeline_files["train"], "--method", method,
                "--lambda", 0.7, "--gamma", 0.05)
        capsys.readouterr()
        assert run_cli(*args, "--out", d / "plain.tsv") == 0
        plain_summary = capsys.readouterr().out
        log = d / "log.tsv"
        assert run_cli(*args, "--out", d / "logged.tsv", "--log", log) == 0
        summary = capsys.readouterr().out
        assert (d / "plain.tsv").read_bytes() == (d / "logged.tsv").read_bytes()
        assert plain_summary.replace("plain.tsv", "logged.tsv") == summary
        alternations = int(summary.split("alternations=")[1].split()[0])
        rows = log.read_text().splitlines()
        assert rows[0].split("\t") == list(DIAG_COLUMNS)
        assert [int(row.split("\t")[0]) for row in rows[1:]] == list(
            range(1, alternations + 1))

    def test_noise_command(self, pipeline_files):
        d = pipeline_files["dir"]
        noisy = d / "noisy.tsv"
        rc = run_cli("noise", "--train", pipeline_files["train"], "--alpha", 50,
                     "--seed", 2, "--out", noisy)
        assert rc == 0
        before = read_labels(pipeline_files["train"])
        after = read_labels(noisy)
        assert len(after) == len(before)
        assert len(before.positives - after.positives) == 15

    def test_rw_method(self, pipeline_files, tmp_path):
        scores = tmp_path / "rw.tsv"
        rc = run_cli("run", "--graph", pipeline_files["graph"], "--undirected",
                     "--train", pipeline_files["train"], "--method", "rw-b",
                     "--restart", 0.15, "--out", scores)
        assert rc == 0

    def test_directed_run(self, tmp_path):
        base = tmp_path / "b.tsv"
        directed = tmp_path / "d.tsv"
        run_cli("gen-pa", "--nodes", 100, "--m", 3, "--seed", 0, "--out", base,
                "--directed-keep", 0.5, "--out-directed", directed)
        train = tmp_path / "t.tsv"
        train.write_text("".join(f"{i}\t1\n" for i in range(5))
                         + "".join(f"{i}\t-1\n" for i in range(5, 10)))
        scores = tmp_path / "s.tsv"
        rc = run_cli("run", "--graph", directed, "--directed", "--train", train,
                     "--method", "lbp-jwp", "--out", scores)
        assert rc == 0
        ids, _, _ = read_scores(scores)
        assert len(ids) == 100


class TestProjectMutual:
    def test_projection_outputs(self, tmp_path):
        g = tmp_path / "g.tsv"
        g.write_text("0\t1\n1\t0\n0\t2\n")
        out = tmp_path / "und.tsv"
        remap = tmp_path / "remap.tsv"
        rc = run_cli("project-mutual", "--graph", g, "--out", out,
                     "--out-remap", remap)
        assert rc == 0
        assert out.read_text() == "0\t1\n"
        assert remap.read_text() == "0\t0\n1\t1\n"


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path):
        rc = run_cli("run", "--graph", tmp_path / "nope.tsv", "--undirected",
                     "--train", tmp_path / "nope2.tsv", "--method", "lbp",
                     "--out", tmp_path / "o.tsv")
        assert rc == 2

    def test_malformed_graph_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t1\nbroken line here\n")
        train = tmp_path / "t.tsv"
        train.write_text("0\t1\n1\t-1\n")
        rc = run_cli("run", "--graph", bad, "--undirected", "--train", train,
                     "--method", "lbp", "--out", tmp_path / "o.tsv")
        assert rc == 2

    @pytest.mark.parametrize("graph_bytes,train_bytes,message", [
        (b"0\t1\n0\t99999999999999999999\n", b"0\t1\n1\t-1\n",
         "g.tsv:2: node ids must be below 2**63"),
        (b"0\t1\n1\t\xff2\n", b"0\t1\n1\t-1\n", "g.tsv:2: not valid UTF-8"),
        (b"0\t1\n", b"0\t1\n1\t\xfe-1\n", "t.tsv:2: not valid UTF-8"),
    ], ids=["int64_overflow_id", "non_utf8_graph", "non_utf8_labels"])
    def test_hostile_input_is_input_error(self, tmp_path, capsys, graph_bytes,
                                          train_bytes, message):
        g = tmp_path / "g.tsv"
        g.write_bytes(graph_bytes)
        train = tmp_path / "t.tsv"
        train.write_bytes(train_bytes)
        rc = run_cli("run", "--graph", g, "--undirected", "--train", train,
                     "--method", "lbp", "--out", tmp_path / "o.tsv")
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_rw_on_directed_is_input_error(self, tmp_path):
        g = tmp_path / "g.tsv"
        g.write_text("0\t1\n")
        train = tmp_path / "t.tsv"
        train.write_text("0\t1\n1\t-1\n")
        rc = run_cli("run", "--graph", g, "--directed", "--train", train,
                     "--method", "rw-b", "--out", tmp_path / "o.tsv")
        assert rc == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        g = tmp_path / "g.tsv"
        g.write_text("0\t1\n")
        train = tmp_path / "t.tsv"
        train.write_text("0\t1\n1\t-1\n")
        rc = run_cli("run", "--graph", g, "--undirected", "--train", train,
                     "--method", "lbp", "--w0", "1e200", "--clamp", "1e300",
                     "--out", tmp_path / "o.tsv")
        assert rc == 3

    def test_w0_above_clamp_is_input_error(self, tmp_path, capsys):
        g = tmp_path / "g.tsv"
        g.write_text("0\t1\n")
        train = tmp_path / "t.tsv"
        train.write_text("0\t1\n1\t-1\n")
        rc = run_cli("run", "--graph", g, "--undirected", "--train", train,
                     "--method", "lbp", "--w0", 0.9, "--clamp", 0.5,
                     "--out", tmp_path / "o.tsv")
        assert rc == 2
        assert "w0 0.9 exceeds the clamp bound 0.5" in capsys.readouterr().err

    def test_non_numeric_clamp_is_input_error(self, tmp_path):
        g = tmp_path / "g.tsv"
        g.write_text("0\t1\n")
        train = tmp_path / "t.tsv"
        train.write_text("0\t1\n1\t-1\n")
        rc = run_cli("run", "--graph", g, "--undirected", "--train", train,
                     "--method", "lbp", "--clamp", "wide", "--out", tmp_path / "o.tsv")
        assert rc == 2


    @pytest.mark.parametrize("flag,value,message", [
        ("--tol", "nan", "tolerance must be finite"),
        ("--tol", "inf", "tolerance must be finite"),
        ("--clamp", "-0.1", "clamp_bound must be nonnegative"),
        ("--clamp", "nan", "clamp_bound must be finite"),
        ("--lambda", "-1", "lam must be nonnegative"),
        ("--lambda", "nan", "lam must be finite"),
        ("--theta", "nan", "theta must be finite"),
        ("--gamma", "nan", "gamma must be finite"),
        ("--gamma", "inf", "gamma must be finite"),
        ("--w0", "nan", "w0 must be finite"),
    ])
    def test_bad_float_option_is_input_error(self, tmp_path, capsys, flag, value,
                                             message):
        g = tmp_path / "g.tsv"
        g.write_text("0\t1\n1\t2\n")
        train = tmp_path / "t.tsv"
        train.write_text("0\t1\n2\t-1\n")
        rc = run_cli("run", "--graph", g, "--undirected", "--train", train,
                     "--method", "lbp-jwp", f"{flag}={value}",
                     "--out", tmp_path / "o.tsv")
        assert rc == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("command,args,message", [
        ("gen-pa", ["--nodes", "20", "--m", "2", "--seed", "-1"], "seed must be nonnegative"),
        ("gen-pa", ["--nodes", "20", "--m", "2", "--directed-keep", "nan",
                    "--out-directed", "{dir}/d.tsv"], "keep_fraction"),
        ("synth-sybil", ["--graph", "{dir}/g.tsv", "--attack-edges", "2", "--seed", "-1",
                         "--out-graph", "{dir}/out.tsv", "--out-truth", "{dir}/truth.tsv"],
         "seed must be nonnegative"),
        ("sample-train", ["--truth", "{dir}/labels.tsv", "--pos", "1", "--neg", "1",
                          "--seed", "-3"], "seed must be nonnegative"),
        ("sample-train", ["--truth", "{dir}/labels.tsv", "--pos", "-1", "--neg", "1"],
         "training counts must be nonnegative"),
        ("noise", ["--train", "{dir}/labels.tsv", "--alpha", "50", "--seed", "-1"],
         "seed must be nonnegative"),
    ])
    def test_bad_generator_input_is_input_error(self, tmp_path, capsys, command, args,
                                                message):
        (tmp_path / "g.tsv").write_text("0\t1\n1\t2\n")
        (tmp_path / "labels.tsv").write_text("0\t1\n1\t1\n2\t-1\n3\t-1\n")
        out = tmp_path / "out.tsv"
        if command != "synth-sybil":
            args = args + ["--out", str(out)]
        rc = run_cli(command, *(a.format(dir=tmp_path) for a in args))
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestEvalScoreFile:
    # node 0 positive, nodes 1 and 2 negative; the scores rank them perfectly
    ROWS = "0\t0.9\t1\n1\t-0.5\t-1\n2\t-0.7\t-1\n"

    def run_eval(self, tmp_path, rows):
        scores = tmp_path / "s.tsv"
        scores.write_text(rows)
        truth = tmp_path / "truth.tsv"
        truth.write_text("0\t1\n1\t-1\n2\t-1\n")
        return run_cli("eval", "--scores", scores, "--truth", truth)

    def test_valid_file(self, tmp_path, capsys):
        assert self.run_eval(tmp_path, self.ROWS) == 0
        assert capsys.readouterr().out == "AUC\t1.000000\n"

    def test_negative_id_is_input_error(self, tmp_path, capsys):
        # it once overwrote the score of the last node
        assert self.run_eval(tmp_path, self.ROWS + "-1\t-0.9\t-1\n") == 2
        assert "s.tsv:4: node id -1 is outside" in capsys.readouterr().err

    def test_repeated_id_is_input_error(self, tmp_path, capsys):
        assert self.run_eval(tmp_path, self.ROWS + "0\t-0.9\t-1\n") == 2
        assert "s.tsv:4: node 0 was already scored on line 1" in capsys.readouterr().err

    def test_missing_labeled_node_is_input_error(self, tmp_path, capsys):
        assert self.run_eval(tmp_path, "0\t0.9\t1\n1\t-0.5\t-1\n") == 2
        assert "missing 1 labeled nodes (e.g. node 2)" in capsys.readouterr().err

    def test_huge_id_is_input_error(self, tmp_path, capsys):
        # it once sized a dense score vector by the id
        assert self.run_eval(tmp_path, self.ROWS + "99999999999999\t0.1\t1\n") == 2
        assert "s.tsv:4: node id 99999999999999 is outside" in capsys.readouterr().err


def test_run_reports_resolved_clamp(tmp_path, capsys):
    g = tmp_path / "g.tsv"
    g.write_text("0\t1\n1\t2\n0\t2\n")
    train = tmp_path / "t.tsv"
    train.write_text("0\t1\n1\t-1\n")
    common = ("run", "--graph", g, "--undirected", "--train", train,
              "--out", tmp_path / "o.tsv", "--max-alt", 1)
    assert run_cli(*common, "--method", "lbp") == 0
    # the triangle's adjacency has spectral radius 2
    assert "w0=0.45 clamp=0.495 " in capsys.readouterr().out
    assert run_cli(*common, "--method", "lbp", "--w0", 0.1, "--clamp", 0.3) == 0
    assert "w0=0.1 clamp=0.3 " in capsys.readouterr().out
    assert run_cli(*common, "--method", "rw-b") == 0
    assert "w0=0.5 clamp=0.5 " in capsys.readouterr().out
