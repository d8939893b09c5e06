import csv
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anomtax
from anomtax.cli import main
from anomtax.data import Dataset, load_csv, save_csv

TINY_CONFIG = """
[synthetic]
bounds = -20, -20, 120, 120
scatter = 12
blob1 = 30, 30, 4, 4, 40
blob2 = 70, 65, 6, 6, 38

[labeling]
clusters = 2

[train]
max_epochs = 40

[ga]
cycles = 3
population = 5
"""


def tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return str(path)


@pytest.fixture()
def labeled_csv(tmp_path, tiny_config):
    synth = tmp_path / "synth.csv"
    assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                 "synth", str(synth)]) == 0
    out = tmp_path / "lab"
    assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                 "--out", str(out), "label", str(synth)]) == 0
    return out / "labeled.csv"


class TestSynth:
    def test_writes_and_reports(self, tmp_path, tiny_config, capsys):
        target = tmp_path / "s.csv"
        assert main(["--seed", "1", "--config", tiny_config,
                     "synth", str(target)]) == 0
        ds = load_csv(target)
        assert ds.n == 90 and ds.dim == 2
        assert "n=90 d=2" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path, tiny_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["--seed", "2", "--config", tiny_config, "--quiet",
              "synth", str(a)])
        main(["--seed", "2", "--config", tiny_config, "--quiet",
              "synth", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_required(self, tmp_path, tiny_config, capsys):
        assert main(["--config", tiny_config, "synth",
                     str(tmp_path / "x.csv")]) == 1
        assert "error in stage 'config'" in capsys.readouterr().err

    def test_single_point(self, tmp_path):
        cfg = tmp_path / "one.ini"
        cfg.write_text("[synthetic]\nscatter = 0\nblob1 = 1, 2, 0, 0, 1\n",
                       encoding="utf-8")
        target = tmp_path / "one.csv"
        assert main(["--seed", "3", "--config", str(cfg), "--quiet",
                     "synth", str(target)]) == 0
        assert len(target.read_text().splitlines()) == 2  # header + 1 row


class TestLabel:
    def test_unsupervised_outputs(self, labeled_csv):
        out = labeled_csv.parent
        assert (out / "labeling_report.csv").is_file()
        assert (out / "labeling_report.txt").is_file()
        ds = load_csv(labeled_csv)
        assert ds.labels is not None and ds.n == 90
        header = (out / "labeling_report.csv").read_text().splitlines()[0]
        assert header == "class,#Point,#Cluster,#ND,#CNA,#CPA,#PA"

    def test_refuses_relabel_without_flag(self, tmp_path, tiny_config,
                                          labeled_csv, capsys):
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "--out", str(tmp_path / "again"),
                     "label", str(labeled_csv)]) == 1
        assert "--relabel" in capsys.readouterr().err

    def test_relabel_flag_allows(self, tmp_path, tiny_config, labeled_csv):
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "--out", str(tmp_path / "again"),
                     "label", str(labeled_csv), "--relabel"]) == 0

    @staticmethod
    def _label_supervised(tmp_path, data: str) -> int:
        from conftest import make_iris_like
        from anomtax.data import save_csv
        csv_path = tmp_path / "iris.csv"
        save_csv(make_iris_like(), csv_path)
        cfg = tmp_path / "sup.ini"
        cfg.write_text(TINY_CONFIG.replace("clusters = 2", "clusters = 3")
                       + "\n[data]\n" + data, encoding="utf-8")
        return main(["--seed", "0", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "sup"), "label", str(csv_path)])

    def test_supervised_mode_multiple_reports(self, tmp_path):
        assert self._label_supervised(
            tmp_path, "retained = petal_len, petal_wid\n"
                      "discarded = sepal_len, sepal_wid\n") == 0
        rows = list(csv.reader(
            (tmp_path / "sup" / "labeling_report.csv").read_text()
            .splitlines()))
        assert len(rows) == 4  # header + three classes
        assert [r[1] for r in rows[1:]] == ["50", "50", "50"]
        # each class is re-normalized on its own: no one range to record
        assert not (tmp_path / "sup" / "norm_params.txt").exists()

    def test_sparse_class_ids_label_like_dense(self, tmp_path):
        # labeling visits the ids that occur, not every integer below the
        # largest; a subprocess with a timeout fails instead of hanging
        from conftest import make_iris_like
        from anomtax.data import Dataset, save_csv
        iris = make_iris_like()
        two = iris.subset(np.flatnonzero(iris.class_ids < 2))
        cfg = tmp_path / "sup.ini"
        cfg.write_text(TINY_CONFIG + "\n[data]\nretained = petal_len, "
                       "petal_wid\ndiscarded = sepal_len, sepal_wid\n",
                       encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(anomtax.__file__).parents[1])
        outputs = []
        for top in (1, 2**40):
            csv_path = tmp_path / f"ids{top}.csv"
            save_csv(Dataset(two.features, two.feature_names,
                             two.class_ids * top), csv_path)
            out = tmp_path / f"lab{top}"
            done = subprocess.run(
                [sys.executable, "-m", "anomtax.cli", "--seed", "0",
                 "--config", str(cfg), "--quiet", "--out", str(out),
                 "label", str(csv_path)],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            labeled = list(csv.reader(
                (out / "labeled.csv").read_text().splitlines()))
            report = list(csv.reader(
                (out / "labeling_report.csv").read_text().splitlines()))
            assert [r[-2] for r in labeled[1:]] == \
                [str(c * top) for c in two.class_ids]
            assert [r[0] for r in report[1:]] == ["0", str(top)]
            # everything but the class ids themselves
            outputs.append(([r[:-2] + r[-1:] for r in labeled],
                            [r[1:] for r in report]))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("data, named", [
        ("retained = petal_len, petal_wdt\ndiscarded = sepal_len, sepal\n",
         "petal_wdt, sepal"),
        ("retained = petal_len, petal_wid\n"
         "discarded = petal_wid, sepal_len\n", "petal_wid"),
        ("retained = petal_len, petal_len\n"
         "discarded = sepal_len, sepal_wid\n", "twice in one list: petal_len"),
    ], ids=["unknown", "both", "twice"])
    def test_supervised_feature_names_checked(self, tmp_path, capsys, data,
                                              named):
        assert self._label_supervised(tmp_path, data) == 1
        err = capsys.readouterr().err
        assert "error in stage 'label'" in err and named in err
        assert not (tmp_path / "sup" / "labeled.csv").exists()

    @pytest.mark.parametrize("data", [
        "retained = nope\ndiscarded = zip\n", "retained = x\n",
        "discarded = y\n"], ids=["both", "retained", "discarded"])
    def test_unsupervised_refuses_feature_split(self, tmp_path, capsys,
                                                data):
        cfg = tmp_path / "split.ini"
        cfg.write_text(TINY_CONFIG + "\n[data]\n" + data, encoding="utf-8")
        synth = tmp_path / "synth.csv"
        assert main(["--seed", "5", "--config", str(cfg), "--quiet",
                     "synth", str(synth)]) == 0
        out = tmp_path / "lab"
        assert main(["--seed", "5", "--config", str(cfg), "--quiet",
                     "--out", str(out), "label", str(synth)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'label'" in err
        assert "[data] retained and discarded" in err
        assert "'class' column" in err
        assert not out.exists()

    def test_column_named_twice_stops_in_load(self, tmp_path, tiny_config,
                                              capsys):
        # '[data] retained = a' could mean either 'a' column
        rng = np.random.default_rng(0)
        rows = [f"{a:.3f},{b:.3f},{c:.3f},{i % 3}"
                for i, (a, b, c) in enumerate(rng.normal(size=(120, 3)))]
        dup = tmp_path / "dup.csv"
        dup.write_text("a,a,b,class\n" + "\n".join(rows) + "\n",
                       encoding="utf-8")
        cfg = tmp_path / "dup.ini"
        cfg.write_text(TINY_CONFIG + "\n[data]\nretained = a\n"
                       "discarded = b\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["--seed", "0", "--config", str(cfg), "--quiet",
                     "--out", str(out), "label", str(dup)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'load'" in err
        assert f"{dup}: header names column 'a' twice" in err
        assert not out.exists()

    @pytest.mark.parametrize("header, cls, data, stage", [
        ("x,y", "", "", "normalize"),
        ("x,y,class", ",0", "[data]\nretained = y\ndiscarded = x\n", "label"),
    ], ids=["unsupervised", "supervised"])
    def test_overflowing_range_rejected(self, tmp_path, header, cls, data,
                                        stage):
        # every cell is finite, but max - min of 'x' overflows float64;
        # a subprocess shows the warnings the run would print
        rows = ["1.5e308,0", "-1.5e308,1"] + [f"{i},{i + 2}"
                                              for i in range(6)]
        big = tmp_path / "big.csv"
        big.write_text(header + "\n" + "".join(r + cls + "\n" for r in rows),
                       encoding="utf-8")
        cfg = tmp_path / "big.ini"
        cfg.write_text(data, encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(anomtax.__file__).parents[1])
        out = tmp_path / "o"
        done = subprocess.run(
            [sys.executable, "-m", "anomtax.cli", "--seed", "0", "--config",
             str(cfg), "--out", str(out), "label", str(big)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert f"error in stage '{stage}': feature 'x' ranges from " \
               "-1.5e+308 to 1.5e+308" in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert not out.exists()

    def test_norm_params_hold_input_ranges(self, tmp_path, tiny_config):
        # one line per feature in header order, min and max bit for bit
        rng = np.random.default_rng(4)
        feats = rng.normal(0, 1, (40, 3)) * [1e-3, 7.0, 1e5]
        src = tmp_path / "in.csv"
        save_csv(Dataset(feats, ["zeta", "alpha", "mid"]), src)
        out = tmp_path / "lab"
        assert main(["--seed", "0", "--config", tiny_config, "--quiet",
                     "--out", str(out), "label", str(src)]) == 0
        lines = (out / "norm_params.txt").read_text(
            encoding="utf-8").splitlines()
        assert [line.split(" = ")[0] for line in lines] == \
            ["zeta", "alpha", "mid"]
        for line, col in zip(lines, feats.T):
            lo, hi = line.split(" = ")[1].split(",")
            assert float(lo).hex() == float(col.min()).hex()
            assert float(hi).hex() == float(col.max()).hex()

    def test_parse_error_names_stage(self, tmp_path, tiny_config, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,oops\n", encoding="utf-8")
        assert main(["--seed", "0", "--config", tiny_config, "--quiet",
                     "--out", str(tmp_path / "o"), "label", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'load'" in err and "oops" in err


class TestOutDir:
    """``--out`` is made in stage 'write', once the work has succeeded."""

    @pytest.mark.parametrize("text, data", [
        ("x,y,z,class\n", "[data]\nretained = x, y\ndiscarded = z\n"),
        ("x,y\n0,0\n1,0\n0,1\n", ""),
    ], ids=["header-only-supervised", "three-rows"])
    def test_failed_label_leaves_no_out_dir(self, tmp_path, capsys, text,
                                            data):
        csv_path = tmp_path / "in.csv"
        csv_path.write_text(text, encoding="utf-8")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY_CONFIG + "\n" + data, encoding="utf-8")
        out = tmp_path / "lab"
        assert main(["--seed", "0", "--config", str(cfg), "--quiet",
                     "--out", str(out), "label", str(csv_path)]) == 1
        assert "error in stage 'label'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, config, name", [
        (["--out", ""], "", "--out"),
        (["--out", "  "], "", "--out"),
        ([], "[run]\nout =\n", "[run] out"),
        (["--out", "run"], "[run]\nout =\n", "[run] out"),
    ], ids=["flag-empty", "flag-blank", "config-empty",
            "config-empty-under-flag"])
    def test_empty_out_stops_in_config(self, tmp_path, monkeypatch, capsys,
                                       tiny_config, flag, config, name):
        # Path("") is the working directory, so an empty value must not
        # reach the writers
        synth = tmp_path / "synth.csv"
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "synth", str(synth)]) == 0
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY_CONFIG + "\n" + config, encoding="utf-8")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["--seed", "5", "--config", str(cfg), "--quiet"] + flag
                    + ["label", str(synth)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'config'" in err and name in err
        assert list(work.iterdir()) == []

    def test_dot_out_writes_to_working_directory(self, tmp_path, monkeypatch,
                                                 tiny_config):
        synth = tmp_path / "synth.csv"
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "synth", str(synth)]) == 0
        monkeypatch.chdir(tmp_path)
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "--out", ".", "label", str(synth)]) == 0
        assert (tmp_path / "labeled.csv").is_file()

    @pytest.mark.parametrize("command", ["label", "compare", "eval"])
    def test_out_naming_a_file_stops_in_write(self, tmp_path, tiny_config,
                                              labeled_csv, command):
        args = {"label": ["label", "--relabel", str(labeled_csv)],
                "compare": ["compare", str(labeled_csv)],
                "eval": ["eval", str(tmp_path / "cmp" / "nn_model.txt"),
                         str(labeled_csv)]}[command]
        if command == "eval":
            assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                         "--out", str(tmp_path / "cmp"), "compare",
                         str(labeled_csv)]) == 0
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(anomtax.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "anomtax.cli", "--seed", "5", "--config",
             tiny_config, "--quiet", "--out", str(taken)] + args,
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300)
        assert done.returncode == 1
        assert "error in stage 'write'" in done.stderr
        assert "Traceback" not in done.stderr


class TestCompare:
    def test_summary_errors_match_confusion_csvs(self, tmp_path, tiny_config,
                                                 labeled_csv):
        # each printed test error is 1 - trace/total of the confusion
        # matrix written beside it: both come from one scoring
        out = tmp_path / "cmp"
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "--out", str(out), "compare", str(labeled_csv)]) == 0
        shown = re.fullmatch(r"NN test error (\S+)%, GA test error (\S+)%",
                             (out / "summary.txt").read_text().strip())
        assert shown is not None
        for tag, pct in zip(("nn", "ga"), shown.groups()):
            rows = list(csv.reader(
                (out / f"{tag}_confusion.csv").read_text().splitlines()))
            counts = np.array([[int(v) for v in r[1:]] for r in rows[1:]])
            error = 1 - np.trace(counts) / counts.sum()
            assert pct == f"{100.0 * error:.1f}", tag

    def test_outputs_and_summary(self, tmp_path, tiny_config, labeled_csv,
                                 capsys):
        out = tmp_path / "cmp"
        assert main(["--seed", "5", "--config", tiny_config,
                     "--out", str(out), "compare", str(labeled_csv)]) == 0
        for name in ("summary.txt", "nn_model.txt", "ga_best_model.txt",
                     "nn_confusion.txt", "ga_confusion.csv", "ga_cycles.csv",
                     "nn_metrics.csv", "ga_metrics.csv"):
            assert (out / name).is_file(), name
        # the metrics files hold each class's recall (its tpr) and fpr
        assert not (out / "tpr_fpr.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert summary.startswith("NN test error ")
        assert "GA test error " in summary

    def test_byte_identical_tree(self, tmp_path, tiny_config, labeled_csv):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        for out in (out1, out2):
            assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                         "--out", str(out), "compare",
                         str(labeled_csv)]) == 0
        assert tree_digest(out1) == tree_digest(out2)

    def test_empty_test_split_guard(self, tmp_path, tiny_config,
                                    labeled_csv, capsys):
        cfg = tmp_path / "full_train.ini"
        cfg.write_text(TINY_CONFIG + "\n[split]\ntrain = 1.0\n"
                       "validation = 0\ntest = 0\n", encoding="utf-8")
        assert main(["--seed", "5", "--config", str(cfg), "--quiet",
                     "--out", str(tmp_path / "x"), "compare",
                     str(labeled_csv)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'split'" in err
        assert "empty test split" in err

    def test_requires_labels(self, tmp_path, tiny_config, capsys):
        synth = tmp_path / "unlabeled.csv"
        main(["--seed", "5", "--config", tiny_config, "--quiet",
              "synth", str(synth)])
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "--out", str(tmp_path / "y"), "compare",
                     str(synth)]) == 1
        assert "no label column" in capsys.readouterr().err


class TestEvalAndRoc:
    def test_eval_outputs_self_consistent(self, tmp_path, tiny_config,
                                          labeled_csv):
        cmp_out = tmp_path / "cmp"
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "--out", str(cmp_out), "compare",
                     str(labeled_csv)]) == 0
        out = tmp_path / "ev"
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "--out", str(out), "eval",
                     str(cmp_out / "nn_model.txt"), str(labeled_csv)]) == 0
        # metrics recomputed from the emitted confusion CSV must agree
        rows = list(csv.reader(
            (out / "eval_confusion.csv").read_text().splitlines()))
        counts = np.array([[int(v) for v in r[1:]] for r in rows[1:]])
        metrics = list(csv.reader(
            (out / "eval_metrics.csv").read_text().splitlines()))[1:]
        for c, row in enumerate(metrics):
            col = counts[:, c].sum()
            expected_recall = counts[c, c] / col if col else float("nan")
            got = float(row[2])
            assert (np.isnan(got) and np.isnan(expected_recall)) or \
                got == pytest.approx(expected_recall, abs=1e-12)

    def test_eval_dimension_mismatch(self, tmp_path, tiny_config,
                                     labeled_csv, capsys):
        model = tmp_path / "wide_model.txt"
        # 3-input model against the 2-feature dataset
        n_weights = (3 + 1) * 10 + (10 + 1) * 4
        model.write_text("3 10 4\n" + "0.5\n" * n_weights, encoding="utf-8")
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "--out", str(tmp_path / "z"), "eval", str(model),
                     str(labeled_csv)]) == 1
        err = capsys.readouterr().err
        assert "3" in err and "2" in err

    @pytest.mark.parametrize("outputs", [3, 5])
    def test_output_size_other_than_four_rejected(
            self, tmp_path, tiny_config, labeled_csv, capsys, outputs):
        model = tmp_path / "model.txt"
        n_weights = (2 + 1) * 10 + (10 + 1) * outputs
        model.write_text(f"2 10 {outputs}\n" + "0.5\n" * n_weights,
                         encoding="utf-8")
        out = tmp_path / "z"
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "--out", str(out), "eval", str(model),
                     str(labeled_csv)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'load'" in err
        assert f"model is 2-10-{outputs}" in err
        assert "(ND, CNA, CPA, PA)" in err
        assert not out.exists()

    def test_header_only_csv_stops_in_eval(self, tmp_path, tiny_config,
                                           capsys):
        model = tmp_path / "model.txt"
        n_weights = (2 + 1) * 10 + (10 + 1) * 4
        model.write_text("2 10 4\n" + "0.5\n" * n_weights, encoding="utf-8")
        csv_path = tmp_path / "e.csv"
        csv_path.write_text("x,y,label\n", encoding="utf-8")
        out = tmp_path / "ev"
        assert main(["--seed", "0", "--config", tiny_config, "--quiet",
                     "--out", str(out), "eval", str(model),
                     str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'eval': empty confusion matrix" in err
        assert not out.exists()

    @pytest.mark.parametrize("weight", ["nan", "abc"])
    def test_bad_weight_stops_in_load(self, tmp_path, tiny_config,
                                      labeled_csv, capsys, weight):
        model = tmp_path / "model.txt"
        n_weights = (2 + 1) * 10 + (10 + 1) * 4
        model.write_text("2 10 4\n" + "0.5\n" * 5 + weight + "\n"
                         + "0.5\n" * (n_weights - 6), encoding="utf-8")
        out = tmp_path / "ev"
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "--out", str(out), "eval", str(model),
                     str(labeled_csv)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'load'" in err
        assert f"model.txt: line 7: weight must be a finite number, " \
               f"got '{weight}'" in err
        assert not out.exists()

    def test_roc_files(self, tmp_path, tiny_config, labeled_csv):
        cmp_out = tmp_path / "cmp"
        main(["--seed", "5", "--config", tiny_config, "--quiet",
              "--out", str(cmp_out), "compare", str(labeled_csv)])
        out = tmp_path / "ev"
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "--out", str(out), "eval",
                     str(cmp_out / "nn_model.txt"), str(labeled_csv)]) == 0
        csvs = list(out.glob("roc_eval_*.csv"))
        svgs = list(out.glob("roc_eval_*.svg"))
        assert csvs and len(csvs) == len(svgs)


class TestNetworkShape:
    def test_three_supervised_features(self, tmp_path):
        # the input size follows the retained features, with no [mlp]
        # section in the config
        from conftest import make_iris_like
        from anomtax.data import save_csv
        csv_path = tmp_path / "iris.csv"
        save_csv(make_iris_like(), csv_path)
        cfg = tmp_path / "sup3.ini"
        cfg.write_text(TINY_CONFIG.replace("clusters = 2", "clusters = 3")
                       + "\n[data]\nretained = sepal_wid, petal_len, "
                         "petal_wid\ndiscarded = sepal_len\n",
                       encoding="utf-8")
        base = ["--seed", "0", "--config", str(cfg), "--quiet"]
        lab, cmp_out = tmp_path / "lab", tmp_path / "cmp"
        labeled = lab / "labeled.csv"
        assert main(base + ["--out", str(lab), "label", str(csv_path)]) == 0
        assert load_csv(labeled).dim == 3
        assert main(base + ["--out", str(cmp_out), "compare",
                            str(labeled)]) == 0
        for name in ("nn_model.txt", "ga_best_model.txt"):
            first = (cmp_out / name).read_text().splitlines()[0]
            assert first == "3 10 4", name
        model = str(cmp_out / "ga_best_model.txt")
        assert main(base + ["--out", str(tmp_path / "ev"), "eval", model,
                            str(labeled)]) == 0

    def test_hidden_size_sets_model(self, tmp_path, labeled_csv):
        cfg = tmp_path / "h3.ini"
        cfg.write_text(TINY_CONFIG + "\n[mlp]\nhidden = 3\n",
                       encoding="utf-8")
        out = tmp_path / "cmp"
        assert main(["--seed", "5", "--config", str(cfg), "--quiet",
                     "--out", str(out), "compare", str(labeled_csv)]) == 0
        for name in ("nn_model.txt", "ga_best_model.txt"):
            assert (out / name).read_text().startswith("2 3 4\n"), name

    @pytest.mark.parametrize("text, named", [
        ("[mlp]\ninput = 2\n", "[mlp] input"),
        ("[mlp]\noutput = 4\n", "[mlp] output"),
        ("[mlp]\nhidden = 0\n", "[mlp] hidden"),
        ("[labeling]\nknnk = 9\n", "[labeling] knnk"),
        ("[tarin]\nmax_epochs = 5\n", "[tarin]"),
        ("[labeling]\nthreshold_mode = mean\n", "[labeling] threshold_mode"),
        ("[labeling]\nthreshold_value = 0.25\n",
         "[labeling] threshold_value"),
        ("[ga]\nfitness_metric = overall\n", "[ga] fitness_metric"),
        ("[train]\nsigma0 = 5e-5\n", "[train] sigma0"),
        ("[train]\nlambda0 = 5e-7\n", "[train] lambda0"),
        ("[run]\nseed = abc\n", "[run] seed"),
        ("[labeling]\nclusters = abc\n",
         "[labeling] clusters must be an integer, got 'abc'"),
        ("[labeling]\nscore_multiplier = nan\n",
         "[labeling] score_multiplier must be a finite number, got 'nan'"),
        ("[split]\ntrain = 0.7x\n",
         "[split] train must be a finite number, got '0.7x'"),
        ("[synthetic]\nblob1 = 1, 1, 1, 1, 2.7\n",
         "[synthetic] blob1 must be an integer, got '2.7'"),
        ("[synthetic]\nbounds = 0, 0, 1, inf\n",
         "[synthetic] bounds must be a finite number, got 'inf'"),
        ("[run]\nseed = -1\n",
         "[run] seed must be a non-negative integer, got -1"),
        ("[ga]\npopulation = 0\n", "[ga] population must be >= 1, got 0"),
        ("[ga]\nalpha = 2\n", "[ga] alpha must lie in [0, 1], got 2.0"),
        ("[labeling]\nclusters = 0\n",
         "[labeling] clusters must be >= 1, got 0"),
        ("[labeling]\nscore_multiplier = 0\n",
         "[labeling] score_multiplier must be > 0, got 0.0"),
        ("[split]\ntrain = -0.5\n", "[split] train must be >= 0, got -0.5"),
        ("[split]\ntrain = 0.5\n",
         "[split] train, validation and test must sum to 1, "
         "got 0.5 + 0.15 + 0.15 = 0.8"),
        ("[synthetic]\nscatter = -1\n",
         "[synthetic] scatter must be >= 0, got -1"),
        ("[synthetic]\nblob1 = 35, 35, 5, 5, 0\n",
         "[synthetic] blob1 must be >= 1, got 0"),
    ], ids=["input", "output", "hidden", "knnk", "tarin", "threshold-mode",
            "threshold-value", "fitness-metric", "sigma0", "lambda0",
            "file-seed",
            "clusters-abc", "multiplier-nan", "split-ratio", "blob-count",
            "bounds-inf", "negative-file-seed", "population-0", "alpha-2",
            "clusters-0", "multiplier-0", "split-negative", "split-sum",
            "scatter-negative", "blob-count-0"])
    def test_bad_config_stops_in_config(self, tmp_path, labeled_csv,
                                        capsys, text, named):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "cmp"
        assert main(["--seed", "5", "--config", str(cfg), "--quiet",
                     "--out", str(out), "compare", str(labeled_csv)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'config'" in err and named in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "roc"])
def test_removed_command_is_invalid_choice(tmp_path, tiny_config,
                                           labeled_csv, capsys, command):
    # compare trains the conventional network and eval writes ROC files
    with pytest.raises(SystemExit) as info:
        main(["--seed", "5", "--config", tiny_config, "--quiet", "--out",
              str(tmp_path / "old"), command, str(labeled_csv)])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "old").exists()


LAZY_MODULES = ("numpy.ma", "concurrent.futures", "dataclasses")


def _loaded_after(code: str, cwd) -> list:
    """Which of LAZY_MODULES a fresh interpreter holds after ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(anomtax.__file__).parents[1])
    probe = (code + "\nimport sys\n"
             f"print(' '.join(m for m in {LAZY_MODULES!r} "
             "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_label_and_compare_skip_lazy_imports(tmp_path, tiny_config,
                                             labeled_csv):
    # numpy loads numpy.ma on first use of its set routines (np.unique,
    # np.isin, np.setdiff1d), ~16 ms of every CLI process, and decorating
    # anomtax's classes as dataclasses cost each process ~22 ms
    by_numpy = [m for m in _loaded_after("import numpy", tmp_path)
                if m in ("numpy.ma", "dataclasses")]
    if by_numpy:
        pytest.skip(f"this numpy imports {', '.join(by_numpy)} on import")
    synth = labeled_csv.parent.parent / "synth.csv"
    runs = [["--seed", "5", "--config", tiny_config, "--quiet", "--out",
             str(tmp_path / "lab"), "label", str(synth)],
            ["--seed", "5", "--config", tiny_config, "--quiet", "--out",
             str(tmp_path / "cmp"), "compare", str(labeled_csv)]]
    code = ("from anomtax.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv")
    assert _loaded_after(code, tmp_path) == []
