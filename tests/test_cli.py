import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anomtax
from anomtax import cli, labeling, mlp
from anomtax.cli import main
from anomtax.data import load_csv, save_csv
from conftest import fresh_stdout, make_dataset, make_iris_like, shipped

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

    def test_out_rejected(self, tmp_path, monkeypatch, tiny_config, capsys):
        # synth writes the CSV it is given; --out names the directory of
        # the other commands, so synth stops instead of ignoring it
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["--seed", "0", "--config", tiny_config, "--out", "foo",
                     "synth", "x.csv"]) == 1
        assert capsys.readouterr().err == (
            "error in stage 'config': --out does not apply to synth, which "
            "writes the CSV file it is given\n")
        assert list(work.iterdir()) == []

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
        assert not (tmp_path / "sup" / "norm_params.csv").exists()

    def test_sparse_class_ids_label_like_dense(self, tmp_path):
        # labeling visits the ids that occur, not every integer below the
        # largest; a subprocess with a timeout fails instead of hanging
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
            save_csv(two._replace(class_ids=two.class_ids * top), csv_path)
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

    # a name not in the header needs the CSV; the other two rules are the
    # config file's alone
    @pytest.mark.parametrize("data, message", [
        ("retained = petal_len, petal_wdt\ndiscarded = sepal_len, sepal\n",
         "error in stage 'label': [data] names not in the CSV header: "
         "petal_wdt, sepal"),
        ("retained = petal_len, petal_wid\n"
         "discarded = petal_wid, sepal_len\n",
         "error in stage 'config': [data] retained and discarded: petal_wid "
         "named twice"),
        ("retained = petal_len, petal_len\n"
         "discarded = sepal_len, sepal_wid\n",
         "error in stage 'config': [data] retained: petal_len named twice"),
    ], ids=["unknown", "both", "twice"])
    def test_supervised_feature_names_checked(self, tmp_path, capsys, data,
                                              message):
        assert self._label_supervised(tmp_path, data) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "sup").exists()

    @pytest.mark.parametrize("data, message", [
        ("retained = nope\ndiscarded = zip\n",
         "error in stage 'label': [data] retained and discarded apply only "
         "to a CSV with a 'class' column, and this input has none"),
        ("retained = x\n",
         "error in stage 'config': [data] retained and discarded are set "
         "together, but only retained is"),
        ("discarded = y\n",
         "error in stage 'config': [data] retained and discarded are set "
         "together, but only discarded is"),
    ], ids=["both", "retained", "discarded"])
    def test_unsupervised_refuses_feature_split(self, tmp_path, capsys,
                                                tiny_config, data, message):
        synth = tmp_path / "synth.csv"
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "synth", str(synth)]) == 0
        cfg = tmp_path / "split.ini"
        cfg.write_text(TINY_CONFIG + "\n[data]\n" + data, encoding="utf-8")
        out = tmp_path / "lab"
        assert main(["--seed", "5", "--config", str(cfg), "--quiet",
                     "--out", str(out), "label", str(synth)]) == 1
        assert capsys.readouterr().err == message + "\n"
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
        # one row per feature in header order, min and max bit for bit,
        # and names that hold ' = ' or ',' read back whole
        rng = np.random.default_rng(4)
        feats = rng.normal(0, 1, (40, 3)) * [1e-3, 7.0, 1e5]
        names = ["a = b", "al,pha", "mid"]
        src = tmp_path / "in.csv"
        save_csv(make_dataset(feats, names), src)
        out = tmp_path / "lab"
        assert main(["--seed", "0", "--config", tiny_config, "--quiet",
                     "--out", str(out), "label", str(src)]) == 0
        with open(out / "norm_params.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "min", "max"]
        assert [r[0] for r in rows[1:]] == names
        for (_, lo, hi), col in zip(rows[1:], feats.T):
            assert float(lo).hex() == float(col.min()).hex()
            assert float(hi).hex() == float(col.max()).hex()

    def test_parse_error_names_stage(self, tmp_path, tiny_config, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,oops\n", encoding="utf-8")
        assert main(["--seed", "0", "--config", tiny_config, "--quiet",
                     "--out", str(tmp_path / "o"), "label", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'load'" in err and "oops" in err


GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def golden_digest(root: Path) -> str:
    """SHA-256 over each file's relative path and SHA-256, sorted by path."""
    h = hashlib.sha256()
    for rel, digest in sorted(tree_digest(root).items()):
        h.update(f"{rel}\0{digest}\n".encode())
    return h.hexdigest()


def iris_like_run(tmp_path: Path):
    """The supervised iris-like input CSV, and the leading arguments that
    label it in 3 clusters of its petal features at seed 0."""
    data = tmp_path / "iris.csv"
    save_csv(make_iris_like(), data)
    cfg = tmp_path / "sup.ini"
    cfg.write_text("[labeling]\nclusters = 3\n\n[data]\n"
                   "retained = petal_len, petal_wid\n"
                   "discarded = sepal_len, sepal_wid\n", encoding="utf-8")
    return data, ["--seed", "0", "--config", str(cfg), "--quiet"]


@pytest.mark.parametrize("run", sorted(GOLDEN["label"]))
def test_label_tree_matches_golden(tmp_path, run):
    # labeling calls no BLAS routine, so these bits hold on any host; a
    # deliberate change to the label tree updates golden.json with it
    if run == "iris_like":
        data, base = iris_like_run(tmp_path)
    else:
        data = tmp_path / "synth.csv"
        base = ["--seed", run.removeprefix("seed"), "--quiet"]
        assert main(base + ["synth", str(data)]) == 0
    out = tmp_path / "label"
    assert main(base + ["--out", str(out), "label", str(data)]) == 0
    assert golden_digest(out) == GOLDEN["label"][run]
    if run in GOLDEN["knn_scores"]:
        # the tree holds labels only, and a score moved by one ulp seldom
        # moves a label across its cutoff
        points = load_csv(out / "labeled.csv").features
        scores = labeling._knn_scores(points, shipped().labeling.knn_k)
        assert (hashlib.sha256(scores.tobytes()).hexdigest()
                == GOLDEN["knn_scores"][run])


@pytest.mark.parametrize("kernel", sorted(GOLDEN["compare"]))
def test_compare_tree_matches_golden_under_named_kernel(tmp_path, kernel):
    # the reference synth -> label -> compare at seed 0; compare's bits
    # depend on the OpenBLAS kernel and on numpy's build, so its digest is
    # pinned per kernel and numpy minor version
    pinned = GOLDEN["compare"][kernel]
    numpy_minor = ".".join(np.__version__.split(".")[:2])
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_VERBOSE="2",
               PYTHONPATH=str(Path(anomtax.__file__).parents[1]))
    code = ("from anomtax.cli import main\n"
            "for args in (['synth', 'synth.csv'],\n"
            "             ['--out', 'lab', 'label', 'synth.csv'],\n"
            "             ['--out', 'cmp', 'compare', 'lab/labeled.csv']):\n"
            "    assert main(['--seed', '0', '--quiet', *args]) == 0\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    if f"Core: {kernel}" not in done.stderr:
        pytest.skip(f"OpenBLAS did not pick the {kernel} kernel: "
                    f"{done.stderr.strip()[:200]}")
    digest = golden_digest(tmp_path / "cmp")
    if numpy_minor not in pinned:
        # a log that runs pytest -rs shows the digest to pin
        pytest.skip(f"the {kernel} compare digest is pinned for numpy "
                    f"{', '.join(sorted(pinned))}, this is {np.__version__}; "
                    f"its digest here is {digest}")
    assert digest == pinned[numpy_minor]


def _number(cell: str):
    """``cell`` read as an int or else a float; None when it is neither."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return None


def test_every_run_csv_has_one_format(tmp_path, tiny_config, labeled_csv):
    # every CSV of the label (unsupervised and supervised), compare and
    # eval trees, and their inputs: CRLF line endings only, a header row,
    # rows as wide as it, and each float written as its repr
    base = ["--seed", "5", "--config", tiny_config, "--quiet"]
    cmp, ev = tmp_path / "cmp", tmp_path / "eval"
    assert main(base + ["--out", str(cmp), "compare", str(labeled_csv)]) == 0
    assert main(base + ["--out", str(ev), "eval",
                        str(cmp / "ga_best_model.txt"),
                        str(labeled_csv)]) == 0
    data, iris = iris_like_run(tmp_path)
    assert main(iris + ["--out", str(tmp_path / "iris"), "label",
                        str(data)]) == 0
    paths = sorted(tmp_path.rglob("*.csv"))
    names = {path.name for path in paths}
    assert {"labeled.csv", "norm_params.csv", "labeling_report.csv",
            "ga_cycles.csv", "nn_confusion.csv", "ga_metrics.csv",
            "eval_confusion.csv", "eval_metrics.csv"} <= names
    assert any(name.startswith("roc_eval_") for name in names)
    for path in paths:
        raw = path.read_bytes()
        where = str(path.relative_to(tmp_path))
        assert raw.endswith(b"\r\n"), where
        assert raw.count(b"\n") == raw.count(b"\r") == raw.count(b"\r\n"), \
            where
        header, *rows = csv.reader(raw.decode("utf-8").split("\r\n")[:-1])
        assert header and all(_number(c) is None for c in header), where
        for row in rows:
            assert len(row) == len(header), where
            for cell in row:
                value = _number(cell)
                if isinstance(value, float):
                    assert repr(value) == cell, (where, cell)


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

    @pytest.mark.parametrize("out", ["", "  "],
                             ids=["flag-empty", "flag-blank"])
    def test_empty_out_stops_in_config(self, tmp_path, monkeypatch, capsys,
                                       tiny_config, out):
        # Path("") is the working directory, so an empty value must not
        # reach the writers
        synth = tmp_path / "synth.csv"
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "synth", str(synth)]) == 0
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["--seed", "5", "--config", tiny_config, "--quiet",
                     "--out", out, "label", str(synth)]) == 1
        assert capsys.readouterr().err == (
            f"error in stage 'config': --out must name a directory, "
            f"got {out!r}\n")
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

    def test_huge_weights_saturate_without_warnings(self, tmp_path,
                                                    labeled_csv):
        # finite +-1e308 weights overflow the pre-activations, which tanh
        # saturates: every hidden unit is +1 and only output CPA is +1
        w1_b1 = [1e308] * (2 * 10 + 10)
        w2 = [[1e308 if c == 2 else -1e308] * 10 for c in range(4)]
        weights = w1_b1 + sum(w2, []) + [0.0] * 4
        model = tmp_path / "huge.txt"
        model.write_text("2 10 4\n" + "".join(f"{w!r}\n" for w in weights),
                         encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(anomtax.__file__).parents[1])
        out = tmp_path / "ev"
        done = subprocess.run(
            [sys.executable, "-m", "anomtax.cli", "--seed", "0", "--quiet",
             "--out", str(out), "eval", str(model), str(labeled_csv)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        rows = list(csv.reader(
            (out / "eval_confusion.csv").read_text().splitlines()))
        counts = np.array([[int(v) for v in r[1:]] for r in rows[1:]])
        assert counts.sum() == counts[2].sum() == load_csv(labeled_csv).n

    @pytest.mark.parametrize("rows", [1, 2])
    def test_nan_output_stops_in_eval(self, tmp_path, rows):
        # hidden units five +1 and five -1 under output row 1 of +1e308
        # weights: the products overflow both ways, and numpy's one-row
        # matrix-vector path sums them to NaN where a two-row batch does not
        w1_b1 = [0.5] * 20 + [1e308] * 5 + [-1e308] * 5
        w2 = [1e308 if c == 1 else 0.0 for c in range(4) for _ in range(10)]
        model = tmp_path / "nan.txt"
        model.write_text("2 10 4\n" + "".join(
            f"{w!r}\n" for w in w1_b1 + w2 + [0.0] * 4), encoding="utf-8")
        csv_path = tmp_path / "e.csv"
        csv_path.write_text("x,y,label\n" + "0.5,0.5,ND\n" * rows,
                            encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(anomtax.__file__).parents[1])
        out = tmp_path / "ev"
        done = subprocess.run(
            [sys.executable, "-m", "anomtax.cli", "--seed", "0", "--quiet",
             "--out", str(out), "eval", str(model), str(csv_path)],
            env=env, capture_output=True, text=True, timeout=120)
        if rows == 2:
            assert done.returncode == 0, done.stderr
            assert done.stderr == ""
            return
        assert done.returncode == 1
        assert "RuntimeWarning" not in done.stderr
        assert done.stderr.splitlines() == [
            "error in stage 'eval': network output is NaN for 1 of 1 rows: "
            "the weights overflow float64"]
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
        ("[train]\ngoal = 0\n", "[train] goal"),
        ("[ga]\ngoal = 0\n", "[ga] goal"),
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
        ("[run]\nout =\n", "[run] out is not a config key"),
        ("[data]\ninput = labeled.csv\n", "[data] input is not a config key"),
        ("[labeling]\nknn_k = 0\n", "[labeling] knn_k must be >= 1, got 0"),
        ("[train]\nmax_epochs = 0\n",
         "[train] max_epochs must be >= 1, got 0"),
        ("[train]\npatience = 0\n", "[train] patience must be >= 1, got 0"),
        ("[ga]\ncycles = 0\n", "[ga] cycles must be >= 1, got 0"),
        ("[ga]\nmutation_rate = 1.5\n",
         "[ga] mutation_rate must lie in [0, 1], got 1.5"),
        ("[ga]\nselection_rate = -0.1\n",
         "[ga] selection_rate must lie in [0, 1], got -0.1"),
        ("[split]\nvalidation = -0.1\n",
         "[split] validation must be >= 0, got -0.1"),
    ], ids=["input", "output", "hidden", "knnk", "tarin", "threshold-mode",
            "threshold-value", "fitness-metric", "sigma0", "lambda0",
            "train-goal", "ga-goal", "file-seed",
            "clusters-abc", "multiplier-nan", "split-ratio", "blob-count",
            "bounds-inf", "negative-file-seed", "population-0", "alpha-2",
            "clusters-0", "multiplier-0", "split-negative", "split-sum",
            "scatter-negative", "blob-count-0", "run-out-empty",
            "data-input", "knn-k-0", "max-epochs-0", "patience-0",
            "cycles-0", "mutation-rate-1.5", "selection-rate-negative",
            "validation-negative"])
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


# the input CSV of a case: the labeled reference mixture, or a file's text
REFERENCE = object()


@pytest.mark.parametrize("ini, data, command, message", [
    ("cycles = 3\n", None, "synth",
     "error in stage 'config': {cfg}: line 1: no [section] header before "
     "'cycles = 3'"),
    ("[ga]\ncycles 3\n", None, "synth",
     "error in stage 'config': {cfg}: line 2: neither a [section] header "
     "nor key = value"),
    ("[synthetic]\nblobx = 1,2,3,4,5\n", None, "synth",
     "error in stage 'config': {cfg}: [synthetic] blobx is not a config "
     "key; [synthetic] accepts bounds, scatter, blobN"),
    ("[synthetic]\nbounds = 0,0,1\n", None, "synth",
     "error in stage 'config': [synthetic] bounds needs xmin,ymin,xmax,ymax"),
    ("[synthetic]\nblob1 = 1,2,3\n", None, "synth",
     "error in stage 'config': [synthetic] blob1 needs cx,cy,sx,sy,count"),
    ("[ga]\ncycles = 3\ncycles = 4\n", None, "synth",
     "error in stage 'config': {cfg}: line 3: [ga] cycles is set twice"),
    ("[ga]\ncycles = 3\n[ga]\n", None, "synth",
     "error in stage 'config': {cfg}: line 3: [ga] appears twice"),
    # the box is checked whether or not scatter draws from it
    ("[synthetic]\nbounds = 120, 120, -20, -20\nscatter = 0\n", None,
     "synth", "error in stage 'config': [synthetic] bounds needs xmin <= "
     "xmax and ymin <= ymax with finite widths, got 120.0, 120.0, -20.0, "
     "-20.0"),
    ("[synthetic]\nbounds = -1e308, 0, 1e308, 1\n", None, "synth",
     "error in stage 'config': [synthetic] bounds needs xmin <= xmax and "
     "ymin <= ymax with finite widths, got -1e+308, 0.0, 1e+308, 1.0"),
    ("[synthetic]\nblob1 = 1e308, 0, 1e308, 1, 20\n", None, "synth",
     "error in stage 'synth': [synthetic] blobN = 1e+308, 0.0, 1e+308, 1.0, "
     "20 draws a value that is not finite"),
    # a value is read as written: "%" is no interpolation syntax
    ("[ga]\ncycles = 5%\n", None, "synth",
     "error in stage 'config': [ga] cycles must be an integer, got '5%'"),
    ("[labeling]\nclusters = %(knn_k)s\n", None, "synth",
     "error in stage 'config': [labeling] clusters must be an integer, "
     "got '%(knn_k)s'"),
    ("", "", "label",
     "error in stage 'load': {path}: empty file, header row required"),
    ("", "class,label\n0,ND\n", "label",
     "error in stage 'load': {path}: no feature columns"),
    # load_config accepts a zero training ratio, and data alone can leave
    # the training split empty at a positive one: one check, after the split
    ("[split]\ntrain = 0\nvalidation = 0.5\ntest = 0.5\n", REFERENCE,
     "compare", "error in stage 'split': empty training split"),
    ("[split]\ntrain = 0.1\nvalidation = 0.45\ntest = 0.45\n",
     "x,y,label\n0,0,ND\n0.25,0,ND\n0,1,CNA\n0.25,1,CNA\n"
     "0.5,0,CPA\n0.5,1,CPA\n0.75,0,PA\n0.75,1,PA\n",
     "compare", "error in stage 'split': empty training split"),
    ("", "x,y\n0.5,inf\n", "label",
     "error in stage 'load': {path}: row 2, column 'y': not a finite "
     "number: 'inf'"),
    ("", "x,class\n0.5,1.5\n", "label",
     "error in stage 'load': {path}: row 2, column 'class': not an integer: "
     "'1.5'"),
    ("", "x,class\n0.5,-1\n", "label",
     "error in stage 'load': {path}: row 2, column 'class': not an integer "
     "in [0, 2^63): '-1'"),
    ("", "x,label\n0.5,WAT\n", "compare",
     "error in stage 'load': {path}: row 2, column 'label': unknown label "
     "'WAT' (expected one of ND, CNA, CPA, PA)"),
    ("", "x,y\n0.5,0.5\n0.1\n", "label",
     "error in stage 'load': {path}: row 3: expected 2 columns, got 1"),
    ("", 'x,y\n0.5,0.5\n0.5,"' + "5" * 131073 + '"\n', "label",
     "error in stage 'load': {path}: line 3: field larger than field "
     "limit (131072)"),
    ("", "x,y,class\n0.5,0.5,0\n0.1,0.2,1\n", "label",
     "error in stage 'label': a CSV with a 'class' column needs [data] "
     "retained and discarded"),
    # the label column is checked before the feature range
    ("", "x,y\n2,3\n", "compare",
     "error in stage 'load': dataset has no label column; run 'anomtax "
     "label' first"),
    ("", "x,y,label\n0.5,0,ND\n1,-0.25,PA\n", "compare",
     "error in stage 'load': {path}: row 3, column 'y': -0.25 is outside "
     "[0, 1], the feature range 'anomtax label' writes"),
], ids=["no-section-header", "not-key-value", "blob-key-name",
        "bounds-three-numbers", "blob-four-numbers", "duplicate-key",
        "duplicate-section", "bounds-reversed", "bounds-infinite-width",
        "blob-overflows", "percent-sign",
        "interpolation-syntax", "empty-csv",
        "no-feature-columns", "zero-train-ratio", "train-share-rounds-to-0",
        "feature-inf", "class-fraction", "class-negative", "label-unknown",
        "ragged-row", "field-too-large", "supervised-no-retained",
        "compare-unlabeled", "feature-below-0"])
def test_boundary_rule_stops_run(tmp_path, capsys, labeled_synthetic, ini,
                                 data, command, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini, encoding="utf-8")
    path = tmp_path / "in.csv"
    if data is REFERENCE:
        save_csv(labeled_synthetic[0], path)
    elif data is not None:
        path.write_text(data, encoding="utf-8")
    out = tmp_path / "o"
    argv = ["--seed", "0", "--config", str(cfg), "--quiet"]
    if command != "synth":
        argv += ["--out", str(out)]
    assert main(argv + [command, str(path)]) == 1
    assert capsys.readouterr().err == message.format(path=path,
                                                     cfg=cfg) + "\n"
    assert not out.exists()
    if command == "synth":
        assert not path.exists()


@pytest.mark.parametrize("command", ["synth", "label", "compare", "eval"])
def test_bad_data_block_stops_every_command(tmp_path, capsys, command):
    # load_config checks [data] for every command, as it checks every key
    cfg = tmp_path / "run.ini"
    cfg.write_text("[data]\nretained = x, y\ndiscarded = y\n",
                   encoding="utf-8")
    path, out = tmp_path / "in.csv", tmp_path / "o"
    path.write_text("x,y,label\n0.5,0.5,ND\n", encoding="utf-8")
    argv = ["--seed", "0", "--config", str(cfg), "--quiet"]
    if command == "synth":
        argv += [command, str(out)]
    else:
        argv += ["--out", str(out), command] + [str(path)] * (
            2 if command == "eval" else 1)
    assert main(argv) == 1
    assert capsys.readouterr().err == ("error in stage 'config': [data] "
                                       "retained and discarded: y named "
                                       "twice\n")
    assert not out.exists()


def _missing(path):
    return path


def _directory(path):
    path.mkdir()
    return path


def _mode_000(path):
    if os.geteuid() == 0:
        pytest.skip("root reads a file whatever its mode")
    path.write_text("x\n", encoding="utf-8")
    path.chmod(0)
    return path


def _proc_self_mem(path):
    # opens, but reading its first page fails: unmapped memory
    if not os.path.exists("/proc/self/mem"):
        pytest.skip("no /proc/self/mem here")
    return "/proc/self/mem"


def _not_utf8(path):
    # the bad byte lies past the first 8192 bytes, where a chunked
    # decoder would start counting its position again
    path.write_bytes(b"x\n" * 5000 + b"\xff\n")
    return path


@pytest.mark.parametrize("failure, message", [
    (_missing, "cannot read {bad}: No such file or directory"),
    (_directory, "cannot read {bad}: Is a directory"),
    (_mode_000, "cannot read {bad}: Permission denied"),
    (_proc_self_mem, "cannot read {bad}: Input/output error"),
    (_not_utf8, "{bad}: line 5001 is not UTF-8"),
], ids=["missing", "directory", "mode-000", "proc-self-mem", "not-utf8"])
@pytest.mark.parametrize("role", ["config", "label-csv", "eval-model",
                                  "eval-csv"])
def test_unreadable_input_stops_run(tmp_path, capsys, role, failure,
                                    message):
    # every input file goes through one reader: a file that cannot be read
    # or decoded stops the run on one line that names it, and the shipped
    # defaults never stand in for a named config file
    bad = failure(tmp_path / "bad")
    data, model, out = (tmp_path / name for name in ("in.csv", "m.txt", "o"))
    data.write_text("x,y,label\n0.5,0.5,ND\n", encoding="utf-8")
    model.write_text("2 1 4\n" + "0.5\n" * 11, encoding="utf-8")
    stage, argv = {
        "config": ("config", ["--config", bad, "synth", out]),
        "label-csv": ("load", ["--out", out, "label", bad]),
        "eval-model": ("load", ["--out", out, "eval", bad, data]),
        "eval-csv": ("load", ["--out", out, "eval", model, bad]),
    }[role]
    assert main(["--seed", "0", "--quiet", *map(str, argv)]) == 1
    assert capsys.readouterr().err == (f"error in stage '{stage}': "
                                       + message.format(bad=bad) + "\n")
    assert not out.exists()


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("role", ["config", "csv", "model"])
def test_byte_order_mark_is_not_data(tmp_path, role):
    # a leading byte-order mark joins no section header, column name or
    # layer size: the supervised [data] lists still name the CSV's first
    # column, and each run writes what it writes without the mark
    data, base = iris_like_run(tmp_path)
    model = tmp_path / "model.txt"
    model.write_text("2 1 4\n" + "0.5\n" * 11, encoding="utf-8")

    def run(out):
        assert main(base + ["--out", str(out), "label", str(data)]) == 0
        assert main(base + ["--out", str(out / "eval"), "eval", str(model),
                            str(out / "labeled.csv")]) == 0
        return tree_digest(out)

    plain = run(tmp_path / "plain")
    path = {"config": tmp_path / "sup.ini", "csv": data, "model": model}[role]
    path.write_bytes(BOM + path.read_bytes())
    assert run(tmp_path / "bom") == plain


@pytest.mark.parametrize("model_text, message", [
    ("2 10\n", "line 1: expected three positive layer sizes, got '2 10'"),
    ("2 1 4\n0.5\n", "1 weights, topology needs 11"),
], ids=["two-layer-sizes", "weight-count"])
def test_model_file_rule_stops_eval(tmp_path, capsys, model_text, message):
    model = tmp_path / "model.txt"
    model.write_text(model_text, encoding="utf-8")
    path = tmp_path / "in.csv"
    path.write_text("x,y,label\n0.5,0.5,ND\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--seed", "0", "--quiet", "--out", str(out), "eval",
                 str(model), str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error in stage 'load': {model}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "eval"])
def test_features_outside_unit_range_stop_in_load(tmp_path,
                                                  labeled_synthetic,
                                                  command):
    # label writes every feature in [0, 1].  Scaled by 1e300, the labeled
    # reference mixture once overflowed compare's training into three
    # RuntimeWarnings and a division by zero; it now stops where it enters
    ds = labeled_synthetic[0]
    big = ds.features * 1e300
    path = tmp_path / "big.csv"
    save_csv(ds._replace(features=big), path)
    model = tmp_path / "model.txt"
    topology = mlp.Topology(2, 10, 4)
    mlp.save_model(mlp.TrainedModel(topology,
                                    np.full(topology.genome_length, 0.5),
                                    0, "loaded"), model)
    args = [command, str(path)] if command == "compare" else \
        [command, str(model), str(path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(anomtax.__file__).parents[1])
    out = tmp_path / "o"
    done = subprocess.run(
        [sys.executable, "-m", "anomtax.cli", "--seed", "0", "--quiet",
         "--out", str(out), *args],
        env=env, capture_output=True, text=True, timeout=120)
    row, col = np.argwhere((big < 0) | (big > 1))[0]
    assert ds.feature_names[col] == "x"
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"error in stage 'load': {path}: row {row + 2}, column 'x': "
        f"{float(big[row, col])!r} is outside [0, 1], the feature range "
        "'anomtax label' writes"]
    assert not out.exists()


def test_supervised_label_output_passes_compare_load(tmp_path):
    # each class is renormalized into [0, 1], the range compare reads
    data, base = iris_like_run(tmp_path)
    out = tmp_path / "label"
    assert main(base + ["--out", str(out), "label", str(data)]) == 0
    ds = cli._labeled_input(out / "labeled.csv")
    assert ds.features.min() == 0.0 and ds.features.max() == 1.0


@pytest.mark.parametrize("command", ["label", "compare"])
def test_missing_input_is_usage_error(tmp_path, tiny_config, capsys,
                                      command):
    # the CSV is named on the command line only; no config key names it
    with pytest.raises(SystemExit) as info:
        main(["--seed", "5", "--config", tiny_config, "--quiet", "--out",
              str(tmp_path / "o"), command])
    assert info.value.code == 2
    assert "input" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    return fresh_stdout(code + "\nimport sys\n"
                        f"print(' '.join(m for m in {LAZY_MODULES!r} "
                        "if m in sys.modules))", cwd).split()


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


def test_cli_runs_blas_on_the_calling_thread(tmp_path, tiny_config):
    # OpenBLAS's helper threads never run on this package's tiny products,
    # and starting them cost each process up to ~65 ms of numpy import
    synth = tmp_path / "synth.csv"
    base = ["--seed", "5", "--config", tiny_config, "--quiet"]
    assert main(base + ["synth", str(synth)]) == 0
    argv = base + ["--out", str(tmp_path / "lab"), "label", str(synth)]
    code = ("from anomtax.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "import os\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
            "task = '/proc/self/task'\n"
            "print(len(os.listdir(task)) if os.path.isdir(task) else '-')")
    blas_threads, os_threads = fresh_stdout(code, tmp_path).split()
    assert blas_threads == "1"
    if os_threads != "-":
        assert os_threads == "1"
    # a caller's own setting wins
    assert fresh_stdout(code, tmp_path, blas_threads="2").split()[0] == "2"


def test_own_command_line_freezes_import_time_objects(tmp_path,
                                                      tiny_config):
    # a process that runs its own command line ends after it, and frozen
    # objects spare its exit a teardown of ~15-25 ms; a caller that passes
    # argv goes on running, so nothing is frozen for it
    argv = ["--seed", "5", "--config", tiny_config, "--quiet", "synth",
            str(tmp_path / "synth.csv")]
    own = ("import gc, sys\n"
           "from anomtax.cli import main\n"
           f"sys.argv = ['anomtax', *{argv!r}]\n"
           "assert main() == 0\n"
           "print(gc.get_freeze_count())")
    assert int(fresh_stdout(own, tmp_path)) > 0
    passed = ("import gc\n"
              "from anomtax.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "print(gc.get_freeze_count())")
    assert int(fresh_stdout(passed, tmp_path)) == 0
