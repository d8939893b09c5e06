import re

import pytest

from anomtax.config import load_config


def seeds(cfg):
    """Every seed a run uses."""
    return (cfg.synth_seed, cfg.labeling.seed, cfg.split_seed, cfg.ga.seed)


def test_defaults_match_reference_setup():
    cfg = load_config(None, 0)
    assert cfg.hidden == 10
    assert cfg.ga.cycles == 20
    assert cfg.ga.population_size == 15
    assert cfg.ga.crossover_alpha == 0.3
    assert cfg.ga.mutation_rate == 0.1
    assert cfg.ga.selection_rate == 0.7
    assert (cfg.ratios.train, cfg.ratios.validation, cfg.ratios.test) == \
        (0.70, 0.15, 0.15)
    assert cfg.labeling.num_clusters == 5
    assert cfg.labeling.pa_score_multiplier == 2.0
    assert sum(b.count for b in cfg.synthetic.blobs) \
        + cfg.synthetic.scatter_count == 195


def test_seed_mandatory():
    with pytest.raises(ValueError, match="seed"):
        load_config(None, None)


def test_negative_flag_seed_named():
    with pytest.raises(ValueError, match="^--seed must be a non-negative "
                                         "integer, got -1$"):
        load_config(None, -1)


def test_file_overrides_and_inline_comments(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[run]\nseed = 9\n\n"
        "[ga]\ncycles = 3   ; short run\n\n"
        "[labeling]\nknn_k = 7\n",
        encoding="utf-8")
    cfg = load_config(str(path), None)
    assert seeds(cfg) == seeds(load_config(None, 9))
    assert cfg.ga.cycles == 3
    assert cfg.labeling.knn_k == 7
    # untouched sections keep their defaults
    assert cfg.ga.population_size == 15


def test_blob_list_replaces_defaults(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[synthetic]\nblob1 = 0, 0, 1, 1, 7\nscatter = 0\n",
                    encoding="utf-8")
    cfg = load_config(str(path), seed=1)
    assert len(cfg.synthetic.blobs) == 1
    assert cfg.synthetic.blobs[0].count == 7


def test_flag_overrides_win(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[run]\nseed = 3\n", encoding="utf-8")
    assert seeds(load_config(str(path), seed=8)) == seeds(load_config(None, 8))


def test_missing_config_file():
    with pytest.raises(ValueError, match="^cannot read /nonexistent/path.ini: "
                                         "No such file or directory$"):
        load_config("/nonexistent/path.ini", seed=0)


def test_unreadable_config_file(tmp_path):
    # a path that opens as no file is an error, never the shipped defaults
    with pytest.raises(ValueError) as info:
        load_config(str(tmp_path), seed=0)
    assert str(info.value) == f"cannot read {tmp_path}: Is a directory"


@pytest.mark.parametrize("data, message", [
    ("retained = a, b, a\ndiscarded = c\n",
     "[data] retained: a named twice"),
    ("retained = a\ndiscarded = c, b, c, b, c\n",
     "[data] discarded: c, b named twice"),
    ("retained = a, b\ndiscarded = c, b, a\n",
     "[data] retained and discarded: b, a named twice"),
    ("retained =\ndiscarded = c\n",
     "[data] retained and discarded are set together, but only discarded "
     "is"),
    ("retained = a, b\n",
     "[data] retained and discarded are set together, but only retained "
     "is"),
], ids=["twice", "twice-in-discarded", "both", "no-retained",
        "no-discarded"])
def test_feature_split_checked(tmp_path, data, message):
    path = tmp_path / "cfg.ini"
    path.write_text("[data]\n" + data, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_config(str(path), seed=0)
    assert str(info.value) == message


def test_feature_split_read(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[data]\nretained = b, a,\ndiscarded = c\n",
                    encoding="utf-8")
    cfg = load_config(str(path), seed=0)
    assert (cfg.retained, cfg.discarded) == (("b", "a"), ("c",))
    shipped = load_config(None, 0)
    assert (shipped.retained, shipped.discarded) == ((), ())


def test_removed_workers_key_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[ga]\ncycles = 3\nworkers = 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"\[ga\] workers"):
        load_config(str(path), seed=0)


def test_blobs_taken_in_numeric_order(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[synthetic]\n" + "".join(
        f"blob{i} = {10 * i}, 0, 1, 1, {i}\n" for i in range(11, 0, -1)),
        encoding="utf-8")
    blobs = load_config(str(path), seed=0).synthetic.blobs
    assert [b.center[0] for b in blobs] == [10.0 * i for i in range(1, 12)]
    assert [b.count for b in blobs] == list(range(1, 12))


@pytest.mark.parametrize("key", ["blob0", "blob", "blobx", "blob-1",
                                 "blob01", "blob_2"])
def test_malformed_blob_key_rejected(tmp_path, key):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[synthetic]\nblob1 = 0, 0, 1, 1, 5\n"
                    f"{key} = 5, 5, 1, 1, 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: [synthetic] {key} is not a config key; [synthetic] "
            "accepts bounds, scatter, blobN")):
        load_config(str(path), seed=0)


def test_output_size_must_match_taxonomy(tmp_path):
    # the output size is one per taxonomy label, so [mlp] output is not a
    # config key at all
    path = tmp_path / "cfg.ini"
    path.write_text("[mlp]\noutput = 4\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"\[mlp\] output is not a config "
                                         r"key; \[mlp\] accepts hidden$"):
        load_config(str(path), seed=0)


@pytest.mark.parametrize("text, named", [
    ("[mlp]\ninput = 2\n", "[mlp] input"),
    ("[labeling]\nknnk = 9\n", "[labeling] knnk"),
    ("[run]\nseeds = 4\n", "[run] seeds"),
    ("[synthetic]\nblob1 = 0, 0, 1, 1, 5\nscater = 3\n",
     "[synthetic] scater"),
    ("[labeling]\nthreshold_mode = mean\n", "[labeling] threshold_mode"),
    ("[labeling]\nthreshold_value = 0.25\n", "[labeling] threshold_value"),
    ("[ga]\nfitness_metric = overall\n", "[ga] fitness_metric"),
    ("[train]\nsigma0 = 5e-5\n", "[train] sigma0"),
    ("[train]\nlambda0 = 5e-7\n", "[train] lambda0"),
    ("[train]\ngoal = 0\n", "[train] goal"),
    ("[ga]\ngoal = 0\n", "[ga] goal"),
    ("[run]\nout = run\n", "[run] out"),
    ("[run]\nout =\n", "[run] out"),
    ("[data]\ninput = iris.csv\n", "[data] input"),
], ids=["mlp-input", "labeling", "run", "synthetic", "threshold-mode",
        "threshold-value", "fitness-metric", "sigma0", "lambda0",
        "train-goal", "ga-goal", "run-out", "run-out-empty", "data-input"])
def test_unread_key_rejected(tmp_path, text, named):
    path = tmp_path / "cfg.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(named + " is not a "
                                                   "config key")):
        load_config(str(path), seed=0)


@pytest.mark.parametrize("text, message", [
    ("[labeling]\nknnk = 9\n", "[labeling] knnk is not a config key; "
     "[labeling] accepts clusters, knn_k, score_multiplier"),
    ("[train]\nsigma0 = 5e-5\n", "[train] sigma0 is not a config key; "
     "[train] accepts max_epochs, patience"),
], ids=["knnk", "sigma0"])
def test_unread_key_message_lists_accepted_keys(tmp_path, text, message):
    path = tmp_path / "cfg.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_config(str(path), seed=0)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("section", ["tarin", "DEFAULT", "Run"])
@pytest.mark.parametrize("body", ["max_epochs = 5\n", ""],
                         ids=["with-key", "empty"])
def test_unread_section_rejected(tmp_path, section, body):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{body}[train]\nmax_epochs = 5\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"[{section}] is not a config section; the sections are run, "
            "data, synthetic, labeling, mlp, train, ga, split")):
        load_config(str(path), seed=0)


@pytest.mark.parametrize("hidden", [0, -1])
def test_hidden_size_checked(tmp_path, hidden):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[mlp]\nhidden = {hidden}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^\[mlp\] hidden must be >= 1, "
                                         rf"got {hidden}$"):
        load_config(str(path), seed=0)
