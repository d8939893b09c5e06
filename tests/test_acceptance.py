"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen (without -s pytest shows them for failing criteria only).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from anomtax.cli import main as cli_main
from anomtax.data import (
    LABEL_TOKENS,
    AnomalyLabel,
    BlobSpec,
    SyntheticSpec,
    generate_synthetic,
    save_csv,
    stratified_split,
)
from anomtax.evaluation import class_rates, roc_curve
from anomtax.evaluation import test_error as error_rate
from anomtax.ga import (
    apply_mutation,
    conventional,
    crossover,
    prepare_splits,
    run_ga,
)
from anomtax.labeling import (
    build_radius_table,
    detect_cpa,
    detect_point_anomalies,
    label_dataset,
    label_supervised,
)
from anomtax.mlp import (
    Topology,
    init_weights,
    forward_batch,
    one_hot,
    train_scg,
)
from conftest import shipped
from test_eval import FIG_GA, FIG_NN, matrix_from_counts
from test_mlp import mse_and_gradient

SHIPPED = shipped()


def _criterion(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# 1. radius / CPA oracle
# ---------------------------------------------------------------------------

def test_criterion_01_radius_cpa_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        k = int(rng.integers(2, 13))
        d = int(rng.integers(1, 6))
        pts = rng.normal(0, 4, (k, d))
        radii = build_radius_table(pts)
        # independent double loop
        mdist = []
        for i in range(k):
            acc = 0.0
            for j in range(k):
                if i != j:
                    acc += math.sqrt(float(((pts[i] - pts[j]) ** 2).sum()))
            mdist.append(acc / (k - 1))
        rad = sum(mdist) / k
        ok &= all(abs(a - b) <= 1e-12 for a, b in zip(radii, mdist))
        ok &= abs(radii.mean() - rad) <= 1e-12
        want_cpa = [i for i in range(k) if mdist[i] < rad]
        ok &= list(detect_cpa(radii)) == want_cpa
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _criterion(1, "radius table and CPA match brute force on 100 random "
                  "PA sets", ok, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. partition law
# ---------------------------------------------------------------------------

def test_criterion_02_partition_law():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    ok = True
    for trial in range(50):
        n_blobs = int(rng.integers(1, 5))
        blobs = tuple(
            BlobSpec(tuple(rng.uniform(0, 60, 2)),
                     tuple(rng.uniform(0.5, 4.0, 2)),
                     int(rng.integers(8, 40)))
            for _ in range(n_blobs))
        spec = SyntheticSpec(blobs, int(rng.integers(0, 15)),
                             (-30, -30, 90, 90))
        ds = generate_synthetic(spec, trial)
        cfg = SHIPPED.labeling._replace(
            num_clusters=int(rng.integers(1, 5)), seed=trial)
        if ds.n <= cfg.knn_k:
            continue
        labeled, report = label_dataset(ds, cfg)
        counts = np.bincount(labeled.labels, minlength=4)
        ok &= int(counts.sum()) == ds.n
        ok &= (report.nd, report.cna, report.cpa, report.pa) == \
            tuple(int(c) for c in counts)
        # CPA only among PA candidates; CNA only among clustered points
        candidates = set(int(i) for i in detect_point_anomalies(ds.features,
                                                                cfg))
        cpa_set = set(np.flatnonzero(labeled.labels == AnomalyLabel.CPA))
        pa_set = set(np.flatnonzero(labeled.labels == AnomalyLabel.PA))
        cna_set = set(np.flatnonzero(labeled.labels == AnomalyLabel.CNA))
        ok &= cpa_set <= candidates
        ok &= pa_set <= candidates
        ok &= cpa_set.isdisjoint(pa_set)
        ok &= cna_set.isdisjoint(candidates)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _criterion(2, "four-way labels partition 50 random synthetic datasets",
               ok, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. collinear CPA golden
# ---------------------------------------------------------------------------

def test_criterion_03_collinear_cpa():
    radii = build_radius_table(np.array([[0.0, 0.0], [1.0, 0.0],
                                         [2.0, 0.0]]))
    ok = list(detect_cpa(radii)) == [1]
    ok &= bool(np.all(np.abs(radii - np.array([1.5, 1.0, 1.5])) <= 1e-12))
    ok &= abs(radii.mean() - 4.0 / 3.0) <= 1e-12
    _criterion(3, "collinear point anomalies huddle at the middle point", ok)


# ---------------------------------------------------------------------------
# 4. gradient check
# ---------------------------------------------------------------------------

def test_criterion_04_gradient_check():
    topo = Topology(2, 10, 4)
    rng = np.random.default_rng(404)
    h = 1e-6
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        w = rng.random(topo.genome_length)
        x = rng.random((int(rng.integers(2, 10)), 2))
        t = one_hot(rng.integers(0, 4, x.shape[0]), 4)
        _, grad = mse_and_gradient(w, topo, x, t)
        for i in range(topo.genome_length):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (mse_and_gradient(wp, topo, x, t)[0]
                  - mse_and_gradient(wm, topo, x, t)[0]) / (2 * h)
            # the difference quotient carries ~eps*|loss|/h ~ 3e-11 of
            # roundoff, so components below 1e-6 compare absolutely
            worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-6))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    _criterion(4, "analytic gradient matches central differences on 50 "
                  "random draws", ok,
               f"max rel err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. SCG sanity
# ---------------------------------------------------------------------------

def test_criterion_05_scg_sanity():
    topo = Topology(2, 10, 2)
    start = time.perf_counter()
    solved = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = np.vstack([rng.normal((0.2, 0.2), 0.05, (50, 2)),
                       rng.normal((0.8, 0.8), 0.05, (50, 2))])
        y = np.array([0] * 50 + [1] * 50)
        t = one_hot(y, 2)
        model = train_scg(init_weights(topo, rng), topo, x, t, x[:0], t[:0],
                          SHIPPED.training._replace(max_epochs=200))
        pred = forward_batch(model.weights, topo, x).argmax(axis=1)
        solved += int((pred != y).sum() == 0)
    elapsed = time.perf_counter() - start
    ok = solved >= 9 and elapsed < 10.0
    _criterion(5, "SCG separates a two-blob dataset within 200 epochs",
               ok, f"{solved}/10 seeds, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 6 + 7. GA improvement claim and elitism monotonicity
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ga_comparison_runs(labeled_synthetic):
    labeled, report = labeled_synthetic
    assert min(report.nd, report.cna, report.cpa, report.pa) > 0
    # 2-10-4, tansig, trained by SCG with the reference settings
    topo = Topology(2, SHIPPED.hidden, len(LABEL_TOKENS))
    tcfg = SHIPPED.training
    runs = []
    for seed in range(10):
        train, val, test = stratified_split(labeled, SHIPPED.ratios, seed)
        prepared = prepare_splits(train, val, test, len(LABEL_TOKENS))
        start = time.perf_counter()
        ga_cfg = SHIPPED.ga._replace(seed=seed)
        nn = conventional(prepared, topo, tcfg, ga_cfg.seed)
        ga_run = run_ga(ga_cfg, topo, prepared, tcfg)
        runs.append((seed, nn, ga_run, time.perf_counter() - start))
    return report, runs


def test_criterion_06_ga_improvement(ga_comparison_runs):
    report, runs = ga_comparison_runs
    nn = [net.fitness for _, net, _, _ in runs]
    ga = [ga_run.best.fitness for _, _, ga_run, _ in runs]
    wins = sum(g <= n for g, n in zip(ga, nn))
    slowest = max(elapsed for *_, elapsed in runs)
    total = sum(elapsed for *_, elapsed in runs)
    ok = min(report.nd, report.cna, report.cpa, report.pa) > 0
    ok &= wins >= 7
    ok &= float(np.median(ga)) < float(np.median(nn))
    ok &= slowest <= 120.0
    ok &= total <= 2400.0
    _criterion(6, "GA-evolved initial weights beat conventional training "
                  "over 10 seeds", ok,
               f"wins {wins}/10, median NN "
               f"{np.median(nn):.3f} vs GA {np.median(ga):.3f}, "
               f"slowest run {slowest:.1f}s")


def test_criterion_07_elitism_monotonic(ga_comparison_runs):
    _, runs = ga_comparison_runs
    ok = True
    for _, _, ga_run, _ in runs:
        best = [c.best_fitness for c in ga_run.cycles]
        ok &= all(later <= earlier
                  for earlier, later in zip(best, best[1:]))
    _criterion(7, "per-cycle best fitness is non-increasing in every GA run",
               ok)


# ---------------------------------------------------------------------------
# 8. crossover / mutation golden values
# ---------------------------------------------------------------------------

def test_criterion_08_operator_goldens():
    i1, _ = crossover(np.array([1.0, 2.0, 3.0, 4.0]),
                      np.array([5.0, 6.0, 7.0, 8.0]), k=3, alpha=0.3)
    ok = bool(np.all(np.abs(i1 - np.array([1.0, 2.0, 5.8, 6.8])) <= 1e-12))
    up = apply_mutation(np.array([0.5]), 0, 0.2, 0.7)
    ok &= abs(up[0] - 0.7) <= 1e-12
    down = apply_mutation(np.array([0.1]), 0, 0.5, 0.2)
    ok &= down[0] == 0.0
    _criterion(8, "crossover and mutation reproduce the worked examples", ok)


# ---------------------------------------------------------------------------
# 9. metrics against the reference confusion matrices
# ---------------------------------------------------------------------------

def test_criterion_09_reference_metrics():
    ok = True
    # the count arrays rebuilt from samples, and the grids as given
    for nn, ga in ((matrix_from_counts(FIG_NN), matrix_from_counts(FIG_GA)),
                   (np.array(FIG_NN), np.array(FIG_GA))):
        precision, recall, _ = class_rates(nn)
        ok &= abs(100 * precision[0] - 85.7) <= 0.05
        ok &= abs(100 * recall[0] - 100.0) <= 0.05
        ok &= abs(100 * error_rate(nn) - 26.7) <= 0.05
        ok &= abs(100 * error_rate(ga) - 10.0) <= 0.05
        # the error complements the accuracy exactly in rational arithmetic
        total, trace = int(nn.sum()), int(np.trace(nn))
        ok &= Fraction(total - trace, total) + Fraction(trace, total) == 1
    _criterion(9, "precision/recall/test error reproduce the reference "
                  "matrices", ok)


# ---------------------------------------------------------------------------
# 10. AUC oracle
# ---------------------------------------------------------------------------

def test_criterion_10_auc_oracle():
    rng = np.random.default_rng(1010)
    start = time.perf_counter()
    worst = 0.0
    trials = 0
    while trials < 100:
        n = int(rng.integers(2, 201))
        scores = np.round(rng.random(n), 2)
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            continue
        trials += 1
        curve = roc_curve(scores, labels)
        pos = scores[labels][:, None]
        neg = scores[~labels][None, :]
        frac = float(((pos > neg).sum() + 0.5 * (pos == neg).sum())
                     / (pos.shape[0] * neg.shape[1]))
        worst = max(worst, abs(curve.auc - frac))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _criterion(10, "trapezoidal AUC equals the tie-adjusted concordant-pair "
                   "fraction", ok, f"max diff {worst:.1e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 11. determinism of the compare command
# ---------------------------------------------------------------------------

def test_criterion_11_compare_determinism(tmp_path, labeled_synthetic):
    import hashlib

    labeled, _ = labeled_synthetic
    csv_path = tmp_path / "labeled.csv"
    save_csv(labeled, csv_path)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[ga]\ncycles = 4\npopulation = 6\n", encoding="utf-8")

    def digest(out):
        tree = {}
        for p in sorted(out.rglob("*")):
            if p.is_file():
                tree[str(p.relative_to(out))] = hashlib.sha256(
                    p.read_bytes()).hexdigest()
        return tree

    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["--seed", "11", "--config", str(cfg), "--quiet",
                         "--out", str(out), "compare", str(csv_path)])
        assert code == 0
        outs.append(digest(out))
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    _criterion(11, "compare output trees are byte-identical across reruns",
               ok, f"{len(outs[0])} files")


# ---------------------------------------------------------------------------
# 12. supervised framework shape
# ---------------------------------------------------------------------------

def test_criterion_12_supervised_shape(iris_like):
    cfg = SHIPPED.labeling._replace(num_clusters=3, seed=0)
    labeled, pairs = label_supervised(iris_like, cfg,
                                      ["petal_len", "petal_wid"],
                                      ["sepal_len", "sepal_wid"])
    reports = [report for _, report in pairs]
    ok = len(reports) == 3
    ok &= all(r.points == 50 for r in reports)
    ok &= all(min(r.nd, r.cna, r.cpa, r.pa) > 0 for r in reports
              if r.clusters >= 2)
    ok &= all(r.clusters >= 2 for r in reports)
    ok &= labeled.n == 150
    counts = " ".join(f"[{r.nd}/{r.cna}/{r.cpa}/{r.pa}]" for r in reports)
    _criterion(12, "3-class dataset yields three 50-point sub-reports with "
                   "all label types", ok, counts)
