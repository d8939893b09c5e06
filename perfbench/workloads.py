"""Workload definitions and the seeded input generator.

Every workload runs the shipped synthetic mixture through the CLI.  The
generator scales the mixture to the workload's size: blob centres, spreads
and the scatter box stay as shipped, and every count is multiplied by
n/195.  The program only ever receives the generated INI file, the CSVs it
wrote itself and ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

# The shipped [synthetic] mixture (195 points): cx, cy, sx, sy, count.
SHIPPED_BLOBS = (
    (35, 35, 5, 5, 44),
    (48, 44, 7, 4, 38),
    (60, 52, 4, 7, 30),
    (70, 62, 6, 6, 33),
    (82, 72, 3, 3, 30),
)
SHIPPED_SCATTER = 20
SHIPPED_BOUNDS = (-20, -20, 120, 120)
SHIPPED_N = sum(b[4] for b in SHIPPED_BLOBS) + SHIPPED_SCATTER

# The shipped labeling defaults, written into every INI file so that the
# output checks recompute point anomalies with the values the program used.
KNN_K = 5
SCORE_MULTIPLIER = 2.0

# The benchmark's self-tests run every workload at most this large, with
# smaller GA and training budgets.
SHRUNK_N = 300
SHRUNK_SECTIONS = """
[ga]
cycles = 2
population = 4

[train]
max_epochs = 15
"""


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    steps: tuple


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("ref_compare", 195, ("synth", "label", "compare")),
    Workload("label_6k", 6000, ("synth", "label")),
    # Run by hand only: one pass takes 7-13 s and its work depends on the
    # dataset, so a run cannot average enough datasets to be steady.
    Workload("compare_1k", 1000, ("synth", "label", "compare")),
)}


def scaled_counts(n: int):
    """Blob and scatter counts of the shipped mixture scaled to about n."""
    scale = n / SHIPPED_N
    blobs = [max(1, round(b[4] * scale)) for b in SHIPPED_BLOBS]
    return blobs, max(1, round(SHIPPED_SCATTER * scale))


def make_ini(n: int, shrink: bool = False) -> str:
    """INI text for a mixture of about n points with shipped defaults."""
    blobs, scatter = scaled_counts(n)
    lines = ["[synthetic]",
             "bounds = " + ", ".join(str(v) for v in SHIPPED_BOUNDS),
             f"scatter = {scatter}"]
    for i, (blob, count) in enumerate(zip(SHIPPED_BLOBS, blobs), start=1):
        lines.append(f"blob{i} = " + ", ".join(str(v) for v in blob[:4])
                     + f", {count}")
    lines += ["", "[labeling]", f"knn_k = {KNN_K}",
              f"score_multiplier = {SCORE_MULTIPLIER}"]
    text = "\n".join(lines) + "\n"
    return text + SHRUNK_SECTIONS if shrink else text


def dataset_size(n: int) -> int:
    blobs, scatter = scaled_counts(n)
    return sum(blobs) + scatter


def cli_seed(seed: int, dataset: int) -> int:
    """CLI seed of the dataset-th input of a run; dataset 0 of workload
    seed s is CLI seed 1000*s, so seed 0 reproduces ``synth --seed 0``."""
    return 1000 * seed + dataset


def step_args(step: str, ini: str, seed: int, workdir: str):
    """CLI arguments of one pipeline step; files live under workdir."""
    common = ["--config", ini, "--seed", str(seed), "--quiet"]
    data = f"{workdir}/data.csv"
    if step == "synth":
        return common + ["synth", data]
    if step == "label":
        return common + ["--out", f"{workdir}/label", "label", data]
    if step == "compare":
        return common + ["--out", f"{workdir}/compare", "compare",
                         f"{workdir}/label/labeled.csv"]
    raise ValueError(f"unknown step {step!r}")


def step_output(step: str, workdir: str) -> str:
    return {"synth": f"{workdir}/data.csv", "label": f"{workdir}/label",
            "compare": f"{workdir}/compare"}[step]
