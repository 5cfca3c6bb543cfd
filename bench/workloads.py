"""The three benchmark workloads: the CLI commands each runs, and their checks.

Each workload turns a seed into a list of ``modalmr`` command lines (writing
any input file first, outside the timed region) and then reads the
commands' outputs back to check them and to extract its quality metrics.

* ``learning_curve`` -- the paper's headline experiment on a 6-state lazy
  walk: covariates repeat heavily, the m grid straddles the 600-sample
  direct/CG switch of the q=2 inner solve.
* ``fit_predict`` -- ``fit --q 1``, ``fit --method gradient`` and
  ``predict`` on one generated dataset whose covariates are all distinct:
  the Python-loop coordinate descent, the line-search objective calls, file
  I/O and CLI start-up.  Both fits stop at their iteration caps.
* ``breakdown`` -- contamination breakdown on an 8-state iid chain: many
  small direct-path multistart fits, a gram rebuilt per contamination
  level, all outliers sharing one covariate.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Seed of the reference pass whose results are stored in reference.json.
REFERENCE_SEED = 0

# Largest allowed |predict - fitted| on fit_predict.
PREDICT_ATOL = 1e-9


@dataclass
class Outcome:
    """One finished CLI command."""

    argv: list
    code: int
    stdout: str
    wall_s: float
    maxrss_mb: float = 0.0


@dataclass
class Evaluation:
    """What the checks found in one run of a workload's commands."""

    quality: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    failed_fits: int = 0
    problems: list = field(default_factory=list)


def _csv_column(path: Path, column: str) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        return np.array([float(row[column]) for row in csv.DictReader(fh)])


def _objective(stdout: str) -> float:
    match = re.search(r"objective=([^,\s]+)", stdout)
    if match is None:
        raise ValueError(f"no objective in fit output {stdout!r}")
    return float(match.group(1))


class LearningCurve:
    name = "learning_curve"
    m_grid = (256, 512, 600, 601, 1024)
    replicates = 4
    quality_names = ("mean_excess_risk",)
    # Relative tolerance against the stored reference, and whether a value
    # may only rise ("rise") or must match on both sides ("both").
    tolerance = {"excess_risk": (1e-6, "both"), "slope": (1e-6, "both")}

    def commands(self, workdir: Path, seed: int) -> list:
        return [[
            "learning-curve", "--chain-family", "lazy-walk", "--chain-n", "6",
            "--laziness", "0.5", "--noise", "student-t", "--dof", "2",
            "--noise-scale", "0.5", "--schedule", "theorem2",
            "--m-grid", ",".join(str(m) for m in self.m_grid),
            "--replicates", str(self.replicates), "--seed", str(seed),
            "--jobs", "1", "--out", str(workdir / "curve.csv"),
        ]]

    def evaluate(self, workdir: Path, outcomes: list) -> Evaluation:
        excess = _csv_column(workdir / "curve.csv", "excess_risk")
        manifest = json.loads((workdir / "curve.csv.manifest.json").read_text())
        results = manifest["results"]
        ev = Evaluation(failed_fits=int(results["n_failed"]))
        if len(excess) != self.replicates * len(self.m_grid):
            ev.problems.append(f"learning curve has {len(excess)} rows")
        if not np.all(np.isfinite(excess)):
            ev.problems.append("learning curve has non-finite excess risks")
        if ev.failed_fits:
            ev.problems.append(f"learning curve manifest reports {ev.failed_fits} failed fits")
        ev.quality["mean_excess_risk"] = float(np.mean(excess))
        ev.summary = {"excess_risk": excess.tolist(), "slope": [results["slope"]]}
        return ev


class FitPredict:
    name = "fit_predict"
    m = 384
    quality_names = ("q1_objective", "gradient_objective")
    # The q=1 fit stops at its iteration cap, so a solver that gets further
    # in the same iterations may raise its objective but not lower it.
    tolerance = {"q1_objective": (1e-6, "rise"), "gradient_objective": (1e-6, "both")}

    def write_dataset(self, path: Path, seed: int) -> None:
        """Distinct uniform covariates on [0, 1], y = f*(x) + shifted-gamma noise.

        Shifted-gamma noise has its mode, not its mean, at zero: the case
        modal regression is for.
        """
        from modalmr import harness, risk

        rng = np.random.default_rng([seed, 7])
        x = rng.uniform(0.0, 1.0, size=(self.m, 1))
        if len(np.unique(x)) != self.m:
            raise ValueError("generated covariates are not distinct")
        f_star = np.array([risk.default_target(v) for v in x])
        noise = risk.shifted_gamma_noise(2.0, 0.1).sample(rng, self.m)
        harness.write_dataset_file(path, harness.Dataset(
            x=x, y=f_star + noise, states=np.arange(self.m), noise_draws=noise,
            f_star_values=f_star, seed=seed,
        ))

    def commands(self, workdir: Path, seed: int) -> list:
        data = str(workdir / "data.txt")
        self.write_dataset(workdir / "data.txt", seed)
        shared = ["--data", data, "--sigma", "0.8", "--lambda", "1e-4", "--jobs", "1"]
        return [
            ["fit", *shared, "--q", "1", "--max-iters", "20",
             "--out", str(workdir / "q1.model")],
            # At the default --tol some seeds stop a little short of the
            # 2000-iteration cap; a tighter one keeps the cap showing.
            ["fit", *shared, "--method", "gradient", "--phi", "epanechnikov",
             "--tol", "1e-12", "--fitted-out", str(workdir / "fitted.csv"),
             "--out", str(workdir / "gradient.model")],
            ["predict", "--model", str(workdir / "gradient.model"), "--data", data,
             "--jobs", "1", "--out", str(workdir / "predicted.csv")],
        ]

    def evaluate(self, workdir: Path, outcomes: list) -> Evaluation:
        ev = Evaluation()
        q1, gradient = (_objective(o.stdout) for o in outcomes[:2])
        fitted = _csv_column(workdir / "fitted.csv", "fitted")
        predicted = _csv_column(workdir / "predicted.csv", "prediction")
        if not (len(fitted) == len(predicted) == self.m):
            ev.problems.append(f"{len(fitted)} fitted and {len(predicted)} predicted values")
        elif not np.all(np.isfinite(predicted)):
            ev.problems.append("non-finite predictions")
        else:
            gap = float(np.max(np.abs(predicted - fitted)))
            if gap > PREDICT_ATOL:
                ev.problems.append(f"predict differs from --fitted-out by {gap:.3e}")
        ev.quality = {"q1_objective": q1, "gradient_objective": gradient}
        ev.summary = {"q1_objective": [q1], "gradient_objective": [gradient]}
        return ev


class Breakdown:
    name = "breakdown"
    m = 240
    outliers = (0, 40, 80, 160, 240, 320)
    magnitudes = ("100", "1000000")
    quality_names = ()
    tolerance = {
        "N": (1e-6, "both"),
        "bracket": (0.0, "both"),
        "clean_norm": (1e-6, "both"),
        "coef_norm": (1e-6, "both"),
    }

    def commands(self, workdir: Path, seed: int) -> list:
        return [[
            "breakdown", "--chain-family", "iid", "--chain-n", "8", "--m", str(self.m),
            "--n-outliers", ",".join(str(n) for n in self.outliers),
            "--magnitudes", ",".join(self.magnitudes), "--seed", str(seed),
            "--jobs", "1", "--out", str(workdir / "breakdown.csv"),
        ]]

    def evaluate(self, workdir: Path, outcomes: list) -> Evaluation:
        ev = Evaluation()
        lines = (workdir / "breakdown.csv").read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0].lstrip("# "))
        norms = np.array([float(line.split(",")[2]) for line in lines[2:]])
        low = math.floor(header["N"])
        bracket = [header["n_star_low"], header["n_star_high"]]
        if bracket != [low, low + 1]:
            ev.problems.append(f"bracket {bracket} is not (floor(N), floor(N)+1) for N={header['N']}")
        if f"bracket=({low}, {low + 1})" not in outcomes[0].stdout:
            ev.problems.append("printed bracket disagrees with the breakdown file")
        if max(self.outliers) <= bracket[1]:
            ev.problems.append(f"outlier counts stop before the bracket {bracket}")
        if len(norms) != len(self.outliers) * len(self.magnitudes) or not np.all(np.isfinite(norms)):
            ev.problems.append("contamination curve is incomplete or non-finite")
        ev.summary = {
            "N": [header["N"]],
            "bracket": bracket,
            "clean_norm": [header["clean_norm"]],
            "coef_norm": norms.tolist(),
        }
        return ev


WORKLOADS = {w.name: w for w in (LearningCurve(), FitPredict(), Breakdown())}

QUALITY_NAMES = tuple(n for w in WORKLOADS.values() for n in w.quality_names)


def compare_to_reference(workload, summary: dict, reference: dict) -> list:
    """Problems found comparing a reference-seed summary with the stored one."""
    problems = []
    for key, (rtol, sense) in workload.tolerance.items():
        got = np.asarray(summary[key], dtype=float)
        want = np.asarray(reference[key], dtype=float)
        if got.shape != want.shape:
            problems.append(f"{key}: shape {got.shape}, reference {want.shape}")
            continue
        limit = rtol * np.abs(want) + 1e-12
        bad = got < want - limit
        if sense == "both":
            bad |= got > want + limit
        if np.any(bad):
            worst = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
            problems.append(f"{key} differs from the reference by up to {worst:.3e} (relative)")
    return problems
