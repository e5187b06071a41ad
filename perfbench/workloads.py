"""The benchmark's workloads: the items of a pass, how each runs, how each is verified.

Every workload is a closed loop: one process runs its items one after
another, and a pass is one run of every item. Items call repdyn only through
public functions (``experiments.EXPERIMENTS`` and ``cli.main``), use default
configs, and save their bundle to disk.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

# Statistical experiments take the workload seed modulo this as their seed,
# so the ten-seed check before a baseline covers every input a run can make.
ITEM_SEEDS = 10
# Four-rooms cost depends strongly on the seed: at the first commit of this
# benchmark seed 2 drives trained head weights into subnormal floats and
# takes about three times as long as seed 1. A pass runs both, so every pass
# holds both kinds and wall time does not swing with the workload seed,
# which only sets their order.
FOUR_ROOMS_SEEDS = (1, 2)

# The `repdyn flow` calls of value-flows; the oracle below assumes these values.
FLOW_KINDS = ("td", "nstep", "tdlambda", "mc", "limit")
FLOW_GAMMA, FLOW_N, FLOW_LAMBDA, FLOW_K = 0.9, 3, 0.5, 4
FLOW_T_MAX, FLOW_SAMPLES = 100.0, 101
ORACLE_TOL = 1e-8

WORKLOADS = ("frozen-linear", "trained-heads", "value-flows", "spectral-transfer")


@dataclass(frozen=True)
class Item:
    id: str
    kind: str  # "experiment" or "flow"
    name: str  # experiment name, or flow kind for `repdyn flow`
    seed: int

    def argv(self, out_dir: str) -> list:
        return ["flow", "--flow", self.name, "--mdp", "four-rooms",
                "--gamma", str(FLOW_GAMMA), "--n", str(FLOW_N), "--lam", str(FLOW_LAMBDA),
                "--k", str(FLOW_K), "--t-max", str(FLOW_T_MAX),
                "--samples", str(FLOW_SAMPLES), "--seed", str(self.seed), "--out", out_dir]


def _experiment(name: str, seed: int) -> Item:
    return Item(f"{name}.seed{seed}", "experiment", name, seed)


def items(workload: str, seed: int) -> list:
    s = seed % ITEM_SEEDS
    if workload == "frozen-linear":
        return [_experiment("multi-task", s), _experiment("limit-checks", s)]
    if workload == "trained-heads":
        shift = seed % len(FOUR_ROOMS_SEEDS)
        order = FOUR_ROOMS_SEEDS[shift:] + FOUR_ROOMS_SEEDS[:shift]
        return [_experiment("four-rooms", k) for k in order]
    if workload == "value-flows":
        return [Item(f"flow-{kind}.seed{s}", "flow", kind, s) for kind in FLOW_KINDS]
    if workload == "spectral-transfer":
        return [_experiment(name, s) for name in ("chain-transfer", "bayes-opt", "two-state")]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def build_inputs(workload: str, seed: int) -> list:
    """What a fresh process does before its first item: import repdyn, build the items and MDPs."""
    from repdyn import experiments, mdp

    result = items(workload, seed)
    if workload in ("trained-heads", "value-flows"):
        mdp.build_four_rooms()
    else:
        experiments.chain_uniform()
    return result


def run_item(item: Item, out_dir: str) -> None:
    from repdyn import cli, experiments

    if item.kind == "experiment":
        experiments.EXPERIMENTS[item.name]({"seed": item.seed}).save(out_dir)
        return
    code = cli.main(item.argv(out_dir))
    if code != 0:
        raise RuntimeError(f"repdyn flow exited {code}")


def table_digests(out_dir: str) -> dict:
    tables = os.path.join(out_dir, "tables")
    digests = {}
    for name in sorted(os.listdir(tables)):
        with open(os.path.join(tables, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


class Verifier:
    """Checks each item's bundle; remembers each item's first table digests in this run."""

    def __init__(self):
        self.first_digests: dict = {}
        self._oracle_basis = None

    def check(self, item: Item, out_dir: str) -> tuple:
        """(table digests, list of problems); no problems means the item passed."""
        problems = []
        with open(os.path.join(out_dir, "checks.json")) as handle:
            checks = json.load(handle)
        problems += [f"check {c['name']} failed: value={c['value']!r} threshold={c['threshold']!r}"
                     for c in checks if not c["passed"]]
        digests = table_digests(out_dir)
        first = self.first_digests.setdefault(item.id, digests)
        if digests != first:
            problems.append("table bytes differ from this item's first pass")
        if item.kind == "flow":
            problems += self._check_flow(item, os.path.join(out_dir, "tables", "trajectory.csv"))
        return digests, problems

    def _basis(self):
        """Eigenbasis of the symmetric four-rooms walk, its reward and value."""
        if self._oracle_basis is None:
            from repdyn import mdp

            rooms, policy = mdp.build_four_rooms()
            chain = mdp.induce(rooms, policy, FLOW_GAMMA)
            lam, U = np.linalg.eigh(chain.transition)
            v_star = U @ ((U.T @ chain.reward) / (1.0 - FLOW_GAMMA * lam))
            self._oracle_basis = lam, U, v_star
        return self._oracle_basis

    def _check_flow(self, item: Item, path: str) -> list:
        """Compare the written trajectory with an eigenbasis closed form of the same flow."""
        lam, U, v_star = self._basis()
        n = len(lam)
        g = FLOW_GAMMA * lam
        rates = {
            "td": 1.0 - g,
            "nstep": 1.0 - g ** FLOW_N,
            "tdlambda": 1.0 - (1.0 - FLOW_LAMBDA) * g / (1.0 - FLOW_LAMBDA * g),
            "mc": np.ones(n),
            "limit": 1.0 - g,
        }[item.name]
        if item.name == "limit":
            start = np.random.default_rng(item.seed).standard_normal((n, FLOW_K))
            fixed = np.zeros((n, 1))
        else:
            start, fixed = np.zeros((n, 1)), v_star[:, None]
        with open(path) as handle:
            lines = [ln for ln in handle.read().splitlines() if ln and not ln.startswith("#")]
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        times = np.linspace(0.0, FLOW_T_MAX, FLOW_SAMPLES)
        if item.name == "limit":
            states = rows[:, 3].reshape(FLOW_SAMPLES, n, FLOW_K)
            written_times = rows[::n * FLOW_K, 0]
        else:
            states = rows[:, 1:, None]
            written_times = rows[:, 0]
        if states.shape[0] != len(times) or not np.array_equal(written_times, times):
            return [f"trajectory has {states.shape[0]} samples, expected {len(times)}"]
        coeff = U.T @ (start - fixed)
        expected = np.stack([fixed + U @ (np.exp(-t * rates)[:, None] * coeff) for t in times])
        err = float(np.abs(states - expected).max())
        if not err <= ORACLE_TOL * max(1.0, float(np.abs(expected).max())):
            return [f"trajectory differs from the eigenbasis closed form by {err:.3e}"]
        return []
