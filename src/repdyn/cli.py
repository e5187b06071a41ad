"""Command-line surface: experiment runners and raw flow evaluation.

Exit codes: 0 when every recorded check passed (or the command has none),
2 when any check failed, 1 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import experiments, flows, mdp
from .errors import ERRORS, ConfigurationError
from .report import write_bundle
from .svg import emit_svg

FLOW_CHOICES = ("td", "mc", "nstep", "tdlambda", "joint", "ensemble", "rc", "limit")
MDP_CHOICES = ("chain", "four-rooms", "two-state")


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse defaults to 2, which is reserved for failed checks)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _coerce_like(default, text: str):
    if isinstance(default, (int, float)):
        try:
            return type(default)(text)
        except ValueError:
            raise ConfigurationError(
                f"expected {type(default).__name__}, got {text!r}") from None
    if isinstance(default, (tuple, list)):
        element = default[0] if len(default) else 0.0
        return tuple(_coerce_like(element, part) for part in text.split(","))
    return text


def _parse_overrides(pairs, defaults: dict) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigurationError(f"override {pair!r} is not of the form key=value")
        key, _, value = pair.partition("=")
        if key not in defaults:
            raise ConfigurationError(
                f"unknown override key {key!r}; known keys: {sorted(defaults)}")
        out[key] = _coerce_like(defaults[key], value)
    return out


def _default_seed() -> int:
    env = os.environ.get("REPDYN_SEED") or "0"
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(f"REPDYN_SEED must be an integer, got {env!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="repdyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in experiments.EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory (default out/<command>)")
        p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                       help="override a config entry (repeatable)")

    p = sub.add_parser("flow", help="evaluate a single flow and dump its trajectory")
    p.add_argument("--flow", required=True, choices=FLOW_CHOICES)
    p.add_argument("--mdp", default="chain", choices=MDP_CHOICES)
    p.add_argument("--policy", default="uniform", choices=("uniform", "left", "right"))
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--n", type=int, default=3, help="lookahead steps for --flow nstep")
    p.add_argument("--lam", type=float, default=0.5, help="lambda for --flow tdlambda")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--k", type=int, default=4, help="feature count for matrix flows")
    p.add_argument("--m", type=int, default=64, help="head count for ensemble flows")
    p.add_argument("--step", type=float, default=flows.DEFAULT_STEP)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    return parser


def _build_chain(which: str, policy: str, gamma: float) -> mdp.MarkovChain:
    if which == "chain":
        if policy == "uniform":
            return experiments.chain_uniform(gamma)
        return experiments.chain_drift(gamma, left_prob=1.0 if policy == "left" else 0.0)
    if which == "four-rooms":
        rooms, pol = mdp.build_four_rooms()
        return mdp.induce(rooms, pol, gamma)
    two, pol = mdp.build_two_state_mdp(**{
        "stay_prob_a": experiments.TWO_STATE_DEFAULTS["stay_prob_a"],
        "stay_prob_b": experiments.TWO_STATE_DEFAULTS["stay_prob_b"],
        "rewards": experiments.TWO_STATE_DEFAULTS["rewards"],
    })
    return mdp.induce(two, pol, gamma)


def _run_flow_command(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if seed < 0:
        raise ConfigurationError("seed must be nonnegative")
    for flag in ("k", "m", "samples"):
        if getattr(args, flag) < 1:
            raise ConfigurationError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    if not np.isfinite(args.t_max):
        raise ConfigurationError(f"--t-max must be finite, got {args.t_max}")
    chain = _build_chain(args.mdp, args.policy, args.gamma)
    times = np.linspace(0.0, args.t_max, args.samples)
    n = chain.n_states
    rng = np.random.default_rng(seed)
    v0 = np.zeros(n)

    if args.flow == "td":
        traj = flows.td_value_flow(chain, v0, times)
    elif args.flow == "mc":
        traj = flows.mc_value_flow(chain, v0, times)
    elif args.flow == "nstep":
        traj = flows.nstep_value_flow(chain, args.n, v0, times)
    elif args.flow == "tdlambda":
        traj = flows.td_lambda_value_flow(chain, args.lam, v0, times)
    elif args.flow == "joint":
        phi0 = rng.standard_normal((n, args.k))
        w0 = rng.standard_normal(args.k)
        traj = flows.joint_flow(chain, phi0, w0, args.alpha, args.beta, times, args.step)
    elif args.flow in ("ensemble", "rc"):
        phi0 = rng.standard_normal((n, args.k))
        weights = flows.sample_weights(args.m, args.k, 1.0 / args.m, seed)
        cumulants = None
        if args.flow == "rc":
            cumulants = flows.sample_cumulants(args.m, n, seed + 1)
        state0 = flows.EnsembleState(phi0, weights, cumulants)
        traj = flows.ensemble_flow(chain, state0, args.alpha, args.beta, times, args.step)
    else:  # limit
        phi0 = rng.standard_normal((n, args.k))
        spec = flows.LinearFlowSpec(
            -(np.eye(n) - chain.gamma * chain.transition), np.zeros((n, args.k)), phi0)
        traj = flows.linear_limit_flow(spec, times)

    config = {k: v for k, v in vars(args).items() if k not in ("command", "overrides")}
    config["seed"] = seed
    if traj.states.shape[2] == 1:
        figure = emit_svg(np.column_stack([traj.times, traj.values()]), "line",
                          title=f"{args.flow} value flow")
    else:
        norms = [float(np.linalg.norm(s)) for s in traj.states]
        figure = emit_svg(np.column_stack([traj.times, norms]), "line",
                          title=f"{args.flow} flow norm")
    write_bundle(args.out or os.path.join("out", "flow"), config,
                 {"trajectory": flows.trajectory_to_csv(traj)}, {"trajectory": figure}, [])
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "flow":
            return _run_flow_command(args)
        defaults = experiments.EXPERIMENT_DEFAULTS[args.command]
        overrides = _parse_overrides(args.overrides, defaults)
        overrides["seed"] = args.seed if args.seed is not None else \
            overrides.get("seed", _default_seed())
        bundle = experiments.EXPERIMENTS[args.command](overrides)
        out_dir = args.out or os.path.join("out", args.command)
        bundle.save(out_dir)
        failed = [c.name for c in bundle.checks if not c.passed]
        for check in bundle.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"[{status}] {check.name}: value={check.value:.6g} "
                  f"threshold={check.threshold:.6g}")
        if failed:
            print(f"{len(failed)} check(s) failed", file=sys.stderr)
            return 2
        return 0
    except ERRORS as exc:
        kind = "numerical failure" if isinstance(exc, RuntimeError) else "error"
        print(f"repdyn: {kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
