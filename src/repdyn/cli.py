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
from .errors import ERRORS, ConfigurationError, check_count, check_real
from .report import write_bundle
from .svg import emit_svg

FLOW_CHOICES = ("td", "mc", "nstep", "tdlambda", "joint", "ensemble", "rc", "limit")
MDP_CHOICES = ("chain", "four-rooms", "two-state")
# the flags each --flow reads besides flow, mdp, gamma, t_max, samples, seed and out;
# a run checks and records (in config.json) only the flags it read (left_prob on the
# chain, step at beta > 0)
_HEAD_FLAGS = ("k", "m", "alpha", "beta", "step")
_FLOW_FLAGS = {"td": (), "mc": (), "nstep": ("n",), "tdlambda": ("lam",),
               "joint": ("k", "alpha", "beta", "step"), "ensemble": _HEAD_FLAGS,
               "rc": _HEAD_FLAGS, "limit": ("k",)}


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse defaults to 2, which is reserved for failed checks)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _coerce_like(default, text: str):
    if isinstance(default, tuple):
        return tuple(_coerce_like(default[0], part) for part in text.split(","))
    try:
        return type(default)(text)
    except ValueError:
        raise ConfigurationError(f"expected {type(default).__name__}, got {text!r}") from None


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
    p.add_argument("--left-prob", type=float, default=0.5,
                   help="left-action probability of the chain's policy")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    return parser


def _build_chain(which: str, left_prob: float, gamma: float) -> mdp.MarkovChain:
    if which == "chain":
        return experiments.chain_drift(gamma, left_prob)
    if which == "four-rooms":
        rooms, pol = mdp.build_four_rooms()
        return mdp.induce(rooms, pol, gamma)
    return experiments.two_state_chain(gamma)


def _run_flow_command(args) -> int:
    read = {"flow", "mdp", "gamma", "t_max", "samples", "seed", "out", *_FLOW_FLAGS[args.flow]}
    if args.mdp == "chain":
        read.add("left_prob")
    if not args.beta > 0:
        read.discard("step")
    check_count("--seed", args.seed, 0)
    check_real("--t-max", args.t_max, 0.0)
    chain = _build_chain(args.mdp, args.left_prob, args.gamma)
    n = chain.n_states
    for flag, floats in (("samples", 1), ("k", n), ("m", max(args.k, n * (args.flow == "rc")))):
        if flag in read:  # --k sizes Phi_0 (n x k), --m the heads (m x k) and rc's cumulants
            check_count(f"--{flag}", getattr(args, flag), floats=floats)
    times = np.linspace(0.0, args.t_max, args.samples)
    if np.any(np.diff(times) <= 0.0):
        raise ConfigurationError(f"--samples {args.samples} needs distinct times in "
                                 f"[0, --t-max], got --t-max {args.t_max:g}")
    rng = np.random.default_rng(args.seed)
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
        weights = flows.sample_weights(args.m, args.k, 1.0 / args.m, rng)
        cumulants = None
        if args.flow == "rc":
            cumulants = flows.sample_cumulants(args.m, n, rng)
        state0 = flows.EnsembleState(phi0, weights, cumulants)
        traj = flows.ensemble_flow(chain, state0, args.alpha, args.beta, times, args.step)
    else:  # limit
        phi0 = rng.standard_normal((n, args.k))
        spec = flows.LinearFlowSpec(
            -(np.eye(n) - chain.gamma * chain.transition), np.zeros((n, args.k)), phi0)
        traj = flows.linear_limit_flow(spec, times)

    config = {k: v for k, v in vars(args).items() if k in read}
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
        overrides["seed"] = args.seed if args.seed is not None else overrides.get("seed", 0)
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
    except (*ERRORS, MemoryError) as exc:  # MemoryError: an allocation the machine refused
        kind = "numerical failure" if isinstance(exc, RuntimeError) else "error"
        print(f"repdyn: {kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
