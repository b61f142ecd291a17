"""Batch command-line interface.

    fr3sim run --config cfg.ini [--preset inh-nf-2] [--seed 7] ...

Every RunConfig field is a ``--kebab-case`` flag (``bool`` fields also have
``--no-...``); any unique prefix works, so ``--fc`` is ``--fc-ghz``.
Exit codes: 0 success, 3 data/parameter error, 2 configuration error, such
as ``layout = indoor`` outside InH or ``force_location = indoor`` in a
scenario without indoor UEs.
"""

import argparse
import sys
from dataclasses import fields

from .harness import ConfigError, RunConfig, load_config, requirement, run
from .scenario import ParameterError


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, as for a bad file."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    p = _Parser(prog="fr3sim", description="FR3 channel model batch simulator")
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="execute a simulation run")
    r.add_argument("--config", help="INI config file")
    r.add_argument("--preset", help="named preset configuration")
    for f in fields(RunConfig):
        choices = f.metadata.get("choices")
        hint = f"one of {', '.join(map(repr, choices))}; " if choices else ""
        if "needs" in f.metadata:
            hint += f"needs {requirement(f)}; "
        action = argparse.BooleanOptionalAction if f.type is bool else None
        r.add_argument("--" + f.name.replace("_", "-"), action=action,
                       help=f"{hint}default {f.default!r}")
    return p


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config", "preset")}
        cfg = load_config(args.config, args.preset, overrides)
        reports = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(reports)} link reports to {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
